"""Sharded multi-process simulation (distributed DES).

Partitions the simulated machine into per-node-group shards, each
owning its own calendar-queue engine in a forked worker process,
synchronized with a conservative time-window protocol whose lookahead
is the fabric's minimum cross-shard end-to-end latency. Cross-shard
messages are the only inter-process traffic: each window's batch is
name-encoded and rides the worker's ``multiprocessing`` pipe as one
pickled list per barrier (see :mod:`repro.shard.channel`).

The package is *self-certifying*: any condition under which sharded
timing is not provably bit-identical to the single-engine run raises a
coupling flag, and the coordinator discards the sharded attempt and
re-runs serially — the simulator-level analogue of the paper's
two-case delivery. See ``docs/SIMULATION.md`` ("Sharded execution")
and ``docs/ARCHITECTURE.md`` for the full protocol.
"""

from repro.shard.channel import decode_message, encode_message
from repro.shard.coordinator import ShardStats, run_sharded
from repro.shard.fabric import ShardFabric
from repro.shard.lookahead import (
    MIN_MESSAGE_WORDS, lookahead_for, min_cross_shard_latency,
    next_window_bound, windows_coalesced,
)
from repro.shard.machine import ShardMachine
from repro.shard.partition import owner_of, partition_nodes

__all__ = [
    "MIN_MESSAGE_WORDS", "ShardFabric", "ShardMachine", "ShardStats",
    "decode_message", "encode_message", "lookahead_for",
    "min_cross_shard_latency", "next_window_bound", "owner_of",
    "partition_nodes", "run_sharded", "windows_coalesced",
]
