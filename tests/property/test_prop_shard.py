"""Property tests for sharded execution: bit-identical RunMetrics.

The defining contract of :mod:`repro.shard` is that distributing the
machine over worker processes is *invisible* in the results: for any
synth workload, :func:`~repro.shard.run_sharded` returns the same
:class:`~repro.analysis.metrics.RunMetrics` — field for field, float
for float — as the monolithic single-process engine. Coupling flags may
legitimately reroute an example through the serial fallback; identity
must hold either way, so every random example is a valid one.

Two families: the **windowed** protocol (all-to-all traffic, barriers
every conservative lookahead window) and **free-run** (rack-local
traffic aligned with the partition, no barriers at all).

Template: ``test_prop_delivery.py``.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.synth_sweeps import run_synth


def _pair(group_size, t_betw, seed, shards, locality_groups=0):
    """(serial, sharded, extra) metrics for one synth workload."""
    kwargs = dict(seed=seed, messages_per_node=25, num_nodes=4,
                  locality_groups=locality_groups)
    serial = run_synth(group_size, t_betw, **kwargs)
    extra: dict = {}
    sharded = run_synth(group_size, t_betw, shards=shards,
                        extra_out=extra, **kwargs)
    return serial, sharded, extra


@given(group_size=st.integers(min_value=2, max_value=8),
       t_betw=st.integers(min_value=30, max_value=1_500),
       seed=st.integers(min_value=1, max_value=100),
       shards=st.sampled_from((2, 4)))
@settings(max_examples=4, deadline=None)
def test_windowed_identity(group_size, t_betw, seed, shards):
    """All-to-all synth traffic through the time-window protocol (or
    its certified serial fallback) matches the monolithic engine."""
    serial, sharded, extra = _pair(group_size, t_betw, seed, shards)
    assert asdict(sharded) == asdict(serial), extra


@given(group_size=st.integers(min_value=2, max_value=8),
       t_betw=st.integers(min_value=30, max_value=1_500),
       seed=st.integers(min_value=1, max_value=100))
@settings(max_examples=3, deadline=None)
def test_free_run_identity(group_size, t_betw, seed):
    """Rack-local traffic aligned with the partition free-runs without
    barriers — and still matches the monolithic engine."""
    serial, sharded, extra = _pair(group_size, t_betw, seed, shards=2,
                                   locality_groups=2)
    assert asdict(sharded) == asdict(serial), extra
    assert extra["shard_mode"] in ("free-run", "serial", "serial-fallback")


@given(seed=st.integers(min_value=1, max_value=100))
@settings(max_examples=2, deadline=None)
def test_windowed_counters_account_for_traffic(seed):
    """When the windowed path completes, its counters are coherent:
    epochs ran, and every cross-shard request/reply was ferried."""
    serial, sharded, extra = _pair(5, 200, seed, shards=2)
    assert asdict(sharded) == asdict(serial)
    if extra["shard_mode"] == "windowed":
        assert extra["shard_epochs"] > 0
        assert extra["cross_shard_messages"] > 0
        assert extra["lookahead"] > 0
