"""Unit tests for the observability subsystem (``repro.obs``)."""

import json

import pytest

from repro.obs import (
    DuplicateMetric, MetricRegistry, Observatory,
    sparkline, write_jsonl,
)
from repro.obs.snapshots import TimelineSampler, take_sample
from repro.sim.engine import Engine


class TestHistogram:
    def test_bucket_placement_is_deterministic(self):
        reg = MetricRegistry()
        h = reg.histogram("x.latency", (10, 20, 40))
        for value in (1, 10, 11, 20, 21, 40, 41, 1000):
            h.observe(value)
        # edges are inclusive upper bounds; past the last edge is the
        # overflow bucket.
        assert h.snapshot() == {
            "edges": [10, 20, 40],
            "counts": [2, 2, 2, 2],
            "count": 8,
            "total": 1 + 10 + 11 + 20 + 21 + 40 + 41 + 1000,
        }

    def test_same_observations_same_snapshot(self):
        def build():
            reg = MetricRegistry()
            h = reg.histogram("x.words", (4, 8, 16))
            for value in (3, 5, 9, 17, 4, 8):
                h.observe(value)
            return h.snapshot()

        assert build() == build()

    def test_unordered_edges_rejected(self):
        reg = MetricRegistry()
        with pytest.raises(ValueError):
            reg.histogram("x.bad", (10, 5))
        with pytest.raises(ValueError):
            reg.histogram("x.dup", (5, 5, 10))
        with pytest.raises(ValueError):
            reg.histogram("x.empty", ())


class TestRegistry:
    def test_duplicate_name_rejected(self):
        reg = MetricRegistry()
        reg.counter("a.b")
        with pytest.raises(DuplicateMetric):
            reg.counter("a.b")
        with pytest.raises(DuplicateMetric):
            reg.gauge("a.b")

    def test_unwired_lists_untouched_metrics(self):
        reg = MetricRegistry()
        reg.counter("a.used").inc()
        reg.counter("a.forgotten")
        reg.gauge("a.gauge")
        reg.histogram("a.hist", (1, 2))
        assert reg.unwired() == ["a.forgotten", "a.gauge", "a.hist"]
        # The kinds filter excuses histograms (legitimately empty on
        # runs with no matching traffic).
        assert reg.unwired(("counter", "gauge")) == \
            ["a.forgotten", "a.gauge"]
        reg.get("a.gauge").set(3.5)
        assert reg.unwired(("counter", "gauge")) == ["a.forgotten"]

    def test_set_total_overwrites(self):
        reg = MetricRegistry()
        counter = reg.counter("a.total")
        counter.inc(5)
        counter.set_total(42)
        assert counter.snapshot() == 42 and counter.touched

    def test_snapshot_round_trips_through_json(self):
        reg = MetricRegistry()
        reg.counter("b.count").set_total(7)
        reg.gauge("a.frac").set(1 / 3)
        h = reg.histogram("c.hist", (2, 4))
        h.observe(1)
        h.observe(3)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)  # sorted-name order
        restored = json.loads(json.dumps(snap))
        assert restored == snap
        assert restored["a.frac"] == 1 / 3  # floats bit-identical


def _engine_with_machine_stub():
    """A minimal machine around a bare engine, for sampler tests."""

    class _Timer:
        enabled = False

    class _NI:
        input_queue_length = 0
        timer = _Timer()

    class _Node:
        node_id = 0
        ni = _NI()

    class _Fabric:
        @staticmethod
        def blocked_count(node_id):
            return 0

    class _Machine:
        engine = Engine()
        jobs = []
        nodes = [_Node()]
        fabric = _Fabric()

    return _Machine()


class TestTimelineSampler:
    def test_samples_on_interval(self):
        machine = _engine_with_machine_stub()
        sampler = TimelineSampler(machine, interval=10, limit=5)
        sampler.start()
        machine.engine.run()
        # limit=5 samples at t=0,10,20,30,40, then truncation.
        assert [s["t"] for s in sampler.samples] == [0, 10, 20, 30, 40]
        assert sampler.truncated

    def test_final_sample_deduplicates(self):
        machine = _engine_with_machine_stub()
        sampler = TimelineSampler(machine, interval=10, limit=100)
        sample = sampler.final_sample()
        assert sample is not None and sampler.samples[-1] is sample
        assert sampler.final_sample() is None  # same time: no new sample
        assert len(sampler.samples) == 1

    def test_take_sample_is_json_safe(self):
        machine = _engine_with_machine_stub()
        sample = take_sample(machine)
        assert json.loads(json.dumps(sample)) == sample

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            TimelineSampler(_engine_with_machine_stub(), interval=0)


class TestObservatory:
    def test_note_event_is_bounded(self):
        machine = _engine_with_machine_stub()
        obs = Observatory(machine, event_limit=2)
        obs.note_event("a", x=1)
        obs.note_event("b")
        obs.note_event("c")
        assert [e["kind"] for e in obs.events] == ["a", "b"]
        assert obs.events_dropped == 1
        assert obs.events[0] == {"t": 0, "kind": "a", "x": 1}

    def test_taxonomy_declares_all_subsystems(self):
        obs = Observatory(_engine_with_machine_stub())
        groups = {name.partition(".")[0]
                  for name in obs.registry.names()}
        assert groups == {"engine", "fabric", "ni", "kernel",
                          "buffering", "overflow", "two_case",
                          "delivery", "transport", "mailbox", "shard"}

    def test_payload_without_sampler_has_no_snapshots(self):
        obs = Observatory(_engine_with_machine_stub())
        payload = obs.payload()
        assert "snapshots" not in payload
        assert set(payload) == {"metrics", "events", "events_dropped"}


class TestSparkline:
    def test_empty_and_constant(self):
        assert sparkline([]) == ""
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_monotone_ramp_uses_full_range(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(line) == 8

    def test_downsamples_by_bucket_max(self):
        values = [0] * 100
        values[50] = 9  # a single spike must survive downsampling
        line = sparkline(values, width=10)
        assert len(line) == 10
        assert "█" in line


class TestWriteJsonl:
    def test_line_count_and_types(self, tmp_path):
        payload = {
            "metrics": {"a.x": 1, "b.y": {"edges": [1], "counts": [0, 2],
                                          "count": 2, "total": 5}},
            "snapshots": [{"t": 0, "buffer_pages": 0}],
            "events": [{"t": 5, "kind": "mode-enter"}],
            "events_dropped": 0,
            "interval": 10,
        }
        path = tmp_path / "obs.jsonl"
        lines = write_jsonl(path, payload, spec="standalone(...)")
        text = path.read_text(encoding="utf-8").splitlines()
        assert lines == len(text) == 1 + 2 + 1 + 1
        parsed = [json.loads(line) for line in text]
        assert parsed[0]["type"] == "meta"
        assert parsed[0]["spec"] == "standalone(...)"
        assert {p["type"] for p in parsed[1:]} == \
            {"metric", "snapshot", "event"}
