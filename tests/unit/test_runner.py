"""Unit tests for the parallel runner: specs, hashing, cache and the
dispatch ladder that picks serial versus process fan-out."""

import pytest

from repro.analysis.metrics import RunMetrics
from repro.runner import (
    ResultCache, RunnerError, RunSpec, UnknownRunKind, execute_spec,
    run_specs, spec_key,
)


class TestRunSpec:
    def test_param_order_does_not_matter(self):
        a = RunSpec.make("multiprog", name="barrier", skew=0.1, seed=2)
        b = RunSpec.make("multiprog", seed=2, skew=0.1, name="barrier")
        assert a == b
        assert hash(a) == hash(b)
        assert spec_key(a) == spec_key(b)

    def test_different_params_different_key(self):
        a = RunSpec.make("multiprog", name="barrier", seed=1)
        b = RunSpec.make("multiprog", name="barrier", seed=2)
        assert spec_key(a) != spec_key(b)

    def test_different_kind_different_key(self):
        a = RunSpec.make("multiprog", seed=1)
        b = RunSpec.make("synth", seed=1)
        assert spec_key(a) != spec_key(b)

    def test_key_is_stable_across_calls(self):
        spec = RunSpec.make("standalone", name="lu", scale="fast")
        assert spec_key(spec) == spec_key(spec)

    def test_non_scalar_params_rejected(self):
        with pytest.raises(TypeError):
            RunSpec.make("multiprog", skews=[0.0, 0.1])

    def test_getitem_and_describe(self):
        spec = RunSpec.make("synth", group_size=10, t_betw=275)
        assert spec["group_size"] == 10
        with pytest.raises(KeyError):
            spec["missing"]
        assert "synth" in spec.describe()

    def test_unknown_kind_raises(self):
        with pytest.raises(UnknownRunKind):
            execute_spec(RunSpec.make("definitely_not_registered"))


def _metrics(**overrides) -> RunMetrics:
    base = RunMetrics(name="x", elapsed_cycles=123, messages_sent=7,
                      buffered_fraction=0.25, t_betw=3.5)
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec.make("multiprog", name="barrier", seed=1)
        assert cache.get(spec) is None
        metrics = _metrics()
        cache.put(spec, metrics, {"aux": 4.0})
        loaded, extra = cache.get(spec)
        assert loaded == metrics
        assert extra == {"aux": 4.0}
        assert cache.hits == 1 and cache.misses == 1

    def test_floats_roundtrip_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec.make("synth", seed=3)
        metrics = _metrics(buffered_fraction=1 / 3, t_betw=0.1 + 0.2)
        cache.put(spec, metrics)
        loaded, _ = cache.get(spec)
        assert loaded.buffered_fraction == metrics.buffered_fraction
        assert loaded.t_betw == metrics.t_betw

    def test_cost_model_version_bump_busts_cache(self, tmp_path,
                                                 monkeypatch):
        cache = ResultCache(tmp_path)
        spec = RunSpec.make("multiprog", name="enum", seed=1)
        cache.put(spec, _metrics())
        assert cache.get(spec) is not None

        from repro.core import costs
        monkeypatch.setattr(costs, "COST_MODEL_VERSION",
                            costs.COST_MODEL_VERSION + 1)
        assert cache.get(spec) is None  # the old entry is orphaned

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec.make("multiprog", name="lu", seed=1)
        cache.put(spec, _metrics())
        path = cache._path(spec)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(spec) is None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        for seed in range(3):
            cache.put(RunSpec.make("multiprog", seed=seed), _metrics())
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0


class TestCachePrune:
    def test_prune_removes_stale_version_entries(self, tmp_path,
                                                 monkeypatch):
        cache = ResultCache(tmp_path)
        for seed in range(3):
            cache.put(RunSpec.make("multiprog", seed=seed), _metrics())

        from repro.core import costs
        monkeypatch.setattr(costs, "COST_MODEL_VERSION",
                            costs.COST_MODEL_VERSION + 1)
        # Under the bumped version one fresh entry joins the directory.
        fresh = RunSpec.make("multiprog", seed=99)
        cache.put(fresh, _metrics())

        report = cache.prune()
        assert report.stale == 3
        assert report.kept == 1
        assert report.removed == 3
        assert len(cache) == 1
        assert cache.get(fresh) is not None  # survivor still hits

    def test_prune_removes_orphaned_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(RunSpec.make("multiprog", seed=1), _metrics())
        # Simulate writers killed between mkstemp and the rename.
        (tmp_path / "deadbeef.tmp").write_text("{", encoding="utf-8")
        (tmp_path / "cafe.tmp").write_text("", encoding="utf-8")
        report = cache.prune()
        assert report.tmp == 2
        assert report.stale == 0 and report.kept == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_prune_removes_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec.make("multiprog", seed=1)
        cache.put(spec, _metrics())
        cache._path(spec).write_text("{not json", encoding="utf-8")
        report = cache.prune()
        assert report.stale == 1 and report.kept == 0
        assert len(cache) == 0

    def test_prune_on_missing_directory_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path / "never_created")
        report = cache.prune()
        assert report.removed == 0 and report.kept == 0

    def test_prune_survives_files_deleted_mid_prune(self, tmp_path,
                                                    monkeypatch):
        """A concurrent writer/pruner deleting a globbed file between
        the staleness check and the unlink must not abort the prune —
        the race is counted in ``missing`` and the walk completes."""
        cache = ResultCache(tmp_path)
        specs = [RunSpec.make("multiprog", seed=seed) for seed in range(3)]
        for spec in specs:
            cache.put(spec, _metrics())
        # Resolve before the version bump: spec_key embeds the version.
        victim = cache._path(specs[0])

        from repro.core import costs
        monkeypatch.setattr(costs, "COST_MODEL_VERSION",
                            costs.COST_MODEL_VERSION + 1)
        fresh = RunSpec.make("multiprog", seed=99)
        cache.put(fresh, _metrics())
        real_is_stale = ResultCache._is_stale

        def racing_is_stale(path):
            stale = real_is_stale(path)
            if path == victim and path.exists():
                path.unlink()  # the concurrent party wins the race
            return stale

        monkeypatch.setattr(ResultCache, "_is_stale",
                            staticmethod(racing_is_stale))
        report = cache.prune()
        assert report.missing == 1      # the raced victim
        assert report.stale == 2        # the other stale entries
        assert report.kept == 1         # the fresh entry survives
        assert report.removed == 2
        assert cache.get(fresh) is not None

    def test_prune_counts_tmp_files_deleted_mid_prune(self, tmp_path,
                                                      monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put(RunSpec.make("multiprog", seed=1), _metrics())
        orphan = tmp_path / "orphan.tmp"
        orphan.write_text("", encoding="utf-8")

        from pathlib import Path
        real_unlink = Path.unlink

        def racing_unlink(self, *args, **kwargs):
            if self == orphan:
                real_unlink(self)           # someone else got it first
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        report = cache.prune()
        assert report.tmp == 0
        assert report.missing == 1
        assert report.kept == 1

    def test_clear_also_removes_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(RunSpec.make("multiprog", seed=1), _metrics())
        (tmp_path / "orphan.tmp").write_text("", encoding="utf-8")
        assert cache.clear() == 1  # counts json entries only
        assert not list(tmp_path.glob("*"))


class TestErrorCapture:
    def test_failed_run_captured_not_raised(self):
        bad = RunSpec.make("standalone", name="no_such_workload",
                           scale="fast")
        [result] = run_specs([bad], jobs=1)
        assert not result.ok
        assert "no_such_workload" in result.error
        with pytest.raises(RunnerError):
            result.require()

    def test_failure_does_not_kill_the_batch(self):
        bad = RunSpec.make("standalone", name="no_such_workload",
                           scale="fast")
        good = RunSpec.make("standalone", name="barrier", scale="fast",
                            num_nodes=2, seed=1)
        results = run_specs([bad, good], jobs=1)
        assert not results[0].ok
        assert results[1].ok
        assert results[1].metrics.messages_sent > 0

    def test_failed_runs_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = RunSpec.make("standalone", name="no_such_workload",
                           scale="fast")
        run_specs([bad], jobs=1, cache=cache)
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Runner dispatch ladder
# ----------------------------------------------------------------------
def fake_specs(n):
    return [RunSpec.make("fake", index=i) for i in range(n)]


@pytest.fixture
def fake_executor(monkeypatch):
    """Replace the worker body so no real simulation runs.

    The patch is applied to the executor module itself, so forked pool
    workers inherit it and parallel decisions can execute for real.
    """
    import repro.runner.executor as executor

    def fake_payload(spec):
        return {"metrics": ("ran", spec["index"]), "extra": {}}

    monkeypatch.setattr(executor, "_execute_payload", fake_payload)
    return executor


class TestRunnerDispatch:
    def test_invalid_mode_rejected(self, fake_executor):
        with pytest.raises(ValueError):
            run_specs(fake_specs(1), mode="turbo")

    def test_effective_one_job_goes_serial(self, fake_executor):
        info = {}
        run_specs(fake_specs(8), jobs=1, info=info)
        assert info["mode"] == "serial"
        assert info["mode_reason"] == "effective jobs == 1"
        assert info["workers"] == 0

    def test_jobs_capped_by_cpu_count(self, fake_executor, monkeypatch):
        monkeypatch.setattr(fake_executor.os, "cpu_count", lambda: 1)
        info = {}
        run_specs(fake_specs(8), jobs=16, info=info)
        assert info["mode"] == "serial"
        assert info["effective_jobs"] == 1

    def test_few_misses_go_serial(self, fake_executor, monkeypatch):
        monkeypatch.setattr(fake_executor.os, "cpu_count", lambda: 4)
        info = {}
        run_specs(fake_specs(7), jobs=4, info=info)  # 7 < 2 * 4
        assert info["mode"] == "serial"
        assert "misses (7) < 2x effective jobs (4)" == info["mode_reason"]

    def test_forced_serial(self, fake_executor, monkeypatch):
        monkeypatch.setattr(fake_executor.os, "cpu_count", lambda: 4)
        info = {}
        run_specs(fake_specs(16), jobs=4, mode="serial", info=info)
        assert info["mode"] == "serial"
        assert info["mode_reason"] == "forced serial"

    def test_forced_parallel_degrades_on_single_miss(self, fake_executor):
        info = {}
        run_specs(fake_specs(1), jobs=4, mode="parallel", info=info)
        assert info["mode"] == "serial"
        assert info["mode_reason"] == "single miss"

    def test_auto_goes_parallel_when_misses_amortize(self, fake_executor,
                                                     monkeypatch):
        monkeypatch.setattr(fake_executor.os, "cpu_count", lambda: 2)
        info = {}
        results = run_specs(fake_specs(6), jobs=2, info=info)
        assert info["mode"] == "parallel"
        assert info["mode_reason"] == "misses amortize dispatch"
        assert info["workers"] == 2
        assert info["dispatch_seconds"] >= 0.0
        # Interleaved chunks still come back in spec order.
        assert [r.metrics for r in results] == [("ran", i) for i in range(6)]

    def test_info_counts_hits_and_misses(self, fake_executor):
        class OneShotCache:
            def __init__(self):
                self.stored = {}

            def get(self, spec):
                return (("cached", spec["index"]), {}) \
                    if spec["index"] == 0 else None

            def put(self, spec, metrics, extra):
                self.stored[spec["index"]] = metrics

        info = {}
        results = run_specs(fake_specs(3), jobs=1, cache=OneShotCache(),
                            info=info)
        assert info["cache_hits"] == 1
        assert info["misses"] == 2
        assert results[0].cached and not results[1].cached
