"""Executor observability tests: cache tallies, spans, and parity."""

import pytest

from repro import obs
from repro.runtime.executor import (
    RunExecutor,
    cache_stats,
    reset_cache_stats,
)


def square(x):
    return x * x


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    reset_cache_stats()
    yield
    obs.disable()
    reset_cache_stats()


class TestCacheStats:
    def test_tally_counts_hits_and_misses(self, tmp_path):
        ex = RunExecutor(1, cache_dir=tmp_path)
        ex.map(square, [1, 2, 3])
        ex.map(square, [1, 2, 3])
        stats = cache_stats()
        assert stats["hits"] == 3 and stats["misses"] == 3
        assert stats["hit_rate"] == 0.5

    def test_reset_zeroes_the_process_tally(self, tmp_path):
        ex = RunExecutor(1, cache_dir=tmp_path)
        ex.map(square, [1])
        reset_cache_stats()
        stats = cache_stats()
        assert stats == {"hits": 0, "misses": 0, "hit_rate": 0.0}

    def test_uncached_executor_leaves_the_tally_alone(self, monkeypatch):
        from repro.runtime.executor import CACHE_ENV
        monkeypatch.delenv(CACHE_ENV, raising=False)
        RunExecutor(1).map(square, [1, 2])
        assert cache_stats() == {"hits": 0, "misses": 0, "hit_rate": 0.0}

    def test_instance_counters_are_per_executor(self, tmp_path):
        """Each executor's outcomes show as its own delta of the
        process tally: the second one hits what the first computed."""
        def delta(ex):
            before = cache_stats()
            ex.map(square, [1])
            after = cache_stats()
            return (after["hits"] - before["hits"],
                    after["misses"] - before["misses"])

        assert delta(RunExecutor(1, cache_dir=tmp_path)) == (0, 1)
        assert delta(RunExecutor(1, cache_dir=tmp_path)) == (1, 0)


class TestTracing:
    def events(self, name):
        return [ev for ev in obs.tracer().events if ev["name"] == name]

    def test_cached_map_emits_hit_and_miss_instants(self, tmp_path):
        obs.enable()
        ex = RunExecutor(1, cache_dir=tmp_path)
        ex.map(square, [1, 2])
        ex.map(square, [2, 3])
        assert len(self.events("executor.cache_miss")) == 3
        assert len(self.events("executor.cache_hit")) == 1
        maps = self.events("executor.map")
        assert [m["args"]["cached"] for m in maps] == [True, True]
        assert maps[1]["args"]["cache_hits"] == 1
        assert maps[1]["args"]["cache_misses"] == 1

    def test_uncached_map_span_says_so(self, monkeypatch):
        from repro.runtime.executor import CACHE_ENV
        monkeypatch.delenv(CACHE_ENV, raising=False)
        obs.enable()
        RunExecutor(1).map(square, [1, 2, 3])
        [span] = self.events("executor.map")
        assert span["args"]["cached"] is False
        assert span["args"]["items"] == 3
        assert span["args"]["fn"] == "square"

    def test_serial_traced_run_spans_carry_queue_wait(self, monkeypatch):
        from repro.runtime.executor import CACHE_ENV
        monkeypatch.delenv(CACHE_ENV, raising=False)
        obs.enable()
        RunExecutor(1).map(square, [4, 5])
        runs = self.events("executor.run")
        assert [r["args"]["index"] for r in runs] == [0, 1]
        waits = [r["args"]["queue_wait_ms"] for r in runs]
        assert waits[0] <= waits[1]  # later runs queue behind earlier

    def test_metrics_count_run_outcomes(self, tmp_path):
        obs.enable()
        ex = RunExecutor(1, cache_dir=tmp_path)
        ex.map(square, [1, 2])
        ex.map(square, [1, 2])
        snap = {(r["name"], r["labels"].get("outcome")): r["value"]
                for r in obs.metrics().snapshot()}
        assert snap[("executor.runs", "computed")] == 2
        assert snap[("executor.runs", "cached")] == 2

    def test_traced_results_match_untraced(self, tmp_path):
        plain = RunExecutor(1, cache_dir=tmp_path / "a").map(
            square, [1, 2, 3])
        obs.enable()
        traced = RunExecutor(1, cache_dir=tmp_path / "b").map(
            square, [1, 2, 3])
        assert traced == plain == [1, 4, 9]
