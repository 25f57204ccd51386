"""Executor observability tests: spans, the cache-stats stub, parity."""

import pytest

from repro import obs
from repro.runtime.executor import RunExecutor, cache_stats


def square(x):
    return x * x


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    yield
    obs.disable()


class TestCacheStats:
    def test_uncached_executor_leaves_the_tally_alone(self):
        RunExecutor(1).map(square, [1, 2])
        assert cache_stats() == {"hits": 0, "misses": 0, "hit_rate": 0.0}


class TestTracing:
    def events(self, name):
        return [ev for ev in obs.tracer().events if ev["name"] == name]

    def test_map_span_records_fn_and_items(self):
        obs.enable()
        RunExecutor(1).map(square, [1, 2, 3])
        [span] = self.events("executor.map")
        assert span["args"]["items"] == 3
        assert span["args"]["fn"] == "square"
        assert span["args"]["workers"] == 1

    def test_serial_traced_run_spans_carry_queue_wait(self):
        obs.enable()
        RunExecutor(1).map(square, [4, 5])
        runs = self.events("executor.run")
        assert [r["args"]["index"] for r in runs] == [0, 1]
        waits = [r["args"]["queue_wait_ms"] for r in runs]
        assert waits[0] <= waits[1]  # later runs queue behind earlier

    def test_traced_results_match_untraced(self):
        plain = RunExecutor(1).map(square, [1, 2, 3])
        obs.enable()
        traced = RunExecutor(1).map(square, [1, 2, 3])
        assert traced == plain == [1, 4, 9]
