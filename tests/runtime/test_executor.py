"""Tests for the RunExecutor process-pool fan-out."""

import os

import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.runtime.executor import RunExecutor, default_workers


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"bad item {x}")


def die(x):
    os._exit(13)  # simulate a segfault/OOM kill: no exception, no cleanup


def seeded_sum(args):
    """A worker whose output depends only on its own seed key."""
    base, idx = args
    import numpy as np

    rng = np.random.default_rng([base, idx])
    return float(rng.random(16).sum())


class TestRunExecutor:
    def test_serial_map(self):
        assert RunExecutor(1).map(square, [1, 2, 3]) == [1, 4, 9]

    def test_pool_matches_serial_and_preserves_order(self):
        items = [(7, i) for i in range(8)]
        serial = RunExecutor(1).map(seeded_sum, items)
        pooled = RunExecutor(4).map(seeded_sum, items)
        assert pooled == serial  # bit-identical, in submission order

    def test_seeds_stable_across_pool_sizes(self):
        items = [(3, i) for i in range(6)]
        results = {w: RunExecutor(w).map(seeded_sum, items)
                   for w in (1, 2, 3)}
        assert results[1] == results[2] == results[3]

    def test_single_item_runs_in_process(self):
        assert RunExecutor(8).map(square, [5]) == [25]

    def test_empty_input(self):
        assert RunExecutor(4).map(square, []) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="bad item"):
            RunExecutor(2).map(boom, [1, 2])

    def test_worker_crash_raises_simulation_error(self):
        with pytest.raises(SimulationError, match="worker process died"):
            RunExecutor(2).map(die, [1, 2, 3])

    def test_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError):
            RunExecutor(0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1
        assert RunExecutor(None).workers == default_workers()

    def test_result_cache_env_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        assert RunExecutor(1).map(square, [1, 2, 3]) == [1, 4, 9]
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_is_refused(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cache was removed"):
            RunExecutor(1, cache_dir=tmp_path)


@pytest.mark.slow
class TestExecutorWithSimulation:
    def test_delta_protocol_identical_serial_vs_pool(self):
        from repro.experiments.harness import Testbed

        kwargs = dict(
            beta=0.99, repeats=2, uncapped_window=5.0, capped_window=6.0,
            warmup=2.0, app_kwargs={"n_steps": 100_000, "n_workers": 8},
        )
        serial = Testbed(seed=4).measure_delta_progress(
            "lammps", 90.0, **kwargs)
        pooled = Testbed(seed=4).measure_delta_progress(
            "lammps", 90.0, executor=RunExecutor(2), **kwargs)
        assert pooled == serial  # frozen dataclass: field-wise equality
