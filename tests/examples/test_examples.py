"""Smoke tests for the example scripts.

Every example must at least compile and expose ``main``; the fastest
one is executed end-to-end (the heavier ones are exercised by the
equivalent experiment/benchmark code paths).
"""

import importlib.util
import pathlib

import pytest

pytestmark = pytest.mark.slow

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_expected_examples_present(self):
        assert ALL_EXAMPLES == [
            "cluster_variability.py",
            "model_fit_and_budget.py",
            "power_policy_daemon.py",
            "progress_monitoring.py",
            "quickstart.py",
        ]

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_compiles_and_has_main(self, name):
        module = load_example(name)
        assert callable(module.main)
        assert module.__doc__ and "Usage" in module.__doc__

    def test_quickstart_runs(self, capsys):
        load_example("quickstart.py").main()
        out = capsys.readouterr().out
        assert "uncapped:" in out
        assert "model-predicted change" in out
