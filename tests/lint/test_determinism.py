"""Determinism rules: fire on host-state reads, stay quiet on seeded code."""

import pathlib
import textwrap

import pytest

from repro.lint import lint_source
from repro.lint.rules.determinism import (
    AUDITED_CLOCK_MODULES,
    is_obs_clock_module,
)

SRC = pathlib.Path(__file__).parents[2] / "src" / "repro"


def _ids(source: str) -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(source))]


class TestWallClock:
    def test_time_time_fires(self):
        assert "det-wallclock" in _ids("""
            import time

            def stamp():
                return time.time()
        """)

    def test_aliased_import_fires(self):
        assert "det-wallclock" in _ids("""
            import time as t

            def stamp():
                return t.perf_counter()
        """)

    def test_from_import_fires(self):
        assert "det-wallclock" in _ids("""
            from time import monotonic

            def stamp():
                return monotonic()
        """)

    def test_os_urandom_fires(self):
        assert "det-wallclock" in _ids("""
            import os

            def token():
                return os.urandom(8)
        """)

    def test_engine_clock_is_quiet(self):
        assert _ids("""
            def stamp(engine):
                return engine.clock.now
        """) == []

    def test_unrelated_time_attribute_is_quiet(self):
        assert _ids("""
            def read(sample):
                return sample.time
        """) == []


class TestDatetime:
    def test_datetime_now_fires(self):
        assert "det-datetime" in _ids("""
            import datetime

            def stamp():
                return datetime.datetime.now()
        """)

    def test_from_import_now_fires(self):
        assert "det-datetime" in _ids("""
            from datetime import datetime

            def stamp():
                return datetime.now()
        """)

    def test_constructed_datetime_is_quiet(self):
        assert _ids("""
            from datetime import datetime

            def fixed():
                return datetime(2019, 5, 20)
        """) == []


class TestStdlibRandom:
    def test_module_call_fires(self):
        assert "det-random" in _ids("""
            import random

            def draw():
                return random.random()
        """)

    def test_from_import_fires(self):
        assert "det-random" in _ids("""
            from random import randint

            def draw():
                return randint(0, 10)
        """)

    def test_generator_method_named_random_is_quiet(self):
        assert _ids("""
            def draw(rng):
                return rng.random()
        """) == []


class TestNumpyRng:
    def test_unseeded_default_rng_fires(self):
        assert "det-unseeded-rng" in _ids("""
            import numpy as np

            def make():
                return np.random.default_rng()
        """)

    def test_default_rng_none_fires(self):
        assert "det-unseeded-rng" in _ids("""
            import numpy as np

            def make():
                return np.random.default_rng(None)
        """)

    def test_seed_sequence_is_quiet(self):
        assert _ids("""
            import numpy as np

            def make(seed, wid):
                return np.random.default_rng([seed, wid])
        """) == []

    def test_global_numpy_rng_fires(self):
        assert "det-np-global" in _ids("""
            import numpy as np

            def draw(n):
                np.random.seed(0)
                return np.random.rand(n)
        """)


class TestEnviron:
    def test_subscript_read_fires(self):
        assert "det-environ" in _ids("""
            import os

            def cache_dir():
                return os.environ["REPRO_RESULT_CACHE"]
        """)

    def test_get_fires(self):
        assert "det-environ" in _ids("""
            import os

            def cache_dir():
                return os.environ.get("REPRO_RESULT_CACHE")
        """)

    def test_getenv_fires(self):
        assert "det-environ" in _ids("""
            import os

            def cache_dir():
                return os.getenv("REPRO_RESULT_CACHE")
        """)

    def test_environ_write_is_quiet(self):
        # Setting a variable for a child process is CLI plumbing, not a
        # read; only reads make behaviour depend on ambient state.
        assert _ids("""
            import os

            def set_cache(path):
                os.environ["REPRO_RESULT_CACHE"] = path
        """) == []

    def test_suppression_silences_the_line(self):
        assert _ids("""
            import os

            def cache_dir():
                return os.environ.get("X")  # repro-lint: disable=det-environ
        """) == []

    def test_family_suppression_silences_the_line(self):
        assert _ids("""
            import os

            def cache_dir():
                return os.environ.get("X")  # repro-lint: disable=determinism
        """) == []


class TestObsClockModule:
    """The audited obs host-clock module is recognized by path, so it
    needs no per-line suppressions — and nothing else gets the pass."""

    def _ids_at(self, source, path):
        return [f.rule for f in
                lint_source(textwrap.dedent(source), path=path)]

    CLOCK_SOURCE = """
        import time

        def perf_ns():
            return time.perf_counter_ns()

        def wall_s():
            return time.time()
    """

    def test_clock_reads_quiet_in_the_audited_module(self):
        assert self._ids_at(
            self.CLOCK_SOURCE, "src/repro/obs/hostclock.py") == []

    def test_path_match_is_a_suffix_match(self):
        assert self._ids_at(
            self.CLOCK_SOURCE,
            "/root/repo/src/repro/obs/hostclock.py") == []

    def test_other_obs_modules_get_no_pass(self):
        ids = self._ids_at(self.CLOCK_SOURCE, "src/repro/obs/trace.py")
        assert ids.count("det-wallclock") == 2

    def test_lookalike_path_gets_no_pass(self):
        ids = self._ids_at(self.CLOCK_SOURCE,
                           "src/repro/obs/not_hostclock.py")
        assert ids.count("det-wallclock") == 2

    def test_entropy_still_fires_in_the_audited_module(self):
        # The audit covers clocks only; host entropy stays forbidden.
        assert "det-wallclock" in self._ids_at("""
            import os

            def token():
                return os.urandom(8)
        """, "src/repro/obs/hostclock.py")

    def test_datetime_quiet_in_the_audited_module_only(self):
        source = """
            from datetime import datetime, timezone

            def stamp(wall):
                return datetime.fromtimestamp(wall, tz=timezone.utc)

            def now():
                return datetime.now()
        """
        assert self._ids_at(source, "src/repro/obs/hostclock.py") == []
        assert "det-datetime" in self._ids_at(
            source, "src/repro/obs/provenance.py")

    def test_shipped_clock_module_needs_no_suppressions(self):
        import pathlib
        module = pathlib.Path(__file__).parents[2] / "src" / "repro" \
            / "obs" / "hostclock.py"
        assert "repro-lint: disable" not in module.read_text()

    @pytest.mark.parametrize("package", ["daemon", "runtime"])
    def test_former_clock_packages_get_no_pass(self, package):
        # The daemon's pacing and the lockstep's shard timer once read
        # the host clock through audited modules of their own in these
        # packages; they now read repro.obs.hostclock, so every
        # path in the packages — a clock module included — is linted
        # like any other code.
        package_dir = SRC / package
        paths = [f"src/repro/{package}/{path.name}"
                 for path in package_dir.glob("*.py")]
        paths.append(f"src/repro/{package}/hostclock.py")
        for path in paths:
            ids = self._ids_at(self.CLOCK_SOURCE, path)
            assert ids.count("det-wallclock") == 2, path

    def test_shipped_tree_has_one_audited_clock_module(self):
        audited = sorted(
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            if is_obs_clock_module(str(path)))
        assert audited == ["obs/hostclock.py"]
        assert AUDITED_CLOCK_MODULES == ("repro/obs/hostclock.py",)
