"""Checkpoint-coverage rules against deliberately broken fixture classes.

Each fixture is the minimal version of a real failure mode the rule
exists to catch: an attribute assigned in ``__init__`` and mutated later
but absent from ``snapshot()``, a ``restore()`` reading a key
``snapshot()`` never writes, and a snapshot with no version field.
"""

import textwrap

from repro.lint import lint_source


def _ids(source: str) -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(source))]


#: A correct component: every mutated attribute covered, keys symmetric,
#: version field present and checked.
CLEAN = """
    class Counter:
        def __init__(self):
            self.total = 0.0
            self._timer = None  # wiring, never mutated after init

        def tick(self, value):
            self.total += value

        def snapshot(self):
            return {"version": 1, "total": self.total}

        def restore(self, state):
            if state.get("version", 1) != 1:
                raise ValueError("schema mismatch")
            self.total = state["total"]
"""


class TestCleanFixtureStaysQuiet:
    def test_no_findings(self):
        assert _ids(CLEAN) == []


class TestAttributeCoverage:
    def test_mutated_attribute_missing_from_snapshot_fires(self):
        # `dropped` is assigned in __init__ and mutated in tick() but
        # neither snapshotted nor restored: a round-trip silently resets
        # it — exactly the bug class the tentpole motivates.
        findings = _ids("""
            class Counter:
                def __init__(self):
                    self.total = 0.0
                    self.dropped = 0

                def tick(self, value, lost):
                    self.total += value
                    self.dropped += lost

                def snapshot(self):
                    return {"version": 1, "total": self.total}

                def restore(self, state):
                    self.total = state["total"]
        """)
        assert "ckpt-attr-coverage" in findings

    def test_init_only_attributes_are_quiet(self):
        # Attributes never reassigned after __init__ are rebuilt by the
        # stack assembly and need no snapshot coverage.
        assert "ckpt-attr-coverage" not in _ids(CLEAN)

    def test_classes_without_the_pair_are_ignored(self):
        assert _ids("""
            class Plain:
                def __init__(self):
                    self.total = 0.0

                def tick(self, value):
                    self.total += value
        """) == []


class TestKeyDrift:
    def test_restore_reads_unwritten_key_fires(self):
        findings = _ids("""
            class Counter:
                def __init__(self):
                    self.total = 0.0

                def snapshot(self):
                    return {"version": 1, "total": self.total}

                def restore(self, state):
                    self.total = state["total"]
                    self.offset = state["offset"]
        """)
        assert "ckpt-key-drift" in findings

    def test_snapshot_writes_unread_key_fires(self):
        findings = _ids("""
            class Counter:
                def __init__(self):
                    self.total = 0.0
                    self.offset = 0.0

                def snapshot(self):
                    return {"version": 1, "total": self.total,
                            "offset": self.offset}

                def restore(self, state):
                    self.total = state["total"]
        """)
        assert "ckpt-key-drift" in findings

    def test_version_key_needs_no_read(self):
        # `version` may be consumed by a shared helper rather than a
        # literal state["version"] read; the drift rule exempts it.
        assert "ckpt-key-drift" not in _ids(CLEAN)

    def test_get_counts_as_a_read(self):
        assert "ckpt-key-drift" not in _ids("""
            class Counter:
                def __init__(self):
                    self.total = 0.0

                def snapshot(self):
                    return {"version": 1, "total": self.total}

                def restore(self, state):
                    self.total = state.get("total", 0.0)
        """)

    def test_nested_dict_keys_balance(self):
        # Engine-style nesting: per-task dicts inside the state dict are
        # written as literals and read back through iteration.
        assert "ckpt-key-drift" not in _ids("""
            class Engine:
                def __init__(self):
                    self.tasks = []

                def snapshot(self):
                    return {"version": 1,
                            "tasks": [{"tid": t.tid, "done": t.done}
                                      for t in self.tasks]}

                def restore(self, state):
                    for t, rec in zip(self.tasks, state["tasks"]):
                        t.tid = rec["tid"]
                        t.done = rec["done"]
        """)


class TestMissingVersion:
    def test_versionless_snapshot_fires(self):
        findings = _ids("""
            class Counter:
                def __init__(self):
                    self.total = 0.0

                def snapshot(self):
                    return {"total": self.total}

                def restore(self, state):
                    self.total = state["total"]
        """)
        assert "ckpt-missing-version" in findings

    def test_super_extending_subclass_is_exempt(self):
        # Subclasses that extend super().snapshot() inherit the base
        # class's version field (the UrbanApp/CandleApp pattern).
        findings = _ids("""
            class Sub(Base):
                def snapshot(self):
                    state = super().snapshot()
                    state["extra"] = self.extra
                    return state

                def restore(self, state):
                    super().restore(state)
                    self.extra = state["extra"]
        """)
        assert "ckpt-missing-version" not in findings

    def test_point_in_time_snapshot_readers_are_ignored(self):
        # CounterBank.snapshot(self, time) is a measurement API, not the
        # checkpoint protocol; extra parameters exclude the class.
        assert _ids("""
            class CounterBank:
                def snapshot(self, time):
                    return {"t": time}

                def restore(self, state):
                    pass
        """) == []
