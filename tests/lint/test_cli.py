"""CLI, output formats, rule selection, and the self-check that the
shipped tree stays clean."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.lint import ALL_RULES, lint_paths, lint_source, select_rules
from repro.lint.__main__ import main

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

BAD = """import time

def stamp():
    return time.time()
"""


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD)
    return str(path)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one(self, bad_file, capsys):
        assert main([bad_file]) == 1
        out = capsys.readouterr().out
        assert "det-wallclock" in out
        assert "bad.py:4:" in out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main([str(tmp_path)]) == 2
        assert "broken.py" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, bad_file, capsys):
        assert main(["--rules", "no-such-rule", bad_file]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestJsonOutput:
    def test_findings_are_structured(self, bad_file, capsys):
        assert main(["--format", "json", bad_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == []
        (finding,) = [f for f in payload["findings"]
                      if f["rule"] == "det-wallclock"]
        assert finding["family"] == "determinism"
        assert finding["line"] == 4
        assert finding["path"] == bad_file

    def test_clean_tree_is_empty(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["--format", "json", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"findings": [], "errors": []}


class TestRuleSelection:
    def test_select_by_id(self, bad_file):
        findings, errors = lint_paths([bad_file],
                                      select_rules(["det-wallclock"]))
        assert errors == []
        assert {f.rule for f in findings} == {"det-wallclock"}

    def test_select_by_family(self):
        rules = select_rules(["checkpoint"])
        assert {r.family for r in rules} == {"checkpoint"}
        assert len(rules) == 3

    def test_unknown_token_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            select_rules(["bogus"])

    def test_list_rules_covers_all_four_families(self):
        assert {r.family for r in ALL_RULES} == {
            "determinism", "checkpoint", "picklable", "units"}

    def test_docs_tables_match_the_registry(self, capsys):
        # Every rule row in docs/LINTING.md names a registered rule, and
        # every registered rule has a row.
        docs = os.path.join(os.path.dirname(__file__), "..", "..", "docs",
                            "LINTING.md")
        with open(docs) as fh:
            documented = re.findall(r"^\| `([a-z-]+)` \|", fh.read(),
                                    re.MULTILINE)
        assert main(["--list-rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert sorted(documented) == sorted(listed)


class TestSuppressionSyntax:
    def test_multiple_rules_one_comment(self):
        src = ("import os, time\n"
               "x = os.environ.get('A') or time.time()"
               "  # repro-lint: disable=det-environ,det-wallclock\n")
        assert lint_source(src) == []

    def test_suppression_is_line_scoped(self):
        src = ("import time\n"
               "a = time.time()  # repro-lint: disable=det-wallclock\n"
               "b = time.time()\n")
        assert [f.line for f in lint_source(src)] == [3]

    def test_other_rules_still_fire(self):
        src = ("import time\n"
               "a = time.time()  # repro-lint: disable=det-environ\n")
        assert [f.rule for f in lint_source(src)] == ["det-wallclock"]


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, bad_file):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", bad_file],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "det-wallclock" in proc.stdout


class TestShippedTreeIsClean:
    def test_src_repro_has_no_findings(self):
        # The CI gate in code form: the tree this test ships with must
        # lint clean, suppressions included.
        findings, errors = lint_paths([os.path.join(REPO_SRC, "repro")],
                                      ALL_RULES)
        assert errors == []
        assert findings == []
