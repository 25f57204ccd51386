"""Tests for the ``python -m repro.experiments`` entry point."""

import pytest

from repro.experiments.__main__ import _EXPERIMENTS, main


class TestCli:
    def test_every_table_and_figure_registered(self):
        expected = {f"table{i}" for i in range(1, 7)} \
            | {f"figure{i}" for i in range(1, 6)} \
            | {"ext-energy", "ext-techniques", "ext-intrusiveness",
               "extension_scheduler"}
        assert set(_EXPERIMENTS) == expected

    def test_cheap_experiment_prints_render(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "regenerated in" in out

    def test_table5_derivation_through_cli(self, capsys):
        main(["table5"])
        assert "matches the paper's Table V" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_quick_flag_accepted(self, capsys):
        assert main(["table1", "--quick", "--seed", "3"]) == 0
        assert "MIPS" in capsys.readouterr().out

    def test_list_flag_prints_every_name(self, capsys):
        assert main(["--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == sorted(_EXPERIMENTS)

    def test_missing_name_without_list_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("flag", [["--cache-dir", "x"], ["--no-cache"]])
    def test_result_cache_flags_are_gone(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["table2", *flag])
        assert exc.value.code == 2


class TestObservabilityFlags:
    def test_trace_metrics_and_manifest_written(self, tmp_path, capsys):
        import json

        from repro import obs

        trace = tmp_path / "run.json"
        metrics = tmp_path / "metrics.json"
        manifest = tmp_path / "manifest.json"
        assert main(["table3", "--seed", "2",
                     "--trace", str(trace),
                     "--metrics-out", str(metrics),
                     "--manifest-out", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert f"-> {trace} (chrome)" in out

        doc = json.loads(trace.read_text())
        names = [ev["name"] for ev in doc["traceEvents"]]
        assert "experiment.table3" in names
        assert json.loads(metrics.read_text())["metrics"] is not None

        m = json.loads(manifest.read_text())
        assert m["experiment"] == "table3"
        assert m["config"]["seed"] == 2
        assert m["trace"]["path"] == str(trace)
        assert m["wall_time_s"] >= 0
        assert "cache" not in m and "cache_dir" not in m["config"]
        # the CLI turns observability off again on the way out
        assert obs.enabled() is False

    def test_jsonl_trace_extension_selects_jsonl(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run.jsonl"
        assert main(["table3", "--trace", str(trace)]) == 0
        assert f"-> {trace} (jsonl)" in capsys.readouterr().out
        first = trace.read_text().splitlines()[0]
        assert json.loads(first)["ph"] in ("X", "i")

    def test_rendered_output_identical_with_tracing(self, tmp_path,
                                                    capsys):
        assert main(["table3"]) == 0
        plain = capsys.readouterr().out
        assert main(["table3", "--trace", str(tmp_path / "t.json")]) == 0
        traced = capsys.readouterr().out

        def render_block(out):
            return out[:out.index("regenerated in")]

        assert render_block(traced) == render_block(plain)

    def test_no_cache_activity_prints_no_cache_line(self, capsys):
        assert main(["table3"]) == 0
        assert "executor cache:" not in capsys.readouterr().out
