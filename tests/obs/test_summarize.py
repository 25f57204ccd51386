"""Summarize aggregation + ``python -m repro.obs summarize`` CLI tests."""

import pytest

from repro.obs.__main__ import main
from repro.obs.export import write_trace
from repro.obs.summarize import payload_totals, span_totals, summarize
from repro.obs.trace import Tracer


def sample_trace():
    ticks = iter(range(0, 10_000_000, 250_000))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("epoch"):
        tracer.instant("shard.payload", cmd="step", shard=0,
                       bytes_down=100, bytes_up=40)
        tracer.instant("shard.payload", cmd="step", shard=1,
                       bytes_down=120, bytes_up=60)
    with tracer.span("epoch"):
        tracer.instant("shard.payload", cmd="step", shard=0,
                       bytes_down=100, bytes_up=44)
    return tracer.events


class TestAggregation:
    def test_span_totals_count_and_durations(self):
        totals = span_totals(sample_trace())
        agg = totals["epoch"]
        assert agg["count"] == 2
        assert agg["total_ns"] == agg["mean_ns"] * 2
        assert agg["max_ns"] >= agg["mean_ns"]

    def test_payload_totals_aggregate_per_shard(self):
        totals = payload_totals(sample_trace())
        assert totals[0] == {"bytes_down": 200, "bytes_up": 84,
                             "messages": 2}
        assert totals[1] == {"bytes_down": 120, "bytes_up": 60,
                             "messages": 1}

    def test_summarize_report_contents(self):
        report = summarize(sample_trace(), source="run.json")
        assert "Trace summary: run.json" in report
        assert "epoch" in report
        assert "cache" not in report
        assert "shard 0: 200 B down / 84 B up over 2 dispatches" in report
        assert "total: 320 B down / 144 B up" in report

    def test_summarize_empty_trace(self):
        report = summarize([])
        assert "events: 0" in report
        assert "none recorded" in report


class TestCli:
    @pytest.mark.parametrize("name", ["run.json", "run.jsonl"])
    def test_summarize_either_format(self, tmp_path, capsys, name):
        path = tmp_path / name
        write_trace(path, sample_trace())
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "shard 0: 200 B down / 84 B up" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "nope.json")]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_corrupt_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("definitely not json\n")
        assert main(["summarize", str(path)]) == 2
        assert "bad.jsonl" in capsys.readouterr().err
