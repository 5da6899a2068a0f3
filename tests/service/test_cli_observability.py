"""CLI flows for the flight recorder: `repro profile`, `repro top`, and
`repro bench-compare`."""

import json

import pytest

from repro import telemetry
from repro.cli import main


class TestProfile:
    def test_stream_profile_prints_phase_tree(self, capsys):
        rc = main(
            [
                "profile",
                "--packets", "4000",
                "--flows", "300",
                "--seed", "3",
                "--epoch-size", "500",
                "--chunk", "1000",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "workload=stream" in out
        assert "service.rotate" in out
        assert "rotate.reset" in out
        assert "measured wall:" in out
        assert "recorded phases cover" in out
        # The command must not leave the shared recorder enabled.
        assert telemetry.RECORDER.enabled is False

    def test_batch_profile_writes_chrome_trace_and_json(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        spans_path = tmp_path / "spans.json"
        rc = main(
            [
                "profile",
                "--workload", "batch",
                "--packets", "4000",
                "--flows", "300",
                "--seed", "3",
                "--trace-out", str(trace_path),
                "--json", str(spans_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "workload=batch" in out
        assert "ctl.trace" in out

        chrome = json.loads(trace_path.read_text())
        assert chrome["displayTimeUnit"] == "ms"
        assert chrome["otherData"]["workload"] == "batch"
        events = chrome["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert "ctl.trace" in {e["name"] for e in events}

        payload = json.loads(spans_path.read_text())
        assert payload["wall_ms"] > 0
        assert len(payload["spans"]) == len(events)

    def test_unknown_task_preset_fails(self, capsys):
        rc = main(["profile", "--packets", "100", "--tasks", "bogus"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err


class TestTop:
    def test_no_clear_appends_frames_and_summary(self, capsys):
        rc = main(
            [
                "top",
                "--packets", "5000",
                "--flows", "300",
                "--seed", "4",
                "--epoch-size", "800",
                "--chunk", "1000",
                "--no-clear",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "\x1b[2J" not in out  # no-clear means no terminal escapes
        assert out.count("repro top") >= 5  # one frame per chunk
        assert "rate" in out and "kpps" in out
        assert "sealed" in out
        assert "watchers" in out
        assert "health" in out
        assert "served " in out and " packets across " in out

    def test_watch_fill_requires_hh_task(self, capsys):
        rc = main(
            [
                "top",
                "--packets", "100",
                "--tasks", "card",
                "--watch-fill", "0.5",
            ]
        )
        assert rc == 2
        assert "watch-fill" in capsys.readouterr().err


class TestBenchCompare:
    def _write_result(self, directory, speedup=2.0):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "BENCH_demo.json").write_text(
            json.dumps({"name": "demo", "speedup": speedup})
        )

    def test_update_then_compare_ok(self, tmp_path, capsys):
        results = tmp_path / "results"
        baseline = tmp_path / "baseline.json"
        self._write_result(results, speedup=2.0)
        rc = main(
            [
                "bench-compare",
                "--results-dir", str(results),
                "--baseline", str(baseline),
                "--update-baseline",
            ]
        )
        assert rc == 0
        assert "baseline with 1 bench(es)" in capsys.readouterr().out
        rc = main(
            [
                "bench-compare",
                "--results-dir", str(results),
                "--baseline", str(baseline),
                "--verbose",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 regression(s)" in out

    def test_regression_sets_exit_code(self, tmp_path, capsys):
        results = tmp_path / "results"
        baseline = tmp_path / "baseline.json"
        self._write_result(results, speedup=2.0)
        assert main(
            [
                "bench-compare",
                "--results-dir", str(results),
                "--baseline", str(baseline),
                "--update-baseline",
            ]
        ) == 0
        self._write_result(results, speedup=0.5)
        rc = main(
            [
                "bench-compare",
                "--results-dir", str(results),
                "--baseline", str(baseline),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSED" in out
        assert "demo:speedup" in out

    def test_missing_results_dir_errors(self, tmp_path, capsys):
        rc = main(
            [
                "bench-compare",
                "--results-dir", str(tmp_path / "nothing"),
                "--baseline", str(tmp_path / "baseline.json"),
            ]
        )
        assert rc == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_missing_baseline_is_not_an_error(self, tmp_path, capsys):
        results = tmp_path / "results"
        self._write_result(results)
        rc = main(
            [
                "bench-compare",
                "--results-dir", str(results),
                "--baseline", str(tmp_path / "missing.json"),
            ]
        )
        assert rc == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_record_history_appends_ledger(self, tmp_path, capsys):
        results = tmp_path / "results"
        history = tmp_path / "history.jsonl"
        self._write_result(results)
        rc = main(
            [
                "bench-compare",
                "--results-dir", str(results),
                "--baseline", str(tmp_path / "missing.json"),
                "--record-history", str(history),
            ]
        )
        assert rc == 0
        assert "history: recorded 1 bench(es)" in capsys.readouterr().out
        entries = [
            json.loads(line) for line in history.read_text().splitlines()
        ]
        assert entries[0]["benches"]["demo"] == {"speedup": 2.0}
