"""End-to-end CLI flow: `repro serve` -> artifact -> `repro query`."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def artifact(tmp_path, capsys):
    path = tmp_path / "service.json"
    rc = main(
        [
            "serve",
            "--generator", "zipf",
            "--packets", "6000",
            "--flows", "400",
            "--seed", "9",
            "--epoch-size", "500",
            "--retain", "8",
            "--tasks", "hh,card",
            "--threshold", "50",
            "--watch-cardinality", "10",
            "--checkpoint", str(path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    return path, out


class TestServe:
    def test_serve_reports_epochs_and_writes_artifact(self, artifact):
        path, out = artifact
        assert "epoch" in out
        assert "checkpoint:" in out
        state = json.loads(path.read_text())
        assert state["version"] == 1
        assert state["stats"]["epoch"] >= 10
        assert len(state["epochs"]) == 8  # bounded by --retain
        assert [t["algorithm"] for t in state["tasks"]] == ["cms", "hll"]
        assert any(
            event["watcher"] == "cardinality_spike"
            for event in state["watcher_log"]
        )

    def test_serve_rejects_unknown_preset(self, capsys):
        assert main(["serve", "--packets", "100", "--tasks", "bogus"]) != 0
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--packets", "100", "--epoch-size", "0"],
            ["serve", "--packets", "100", "--retain", "0"],
            ["fabric", "serve", "--packets", "100", "--epoch-size", "0"],
        ],
    )
    def test_bad_rotation_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_serve_with_watch_fill_resizes(self, tmp_path, capsys):
        path = tmp_path / "resized.json"
        rc = main(
            [
                "serve",
                "--packets", "4000",
                "--flows", "2000",
                "--seed", "10",
                "--epoch-size", "1000",
                "--tasks", "hh",
                "--watch-fill", "0.01",
                "--checkpoint", str(path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fill_factor" in out
        state = json.loads(path.read_text())
        assert any(e["watcher"] == "fill_factor" for e in state["watcher_log"])


class TestQuery:
    def test_list(self, artifact, capsys):
        path, _ = artifact
        assert main(["query", "--input", str(path), "--list"]) == 0
        out = capsys.readouterr().out
        assert "cms" in out and "hll" in out
        assert "cardinality" in out  # the registered series

    def test_cardinality_and_series(self, artifact, capsys):
        path, _ = artifact
        assert main(
            ["query", "--input", str(path), "--task", "1",
             "--query", "cardinality"]
        ) == 0
        value = float(capsys.readouterr().out.strip().split()[-1])
        assert value > 0
        assert main(
            ["query", "--input", str(path), "--query", "series",
             "--series", "cardinality"]
        ) == 0
        series_lines = capsys.readouterr().out.strip().splitlines()
        assert len(series_lines) == 8  # one line per retained epoch

    def test_heavy_hitters_against_each_epoch(self, artifact, capsys):
        path, _ = artifact
        state = json.loads(path.read_text())
        for entry in state["epochs"]:
            assert main(
                ["query", "--input", str(path), "--task", "0",
                 "--epoch", str(entry["index"]), "--query", "heavy-hitters"]
            ) == 0
            capsys.readouterr()

    def test_frequency_needs_flow(self, artifact, capsys):
        path, _ = artifact
        assert main(
            ["query", "--input", str(path), "--query", "frequency"]
        ) != 0
        capsys.readouterr()
        assert main(
            ["query", "--input", str(path), "--query", "frequency",
             "--flow", "10.0.0.7"]
        ) == 0
        out = capsys.readouterr().out
        assert out.strip()

    @pytest.mark.parametrize(
        "flow, complaint",
        [
            ("10.0.0.x", "not a dotted quad or an integer"),
            ("10.0.0.300", "octet outside 0-255"),
            ("10.0.1", "not a dotted quad or an integer"),
            ("-5", "does not fit src_ip"),
            ("10.0.0.7,443", "has 2 field(s)"),
        ],
    )
    def test_bad_flow_is_a_usage_error(self, artifact, capsys, flow, complaint):
        path, _ = artifact
        rc = main(
            ["query", "--input", str(path), "--query", "frequency",
             "--flow", flow]
        )
        assert rc == 2
        assert complaint in capsys.readouterr().err

    def test_flow_arity_follows_the_task_key(self, artifact, capsys):
        path, _ = artifact
        # task 1 is hll over the 5-tuple: five fields parse, one does not
        # (and hll has no point query, which is the next complaint).
        assert main(
            ["query", "--input", str(path), "--task", "1", "--query",
             "frequency", "--flow", "10.0.0.7"]
        ) == 2
        assert "has 5" in capsys.readouterr().err
        assert main(
            ["query", "--input", str(path), "--task", "1", "--query",
             "frequency", "--flow", "10.0.0.7,10.0.0.8,1024,80,6"]
        ) == 2
        assert "no point-frequency query" in capsys.readouterr().err

    def test_tampered_artifact_is_rejected(self, artifact, capsys):
        path, _ = artifact
        state = json.loads(path.read_text())
        state["tasks"][0]["placement"][0][2] += 64
        path.write_text(json.dumps(state))
        assert main(["query", "--input", str(path), "--list"]) == 2
        assert "placement" in capsys.readouterr().err


class TestFabricQuery:
    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (["--query", "frequency"], "needs --flow"),
            (["--query", "frequency", "--flow", "10.0.0.300"], "octet"),
            (["--query", "existence", "--flow", "10.0.0.7"], "'existence'"),
        ],
    )
    def test_rejected_before_any_traffic(self, capsys, argv, complaint):
        rc = main(["fabric", "query", "--switches", "2", *argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert complaint in captured.err
        assert "epoch" not in captured.out  # nothing was ingested

    def test_unretained_epoch_is_a_usage_error(self, capsys):
        rc = main(
            ["fabric", "query", "--switches", "2", "--packets", "4000",
             "--query", "cardinality", "--epoch", "99"]
        )
        assert rc == 2
        assert "not retained" in capsys.readouterr().err
