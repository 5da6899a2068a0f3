"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_full_flag(self):
        args = build_parser().parse_args(["run", "fig11", "--full"])
        assert args.full is True


class TestCommands:
    def test_list_algorithms(self, capsys):
        assert main(["list-algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("cms", "beaucoup", "hll", "max_interarrival", "odd_sketch"):
            assert name in out
        assert "<unavailable" not in out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_fast_experiment(self, capsys):
        assert main(["run", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out and "TCAM" in out

    def test_run_fig02(self, capsys):
        assert main(["run", "fig02"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_every_experiment_is_importable(self):
        import importlib

        for module_name in EXPERIMENTS.values():
            module = importlib.import_module(module_name)
            assert callable(module.run)
            assert callable(module.format_result)


class TestBatchSizeEnv:
    """FLYMON_BATCH_SIZE has one parser: a non-integer value is an error
    that names the variable and the value at every entry point (it used to
    be a bare ``int()`` traceback in the experiment drivers and silently
    ignored by the service)."""

    def test_experiment_driver_rejects_garbage(self, monkeypatch):
        from repro.experiments.common import default_batch_size

        monkeypatch.setenv("FLYMON_BATCH_SIZE", "abc")
        with pytest.raises(ValueError, match="FLYMON_BATCH_SIZE.*'abc'"):
            default_batch_size()

    def test_service_rejects_garbage(self, monkeypatch):
        from repro.core.controller import FlyMonController
        from repro.service import MeasurementService
        from repro.traffic import zipf_trace

        monkeypatch.setenv("FLYMON_BATCH_SIZE", "abc")
        service = MeasurementService(FlyMonController(num_groups=1))
        with pytest.raises(ValueError, match="FLYMON_BATCH_SIZE.*'abc'"):
            service.ingest(zipf_trace(num_flows=4, num_packets=8, seed=0))

    def test_main_reports_error_and_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("FLYMON_BATCH_SIZE", "abc")
        assert main(["run", "table3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: FLYMON_BATCH_SIZE")
        assert "'abc'" in captured.err
        assert "Traceback" not in captured.err

    def test_valid_values_keep_their_meaning(self, monkeypatch):
        from repro.experiments.common import DEFAULT_BATCH_SIZE, default_batch_size
        from repro.service.engine import DEFAULT_SERVICE_BATCH, _default_batch_size

        for raw, driver, service in (
            ("", DEFAULT_BATCH_SIZE, DEFAULT_SERVICE_BATCH),
            ("512", 512, 512),
            ("0", None, DEFAULT_SERVICE_BATCH),  # drivers: scalar reference
        ):
            monkeypatch.setenv("FLYMON_BATCH_SIZE", raw)
            assert default_batch_size() == driver
            assert _default_batch_size() == service
