"""WAL crash consistency: delta records, torn tails, kill -9 recovery.

The in-process tests pin recovery parity directly: a WAL replayed through
:func:`recover_service_artifact` must reproduce the same artifact a clean
:func:`service_checkpoint` would have written -- including across
watcher-triggered resizes, whose remove+add op records recovery replays
to land the recovered controller at the exact same placement.

The subprocess test is the acceptance criterion: ``repro serve --wal``
SIGKILL'd mid-stream, then ``repro recover``, must yield sealed epochs
bit-identical to the same run left uninterrupted.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import (
    CardinalityQuery,
    FrequencyQuery,
    MeasurementService,
    ServiceWal,
    TaskRef,
    WalError,
    Watcher,
    fill_factor_metric,
    recover_service,
    recover_service_artifact,
    resize_action,
    service_checkpoint,
)
from repro.service.epoch_codec import KIND_SEAL, encode_frame
from repro.service.wal import read_wal_records
from repro.traffic import zipf_trace

from service_tasks import freq_task, hll_task
from wal_frames import frame_spans

REPO = Path(__file__).resolve().parents[2]


def _strip_timing(artifact):
    """Drop wall-clock-dependent fields before bit-identity comparison."""
    epochs = []
    for entry in artifact["epochs"]:
        entry = dict(entry)
        entry.pop("seal_ms", None)
        epochs.append(entry)
    return epochs


class TestInProcessParity:
    def _run(self, controller, wal_path, with_watcher=False):
        cms = TaskRef(controller.add_task(freq_task(threshold=80)))
        hll = TaskRef(controller.add_task(hll_task()))
        service = MeasurementService(controller, epoch_packets=2500, retain=8)
        service.register_series("cardinality", CardinalityQuery(hll))
        if with_watcher:
            service.add_watcher(
                Watcher(
                    "grow",
                    fill_factor_metric(cms),
                    above=0.0,
                    action=resize_action(cms, max_memory=1 << 14),
                    cooldown_epochs=2,
                )
            )
        wal = ServiceWal(str(wal_path)).attach(service)
        for seed in (70, 71, 72):
            service.ingest(zipf_trace(num_flows=400, num_packets=5000, seed=seed))
        wal.close()
        return service, cms, hll

    def test_recovered_artifact_matches_checkpoint(self, controller, tmp_path):
        wal_path = tmp_path / "svc.wal"
        service, cms, hll = self._run(controller, wal_path)
        reference = service_checkpoint(service)
        recovered = recover_service_artifact(str(wal_path))
        assert _strip_timing(recovered) == _strip_timing(reference)
        assert recovered["rotation"] == reference["rotation"]
        assert recovered["series"] == reference["series"]
        assert [t["placement"] for t in recovered["tasks"]] == [
            t["placement"] for t in reference["tasks"]
        ]
        assert recovered["stats"]["recovered_from_wal"] is True

    def test_recovered_queries_match_live_answers(self, controller, tmp_path):
        wal_path = tmp_path / "svc.wal"
        service, cms, hll = self._run(controller, wal_path)
        restored = recover_service(str(wal_path))
        rec_cms, rec_hll = restored.tasks
        for sealed in service.epochs:
            rec = restored.epoch(sealed.index)
            from repro.service.queries import resolve

            assert restored.query(CardinalityQuery(rec_hll), rec) == resolve(
                CardinalityQuery(hll), sealed
            )
            for flow in ((1,), (42,), (1000,)):
                assert restored.query(
                    FrequencyQuery(rec_cms, flow), rec
                ) == resolve(FrequencyQuery(cms, flow), sealed)

    def test_parity_across_watcher_resize(self, controller, tmp_path):
        # The resize's remove+add land in the WAL as op records; recovery
        # replays them, so post-resize epochs re-key to the new deployment
        # and pre-resize epochs drop the removed one -- exactly like a
        # clean checkpoint.
        wal_path = tmp_path / "svc.wal"
        service, cms, hll = self._run(controller, wal_path, with_watcher=True)
        assert any(
            e.outcome == "ok" for e in service.watcher_log
        ), "the watcher never resized; the scenario is vacuous"
        reference = service_checkpoint(service)
        recovered = recover_service_artifact(str(wal_path))
        assert _strip_timing(recovered) == _strip_timing(reference)
        assert recovered["watcher_log"] == reference["watcher_log"]

    def test_torn_tail_is_tolerated(self, controller, tmp_path):
        wal_path = tmp_path / "svc.wal"
        self._run(controller, wal_path)
        intact = recover_service_artifact(str(wal_path))
        data = wal_path.read_bytes()
        last = frame_spans(wal_path)[-1]
        half = data[last.start : (last.start + last.end) // 2]
        with open(wal_path, "ab") as fh:
            fh.write(half)  # the crash: half of one more seal frame
        torn = recover_service_artifact(str(wal_path))
        assert torn["epochs"] == intact["epochs"]

    def test_midlog_corruption_raises(self, controller, tmp_path):
        wal_path = tmp_path / "svc.wal"
        self._run(controller, wal_path)
        data = wal_path.read_bytes()
        middle = frame_spans(wal_path)[1]
        cut = (middle.start + middle.end) // 2  # truncate a middle record
        wal_path.write_bytes(data[:cut] + data[middle.end :])
        with pytest.raises(WalError, match="mid-log"):
            read_wal_records(str(wal_path))

    def test_empty_and_baseless_wals_are_rejected(self, controller, tmp_path):
        empty = tmp_path / "empty.wal"
        empty.write_bytes(b"")
        with pytest.raises(WalError, match="empty"):
            recover_service_artifact(str(empty))
        baseless = tmp_path / "baseless.wal"
        baseless.write_bytes(
            encode_frame(KIND_SEAL, {"index": 0, "packets": 0, "tasks": {}})
        )
        with pytest.raises(WalError, match="not base"):
            recover_service_artifact(str(baseless))

    @pytest.mark.parametrize("version", [1, 2])
    def test_json_lines_log_is_refused_by_version(self, tmp_path, version):
        # What the JSON-lines releases wrote: sorted keys, one record a line.
        old = tmp_path / "old.wal"
        old.write_text(
            json.dumps(
                {"type": "base", "version": version, "controller": {}},
                sort_keys=True,
            )
            + "\n"
            + json.dumps({"type": "seal", "index": 0}, sort_keys=True)
            + "\n"
        )
        with pytest.raises(WalError, match=f"WAL version {version} "):
            recover_service_artifact(str(old))
        with pytest.raises(WalError, match="before upgrading"):
            read_wal_records(str(old))

    def test_status_counts_bytes_and_splits_the_time(self, controller, tmp_path):
        wal_path = tmp_path / "svc.wal"
        controller.add_task(freq_task(threshold=80))
        service = MeasurementService(controller, epoch_packets=2500, retain=8)
        wal = ServiceWal(str(wal_path)).attach(service)
        service.ingest(zipf_trace(num_flows=400, num_packets=5000, seed=70))
        status = wal.status()
        # Bytes, not characters: a single-file log is exactly what was written.
        assert status["bytes_written"] == os.path.getsize(wal_path)
        assert status["records_written"] == 3  # base + two seals
        for key in ("encode_s", "write_s", "fsync_s"):
            assert status[key] > 0.0, key
        for surface in (service.stats(), service.health()):
            for key in ("bytes_written", "encode_s", "write_s", "fsync_s"):
                assert surface["wal_" + key] == status[key]
        wal.close()
        assert "wal_fsync_s" not in service.stats()

    def test_attach_requires_complete_history(self, controller, tmp_path):
        controller.add_task(freq_task())
        controller._history_complete = False  # caller-owned transaction ran
        service = MeasurementService(controller, epoch_packets=100)
        with pytest.raises(WalError, match="incomplete"):
            ServiceWal(str(tmp_path / "svc.wal")).attach(service)

    def test_double_attach_is_rejected(self, controller, tmp_path):
        controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=100)
        wal = ServiceWal(str(tmp_path / "a.wal")).attach(service)
        with pytest.raises(WalError, match="already"):
            ServiceWal(str(tmp_path / "b.wal")).attach(service)
        wal.close()


SERVE_ARGS = [
    "serve",
    "--generator", "zipf",
    # 120 epochs, all retained: the kill has the whole run (~0.8 s) to
    # land in, not the ~0.2 s that 40 epochs last at 5 ms each.
    "--packets", "360000",
    "--flows", "2000",
    "--seed", "77",
    "--epoch-size", "3000",
    "--chunk", "3000",
    "--retain", "128",
    "--tasks", "hh,card",
    "--threshold", "80",
    "--watch-fill", "0.0",
]


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class TestKillNineRecovery:
    def test_sigkilled_serve_recovers_identical_epochs(self, tmp_path):
        # Reference: the same run, uninterrupted (fresh process, so task-id
        # counters -- which appear in watcher action strings -- match).
        ref_ckpt = tmp_path / "ref.json"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", *SERVE_ARGS,
             "--checkpoint", str(ref_ckpt)],
            env=_cli_env(), cwd=str(tmp_path), check=True,
            stdout=subprocess.DEVNULL, timeout=300,
        )
        reference = json.loads(ref_ckpt.read_text())

        # Crash run: SIGKILL once a few epoch lines have hit stdout.
        wal_path = tmp_path / "crash.wal"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *SERVE_ARGS,
             "--wal", str(wal_path)],
            env=_cli_env(), cwd=str(tmp_path),
            stdout=subprocess.PIPE, text=True,
        )
        sealed_lines = 0
        try:
            deadline = time.monotonic() + 120
            while sealed_lines < 5:
                assert time.monotonic() < deadline, "serve never sealed"
                line = proc.stdout.readline()
                assert line, "serve exited before it could be killed"
                if line.startswith("epoch"):
                    sealed_lines += 1
        finally:
            proc.kill()  # SIGKILL: no atexit, no flush, no cleanup
            proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGKILL

        recovered = recover_service_artifact(str(wal_path))
        epochs = recovered["epochs"]
        # Every epoch whose seal record hit the log is recovered; at least
        # the ones whose stdout line we saw must be there.
        assert len(epochs) >= sealed_lines
        by_index = {e["index"]: e for e in _strip_timing(reference)}
        for entry in _strip_timing(recovered):
            assert entry == by_index[entry["index"]]
        # Placement parity: recovered deployments sit exactly where the
        # reference run's do.
        ref_tasks = json.loads(ref_ckpt.read_text())["tasks"]
        assert [t["placement"] for t in recovered["tasks"]] == [
            t["placement"] for t in ref_tasks
        ]
