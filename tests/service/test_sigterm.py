"""Graceful SIGTERM for ``repro serve``: seal the tail, flush the WAL.

A supervisor's SIGTERM must not tear the service down mid-window.  The
serve loop installs a handler that stops ingesting, seals the open
window, and flushes/reattaches the WAL -- then exits 0.  The on-disk WAL must recover cleanly afterwards.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import recover_service_artifact

REPO = Path(__file__).resolve().parents[2]

SERVE_ARGS = [
    "serve",
    "--generator", "zipf",
    "--packets", "400000",
    "--flows", "1000",
    "--seed", "9",
    "--epoch-size", "2000",
    "--chunk", "500",
    # The whole run is 200 epochs: every epoch printed before the signal
    # lands is still in the recovered ring however late the signal is
    # delivered (a ring of 64 gave it ~0.3 s at 5 ms per epoch).
    "--retain", "256",
    "--tasks", "hh,card",
    "--threshold", "80",
]


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("FLYMON_FAULTS", None)
    return env


def _serve_until_first_epoch(tmp_path, wal_dir):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *SERVE_ARGS,
         "--wal", str(wal_dir)],
        env=_cli_env(), cwd=str(tmp_path),
        stdout=subprocess.PIPE, text=True,
    )
    lines = []
    deadline = time.monotonic() + 240
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        if line.startswith("epoch "):
            return proc, lines
    proc.kill()
    pytest.fail("serve never sealed an epoch:\n" + "".join(lines))


class TestGracefulSigterm:
    def test_sigterm_seals_tail_and_exits_clean(self, tmp_path):
        wal_dir = tmp_path / "wal"
        proc, lines = _serve_until_first_epoch(tmp_path, wal_dir)
        try:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=240)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
        output = "".join(lines) + out
        assert proc.returncode == 0, output
        assert "sigterm: sealed the open window" in output
        # the final stats line ran, i.e. the full shutdown path completed
        assert "served " in output

        # the flushed WAL recovers: every sealed epoch is durable,
        # including the tail window sealed by the handler itself.
        recovered = recover_service_artifact(str(wal_dir))
        assert recovered["epochs"], output
        indices = [e["index"] for e in recovered["epochs"]]
        assert indices == sorted(indices)
        printed = {
            int(line.split(":")[0].split()[1])
            for line in output.splitlines()
            if line.startswith("epoch ")
        }
        # everything announced on stdout before the signal is on disk
        assert printed <= set(indices), (printed, indices)

    def test_sigterm_before_any_epoch_still_exits_clean(self, tmp_path):
        """Signal landing inside the very first window: the handler seals
        the partial epoch 0 and still exits 0."""
        wal_dir = tmp_path / "wal"
        health = tmp_path / "health.json"
        args = [a for a in SERVE_ARGS]
        args[args.index("--epoch-size") + 1] = "300000"  # never seals alone
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args,
             "--wal", str(wal_dir), "--health-out", str(health)],
            env=_cli_env(), cwd=str(tmp_path),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            # the health file is written from inside the ingest loop, i.e.
            # strictly after the SIGTERM handler is installed
            deadline = time.monotonic() + 240
            while not health.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert health.exists(), "serve never reached the ingest loop"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=240)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
        assert proc.returncode == 0, out
        assert "sigterm: sealed the open window" in out
        assert "served " in out
        # the handler sealed the partial first window into the WAL
        recovered = recover_service_artifact(str(wal_dir))
        assert [e["index"] for e in recovered["epochs"]] == [0]
