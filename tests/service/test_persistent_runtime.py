"""The streaming service on the sharded runtime.

Epoch rotation is the reason the worker pool is persistent: a per-epoch
window run must not pay fork + replica-build every time.  These tests pin
the contract that matters -- sharded = sequential: epochs sealed on the
pool's resident replicas, and on the in-process shard loop's per-window
(ephemeral) replicas, stay bit-identical to the ``workers=1`` batched
service across many rotations (including the pool's in-place seal) with a
live reconfiguration in between, and a `repro serve --checkpoint` artifact
produced with ``--workers 2`` answers offline queries identically to the
``--workers 1`` one.
"""

import json
import multiprocessing

import pytest

from repro.cli import main
from repro.core.controller import FlyMonController
from repro.core.task import TaskFilter
from repro.service import (
    CardinalityQuery,
    FrequencyQuery,
    MeasurementService,
    load_service_state,
)
from repro.traffic import zipf_trace
from repro.traffic.flows import KEY_SRC_IP
from repro.traffic.packet import PACKET_FIELDS
from repro.traffic.trace import Trace

from service_tasks import bloom_task, freq_task, hll_task

NUM_EPOCHS = 21


def _deploy(controller):
    return [
        controller.add_task(freq_task()),
        controller.add_task(hll_task()),
        controller.add_task(bloom_task()),
    ]


def _run_stream(trace, epoch_packets, workers):
    controller = FlyMonController(num_groups=3)
    handles = _deploy(controller)
    service = MeasurementService(
        controller,
        epoch_packets=epoch_packets,
        retain=NUM_EPOCHS + 2,
        workers=workers,
    )
    half = Trace(
        {f: trace.columns[f][: len(trace) // 2] for f in PACKET_FIELDS}
    )
    rest = Trace(
        {f: trace.columns[f][len(trace) // 2 :] for f in PACKET_FIELDS}
    )
    sealed = service.ingest(half)
    # Live reconfiguration mid-stream, mid-epoch: the pool must pick the
    # new rules up as a delta before the next window.
    controller.update_task_filter(handles[0], TaskFilter.of(protocol=(6, 8)))
    sealed += service.ingest(rest)
    rows = [
        [[v.tolist() for v in s.read_rows(h)] for h in handles]
        for s in sealed
    ]
    digests = [
        sorted((k, sorted(v)) for k, v in s.digest_sets.items())
        for s in sealed
    ]
    report = service.last_shard_report
    pool = controller._shard_pool
    seals = pool.seals if pool is not None else None
    controller.close_shard_pool()
    return rows, digests, report, seals, len(sealed)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_persistent_epochs_bit_identical_to_ephemeral(workers, monkeypatch):
    """Persistent (pool-resident) replicas and ephemeral (rebuilt per
    window, in-process) replicas both seal what the sequential service
    seals."""
    trace = zipf_trace(num_flows=500, num_packets=8000, seed=61)
    epoch_packets = len(trace) // NUM_EPOCHS

    s_rows, s_digests, s_report, _, s_n = _run_stream(trace, epoch_packets, 1)
    assert s_report is None  # workers=1 is the batched engine, unsharded
    p_rows, p_digests, p_report, p_seals, p_n = _run_stream(
        trace, epoch_packets, workers
    )
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    e_rows, e_digests, e_report, _, e_n = _run_stream(
        trace, epoch_packets, workers
    )
    assert s_n == p_n == e_n >= 20
    if workers > 1:
        assert p_report.backend == "process"
        assert p_report.degraded is None
        # Every rotation sealed the pool in place -- never a teardown.
        assert p_seals == p_n
        assert e_report.backend == "serial"
        assert "fork" in e_report.degraded
    assert s_rows == p_rows == e_rows
    assert s_digests == p_digests == e_digests


def test_rotation_reuses_the_pool():
    """After the first window the resident replicas never rebuild: every
    later report must show build_ms == 0 on all shards."""
    trace = zipf_trace(num_flows=400, num_packets=6000, seed=62)
    controller = FlyMonController(num_groups=3)
    _deploy(controller)
    service = MeasurementService(
        controller,
        epoch_packets=len(trace) // NUM_EPOCHS,
        retain=NUM_EPOCHS + 2,
        workers=2,
    )
    try:
        first = None
        for start in range(0, len(trace), 1500):
            piece = Trace(
                {
                    f: trace.columns[f][start : start + 1500]
                    for f in PACKET_FIELDS
                }
            )
            service.ingest(piece)
            if first is None:
                first = controller._shard_pool
            else:
                assert controller._shard_pool is first
            report = service.last_shard_report
            if start > 0 and report is not None:
                assert all(
                    t["build_ms"] == 0.0 for t in report.shard_timings
                )
    finally:
        controller.close_shard_pool()


def _serve_checkpoint(tmp_path, workers, name):
    path = tmp_path / name
    argv = [
        "serve",
        "--generator", "zipf",
        "--packets", "6000",
        "--flows", "400",
        "--seed", "33",
        "--epoch-size", "1000",
        "--workers", str(workers),
        "--tasks", "hh,card",
        "--checkpoint", str(path),
    ]
    assert main(argv) == 0
    with open(path) as fh:
        return json.load(fh)


def test_checkpoint_restore_parity_across_runtimes(tmp_path, capsys):
    """`repro serve --checkpoint` on the worker pool restores and answers
    queries identically to the sequential (``--workers 1``) artifact."""
    seq = load_service_state(_serve_checkpoint(tmp_path, 1, "seq.json"))
    par = load_service_state(_serve_checkpoint(tmp_path, 2, "par.json"))
    capsys.readouterr()

    assert len(par.epochs) == len(seq.epochs)
    s_hh, s_card = seq.tasks
    p_hh, p_card = par.tasks
    trace = zipf_trace(num_flows=400, num_packets=6000, seed=33)
    flows = sorted(trace.flow_sizes(KEY_SRC_IP))[:10]
    for s_epoch, p_epoch in zip(seq.epochs, par.epochs):
        assert p_epoch.index == s_epoch.index
        assert p_epoch.packets == s_epoch.packets
        for flow in flows:
            assert par.query(
                FrequencyQuery(p_hh, flow), epoch=p_epoch
            ) == seq.query(FrequencyQuery(s_hh, flow), epoch=s_epoch)
        assert par.query(
            CardinalityQuery(p_card), epoch=p_epoch
        ) == seq.query(CardinalityQuery(s_card), epoch=s_epoch)
