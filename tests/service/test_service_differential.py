"""Streaming vs one-shot differential: every sealed epoch must be
bit-identical to an independent replay of just that window on a fresh
controller -- across >= 20 epochs, however the trace is chunked and
batched on its way in."""

import pytest

from repro.core.controller import FlyMonController
from repro.service import (
    CardinalityQuery,
    FrequencyQuery,
    MeasurementService,
    resolve,
)
from repro.traffic import zipf_trace
from repro.traffic.packet import PACKET_FIELDS
from repro.traffic.trace import Trace

from service_tasks import bloom_task, freq_task, hll_task

NUM_EPOCHS = 21


def deploy(controller):
    """The fixed task mix, always added in the same order."""
    return [
        controller.add_task(freq_task()),
        controller.add_task(hll_task()),
        controller.add_task(bloom_task()),
    ]


def window(trace, start, count):
    return Trace(
        {f: trace.columns[f][start : start + count] for f in PACKET_FIELDS}
    )


@pytest.mark.parametrize("chunks", [1, 2])
def test_sealed_epochs_match_one_shot_replays(chunks):
    trace = zipf_trace(num_flows=500, num_packets=8000, seed=61)
    epoch_packets = len(trace) // NUM_EPOCHS

    controller = FlyMonController(num_groups=3)
    handles = deploy(controller)
    service = MeasurementService(
        controller,
        epoch_packets=epoch_packets,
        retain=NUM_EPOCHS + 2,
    )
    sealed = []
    cut = -(-len(trace) // chunks)
    for start in range(0, len(trace), cut):
        sealed += service.ingest(window(trace, start, cut))
    assert len(sealed) >= 20

    probe_flows = sorted(trace.flow_sizes(handles[0].task.key))[:8]
    for epoch in sealed:
        replay_ctrl = FlyMonController(num_groups=3)
        replay_handles = deploy(replay_ctrl)
        replay_ctrl.process_trace(
            window(trace, epoch.index * epoch_packets, epoch_packets)
        )

        # Raw register state, row for row.
        for handle, replay_handle in zip(handles, replay_handles):
            sealed_rows = [v.tolist() for v in epoch.read_rows(handle)]
            replay_rows = [r.read().tolist() for r in replay_handle.rows]
            assert sealed_rows == replay_rows, (
                f"epoch {epoch.index}, task {handle.algorithm_name}: "
                "sealed registers differ from a one-shot replay"
            )

        # Typed query answers resolved through the sealed overlay.
        for flow in probe_flows:
            assert resolve(FrequencyQuery(handles[0], flow), epoch) == (
                replay_handles[0].algorithm.query(flow)
            )
        assert resolve(CardinalityQuery(handles[1]), epoch) == (
            replay_handles[1].algorithm.estimate()
        )


def test_worker_counts_agree_epoch_by_epoch():
    """Batch sizes that cut every epoch differently seal the same state.
    (The name predates the removal of the sharded runtime.)"""
    trace = zipf_trace(num_flows=400, num_packets=6000, seed=62)
    epoch_packets = len(trace) // NUM_EPOCHS

    def run(batch_size):
        controller = FlyMonController(num_groups=3)
        handles = deploy(controller)
        service = MeasurementService(
            controller,
            epoch_packets=epoch_packets,
            retain=NUM_EPOCHS + 2,
            batch_size=batch_size,
        )
        sealed = service.ingest(trace)
        return [
            [[v.tolist() for v in s.read_rows(h)] for h in handles]
            for s in sealed
        ]

    assert run(8192) == run(97)
