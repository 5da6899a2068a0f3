"""Service soak: long streaming runs leave no residual state and watcher
behaviour is deterministic run-to-run.

The quick variant always runs; set ``FLYMON_SOAK=1`` for the full
~200k-packet, 24-epoch soak used by CI's soak leg.
"""

import dataclasses
import os

import pytest

from repro.core.controller import FlyMonController
from repro.service import (
    CardinalityQuery,
    MeasurementService,
    TaskRef,
    Watcher,
    cardinality_metric,
    fill_factor_metric,
    resize_action,
)
from repro.traffic import zipf_trace
from repro.traffic.packet import PACKET_FIELDS
from repro.traffic.trace import Trace

from service_tasks import freq_task, hll_task

FULL_SOAK = os.environ.get("FLYMON_SOAK") == "1"


def run_soak(num_packets, chunk=4096, epochs=24):
    trace = zipf_trace(
        num_flows=max(200, num_packets // 100),
        num_packets=num_packets,
        seed=71,
    )
    controller = FlyMonController(num_groups=3)
    cms = TaskRef(controller.add_task(freq_task(memory=1024)))
    hll = TaskRef(controller.add_task(hll_task()))
    service = MeasurementService(
        controller,
        epoch_packets=len(trace) // epochs,
        retain=8,
    )
    service.register_series("card", CardinalityQuery(hll))
    service.add_watcher(
        Watcher(
            "grow",
            fill_factor_metric(cms),
            above=0.5,
            action=resize_action(cms),
            cooldown_epochs=2,
        )
    )
    service.add_watcher(
        Watcher("card_spike", cardinality_metric(hll), above=50.0)
    )
    for start in range(0, len(trace), chunk):
        service.ingest(
            Trace(
                {
                    f: trace.columns[f][start : start + chunk]
                    for f in PACKET_FIELDS
                }
            )
        )
    if service.stats()["epoch_fill"]:
        service.rotate()
    return trace, controller, service, (cms, hll)


def check_soak(num_packets):
    trace, controller, service, (cms, hll) = run_soak(num_packets)
    stats = service.stats()
    assert stats["epoch"] >= 20
    assert stats["packets_total"] == len(trace)
    assert len(service.epochs) <= 8  # the ring stayed bounded

    # No state leak: after the final seal every live register row is zero.
    for handle in controller.tasks:
        for row in handle.rows:
            assert row.read().sum() == 0
    assert controller.verify_integrity().ok

    # Watcher determinism: an identical second run fires the same watchers
    # at the same epochs with the same metric values.
    _, _, service2, _ = run_soak(num_packets)
    log1 = [dataclasses.asdict(e) for e in service.watcher_log]
    log2 = [dataclasses.asdict(e) for e in service2.watcher_log]
    assert log1 == log2
    assert any(e["fired"] for e in log1)  # the soak actually exercised them
    assert service2.series("card") == service.series("card")


def test_soak_quick():
    check_soak(num_packets=30_000)


@pytest.mark.skipif(not FULL_SOAK, reason="set FLYMON_SOAK=1 for the full soak")
def test_soak_full():
    check_soak(num_packets=200_000)
