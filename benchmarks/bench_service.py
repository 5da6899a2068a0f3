"""Streaming-service benchmark: sustained ingest throughput with epoch
rotation, sealing, watchers, and query-plane bookkeeping enabled --
compared against a one-shot replay of the same trace with no epoching.

Writes ``BENCH_service_stream.json`` with both rates so the rotation
overhead (seal + snapshot + reset per epoch) is tracked across commits.
"""

import pytest

from conftest import run_once_timed, write_bench_json

from repro.core.controller import FlyMonController
from repro.core.task import AttributeSpec, MeasurementTask
from repro.service import (
    CardinalityQuery,
    MeasurementService,
    TaskRef,
    Watcher,
    cardinality_metric,
)
from repro.traffic import KEY_DST_IP, KEY_SRC_IP, zipf_trace


def deploy(controller):
    cms = controller.add_task(
        MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=4096,
            depth=3,
            algorithm="cms",
            threshold=100,
        )
    )
    hll = controller.add_task(
        MeasurementTask(
            key=KEY_DST_IP,
            attribute=AttributeSpec.distinct(KEY_SRC_IP),
            memory=1024,
            depth=1,
            algorithm="hll",
        )
    )
    return cms, hll


def stream(trace, epochs):
    """Run the epoch-rotating service over ``trace``."""
    controller = FlyMonController(num_groups=3)
    cms, hll = deploy(controller)
    service = MeasurementService(
        controller, epoch_packets=len(trace) // epochs, retain=8
    )
    service.register_series("card", CardinalityQuery(hll))
    service.add_watcher(
        Watcher("spike", cardinality_metric(TaskRef(hll)), above=1e12)
    )
    service.ingest(trace)
    service.rotate()
    return service.stats()


def one_shot(trace):
    # Same batched fast path the service rides, just without epoching.
    from repro.service.engine import DEFAULT_SERVICE_BATCH

    controller = FlyMonController(num_groups=3)
    deploy(controller)
    controller.process_trace(trace, batch_size=DEFAULT_SERVICE_BATCH)
    return len(trace)


@pytest.mark.benchmark(group="service")
def test_service_stream(benchmark, quick):
    num_packets = 100_000 if quick else 1_000_000
    epochs = 25
    trace = zipf_trace(
        num_flows=num_packets // 20, num_packets=num_packets, seed=90
    )

    baseline, base_seconds = run_once_timed(benchmark, one_shot, trace)
    assert baseline == len(trace)

    import time

    start = time.perf_counter()
    stats = stream(trace, epochs)
    seconds = time.perf_counter() - start
    assert stats["packets_total"] == len(trace)
    assert stats["epoch"] >= epochs
    streaming = {
        "seconds": seconds,
        "packets_per_second": len(trace) / seconds,
        "epochs": stats["epoch"],
    }

    write_bench_json(
        "service_stream",
        packets=len(trace),
        epochs=epochs,
        one_shot={
            "seconds": base_seconds,
            "packets_per_second": len(trace) / base_seconds,
        },
        streaming=streaming,
        rotation_overhead_pct=100.0 * (seconds - base_seconds) / base_seconds,
        params={"packets": len(trace), "epochs": epochs},
    )
    print(
        f"service: {streaming['packets_per_second']:,.0f} pps over "
        f"{streaming['epochs']} epochs (one-shot "
        f"{len(trace) / base_seconds:,.0f} pps)"
    )


@pytest.mark.benchmark(group="service")
def test_service_wal(benchmark, quick, tmp_path):
    """Durability cost: the same epoch-rotating stream with the WAL off,
    on a single file (one fsync per seal), and segmented with compaction
    (fsync per seal plus periodic roll + base rewrite).

    Writes ``BENCH_service_wal.json`` so the fsync-per-seal tax and the
    segment-roll cost are tracked across commits.
    """
    import time

    from repro.service import ServiceWal

    num_packets = 60_000 if quick else 400_000
    epochs = 20
    trace = zipf_trace(
        num_flows=num_packets // 20, num_packets=num_packets, seed=91
    )

    def run(wal_target=None, segment_seals=None):
        controller = FlyMonController(num_groups=3)
        cms, hll = deploy(controller)
        service = MeasurementService(
            controller, epoch_packets=len(trace) // epochs, retain=8
        )
        service.register_series("card", CardinalityQuery(hll))
        wal = None
        if wal_target is not None:
            wal = ServiceWal(
                str(wal_target), segment_seals=segment_seals
            ).attach(service)
        try:
            start = time.perf_counter()
            service.ingest(trace)
            service.rotate()
            seconds = time.perf_counter() - start
            stats = service.stats()
            assert stats["packets_total"] == len(trace)
            assert stats["epoch"] >= epochs
            return seconds, stats, wal
        finally:
            if wal is not None:
                wal.close()

    def wal_off():
        return run()[0]

    base_seconds, _ = run_once_timed(benchmark, wal_off)

    single_seconds, _, single_wal = run(wal_target=tmp_path / "flat.wal")
    seg_seconds, _, seg_wal = run(
        wal_target=tmp_path / "seg", segment_seals=4
    )
    assert single_wal.records_written >= epochs
    assert seg_wal.rolls >= 2, "segment threshold never rolled; vacuous"

    def leg(seconds, wal):
        return {
            "seconds": seconds,
            "packets_per_second": len(trace) / seconds,
            "wal_overhead_pct": 100.0 * (seconds - base_seconds) / base_seconds,
            "records_written": wal.records_written,
            "segment_rolls": wal.rolls,
        }

    results = {
        "single": leg(single_seconds, single_wal),
        "segmented": leg(seg_seconds, seg_wal),
    }
    # The roll tax alone: segmented vs single-file on identical streams.
    roll_cost_pct = (
        100.0 * (seg_seconds - single_seconds) / single_seconds
    )
    write_bench_json(
        "service_wal",
        packets=len(trace),
        epochs=epochs,
        wal_off={
            "seconds": base_seconds,
            "packets_per_second": len(trace) / base_seconds,
        },
        wal=results,
        segment_roll_cost_pct=roll_cost_pct,
        params={
            "packets": len(trace),
            "epochs": epochs,
            "segment_seals": 4,
        },
    )
    for name, entry in sorted(results.items()):
        print(
            f"service wal {name}: {entry['packets_per_second']:,.0f} pps "
            f"({entry['wal_overhead_pct']:+.1f}% vs wal-off, "
            f"{entry['segment_rolls']} roll(s))"
        )
