"""Fabric federation benchmark: aggregate ingest throughput vs fleet size.

The same source stream is driven through a 1-, 2-, and 4-switch fabric
(``FabricTopology.preset``), with the collaborative placer deploying the
usual hh+card mix and a full seal barrier at every epoch boundary.  The
interesting quantity is how the federation tax (per-switch dispatch,
N member seals, law-based merge) scales with the switch count on one
box -- a real fleet would spread the member work across machines.

Writes ``BENCH_fabric_scale.json`` with aggregate pps per fleet size and
the single-switch service as the no-federation reference.
"""

import time

import pytest

from conftest import run_once_timed, write_bench_json

from repro.core.controller import FlyMonController
from repro.core.task import AttributeSpec, MeasurementTask
from repro.fabric import FabricService, FabricTopology
from repro.service import MeasurementService
from repro.traffic import KEY_SRC_IP, Trace, zipf_trace
from repro.traffic.flows import KEY_IP_PAIR

#: /8 prefixes whose top two bits are 0..3 -- one per preset(4) block.
BLOCK_PREFIXES = (0x0A000000, 0x50000000, 0x8C000000, 0xDC000000)

PARAMS = {"num_groups": 3}


def fabric_stream(num_packets, seed=95, blocks=4):
    per = num_packets // blocks
    parts = [
        zipf_trace(
            num_flows=max(50, per // 20),
            num_packets=per,
            seed=seed * 101 + b,
            src_prefix=BLOCK_PREFIXES[b],
        )
        for b in range(blocks)
    ]
    return Trace.concatenate(parts).sorted_by_time()


def tasks():
    return [
        MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=4096,
            depth=3,
            algorithm="cms",
            threshold=100,
        ),
        MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.distinct(KEY_IP_PAIR),
            memory=4096,
            depth=1,
            algorithm="hll",
        ),
    ]


def solo_reference(trace, epochs):
    """The no-federation baseline: one switch, same tasks, same epoching."""
    service = MeasurementService(
        FlyMonController(place_on_pipeline=False, **PARAMS),
        epoch_packets=len(trace) // epochs,
        retain=8,
    )
    for task in tasks():
        service.controller.add_task(task)
    service.ingest(trace)
    service.rotate()
    return service.stats()


def fabric_run(trace, epochs, switches):
    fabric = FabricService(
        FabricTopology.preset(switches),
        epoch_packets=len(trace) // epochs,
        retain=8,
        controller_params=dict(PARAMS),
    )
    placements = [fabric.deploy(t) for t in tasks()]
    try:
        start = time.perf_counter()
        fabric.ingest(trace)
        fabric.rotate()
        seconds = time.perf_counter() - start
        stats = fabric.stats()
        assert stats["packets_total"] == len(trace)
        assert stats["epoch"] >= epochs
        return seconds, stats, [len(p.hosts) for p in placements]
    finally:
        fabric.stop()


@pytest.mark.benchmark(group="fabric")
def test_fabric_scale(benchmark, quick):
    num_packets = 60_000 if quick else 600_000
    epochs = 10
    trace = fabric_stream(num_packets)

    def reference():
        return solo_reference(trace, epochs)

    ref_stats, ref_seconds = run_once_timed(benchmark, reference)
    assert ref_stats["packets_total"] == len(trace)

    results = {}
    for switches in (1, 2, 4):
        seconds, stats, host_counts = fabric_run(trace, epochs, switches)
        results[f"switches{switches}"] = {
            "seconds": seconds,
            "aggregate_pps": len(trace) / seconds,
            "epochs": stats["epoch"],
            "active_switches": sum(
                1 for n in stats["member_packets"].values() if n
            ),
            "task_host_counts": host_counts,
            "federation_overhead_pct": (
                100.0 * (seconds - ref_seconds) / ref_seconds
            ),
        }

    write_bench_json(
        "fabric_scale",
        packets=len(trace),
        epochs=epochs,
        solo={
            "seconds": ref_seconds,
            "packets_per_second": len(trace) / ref_seconds,
        },
        fabric=results,
        params={"packets": len(trace), "epochs": epochs},
    )
    for name, run in sorted(results.items()):
        print(
            f"fabric {name}: {run['aggregate_pps']:,.0f} pps aggregate over "
            f"{run['epochs']} epochs "
            f"({run['federation_overhead_pct']:+.1f}% vs solo)"
        )
