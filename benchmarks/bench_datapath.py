"""Micro-benchmarks: simulated data-plane packet processing throughput.

Not a paper figure -- these quantify the *simulator's* per-packet cost so
users can size experiment workloads (the real FlyMon forwards at Tofino
line rate by construction; §5.1 shows reconfiguration never touches the
forwarding path).
"""

import itertools
import os
import time

import pytest

from conftest import run_once_timed, write_bench_json

import repro.core.task as task_mod
from repro.core.controller import FlyMonController
from repro.core.task import AttributeSpec, MeasurementTask, TaskFilter
from repro.traffic import KEY_SRC_IP, zipf_trace


def make_controller(num_tasks: int) -> FlyMonController:
    controller = FlyMonController(num_groups=3)
    for i in range(num_tasks):
        controller.add_task(
            MeasurementTask(
                key=KEY_SRC_IP,
                attribute=AttributeSpec.frequency(),
                memory=4096,
                depth=3,
                algorithm="cms",
                filter=TaskFilter.of(src_ip=((10 + i) << 24, 8)),
            )
        )
    return controller


@pytest.fixture(scope="module")
def packets():
    trace = zipf_trace(num_flows=500, num_packets=5_000, seed=20)
    return [fields for fields in trace.iter_fields()]


def _drive(controller, packets):
    for fields in packets:
        controller.process_packet(dict(fields))
    return len(packets)


def _throughput_bench(benchmark, packets, num_tasks: int, name: str) -> None:
    controller = make_controller(num_tasks)
    processed, seconds = run_once_timed(benchmark, _drive, controller, packets)
    assert processed == len(packets)
    write_bench_json(
        name,
        seconds=seconds,
        packets=processed,
        packets_per_second=processed / seconds if seconds else None,
        params={"tasks": num_tasks},
    )


def test_throughput_one_task(benchmark, packets):
    _throughput_bench(benchmark, packets, 1, "throughput_one_task")


def test_throughput_three_tasks(benchmark, packets):
    _throughput_bench(benchmark, packets, 3, "throughput_three_tasks")


def _heavy_hitter_controller() -> FlyMonController:
    """Fig. 14a-style deployment: depth-3 CMS heavy-hitter task on SrcIP.

    Task ids feed the sampling hash, so the counter is pinned before each
    build to make scalar/batch deployments byte-identical.
    """
    task_mod._task_ids = itertools.count(1)
    controller = FlyMonController(num_groups=3)
    controller.add_task(
        MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=4096,
            depth=3,
            algorithm="cms",
        )
    )
    return controller


def test_datapath_batch(benchmark):
    """Scalar reference path vs the batched vectorized engine.

    Runs the Fig. 14a heavy-hitter workload through two identical
    deployments -- once per-packet, once in column batches -- verifies the
    register state matches bit-for-bit, and persists the speedup to
    ``BENCH_datapath_batch.json``.  The packet budget honors
    ``FLYMON_BENCH_PACKETS`` so CI smoke runs stay cheap.
    """
    num_packets = int(os.environ.get("FLYMON_BENCH_PACKETS", "0")) or (
        200_000 if os.environ.get("FLYMON_FULL", "") == "1" else 20_000
    )
    batch_size = 8192
    trace = zipf_trace(num_flows=2_000, num_packets=num_packets, seed=14)

    scalar = _heavy_hitter_controller()
    batched = _heavy_hitter_controller()

    def compare():
        start = time.perf_counter()
        scalar.process_trace(trace, batch_size=None)
        scalar_seconds = time.perf_counter() - start
        start = time.perf_counter()
        batched.process_trace(trace, batch_size=batch_size)
        batch_seconds = time.perf_counter() - start
        return scalar_seconds, batch_seconds

    (scalar_seconds, batch_seconds), _total = run_once_timed(benchmark, compare)

    # Bit-identical register state is the engine's contract.
    for group_scalar, group_batch in zip(scalar.groups, batched.groups):
        for cmu_scalar, cmu_batch in zip(group_scalar.cmus, group_batch.cmus):
            reg_scalar, reg_batch = cmu_scalar.register, cmu_batch.register
            assert (
                reg_scalar.read_range(0, reg_scalar.size)
                == reg_batch.read_range(0, reg_batch.size)
            ).all()

    scalar_pps = num_packets / scalar_seconds if scalar_seconds else None
    batch_pps = num_packets / batch_seconds if batch_seconds else None
    speedup = (
        scalar_seconds / batch_seconds
        if scalar_seconds and batch_seconds
        else None
    )
    write_bench_json(
        "datapath_batch",
        scalar_seconds=scalar_seconds,
        batch_seconds=batch_seconds,
        scalar_pps=scalar_pps,
        batch_pps=batch_pps,
        speedup=speedup,
        num_packets=num_packets,
        batch_size=batch_size,
        params={"tasks": 1, "algorithm": "cms", "depth": 3},
    )
    # Modest in-test bound; the headline number (>=10x at full scale) lives
    # in the JSON so regressions show up in the tracked trajectory.
    assert speedup is not None and speedup > 2.0


def test_compression_stage_cost(benchmark):
    """Per-packet cost of the compression stage alone (3 hash units)."""
    from repro.core.cmu_group import CmuGroup

    group = CmuGroup(0)
    for mask in ({"src_ip": 32}, {"dst_ip": 32}, {"src_ip": 32, "src_port": 16}):
        grant = group.keys.acquire(mask)
        for unit, m in grant.new_masks:
            group.hash_units[unit].set_mask(m)
    fields = {"src_ip": 0x0A000001, "dst_ip": 0x14000002, "src_port": 1234}

    def compress_many():
        for _ in range(1000):
            group.compress(fields)
        return True

    ok, seconds = run_once_timed(benchmark, compress_many)
    assert ok
    write_bench_json(
        "compression_stage_cost",
        seconds=seconds,
        compressions_per_second=1000 / seconds if seconds else None,
        params={"hash_units": 3},
    )


def test_datapath_shard(benchmark):
    """Single-pipeline batched engine vs the sharded worker pool, warm.

    Runs the Fig. 14a heavy-hitter workload through two identical
    deployments -- once as sequential column batches, once sharded over the
    controller's resident worker pool with exact register merging -- and
    verifies registers match bit-for-bit.  The cold pass (fork + replica build) is timed separately; the measured
    pass is the steady state an epoch-rotating service actually pays --
    delta sync, shared-memory column copies, compute, snapshot-out.  Both
    deployments process the trace twice so the accumulated register state
    stays comparable, and the warm report must show ``build_ms == 0`` on
    every shard (the replicas were not rebuilt).

    Persists ``BENCH_datapath_shard.json``.  The speedup bound
    (warm pool at least matches the batched single pipeline) only applies
    when the machine has the cores (cpu_count >= workers).
    """
    num_packets = int(os.environ.get("FLYMON_BENCH_PACKETS", "0")) or (
        400_000 if os.environ.get("FLYMON_FULL", "") == "1" else 40_000
    )
    workers = 2
    batch_size = 8192
    trace = zipf_trace(num_flows=2_000, num_packets=num_packets, seed=14)

    batched = _heavy_hitter_controller()
    pooled = _heavy_hitter_controller()

    try:
        # Cold pass: fork the pool, build the replicas, first run.  The
        # batched side runs too so both accumulate the same state.
        batched.process_trace(trace, batch_size=batch_size)
        start = time.perf_counter()
        cold_report = pooled.process_trace_sharded(
            trace, workers=workers, batch_size=batch_size
        )
        cold_seconds = time.perf_counter() - start
        assert cold_report.backend == "process"
        assert cold_report.fallback is None

        def compare():
            start = time.perf_counter()
            batched.process_trace(trace, batch_size=batch_size)
            batch_seconds = time.perf_counter() - start
            start = time.perf_counter()
            report = pooled.process_trace_sharded(
                trace, workers=workers, batch_size=batch_size
            )
            shard_seconds = time.perf_counter() - start
            return batch_seconds, shard_seconds, report

        (batch_seconds, shard_seconds, report), _total = run_once_timed(
            benchmark, compare
        )
        assert report.backend == "process"
        assert report.shards == workers
        assert all(t["build_ms"] == 0.0 for t in report.shard_timings)

        identical = True
        for group_batch, group_shard in zip(batched.groups, pooled.groups):
            for cmu_batch, cmu_shard in zip(group_batch.cmus, group_shard.cmus):
                reg_batch, reg_shard = cmu_batch.register, cmu_shard.register
                same = (
                    reg_batch.read_range(0, reg_batch.size)
                    == reg_shard.read_range(0, reg_shard.size)
                ).all()
                identical = identical and bool(same)
                assert same
    finally:
        pooled.close_shard_pool()

    speedup = (
        batch_seconds / shard_seconds if batch_seconds and shard_seconds else None
    )
    cpu_count = os.cpu_count() or 1
    write_bench_json(
        "datapath_shard",
        batch_seconds=batch_seconds,
        shard_seconds=shard_seconds,
        cold_seconds=cold_seconds,
        batch_pps=num_packets / batch_seconds if batch_seconds else None,
        shard_pps=num_packets / shard_seconds if shard_seconds else None,
        speedup_vs_batched=speedup,
        sync_ms=report.timing.get("sync_ms"),
        transport_ms=sum(t["transport_ms"] for t in report.shard_timings),
        workers=workers,
        backend=report.backend,
        cpu_count=cpu_count,
        identical=identical,
        num_packets=num_packets,
        batch_size=batch_size,
        params={"tasks": 1, "algorithm": "cms", "depth": 3},
    )
    assert speedup is not None
    if cpu_count >= workers:
        # A warm pool must at least match the single batched pipeline.
        assert speedup >= 1.0
