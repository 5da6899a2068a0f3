"""Differential harness: sharded parallel execution vs the scalar reference.

Random mixes of tasks covering the reduced operation set, both
address-translation strategies, probabilistic execution, and data-plane
alarms are deployed twice -- one controller replays the trace packet by
packet, the other shards it over datapath replicas (in-process and on the
resident worker pool) -- and every
observable must be bit-identical after the merge: register cells, digest
sets, and per-handle row reads.

Worker counts 1/2/4 cover the degenerate single-shard case, the minimal
merge, and shards smaller than the batch size; trace lengths are chosen
indivisible by the worker counts so the uneven tail is always exercised.
The hot-flow workload makes one flow's packets land in *every* shard, which
is the hard case for merge laws (its bucket is updated by all workers).
"""

import itertools

import numpy as np
import pytest

import repro.core.task as task_mod
from repro.core.controller import FlyMonController
from repro.core.task import AttributeSpec, MeasurementTask, TaskFilter
from repro.dataplane.sharding import run_sharded
from repro.traffic import Trace
from repro.traffic.flows import KEY_SRC_IP
from repro.traffic.packet import Packet


def _task_catalog(rng):
    """Candidate tasks exercising every op / strategy / sampling / alarm."""
    return [
        MeasurementTask(  # Cond-ADD with a data-plane alarm (replay law)
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=512,
            depth=3,
            algorithm="cms",
            threshold=int(rng.integers(50, 200)),
        ),
        MeasurementTask(  # AND-OR (bitmap distinct counting)
            key=KEY_SRC_IP,
            attribute=AttributeSpec.distinct(KEY_SRC_IP),
            memory=1024,
            depth=1,
            algorithm="hll",
        ),
        MeasurementTask(  # probabilistic execution on a filtered slice
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=256,
            depth=2,
            algorithm="cms",
            filter=TaskFilter.of(protocol=(6, 8)),
            sample_prob=0.5,
        ),
        MeasurementTask(  # MAX via SuMax's conservative update
            key=KEY_SRC_IP,
            attribute=AttributeSpec.maximum("queue_length"),
            memory=256,
            depth=2,
            algorithm="sumax_max",
        ),
        MeasurementTask(  # coupon collection (AND-OR + one-hot preprocessing)
            key=KEY_SRC_IP,
            attribute=AttributeSpec.distinct(KEY_SRC_IP),
            memory=512,
            depth=1,
            algorithm="beaucoup",
            threshold=64,
        ),
    ]


def _tenants(rng):
    """Eight armed Cond-ADD tasks on the disjoint /3 source blocks: filtered
    tasks that share every CMU they land on (one slot each in its plan)."""
    return [
        MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=128,
            depth=3,
            algorithm="cms",
            threshold=int(rng.integers(20, 60)),
            filter=TaskFilter.of(src_ip=(block << 29, 3)),
        )
        for block in range(8)
    ]


def _trace(rng, num_packets=3001, num_flows=300) -> Trace:
    flows = rng.integers(0, 1 << 32, size=num_flows, dtype=np.uint64)
    weights = 1.0 / np.arange(1, num_flows + 1) ** 1.1  # zipf-ish skew
    weights /= weights.sum()
    picks = rng.choice(num_flows, size=num_packets, p=weights)
    packets = [
        Packet(
            src_ip=int(flows[f]),
            dst_ip=int(rng.integers(0, 1 << 32)),
            src_port=int(rng.integers(0, 1 << 16)),
            dst_port=443,
            protocol=int(rng.choice([6, 17])),
            pkt_bytes=int(rng.integers(64, 1500)),
            timestamp=i,
            queue_length=int(rng.integers(0, 1 << 12)),
        )
        for i, f in enumerate(picks)
    ]
    return Trace.from_packets(packets)


def _deploy(tasks, strategy):
    # Task ids are process-global and feed the sampling hash; pin the counter
    # so both deployments are byte-identical.
    task_mod._task_ids = itertools.count(1)
    controller = FlyMonController(
        num_groups=4,
        register_size=1 << 12,
        place_on_pipeline=True,
        strategy=strategy,
    )
    return controller, [controller.add_task(task) for task in tasks]


def _assert_identical(scalar, sharded, scalar_handles, sharded_handles):
    for group_s, group_p in zip(scalar.groups, sharded.groups):
        for cmu_s, cmu_p in zip(group_s.cmus, group_p.cmus):
            np.testing.assert_array_equal(
                cmu_s.register.read_range(0, cmu_s.register_size),
                cmu_p.register.read_range(0, cmu_p.register_size),
            )
            for task_id in cmu_s.task_ids:
                assert cmu_s.peek_digests(task_id) == cmu_p.peek_digests(task_id)
    for handle_s, handle_p in zip(scalar_handles, sharded_handles):
        for row_s, row_p in zip(handle_s.read_rows(), handle_p.read_rows()):
            np.testing.assert_array_equal(row_s, row_p)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("strategy", ["tcam", "shift"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_random_task_mix_scalar_vs_sharded(seed, strategy, workers):
    rng = np.random.default_rng(seed)
    catalog = _task_catalog(rng)
    picks = rng.choice(
        len(catalog), size=int(rng.integers(2, len(catalog) + 1)), replace=False
    )
    tasks = [catalog[i] for i in sorted(picks)]
    if seed == 2:
        tasks = _tenants(rng) + tasks
    trace = _trace(rng)

    scalar, scalar_handles = _deploy(tasks, strategy)
    if seed == 2:
        assert max(len(c.task_ids) for g in scalar.groups for c in g.cmus) >= 8
    sharded, sharded_handles = _deploy(tasks, strategy)

    scalar.process_trace(trace, batch_size=None)
    batch_size = int(rng.choice([17, 256, 1000]))
    report = run_sharded(
        sharded.groups, trace, workers, batch_size=batch_size, pool=None
    )
    assert report.fallback is None
    assert report.shards == min(workers, len(trace))

    _assert_identical(scalar, sharded, scalar_handles, sharded_handles)


@pytest.mark.parametrize("workers", [2, 4])
def test_hot_flow_crossing_shard_boundaries(workers):
    """One flow dominates every shard: its buckets are written by all
    workers, the deepest possible cross-shard merge for each law."""
    rng = np.random.default_rng(99)
    tasks = [
        MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=128,
            depth=3,
            algorithm="cms",
            threshold=100,
        ),
        MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.maximum("queue_length"),
            memory=128,
            depth=2,
            algorithm="sumax_max",
        ),
    ]
    hot = int(rng.integers(0, 1 << 32))
    cold = rng.integers(0, 1 << 32, size=64, dtype=np.uint64)
    packets = [
        Packet(
            src_ip=hot if i % 3 else int(cold[i % 64]),
            dst_ip=1,
            src_port=2,
            dst_port=3,
            timestamp=i,
            queue_length=int(rng.integers(0, 1 << 12)),
        )
        for i in range(1999)
    ]
    trace = Trace.from_packets(packets)

    scalar, scalar_handles = _deploy(tasks, "tcam")
    sharded, sharded_handles = _deploy(tasks, "tcam")
    scalar.process_trace(trace, batch_size=None)
    report = run_sharded(
        sharded.groups, trace, workers, batch_size=256, pool=None
    )
    assert report.fallback is None

    _assert_identical(scalar, sharded, scalar_handles, sharded_handles)
    hot_count = sum(1 for i in range(1999) if i % 3)
    assert sharded_handles[0].algorithm.query((hot,)) == hot_count


def test_sixteen_bit_saturating_counters_use_replay():
    """Narrow armed counters near saturation: the replay law must reproduce
    the scalar path's exact saturation behaviour across shard boundaries."""
    task = MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.frequency(),
        memory=64,
        depth=2,
        algorithm="cms",
        threshold=50,
    )
    hot = 0xDEADBEEF
    packets = [
        Packet(src_ip=hot, dst_ip=1, src_port=2, dst_port=3, timestamp=i)
        for i in range(700)
    ]
    trace = Trace.from_packets(packets)

    def deploy():
        task_mod._task_ids = itertools.count(1)
        controller = FlyMonController(
            num_groups=2,
            register_size=1 << 10,
            bucket_bits=16,
            place_on_pipeline=False,
        )
        return controller, controller.add_task(task)

    scalar, scalar_handle = deploy()
    scalar.process_trace(trace, batch_size=None)
    sharded, sharded_handle = deploy()
    report = run_sharded(sharded.groups, trace, workers=4, pool=None)
    assert report.fallback is None
    _assert_identical(scalar, sharded, [scalar_handle], [sharded_handle])


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_random_task_mix_scalar_vs_persistent_pool(workers):
    """The persistent pool's warm replicas must stay bit-identical to the
    scalar reference across consecutive runs: run 1 builds the replicas,
    run 2 reuses them with only register resets and delta sync between."""
    rng = np.random.default_rng(7)
    catalog = _task_catalog(rng)
    tasks = [catalog[0], catalog[1], catalog[3]]
    trace = _trace(rng)

    scalar, scalar_handles = _deploy(tasks, "tcam")
    pooled, pooled_handles = _deploy(tasks, "tcam")
    try:
        for run in range(2):
            scalar.process_trace(trace, batch_size=None)
            report = pooled.process_trace_sharded(
                trace, workers=workers, batch_size=256
            )
            assert report.fallback is None
            # A single shard needs no pool; everything else runs on it.
            assert report.backend == ("process" if workers > 1 else "serial")
            if run == 1 and workers > 1:
                assert all(
                    t["build_ms"] == 0.0 for t in report.shard_timings
                )
            _assert_identical(scalar, pooled, scalar_handles, pooled_handles)
    finally:
        pooled.close_shard_pool()


def test_persistent_exports_bit_identical_in_exact_mode():
    """exact_exports through the pool: tracked=None makes every worker a
    pure journal recorder, and the spliced export columns must equal a
    sequential reference's bit for bit."""
    rng = np.random.default_rng(21)
    tasks = [_task_catalog(rng)[0], _task_catalog(rng)[1]]
    trace = _trace(rng, num_packets=1501)

    reference, _ = _deploy(tasks, "tcam")
    ref = reference.process_trace_sharded(
        trace, workers=1, collect_exports=True
    )
    pooled, _ = _deploy(tasks, "tcam")
    try:
        report = pooled.process_trace_sharded(
            trace, workers=4, exact_exports=True
        )
        assert report.backend == "process"
        assert set(report.exports) == set(ref.exports)
        for name in sorted(ref.exports):
            np.testing.assert_array_equal(
                report.exports[name], ref.exports[name], err_msg=name
            )
    finally:
        pooled.close_shard_pool()


def test_exports_bit_identical_in_exact_mode():
    """exact_exports replays every task, so the spliced PHV export columns
    must equal a sequential batched run's columns bit for bit."""
    rng = np.random.default_rng(21)
    tasks = [_task_catalog(rng)[0], _task_catalog(rng)[1]]
    trace = _trace(rng, num_packets=1501)

    reference, _ = _deploy(tasks, "tcam")
    ref = reference.process_trace_sharded(
        trace, workers=1, collect_exports=True
    )
    sharded, _ = _deploy(tasks, "tcam")
    report = run_sharded(
        sharded.groups, trace, workers=4, exact_exports=True, pool=None
    )
    assert set(report.exports) == set(ref.exports)
    for name in sorted(ref.exports):
        np.testing.assert_array_equal(report.exports[name], ref.exports[name], err_msg=name)
