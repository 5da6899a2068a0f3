"""Differential harness: the batched engine vs the scalar reference path.

Random mixes of tasks covering the reduced operation set (Cond-ADD, MAX,
AND-OR), both address-translation strategies, probabilistic execution, and
data-plane alarms are deployed twice -- one controller replays the trace
per packet, the other in column batches -- and every observable must be
bit-identical: register cells, digest sets, and per-handle row reads.

The workloads draw full-range 32-bit field values on purpose: hash masks
keep the *most-significant* bits (prefix semantics), so low-range synthetic
values would collapse every key into one bucket and hide ordering bugs.
Heavy flow skew is also deliberate -- duplicate-key collisions inside one
batch are the hard case for read-modify-write serialization.
"""

import itertools

import numpy as np
import pytest

import repro.core.task as task_mod
from repro.core.controller import FlyMonController
from repro.core.task import AttributeSpec, MeasurementTask, TaskFilter
from repro.traffic import Trace
from repro.traffic.flows import KEY_5TUPLE, KEY_SRC_IP
from repro.traffic.packet import Packet


def _task_catalog(rng):
    """Candidate tasks exercising every op / strategy / sampling / alarm."""
    return [
        MeasurementTask(  # Cond-ADD with a data-plane alarm
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


def _trace(rng, num_packets=4000, num_flows=300) -> Trace:
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


def _assert_identical(scalar, batched, scalar_handles, batched_handles):
    for group_s, group_b in zip(scalar.groups, batched.groups):
        for cmu_s, cmu_b in zip(group_s.cmus, group_b.cmus):
            np.testing.assert_array_equal(
                cmu_s.register.read_range(0, cmu_s.register_size),
                cmu_b.register.read_range(0, cmu_b.register_size),
            )
            for task_id in cmu_s.task_ids:
                assert cmu_s.peek_digests(task_id) == cmu_b.peek_digests(task_id)
    for handle_s, handle_b in zip(scalar_handles, batched_handles):
        for row_s, row_b in zip(handle_s.read_rows(), handle_b.read_rows()):
            np.testing.assert_array_equal(row_s, row_b)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("strategy", ["tcam", "shift"])
def test_random_task_mix_scalar_vs_batch(seed, strategy):
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
    batched, batched_handles = _deploy(tasks, strategy)

    scalar.process_trace(trace, batch_size=None)
    batch_size = int(rng.choice([1, 17, 256, 1000, 8192]))
    batched.process_trace(trace, batch_size=batch_size)

    _assert_identical(scalar, batched, scalar_handles, batched_handles)


def test_single_hot_flow_duplicate_collisions():
    """Every packet hits the same buckets: the deepest possible in-batch
    read-modify-write chain must still serialize exactly."""
    rng = np.random.default_rng(99)
    task = MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.frequency(),
        memory=128,
        depth=3,
        algorithm="cms",
        threshold=100,
    )
    hot = int(rng.integers(0, 1 << 32))
    packets = [
        Packet(src_ip=hot, dst_ip=1, src_port=2, dst_port=3, timestamp=i)
        for i in range(2000)
    ]
    trace = Trace.from_packets(packets)

    scalar, scalar_handles = _deploy([task], "tcam")
    batched, batched_handles = _deploy([task], "tcam")
    scalar.process_trace(trace, batch_size=None)
    batched.process_trace(trace, batch_size=512)

    _assert_identical(scalar, batched, scalar_handles, batched_handles)
    assert batched_handles[0].algorithm.query((hot,)) == 2000


@pytest.mark.parametrize("batches", [2, 4])
def test_hot_flow_under_sum_and_max_tasks(batches):
    """One flow carries two thirds of the packets through a Cond-ADD and a
    MAX task at once: both laws' read-modify-write chains on its buckets
    must serialize exactly, beside cold flows that collide with them, and
    carry across every batch boundary when the trace is cut in ``batches``."""
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
    batched, batched_handles = _deploy(tasks, "tcam")
    scalar.process_trace(trace, batch_size=None)
    batched.process_trace(trace, batch_size=-(-len(packets) // batches))

    _assert_identical(scalar, batched, scalar_handles, batched_handles)
    hot_count = sum(1 for i in range(1999) if i % 3)
    assert batched_handles[0].algorithm.query((hot,)) == hot_count


@pytest.mark.parametrize("key", [KEY_SRC_IP, KEY_5TUPLE], ids=["1-part", "5-part"])
def test_alarm_digest_sets_match_when_alarm_rows_repeat_flows(key):
    """Five heavy flows send most of the packets and cross the threshold
    early, so nearly every alarm row repeats a flow that already reported:
    the batched path drops those repeats in numpy, and the digest *sets*
    must still equal the scalar path's, tuple for tuple."""
    rng = np.random.default_rng(15)
    task = MeasurementTask(
        key=key,
        attribute=AttributeSpec.frequency(),
        memory=512,
        depth=3,
        algorithm="cms",
        threshold=20,
    )
    flows = [
        dict(
            src_ip=int(rng.integers(0, 1 << 32)),
            dst_ip=int(rng.integers(0, 1 << 32)),
            src_port=int(rng.integers(0, 1 << 16)),
            dst_port=int(rng.integers(0, 1 << 16)),
            protocol=int(rng.choice([6, 17])),
        )
        for _ in range(60)
    ]
    # Two keys that differ only above bit 16 of one part and only in the last
    # part: the dedupe must keep both.
    flows.append(dict(flows[0], src_ip=flows[0]["src_ip"] ^ (1 << 20)))
    flows.append(dict(flows[1], protocol=flows[1]["protocol"] ^ 1))
    picks = np.where(
        rng.random(3000) < 0.8,
        rng.choice([0, 1, 2, 60, 61], size=3000),
        rng.integers(0, len(flows), size=3000),
    )
    trace = Trace.from_packets(
        [Packet(timestamp=i, **flows[f]) for i, f in enumerate(picks)]
    )

    scalar, scalar_handles = _deploy([task], "tcam")
    batched, batched_handles = _deploy([task], "tcam")
    scalar.process_trace(trace, batch_size=None)
    batched.process_trace(trace, batch_size=700)

    _assert_identical(scalar, batched, scalar_handles, batched_handles)
    reported = set().union(
        *(row.cmu.peek_digests(row.task_id) for row in batched_handles[0].algorithm.rows)
    )
    heavy = {key.extract(flows[f]) for f in (0, 1, 2, 60, 61)}
    assert heavy <= reported
