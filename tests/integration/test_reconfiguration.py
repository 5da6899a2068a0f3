"""Integration tests for on-the-fly reconfiguration (§5.1, Fig. 12b).

The core promise: adding/removing/resizing tasks at runtime neither
interrupts traffic processing nor perturbs co-located tasks' state.
"""

import numpy as np
import pytest

from repro.analysis.metrics import average_relative_error
from repro.core.controller import FlyMonController
from repro.core.task import AttributeSpec, MeasurementTask, TaskFilter
from repro.traffic import KEY_5TUPLE, KEY_DST_IP, KEY_SRC_IP, Trace, zipf_trace
from repro.traffic.packet import PACKET_FIELDS


def freq_task(**kwargs):
    defaults = dict(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.frequency(),
        memory=4096,
        depth=3,
        algorithm="cms",
        filter=TaskFilter.of(src_ip=(0x0A000000, 8)),
    )
    defaults.update(kwargs)
    return MeasurementTask(**defaults)


class TestTaskIsolation:
    def test_adding_task_b_does_not_disturb_task_a(self):
        controller = FlyMonController(num_groups=1)
        task_a = controller.add_task(freq_task(memory=2048))
        trace = zipf_trace(num_flows=1000, num_packets=10000, seed=5)
        half = trace.split_epochs(2)

        controller.process_trace(half[0])
        snapshot = [row.read().copy() for row in task_a.rows]

        # Insert task B (distinct filter, same group/CMUs) mid-epoch.
        task_b = controller.add_task(
            freq_task(
                memory=2048,
                key=KEY_DST_IP,
                filter=TaskFilter.of(src_ip=(0x14000000, 8)),
            )
        )
        for before, row in zip(snapshot, task_a.rows):
            assert (row.read() == before).all()

        controller.process_trace(half[1])
        truth = trace.flow_sizes(KEY_SRC_IP)
        are = average_relative_error(truth, task_a.algorithm.query)
        assert are < 0.25

    def test_removing_task_b_does_not_disturb_task_a(self):
        controller = FlyMonController(num_groups=1)
        task_a = controller.add_task(freq_task(memory=2048))
        task_b = controller.add_task(
            freq_task(memory=2048, filter=TaskFilter.of(src_ip=(0x14000000, 8)))
        )
        trace = zipf_trace(num_flows=500, num_packets=5000, seed=6)
        controller.process_trace(trace)
        snapshot = [row.read().copy() for row in task_a.rows]
        controller.remove_task(task_b)
        for before, row in zip(snapshot, task_a.rows):
            assert (row.read() == before).all()

    def test_new_task_reuses_recycled_memory_zeroed(self):
        controller = FlyMonController(num_groups=1)
        task_b = controller.add_task(freq_task(memory=2048))
        controller.process_trace(zipf_trace(num_flows=500, num_packets=5000, seed=7))
        controller.remove_task(task_b)
        task_c = controller.add_task(freq_task(memory=2048))
        assert all(row.read().sum() == 0 for row in task_c.rows)


def tenants24():
    """24 tenants on the eight /3 source blocks: per block a CMS heavy
    hitter (alarm threshold 100), an HLL or a SuMax(Max), and a Bloom
    filter."""
    tasks = []
    for block in range(8):
        flt = TaskFilter.of(src_ip=(block << 29, 3))
        tasks.append(freq_task(memory=2048, threshold=100, filter=flt))
        if block % 2 == 0:
            tasks.append(
                MeasurementTask(
                    key=KEY_5TUPLE,
                    attribute=AttributeSpec.distinct(KEY_5TUPLE),
                    memory=4096,
                    depth=1,
                    algorithm="hll",
                    filter=flt,
                )
            )
        else:
            tasks.append(
                MeasurementTask(
                    key=KEY_SRC_IP,
                    attribute=AttributeSpec.maximum("pkt_bytes"),
                    memory=2048,
                    depth=3,
                    algorithm="sumax_max",
                    filter=flt,
                )
            )
        tasks.append(
            MeasurementTask(
                key=KEY_SRC_IP,
                attribute=AttributeSpec.existence(),
                memory=4096,
                depth=3,
                algorithm="bloom",
                filter=flt,
            )
        )
    return tasks


def uniform_tenant_trace(packets=48_000, flows=300, seed=11):
    """Uniform flows with sources over the whole address space, so every
    /3 tenant sees traffic and every heavy hitter crosses its threshold."""
    rng = np.random.default_rng(seed)
    flow_of = rng.integers(0, flows, size=packets)
    columns = {name: np.zeros(packets, dtype=np.int64) for name in PACKET_FIELDS}
    for name, high in (("src_ip", 1 << 32), ("dst_ip", 1 << 32), ("dst_port", 1024)):
        columns[name] = rng.integers(0, high, size=flows, dtype=np.int64)[flow_of]
    columns["src_port"] = rng.integers(1024, 1 << 16, size=flows)[flow_of]
    columns["protocol"][:] = 6
    columns["timestamp"] = np.cumsum(rng.integers(1, 4, size=packets))
    columns["pkt_bytes"] = rng.integers(64, 1500, size=packets)
    return Trace(columns)


class TestNeighbourCycleIsolation:
    """The paper's claim: reconfiguring one task does not disturb the tasks
    already running beside it."""

    def test_tenants_bit_identical_with_and_without_a_neighbour_cycle(self):
        quiet = FlyMonController(num_groups=9)
        busy = FlyMonController(num_groups=9)
        tenants = [
            [controller.add_task(task) for task in tenants24()]
            for controller in (quiet, busy)
        ]
        for n, batch in enumerate(uniform_tenant_trace().iter_batches(8_192)):
            # add -> resize x2 -> filter update -> remove of a neighbour
            # inside a tenant's /3 block, before every batch.  Blocks 2/4/6
            # have no tenant on group 0's CMUs 1-2, so a two-row neighbour
            # lands there, in the registers of other blocks' tenants.
            block, port = 2 + 2 * (n % 3), 1 + 37 * n
            neighbour = busy.add_task(
                freq_task(
                    key=KEY_DST_IP,
                    memory=1024,
                    depth=2,
                    filter=TaskFilter.of(
                        src_ip=(block << 29, 3), dst_port=(port, 16)
                    ),
                )
            )
            assert neighbour.groups_used == (0,)
            neighbour = busy.resize_task(neighbour, 2048)
            neighbour = busy.resize_task(neighbour, 512)
            busy.update_task_filter(
                neighbour,
                TaskFilter.of(src_ip=(block << 29, 3), dst_port=(port + 512, 16)),
            )
            busy.remove_task(neighbour)
            quiet.process_batch(batch)
            busy.process_batch(batch)
        alarms = 0
        for calm, moved in zip(*tenants):
            for a, b in zip(calm.read_rows(), moved.read_rows()):
                assert np.array_equal(a, b), calm.task.filter.describe()
            for a, b in zip(calm.rows, moved.rows):
                digests = a.cmu.peek_digests(calm.task_id)
                assert digests == b.cmu.peek_digests(moved.task_id)
                alarms += len(digests)
        assert alarms, "no heavy hitter crossed its threshold"
        assert busy.verify_integrity().ok


class TestDeploymentDelay:
    def test_all_algorithms_deploy_within_100ms(self):
        """§5.1: every built-in algorithm deploys within 100 ms."""
        cases = [
            ("cms", AttributeSpec.frequency(), 3, {}),
            ("hll", AttributeSpec.distinct(KEY_SRC_IP), 1, {}),
            ("bloom", AttributeSpec.existence(), 3, {}),
            ("sumax_max", AttributeSpec.maximum("queue_length"), 3, {}),
            ("mrac", AttributeSpec.frequency(), 1, {}),
            ("sumax_sum", AttributeSpec.frequency(), 3, {}),
            (
                "beaucoup",
                AttributeSpec.distinct(KEY_DST_IP),
                3,
                {"threshold": 512},
            ),
        ]
        for name, attr, depth, extra in cases:
            controller = FlyMonController(num_groups=3)
            handle = controller.add_task(
                MeasurementTask(
                    key=KEY_SRC_IP,
                    attribute=attr,
                    memory=16384,
                    depth=depth,
                    algorithm=name,
                    **extra,
                )
            )
            assert 0 < handle.deployment_ms < 100, name

    def test_removal_is_also_fast(self):
        controller = FlyMonController(num_groups=1)
        handle = controller.add_task(freq_task())
        report = controller.remove_task(handle)
        assert report.latency_ms < 100


class TestRuntimeClock:
    def test_clock_accumulates_reconfigurations(self):
        controller = FlyMonController(num_groups=1)
        t0 = controller.runtime.now_ms
        handle = controller.add_task(freq_task())
        t1 = controller.runtime.now_ms
        controller.remove_task(handle)
        t2 = controller.runtime.now_ms
        assert t0 < t1 < t2
