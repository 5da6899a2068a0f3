"""Sealed epochs hold partitions, not registers.

A seal copies each deployed row's register partition into its own
``int64`` array and nothing else.  These tests pin that footprint on every
path that builds a :class:`SealedEpoch` (live seal, fabric merge, WAL
recovery, checkpoint restore), and pin that sealed answers stay exact when
a row sits at a non-zero base or when its CMU neighbour's range is reused.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.controller import FlyMonController
from repro.core.task import TaskFilter
from repro.fabric import FabricService, FabricTopology
from repro.service import (
    ExistenceQuery,
    FrequencyQuery,
    MeasurementService,
    ServiceWal,
    load_service_state,
    recover_service,
    resolve,
    service_checkpoint,
)
from repro.traffic import Trace, zipf_trace

from service_tasks import bloom_task, freq_task, hll_task

#: Disjoint filters on the top source-address bit, so two tasks may share
#: every CMU of one group.
LOW = TaskFilter.of(src_ip=(0x00000000, 1))
HIGH = TaskFilter.of(src_ip=(0x80000000, 1))


def split_trace(num_packets=6000, seed=0):
    """Zipf traffic in both halves of the source-address space."""
    return Trace.concatenate(
        [
            zipf_trace(
                num_flows=300,
                num_packets=num_packets // 2,
                seed=seed * 2 + half,
                src_prefix=prefix,
            )
            for half, prefix in enumerate((0x0A000000, 0x8C000000))
        ]
    ).sorted_by_time()


def assert_partition_footprint(sealed, handles):
    rows = [
        row for handle in handles if sealed.has_task(handle.task_id)
        for row in handle.rows
    ]
    assert rows, "no sealed rows: the check is vacuous"
    arrays = list(sealed._cells.values())
    assert len(arrays) == len(rows)
    assert all(a.dtype == np.int64 for a in arrays)
    assert sum(a.nbytes for a in arrays) == sealed.nbytes
    assert sealed.nbytes == 8 * sum(row.mem.length for row in rows)


def _service_run(controller, wal_path=None):
    for task in (freq_task(threshold=60), hll_task(), bloom_task()):
        controller.add_task(task)
    service = MeasurementService(controller, epoch_packets=2000, retain=4)
    wal = ServiceWal(str(wal_path)).attach(service) if wal_path else None
    try:
        service.ingest(zipf_trace(num_flows=400, num_packets=7000, seed=81))
    finally:
        if wal is not None:
            wal.close()
    return service


class TestFootprint:
    def test_live_seal(self, controller):
        service = _service_run(controller)
        assert len(service.epochs) == 3
        for sealed in service.epochs:
            assert_partition_footprint(sealed, controller.tasks)
        assert service.stats()["sealed_bytes"] == sum(
            sealed.nbytes for sealed in service.epochs
        )

    def test_fabric_merge(self):
        fabric = FabricService(
            FabricTopology.preset(4),
            epoch_packets=3000,
            controller_params={"num_groups": 4},
        )
        try:
            placements = [
                fabric.deploy(task)
                for task in (freq_task(), hll_task(), bloom_task())
            ]
            assert any(len(p.hosts) > 1 for p in placements), (
                "no task spans hosts: nothing is folded"
            )
            epochs = fabric.ingest(split_trace(seed=3))
            assert epochs
            for sealed in epochs:
                assert_partition_footprint(sealed, [p.handle for p in placements])
        finally:
            fabric.stop()

    def test_recover_service(self, controller, tmp_path):
        _service_run(controller, wal_path=tmp_path / "svc.wal")
        restored = recover_service(str(tmp_path / "svc.wal"))
        assert restored.epochs
        for sealed in restored.epochs:
            assert_partition_footprint(sealed, restored.tasks)

    def test_load_service_state(self, controller):
        service = _service_run(controller)
        artifact = json.loads(json.dumps(service_checkpoint(service)))
        restored = load_service_state(artifact)
        assert len(restored.epochs) == len(service.epochs)
        for sealed in restored.epochs:
            assert_partition_footprint(sealed, restored.tasks)

    def test_restore_rejects_a_row_of_the_wrong_length(self, controller):
        service = _service_run(controller)
        artifact = json.loads(json.dumps(service_checkpoint(service)))
        rows = artifact["epochs"][0]["tasks"]["0"]["rows"]
        rows[0] = rows[0][:-1]
        with pytest.raises(ValueError, match="partition"):
            load_service_state(artifact)


def _shared_cmu_controller(strategy, first):
    """One group, two tasks on every CMU: the second at a non-zero base."""
    controller = FlyMonController(
        num_groups=1, register_size=4096, strategy=strategy
    )
    tasks = {
        "cms": replace(freq_task(memory=2048), filter=LOW),
        "bloom": replace(bloom_task(memory=2048), filter=HIGH),
    }
    order = [first] + [name for name in tasks if name != first]
    handles = {name: controller.add_task(tasks[name]) for name in order}
    cms, bloom = handles["cms"], handles["bloom"]
    assert {(r.group.group_id, r.cmu.index) for r in cms.rows} == {
        (r.group.group_id, r.cmu.index) for r in bloom.rows
    }
    assert all(row.mem.base >= row.mem.length for row in handles[order[1]].rows)
    return controller, cms, bloom


def _answers(cms, bloom, flows, sealed=None):
    return (
        [resolve(FrequencyQuery(cms, flow), sealed) for flow in flows],
        [resolve(ExistenceQuery(bloom, flow), sealed) for flow in flows],
    )


def _row_answers(rows, fields):
    """``read`` / ``probe`` / ``value_for_fields`` of each row binding."""
    return [
        (
            row.read().tolist(),
            [row.probe(f) for f in fields],
            [row.value_for_fields(f) for f in fields],
        )
        for row in rows
    ]


def _flows(trace, count=40):
    src = np.unique(trace.columns["src_ip"])
    picks = np.concatenate([src[:count // 2], src[-(count // 2):]])
    return [(int(v),) for v in picks]


@pytest.mark.parametrize("strategy", ["shift", "tcam"])
@pytest.mark.parametrize("first", ["cms", "bloom"])
def test_sealed_answers_at_nonzero_base(strategy, first):
    controller, cms, bloom = _shared_cmu_controller(strategy, first)
    service = MeasurementService(controller)
    trace = split_trace(seed=5)
    service.ingest(trace)
    flows = _flows(trace)
    fields = list(trace.select(np.arange(0, len(trace), 97)).iter_fields())

    live = _answers(cms, bloom, flows)
    live_rows = [_row_answers(h.rows, fields) for h in (cms, bloom)]
    assert any(live[0]) and any(live[1]), "no traffic reached a task"

    sealed = service.rotate()
    assert _answers(cms, bloom, flows, sealed) == live
    assert [
        _row_answers(sealed.bind(h).rows, fields) for h in (cms, bloom)
    ] == live_rows


@pytest.mark.parametrize("strategy", ["shift", "tcam"])
def test_neighbour_reuse_leaves_sealed_rows_alone(strategy):
    controller, cms, bloom = _shared_cmu_controller(strategy, "cms")
    service = MeasurementService(controller)
    trace = split_trace(seed=9)
    service.ingest(trace)
    sealed = service.rotate()
    flows = _flows(trace)
    existence = [resolve(ExistenceQuery(bloom, f), sealed) for f in flows]
    rows = [sealed.read_rows(cms), sealed.read_rows(bloom)]

    old_range = [(row.mem.base, row.mem.length) for row in cms.rows]
    controller.remove_task(cms)
    newcomer = controller.add_task(replace(freq_task(memory=2048), filter=LOW))
    assert [(row.mem.base, row.mem.length) for row in newcomer.rows] == old_range
    service.ingest(trace)
    assert any(row.read().any() for row in newcomer.rows)

    assert [resolve(ExistenceQuery(bloom, f), sealed) for f in flows] == existence
    for handle, want in zip((cms, bloom), rows):
        for got_row, want_row in zip(sealed.read_rows(handle), want):
            assert np.array_equal(got_row, want_row)
