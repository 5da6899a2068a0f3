"""Fabric federation: bit-identity vs the single-switch union reference.

The acceptance property of the fabric subsystem: a 4-switch fabric answers
Frequency / Cardinality / Existence / HeavyHitter queries *bit-identical*
to one switch that observed the union of the traffic, per sealed epoch --
while collaborative placement provably hosts each task on fewer than all
switches.
"""

import numpy as np
import pytest

from repro.core.controller import FlyMonController
from repro.core.task import TaskFilter
from repro.fabric import FabricService, FabricTopology
from repro.faults import FAULTS, SITE_ALLOC_EXHAUSTED, SITE_MEMBER_SEAL
from repro.service.engine import MeasurementService, StaleEpochError, _split_trace
from repro.service.queries import (
    CardinalityQuery,
    EntropyQuery,
    ExistenceQuery,
    FrequencyQuery,
    HeavyHitterQuery,
    InterArrivalQuery,
)
from repro.service.queries import resolve
from repro.traffic.flows import KEY_IP_PAIR, KEY_SRC_IP

from fabric_helpers import (
    bloom_task,
    fabric_trace,
    freq_task,
    hll_task,
    interarrival_task,
    mrac_task,
    reset_task_ids,
)

EPOCH = 4000
PARAMS = {"num_groups": 4}


def build_fabric(tasks, epoch_packets=EPOCH, switches=4):
    reset_task_ids()
    fabric = FabricService(
        FabricTopology.preset(switches),
        epoch_packets=epoch_packets,
        controller_params=dict(PARAMS),
    )
    handles = [fabric.deploy(t) for t in tasks]
    return fabric, handles


def build_reference(tasks):
    """One switch, same controller params, observing the union traffic."""
    reset_task_ids()
    service = MeasurementService(
        FlyMonController(place_on_pipeline=False, **PARAMS), retain=8
    )
    handles = [service.controller.add_task(t) for t in tasks]
    return service, handles


def drive_both(fabric, reference, trace, epoch_packets=EPOCH):
    fabric_epochs = fabric.ingest(trace)
    tail = fabric.stop(seal_tail=True)
    if tail is not None:
        fabric_epochs.append(tail)
    ref_epochs = []
    remaining = trace
    while len(remaining):
        window, remaining = _split_trace(remaining, epoch_packets)
        reference.ingest(window)
        ref_epochs.append(reference.rotate())
    assert len(fabric_epochs) == len(ref_epochs)
    return fabric_epochs, ref_epochs


class TestBitIdentity:
    def setup_method(self):
        tasks = [
            freq_task(name="freq"),
            hll_task(name="card"),
            bloom_task(name="exist"),
            freq_task(threshold=60, name="hh"),
        ]
        self.fabric, fh = build_fabric(tasks)
        self.reference, rh = build_reference(tasks)
        self.fh = dict(zip(("freq", "card", "exist", "hh"), fh))
        self.rh = dict(zip(("freq", "card", "exist", "hh"), rh))
        self.trace = fabric_trace(num_packets=9000, seed=7)
        self.fab_epochs, self.ref_epochs = drive_both(
            self.fabric, self.reference, self.trace
        )

    def teardown_method(self):
        self.fabric.stop()

    def test_merged_cells_bit_identical_per_epoch(self):
        for fs, rs in zip(self.fab_epochs, self.ref_epochs):
            assert fs._cells.keys() == rs._cells.keys()
            for key, ref_cells in rs._cells.items():
                assert np.array_equal(fs._cells[key], ref_cells), (
                    fs.index,
                    key,
                )

    def test_frequency_queries_bit_identical(self):
        flows = [(int(s),) for s in np.unique(self.trace.columns["src_ip"])[:40]]
        for fs, rs in zip(self.fab_epochs, self.ref_epochs):
            for flow in flows:
                assert resolve(
                    FrequencyQuery(self.fh["freq"], flow), fs
                ) == resolve(FrequencyQuery(self.rh["freq"], flow), rs)

    def test_cardinality_queries_bit_identical(self):
        for fs, rs in zip(self.fab_epochs, self.ref_epochs):
            assert resolve(CardinalityQuery(self.fh["card"]), fs) == resolve(
                CardinalityQuery(self.rh["card"]), rs
            )

    def test_existence_queries_bit_identical(self):
        cols = self.trace.columns
        flows = [
            (int(cols["src_ip"][i]), int(cols["dst_ip"][i])) for i in range(30)
        ]
        for fs, rs in zip(self.fab_epochs, self.ref_epochs):
            for flow in flows:
                assert resolve(
                    ExistenceQuery(self.fh["exist"], flow), fs
                ) == resolve(ExistenceQuery(self.rh["exist"], flow), rs)

    def test_heavy_hitter_candidates_bit_identical(self):
        sizes = self.trace.flow_sizes(KEY_SRC_IP)
        candidates = tuple(sorted(sizes, key=sizes.get, reverse=True)[:60])
        for fs, rs in zip(self.fab_epochs, self.ref_epochs):
            fab = resolve(
                HeavyHitterQuery(self.fh["hh"], threshold=40, candidates=candidates),
                fs,
            )
            ref = resolve(
                HeavyHitterQuery(self.rh["hh"], threshold=40, candidates=candidates),
                rs,
            )
            assert fab == ref

    def test_digest_heavy_hitters_sandwiched(self):
        # Digest union is the documented approximation: nothing outside the
        # solo digest set (union cells dominate per-host cells), and under
        # edge partitioning by src_ip -- each flow one ingress -- equality.
        for fs, rs in zip(self.fab_epochs, self.ref_epochs):
            fab = resolve(HeavyHitterQuery(self.fh["hh"]), fs)
            ref = resolve(HeavyHitterQuery(self.rh["hh"]), rs)
            assert fab == ref  # src_ip-partitioned traffic: exact


class TestEntropyFederation:
    def test_mrac_entropy_bit_identical(self):
        tasks = [mrac_task(name="entropy")]
        fabric, (fh,) = build_fabric(tasks)
        reference, (rh,) = build_reference(tasks)
        trace = fabric_trace(num_packets=8000, seed=11)
        fab_epochs, ref_epochs = drive_both(fabric, reference, trace)
        try:
            for fs, rs in zip(fab_epochs, ref_epochs):
                assert resolve(EntropyQuery(fh), fs) == resolve(
                    EntropyQuery(rh), rs
                )
        finally:
            fabric.stop()


class TestCollaborativePlacement:
    def test_mergeable_tasks_avoid_the_core(self):
        fabric, handles = build_fabric([freq_task(), hll_task()])
        try:
            total = len(fabric.topology.names)
            for handle in handles:
                assert len(handle.hosts) < total
        finally:
            fabric.stop()

    def test_filtered_task_lands_on_fewer_edges(self):
        # src 0x50/8 lives in block 1 only -> a single edge hosts it
        task = freq_task(filter=TaskFilter.of(src_ip=(0x50000000, 8)))
        fabric, (handle,) = build_fabric([task])
        try:
            assert len(handle.hosts) == 1
            assert handle.layer == "edge"
        finally:
            fabric.stop()

    def test_unmergeable_task_gets_single_covering_host(self):
        # max_interarrival needs the whole stream in order: replay law
        fabric, (handle,) = build_fabric([interarrival_task()])
        try:
            assert not handle.mergeable
            assert len(handle.hosts) == 1
            assert handle.hosts == ("core0",)
        finally:
            fabric.stop()

    def test_unmergeable_single_host_still_bit_identical(self):
        tasks = [interarrival_task(name="ia")]
        fabric, (fh,) = build_fabric(tasks)
        reference, (rh,) = build_reference(tasks)
        trace = fabric_trace(num_packets=6000, seed=13)
        fab_epochs, ref_epochs = drive_both(fabric, reference, trace)
        try:
            flows = [(int(s),) for s in np.unique(trace.columns["src_ip"])[:20]]
            for fs, rs in zip(fab_epochs, ref_epochs):
                for flow in flows:
                    assert resolve(InterArrivalQuery(fh, flow), fs) == resolve(
                        InterArrivalQuery(rh, flow), rs
                    )
        finally:
            fabric.stop()

    def test_load_spreads_to_least_loaded_covering_set(self):
        fabric, handles = build_fabric([freq_task(), freq_task()])
        try:
            # the first mergeable task saturates the edges' score; the
            # second should prefer the now-cheaper core covering set
            assert handles[0].hosts != handles[1].hosts
        finally:
            fabric.stop()


class TestTransactionalDeploy:
    def test_host_failure_rolls_back_every_service(self):
        fabric, _ = build_fabric([freq_task()])
        try:
            digests = {
                name: svc.controller.control_digest()
                for name, svc in fabric.members.items()
            }
            # The canonical unwinds by add-then-remove (two committed ops),
            # which legitimately advances its cumulative rule counter -- so
            # compare the measurement-relevant state, not control_digest.
            def canonical_state():
                return (
                    fabric.canonical.free_buckets(),
                    {
                        g.group_id: g.keys.refcounts()
                        for g in fabric.canonical.groups
                    },
                    fabric.canonical.runtime.deployments(),
                    sorted(h.task_id for h in fabric.canonical.tasks),
                )

            canonical_before = canonical_state()
            tasks_before = len(fabric.placements)
            # fire on a *later* host's pinned install: edge0 installs, then
            # the next host's allocation dies -> everything unwinds
            FAULTS.arm(SITE_ALLOC_EXHAUSTED, hit=5)
            with pytest.raises(Exception):
                fabric.deploy(freq_task())
            assert FAULTS.fired()
            FAULTS.reset()
            assert len(fabric.placements) == tasks_before
            assert canonical_state() == canonical_before
            assert fabric.canonical.verify_integrity().ok
            for name, svc in fabric.members.items():
                assert svc.controller.control_digest() == digests[name], name
                assert svc.controller.verify_integrity().ok
        finally:
            FAULTS.reset()
            fabric.stop()

    def test_fabric_usable_after_rollback(self):
        fabric, _ = build_fabric([freq_task()])
        try:
            FAULTS.arm(SITE_ALLOC_EXHAUSTED, hit=5)
            with pytest.raises(Exception):
                fabric.deploy(freq_task())
            FAULTS.reset()
            handle = fabric.deploy(freq_task())
            assert handle.task_id in {p.task_id for p in fabric.placements}
            trace = fabric_trace(num_packets=4000, seed=17)
            fabric.ingest(trace)
            sealed = fabric.rotate()
            assert sealed.packets == len(trace)
            assert sealed.has_task(handle.task_id)
        finally:
            FAULTS.reset()
            fabric.stop()


class TestDegradedMember:
    def test_degraded_host_excludes_its_tasks_only(self):
        tasks = [freq_task(name="edge_task"), interarrival_task(name="core_task")]
        fabric, (edge_handle, core_handle) = build_fabric(tasks)
        try:
            trace = fabric_trace(num_packets=EPOCH, seed=19)
            # edge1's sealer dies at the barrier
            original = fabric.members["edge1"].rotate
            fabric.members["edge1"].rotate = lambda *a, **k: (_ for _ in ()).throw(
                RuntimeError("sealer wedged")
            )
            fabric.ingest(trace)
            sealed = fabric.rotate()
            fabric.members["edge1"].rotate = original
            assert "edge1" in fabric.degraded_members
            # the edge-hosted task is excluded: queries refuse, loudly
            with pytest.raises(StaleEpochError):
                resolve(FrequencyQuery(edge_handle, (1,)), sealed)
            # the core-hosted task is unaffected
            resolve(InterArrivalQuery(core_handle, (1,)), sealed)
            assert fabric.status()["status"] == "degraded"
        finally:
            fabric.stop()

    def test_next_epoch_recovers(self):
        fabric, (handle,) = build_fabric([freq_task()])
        try:
            trace = fabric_trace(num_packets=EPOCH, seed=23)
            original = fabric.members["edge0"].rotate
            fabric.members["edge0"].rotate = lambda *a, **k: (_ for _ in ()).throw(
                RuntimeError("sealer wedged")
            )
            fabric.ingest(trace)
            fabric.rotate()
            fabric.members["edge0"].rotate = original
            # a failed member seal leaves its window open; the next barrier
            # folds it in, so the fabric keeps running (conservation below)
            trace2 = fabric_trace(num_packets=EPOCH, seed=29)
            fabric.ingest(trace2)
            sealed = fabric.rotate()
            assert not fabric.degraded_members
            resolve(FrequencyQuery(handle, (1,)), sealed)
        finally:
            fabric.stop()

    def test_member_seal_fault_site_degrades_one_member(self):
        """``FLYMON_FAULTS=member_seal@N`` knocks one switch's sealer out
        at the barrier; the fabric seals anyway and reports degraded."""
        fabric, (handle,) = build_fabric([freq_task()])
        try:
            FAULTS.reset()  # the hit counter is process-wide
            FAULTS.arm(SITE_MEMBER_SEAL, hit=1)
            fabric.ingest(fabric_trace(num_packets=EPOCH, seed=31))
            sealed = fabric.rotate()
            assert FAULTS.fired()
            assert list(fabric.degraded_members) == ["edge0"]
            assert fabric.status()["status"] == "degraded"
            with pytest.raises(StaleEpochError):
                resolve(FrequencyQuery(handle, (1,)), sealed)
            # one-shot arm: the next barrier is clean again
            fabric.ingest(fabric_trace(num_packets=EPOCH, seed=33))
            fabric.rotate()
            assert not fabric.degraded_members
        finally:
            FAULTS.reset()
            fabric.stop()


class TestDispatchConservation:
    def test_every_packet_dispatched_exactly_once_per_layer(self):
        fabric, handles = build_fabric(
            [freq_task(), interarrival_task()]
        )  # edges + core both active
        try:
            trace = fabric_trace(num_packets=EPOCH, seed=31)
            fabric.ingest(trace)
            stats = fabric.stats()
            edges = [n for n in fabric.topology.names if n.startswith("edge")]
            edge_total = sum(stats["member_packets"][n] for n in edges)
            assert edge_total == len(trace)  # edges partition the stream
            assert stats["member_packets"]["core0"] == len(trace)
            assert stats["packets_total"] == len(trace)  # counted once
        finally:
            fabric.stop()

    def test_inactive_switches_see_no_traffic(self):
        # only a single-edge filtered task -> other members stay idle
        task = freq_task(filter=TaskFilter.of(src_ip=(0x50000000, 8)))
        fabric, (handle,) = build_fabric([task])
        try:
            trace = fabric_trace(num_packets=EPOCH, seed=37)
            fabric.ingest(trace)
            stats = fabric.stats()
            (host,) = handle.hosts
            for name, count in stats["member_packets"].items():
                if name == host:
                    assert count > 0
                else:
                    assert count == 0
        finally:
            fabric.stop()
