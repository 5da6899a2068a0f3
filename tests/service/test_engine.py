"""Unit tests for the streaming epoch engine (MeasurementService)."""

import numpy as np
import pytest

from repro.core.controller import FlyMonController
from repro.service import (
    CardinalityQuery,
    FrequencyQuery,
    MeasurementService,
    StaleEpochError,
)
from repro.traffic import zipf_trace
from repro.traffic.packet import PACKET_FIELDS
from repro.traffic.trace import Trace

from service_tasks import freq_task, hll_task


def _rows(sealed, handle):
    return [values.tolist() for values in sealed.read_rows(handle)]


class TestRotation:
    def test_packet_count_rotation(self, controller):
        handle = controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=1000)
        trace = zipf_trace(num_flows=300, num_packets=5000, seed=1)
        sealed = service.ingest(trace)
        full, tail = divmod(len(trace), 1000)
        assert [s.index for s in sealed] == list(range(full))
        assert all(s.packets == 1000 for s in sealed)
        if tail:
            last = service.rotate()
            assert last.packets == tail
        assert service.stats()["packets_total"] == len(trace)
        assert handle.task_id in sealed[0].task_ids

    def test_chunked_ingest_matches_bulk(self, controller):
        handle = controller.add_task(freq_task())
        trace = zipf_trace(num_flows=300, num_packets=4000, seed=2)

        bulk = MeasurementService(controller, epoch_packets=700)
        sealed_bulk = bulk.ingest(trace)
        bulk_rows = [_rows(s, handle) for s in sealed_bulk]
        bulk.rotate()  # drop the tail so the second run starts clean

        chunked = MeasurementService(controller, epoch_packets=700)
        sealed_chunked = []
        for start in range(0, len(trace), 333):
            piece = Trace(
                {f: trace.columns[f][start : start + 333] for f in PACKET_FIELDS}
            )
            sealed_chunked.extend(chunked.ingest(piece))
        assert [s.packets for s in sealed_chunked] == [
            s.packets for s in sealed_bulk
        ]
        assert [_rows(s, handle) for s in sealed_chunked] == bulk_rows

    def test_duration_rotation(self, controller):
        controller.add_task(freq_task())
        trace = zipf_trace(num_flows=200, num_packets=3000, seed=3).sorted_by_time()
        duration = trace.duration_us // 5
        service = MeasurementService(
            controller, epoch_duration_us=duration, retain=32
        )
        sealed = service.ingest(trace)
        service.rotate()
        ts = trace.columns["timestamp"]
        start = int(ts[0])
        for s in sealed:
            end = start + duration
            expected = int(
                np.count_nonzero((ts >= start) & (ts < end))
            )
            assert s.packets == expected
            start = end
        assert sum(s.packets for s in service.epochs) == len(trace)

    def test_duration_gap_seals_at_most_one_empty_epoch(self, controller):
        # A multi-hour trace gap must NOT spin one empty seal (watchers,
        # series, ring churn) per epoch_duration_us step: exactly one empty
        # epoch marks the discontinuity, then the grid fast-forwards to the
        # step holding the next packet.
        controller.add_task(freq_task())
        trace = zipf_trace(num_flows=100, num_packets=2000, seed=3).sorted_by_time()
        ts = trace.columns["timestamp"].copy()
        gap_at = len(ts) // 2
        duration = int(ts[gap_at - 1] - ts[0]) + 1  # pre-gap half = 1 epoch
        ts[gap_at:] += 10_000 * duration  # a 10k-epoch-wide hole
        gapped = Trace({**trace.columns, "timestamp": ts})
        service = MeasurementService(
            controller, epoch_duration_us=duration, retain=32
        )
        service.ingest(gapped)
        service.rotate()
        empties = [s for s in service.epochs if s.packets == 0]
        assert len(empties) == 1
        assert len(service.epochs) <= 4  # pre-gap, marker, post-gap (+tail)
        assert sum(s.packets for s in service.epochs) == len(gapped)
        # The first post-gap epoch starts with the first post-gap packet.
        post = next(
            s for s in service.epochs if s.packets and s.index > empties[0].index
        )
        assert post.start_ts == int(ts[gap_at])

    def test_manual_rotation_only_on_rotate(self, controller):
        controller.add_task(freq_task())
        service = MeasurementService(controller)
        trace = zipf_trace(num_flows=100, num_packets=2000, seed=4)
        assert service.ingest(trace) == []
        sealed = service.rotate()
        assert sealed.packets == len(trace)

    def test_rotation_mode_validation(self, controller):
        with pytest.raises(ValueError):
            MeasurementService(controller, epoch_packets=10, epoch_duration_us=10)
        with pytest.raises(ValueError):
            MeasurementService(controller, epoch_packets=0)
        with pytest.raises(ValueError):
            MeasurementService(controller, epoch_duration_us=-5)
        with pytest.raises(ValueError):
            MeasurementService(controller, retain=0)


class TestSealing:
    def test_seal_resets_all_deployments_by_default(self, controller):
        h1 = controller.add_task(freq_task())
        h2 = controller.add_task(hll_task())
        service = MeasurementService(controller)
        service.ingest(zipf_trace(num_flows=100, num_packets=500, seed=5))
        service.rotate()
        for handle in (h1, h2):
            assert all(row.read().sum() == 0 for row in handle.rows)

    def test_narrowed_reset_leaves_other_tasks(self, controller):
        h1 = controller.add_task(freq_task())
        h2 = controller.add_task(hll_task())
        service = MeasurementService(controller)
        service.ingest(zipf_trace(num_flows=100, num_packets=500, seed=5))
        service.rotate(reset_handles=[h1])
        assert all(row.read().sum() == 0 for row in h1.rows)
        assert any(row.read().sum() != 0 for row in h2.rows)

    def test_sealed_rows_match_pre_seal_registers(self, controller):
        handle = controller.add_task(freq_task())
        service = MeasurementService(controller)
        service.ingest(zipf_trace(num_flows=100, num_packets=800, seed=6))
        live = [row.read().tolist() for row in handle.rows]
        sealed = service.rotate()
        assert _rows(sealed, handle) == live

    def test_sealed_epoch_survives_reset_and_new_traffic(self, controller):
        handle = controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=1000)
        trace = zipf_trace(num_flows=200, num_packets=2000, seed=7)
        sealed = service.ingest(trace)
        first = _rows(sealed[0], handle)
        # More traffic and another seal must not disturb epoch 0's snapshot.
        service.ingest(zipf_trace(num_flows=200, num_packets=1000, seed=8))
        assert _rows(sealed[0], handle) == first

    def test_stale_task_raises(self, controller):
        controller.add_task(freq_task())
        service = MeasurementService(controller)
        service.ingest(zipf_trace(num_flows=50, num_packets=200, seed=9))
        sealed = service.rotate()
        late = controller.add_task(hll_task())
        with pytest.raises(StaleEpochError):
            sealed.read_rows(late)
        with pytest.raises(StaleEpochError):
            service.query(CardinalityQuery(late), epoch=sealed)

    def test_sealed_resolution_never_touches_live_registers(self, controller):
        """Sealed queries run on detached bindings: resolving them must not
        read back different values nor mutate the live registers (the
        overlay mechanism this replaced swapped sealed cells into the live
        registers, corrupting concurrent ingest)."""
        handle = controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=500)
        trace = zipf_trace(num_flows=100, num_packets=1000, seed=10)
        sealed = service.ingest(trace)[0]
        live_before = [row.read().tolist() for row in handle.rows]
        flow = max(
            trace.flow_sizes(freq_task().key).items(), key=lambda kv: kv[1]
        )[0]
        assert service.query(FrequencyQuery(handle, flow), epoch=sealed) > 0
        algo = sealed.bind(handle)
        assert [row.read().tolist() for row in algo.rows] == _rows(
            sealed, handle
        )
        assert [row.read().tolist() for row in handle.rows] == live_before

    def test_sealed_rows_are_immutable(self, controller):
        handle = controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=500)
        sealed = service.ingest(
            zipf_trace(num_flows=100, num_packets=1000, seed=10)
        )[0]
        with pytest.raises(TypeError):
            sealed.bind(handle).rows[0].reset()


class TestRetention:
    def test_ring_bounds_history(self, controller):
        controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=100, retain=3)
        service.ingest(zipf_trace(num_flows=50, num_packets=1000, seed=11))
        retained = [s.index for s in service.epochs]
        assert len(retained) == 3
        assert retained == sorted(retained)
        assert service.latest.index == retained[-1]
        assert service.epoch(retained[0]).index == retained[0]
        with pytest.raises(StaleEpochError):
            service.epoch(0)

    def test_epoch_held_past_eviction_keeps_its_cells(self, controller):
        """An epoch evicted from the ring, or an estimator bound to one,
        still reads its own arrays: nothing recycles them."""
        handle = controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=100, retain=2)
        trace = zipf_trace(num_flows=50, num_packets=1400, seed=14)
        first, second = service.ingest(trace.select(np.arange(200)))
        rows = _rows(first, handle)
        estimator = second.bind(handle)
        bound_rows = [row.read().tolist() for row in estimator.rows]
        del second
        service.ingest(trace.select(np.arange(200, 1400)))
        assert first.index not in [s.index for s in service.epochs]
        assert _rows(first, handle) == rows
        assert [row.read().tolist() for row in estimator.rows] == bound_rows

    def test_series_over_ring(self, controller):
        handle = controller.add_task(hll_task())
        service = MeasurementService(controller, epoch_packets=500, retain=4)
        service.register_series("card", CardinalityQuery(handle))
        service.ingest(zipf_trace(num_flows=300, num_packets=3000, seed=12))
        series = service.series("card")
        assert [index for index, _ in series] == [
            s.index for s in service.epochs
        ]
        assert all(value > 0 for _, value in series)
        with pytest.raises(ValueError):
            service.register_series("card", CardinalityQuery(handle))
        with pytest.raises(KeyError):
            service.series("nope")


class TestSinglePacketIngest:
    def test_buffered_packets_match_bulk(self):
        trace = zipf_trace(num_flows=100, num_packets=1500, seed=13)

        bulk_ctrl = FlyMonController(num_groups=1)
        bulk_handle = bulk_ctrl.add_task(freq_task())
        bulk = MeasurementService(bulk_ctrl, epoch_packets=400)
        sealed_bulk = bulk.ingest(trace)

        pkt_ctrl = FlyMonController(num_groups=1)
        pkt_handle = pkt_ctrl.add_task(freq_task())
        by_packet = MeasurementService(
            pkt_ctrl, epoch_packets=400, batch_size=64
        )
        sealed_pkt = []
        for fields in trace.iter_fields():
            sealed_pkt.extend(by_packet.ingest_packet(fields))
        sealed_pkt.extend(by_packet.flush())

        assert [s.packets for s in sealed_pkt] == [
            s.packets for s in sealed_bulk
        ]
        assert [_rows(s, pkt_handle) for s in sealed_pkt] == [
            _rows(s, bulk_handle) for s in sealed_bulk
        ]

    def test_packet_rotation_is_not_deferred_past_boundary(self, controller):
        controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=10, batch_size=1000)
        trace = zipf_trace(num_flows=10, num_packets=25, seed=14)
        sealed = []
        for fields in trace.iter_fields():
            sealed.extend(service.ingest_packet(fields))
        assert [s.packets for s in sealed] == [10, 10]

    def test_ingest_batch(self, controller):
        handle = controller.add_task(freq_task())
        trace = zipf_trace(num_flows=50, num_packets=600, seed=15)
        service = MeasurementService(controller, epoch_packets=600)
        sealed = service.ingest_batch(trace.as_batch())
        assert len(sealed) == 1
        assert sealed[0].packets == len(trace)
        assert any(sum(r) for r in _rows(sealed[0], handle))


class TestFastPathParity:
    @pytest.mark.parametrize("chunks", [1, 2])
    def test_batched_and_sharded_match_scalar(self, chunks):
        """The batched service -- the one datapath process, fed the trace in
        ``chunks`` ingest calls -- seals what the scalar path seals.  (The
        name predates the removal of the sharded runtime.)"""
        trace = zipf_trace(num_flows=200, num_packets=3000, seed=16)

        def run(batch_size, chunks):
            controller = FlyMonController(num_groups=1)
            handle = controller.add_task(freq_task())
            service = MeasurementService(
                controller, epoch_packets=800, batch_size=batch_size
            )
            sealed = []
            for piece in trace.split_epochs(chunks):
                sealed += service.ingest(piece)
            sealed.append(service.rotate())
            return [_rows(s, handle) for s in sealed]

        scalar = run(batch_size=0, chunks=1)
        fast = run(batch_size=256, chunks=chunks)
        assert fast == scalar


class TestStats:
    def test_stats_shape(self, controller):
        controller.add_task(freq_task())
        trace = zipf_trace(num_flows=50, num_packets=1000, seed=17)
        service = MeasurementService(controller, epoch_packets=300, retain=2)
        service.ingest(trace)
        stats = service.stats()
        assert stats["epoch"] == len(trace) // 300
        assert stats["sealed_epochs"] == 2
        assert stats["packets_total"] == len(trace)
        assert stats["epoch_fill"] == len(trace) % 300
        assert stats["epoch_packets"] == 300

    def test_empty_ingest(self, controller):
        controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=10)
        assert service.ingest(Trace.empty()) == []

    def test_stats_flight_recorder_fields(self, controller):
        controller.add_task(freq_task())
        trace = zipf_trace(num_flows=50, num_packets=1000, seed=18)
        service = MeasurementService(controller, epoch_packets=300)
        service.ingest(trace)
        stats = service.stats()
        assert stats["ingest_ms_total"] > 0.0
        assert stats["last_seal_ms"] is not None
        assert stats["last_seal_ms"] >= 0.0
        assert stats["watchers_fired"] == 0

    def test_last_seal_ms_none_before_first_epoch(self, controller):
        controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=10_000)
        assert service.stats()["last_seal_ms"] is None


class TestSealTelemetry:
    def test_seal_histogram_uses_ms_buckets(self, controller):
        """flymon_epoch_seal_ms observes milliseconds, so it must be created
        with DEFAULT_MS_BUCKETS -- the seconds buckets shoved every seal into
        the top bucket (the PR-1 regression this guards against)."""
        from repro import telemetry
        from repro.telemetry import DEFAULT_MS_BUCKETS

        controller.add_task(freq_task())
        trace = zipf_trace(num_flows=50, num_packets=900, seed=19)
        telemetry.reset()
        telemetry.enable()
        try:
            service = MeasurementService(controller, epoch_packets=300)
            service.ingest(trace)
            hist = telemetry.TELEMETRY.registry.get("flymon_epoch_seal_ms")
            assert hist is not None
            assert hist.bounds == DEFAULT_MS_BUCKETS
            assert hist.count == 3
        finally:
            telemetry.disable()
            telemetry.reset()


class TestFlightRecorder:
    def test_ingest_and_rotation_spans(self, controller):
        from repro.telemetry import RECORDER, disable_recorder, enable_recorder

        handle = controller.add_task(freq_task())
        trace = zipf_trace(num_flows=50, num_packets=900, seed=20)
        RECORDER.clear()
        enable_recorder()
        try:
            service = MeasurementService(controller, epoch_packets=300)
            service.ingest(trace)
            spans = RECORDER.spans
        finally:
            disable_recorder()
            RECORDER.clear()
        names = [s.name for s in spans]
        assert names.count("service.rotate") == 3
        assert "service.ingest" in names
        by_id = {s.span_id: s for s in spans}
        rotate_ids = {s.span_id for s in spans if s.name == "service.rotate"}
        for child in ("rotate.snapshot", "rotate.digests", "rotate.reset",
                      "rotate.series", "rotate.watchers"):
            members = [s for s in spans if s.name == child]
            assert len(members) == 3, f"{child}: {names}"
            assert all(s.parent_id in rotate_ids for s in members)
        # Rotation spans carry the epoch index and packet count.
        epochs = sorted(
            s.attrs["epoch"] for s in spans if s.name == "service.rotate"
        )
        assert epochs == [0, 1, 2]
        assert all(
            s.attrs["packets"] == 300
            for s in spans
            if s.name == "service.rotate"
        )
        # The snapshot span carries what the seal copied: the task's rows.
        row_bytes = 8 * sum(row.mem.length for row in handle.rows)
        assert [
            s.attrs["bytes"] for s in spans if s.name == "rotate.snapshot"
        ] == [row_bytes] * 3
        assert by_id  # parent links all resolve within the ring

    def test_recorder_off_records_nothing(self, controller):
        from repro.telemetry import RECORDER, disable_recorder

        disable_recorder()
        RECORDER.clear()
        controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=300)
        service.ingest(zipf_trace(num_flows=50, num_packets=900, seed=21))
        assert RECORDER.spans == []
