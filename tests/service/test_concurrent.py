"""Lock-free sealed queries: differential pins and concurrent bit-identity.

The sealed-query path resolves estimators on detached bindings over a
:class:`SealedEpoch`'s immutable cell arrays.  Two properties anchor it:

* **Differential pin** -- answers must be bit-identical to the legacy
  overlay mechanism (swap sealed cells into the live registers, ask the
  live algorithm, restore), re-implemented inline here now that the
  engine no longer ships it.
* **Concurrent bit-identity** -- N threads resolving sealed queries while
  the main thread keeps ingesting must see exactly the single-threaded
  answers: sealed resolution never touches live registers, so ingestion
  cannot perturb it and it cannot perturb ingestion.
"""

import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.service import (
    CardinalityQuery,
    EntropyQuery,
    ExistenceQuery,
    FrequencyQuery,
    HeavyHitterQuery,
    InterArrivalQuery,
    MeasurementService,
    resolve,
)
from repro.traffic import zipf_trace

from service_tasks import bloom_task, freq_task, hll_task, mrac_task


@contextmanager
def legacy_overlay(sealed, handles):
    """The deleted ``SealedEpoch.overlay()``: write each sealed row into its
    live register partition, yield, restore.  Kept here as the differential
    oracle for detached resolution (single-threaded use only, by
    construction)."""
    rows = [
        (row, cells)
        for handle in handles
        for row, cells in zip(handle.rows, sealed.read_rows(handle))
    ]
    saved = [
        row.cmu.register.read_range(row.mem.base, row.mem.length)
        for row, _ in rows
    ]
    try:
        for row, cells in rows:
            row.cmu.register.write_range(row.mem.base, cells)
        yield
    finally:
        for (row, _), cells in zip(rows, saved):
            row.cmu.register.write_range(row.mem.base, cells)


def _flows(trace, count=24):
    src = trace.columns["src_ip"]
    unique, counts = np.unique(src, return_counts=True)
    top = unique[np.argsort(counts)][::-1][:count]
    return [(int(v),) for v in top]


class TestDifferentialPin:
    @pytest.fixture
    def setup(self, controller):
        cms = controller.add_task(freq_task(threshold=60))
        hll = controller.add_task(hll_task())
        mrac = controller.add_task(mrac_task())
        bloom = controller.add_task(bloom_task())
        service = MeasurementService(controller, epoch_packets=4000)
        trace = zipf_trace(num_flows=600, num_packets=8000, seed=55)
        epochs = service.ingest(trace)
        assert len(epochs) == 2
        return service, epochs, (cms, hll, mrac, bloom), _flows(trace)

    def test_detached_matches_overlay_bit_for_bit(self, setup):
        service, epochs, (cms, hll, mrac, bloom), flows = setup
        queries = (
            [FrequencyQuery(cms, flow) for flow in flows]
            + [ExistenceQuery(bloom, flow) for flow in flows]
            + [
                HeavyHitterQuery(cms, candidates=tuple(flows), threshold=60),
                HeavyHitterQuery(cms),  # digest path
                CardinalityQuery(hll),
                CardinalityQuery(mrac),
                EntropyQuery(mrac),
            ]
        )
        for sealed in epochs:
            for query in queries:
                detached = resolve(query, sealed)
                with legacy_overlay(sealed, (cms, hll, mrac, bloom)):
                    # The oracle asks the *live* algorithm while the sealed
                    # cells are swapped in -- the exact pre-refactor path.
                    handle = query.handle()
                    if isinstance(query, HeavyHitterQuery) and query.candidates is None:
                        expected = detached  # digests never lived in registers
                    else:
                        from repro.service.queries import _resolve

                        expected = _resolve(
                            query, handle, handle.algorithm, sealed=sealed
                        )
                assert detached == expected, query

    def test_overlay_oracle_is_not_a_tautology(self, setup):
        # The oracle must actually read the live registers: with the sealed
        # cells NOT overlaid, the post-seal (reset) registers answer 0.
        service, epochs, (cms, _, _, _), flows = setup
        live = resolve(FrequencyQuery(cms, flows[0]))
        sealed = resolve(FrequencyQuery(cms, flows[0]), epochs[0])
        # The registers were reset at the seal: the live answer for the
        # hottest flow is (near) zero while the sealed answer is large.
        assert sealed > live


class TestConcurrentBitIdentity:
    def test_querier_threads_match_single_threaded_answers(self, controller):
        cms = controller.add_task(freq_task(threshold=60))
        hll = controller.add_task(hll_task())
        service = MeasurementService(controller, epoch_packets=2000, retain=64)
        warmup = zipf_trace(num_flows=500, num_packets=4000, seed=56)
        epochs = service.ingest(warmup)
        flows = _flows(warmup, count=16)
        queries = (
            [FrequencyQuery(cms, flow) for flow in flows]
            + [CardinalityQuery(hll), HeavyHitterQuery(cms)]
        )
        # Single-threaded reference answers, computed up front.
        expected = {
            (sealed.index, qi): resolve(query, sealed)
            for sealed in epochs
            for qi, query in enumerate(queries)
        }

        errors = []
        stop = threading.Event()

        def querier(rounds=50):
            try:
                while not stop.is_set() and rounds:
                    rounds -= 1
                    for sealed in epochs:
                        for qi, query in enumerate(queries):
                            got = resolve(query, sealed)
                            want = expected[(sealed.index, qi)]
                            if got != want:
                                errors.append(
                                    (sealed.index, query, got, want)
                                )
                                return
            except Exception as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)

        threads = [threading.Thread(target=querier) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            # Keep ingesting (and sealing) while the queriers hammer the
            # already-sealed epochs.
            for seed in range(57, 63):
                service.ingest(
                    zipf_trace(num_flows=500, num_packets=4000, seed=seed)
                )
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors, errors[:3]
        # And the reference epochs still answer identically afterwards.
        for (index, qi), want in expected.items():
            sealed = next(s for s in epochs if s.index == index)
            assert resolve(queries[qi], sealed) == want


class TestWallClockRotation:
    def test_background_sealer_rotates_while_ingesting(self, controller):
        controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_wall_ms=15, retain=256)
        service.start()
        try:
            import time

            trace = zipf_trace(num_flows=200, num_packets=6000, seed=58)
            total = 0
            for _ in range(4):
                service.ingest(trace)
                total += len(trace)
                time.sleep(0.03)  # let the sealer tick mid-stream
        finally:
            service.stop(seal_tail=True)
        stats = service.stats()
        assert stats["packets_total"] == total
        # Sealed epochs conserve every packet (no loss, no double count).
        assert sum(s.packets for s in service.epochs) == total
        assert stats["epoch"] >= 2  # the sealer actually ticked mid-stream
        # Idle ticks after stop+drain sealed nothing extra.
        assert all(s.packets > 0 for s in service.epochs)

    def test_start_requires_wall_mode_and_stop_is_idempotent(self, controller):
        controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=100)
        with pytest.raises(ValueError):
            service.start()
        wall = MeasurementService(controller, epoch_wall_ms=10)
        wall.start()
        with pytest.raises(RuntimeError):
            wall.start()
        wall.stop()
        wall.stop()  # no-op
        wall.start()  # restartable
        wall.stop()

    def test_wall_mode_excludes_other_rotation(self, controller):
        with pytest.raises(ValueError, match="epoch_wall_ms"):
            MeasurementService(
                controller, epoch_packets=100, epoch_wall_ms=10
            )
