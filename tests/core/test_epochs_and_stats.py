"""Unit tests for the epoch runner and controller stats."""

import pytest

from repro.core.controller import FlyMonController
from repro.core.epochs import EpochRunner
from repro.core.task import AttributeSpec, MeasurementTask
from repro.traffic import KEY_SRC_IP, zipf_trace


def freq_task(memory=2048):
    return MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.frequency(),
        memory=memory,
        depth=3,
        algorithm="cms",
    )


class TestEpochRunner:
    def test_collects_per_epoch(self):
        controller = FlyMonController(num_groups=1)
        runner = EpochRunner(controller)
        handle = runner.track(controller.add_task(freq_task()))
        runner.collect(
            "total",
            lambda epoch, window: int(sum(row.read().sum() for row in handle.rows)),
        )
        trace = zipf_trace(num_flows=300, num_packets=3000, seed=1)
        results = runner.run(trace, num_epochs=3)
        assert len(results) == 3
        assert sum(r.packets for r in results) == len(trace)
        for r in results:
            # Each epoch's counted packets match that window (d=3 rows).
            assert r.outputs["total"] == 3 * r.packets

    def test_resets_between_epochs(self):
        controller = FlyMonController(num_groups=1)
        runner = EpochRunner(controller)
        handle = runner.track(controller.add_task(freq_task()))
        trace = zipf_trace(num_flows=300, num_packets=3000, seed=2)
        runner.run(trace, num_epochs=2)
        assert all(row.read().sum() == 0 for row in handle.rows)

    def test_epoch_start_hook(self):
        controller = FlyMonController(num_groups=1)
        runner = EpochRunner(controller)
        seen = []
        trace = zipf_trace(num_flows=50, num_packets=500, seed=3)
        runner.run(trace, num_epochs=4, on_epoch_start=seen.append)
        assert seen == [0, 1, 2, 3]

    def test_duplicate_collector_rejected(self):
        runner = EpochRunner(FlyMonController(num_groups=1))
        runner.collect("x", lambda e, w: None)
        with pytest.raises(ValueError):
            runner.collect("x", lambda e, w: None)

    def test_untracked_deployments_reset_by_default(self):
        """Regression: with no track() call every deployment must reset at
        each boundary -- track() narrows the reset set, it is not required
        for epoch semantics to hold."""
        controller = FlyMonController(num_groups=2)
        first = controller.add_task(freq_task())
        second = controller.add_task(freq_task(memory=1024))
        runner = EpochRunner(controller)  # note: nothing tracked
        trace = zipf_trace(num_flows=200, num_packets=2000, seed=4)
        results = runner.run(trace, num_epochs=2)
        assert sum(r.packets for r in results) == len(trace)
        for handle in (first, second):
            assert all(row.read().sum() == 0 for row in handle.rows)

    def test_track_narrows_the_reset_set(self):
        controller = FlyMonController(num_groups=2)
        tracked = controller.add_task(freq_task())
        untracked = controller.add_task(freq_task(memory=1024))
        runner = EpochRunner(controller)
        runner.track(tracked)
        trace = zipf_trace(num_flows=200, num_packets=2000, seed=5)
        runner.run(trace, num_epochs=2)
        assert all(row.read().sum() == 0 for row in tracked.rows)
        # The untracked deployment accumulated across the whole run.
        assert sum(row.read().sum() for row in untracked.rows) > 0

    def test_results_carry_sealed_epochs(self):
        controller = FlyMonController(num_groups=1)
        runner = EpochRunner(controller)
        handle = runner.track(controller.add_task(freq_task()))
        trace = zipf_trace(num_flows=100, num_packets=1000, seed=6)
        results = runner.run(trace, num_epochs=2)
        for r in results:
            rows = [values.tolist() for values in r.sealed.read_rows(handle)]
            assert sum(sum(row) for row in rows) == 3 * r.packets

    @pytest.mark.parametrize("divisor", [1, 2])
    def test_fast_paths_match_scalar_runs(self, divisor):
        """Regression: epoch runs ride the batched engine (at 512- and
        256-packet batches) and stay bit-identical to the scalar reference
        path."""
        trace = zipf_trace(num_flows=300, num_packets=3000, seed=7)

        def run(batch_size):
            controller = FlyMonController(num_groups=1)
            runner = EpochRunner(controller)
            handle = runner.track(controller.add_task(freq_task()))
            runner.collect(
                "rows",
                lambda epoch, window: [
                    row.read().tolist() for row in handle.rows
                ],
            )
            return [
                r.outputs["rows"]
                for r in runner.run(
                    trace, num_epochs=4, batch_size=batch_size
                )
            ]

        scalar = run(batch_size=0)
        fast = run(batch_size=512 // divisor)
        assert fast == scalar


class TestControllerStats:
    def test_fresh_controller(self):
        controller = FlyMonController(num_groups=2)
        stats = controller.stats()
        assert stats["tasks"] == 0
        assert stats["groups"] == 2 and stats["cmus"] == 6
        assert stats["memory_utilization"] == 0.0
        assert stats["rules_installed"] == 0

    def test_after_deployment(self):
        controller = FlyMonController(num_groups=1)
        controller.add_task(freq_task(memory=4096))
        stats = controller.stats()
        assert stats["tasks"] == 1
        assert stats["memory_utilization"] > 0.0
        assert stats["rules_installed"] > 0
        assert stats["control_plane_ms"] > 0
        # One hash unit committed to the src_ip key.
        masks = stats["compressed_keys"][0]
        assert "src_ip/32" in [m for m in masks.values() if m]

    def test_memory_returns_after_removal(self):
        controller = FlyMonController(num_groups=1)
        handle = controller.add_task(freq_task())
        controller.remove_task(handle)
        assert controller.stats()["memory_utilization"] == 0.0
