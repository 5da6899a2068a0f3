"""Every control-plane mutation is transactional: an injected failure at any
fault site rolls the controller back to bit-identical pre-call state."""

import numpy as np
import pytest

from controller_state import controller_state
from repro.core.compression import KeyExhaustedError
from repro.core.controller import FlyMonController, PlacementError
from repro.core.task import AttributeSpec, MeasurementTask, TaskFilter
from repro.core.txn import (
    ReconfigTransaction,
    STATE_COMMITTED,
    STATE_ROLLED_BACK,
    TxnRollbackError,
)
from repro.faults import (
    FAULTS,
    FaultError,
    SITE_ALLOC_EXHAUSTED,
    SITE_KEY_DENIED,
    SITE_RULE_APPLY,
)
from repro.traffic.flows import KEY_DST_IP, KEY_SRC_IP

#: Exception types an aborted reconfiguration may surface, depending on site.
ABORTS = (FaultError, PlacementError, KeyExhaustedError)


def freq_task(**kwargs):
    kwargs.setdefault("key", KEY_SRC_IP)
    kwargs.setdefault("attribute", AttributeSpec.frequency())
    kwargs.setdefault("memory", 4096)
    kwargs.setdefault("depth", 3)
    kwargs.setdefault("algorithm", "cms")
    return MeasurementTask(**kwargs)


#: Everything a failed reconfiguration must leave untouched, in every group.
snapshot = controller_state


@pytest.fixture
def deployed():
    controller = FlyMonController(num_groups=3)
    handle = controller.add_task(
        freq_task(filter=TaskFilter.of(src_ip=(0x0A000000, 8)))
    )
    # Hit counters are cumulative; zero them so arms index from this point.
    FAULTS.reset()
    return controller, handle


class TestAddTaskRollback:
    @pytest.mark.parametrize(
        "site,hit",
        [
            (SITE_RULE_APPLY, 1),
            (SITE_RULE_APPLY, 2),
            (SITE_RULE_APPLY, 4),
            (SITE_ALLOC_EXHAUSTED, 1),
            (SITE_ALLOC_EXHAUSTED, 2),
            (SITE_ALLOC_EXHAUSTED, 3),
            (SITE_KEY_DENIED, 1),
        ],
    )
    def test_every_site_rolls_back_bit_identically(self, deployed, site, hit):
        controller, _ = deployed
        before = snapshot(controller)
        FAULTS.arm(site, hit=hit)
        with pytest.raises(ABORTS):
            controller.add_task(
                freq_task(filter=TaskFilter.of(src_ip=(0x14000000, 8)))
            )
        assert FAULTS.fired(), "the armed fault must actually fire"
        assert snapshot(controller) == before
        assert controller.verify_integrity().ok

    def test_controller_still_usable_after_rollback(self, deployed):
        controller, _ = deployed
        FAULTS.arm(SITE_RULE_APPLY, hit=3)
        probe = freq_task(filter=TaskFilter.of(src_ip=(0x14000000, 8)))
        with pytest.raises(ABORTS):
            controller.add_task(probe)
        FAULTS.disarm()
        handle = controller.add_task(probe)
        assert handle.task_id in {h.task_id for h in controller.tasks}
        assert controller.verify_integrity().ok


def dirty_registers(controller, seed):
    """Fill every register with noise, so a rolled-back register reset has
    exact cells to restore and a stray write anywhere shows."""
    rng = np.random.default_rng(seed)
    for group in controller.groups:
        for cmu in group.cmus:
            cmu.register.write_range(0, rng.integers(0, 1 << 16, cmu.register_size))


def probe_task():
    return freq_task(memory=256, filter=TaskFilter.of(src_ip=(0x14000000, 8)))


class TestWholeControllerRollback:
    """An operation snapshots only the stores of the groups it works on;
    every rule_apply hit of an add must still leave *all* groups' stores and
    registers as they were."""

    @pytest.fixture
    def spread(self):
        controller = FlyMonController(num_groups=9, register_size=1 << 12)
        # Match-all residents conflict on every CMU: one group each (0-2).
        for key in (KEY_SRC_IP, KEY_DST_IP, KEY_SRC_IP):
            controller.add_task(freq_task(key=key, memory=256))
        # Group 3, where the probe lands beside it (disjoint filters).
        controller.add_task(
            freq_task(
                key=KEY_DST_IP,
                memory=256,
                filter=TaskFilter.of(src_ip=(0x0A000000, 8)),
            )
        )
        assert {g for h in controller.tasks for g in h.groups_used} == {0, 1, 2, 3}
        FAULTS.reset()
        return controller

    def test_unarmed_add_hits_once_per_rule_entry(self, spread):
        handle = spread.add_task(probe_task())
        assert handle.groups_used == (3,)
        assert FAULTS.hit_count(SITE_RULE_APPLY) == handle.rules_installed
        # Preparation runs hold many TCAM entries each: the hit range below
        # reaches inside them.
        per_row = 3 * len(handle.rows) + handle.install_report.hash_mask_rules
        assert handle.rules_installed > per_row

    @pytest.mark.parametrize("pinned", [False, True], ids=["add_task", "add_task_pinned"])
    def test_every_rule_apply_hit_restores_every_group(self, spread, pinned):
        handle = spread.add_task(probe_task())
        pin = spread.export_placement(handle)
        hits = handle.rules_installed
        spread.remove_task(handle)
        dirty_registers(spread, seed=7)
        before = snapshot(spread)

        def add():
            if pinned:
                return spread.add_task_pinned(probe_task(), pin)
            return spread.add_task(probe_task())

        for hit in range(1, hits + 1):
            FAULTS.reset()
            FAULTS.arm(SITE_RULE_APPLY, hit=hit)
            with pytest.raises(FaultError):
                add()
            assert snapshot(spread) == before, f"rule_apply@{hit}"
        assert spread.verify_integrity().ok
        FAULTS.reset()
        assert add().rules_installed == hits == FAULTS.hit_count(SITE_RULE_APPLY)


class TestFilterUpdateRollback:
    def test_failure_on_row_2_of_3_keeps_all_rows_on_old_filter(self, deployed):
        controller, handle = deployed
        assert len(handle.rows) == 3
        old_filter = handle.task.filter
        before = snapshot(controller)
        FAULTS.arm(SITE_RULE_APPLY, hit=2)  # row 1 applies, row 2 fails
        new_filter = TaskFilter.of(src_ip=(0xC0000000, 8))
        with pytest.raises(FaultError):
            controller.update_task_filter(handle, new_filter)
        assert handle.task.filter == old_filter
        for row in handle.rows:
            assert row.cmu.config(handle.task_id).filter == old_filter
        assert snapshot(controller) == before
        assert controller.verify_integrity().ok
        # The same update succeeds once the fault is gone.
        controller.update_task_filter(handle, new_filter)
        assert handle.task.filter == new_filter
        for row in handle.rows:
            assert row.cmu.config(handle.task_id).filter == new_filter


class TestSplitTaskRollback:
    def test_all_or_nothing(self):
        controller = FlyMonController(num_groups=3)
        task = freq_task(filter=TaskFilter.of(src_ip=(0x0A000000, 8)))
        # Measure how many rule applications one such deployment needs, so
        # the armed hit lands on the *second* subtask's first rule.
        probe = controller.add_task(task)
        rules_per_subtask = probe.install_report.rules_installed
        controller.remove_task(probe)
        before = snapshot(controller)
        FAULTS.reset()
        FAULTS.arm(SITE_RULE_APPLY, hit=rules_per_subtask + 1)
        with pytest.raises(FaultError):
            controller.add_split_task(task)
        assert FAULTS.fired()
        assert controller.tasks == []
        assert snapshot(controller) == before
        assert controller.verify_integrity().ok


class TestResizeRestore:
    def test_failed_resize_restores_original_deployment(self):
        controller = FlyMonController(num_groups=1)
        handles = [
            controller.add_task(
                freq_task(
                    memory=16_384,
                    filter=TaskFilter.of(src_ip=((10 + i) << 24, 8)),
                )
            )
            for i in range(4)  # 4 x 16K rows fill each 64K register
        ]
        victim = handles[0]
        before = snapshot(controller)
        with pytest.raises(PlacementError) as excinfo:
            controller.resize_task(victim, 32_768)
        assert excinfo.value.restored_handle is victim
        assert snapshot(controller) == before
        assert victim.task_id in {h.task_id for h in controller.tasks}
        assert victim.task.memory == 16_384
        assert controller.verify_integrity().ok

    def test_restored_resize_emits_telemetry(self):
        from repro import telemetry
        from repro.telemetry import EV_TASK_RESIZE, EV_TXN_ROLLBACK

        controller = FlyMonController(num_groups=1)
        handles = [
            controller.add_task(
                freq_task(
                    memory=16_384,
                    filter=TaskFilter.of(src_ip=((10 + i) << 24, 8)),
                )
            )
            for i in range(4)
        ]
        telemetry.reset()
        telemetry.enable()
        try:
            with pytest.raises(PlacementError):
                controller.resize_task(handles[0], 32_768)
            resizes = telemetry.TELEMETRY.events.of_type(EV_TASK_RESIZE)
            assert [e.data["strategy"] for e in resizes] == ["restored"]
            assert telemetry.TELEMETRY.events.of_type(EV_TXN_ROLLBACK)
            assert "flymon_rollbacks_total" in telemetry.to_prometheus(
                telemetry.TELEMETRY.registry
            )
        finally:
            telemetry.disable()
            telemetry.reset()


class TestReconfigTransaction:
    def test_rollback_runs_undo_log_in_reverse(self):
        order = []
        txn = ReconfigTransaction("t")
        txn.record("first", lambda: order.append("first"))
        txn.record("second", lambda: order.append("second"))
        txn.rollback()
        assert order == ["second", "first"]
        assert txn.state == STATE_ROLLED_BACK
        # Rolling back twice is a no-op, not a double-undo.
        txn.rollback()
        assert order == ["second", "first"]

    def test_commit_discards_undo_log(self):
        order = []
        txn = ReconfigTransaction("t")
        txn.record("undo", lambda: order.append("undo"))
        txn.commit()
        assert txn.state == STATE_COMMITTED
        txn.rollback()
        assert order == []

    def test_context_manager_rolls_back_on_exception(self):
        order = []
        with pytest.raises(ValueError):
            with ReconfigTransaction("t") as txn:
                txn.record("undo", lambda: order.append("undo"))
                raise ValueError("boom")
        assert order == ["undo"]
        assert txn.state == STATE_ROLLED_BACK

    def test_failing_undo_action_raises_rollback_error(self):
        def bad():
            raise RuntimeError("undo failed")

        txn = ReconfigTransaction("t")
        txn.record("good", lambda: None)
        txn.record("bad", bad)
        with pytest.raises(TxnRollbackError) as excinfo:
            txn.rollback()
        assert "bad" in str(excinfo.value)

    def test_closed_transaction_rejects_new_entries(self):
        txn = ReconfigTransaction("t")
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.record("late", lambda: None)
