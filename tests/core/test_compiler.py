"""Unit tests for the task compiler (rules, undo, dedup)."""

import pytest

import repro.core.controller as controller_module
from repro.core.algorithms import ALGORITHM_REGISTRY
from repro.core.compiler import compile_deployment
from repro.core.controller import FlyMonController
from repro.core.task import AttributeSpec, MeasurementTask
from repro.dataplane.runtime import RULE_KIND_HASH_MASK, RULE_KIND_TABLE, RuntimeApi
from repro.traffic.flows import KEY_DST_IP, KEY_SRC_IP

#: One deployable task shape per built-in algorithm.
ALGORITHM_TASKS = {
    "cms": dict(attribute=AttributeSpec.frequency(), depth=3),
    "sumax_sum": dict(attribute=AttributeSpec.frequency(), depth=3),
    "mrac": dict(attribute=AttributeSpec.frequency(), depth=1),
    "tower": dict(attribute=AttributeSpec.frequency(), depth=3),
    "counter_braids": dict(attribute=AttributeSpec.frequency(), depth=2),
    "hll": dict(attribute=AttributeSpec.distinct(KEY_SRC_IP), depth=1),
    "linear_counting": dict(attribute=AttributeSpec.distinct(KEY_SRC_IP), depth=1),
    "odd_sketch": dict(attribute=AttributeSpec.distinct(KEY_SRC_IP), depth=1),
    "beaucoup": dict(
        key=KEY_DST_IP,
        attribute=AttributeSpec.distinct(KEY_SRC_IP),
        depth=3,
        threshold=512,
    ),
    "bloom": dict(attribute=AttributeSpec.existence(), depth=3),
    "bloom_naive": dict(attribute=AttributeSpec.existence(), depth=3),
    "sumax_max": dict(attribute=AttributeSpec.maximum("queue_length"), depth=3),
    "max_interarrival": dict(
        attribute=AttributeSpec.maximum("packet_interval"), depth=2
    ),
}


def deploy(controller, **kwargs):
    defaults = dict(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.frequency(),
        memory=16_384,
        depth=3,
        algorithm="cms",
    )
    defaults.update(kwargs)
    return controller.add_task(MeasurementTask(**defaults))


class TestRuleCounts:
    def test_first_deployment_includes_hash_mask(self):
        controller = FlyMonController(num_groups=1)
        handle = deploy(controller)
        assert handle.install_report.hash_mask_rules == 1

    def test_key_reuse_avoids_hash_mask(self):
        from repro.core.task import TaskFilter

        controller = FlyMonController(num_groups=1)
        deploy(controller, filter=TaskFilter.of(src_ip=(0x0A000000, 8)))
        second = deploy(controller, filter=TaskFilter.of(src_ip=(0x14000000, 8)))
        assert second.install_report.hash_mask_rules == 0

    def test_preconfigured_keys_avoid_hash_masks(self):
        controller = FlyMonController(
            num_groups=1, preconfigure_keys=(KEY_SRC_IP,)
        )
        handle = deploy(controller)
        assert handle.install_report.hash_mask_rules == 0

    def test_shift_strategy_installs_fewer_rules(self):
        tcam_ctl = FlyMonController(num_groups=1, strategy="tcam")
        shift_ctl = FlyMonController(num_groups=1, strategy="shift")
        tcam_handle = deploy(tcam_ctl, memory=2048)
        shift_handle = deploy(shift_ctl, memory=2048)
        assert shift_handle.rules_installed < tcam_handle.rules_installed

    def test_beaucoup_coupon_entries_shared_within_group(self):
        controller = FlyMonController(num_groups=1)
        d3 = controller.add_task(
            MeasurementTask(
                key=KEY_DST_IP,
                attribute=AttributeSpec.distinct(KEY_SRC_IP),
                memory=16_384,
                depth=3,
                algorithm="beaucoup",
                threshold=512,
            )
        )
        other = FlyMonController(num_groups=1)
        d1 = other.add_task(
            MeasurementTask(
                key=KEY_DST_IP,
                attribute=AttributeSpec.distinct(KEY_SRC_IP),
                memory=16_384,
                depth=1,
                algorithm="beaucoup",
                threshold=512,
            )
        )
        # d=3 shares the coupon table: it costs less than 3x the d=1 rules.
        assert d3.rules_installed < 3 * d1.rules_installed


class TestRuleAccounting:
    """A row's preparation entries are one rule carrying their count; the
    report still counts every physical entry."""

    def test_every_algorithm_is_covered(self):
        assert set(ALGORITHM_TASKS) == set(ALGORITHM_REGISTRY)

    @pytest.mark.parametrize("strategy", ["tcam", "shift"])
    @pytest.mark.parametrize("name", sorted(ALGORITHM_TASKS))
    def test_report_counts_every_entry(self, monkeypatch, name, strategy):
        compiled = []

        def spy(ctx, configs):
            rules = compile_deployment(ctx, configs)
            compiled.append((ctx, configs, rules))
            return rules

        monkeypatch.setattr(controller_module, "compile_deployment", spy)
        controller = FlyMonController(num_groups=3, strategy=strategy)
        task = dict(key=KEY_SRC_IP, memory=4096, algorithm=name)
        task.update(ALGORITHM_TASKS[name])
        handle = controller.add_task(MeasurementTask(**task))
        (ctx, configs, rules), = compiled

        masks = sum(rule.kind == RULE_KIND_HASH_MASK for rule in rules)
        assert len(rules) - masks <= 3 * len(ctx.rows)
        # Per row: register reset + task selection + its translation
        # entries; a preparation table shared in a group counts once.
        entries = 0
        shared = set()
        for row, config in zip(ctx.rows, configs):
            entries += 2 + config.translation(row.cmu.register_size).table_rules()
            processor = (row.group.group_id, config.p1, config.p1_processor)
            if processor not in shared:
                shared.add(processor)
                entries += config.p1_processor.runtime_entries()
        report = handle.install_report
        assert report.table_rules == entries
        assert report.hash_mask_rules == masks
        assert report.rules_installed == entries + masks
        assert report.latency_ms == RuntimeApi.model_latency(entries, masks)
        assert controller.runtime.total_rules == report.rules_installed


class TestUndo:
    def test_remove_restores_cmu_state(self):
        controller = FlyMonController(num_groups=1)
        handle = deploy(controller)
        cmus = [row.cmu for row in handle.rows]
        assert all(cmu.task_ids for cmu in cmus)
        controller.remove_task(handle)
        assert all(not cmu.task_ids for cmu in cmus)

    def test_register_zeroed_at_deploy(self):
        controller = FlyMonController(num_groups=1)
        handle = deploy(controller)
        # Dirty the register behind the controller's back, then redeploy
        # into the same range: the reset rule must zero it.
        cmu = handle.rows[0].cmu
        mem = handle.rows[0].mem
        controller.remove_task(handle)
        cmu.register.write(mem.base + 1, 77)
        fresh = deploy(controller)
        assert fresh.rows[0].read().sum() == 0
