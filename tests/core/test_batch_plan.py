"""The compiled per-CMU plan: install-time translation caching, the plan's
lazy lifecycle, and the batched CMU datapath's equivalence with per-packet
execution whatever the number of resident tasks."""

from dataclasses import replace

import numpy as np
import pytest

import repro.core.cmu as cmu_mod
from repro import telemetry
from repro.core.cmu import Cmu, CmuTaskConfig
from repro.core.cmu_group import CmuGroup
from repro.core.compression import KeySelector
from repro.core.memory import MemRange
from repro.core.operations import OP_AND_OR, OP_COND_ADD, OP_MAX, OP_XOR
from repro.core.params import (
    BitSelectProcessor,
    CompressedKeyParam,
    ConstParam,
    FieldParam,
    IdentityProcessor,
    param_field,
    result_field,
)
from repro.core.task import TaskFilter
from repro.dataplane.hashing import HashMask
from repro.traffic.batch import PacketBatch
from repro.traffic.flows import KEY_SRC_IP

RNG = np.random.default_rng(11)


def make_config(task_id=1, mem=None, **kwargs):
    return CmuTaskConfig(
        task_id=task_id,
        filter=kwargs.pop("task_filter", TaskFilter.match_all()),
        key_selector=kwargs.pop("key_selector", KeySelector((0,), 0, 10)),
        p1=kwargs.pop("p1", ConstParam(1)),
        p2=kwargs.pop("p2", ConstParam((1 << 16) - 1)),
        p1_processor=kwargs.pop("p1_processor", IdentityProcessor()),
        mem=mem or MemRange(0, 1 << 10),
        op=kwargs.pop("op", OP_COND_ADD),
        **kwargs,
    )


class TestTranslationCaching:
    def test_install_resolves_translation_once(self, monkeypatch):
        calls = {"n": 0}
        real = cmu_mod.make_translation

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cmu_mod, "make_translation", counting)
        cmu = Cmu(0, 0, register_size=1 << 10)
        cmu.install_task(make_config())
        assert calls["n"] == 1
        # The scalar datapath and index_for must reuse the cached object
        # instead of rebuilding the translation per packet.
        for src_ip in range(200):
            cmu.process({"src_ip": src_ip}, [src_ip, 0, 0])
            cmu.index_for(1, [src_ip, 0, 0])
        assert calls["n"] == 1

    def test_config_translation_returns_cached_object(self):
        cmu = Cmu(0, 0, register_size=1 << 10)
        cmu.install_task(make_config())
        config = cmu.config(1)
        assert config.cached_translation is not None
        assert config.translation(1 << 10) is config.cached_translation

    def test_cache_ignored_for_foreign_register_size(self):
        cmu = Cmu(0, 0, register_size=1 << 10)
        cmu.install_task(make_config())
        config = cmu.config(1)
        other = config.translation(1 << 12)
        assert other is not config.cached_translation
        assert other.register_size == 1 << 12


class TestPlanLifecycle:
    def test_install_compiles_a_plan(self):
        """...lazily: the first reader after the install compiles it, from
        the installed rule, with the translation flattened to arrays."""
        cmu = Cmu(0, 0, register_size=1 << 10)
        cmu.install_task(make_config(mem=MemRange(256, 256), sample_prob=0.5))
        assert cmu._plan is None and cmu.task_table._classifier is None
        task = cmu.task_plans()[1]
        plan = cmu._plan
        assert plan.slots == (task,) and plan.sampled == (task,)
        assert (task.slot, task.alarm_armed, plan.armed) == (0, False, ())
        assert plan.whole_slot == 0  # the only rule is a wildcard
        address = np.arange(1 << 10)
        translation = cmu.config(1).cached_translation
        base, shift, mask, alarm_at = plan.per_slot[:, 0]
        np.testing.assert_array_equal(
            base + ((address >> shift) & mask),
            [translation.translate(int(a)) for a in address],
        )
        assert alarm_at == np.iinfo(np.int64).max

    @pytest.mark.parametrize("strategy", ["tcam", "shift"])
    def test_flattened_translation_matches_both_strategies(self, strategy):
        cmu = Cmu(0, 0, register_size=1 << 12)
        cmu.install_task(make_config(mem=MemRange(512, 128), strategy=strategy))
        address = RNG.integers(0, 1 << 32, size=500)
        base, shift, mask, _ = cmu._current_plan().per_slot[:, 0]
        translation = cmu.config(1).cached_translation
        np.testing.assert_array_equal(
            base + ((address >> shift) & mask),
            [translation.translate(int(a)) for a in address],
        )

    def test_alarm_armed_needs_threshold_and_key(self):
        cmu = Cmu(0, 0, register_size=1 << 10)
        cmu.install_task(
            make_config(alarm_threshold=10, digest_key=KEY_SRC_IP)
        )
        cmu.install_task(
            make_config(
                task_id=2,
                alarm_threshold=10,
                mem=MemRange(0, 1 << 9),
                task_filter=TaskFilter.of(src_ip=(0, 1)),
                priority=5,
                sample_prob=0.5,
            )
        )
        plans = cmu.task_plans()
        assert plans[1].alarm_armed and not plans[2].alarm_armed
        assert cmu._plan.armed == (plans[1],)

    def test_filter_update_recompiles(self):
        cmu = Cmu(0, 0, register_size=1 << 10)
        cmu.install_task(make_config())
        old_plan = cmu._current_plan()
        assert cmu._current_plan() is old_plan  # no rule change: cached
        new_filter = TaskFilter.of(src_ip=(0x0A000000, 8))
        cmu.update_task_filter(1, new_filter)
        assert cmu._current_plan() is not old_plan
        assert cmu.task_plans()[1].config.filter == new_filter
        assert cmu._plan.whole_slot is None

    def test_remove_drops_the_plan(self):
        cmu = Cmu(0, 0, register_size=1 << 10)
        cmu.install_task(make_config())
        cmu.task_plans()
        cmu.remove_task(1)
        assert cmu.task_plans() == {}

    def test_mutations_compile_nothing(self):
        """install / filter update / remove only drop the table's compiled
        rules (which makes the plan stale); nothing is built until a batch
        or a ``task_plans()`` reader asks."""
        cmu = Cmu(0, 0, register_size=1 << 10)
        cmu.install_task(make_config(task_filter=TaskFilter.of(src_ip=(0, 1))))
        for mutate in (
            lambda: cmu.install_task(
                make_config(
                    task_id=2,
                    mem=MemRange(0, 1 << 9),
                    task_filter=TaskFilter.of(src_ip=(1 << 31, 1)),
                )
            ),
            lambda: cmu.update_task_filter(2, TaskFilter.of(src_ip=(3 << 30, 2))),
            lambda: cmu.remove_task(2),
        ):
            compiled = cmu._current_plan()
            mutate()
            assert cmu.task_table._classifier is None
            assert cmu._plan is compiled  # stale, not rebuilt
            assert cmu._current_plan() is not compiled

    def test_slots_group_by_operation_then_selectors(self):
        cmu = Cmu(0, 0, register_size=1 << 10)
        for task_id, op, width in ((1, OP_MAX, 7), (2, OP_COND_ADD, 7), (3, OP_MAX, 6), (4, OP_MAX, 7)):
            cmu.install_task(
                make_config(
                    task_id=task_id,
                    op=op,
                    key_selector=KeySelector((0,), 0, width),
                    mem=MemRange(128 * task_id, 128),
                    task_filter=TaskFilter.of(src_ip=(task_id << 29, 3)),
                )
            )
        plan = cmu._current_plan()
        assert list(cmu.task_plans()) == [1, 2, 3, 4]  # install order
        assert [tp.config.task_id for tp in plan.slots] == [2, 1, 4, 3]
        assert plan.ops == ((OP_COND_ADD, 0, 1), (OP_MAX, 1, 4))
        assert [(lo, hi) for lo, hi, _ in plan.runs] == [(0, 1), (1, 3), (3, 4)]


# -- one CMU, many tenants -------------------------------------------------

_OPS = (OP_COND_ADD, OP_MAX, OP_AND_OR, OP_XOR)
_SELECTORS = {
    OP_COND_ADD: dict(p1=ConstParam(1), p2=ConstParam((1 << 16) - 1)),
    OP_MAX: dict(p1=FieldParam("pkt_bytes"), p2=ConstParam(0)),
    OP_AND_OR: dict(
        p1=CompressedKeyParam(KeySelector((1,), 0, 16)),
        p1_processor=BitSelectProcessor(16),
        p2=ConstParam(1),
    ),
    OP_XOR: dict(p1=FieldParam("dst_port"), p2=ConstParam(0)),
}
_REGISTER = 1 << 13
_SPARE = 1 << 12  # tenants fill the lower half; the extras sit above


def _tenant(index: int, tenants: int, **extra) -> CmuTaskConfig:
    """Tenant ``index`` of ``tenants``: its own source prefix and partition,
    operations cycling through the whole set, strategies alternating."""
    bits = max(1, (tenants - 1).bit_length())
    op = _OPS[index % len(_OPS)]
    return make_config(
        task_id=100 + index,
        op=op,
        task_filter=TaskFilter.of(src_ip=(index << (32 - bits), bits)),
        key_selector=KeySelector((0, 2) if index % 3 == 0 else (0,), index % 5, 12),
        mem=MemRange(index * 128, 128),
        strategy="shift" if index % 2 else "tcam",
        priority=10,
        **{**_SELECTORS[op], **extra},
    )


def _tenant_cmu(tenants: int) -> Cmu:
    cmu = Cmu(0, 0, register_size=_REGISTER)
    for index in range(tenants):
        cmu.install_task(_tenant(index, tenants))
    # A sampled task above tenant 0's filter (its sampled-out packets must
    # not fall through to tenant 0), a sampled catch-all below everything,
    # and an alarm-armed Cond-ADD sharing tenant 1's block by port.
    cmu.install_task(
        make_config(
            task_id=50,
            task_filter=TaskFilter.of(src_ip=(0, 8)),
            mem=MemRange(_SPARE, 256),
            priority=20,
            sample_prob=0.4,
        )
    )
    cmu.install_task(
        make_config(task_id=51, mem=MemRange(_SPARE + 256, 256), priority=0, sample_prob=0.6)
    )
    cmu.install_task(
        make_config(
            task_id=52,
            task_filter=TaskFilter.of(dst_port=(443, 16)),
            mem=MemRange(_SPARE + 512, 64),
            key_selector=KeySelector((0,), 0, 6),
            priority=30,
            sample_prob=0.999,  # sampled so it may overlap; keeps ~all packets
            alarm_threshold=4,
            digest_key=KEY_SRC_IP,
        )
    )
    return cmu


def _tenant_batch(n: int = 1500):
    flows = RNG.integers(0, 1 << 32, size=120)
    src = RNG.choice(flows, size=n)
    src[::7] &= 0x00FFFFFF  # a share under the sampled /8
    columns = {
        "src_ip": src,
        "dst_port": RNG.choice([80, 443, 8080], size=n),
        "pkt_bytes": RNG.integers(64, 1500, size=n),
        "timestamp": np.arange(n),
    }
    compressed = [RNG.integers(0, 1 << 32, size=n) for _ in range(3)]
    return columns, compressed


def _run_both(scalar: Cmu, batched: Cmu, n: int = 1500) -> None:
    """One batch through ``batched`` and its packets one by one through
    ``scalar``; registers, digests and PHV exports must agree."""
    columns, compressed = _tenant_batch(n)
    batch = PacketBatch(columns)
    batched.process_batch(batch, compressed)
    exported = {result_field(0, 0): [], param_field(0, 0): []}
    for i in range(n):
        fields = {name: int(col[i]) for name, col in columns.items()}
        scalar.process(fields, [int(c[i]) for c in compressed])
        for name, values in exported.items():
            values.append(fields.get(name, 0))
    np.testing.assert_array_equal(
        scalar.register.read_range(0, _REGISTER), batched.register.read_range(0, _REGISTER)
    )
    for task_id in scalar.task_ids:
        assert scalar.peek_digests(task_id) == batched.peek_digests(task_id)
    for name, values in exported.items():
        np.testing.assert_array_equal(batch.get(name), values, err_msg=name)


class TestManyTenantsOnOneCmu:
    @pytest.mark.parametrize("tenants", [1, 8, 32])
    def test_batch_equals_scalar_across_reconfiguration(self, tenants):
        scalar, batched = _tenant_cmu(tenants), _tenant_cmu(tenants)
        _run_both(scalar, batched)
        assert scalar.peek_digests(52)  # the armed task did report
        cycle = make_config(
            task_id=60,
            op=OP_MAX,
            p1=FieldParam("pkt_bytes"),
            task_filter=TaskFilter.of(dst_port=(8080, 16)),
            mem=MemRange(_SPARE + 1024, 128),
            priority=40,
            sample_prob=0.999,
        )
        steps = (
            lambda cmu: cmu.install_task(cycle),  # add
            lambda cmu: (  # resize: the same task on a larger partition
                cmu.remove_task(60),
                cmu.install_task(replace(cycle, mem=MemRange(_SPARE + 2048, 512))),
            ),
            lambda cmu: cmu.update_task_filter(60, TaskFilter.of(dst_port=(80, 16))),
            lambda cmu: cmu.remove_task(60),
        )
        for step in steps:
            step(scalar)
            step(batched)
            _run_both(scalar, batched, n=600)

    @pytest.mark.parametrize("tenants", [1, 8, 32])
    def test_one_register_access_per_packet_one_call_per_operation(
        self, tenants, monkeypatch
    ):
        """The hardware's budget: a packet touches the CMU's register at most
        once, and the batch costs one ``execute_batch`` per operation present
        -- not per task."""
        cmu = _tenant_cmu(tenants)
        calls = []
        real = cmu.register.execute_batch

        def counting(op, index, p1, p2):
            calls.append((op, len(index)))
            return real(op, index, p1, p2)

        monkeypatch.setattr(cmu.register, "execute_batch", counting)
        columns, compressed = _tenant_batch(2000)
        cmu.process_batch(PacketBatch(columns), compressed)
        ops = [op for op, _ in calls]
        present = {_OPS[i % len(_OPS)] for i in range(tenants)} | {OP_COND_ADD}
        assert sorted(ops) == sorted(present)
        assert sum(rows for _, rows in calls) <= 2000

    def test_single_wildcard_rule_skips_classification(self, monkeypatch):
        """One unfiltered task (the common deployment): every row is the
        task's, in arrival order, so the table is not even consulted."""
        scalar, batched = Cmu(0, 0, register_size=_REGISTER), Cmu(0, 0, register_size=_REGISTER)
        for cmu in (scalar, batched):
            cmu.install_task(make_config(alarm_threshold=3, digest_key=KEY_SRC_IP))
        monkeypatch.setattr(
            batched.task_table, "classify_batch", lambda *a, **k: pytest.fail("classified")
        )
        _run_both(scalar, batched)

    def test_rules_changed_behind_the_cmu_are_honoured(self):
        """The plan follows the *table*: a rule removed or shadowed directly
        there (no Cmu method involved) changes the next batch."""
        scalar, batched = _tenant_cmu(8), _tenant_cmu(8)
        _run_both(scalar, batched, n=400)
        for cmu in (scalar, batched):
            cmu.task_table.remove_where(lambda e: dict(e.args)["task_id"] == 103)
        _run_both(scalar, batched, n=400)
        for cmu in (scalar, batched):
            cmu.task_table.clear()
            cmu.task_table.set_default("set_task", {"task_id": 104})
        _run_both(scalar, batched, n=400)


def _configured_group() -> CmuGroup:
    group = CmuGroup(0, register_size=1 << 10)
    grant = group.keys.acquire({"src_ip": 32})
    for unit, mask in grant.new_masks:
        group.hash_units[unit].set_mask(mask)
    group.cmus[0].install_task(
        make_config(
            key_selector=grant.selector.with_slice(0, 10),
            alarm_threshold=5,
            digest_key=KEY_SRC_IP,
        )
    )
    group.cmus[1].install_task(
        make_config(
            task_id=2,
            key_selector=grant.selector.with_slice(0, 10),
            sample_prob=0.5,
        )
    )
    return group


def _workload(n: int = 3000) -> PacketBatch:
    # Full-range values: hash masks keep the most-significant bits, so
    # low-range synthetic traffic would collapse into one bucket.
    flows = RNG.integers(0, 1 << 32, size=64)
    return PacketBatch(
        {
            "src_ip": RNG.choice(flows, size=n),
            "timestamp": np.arange(n),
        }
    )


class TestGroupBatchEquivalence:
    def test_process_batch_matches_per_packet(self):
        scalar_group = _configured_group()
        batch_group = _configured_group()
        batch = _workload()

        dicts = batch.to_fields_dicts()
        for fields in dicts:
            scalar_group.process(fields)
        batch_group.process_batch(batch)

        for cmu_s, cmu_b in zip(scalar_group.cmus, batch_group.cmus):
            np.testing.assert_array_equal(
                cmu_s.register.read_range(0, cmu_s.register_size),
                cmu_b.register.read_range(0, cmu_b.register_size),
            )
        assert scalar_group.cmus[0].peek_digests(1) == batch_group.cmus[0].peek_digests(1)
        # PHV exports written by the batch must match the scalar dicts.
        name = result_field(0, 0)
        np.testing.assert_array_equal(
            batch.get(name),
            np.array([fields.get(name, 0) for fields in dicts]),
        )


class TestBatchTelemetryCounters:
    def test_counters_advance_by_batch_length(self):
        telemetry.reset()
        telemetry.enable()
        try:
            group = _configured_group()
            batch = _workload(500)
            group.process_batch(batch)
            registry = telemetry.TELEMETRY.registry
            assert registry.value(
                "flymon_group_packets_total", group="0"
            ) == 500
            # Register accesses count matched rows (task 2 samples at 0.5,
            # so its CMU sees fewer than all packets but more than none).
            full = registry.value(
                "flymon_register_accesses_total", group="0", cmu="0"
            )
            sampled = registry.value(
                "flymon_register_accesses_total", group="0", cmu="1"
            )
            assert full == 500
            assert 0 < sampled < 500
        finally:
            telemetry.disable()
