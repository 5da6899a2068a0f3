"""Task compiler: a planned deployment -> southbound runtime rules (§3.4).

The compiler turns an algorithm's per-row configurations into the rule list
a real control plane would push through P4Runtime: hash-mask rules for newly
configured compression units, and per row a register zeroing of its memory
range, one task-selection rule and one rule standing for the row's
preparation-stage entries (address translation + parameter preprocessing).
That last rule carries its TCAM entry count (``RuntimeRule.entries``): the
runtime counts every entry -- the rule count that drives the
deployment-delay model (Table 3) -- without building one object per entry,
so at most three rules per row plus the mask rules are ever built.

Every stateful rule carries a **rollback** action so a failed or aborted
install can restore the data plane bit-identically: hash-mask rules restore
the unit's previous mask, register resets restore the exact cells they
zeroed, and task-selection rules remove the task again.  Rollback differs
from teardown (``undo``): removing a deployed task later must *not* revert
a shared hash unit's mask (a co-resident task may have reused it) nor
resurrect stale register cells, so only the selection rule is undo-logged.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.algorithms.base import PlanContext, RowSlot
from repro.core.cmu import Cmu, CmuTaskConfig
from repro.dataplane.hashing import DynamicHashUnit, HashMask
from repro.dataplane.runtime import (
    RULE_KIND_HASH_MASK,
    RULE_KIND_REGISTER_RESET,
    RULE_KIND_TABLE,
    RuntimeRule,
)


def compile_deployment(
    ctx: PlanContext, configs: Sequence[CmuTaskConfig]
) -> List[RuntimeRule]:
    """All runtime rules for one task deployment, in install order."""
    if len(configs) != len(ctx.rows):
        raise ValueError("one config per row expected")
    rules: List[RuntimeRule] = []
    rules.extend(_hash_mask_rules(ctx))
    shared_prep: set = set()
    for row, config in zip(ctx.rows, configs):
        rules.extend(_row_rules(row, config, shared_prep))
    return rules


def _hash_mask_rules(ctx: PlanContext) -> List[RuntimeRule]:
    """One hash-mask rule per newly configured compression unit (dedup'd:
    rows in the same group share grants)."""
    seen: set = set()
    rules: List[RuntimeRule] = []
    for row in ctx.rows:
        grants = [row.key_grant]
        if row.param_grant is not None:
            grants.append(row.param_grant)
        for grant in grants:
            for unit_index, mask in grant.new_masks:
                unit = row.group.hash_units[unit_index]
                dedup = (id(row.group), unit_index, mask)
                if dedup in seen:
                    continue
                seen.add(dedup)
                apply, rollback = _apply_mask(unit, mask)
                rules.append(
                    RuntimeRule(
                        kind=RULE_KIND_HASH_MASK,
                        target=f"cmug{row.group.group_id}/hash{unit_index}",
                        description=f"set mask {mask.describe()}",
                        apply=apply,
                        rollback=rollback,
                    )
                )
    return rules


def _apply_mask(unit: DynamicHashUnit, mask: HashMask):
    state: dict = {}

    def apply() -> None:
        state["previous"] = unit.mask
        unit.set_mask(mask)

    def rollback() -> None:
        previous = state.pop("previous", None)
        if previous is not None:
            unit.set_mask(previous)

    return apply, rollback


def _row_rules(
    row: RowSlot, config: CmuTaskConfig, shared_prep: set
) -> List[RuntimeRule]:
    cmu = row.cmu
    target = f"cmug{cmu.group_id}/cmu{cmu.index}"
    reset_apply, reset_rollback = _apply_reset(cmu, config)
    rules: List[RuntimeRule] = [
        RuntimeRule(
            kind=RULE_KIND_REGISTER_RESET,
            target=target,
            description=f"zero [{config.mem.base}, {config.mem.end})",
            apply=reset_apply,
            rollback=reset_rollback,
        ),
        # The initialization-stage rule: select task -> key, params, op.
        RuntimeRule(
            kind=RULE_KIND_TABLE,
            target=f"{target}/select_task",
            description=f"task {config.task_id}: {config.filter.describe()}",
            apply=_apply_install(cmu, config),
            undo=_apply_remove(cmu, config.task_id),
        ),
    ]
    # Preparation-stage entries: address translation + p1 preprocessing.
    # Functionally these are folded into the installed config, so the row's
    # entries are one rule carrying their count: every physical TCAM entry a
    # live deployment would install is still counted (rules_installed, the
    # latency model, rule_apply fault hits), none is built one by one.
    # Static (compile-time const) mappings cost no runtime rules -- see
    # ParamProcessor.
    prep_entries = config.translation(cmu.register_size).table_rules()
    # Rows in the same group with the same parameter source and mapping
    # share one preparation table (e.g. BeauCoup's coupon windows feed all
    # three CMUs), so its entries are installed once per group.
    processor_key = (cmu.group_id, config.p1, config.p1_processor)
    if processor_key not in shared_prep:
        shared_prep.add(processor_key)
        prep_entries += config.p1_processor.runtime_entries()
    if prep_entries:
        rules.append(
            RuntimeRule(
                kind=RULE_KIND_TABLE,
                target=f"{target}/preparation",
                description=f"task {config.task_id}: {prep_entries} prep entries",
                apply=_noop,
                entries=prep_entries,
            )
        )
    return rules


def _apply_reset(cmu: Cmu, config: CmuTaskConfig):
    state: dict = {}

    def apply() -> None:
        state["cells"] = cmu.register.read_range(config.mem.base, config.mem.length)
        cmu.register.reset_range(config.mem.base, config.mem.length)

    def rollback() -> None:
        cells = state.pop("cells", None)
        if cells is not None:
            cmu.register.write_range(config.mem.base, cells)

    return apply, rollback


def _apply_install(cmu: Cmu, config: CmuTaskConfig):
    def apply() -> None:
        cmu.install_task(config)

    return apply


def _apply_remove(cmu: Cmu, task_id: int):
    def undo() -> None:
        cmu.remove_task(task_id)

    return undo


def _noop() -> None:
    return None
