"""FlyMon's control plane (§3.4).

:class:`FlyMonController` owns the deployed CMU Groups, compiles measurement
tasks into runtime rules, manages compressed keys and register memory, and
answers queries by reading data-plane state back through each task's
algorithm instance.

Placement strategy (§3.4): tasks are placed greedily, preferring group
windows that already have the needed compressed keys configured, then the
lowest-numbered window with enough free CMUs and memory.  Multi-group
algorithms (SuMax(Sum), Counter Braids, max inter-arrival) get windows of
pipeline-consecutive groups so their PHV result chaining follows stage
order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.algorithms import ALGORITHM_REGISTRY, default_algorithm_for
from repro.core.algorithms.base import CmuAlgorithm, PlanContext, RowBinding, RowSlot
from repro.core.cmu import Cmu
from repro.core.cmu_group import CmuGroup
from repro.core.compiler import compile_deployment
from repro.core.compression import KeyExhaustedError, KeyGrant
from repro.core.memory import (
    BuddyAllocator,
    MODE_ACCURATE,
    MemRange,
    OutOfMemoryError,
    round_memory,
)
from repro.core.placement import apply_placements, max_groups, plan_cross_stacking
from repro.core.task import (
    Attribute,
    MeasurementTask,
    next_task_id,
    reserve_task_id,
    task_from_dict,
    task_to_dict,
)
from repro.core.txn import ReconfigTransaction, in_transaction
from repro.dataplane.pipeline import Pipeline
from repro.dataplane.runtime import InstallReport, RuntimeApi
from repro.telemetry import (
    EV_CHECKPOINT,
    EV_KEY_GRANT,
    EV_KEY_RELEASE,
    EV_PLACEMENT_DECISION,
    EV_RESTORE,
    EV_TASK_ADD,
    EV_TASK_FILTER_UPDATE,
    EV_TASK_REMOVE,
    EV_TASK_RESIZE,
    EV_TASK_SPLIT,
    RECORDER as _RECORDER,
    TELEMETRY as _TELEMETRY,
    update_resource_gauges,
)
from repro.traffic.flows import FlowKeyDef
from repro.traffic.trace import Trace


def _pin_copy(pin: Dict[str, object]) -> Dict[str, object]:
    """A detached JSON-safe copy of a placement pin (history records must
    not alias caller-owned structures)."""
    import copy

    return copy.deepcopy(pin)


class PlacementError(RuntimeError):
    """No group window can host the task (keys, CMUs, or memory exhausted).

    When raised from :meth:`FlyMonController.resize_task`'s fallback path,
    ``restored_handle`` is the original task's handle, valid again because
    the transaction rollback re-installed the original deployment.
    """

    restored_handle: Optional["TaskHandle"] = None


@dataclass
class TaskHandle:
    """A deployed task: its algorithm instance answers queries."""

    task_id: int
    task: MeasurementTask
    algorithm: CmuAlgorithm
    algorithm_name: str
    rows: List[RowBinding]
    install_report: InstallReport
    groups_used: Tuple[int, ...]
    _grants: List[Tuple[CmuGroup, KeyGrant]] = field(default_factory=list, repr=False)
    _mem: List[Tuple[Cmu, MemRange]] = field(default_factory=list, repr=False)

    @property
    def deployment_ms(self) -> float:
        return self.install_report.latency_ms

    @property
    def rules_installed(self) -> int:
        return self.install_report.rules_installed

    def read_rows(self):
        return self.algorithm.read_rows()

    def reset(self) -> None:
        self.algorithm.reset()


@dataclass
class SplitTaskHandle:
    """A task deployed as disjoint half-space subtasks (§3.1.1).

    Per-flow queries route to the subtask whose filter owns the flow; set
    queries union the subtasks' reports.
    """

    task: MeasurementTask
    subtasks: Tuple[TaskHandle, ...]

    def _owner(self, fields: Dict[str, int]) -> TaskHandle:
        for sub in self.subtasks:
            if sub.task.filter.matches(fields):
                return sub
        raise KeyError("flow matches no subtask filter")

    def query(self, flow: Tuple[int, ...]) -> float:
        from repro.core.algorithms.base import fields_from_flow

        fields = fields_from_flow(self.task.key, flow)
        return self._owner(fields).algorithm.query(flow)

    def heavy_hitters(self, candidates, threshold: int) -> set:
        return {flow for flow in candidates if self.query(flow) >= threshold}

    def reset(self) -> None:
        for sub in self.subtasks:
            sub.reset()


@dataclass(frozen=True)
class IntegrityReport:
    """Outcome of :meth:`FlyMonController.verify_integrity`."""

    checks: int
    problems: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        if self.ok:
            return f"integrity OK ({self.checks} checks)"
        lines = [f"integrity FAILED ({len(self.problems)} problem(s)):"]
        lines.extend(f"  - {p}" for p in self.problems)
        return "\n".join(lines)


class FlyMonController:
    """Task and resource management over a set of CMU Groups."""

    def __init__(
        self,
        num_groups: int = 9,
        num_cmus: int = 3,
        compression_units: int = 3,
        register_size: int = 1 << 16,
        bucket_bits: int = 32,
        strategy: str = "tcam",
        memory_mode: str = MODE_ACCURATE,
        num_stages: int = 12,
        place_on_pipeline: bool = True,
        preconfigure_keys: Sequence[FlowKeyDef] = (),
        seed_base: int = 0xC0DE,
    ) -> None:
        #: JSON-safe constructor arguments, replayed by checkpoints.
        self._init_params: Dict[str, object] = {
            "num_groups": num_groups,
            "num_cmus": num_cmus,
            "compression_units": compression_units,
            "register_size": register_size,
            "bucket_bits": bucket_bits,
            "strategy": strategy,
            "memory_mode": memory_mode,
            "num_stages": num_stages,
            "place_on_pipeline": place_on_pipeline,
            "preconfigure_keys": [
                [list(part) for part in key.parts] for key in preconfigure_keys
            ],
            "seed_base": seed_base,
        }
        limit = max_groups(num_stages)
        if num_groups > limit:
            raise ValueError(
                f"{num_groups} groups exceed the {num_stages}-stage pipeline "
                f"budget of {limit}"
            )
        self.groups = [
            CmuGroup(
                g,
                num_cmus=num_cmus,
                compression_units=compression_units,
                register_size=register_size,
                bucket_bits=bucket_bits,
                seed_base=seed_base,
            )
            for g in range(num_groups)
        ]
        self.strategy = strategy
        self.memory_mode = memory_mode
        self.runtime = RuntimeApi()
        self.pipeline: Optional[Pipeline] = None
        if place_on_pipeline:
            self.pipeline = Pipeline(num_stages=num_stages)
            apply_placements(
                self.pipeline, self.groups, plan_cross_stacking(num_stages, num_groups)
            )
        self._allocators: Dict[Tuple[int, int], BuddyAllocator] = {
            (group.group_id, cmu.index): BuddyAllocator(
                cmu.register_size,
                owner=f"cmug{group.group_id}/cmu{cmu.index}",
            )
            for group in self.groups
            for cmu in group.cmus
        }
        self._handles: Dict[int, TaskHandle] = {}
        # Persistent shard worker pool, lazily created by the first sharded
        # run with workers > 1; it re-syncs its resident replicas, by delta,
        # before every run.
        self._shard_pool = None
        # Committed reconfiguration history (add/remove/filter updates, in
        # execution order).  Replaying it on a fresh controller reproduces
        # the exact placement -- groups, CMUs, memory bases -- of the live
        # one, which a final-tasks-only replay cannot guarantee after
        # removes/resizes left allocator holes.  Only committed operations
        # are recorded (rolled-back transactions never appear); operations
        # run inside a caller-owned transaction the controller cannot see
        # committing mark the history incomplete instead.
        self._history: List[Dict[str, object]] = []
        self._history_complete = True
        # Observers of committed operations (e.g. a service WAL appending
        # delta records); called with the same JSON-safe dict that lands in
        # the history, after it is recorded.
        self._op_listeners: List = []
        # Pre-configured compressed keys (§5's setting): masks are installed
        # at startup and held, so task deployments that use these keys never
        # pay a hash-mask rule at runtime.
        self._preconfigured: List[Tuple[CmuGroup, KeyGrant]] = []
        for group in self.groups:
            for key in preconfigure_keys:
                grant = group.keys.acquire(key.mask_spec())
                for unit_index, mask in grant.new_masks:
                    group.hash_units[unit_index].set_mask(mask)
                self._preconfigured.append((group, grant))

    # ------------------------------------------------------------------
    # Task management interfaces
    # ------------------------------------------------------------------

    def add_task(
        self,
        task: MeasurementTask,
        transaction: Optional[ReconfigTransaction] = None,
        _record: bool = True,
    ) -> TaskHandle:
        """Deploy a measurement task; returns a queryable handle.

        Raises :class:`PlacementError` if no window of groups can provide
        the compressed keys, conflict-free CMUs, and memory the task needs.
        Runs transactionally: a failure at any point (key grant, memory
        claim, rule install) rolls every prior step back, leaving key pools,
        allocators, and the runtime rule table bit-identical to the pre-call
        state.  Pass ``transaction`` to record into an enclosing compound
        operation's undo log instead of resolving locally.
        """
        txn, owned = in_transaction("add_task", transaction)
        try:
            with _RECORDER.span("ctl.add_task", cat="control"):
                handle = self._add_task_txn(task, txn)
        except BaseException as exc:
            if owned:
                txn.rollback(cause=exc)
            raise
        if owned:
            txn.commit()
            if _record:
                self._record_op("add", ref=handle.task_id, task=task_to_dict(task))
        elif _record:
            self._history_complete = False
        return handle

    def _add_task_txn(
        self, task: MeasurementTask, txn: ReconfigTransaction
    ) -> TaskHandle:
        algorithm_name = default_algorithm_for(task)
        algorithm = ALGORITHM_REGISTRY[algorithm_name](task)
        task_id = next_task_id()

        layout = algorithm.rows_layout()
        base_memory = round_memory(task.memory, self.memory_mode)
        row_memory = [
            round_memory(m, self.memory_mode)
            for m in algorithm.row_memory(base_memory)
        ]

        window, cmus, score, error = self._find_window(task, layout, row_memory)
        if window is None:
            raise PlacementError(error or "no feasible placement")
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_PLACEMENT_DECISION,
                task_id=task_id,
                algorithm=algorithm_name,
                groups=[g.group_id for g in window],
                key_reuse_score=score,
                rows=len(row_memory),
            )

        self._snapshot_control_stores(txn, window)
        rows, grants = self._claim_window(
            task, algorithm, row_memory, window, cmus, task_id=task_id
        )
        ctx = PlanContext(
            task=task,
            task_id=task_id,
            rows=rows,
            strategy=self.strategy,
            priority=task_id,
        )
        configs = algorithm.build_configs(ctx)
        rules = compile_deployment(ctx, configs)
        report = self.runtime.install(
            rules, deployment=f"task{task_id}", transaction=txn
        )

        bindings = [RowBinding(row.group, row.cmu, task_id) for row in rows]
        algorithm.bind(bindings)
        handle = TaskHandle(
            task_id=task_id,
            task=task,
            algorithm=algorithm,
            algorithm_name=algorithm_name,
            rows=bindings,
            install_report=report,
            groups_used=tuple(g.group_id for g in window),
            _grants=grants,
            _mem=[(row.cmu, row.mem) for row in rows],
        )
        self._handles[task_id] = handle
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_TASK_ADD,
                task_id=task_id,
                algorithm=algorithm_name,
                memory=base_memory,
                groups=list(handle.groups_used),
                rules=report.rules_installed,
                latency_ms=report.latency_ms,
            )
            _TELEMETRY.registry.counter("flymon_task_adds_total").inc()
            _TELEMETRY.registry.gauge("flymon_tasks_active").set(len(self._handles))
        return handle

    # ------------------------------------------------------------------
    # Pinned placement (fabric federation)
    # ------------------------------------------------------------------
    #
    # Hash-unit seeds depend on (group_id, unit index), TCAM priorities on
    # the task id, and sampling on both -- so two controllers produce
    # bit-identical registers for the same traffic only when a task lands at
    # *identical* coordinates on both.  ``export_placement`` serializes a
    # deployed task's coordinates; ``add_task_pinned`` reproduces them on
    # another controller exactly (or fails cleanly).

    def export_placement(self, handle: TaskHandle) -> Dict[str, object]:
        """JSON-safe placement coordinates of a deployed task.

        The returned pin -- task id, per-group key/param units with their
        hash masks, and per-row (cmu, base, length) claims -- is everything
        :meth:`add_task_pinned` needs to install the same task at the same
        coordinates on a different controller.
        """
        needs_param = handle.algorithm.needs_param_key()
        grants_by_group: Dict[int, List[KeyGrant]] = {}
        group_order: List[int] = []
        for group, grant in handle._grants:
            gid = group.group_id
            if gid not in grants_by_group:
                grants_by_group[gid] = []
                group_order.append(gid)
            grants_by_group[gid].append(grant)
        rows_by_group: Dict[int, List[Dict[str, int]]] = {
            gid: [] for gid in group_order
        }
        for binding, (cmu, mem) in zip(handle.rows, handle._mem):
            rows_by_group[binding.group.group_id].append(
                {"cmu": cmu.index, "base": mem.base, "length": mem.length}
            )
        groups = []
        for gid in group_order:
            committed = self.groups[gid].keys.committed_masks()
            key_grant = grants_by_group[gid][0]
            spec: Dict[str, object] = {
                "group_id": gid,
                "key_units": list(key_grant.selector.units),
                "key_masks": [
                    [unit, dict(committed[unit].as_dict())]
                    for unit in key_grant.selector.units
                ],
                "rows": rows_by_group[gid],
            }
            if needs_param:
                param_grant = grants_by_group[gid][1]
                spec["param_units"] = list(param_grant.selector.units)
                spec["param_masks"] = [
                    [unit, dict(committed[unit].as_dict())]
                    for unit in param_grant.selector.units
                ]
            groups.append(spec)
        return {"task_id": handle.task_id, "groups": groups}

    def add_task_pinned(
        self,
        task: MeasurementTask,
        pin: Dict[str, object],
        transaction: Optional[ReconfigTransaction] = None,
        _record: bool = True,
    ) -> TaskHandle:
        """Deploy ``task`` at the exact coordinates recorded in ``pin``.

        Transactional like :meth:`add_task`; raises :class:`PlacementError`
        if any pinned coordinate (group, hash unit, CMU, memory range) is
        occupied incompatibly.  The pinned task id is reserved against the
        process-wide counter so later plain adds cannot collide with it.
        """
        txn, owned = in_transaction("add_task_pinned", transaction)
        try:
            with _RECORDER.span("ctl.add_task_pinned", cat="control"):
                handle = self._add_task_pinned_txn(task, pin, txn)
        except BaseException as exc:
            if owned:
                txn.rollback(cause=exc)
            raise
        if owned:
            txn.commit()
            if _record:
                self._record_op(
                    "add_pinned",
                    ref=handle.task_id,
                    task=task_to_dict(task),
                    pin=_pin_copy(pin),
                )
        elif _record:
            self._history_complete = False
        return handle

    def _add_task_pinned_txn(
        self, task: MeasurementTask, pin: Dict[str, object], txn: ReconfigTransaction
    ) -> TaskHandle:
        algorithm_name = default_algorithm_for(task)
        algorithm = ALGORITHM_REGISTRY[algorithm_name](task)
        task_id = int(pin["task_id"])
        if task_id in self._handles:
            raise PlacementError(f"pinned task id {task_id} is already deployed")
        reserve_task_id(task_id)

        layout = algorithm.rows_layout()
        group_specs = list(pin["groups"])
        if len(group_specs) != len(layout):
            raise PlacementError(
                f"pin spans {len(group_specs)} group(s); "
                f"{algorithm_name} needs {len(layout)}"
            )

        rows: List[RowSlot] = []
        grants: List[Tuple[CmuGroup, KeyGrant]] = []
        try:
            gids = [int(gspec["group_id"]) for gspec in group_specs]
            self._snapshot_control_stores(
                txn, [self.groups[gid] for gid in gids if 0 <= gid < len(self.groups)]
            )
            for gspec, gid, rows_here in zip(group_specs, gids, layout):
                if not 0 <= gid < len(self.groups):
                    raise PlacementError(f"pinned group {gid} does not exist")
                group = self.groups[gid]
                row_specs = list(gspec["rows"])
                if len(row_specs) != rows_here:
                    raise PlacementError(
                        f"group {gid}: pin carries {len(row_specs)} row(s), "
                        f"layout needs {rows_here}"
                    )
                key_grant = group.keys.acquire_pinned(
                    [int(u) for u in gspec["key_units"]],
                    {int(unit): mask for unit, mask in gspec["key_masks"]},
                )
                grants.append((group, key_grant))
                self._emit_key_grant(task_id, group, key_grant, role="key")
                param_grant = None
                if algorithm.needs_param_key():
                    param_grant = group.keys.acquire_pinned(
                        [int(u) for u in gspec["param_units"]],
                        {int(unit): mask for unit, mask in gspec["param_masks"]},
                    )
                    grants.append((group, param_grant))
                    self._emit_key_grant(task_id, group, param_grant, role="param")
                for rspec in row_specs:
                    cmu_index = int(rspec["cmu"])
                    if not 0 <= cmu_index < len(group.cmus):
                        raise PlacementError(
                            f"group {gid}: pinned CMU {cmu_index} does not exist"
                        )
                    cmu = group.cmus[cmu_index]
                    if cmu.has_conflict(task.filter) and task.sample_prob >= 1.0:
                        raise PlacementError(
                            f"cmug{gid}/cmu{cmu_index}: pinned filter "
                            "conflicts with a resident task"
                        )
                    allocator = self._allocators[(gid, cmu_index)]
                    mem = allocator.allocate_exact(
                        int(rspec["base"]), int(rspec["length"])
                    )
                    rows.append(
                        RowSlot(
                            group=group,
                            cmu=cmu,
                            mem=mem,
                            key_grant=key_grant,
                            param_grant=param_grant,
                        )
                    )
        except (KeyExhaustedError, OutOfMemoryError, ValueError) as exc:
            raise PlacementError(str(exc)) from exc

        ctx = PlanContext(
            task=task,
            task_id=task_id,
            rows=rows,
            strategy=self.strategy,
            priority=task_id,
        )
        configs = algorithm.build_configs(ctx)
        rules = compile_deployment(ctx, configs)
        report = self.runtime.install(
            rules, deployment=f"task{task_id}", transaction=txn
        )

        bindings = [RowBinding(row.group, row.cmu, task_id) for row in rows]
        algorithm.bind(bindings)
        handle = TaskHandle(
            task_id=task_id,
            task=task,
            algorithm=algorithm,
            algorithm_name=algorithm_name,
            rows=bindings,
            install_report=report,
            groups_used=tuple(gids),
            _grants=grants,
            _mem=[(row.cmu, row.mem) for row in rows],
        )
        self._handles[task_id] = handle
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_TASK_ADD,
                task_id=task_id,
                algorithm=algorithm_name,
                memory=task.memory,
                groups=list(handle.groups_used),
                rules=report.rules_installed,
                latency_ms=report.latency_ms,
                pinned=True,
            )
            _TELEMETRY.registry.counter("flymon_task_adds_total").inc()
            _TELEMETRY.registry.gauge("flymon_tasks_active").set(len(self._handles))
        return handle

    def remove_task(
        self,
        handle: TaskHandle,
        transaction: Optional[ReconfigTransaction] = None,
        _record: bool = True,
    ) -> InstallReport:
        """Tear a task down and recycle its keys and memory.

        Transactional: a failure mid-teardown (or a rollback of the
        enclosing ``transaction``) re-installs the deployment and restores
        the key grants and memory claims, so the task is either fully
        deployed or fully recycled -- never half-removed.
        """
        txn, owned = in_transaction("remove_task", transaction)
        try:
            with _RECORDER.span(
                "ctl.remove_task", cat="control", task_id=handle.task_id
            ):
                report = self._remove_task_txn(handle, txn)
        except BaseException as exc:
            if owned:
                txn.rollback(cause=exc)
            raise
        if owned:
            txn.commit()
            if _record:
                self._record_op("remove", ref=handle.task_id)
        elif _record:
            self._history_complete = False
        return report

    def _record_op(self, op: str, **payload) -> None:
        entry = {"op": op, **payload}
        self._history.append(entry)
        for listener in self._op_listeners:
            listener(dict(entry))

    def add_op_listener(self, listener) -> None:
        """Call ``listener(entry)`` after every committed operation is
        recorded in the history.  ``entry`` is a fresh JSON-safe dict (the
        same shape :meth:`checkpoint` persists)."""
        self._op_listeners.append(listener)

    def remove_op_listener(self, listener) -> None:
        self._op_listeners.remove(listener)

    def _remove_task_txn(
        self, handle: TaskHandle, txn: ReconfigTransaction
    ) -> InstallReport:
        if handle.task_id not in self._handles:
            raise KeyError(f"task {handle.task_id} is not deployed")
        self._snapshot_control_stores(
            txn, dict.fromkeys(group for group, _grant in handle._grants)
        )
        report = self.runtime.remove_deployment(
            f"task{handle.task_id}", transaction=txn
        )
        for cmu, mem in handle._mem:
            self._allocators[(cmu.group_id, cmu.index)].free(mem)
        for group, grant in handle._grants:
            group.keys.release(grant.selector)
            if _TELEMETRY.enabled:
                _TELEMETRY.events.emit(
                    EV_KEY_RELEASE,
                    task_id=handle.task_id,
                    group=group.group_id,
                    units=list(grant.selector.units),
                )
        del self._handles[handle.task_id]
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_TASK_REMOVE,
                task_id=handle.task_id,
                rules_removed=report.rules_installed,
                latency_ms=report.latency_ms,
            )
            _TELEMETRY.registry.counter("flymon_task_removes_total").inc()
            _TELEMETRY.registry.gauge("flymon_tasks_active").set(len(self._handles))
        return report

    def update_task_filter(
        self,
        handle: TaskHandle,
        new_filter,
        transaction: Optional[ReconfigTransaction] = None,
    ) -> TaskHandle:
        """Change a running task's filter in place (§3.4).

        One table rule per row; register state and memory are untouched, so
        the task keeps its accumulated measurements while its traffic
        selection changes.  Transactional: if any row's rule fails to apply,
        the rows already switched are rolled back to the old filter, so all
        CMUs stay consistent -- never a mix of old and new selection.
        """
        txn, owned = in_transaction("update_task_filter", transaction)
        try:
            with _RECORDER.span(
                "ctl.update_task_filter", cat="control", task_id=handle.task_id
            ):
                self._update_task_filter_txn(handle, new_filter, txn)
        except BaseException as exc:
            if owned:
                txn.rollback(cause=exc)
            raise
        if owned:
            txn.commit()
            self._record_op(
                "update_filter",
                ref=handle.task_id,
                filter=[
                    [name, value, plen]
                    for name, (value, plen) in new_filter.prefixes
                ],
            )
        else:
            self._history_complete = False
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_TASK_FILTER_UPDATE,
                task_id=handle.task_id,
                filter=new_filter.describe(),
                rules=len(handle.rows),
            )
        return handle

    def _update_task_filter_txn(
        self, handle: TaskHandle, new_filter, txn: ReconfigTransaction
    ) -> None:
        import dataclasses

        from repro.dataplane.runtime import RULE_KIND_TABLE, RuntimeRule

        old_task = handle.task
        old_filter = old_task.filter
        rules = [
            RuntimeRule(
                kind=RULE_KIND_TABLE,
                target=f"cmug{row.group.group_id}/cmu{row.cmu.index}/select_task",
                description=(
                    f"task {handle.task_id}: filter -> {new_filter.describe()}"
                ),
                apply=(
                    lambda cmu=row.cmu: cmu.update_task_filter(
                        handle.task_id, new_filter
                    )
                ),
                rollback=(
                    lambda cmu=row.cmu: cmu.update_task_filter(
                        handle.task_id, old_filter
                    )
                ),
            )
            for row in handle.rows
        ]

        def restore_handle_task() -> None:
            handle.task = old_task
            handle.algorithm.task = old_task

        txn.record(
            f"restore task {handle.task_id}'s filter on its handle",
            restore_handle_task,
        )
        self.runtime.install(rules, batch=True, transaction=txn)
        handle.task = dataclasses.replace(handle.task, filter=new_filter)
        handle.algorithm.task = handle.task

    def add_split_task(self, task: MeasurementTask, field: str = "src_ip") -> "SplitTaskHandle":
        """Deploy a task as two half-space subtasks (§3.1.1).

        Splitting a heavy task's filter halves each subtask's flow
        population (and collision probability) at the cost of extra CMUs.
        The returned handle routes per-flow queries to the matching subtask.
        Deployment is all-or-nothing: if the second subtask cannot be
        placed, the first is rolled back too.
        """
        import dataclasses

        low_filter, high_filter = task.filter.split(field)
        low_task = dataclasses.replace(task, filter=low_filter)
        high_task = dataclasses.replace(task, filter=high_filter)
        with _RECORDER.span("ctl.add_split_task", cat="control", field=field):
            with ReconfigTransaction("add_split_task") as txn:
                low = self.add_task(low_task, transaction=txn, _record=False)
                high = self.add_task(high_task, transaction=txn, _record=False)
        self._record_op("add", ref=low.task_id, task=task_to_dict(low_task))
        self._record_op("add", ref=high.task_id, task=task_to_dict(high_task))
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_TASK_SPLIT,
                field=field,
                subtask_ids=[low.task_id, high.task_id],
            )
        return SplitTaskHandle(task=task, subtasks=(low, high))

    def resize_task(self, handle: TaskHandle, new_memory: int) -> TaskHandle:
        """Reallocate a task with a new memory size.

        Preferred path (§6's strategy): deploy the new allocation first,
        divert traffic, then recycle the old one.  When the data plane
        cannot host both simultaneously (e.g. the resize stays within one
        fully-used group), fall back to remove-then-add inside one
        transaction; if even that fails the rollback re-installs the
        original deployment bit-identically -- ``handle`` stays valid, and
        the raised :class:`PlacementError` carries it as
        ``restored_handle``.  Measurement state starts fresh either way.
        """
        import dataclasses

        with _RECORDER.span(
            "ctl.resize_task", cat="control", task_id=handle.task_id,
            new_memory=new_memory,
        ):
            new_task = dataclasses.replace(handle.task, memory=new_memory)
            try:
                new_handle = self.add_task(new_task)
            except PlacementError:
                pass
            else:
                self.remove_task(handle)
                self._emit_resize(handle, new_handle, "make_before_break")
                return new_handle
            try:
                with ReconfigTransaction(
                    f"resize_task task{handle.task_id}"
                ) as txn:
                    self.remove_task(handle, transaction=txn, _record=False)
                    new_handle = self.add_task(
                        new_task, transaction=txn, _record=False
                    )
            except PlacementError as exc:
                # The rollback restored the original deployment (same task id,
                # same keys/memory/rules), so the caller's handle is live
                # again.
                exc.restored_handle = handle
                if _TELEMETRY.enabled:
                    _TELEMETRY.events.emit(
                        EV_TASK_RESIZE,
                        task_id=handle.task_id,
                        new_task_id=handle.task_id,
                        old_memory=handle.task.memory,
                        new_memory=new_memory,
                        strategy="restored",
                    )
                raise
            self._record_op("remove", ref=handle.task_id)
            self._record_op(
                "add", ref=new_handle.task_id, task=task_to_dict(new_task)
            )
            self._emit_resize(handle, new_handle, "remove_then_add")
            return new_handle

    def _emit_resize(
        self, old: TaskHandle, new: TaskHandle, strategy: str
    ) -> None:
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_TASK_RESIZE,
                task_id=old.task_id,
                new_task_id=new.task_id,
                old_memory=old.task.memory,
                new_memory=new.task.memory,
                strategy=strategy,
            )

    @property
    def tasks(self) -> List[TaskHandle]:
        return [self._handles[tid] for tid in sorted(self._handles)]

    # ------------------------------------------------------------------
    # Data-plane traversal
    # ------------------------------------------------------------------

    def process_packet(self, fields: Dict[str, int]) -> None:
        """Run one packet through every group in pipeline order.

        With a placed pipeline the packet traverses the MAU stages and each
        group executes at its operation stage (the hooks that
        :func:`apply_placements` attached); without one, groups run
        directly.  Either way the groups see the packet in pipeline order.
        """
        if self.pipeline is not None:
            self.pipeline.process(fields)
            return
        for group in self.groups:
            group.process(fields)

    def process_batch(self, batch) -> None:
        """Run a :class:`~repro.traffic.batch.PacketBatch` through every
        group in pipeline order -- the batched dual of :meth:`process_packet`,
        bit-identical to processing the batch's packets one at a time."""
        if self.pipeline is not None:
            self.pipeline.process_batch(batch)
            return
        for group in self.groups:
            group.process_batch(batch)

    def process_trace(
        self,
        trace: Trace,
        batch_size: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> None:
        """Replay a trace through the datapath.

        ``batch_size=None`` keeps the scalar reference path (one dict per
        packet); an integer streams the trace as column-slice batches of that
        size through the vectorized engine instead.  ``workers > 1`` routes
        through :meth:`process_trace_sharded` (which implies batching).
        """
        if workers is not None and workers > 1:
            self.process_trace_sharded(trace, workers, batch_size=batch_size)
            return
        with _RECORDER.span(
            "ctl.trace", cat="dataplane", packets=len(trace),
            batched=batch_size is not None,
        ):
            if batch_size is not None:
                for batch in trace.iter_batches(batch_size):
                    self.process_batch(batch)
                return
            for fields in trace.iter_fields():
                self.process_packet(fields)

    def process_trace_sharded(
        self,
        trace: Trace,
        workers: int,
        batch_size: Optional[int] = None,
        collect_exports: bool = False,
        exact_exports: bool = False,
    ):
        """Replay a trace through per-worker datapath replicas.

        Row shards run through cloned CMU groups; worker register state is
        merged back exactly (see :mod:`repro.dataplane.sharding`), so
        queries, digests, and register reads afterwards match a sequential
        replay bit for bit.  Returns the
        :class:`~repro.dataplane.sharding.ShardRunReport`.

        ``workers > 1`` runs the shards on this controller's long-lived
        worker pool, which stays attached across calls and epochs (see
        :class:`~repro.dataplane.shard_pool.PersistentShardPool`) until
        :meth:`close_shard_pool`; a single shard runs in-process.
        """
        from repro.dataplane.sharding import run_sharded

        workers = max(1, int(workers))
        return run_sharded(
            self.groups,
            trace,
            workers,
            batch_size=batch_size,
            collect_exports=collect_exports,
            exact_exports=exact_exports,
            pool=self.shard_pool(workers) if workers > 1 else None,
        )

    def shard_pool(self, workers: int):
        """The controller's persistent shard pool, (re)created on demand.

        An existing pool is replaced when the requested worker count no
        longer matches.
        """
        from repro.dataplane.shard_pool import PersistentShardPool

        pool = self._shard_pool
        if pool is not None and (pool.closed or pool.workers != workers):
            pool.close()
            pool = None
        if pool is None:
            pool = self._shard_pool = PersistentShardPool(self.groups, workers)
        return pool

    def seal_shard_epoch(self, epoch_index: int) -> None:
        """Epoch-rotation barrier for the attached shard pool (a no-op
        without a live one): its resident replicas already self-reset after
        every run, so this only confirms they are zeroed and catches a
        wedged worker at the epoch boundary."""
        pool = self._shard_pool
        if pool is not None and not pool.closed:
            pool.seal_epoch(epoch_index)

    def close_shard_pool(self) -> None:
        """Stop the persistent shard pool's workers, if one is attached."""
        if self._shard_pool is not None:
            self._shard_pool.close()
            self._shard_pool = None

    # ------------------------------------------------------------------
    # Resource management interfaces
    # ------------------------------------------------------------------

    def free_buckets(self) -> Dict[Tuple[int, int], int]:
        return {key: alloc.free_buckets for key, alloc in self._allocators.items()}

    def stats(self) -> Dict[str, object]:
        """Operator-facing resource snapshot: tasks, memory, keys, rules."""
        total_buckets = sum(
            cmu.register_size for g in self.groups for cmu in g.cmus
        )
        free = sum(self.free_buckets().values())
        key_usage = {
            group.group_id: {
                unit: (mask.describe() if mask else None)
                for unit, mask in group.keys.committed_masks().items()
            }
            for group in self.groups
        }
        return {
            "tasks": len(self._handles),
            "groups": len(self.groups),
            "cmus": sum(g.num_cmus for g in self.groups),
            "buckets_total": total_buckets,
            "buckets_free": free,
            "memory_utilization": 1.0 - free / total_buckets if total_buckets else 0.0,
            "largest_free_block": max(
                (a.largest_free_block() for a in self._allocators.values()),
                default=0,
            ),
            "compressed_keys": key_usage,
            "rules_installed": self.runtime.total_rules,
            "control_plane_ms": self.runtime.now_ms,
        }

    # ------------------------------------------------------------------
    # Integrity auditing and checkpoints
    # ------------------------------------------------------------------

    def verify_integrity(self) -> IntegrityReport:
        """Audit the cross-references between control-plane stores.

        Checks, per the invariants every (possibly rolled-back) operation
        must preserve:

        1. each buddy allocator's internal invariants (alignment, coverage,
           no overlap);
        2. handle memory claims <-> allocator occupancy, exactly;
        3. handle key grants (plus startup preconfiguration) <-> key-manager
           reference counts, exactly;
        4. deployed handles <-> runtime undo logs, exactly;
        5. handles' rows <-> CMU task tables (configs present, filters and
           memory ranges matching; no orphan tasks on any CMU).
        """
        problems: List[str] = []
        checks = 0

        for allocator in self._allocators.values():
            checks += 1
            problems.extend(allocator.integrity_problems())

        expected_mem: Dict[Tuple[int, int], Dict[int, int]] = {
            key: {} for key in self._allocators
        }
        for handle in self._handles.values():
            for cmu, mem in handle._mem:
                claims = expected_mem[(cmu.group_id, cmu.index)]
                if mem.base in claims:
                    problems.append(
                        f"task {handle.task_id}: duplicate claim at "
                        f"cmug{cmu.group_id}/cmu{cmu.index} base {mem.base}"
                    )
                claims[mem.base] = mem.length
        for key, allocator in self._allocators.items():
            checks += 1
            actual = {r.base: r.length for r in allocator.allocated_ranges}
            if actual != expected_mem[key]:
                problems.append(
                    f"{allocator.owner}: allocator occupancy {actual} != "
                    f"handle claims {expected_mem[key]}"
                )

        expected_refs: Dict[int, Dict[int, int]] = {
            group.group_id: {i: 0 for i in range(len(group.hash_units))}
            for group in self.groups
        }
        for group, grant in self._preconfigured:
            for unit in grant.selector.units:
                expected_refs[group.group_id][unit] += 1
        for handle in self._handles.values():
            for group, grant in handle._grants:
                for unit in grant.selector.units:
                    expected_refs[group.group_id][unit] += 1
        for group in self.groups:
            checks += 1
            actual_refs = group.keys.refcounts()
            if actual_refs != expected_refs[group.group_id]:
                problems.append(
                    f"cmug{group.group_id}: key refcounts {actual_refs} != "
                    f"expected {expected_refs[group.group_id]}"
                )
            for unit, mask in group.keys.committed_masks().items():
                if mask is not None and actual_refs.get(unit, 0) == 0:
                    problems.append(
                        f"cmug{group.group_id}/hash{unit}: committed mask "
                        f"{mask.describe()} with zero references"
                    )

        checks += 1
        expected_deployments = tuple(
            sorted(f"task{tid}" for tid in self._handles)
        )
        actual_deployments = self.runtime.deployments()
        if actual_deployments != expected_deployments:
            problems.append(
                f"runtime deployments {list(actual_deployments)} != deployed "
                f"tasks {list(expected_deployments)}"
            )

        hosted: Dict[Tuple[int, int], set] = {}
        for handle in self._handles.values():
            for cmu, mem in handle._mem:
                checks += 1
                hosted.setdefault((cmu.group_id, cmu.index), set()).add(
                    handle.task_id
                )
                if handle.task_id not in cmu.task_ids:
                    problems.append(
                        f"task {handle.task_id} missing from "
                        f"cmug{cmu.group_id}/cmu{cmu.index}'s task table"
                    )
                    continue
                config = cmu.config(handle.task_id)
                if (config.mem.base, config.mem.length) != (mem.base, mem.length):
                    problems.append(
                        f"task {handle.task_id} on cmug{cmu.group_id}/"
                        f"cmu{cmu.index}: installed range {config.mem} != "
                        f"claimed {mem}"
                    )
                if config.filter != handle.task.filter:
                    problems.append(
                        f"task {handle.task_id} on cmug{cmu.group_id}/"
                        f"cmu{cmu.index}: installed filter "
                        f"{config.filter.describe()} != handle's "
                        f"{handle.task.filter.describe()}"
                    )
        for group in self.groups:
            for cmu in group.cmus:
                checks += 1
                orphans = set(cmu.task_ids) - hosted.get(
                    (cmu.group_id, cmu.index), set()
                )
                if orphans:
                    problems.append(
                        f"cmug{cmu.group_id}/cmu{cmu.index}: orphan task(s) "
                        f"{sorted(orphans)} with no controller handle"
                    )

        return IntegrityReport(checks=checks, problems=tuple(problems))

    def control_digest(self) -> tuple:
        """A hashable summary of the full control+data-plane state (group
        digests plus runtime rule accounting); equal digests mean two
        controllers are bit-identical for measurement purposes."""
        return (
            tuple(group.control_digest() for group in self.groups),
            tuple(sorted(self._handles)),
            self.runtime.deployments(),
            self.runtime.total_rules,
        )

    def checkpoint(self) -> Dict[str, object]:
        """A JSON-safe snapshot: constructor parameters plus every deployed
        task, replayable by :meth:`from_checkpoint`.

        When the reconfiguration history is complete (no operations ran
        inside caller-owned transactions), it is included too:
        :meth:`from_checkpoint` then replays the full operation sequence,
        reproducing placement -- groups, CMUs, memory bases -- exactly,
        which sealed-state restores (see :mod:`repro.service.checkpoint`)
        depend on.
        """
        state = {
            "version": 1,
            "params": {
                key: (list(value) if isinstance(value, list) else value)
                for key, value in self._init_params.items()
            },
            "tasks": [task_to_dict(handle.task) for handle in self.tasks],
        }
        if self._history_complete:
            state["history"] = [dict(entry) for entry in self._history]
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(EV_CHECKPOINT, tasks=len(state["tasks"]))
        return state

    @classmethod
    def from_checkpoint(cls, state: Dict[str, object]) -> "FlyMonController":
        """Rebuild a controller from :meth:`checkpoint` output.

        With a recorded history the full add/remove/filter-update sequence
        is replayed, landing every surviving task at its exact live
        placement; otherwise deployments are replayed through
        :meth:`add_task` in checkpoint order.  Either way the replay is
        deterministic (task ids are fresh -- they come from the
        process-wide counter).
        """
        controller = cls.construct_from_params(state["params"])
        history = state.get("history")
        if history is not None:
            controller.replay_history(history)
        else:
            for task_data in state["tasks"]:
                controller.add_task(task_from_dict(task_data))
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(EV_RESTORE, tasks=len(state["tasks"]))
        return controller

    @classmethod
    def construct_from_params(
        cls, params: Dict[str, object]
    ) -> "FlyMonController":
        """Build an empty controller from checkpointed constructor params
        (the ``"params"`` section of :meth:`checkpoint` output)."""
        params = dict(params)
        params["preconfigure_keys"] = tuple(
            FlowKeyDef(tuple((name, bits) for name, bits in parts))
            for parts in params.get("preconfigure_keys", ())
        )
        return cls(**params)

    def replay_history(self, history) -> Dict[int, TaskHandle]:
        """Replay a recorded operation history onto this controller.

        Returns the ref map: original task id (as recorded in the history)
        -> the live handle it resolved to here.  Removed tasks are popped,
        so the returned map covers exactly the surviving deployments --
        WAL recovery uses it to re-key sealed-epoch records.
        """
        from repro.core.task import TaskFilter

        refs: Dict[int, TaskHandle] = {}
        for entry in history:
            op = entry["op"]
            if op == "add":
                refs[entry["ref"]] = self.add_task(
                    task_from_dict(entry["task"])
                )
            elif op == "add_pinned":
                refs[entry["ref"]] = self.add_task_pinned(
                    task_from_dict(entry["task"]), entry["pin"]
                )
            elif op == "remove":
                self.remove_task(refs.pop(entry["ref"]))
            elif op == "update_filter":
                self.update_task_filter(
                    refs[entry["ref"]],
                    TaskFilter(
                        tuple(
                            (name, (value, plen))
                            for name, value, plen in entry["filter"]
                        )
                    ),
                )
            else:
                raise ValueError(f"unknown history op {op!r}")
        return refs

    def utilization(self) -> Dict[str, float]:
        if self.pipeline is None:
            return {}
        return self.pipeline.utilization()

    def record_telemetry(self, scope: str = "pipeline") -> Dict[str, float]:
        """Publish live pipeline utilization as telemetry gauges."""
        utilization = self.utilization()
        if utilization:
            update_resource_gauges(utilization, _TELEMETRY.registry, scope=scope)
        _TELEMETRY.registry.gauge("flymon_tasks_active").set(len(self._handles))
        return utilization

    # ------------------------------------------------------------------
    # Placement internals
    # ------------------------------------------------------------------

    def _find_window(
        self,
        task: MeasurementTask,
        layout: Sequence[int],
        row_memory: Sequence[int],
    ) -> Tuple[
        Optional[List[CmuGroup]], Optional[List[List[Cmu]]], int, Optional[str]
    ]:
        """Best window of ``len(layout)`` consecutive groups for the task.

        Windows able to host the task are ranked by how many of the needed
        hash masks they already have (the greedy reuse strategy of §3.4).
        Returns ``(window, cmus, key_reuse_score, error)``, ``cmus`` being
        the CMUs chosen in each window group -- the ones
        :meth:`_claim_window` allocates on.  Overlapping windows share
        verdicts: each (group, first row) is evaluated once.
        """
        span = len(layout)
        if span > len(self.groups):
            return (
                None,
                None,
                -1,
                f"task needs {span} groups; controller has {len(self.groups)}",
            )
        first_rows = list(itertools.accumulate(layout, initial=0))
        placeable: Dict[Tuple[int, int], Optional[List[Cmu]]] = {}
        mask_spec = task.key.mask_spec()
        best: tuple = (-1, None, None)
        last_error = None
        for start in range(len(self.groups) - span + 1):
            window = self.groups[start : start + span]
            cmus: List[List[Cmu]] = []
            for group, rows_here, row_index in zip(window, layout, first_rows):
                key = (group.group_id, row_index)
                if key not in placeable:
                    placeable[key] = self._placeable_cmus(
                        group, task, rows_here, row_memory, row_index
                    )
                if placeable[key] is None:
                    last_error = (
                        f"group {group.group_id}: not enough conflict-free CMUs/memory"
                    )
                    break
                cmus.append(placeable[key])
            else:
                score = sum(group.keys.mask_overlap(mask_spec) for group in window)
                if score > best[0]:
                    best = (score, window, cmus)
        score, window, cmus = best
        return window, cmus, score, last_error

    def _placeable_cmus(
        self,
        group: CmuGroup,
        task: MeasurementTask,
        rows_here: int,
        row_memory: Sequence[int],
        row_index: int,
    ) -> Optional[List[Cmu]]:
        """Distinct CMUs in ``group`` able to host rows ``row_index ..``."""
        chosen: List[Cmu] = []
        needed = list(row_memory[row_index : row_index + rows_here])
        for cmu in group.cmus:
            if len(chosen) == len(needed):
                break
            if task.sample_prob >= 1.0 and cmu.has_conflict(task.filter):
                continue
            allocator = self._allocators[(group.group_id, cmu.index)]
            if allocator.can_allocate(needed[len(chosen)]):
                chosen.append(cmu)
        return chosen if len(chosen) == rows_here else None

    def _claim_window(
        self,
        task: MeasurementTask,
        algorithm: CmuAlgorithm,
        row_memory: Sequence[int],
        window: Sequence[CmuGroup],
        cmus: Sequence[Sequence[Cmu]],
        task_id: Optional[int] = None,
    ) -> Tuple[List[RowSlot], List[Tuple[CmuGroup, KeyGrant]]]:
        """Acquire the window's keys and allocate each row on the CMU
        :meth:`_find_window` chose for it."""
        rows: List[RowSlot] = []
        grants: List[Tuple[CmuGroup, KeyGrant]] = []
        param_key = (
            task.attribute.param if algorithm.needs_param_key() else None
        )
        memory = iter(row_memory)
        try:
            for group, chosen in zip(window, cmus):
                key_grant = group.keys.acquire(task.key.mask_spec())
                grants.append((group, key_grant))
                self._emit_key_grant(task_id, group, key_grant, role="key")
                param_grant = None
                if param_key is not None:
                    if not isinstance(param_key, FlowKeyDef):
                        raise TypeError("parameter key must be a FlowKeyDef")
                    param_grant = group.keys.acquire(param_key.mask_spec())
                    grants.append((group, param_grant))
                    self._emit_key_grant(task_id, group, param_grant, role="param")
                for cmu in chosen:
                    allocator = self._allocators[(group.group_id, cmu.index)]
                    mem = allocator.allocate(next(memory))
                    rows.append(
                        RowSlot(
                            group=group,
                            cmu=cmu,
                            mem=mem,
                            key_grant=key_grant,
                            param_grant=param_grant,
                        )
                    )
        except (KeyExhaustedError, OutOfMemoryError) as exc:
            # Partial claims are rolled back by the enclosing transaction's
            # control-store snapshots; here we only translate the failure.
            raise PlacementError(str(exc)) from exc
        return rows, grants

    def _snapshot_control_stores(
        self, txn: ReconfigTransaction, groups: Iterable[CmuGroup]
    ) -> None:
        """Record restorable snapshots of the control stores an operation
        on ``groups`` can touch: the handle table, and each group's key pool
        and CMU allocators.  Stores of other groups are left out -- the
        operation never mutates them.

        Recorded before any mutation, so during rollback they run *after*
        the data-plane inverses (rule reverts) and reset the key pools,
        allocator occupancy, and handle table to the pre-call state.
        """
        handles = dict(self._handles)

        def restore_handles() -> None:
            self._handles = dict(handles)

        txn.record("restore the task-handle table", restore_handles)
        for group in groups:
            txn.snapshot(f"restore key pool of cmug{group.group_id}", group.keys)
            for cmu in group.cmus:
                allocator = self._allocators[(group.group_id, cmu.index)]
                txn.snapshot(f"restore allocator {allocator.owner}", allocator)

    @staticmethod
    def _emit_key_grant(
        task_id: Optional[int], group: CmuGroup, grant: KeyGrant, role: str
    ) -> None:
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_KEY_GRANT,
                task_id=task_id,
                group=group.group_id,
                role=role,
                units=list(grant.selector.units),
                reused=grant.reused,
                new_masks=len(grant.new_masks),
            )
