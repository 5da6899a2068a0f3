"""The Composable Measurement Unit (§3.1, §3.2).

One CMU is a SALU + register pair plus its share of the group's four
pipeline stages.  At runtime it hosts multiple concurrent measurement tasks
(disjoint filters, disjoint memory partitions); per packet it:

1. matches the packet against its task-selection table (initialization),
2. computes the task's key from the group's compressed keys and selects the
   two parameters,
3. translates the address into the task's memory partition and preprocesses
   the first parameter (preparation),
4. executes the task's stateful operation and exports the result to the PHV
   for downstream CMUs (operation).

The task-selection table is a real ternary table (filters are TCAM
matches); preparation-stage rule footprints are tracked per task so resource
accounting reflects what a hardware deployment would install.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.address_translation import make_translation
from repro.core.compression import KeySelector
from repro.core.operations import load_reduced_operation_set
from repro.core.memory import MemRange
from repro.core.params import (
    IdentityProcessor,
    ParamProcessor,
    ParamSelector,
    param_field,
    result_field,
)
from repro.core.task import TaskFilter
from repro.dataplane.hashing import HashFunction
from repro.dataplane.register import Register
from repro.dataplane.tables import TableEntry, TernaryMatchTable
from repro.telemetry import TELEMETRY as _TELEMETRY

#: Filter fields every task-selection table matches on.
FILTER_FIELDS = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")


@dataclass(frozen=True)
class CmuTaskConfig:
    """One task's compiled configuration on one CMU.

    ``alarm_threshold`` arms data-plane reporting: when the operation's
    exported result reaches it, the packet's key (extracted per
    ``digest_key``) is pushed to the CMU's digest queue -- Tofino's digest
    mechanism, which is how threshold-based heavy-hitter detection reports
    flows without the control plane enumerating candidates (§4).
    """

    task_id: int
    filter: TaskFilter
    key_selector: KeySelector
    p1: ParamSelector
    p2: ParamSelector
    p1_processor: ParamProcessor
    mem: MemRange
    op: str
    strategy: str = "tcam"
    sample_prob: float = 1.0
    priority: int = 0
    alarm_threshold: Optional[int] = None
    digest_key: Optional[object] = None  # FlowKeyDef, kept loose for layering
    #: Address translation resolved at install time -- on hardware the
    #: translation *is* a set of rules installed once per task, so building
    #: it per packet was pure model overhead.  ``Cmu.install_task`` fills it.
    cached_translation: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    def translation(self, register_size: int):
        cached = self.cached_translation
        if cached is not None and cached.register_size == register_size:
            return cached
        return make_translation(self.strategy, register_size, self.mem)


class TaskConflictError(RuntimeError):
    """A task's filter intersects an existing task on the same CMU."""


@dataclass(frozen=True)
class CmuTaskPlan:
    """One task's slot in its CMU's compiled plan."""

    config: CmuTaskConfig
    slot: int
    alarm_armed: bool


@dataclass(frozen=True)
class CmuPlan:
    """All of a CMU's tasks compiled for :meth:`Cmu.process_batch`, so a
    batch costs the same whatever the number of resident tasks.

    Tasks take *slots* ordered by (operation, key/parameter selectors,
    install order): sorted by slot, every task is one slice of the batch in
    arrival order, every group of tasks deriving key and parameters the same
    way (``runs``) one slice, and every operation (``ops``) one slice.
    """

    #: The table's compiled rules this was derived from: stale once the
    #: table holds another object.
    classifier: object
    tasks: Dict[int, CmuTaskPlan]  #: by task id, install order
    slots: Tuple[CmuTaskPlan, ...]
    sampled: Tuple[CmuTaskPlan, ...]  #: slots with ``sample_prob < 1``
    armed: Tuple[CmuTaskPlan, ...]  #: slots that report alarm digests
    runs: Tuple[tuple, ...]  #: (first slot, end slot, config with the selectors)
    ops: Tuple[tuple, ...]  #: (operation, first slot, end slot)
    #: ``slot_of_task[task_id - id_base]``; ``len(slots)`` means no task, and
    #: is where ``id_base`` itself -- the classify default -- lands.
    id_base: int
    slot_of_task: np.ndarray
    #: The slot every packet takes when the table's top rule is a wildcard.
    whole_slot: Optional[int]
    #: One column per slot, rows ``base, shift, mask, alarm_at``: the bucket
    #: is ``base + ((address >> shift) & mask)``; a slot reports results that
    #: reach ``alarm_at`` (unarmed: a value none reaches).
    per_slot: np.ndarray


def _joined(pieces: Sequence[np.ndarray]) -> np.ndarray:
    """Per-slice pieces as one array (no copy when there is one piece)."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _spans(labels: Sequence) -> List[tuple]:
    """``(label, start, end)`` of each run of equal consecutive labels."""
    spans = []
    for label, group in groupby(range(len(labels)), key=labels.__getitem__):
        members = list(group)
        spans.append((label, members[0], members[-1] + 1))
    return spans


class Cmu:
    """One Composable Measurement Unit inside a CMU Group."""

    def __init__(
        self,
        group_id: int,
        index: int,
        register_size: int = 1 << 16,
        bucket_bits: int = 16,
    ) -> None:
        self.group_id = group_id
        self.index = index
        self.register = Register(register_size, bucket_bits)
        load_reduced_operation_set(self.register)
        self.task_table = TernaryMatchTable(
            f"cmug{group_id}/cmu{index}/select_task", FILTER_FIELDS
        )
        self._configs: Dict[int, CmuTaskConfig] = {}
        self._plan: Optional[CmuPlan] = None
        self._entries: Dict[int, TableEntry] = {}
        #: Preparation-stage TCAM entries per task (address translation +
        #: parameter preprocessing) -- the Fig. 11a accounting.
        self._prep_tcam: Dict[int, int] = {}
        self._sample_hash = HashFunction(0x5A5A ^ (group_id << 8) ^ index)
        #: Data-plane digests: {task_id: set of reported flow keys}.
        self._digests: Dict[int, set] = {}
        #: Optional :class:`repro.dataplane.sharding.ShardJournal` -- when a
        #: sharded worker sets it, :meth:`process_batch` records each tracked
        #: task's post-sampling (rows, index, p1, p2) stream so the merge can
        #: replay state-dependent operations exactly.
        self.journal = None
        #: Cached telemetry handle (bound on first use while enabled).
        self._access_counter = None

    # -- control plane ------------------------------------------------------

    @property
    def register_size(self) -> int:
        return self.register.size

    @property
    def bucket_bits(self) -> int:
        return self.register.bit_width

    @property
    def task_ids(self) -> List[int]:
        return sorted(self._configs)

    def config(self, task_id: int) -> CmuTaskConfig:
        return self._configs[task_id]

    def task_plans(self) -> Dict[int, CmuTaskPlan]:
        """Each task's slot of the compiled plan, in install order (a copy)."""
        return dict(self._current_plan().tasks)

    def has_conflict(self, task_filter: TaskFilter) -> bool:
        """Whether the filter intersects any task already on this CMU
        (§3.3: a SALU executes at most one task per packet)."""
        return any(
            cfg.filter.intersects(task_filter) for cfg in self._configs.values()
        )

    def install_task(self, config: CmuTaskConfig) -> None:
        """Install a compiled task (the apply side of its runtime rules)."""
        if config.task_id in self._configs:
            raise ValueError(f"task {config.task_id} already on CMU {self.index}")
        if self.has_conflict(config.filter) and config.sample_prob >= 1.0:
            raise TaskConflictError(
                f"task {config.task_id}'s filter intersects an existing task "
                f"on cmug{self.group_id}/cmu{self.index}"
            )
        if config.mem.end > self.register_size:
            raise ValueError("task memory range exceeds the register")
        entry = TableEntry.build(
            config.filter.to_ternary(),
            action="set_task",
            args={"task_id": config.task_id},
            priority=config.priority,
        )
        translation = make_translation(config.strategy, self.register_size, config.mem)
        config = replace(config, cached_translation=translation)
        self.task_table.insert(entry)
        self._entries[config.task_id] = entry
        self._configs[config.task_id] = config
        prep = config.p1_processor.tcam_entries()
        if config.strategy == "tcam":
            prep += translation.tcam_entries()
        self._prep_tcam[config.task_id] = prep

    def update_task_filter(self, task_id: int, new_filter: TaskFilter) -> None:
        """Swap a running task's filter (one table-rule update, §3.4).

        Register state is untouched: the task keeps measuring, only its
        traffic selection changes.  Conflicts with co-located tasks are
        re-checked against the new filter.
        """
        config = self._configs.get(task_id)
        if config is None:
            raise KeyError(f"task {task_id} is not on this CMU")
        others = [
            cfg for tid, cfg in self._configs.items() if tid != task_id
        ]
        if config.sample_prob >= 1.0 and any(
            cfg.filter.intersects(new_filter) for cfg in others
        ):
            raise TaskConflictError(
                f"new filter for task {task_id} intersects a co-located task"
            )
        old_entry = self._entries[task_id]
        new_entry = TableEntry.build(
            new_filter.to_ternary(),
            action="set_task",
            args={"task_id": task_id},
            priority=config.priority,
        )
        self.task_table.insert(new_entry)
        self.task_table.remove(old_entry)
        self._entries[task_id] = new_entry
        self._configs[task_id] = replace(config, filter=new_filter)

    def remove_task(self, task_id: int) -> None:
        entry = self._entries.pop(task_id, None)
        if entry is not None:
            self.task_table.remove(entry)
        self._configs.pop(task_id, None)
        self._prep_tcam.pop(task_id, None)

    def _current_plan(self) -> CmuPlan:
        """The compiled plan, rebuilt when the task table's rules changed.

        Every install, filter update and removal goes through the table, and
        a table mutation only drops its compiled classifier, so mutations
        compile nothing: the first batch (or ``task_plans()`` reader)
        afterwards does.
        """
        classifier = self.task_table.classifier()
        plan = self._plan
        if plan is None or plan.classifier is not classifier:
            plan = self._plan = self._compile_plan(classifier)
        return plan

    def _compile_plan(self, classifier) -> CmuPlan:
        ranks: Dict[tuple, int] = {}

        def slot_key(cfg: CmuTaskConfig) -> tuple:
            selectors = (cfg.op, cfg.key_selector, cfg.p1, cfg.p2, cfg.p1_processor)
            return cfg.op, ranks.setdefault(selectors, len(ranks))

        ordered = sorted(self._configs.values(), key=slot_key)
        slots = tuple(
            CmuTaskPlan(
                cfg, slot, cfg.alarm_threshold is not None and cfg.digest_key is not None
            )
            for slot, cfg in enumerate(ordered)
        )
        by_task = {tp.config.task_id: tp for tp in slots}
        # Packets reach a slot only through the installed rules: rule -> task
        # id -> slot, ids offset so that the lowest lands on index 1.  The
        # last rule is the default action, which answers unmatched packets.
        table = self.task_table
        rules = [(entry.action, dict(entry.args).get("task_id")) for entry in table.entries]
        rules.append((table.default_action, table.default_args.get("task_id")))
        ids = [task_id for _, task_id in rules if task_id is not None]
        id_base = min(ids, default=0) - 1
        slot_of_task = np.full(
            max(ids, default=0) - id_base + 1, len(slots), np.min_scalar_type(len(slots))
        )
        for action, task_id in rules:
            if action == "set_task" and task_id in by_task:
                slot_of_task[task_id - id_base] = by_task[task_id].slot
        top_action, top_task = rules[0]
        whole = classifier.floor == 0 and top_action == "set_task" and top_task in by_task
        per_slot = [
            (
                tp.config.mem.base,
                # Partitions are aligned powers of two, so both strategies
                # are a shift (0 for TCAM's modulo) and a mask.
                getattr(tp.config.translation(self.register_size), "shift", 0),
                tp.config.mem.length - 1,
                tp.config.alarm_threshold if tp.alarm_armed else np.iinfo(np.int64).max,
            )
            for tp in slots
        ]
        return CmuPlan(
            classifier=classifier,
            tasks={task_id: by_task[task_id] for task_id in self._configs},
            slots=slots,
            sampled=tuple(tp for tp in slots if tp.config.sample_prob < 1.0),
            armed=tuple(tp for tp in slots if tp.alarm_armed),
            runs=tuple(
                (lo, hi, ordered[lo]) for _, lo, hi in _spans([slot_key(c) for c in ordered])
            ),
            ops=tuple(_spans([cfg.op for cfg in ordered])),
            id_base=id_base,
            slot_of_task=slot_of_task,
            whole_slot=by_task[top_task].slot if whole else None,
            per_slot=np.array(per_slot, dtype=np.int64).reshape(-1, 4).T,
        )

    def prep_tcam_entries(self) -> int:
        return sum(self._prep_tcam.values())

    def control_digest(self) -> tuple:
        """A hashable summary of this CMU's task and register state.

        Two CMUs with equal digests host the same tasks (filters, memory
        ranges, operations, key selectors) over bit-identical register
        contents -- the equality integrity audits and checkpoint round-trip
        tests assert.
        """
        import zlib

        tasks = tuple(
            (
                tid,
                cfg.filter.describe(),
                cfg.mem.base,
                cfg.mem.length,
                cfg.op,
                tuple(cfg.key_selector.units),
                cfg.key_selector.offset,
                cfg.key_selector.width,
            )
            for tid, cfg in sorted(self._configs.items())
        )
        register_crc = zlib.crc32(
            self.register.read_range(0, self.register_size).tobytes()
        )
        return (tasks, register_crc)

    def drain_digests(self, task_id: int) -> set:
        """Pop the task's accumulated alarm digests (control-plane read)."""
        return self._digests.pop(task_id, set())

    def peek_digests(self, task_id: int) -> set:
        return set(self._digests.get(task_id, set()))

    def read_task_memory(self, task_id: int) -> np.ndarray:
        cfg = self._configs[task_id]
        return self.register.read_range(cfg.mem.base, cfg.mem.length)

    def reset_task_memory(self, task_id: int) -> None:
        cfg = self._configs[task_id]
        self.register.reset_range(cfg.mem.base, cfg.mem.length)

    def index_for(self, task_id: int, compressed: Sequence[int]) -> int:
        """The physical bucket a packet with these compressed keys touches."""
        cfg = self._configs[task_id]
        address = cfg.key_selector.compute(compressed)
        return cfg.translation(self.register_size).translate(address)

    # -- data plane -----------------------------------------------------------

    def process(self, fields: Dict[str, int], compressed: Sequence[int]) -> None:
        """Run one packet through initialization/preparation/operation."""
        action, args = self.task_table.lookup(fields)
        if action != "set_task":
            return
        config = self._configs.get(args["task_id"])
        if config is None:
            return
        if config.sample_prob < 1.0 and not self._sampled(config, fields):
            return
        # Initialization: key + raw parameters.
        address = config.key_selector.compute(compressed)
        p1 = config.p1.value(fields, compressed)
        p2 = config.p2.value(fields, compressed)
        # Preparation: address translation + parameter preprocessing.
        index = config.translation(self.register_size).translate(address)
        p1 = config.p1_processor.apply(p1, fields)
        # Operation: stateful update; export result and processed p1.
        result = self.register.execute(config.op, index, p1, p2)
        if _TELEMETRY.enabled:
            if self._access_counter is None:
                self._access_counter = _TELEMETRY.registry.counter(
                    "flymon_register_accesses_total",
                    group=str(self.group_id),
                    cmu=str(self.index),
                )
            self._access_counter.inc()
        fields[result_field(self.group_id, self.index)] = result
        fields[param_field(self.group_id, self.index)] = p1
        # Data-plane alarm digest (threshold-crossing report).
        if (
            config.alarm_threshold is not None
            and config.digest_key is not None
            and result >= config.alarm_threshold
        ):
            self._digests.setdefault(config.task_id, set()).add(
                config.digest_key.extract(fields)
            )

    def process_batch(self, batch, compressed: Sequence[np.ndarray]) -> None:
        """Run a whole :class:`~repro.traffic.batch.PacketBatch` through the
        CMU -- bit-identical to calling :meth:`process` per packet in order.

        Equivalence rests on three structural facts: the task table selects
        exactly one task per packet (so per-slot row sets partition the
        batch), co-located tasks occupy disjoint memory partitions (the
        allocator's invariant, so one :meth:`Register.execute_batch` per
        operation can carry every tenant: a bucket only ever sees its own
        task's rows), and within a bucket ``execute_batch`` serializes
        duplicates by occurrence rank.  ``compressed`` holds one int64 array
        per hash unit, full batch length.
        """
        n = len(batch)
        if not self._configs or n == 0:
            return
        plan = self._current_plan()
        # Rows grouped by slot, each slot's rows in arrival order.
        in_order = plan.whole_slot is not None
        if in_order:
            rows = np.arange(n)
            counts = np.zeros(len(plan.slots), dtype=np.int64)
            counts[plan.whole_slot] = n
        else:
            task_ids = self.task_table.classify_batch(batch, "task_id", n, plan.id_base)
            slots = plan.slot_of_task[task_ids - plan.id_base]
            counts = np.bincount(slots, minlength=len(plan.slots) + 1)[:-1]
            rows = np.argsort(slots, kind="stable")[: counts.sum()]
        bounds = [0, *np.cumsum(counts).tolist()]
        # Sampled-out packets are dropped, not handed to a lower-priority task.
        if plan.sampled:
            keep = np.ones(len(rows), dtype=bool)
            for tp in plan.sampled:
                lo, hi = bounds[tp.slot], bounds[tp.slot + 1]
                keep[lo:hi] = self._sampled_batch(tp.config, batch, rows[lo:hi])
                counts[tp.slot] = np.count_nonzero(keep[lo:hi])
            rows = rows[keep]
            bounds = [0, *np.cumsum(counts).tolist()]
            in_order = False
        total_rows = len(rows)
        if total_rows == 0:
            return
        comp = compressed if in_order else [c[rows] for c in compressed]
        # Initialization: key + raw parameters, then p1 preprocessing, once
        # per run of slots that derive them the same way.
        parts = []
        for first, end, config in plan.runs:
            lo, hi = bounds[first], bounds[end]
            if hi == lo:
                continue
            run_rows, run_comp = rows[lo:hi], [c[lo:hi] for c in comp]
            raw_p1 = config.p1.value_batch(batch, run_comp, run_rows)
            parts.append(
                (
                    config.key_selector.compute_batch(run_comp),
                    config.p1_processor.apply_batch(raw_p1, batch, run_rows),
                    config.p2.value_batch(batch, run_comp, run_rows),
                )
            )
        address, p1, p2 = map(_joined, zip(*parts))
        # Preparation: address translation for every slot in one pass.
        base, shift, mask, alarm_at = np.repeat(plan.per_slot, counts, axis=1)
        index = base + ((address >> shift) & mask)
        if self.journal is not None:
            for tp in plan.slots:
                lo, hi = bounds[tp.slot], bounds[tp.slot + 1]
                key = (self.group_id, self.index, tp.config.task_id)
                if hi > lo and self.journal.wants(*key):
                    self.journal.record(
                        *key, rows[lo:hi], index[lo:hi], p1[lo:hi], p2[lo:hi]
                    )
        # Operation: one stateful update per operation present; export
        # results and processed p1.
        results = _joined(
            [
                self.register.execute_batch(op, index[lo:hi], p1[lo:hi], p2[lo:hi])
                for op, lo, hi in ((op, bounds[a], bounds[b]) for op, a, b in plan.ops)
                if hi > lo
            ]
        )
        where = slice(None) if in_order else rows
        batch.ensure(result_field(self.group_id, self.index))[where] = results
        batch.ensure(param_field(self.group_id, self.index))[where] = p1
        # Alarm digests: one threshold pass for every armed slot, then the
        # (rare) hits split by slot.
        alarms = np.flatnonzero(results >= alarm_at) if plan.armed else ()
        for tp in plan.armed if len(alarms) else ():
            lo, hi = np.searchsorted(alarms, bounds[tp.slot : tp.slot + 2])
            if hi > lo:
                key_rows = self._digest_key_rows(
                    tp.config.digest_key, batch, rows[alarms[lo:hi]]
                )
                self._digests.setdefault(tp.config.task_id, set()).update(
                    map(tuple, key_rows.tolist())
                )
        if _TELEMETRY.enabled:
            if self._access_counter is None:
                self._access_counter = _TELEMETRY.registry.counter(
                    "flymon_register_accesses_total",
                    group=str(self.group_id),
                    cmu=str(self.index),
                )
            self._access_counter.inc(total_rows)

    @staticmethod
    def _digest_key_rows(digest_key, batch, rows: np.ndarray) -> np.ndarray:
        """Columnar ``FlowKeyDef.extract`` for the alarm rows, one row per
        distinct key: most alarm packets repeat a flow that already reported,
        so they are dropped here, in numpy, and the Python digest set sees
        each flow once per batch.  The rows are grouped by a lexsort over the
        key's 16-bit pieces (``uint16`` keys sort by radix)."""
        from repro.traffic.flows import FIELD_WIDTHS

        cols, pieces = [], []
        for name, bits in digest_key.parts:
            width = FIELD_WIDTHS[name]
            col = (batch.get(name)[rows] & ((1 << width) - 1)) >> (width - bits)
            cols.append(col)
            pieces.extend(
                (col >> shift).astype(np.uint16) for shift in range(0, bits, 16)
            )
        order = np.lexsort(pieces)
        cols = [col[order] for col in cols]
        first = np.ones(len(order), dtype=bool)
        first[1:] = np.logical_or.reduce([col[1:] != col[:-1] for col in cols])
        return np.stack([col[first] for col in cols], axis=1)

    def _sampled_batch(
        self, config: CmuTaskConfig, batch, rows: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`_sampled`: boolean keep-mask over ``rows``."""
        ts = batch.get("timestamp")[rows].astype(np.uint64)
        src = batch.get("src_ip")[rows].astype(np.uint64)
        mixed = (
            (ts << np.uint64(32))
            ^ (src << np.uint64(8))
            ^ np.uint64(config.task_id & 0xFF)
        )
        h = self._sample_hash.hash_int_batch(mixed, width=64)
        return h < config.sample_prob * 2.0**32

    def _sampled(self, config: CmuTaskConfig, fields: Mapping[str, int]) -> bool:
        """Deterministic per-packet coin for probabilistic execution (§5.3)."""
        h = self._sample_hash.hash_int(
            (int(fields.get("timestamp", 0)) << 32)
            ^ (int(fields.get("src_ip", 0)) << 8)
            ^ (config.task_id & 0xFF),
            width=64,
        )
        return h < config.sample_prob * 2.0**32

    def __repr__(self) -> str:
        return (
            f"Cmu(group={self.group_id}, index={self.index}, "
            f"tasks={self.task_ids})"
        )
