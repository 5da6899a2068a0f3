"""Sharded parallel execution of the batched datapath.

CMU groups only couple through *forward* PHV chaining (§3.2), and row shards
of a trace only couple through the registers they share.  This module
exploits both: a :class:`~repro.traffic.trace.Trace` is split into
contiguous row shards, each shard runs through a fresh per-worker replica of
the deployed CMU groups (zeroed registers, identical rules and hash
seeding), and the worker register states are merged back into the real data
plane **exactly**:

* **sum** -- an unarmed Cond-ADD whose ``p2`` is a constant covering the
  whole bucket range never blocks an update, so each worker cell is the
  modular sum of its shard's increments and the merge is
  ``(base + sum(workers)) mod 2^w`` (CMS et al.).  Wrap-around commutes with
  the sum; only a counter parking *exactly* on the all-ones value would
  diverge, which is why the law requires >= 8-bit buckets;
* **max** -- MAX registers merge by element-wise maximum (always exact);
* **xor** -- XOR registers merge by element-wise XOR (always exact);
* **or** -- an AND-OR task whose ``p2`` is a non-zero constant only ever
  ORs, and OR-only mask composition degenerates to element-wise OR
  (Bloom/coupon inserts);
* **replay** -- everything else (finite-``p2`` Cond-ADD towers, mixed
  AND-OR, and *every* alarm-armed task): workers journal the task's
  post-sampling, post-preparation ``(row, index, p1, p2)`` stream -- which is
  state-free once chained tasks are excluded -- and the merge replays the
  concatenated journal through a scratch register seeded with the
  coordinator's pre-run cells.  Replay reproduces the exact per-packet
  results, so alarm digests are recomputed bit-identically.

Tasks whose parameters read *upstream CMU exports* (``ResultParam``,
``MinResultsParam``, bloom-coupled inter-arrival) are inherently
order-dependent across the whole trace; deployments containing one fall
back to sequential batched execution with the reason recorded on the
returned :class:`ShardRunReport`.

There is one parallel dispatcher -- the resident fork workers of
:class:`~repro.dataplane.shard_pool.PersistentShardPool`, handed in as
``run_sharded(..., pool=...)`` -- and one in-process shard loop
(``pool=None``) that runs the same shards one after another through fresh
replicas.  The in-process loop is also where a crashed or hung pool worker's
shard is retried, and where a run lands when the pool cannot carry it (no
``fork`` on the platform, trace columns outside the shared-memory layout);
every such run is counted in ``flymon_shard_fallback_total{reason=...}``.
Inside a worker the groups are driven directly through
``CmuGroup.process_batch`` -- every stage hook is columnar, so no shard ever
pays the scalar dict round-trip.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataplane.register import Register
from repro.faults import (
    FAULTS,
    FaultError,
    SITE_SHARD_CRASH,
    SITE_SHARD_TIMEOUT,
)
from repro.telemetry import (
    EV_SHARD_RETRY,
    RECORDER as _RECORDER,
    TELEMETRY as _TELEMETRY,
)
from repro.traffic.batch import PacketBatch

#: Column-slice size workers use when the caller does not fix one.
DEFAULT_SHARD_BATCH = 8192

#: Seconds the pool waits for one worker reply before declaring the worker
#: hung, killing it, and re-running its shard in-process.
SHARD_TIMEOUT_S = 30.0

#: In-process re-run attempts for a crashed/hung shard.
SHARD_RETRIES = 2

#: Sleep an injected ``shard_timeout`` fault uses when no argument is given.
DEFAULT_INJECTED_SLEEP_S = 0.5

#: Merge laws (per task): how worker register state folds into the base.
LAW_SUM = "sum"
LAW_MAX = "max"
LAW_XOR = "xor"
LAW_OR = "or"
LAW_REPLAY = "replay"


class ShardingError(RuntimeError):
    """Raised for invalid sharded-execution configuration."""


def default_workers() -> int:
    """Worker count from ``FLYMON_WORKERS`` (unset/empty/invalid -> 1)."""
    raw = os.environ.get("FLYMON_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


def shard_ranges(total: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` row ranges covering ``total`` rows.

    At most ``workers`` non-empty shards whose sizes differ by at most one
    (the uneven tail rides on the first shards).
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if total == 0:
        return []
    count = min(max(1, int(workers)), total)
    size, extra = divmod(total, count)
    ranges = []
    start = 0
    for i in range(count):
        stop = start + size + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


class ShardJournal:
    """Per-shard record of tracked tasks' register-input streams.

    Keyed by ``(group_id, cmu_index, task_id)``; each record holds the
    *global* trace rows (shard offset applied) plus the translated bucket
    indices and both parameters, post-sampling and post-preparation -- i.e.
    exactly the arrays :meth:`Register.execute_batch` would consume.  The
    merge concatenates shard journals in shard order and replays them, which
    reproduces the sequential execution bit-for-bit because everything
    upstream of the register is state-free for non-chained tasks.
    """

    __slots__ = ("tracked", "offset", "_records")

    def __init__(self, tracked: Optional[frozenset] = None, offset: int = 0) -> None:
        #: ``None`` tracks every task; else only keys in the set.
        self.tracked = tracked
        #: Global row index of the current batch's first row.
        self.offset = offset
        self._records: Dict[Tuple[int, int, int], list] = {}

    def wants(self, group_id: int, cmu_index: int, task_id: int) -> bool:
        return self.tracked is None or (group_id, cmu_index, task_id) in self.tracked

    def record(
        self,
        group_id: int,
        cmu_index: int,
        task_id: int,
        rows: np.ndarray,
        index: np.ndarray,
        p1: np.ndarray,
        p2: np.ndarray,
    ) -> None:
        self._records.setdefault((group_id, cmu_index, task_id), []).append(
            (
                np.asarray(rows, dtype=np.int64) + self.offset,
                np.asarray(index, dtype=np.int64),
                np.asarray(p1, dtype=np.int64),
                np.asarray(p2, dtype=np.int64),
            )
        )

    def absorb(self, other: "ShardJournal") -> None:
        """Append another journal's records (callers absorb in shard order)."""
        for key, records in other._records.items():
            self._records.setdefault(key, []).extend(records)

    def entries(self, key: Tuple[int, int, int]):
        """Concatenated ``(rows, index, p1, p2)`` for a task, or ``None``.

        Entries come back in global-row order: shards are absorbed in shard
        order and rows inside a shard are already monotonic, but pool
        workers interleave capacity-sized rounds, so a stable sort by row
        restores the sequential stream when needed.
        """
        records = self._records.get(key)
        if not records:
            return None
        rows, index, p1, p2 = (
            np.concatenate(cols) for cols in zip(*records)
        )
        if rows.size > 1 and np.any(rows[1:] < rows[:-1]):
            order = np.argsort(rows, kind="stable")
            rows, index, p1, p2 = rows[order], index[order], p1[order], p2[order]
        return rows, index, p1, p2


@dataclass(frozen=True)
class GroupReplicaSpec:
    """Everything needed to rebuild a :class:`CmuGroup` replica in a worker.

    Replicas start with zeroed registers but identical rules: same hash
    seeding (derived from ``seed_base`` and ``group_id``), same installed
    hash masks, and the same task configs re-installed in install order
    (``cached_translation`` is stripped and re-resolved on install, keeping
    the spec picklable).
    """

    group_id: int
    register_size: int
    bucket_bits: int
    candidate_fields: Tuple
    seed_base: int
    unit_masks: Tuple
    cmu_configs: Tuple[Tuple, ...]

    @staticmethod
    def from_group(group) -> "GroupReplicaSpec":
        from dataclasses import replace as dc_replace

        return GroupReplicaSpec(
            group_id=group.group_id,
            register_size=group.register_size,
            bucket_bits=group.bucket_bits,
            candidate_fields=group.candidate_fields,
            seed_base=group.seed_base,
            unit_masks=tuple(unit.mask for unit in group.hash_units),
            cmu_configs=tuple(
                tuple(
                    dc_replace(plan.config, cached_translation=None)
                    for plan in cmu.task_plans().values()
                )
                for cmu in group.cmus
            ),
        )

    def build(self):
        from repro.core.cmu_group import CmuGroup

        group = CmuGroup(
            self.group_id,
            num_cmus=len(self.cmu_configs),
            compression_units=len(self.unit_masks),
            register_size=self.register_size,
            bucket_bits=self.bucket_bits,
            candidate_fields=self.candidate_fields,
            seed_base=self.seed_base,
        )
        for unit, mask in zip(group.hash_units, self.unit_masks):
            if not mask.is_empty:
                unit.set_mask(mask)
        for cmu, configs in zip(group.cmus, self.cmu_configs):
            for config in configs:
                cmu.install_task(config)
        return group


def replica_specs(groups: Sequence) -> List[GroupReplicaSpec]:
    return [GroupReplicaSpec.from_group(group) for group in groups]


@dataclass
class ShardResult:
    """One worker's output: final replica cells, journal, spliced exports.

    ``build_ms``/``compute_ms`` are measured *inside* the worker with raw
    ``perf_counter`` reads (a pool worker lives in another process, so it
    cannot append to the dispatcher's flight recorder): replica
    construction vs. the batch loop + register snapshot.
    """

    start: int
    stop: int
    cells: Dict[Tuple[int, int], np.ndarray]
    journal: ShardJournal
    exports: Optional[Dict[str, np.ndarray]]
    build_ms: float = 0.0
    compute_ms: float = 0.0


@dataclass
class ShardRunReport:
    """What a sharded run did: backend, merge laws, fallback, exports.

    ``backend`` names what ran: ``process`` (the resident worker pool),
    ``serial`` (the in-process shard loop) or ``sequential`` (one batched
    pipeline, no sharding).  A run that was meant for the pool but did not
    get there says why: ``fallback`` carries the reason for a sequential
    replay (chained tasks, empty trace) and ``degraded`` the reason an
    attached pool could not be used (no ``fork``, trace columns outside the
    shared-memory layout).  Both are counted in
    ``flymon_shard_fallback_total{reason=chained|empty|no_fork|layout}``.

    ``retries`` counts in-process re-runs of crashed or hung shards,
    ``timeouts`` how many worker replies exceeded the deadline, and
    ``shard_events`` carries one record per recovery action
    (``{"shard": i, "attempt": n, "reason": ..., "elapsed_ms": ...}``) so
    callers can audit what degraded and what the recovery cost.

    ``shard_timings`` holds one phase-attributed record per shard --
    ``{"shard", "rows", "dispatch_ms", "build_ms", "compute_ms",
    "transport_ms", "retried", "retries", "retry_ms"}`` -- where
    ``dispatch_ms`` is the dispatcher-observed submit-to-result wall,
    ``build_ms``/``compute_ms`` are the worker's own measurements
    (``build_ms`` is non-zero on the pool only for the run that (re)built a
    resident replica), and ``transport_ms`` is *measured* copy cost: the
    dispatcher's write of packet columns into the worker's shared-memory
    input window plus the worker's register snapshot into its output window
    (zero in-process, where nothing moves).  ``timing`` aggregates the
    run's phases: ``plan_ms`` (law selection, base snapshots), ``sync_ms``
    (shipping rule deltas to the pool), ``dispatch_ms`` (submit to last
    result), ``merge_ms`` (export splice + journal replay + register fold),
    ``total_ms``.  Both are always populated -- they do not require the
    flight recorder to be enabled.
    """

    packets: int
    workers: int
    shards: int
    backend: str
    fallback: Optional[str]
    merge_laws: Dict[Tuple[int, int, int], str]
    exports: Optional[Dict[str, np.ndarray]] = None
    retries: int = 0
    timeouts: int = 0
    shard_events: List[Dict[str, object]] = field(default_factory=list)
    shard_timings: List[Dict[str, object]] = field(default_factory=list)
    timing: Dict[str, float] = field(default_factory=dict)
    degraded: Optional[str] = None


def _accumulate_exports(acc: Dict[str, np.ndarray], batch, offset: int, total: int) -> None:
    """Fold a processed batch's PHV export columns into full-length arrays."""
    n = len(batch)
    for name in batch.column_names:
        if not name.startswith("_cmu_"):
            continue
        col = acc.get(name)
        if col is None:
            col = acc[name] = np.zeros(total, dtype=np.int64)
        col[offset : offset + n] = batch.get(name)


def _execute_injection(inject: Optional[Tuple], start: int) -> None:
    """Act on a parent-planned fault instruction at shard-worker entry.

    ``("crash", "kill", pid)`` hard-exits the worker *process* (downgraded
    to an exception when the shard runs in the dispatcher's own process);
    any other crash argument raises
    :class:`~repro.faults.FaultError`.  ``("timeout", seconds, pid)``
    sleeps so the dispatcher's per-shard deadline expires.
    """
    if inject is None:
        return
    kind, arg, parent_pid = inject
    if kind == "timeout":
        try:
            seconds = float(arg)
        except (TypeError, ValueError):
            seconds = DEFAULT_INJECTED_SLEEP_S
        time.sleep(seconds)
        return
    if arg == "kill" and os.getpid() != parent_pid:
        os._exit(13)
    raise FaultError(SITE_SHARD_CRASH, {"shard_start": start, "arg": arg})


def _run_shard(
    specs: Sequence[GroupReplicaSpec],
    columns: Dict[str, np.ndarray],
    start: int,
    stop: int,
    batch_size: int,
    tracked: Optional[frozenset],
    collect_exports: bool,
    inject: Optional[Tuple] = None,
) -> ShardResult:
    """Worker body: build replicas, stream the shard, snapshot the state.

    The in-process shard body, and what a failed pool worker's shard is
    re-run through.
    """
    _execute_injection(inject, start)
    t_build = time.perf_counter()
    groups = [spec.build() for spec in specs]
    build_ms = (time.perf_counter() - t_build) * 1e3
    journal = ShardJournal(tracked)
    for group in groups:
        for cmu in group.cmus:
            cmu.journal = journal
    n = stop - start
    exports: Optional[Dict[str, np.ndarray]] = {} if collect_exports else None
    t_compute = time.perf_counter()
    for off in range(0, n, batch_size):
        hi = min(off + batch_size, n)
        batch = PacketBatch(
            {name: col[off:hi] for name, col in columns.items()}, length=hi - off
        )
        journal.offset = start + off
        for group in groups:
            group.process_batch(batch)
        if exports is not None:
            _accumulate_exports(exports, batch, off, n)
    cells: Dict[Tuple[int, int], np.ndarray] = {}
    for group in groups:
        for cmu in group.cmus:
            cmu.journal = None
            if cmu.task_plans():
                cells[(group.group_id, cmu.index)] = cmu.register.snapshot_cells()
    compute_ms = (time.perf_counter() - t_compute) * 1e3
    return ShardResult(
        start, stop, cells, journal, exports,
        build_ms=build_ms, compute_ms=compute_ms,
    )


def is_chained(config) -> bool:
    """Whether a task's inputs depend on upstream CMU exports (PHV chaining),
    which makes its register stream state-dependent and non-shardable."""
    from repro.core.params import InterarrivalProcessor, MinResultsParam, ResultParam

    if isinstance(config.p1, (ResultParam, MinResultsParam)):
        return True
    if isinstance(config.p2, (ResultParam, MinResultsParam)):
        return True
    processor = config.p1_processor
    if isinstance(processor, InterarrivalProcessor) and processor.bloom_group >= 0:
        return True
    return False


def merge_law(plan, bucket_bits: int, value_mask: int) -> str:
    """The cheapest exact law for folding one task's *cells* (see module
    docs).  It depends only on the operation; what to do about alarm
    digests is the caller's policy (shards replay armed tasks, the fabric
    unions digests)."""
    from repro.core.operations import OP_AND_OR, OP_COND_ADD, OP_MAX, OP_XOR
    from repro.core.params import ConstParam

    config = plan.config
    if config.op == OP_MAX:
        return LAW_MAX
    if config.op == OP_XOR:
        return LAW_XOR
    if config.op == OP_COND_ADD:
        if (
            isinstance(config.p2, ConstParam)
            and (config.p2.constant & value_mask) == value_mask
            and bucket_bits >= 8
        ):
            return LAW_SUM
        return LAW_REPLAY
    if config.op == OP_AND_OR:
        if isinstance(config.p2, ConstParam) and (config.p2.constant & value_mask):
            return LAW_OR
        return LAW_REPLAY
    return LAW_REPLAY


def _plan_injection(shard_index: int) -> Optional[Tuple]:
    """Parent-side fault planning for one shard dispatch.

    The deterministic hit counter lives in the *dispatcher's* injector, so
    ``shard_crash@2`` fails exactly the second shard on the pool and
    in-process alike -- and, one-shot arms disarming on fire, the re-run of
    that shard succeeds.  Workers never trip shard sites themselves.
    """
    if not FAULTS.armed:
        return None
    arg = FAULTS.trip(SITE_SHARD_CRASH, shard=shard_index)
    if arg is not None:
        return ("crash", arg if isinstance(arg, str) else "raise", os.getpid())
    arg = FAULTS.trip(SITE_SHARD_TIMEOUT, shard=shard_index)
    if arg is not None:
        sleep = arg if isinstance(arg, str) else str(DEFAULT_INJECTED_SLEEP_S)
        return ("timeout", sleep, os.getpid())
    return None


def _run_shard_at(
    specs: Sequence[GroupReplicaSpec],
    columns: Dict[str, np.ndarray],
    ranges: Sequence[Tuple[int, int]],
    batch_size: int,
    tracked: Optional[frozenset],
    collect_exports: bool,
    index: int,
) -> ShardResult:
    """Plan shard ``index``'s fault injection and run it in this process."""
    start, stop = ranges[index]
    return _run_shard(
        specs,
        {name: col[start:stop] for name, col in columns.items()},
        start,
        stop,
        batch_size,
        tracked,
        collect_exports,
        _plan_injection(index),
    )


def _retry_serially(
    run_shard: Callable[[int], ShardResult],
    index: int,
    reason: str,
    stats: Dict[str, object],
) -> ShardResult:
    """Re-run a failed shard in-process, bounded by :data:`SHARD_RETRIES`;
    raises :class:`ShardingError` when exhausted."""
    attempts = SHARD_RETRIES
    last: Optional[BaseException] = None
    for attempt in range(1, attempts + 1):
        stats["retries"] += 1
        event: Dict[str, object] = {
            "shard": index, "attempt": attempt, "reason": reason
        }
        stats["events"].append(event)
        if _TELEMETRY.enabled:
            _TELEMETRY.registry.counter("flymon_shard_retries_total").inc()
            _TELEMETRY.events.emit(
                EV_SHARD_RETRY, shard=index, attempt=attempt, reason=reason
            )
        t0 = time.perf_counter()
        try:
            result = run_shard(index)
        except Exception as exc:  # noqa: BLE001 - bounded, surfaced below
            event["elapsed_ms"] = (time.perf_counter() - t0) * 1e3
            last = exc
            reason = f"{type(exc).__name__}: {exc}"
        else:
            event["elapsed_ms"] = (time.perf_counter() - t0) * 1e3
            return result
    raise ShardingError(
        f"shard {index} failed after {attempts} serial re-dispatch(es): {reason}"
    ) from last


def _shard_timing(
    index: int,
    rows: int,
    submit_pc: float,
    dispatch_ms: float,
    build_ms: float,
    compute_ms: float,
    transport_ms: float,
    events: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """One :attr:`ShardRunReport.shard_timings` record, plus a private
    ``_submit_pc`` (raw ``perf_counter`` submit time) that ``run_sharded``
    strips after placing synthetic spans on the flight-recorder timeline."""
    mine = [e for e in events if e["shard"] == index]
    return {
        "shard": index,
        "rows": rows,
        "dispatch_ms": dispatch_ms,
        "build_ms": build_ms,
        "compute_ms": compute_ms,
        "transport_ms": transport_ms,
        "retried": bool(mine),
        "retries": len(mine),
        "retry_ms": sum(e.get("elapsed_ms", 0.0) for e in mine),
        "_submit_pc": submit_pc,
    }


def _run_in_process(
    specs: Sequence[GroupReplicaSpec],
    columns: Dict[str, np.ndarray],
    ranges: Sequence[Tuple[int, int]],
    batch_size: int,
    tracked: Optional[frozenset],
    collect_exports: bool,
) -> Tuple[List[ShardResult], Dict[str, object]]:
    """Run every shard, in shard order, in this process.

    A shard that raises is re-run with bounded retries.  Returns
    ``(results, stats)`` with ``stats = {"retries", "timeouts", "events",
    "timings"}`` -- the contract :meth:`PersistentShardPool.execute` shares.
    """
    stats: Dict[str, object] = {
        "retries": 0, "timeouts": 0, "events": [], "timings": []
    }
    results: List[ShardResult] = []
    run_shard = partial(
        _run_shard_at, specs, columns, ranges, batch_size, tracked, collect_exports
    )
    for i, (start, stop) in enumerate(ranges):
        submit = time.perf_counter()
        try:
            result = run_shard(i)
        except Exception as exc:  # noqa: BLE001 - recovered below
            observed = (time.perf_counter() - submit) * 1e3
            result = _retry_serially(
                run_shard, i, f"{type(exc).__name__}: {exc}", stats
            )
        else:
            observed = (time.perf_counter() - submit) * 1e3
        results.append(result)
        stats["timings"].append(
            _shard_timing(
                i, stop - start, submit, observed,
                result.build_ms, result.compute_ms, 0.0, stats["events"],
            )
        )
    return results, stats


def _count_fallback(label: str) -> None:
    """No silent slow path: count a sharded request that left the pool."""
    if _TELEMETRY.enabled:
        _TELEMETRY.registry.counter(
            "flymon_shard_fallback_total", reason=label
        ).inc()


def _sequential(
    groups,
    trace,
    batch_size: int,
    collect_exports: bool,
    label: str,
    reason: str,
    workers: int,
) -> ShardRunReport:
    """Single-pipeline batched fallback (still collects exports on request)."""
    _count_fallback(label)
    n = len(trace)
    exports: Optional[Dict[str, np.ndarray]] = {} if collect_exports else None
    offset = 0
    t0 = time.perf_counter()
    with _RECORDER.span(
        "shard.sequential", cat="dataplane", packets=n, reason=reason
    ):
        for batch in trace.iter_batches(batch_size):
            for group in groups:
                group.process_batch(batch)
            if exports is not None:
                _accumulate_exports(exports, batch, offset, n)
            offset += len(batch)
    total_ms = (time.perf_counter() - t0) * 1e3
    return ShardRunReport(
        packets=n,
        workers=workers,
        shards=0,
        backend="sequential",
        fallback=reason,
        merge_laws={},
        exports=exports,
        timing={
            "plan_ms": 0.0,
            "sync_ms": 0.0,
            "dispatch_ms": 0.0,
            "merge_ms": 0.0,
            "total_ms": total_ms,
        },
    )


def _merge_into(
    groups,
    base: Dict[Tuple[int, int], np.ndarray],
    journal: ShardJournal,
    shard_results: Sequence[ShardResult],
    laws: Dict[Tuple[int, int, int], str],
    trace,
    exports: Optional[Dict[str, np.ndarray]],
) -> None:
    """Fold worker register state back into the live CMUs, law by law.

    Replayed tasks also recompute their alarm digests (into the live CMU's
    digest queues) and, when export collection is on, scatter their exact
    per-packet results into the spliced export columns.
    """
    from repro.core.cmu import Cmu
    from repro.core.operations import load_reduced_operation_set
    from repro.core.params import param_field, result_field

    full_batch = None
    for group in groups:
        for cmu in group.cmus:
            plans = cmu.task_plans()
            if not plans:
                continue
            location = (group.group_id, cmu.index)
            base_cells = base[location]
            worker_cells = [result.cells[location] for result in shard_results]
            mask = cmu.register.value_mask
            merged = base_cells.copy()
            scratch = None
            for task_id, plan in plans.items():
                config = plan.config
                law = laws[(group.group_id, cmu.index, task_id)]
                window = slice(config.mem.base, config.mem.end)
                if law == LAW_SUM:
                    acc = base_cells[window].copy()
                    for cells in worker_cells:
                        acc += cells[window]
                    merged[window] = acc & mask
                elif law == LAW_MAX:
                    acc = base_cells[window]
                    for cells in worker_cells:
                        acc = np.maximum(acc, cells[window])
                    merged[window] = acc
                elif law == LAW_XOR:
                    acc = base_cells[window].copy()
                    for cells in worker_cells:
                        acc ^= cells[window]
                    merged[window] = acc
                elif law == LAW_OR:
                    acc = base_cells[window].copy()
                    for cells in worker_cells:
                        acc |= cells[window]
                    merged[window] = acc
                else:  # LAW_REPLAY
                    entry = journal.entries((group.group_id, cmu.index, task_id))
                    if entry is None:
                        continue  # no packet matched the task; base state holds
                    if scratch is None:
                        scratch = Register(cmu.register.size, cmu.register.bit_width)
                        load_reduced_operation_set(scratch)
                        scratch.load_cells(base_cells)
                    rows, index, p1, p2 = entry
                    results = scratch.execute_batch(config.op, index, p1, p2)
                    merged[window] = scratch.read_range(config.mem.base, config.mem.length)
                    if plan.alarm_armed:
                        hits = rows[results >= config.alarm_threshold]
                        if hits.size:
                            if full_batch is None:
                                full_batch = trace.as_batch()
                            keys = Cmu._digest_key_rows(
                                config.digest_key, full_batch, hits
                            )
                            cmu._digests.setdefault(task_id, set()).update(
                                map(tuple, keys.tolist())
                            )
                    if exports is not None:
                        total = len(trace)
                        name = result_field(group.group_id, cmu.index)
                        column = exports.setdefault(name, np.zeros(total, dtype=np.int64))
                        column[rows] = results
                        name = param_field(group.group_id, cmu.index)
                        column = exports.setdefault(name, np.zeros(total, dtype=np.int64))
                        column[rows] = p1
            cmu.register.load_cells(merged)


def run_sharded(
    groups,
    trace,
    workers: int,
    batch_size: Optional[int] = None,
    collect_exports: bool = False,
    exact_exports: bool = False,
    pool=None,
) -> ShardRunReport:
    """Replay ``trace`` through ``groups`` using sharded execution.

    Register state, digests, and (for replayed tasks) PHV exports end up
    bit-identical to a sequential replay.  ``exact_exports=True`` forces
    *every* task onto the replay law so the returned export columns are
    exact for all tasks -- a verification mode that trades the parallel
    speedup for full per-packet output.

    ``pool`` -- a :class:`~repro.dataplane.shard_pool.PersistentShardPool`
    whose resident replicas are delta-synced before the run -- executes the
    shards in parallel; ``pool=None`` runs them one after another in this
    process.  A pool that cannot carry the run (no ``fork``, trace columns
    outside its shared-memory layout) also lands in-process, with the
    reason on ``ShardRunReport.degraded``; it never fails the run.

    Deployments with chained tasks (parameters reading upstream CMU exports)
    fall back to sequential batched execution; the report's ``fallback``
    field carries the reason.
    """
    if exact_exports:
        collect_exports = True
    if batch_size is None or batch_size <= 0:
        batch_size = DEFAULT_SHARD_BATCH
    workers = max(1, int(workers))
    n = len(trace)
    t_run = time.perf_counter()

    plans: Dict[Tuple[int, int, int], tuple] = {}
    for group in groups:
        for cmu in group.cmus:
            for task_id, plan in cmu.task_plans().items():
                plans[(group.group_id, cmu.index, task_id)] = (cmu, plan)
    chained = sorted(
        key for key, (_, plan) in plans.items() if is_chained(plan.config)
    )
    if chained:
        described = ", ".join(
            f"cmug{g}/cmu{c}/task{t}" for g, c, t in chained[:4]
        ) + ("..." if len(chained) > 4 else "")
        return _sequential(
            groups,
            trace,
            batch_size,
            collect_exports,
            "chained",
            f"chained tasks read upstream exports ({described})",
            workers,
        )
    if n == 0:
        return _sequential(
            groups, trace, batch_size, collect_exports, "empty", "empty trace",
            workers,
        )

    degraded: Optional[str] = None
    if pool is not None:
        unusable = pool.unusable_for(trace)
        if unusable is not None:
            label, degraded = unusable
            _count_fallback(label)
            pool = None

    with _RECORDER.span("shard.run", cat="dataplane", packets=n, workers=workers):
        t_plan = time.perf_counter()
        with _RECORDER.span("shard.plan", cat="dataplane"):
            laws = {
                key: (
                    # Alarms fire on state-dependent results; only replay
                    # reproduces the exact digest stream.
                    LAW_REPLAY
                    if exact_exports or plan.alarm_armed
                    else merge_law(plan, cmu.bucket_bits, cmu.register.value_mask)
                )
                for key, (cmu, plan) in plans.items()
            }
            tracked = (
                None
                if exact_exports
                else frozenset(key for key, law in laws.items() if law == LAW_REPLAY)
            )

            base = {
                (group.group_id, cmu.index): cmu.register.snapshot_cells()
                for group in groups
                for cmu in group.cmus
                if cmu.task_plans()
            }
            ranges = shard_ranges(n, workers)
        plan_ms = (time.perf_counter() - t_plan) * 1e3

        sync_ms = 0.0
        if pool is not None:
            t_sync = time.perf_counter()
            with _RECORDER.span("shard.sync", cat="dataplane"):
                pool.sync()
            sync_ms = (time.perf_counter() - t_sync) * 1e3

        t_dispatch = time.perf_counter()
        with _RECORDER.span(
            "shard.dispatch", cat="dataplane", shards=len(ranges)
        ) as dispatch_sp:
            if pool is not None:
                shard_results, dispatch_stats = pool.execute(
                    trace, ranges, batch_size, tracked, collect_exports
                )
            else:
                shard_results, dispatch_stats = _run_in_process(
                    replica_specs(groups),
                    trace.columns,
                    ranges,
                    batch_size,
                    tracked,
                    collect_exports,
                )
        dispatch_total_ms = (time.perf_counter() - t_dispatch) * 1e3

        # Graft worker-side timings onto the recorder timeline.  Pool workers
        # live in other processes, so the dispatcher places synthetic spans
        # from the floats each ShardResult carried back: one ``shard.worker``
        # per shard (submit-to-result wall, plus retry time), with
        # build / compute / transport / retry children laid out sequentially
        # from the recorded submit instant.
        timings: List[Dict[str, object]] = dispatch_stats["timings"]
        for record in timings:
            submit = record.pop("_submit_pc", None)
            if not _RECORDER.enabled or submit is None:
                continue
            start = _RECORDER.rel_us(submit)
            worker_wall = record["dispatch_ms"] + record["retry_ms"]
            worker_id = _RECORDER.add(
                "shard.worker",
                worker_wall,
                parent_id=dispatch_sp.span_id,
                start_us=start,
                cat="dataplane",
                shard=record["shard"],
                rows=record["rows"],
                retried=record["retried"],
            )
            offset_us = start
            for child, key in (
                ("shard.build", "build_ms"),
                ("shard.compute", "compute_ms"),
                ("shard.transport", "transport_ms"),
            ):
                ms = record[key]
                if ms <= 0.0:
                    continue
                _RECORDER.add(
                    child,
                    ms,
                    parent_id=worker_id,
                    start_us=offset_us,
                    cat="dataplane",
                    shard=record["shard"],
                )
                offset_us += ms * 1e3
            if record["retry_ms"] > 0.0:
                _RECORDER.add(
                    "shard.retry",
                    record["retry_ms"],
                    parent_id=worker_id,
                    start_us=offset_us,
                    cat="dataplane",
                    shard=record["shard"],
                    retries=record["retries"],
                )

        t_merge = time.perf_counter()
        with _RECORDER.span("shard.merge", cat="dataplane"):
            exports: Optional[Dict[str, np.ndarray]] = None
            if collect_exports:
                exports = {}
                for result in shard_results:
                    for name, arr in (result.exports or {}).items():
                        column = exports.get(name)
                        if column is None:
                            column = exports[name] = np.zeros(n, dtype=np.int64)
                        column[result.start : result.stop] = arr

            journal = ShardJournal(tracked)
            for result in shard_results:
                journal.absorb(result.journal)
            _merge_into(groups, base, journal, shard_results, laws, trace, exports)
        merge_ms = (time.perf_counter() - t_merge) * 1e3

    if _TELEMETRY.enabled:
        _TELEMETRY.registry.counter("flymon_sharded_runs_total").inc()
        _TELEMETRY.registry.counter("flymon_sharded_packets_total").inc(n)

    return ShardRunReport(
        packets=n,
        workers=workers,
        shards=len(ranges),
        backend="serial" if pool is None else "process",
        fallback=None,
        merge_laws=laws,
        exports=exports,
        retries=dispatch_stats["retries"],
        timeouts=dispatch_stats["timeouts"],
        shard_events=dispatch_stats["events"],
        shard_timings=timings,
        timing={
            "plan_ms": plan_ms,
            "sync_ms": sync_ms,
            "dispatch_ms": dispatch_total_ms,
            "merge_ms": merge_ms,
            "total_ms": (time.perf_counter() - t_run) * 1e3,
        },
        degraded=degraded,
    )
