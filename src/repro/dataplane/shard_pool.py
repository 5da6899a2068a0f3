"""Persistent shard worker pool: resident replicas + shared-memory transport.

The pool is the sharded datapath's one parallel dispatcher: long-lived
``fork`` workers whose :class:`~repro.core.cmu_group.CmuGroup` replicas stay
resident across runs and across epoch rotations, so a window never pays a
replica rebuild or a pickle round-trip of register arrays:

* **control channel** -- a pipe per worker carries *deltas only*: the pool
  mirrors the live groups as :class:`GroupReplicaSpec` tuples and, before
  every run, diffs the mirror against the live state into ``remove`` /
  ``mask`` / ``install`` ops (ordered so re-installs never collide) that
  every worker applies to its resident replica.
* **data channel** -- packet columns go *into* each worker through a
  per-worker anonymous ``mmap`` window (:data:`SHM_ROWS` rows per round,
  column-major ``int64``), and register state comes *back* through a
  per-worker output window laid out register-by-register in native dtype.
  Nothing on the hot path is pickled except journal records for
  replay-law tasks.
* **epoch rotation** -- workers are *delta machines*: every run harvests
  registers into shared memory and zeroes them in place, so a freshly
  rotated epoch needs no worker-side work at all beyond a ``seal``
  acknowledgement.

Shards are contiguous per worker (the same ranges the in-process loop
uses), each streamed through the input window in capacity-sized rounds, so
journals, exports, and merge laws are bit-identical to the in-process path
and a failed worker's shard is simply re-run there
(:func:`repro.dataplane.sharding._retry_serially`).  A dead or hung worker
is terminated, its shard re-run in-process, and the slot respawned from the
mirror -- one bad worker never costs the run.

When ``fork`` is unavailable (spawn-only platforms, sandboxes) the pool
starts no workers and says so through :meth:`PersistentShardPool.
unusable_for`; ``run_sharded`` then runs the shards in-process and records
the reason on ``ShardRunReport.degraded``.  It never crashes.
"""

from __future__ import annotations

import mmap
import time
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataplane import sharding
from repro.dataplane.sharding import (
    GroupReplicaSpec,
    ShardJournal,
    ShardResult,
    ShardingError,
    _accumulate_exports,
    _execute_injection,
    _plan_injection,
    _retry_serially,
    _run_shard_at,
    _shard_timing,
    replica_specs,
)
from repro.telemetry import RECORDER as _RECORDER
from repro.traffic.batch import PacketBatch

#: Rows per worker the shared input window holds per round; traces larger
#: than ``workers * rows`` stream through in multiple rounds.
SHM_ROWS = 1 << 16


class ShardPoolError(ShardingError):
    """Raised for invalid persistent-pool configuration or a closed pool."""


def _diff_specs(
    old: Sequence[GroupReplicaSpec], new: Sequence[GroupReplicaSpec]
) -> List[Tuple]:
    """Delta ops turning replicas built from ``old`` into ``new``.

    Removes run first (freeing memory windows and filter slots), then hash
    mask updates (installs re-resolve translations against the new masks),
    then installs.  ``CmuTaskConfig`` equality ignores the cached
    translation, so an untouched task never ships.
    """
    removes: List[Tuple] = []
    masks: List[Tuple] = []
    installs: List[Tuple] = []
    for old_group, new_group in zip(old, new):
        gid = new_group.group_id
        for unit, (old_mask, new_mask) in enumerate(
            zip(old_group.unit_masks, new_group.unit_masks)
        ):
            if old_mask != new_mask:
                masks.append(("mask", gid, unit, new_mask))
        for cmu_index, (old_cfgs, new_cfgs) in enumerate(
            zip(old_group.cmu_configs, new_group.cmu_configs)
        ):
            old_by_id = {cfg.task_id: cfg for cfg in old_cfgs}
            new_by_id = {cfg.task_id: cfg for cfg in new_cfgs}
            for task_id, cfg in old_by_id.items():
                if task_id not in new_by_id:
                    removes.append(("remove", gid, cmu_index, task_id))
                elif new_by_id[task_id] != cfg:
                    removes.append(("remove", gid, cmu_index, task_id))
                    installs.append(("install", gid, cmu_index, new_by_id[task_id]))
            for task_id, cfg in new_by_id.items():
                if task_id not in old_by_id:
                    installs.append(("install", gid, cmu_index, cfg))
    return removes + masks + installs


def _apply_ops(groups_by_id: Dict[int, object], ops: Sequence[Tuple]) -> None:
    """Apply delta ops to resident replica groups (worker side)."""
    for op in ops:
        kind = op[0]
        if kind == "remove":
            _, gid, cmu_index, task_id = op
            groups_by_id[gid].cmus[cmu_index].remove_task(task_id)
        elif kind == "mask":
            _, gid, unit_index, mask = op
            unit = groups_by_id[gid].hash_units[unit_index]
            if mask.is_empty:
                unit.clear_mask()
            else:
                unit.set_mask(mask)
        elif kind == "install":
            _, gid, cmu_index, config = op
            groups_by_id[gid].cmus[cmu_index].install_task(config)
        else:  # pragma: no cover - protocol error
            raise ShardPoolError(f"unknown delta op {kind!r}")


def _scrub(groups: Sequence) -> None:
    """Zero a replica's run state after a failed run: registers, digests,
    journal hookups.  Rules and masks are never touched by packet
    processing, so the resident structure stays valid."""
    for group in groups:
        for cmu in group.cmus:
            cmu.journal = None
            cmu._digests.clear()
            if cmu.task_plans():
                cmu.register.reset()


def _pool_worker_main(
    conn,
    specs: Sequence[GroupReplicaSpec],
    fields: Sequence[str],
    cap_rows: int,
    in_buf,
    out_buf,
    layout: Dict[Tuple[int, int], Tuple[int, object, int]],
    out_stride: int,
    slot: int,
) -> None:
    """Long-lived worker loop: build replicas once, then serve commands.

    Protocol (one request, one reply, except ``begin`` which is fire and
    forget):

    * ``("sync", ops)`` -> ``("ok",)`` -- apply rule deltas.
    * ``("begin", start, stop, batch_size, tracked, collect, inject)`` --
      arm a run over global rows ``[start, stop)``.
    * ``("rows", lo, hi)`` -> ``("ok", compute_ms)`` -- process the rows the
      parent staged in the input window (global ``[lo, hi)``, a sub-range
      of the armed run).
    * ``("harvest",)`` -> ``("ok", journal_records, exports, out_ms,
      build_ms)`` -- snapshot every register into the output window, zero
      it, and ship the pickled remainder (journal + exports).
    * ``("seal", epoch)`` -> ``("ok", epoch)`` -- epoch rotation barrier.
    * ``("stop",)`` -> ``("ok",)`` and exit.
    """
    try:
        t_build = time.perf_counter()
        groups = [spec.build() for spec in specs]
        build_ms = (time.perf_counter() - t_build) * 1e3
        by_id = {group.group_id: group for group in groups}

        row_bytes = cap_rows * 8
        in_base = slot * len(fields) * row_bytes
        in_cols = {
            name: np.frombuffer(
                in_buf, dtype=np.int64, count=cap_rows, offset=in_base + j * row_bytes
            )
            for j, name in enumerate(fields)
        }
        out_views = {
            key: np.frombuffer(
                out_buf, dtype=dtype, count=size, offset=slot * out_stride + off
            )
            for key, (off, dtype, size) in layout.items()
        }

        ctx: Optional[dict] = None
        journal: Optional[ShardJournal] = None
        exports: Optional[Dict[str, np.ndarray]] = None

        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "rows":
                _, lo, hi = msg
                t0 = time.perf_counter()
                try:
                    inject = ctx.pop("inject", None)
                    if inject is not None:
                        _execute_injection(inject, ctx["start"])
                    n = hi - lo
                    batch_size = ctx["batch_size"]
                    for off in range(0, n, batch_size):
                        top = min(off + batch_size, n)
                        batch = PacketBatch(
                            {name: col[off:top] for name, col in in_cols.items()},
                            length=top - off,
                        )
                        journal.offset = lo + off
                        for group in groups:
                            group.process_batch(batch)
                        if exports is not None:
                            _accumulate_exports(
                                exports,
                                batch,
                                (lo - ctx["start"]) + off,
                                ctx["stop"] - ctx["start"],
                            )
                    conn.send(("ok", (time.perf_counter() - t0) * 1e3))
                except Exception as exc:  # noqa: BLE001 - reported to parent
                    _scrub(groups)
                    ctx = journal = exports = None
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
            elif cmd == "begin":
                _, start, stop, batch_size, tracked, collect, inject = msg
                ctx = {
                    "start": start,
                    "stop": stop,
                    "batch_size": batch_size,
                    "inject": inject,
                }
                journal = ShardJournal(tracked)
                for group in groups:
                    for cmu in group.cmus:
                        cmu.journal = journal
                exports = {} if collect else None
            elif cmd == "harvest":
                t0 = time.perf_counter()
                try:
                    for group in groups:
                        for cmu in group.cmus:
                            cmu.journal = None
                            cmu._digests.clear()
                            if cmu.task_plans():
                                key = (group.group_id, cmu.index)
                                cmu.register.snapshot_into(out_views[key])
                                cmu.register.reset()
                    out_ms = (time.perf_counter() - t0) * 1e3
                    conn.send(("ok", journal._records, exports, out_ms, build_ms))
                    build_ms = 0.0
                    ctx = journal = exports = None
                except Exception as exc:  # noqa: BLE001 - reported to parent
                    _scrub(groups)
                    ctx = journal = exports = None
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
            elif cmd == "sync":
                try:
                    _apply_ops(by_id, msg[1])
                    conn.send(("ok",))
                except Exception as exc:  # noqa: BLE001 - reported to parent
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
            elif cmd == "seal":
                _scrub(groups)
                conn.send(("ok", msg[1]))
            elif cmd == "stop":
                conn.send(("ok",))
                return
    except (EOFError, OSError, KeyboardInterrupt):
        return


class _WorkerFailure(Exception):
    """Internal: a pool worker failed a request."""

    def __init__(self, reason: str, dead: bool, timed_out: bool = False) -> None:
        super().__init__(reason)
        self.reason = reason
        self.dead = dead
        self.timed_out = timed_out


class _ProcWorker:
    __slots__ = ("proc", "conn", "dead")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.dead = False


class PersistentShardPool:
    """Long-lived shard workers with resident replicas (see module docs).

    The pool mirrors the live ``groups`` it was built from; every
    :meth:`sync` re-derives their specs and ships the delta to every worker.
    On a platform where the workers cannot be forked the pool holds none and
    :meth:`unusable_for` says why.
    """

    def __init__(self, groups, workers: int) -> None:
        if workers < 1:
            raise ShardPoolError("worker count must be >= 1")
        import multiprocessing as mp

        from repro.traffic.packet import PACKET_FIELDS

        self._groups = groups
        self.workers = int(workers)
        self.closed = False
        self.seals = 0
        self._mirror: List[GroupReplicaSpec] = replica_specs(groups)
        self._fields: Tuple[str, ...] = tuple(PACKET_FIELDS)
        self._procs: List[_ProcWorker] = []
        #: Why no worker is running (``None`` when the pool is live).
        self.unavailable: Optional[str] = None
        if "fork" not in mp.get_all_start_methods():
            self.unavailable = "fork start method unavailable"
            return
        self._ctx = mp.get_context("fork")
        try:
            self._start_processes()
        except OSError as exc:
            self._stop_workers()
            self.unavailable = f"worker processes failed to start ({exc})"

    # -- construction --------------------------------------------------------

    def _start_processes(self) -> None:
        self._cap = SHM_ROWS
        row_bytes = self._cap * 8
        self._in_buf = mmap.mmap(-1, self.workers * len(self._fields) * row_bytes)

        layout: Dict[Tuple[int, int], Tuple[int, object, int]] = {}
        offset = 0
        for group in self._groups:
            for cmu in group.cmus:
                dtype = cmu.register._cells.dtype
                size = cmu.register.size
                layout[(group.group_id, cmu.index)] = (offset, dtype, size)
                offset += size * dtype.itemsize
        self._layout = layout
        self._stride = offset
        self._out_buf = mmap.mmap(-1, max(1, self.workers * offset))

        self._in_views = []
        self._out_views = []
        for slot in range(self.workers):
            in_base = slot * len(self._fields) * row_bytes
            self._in_views.append(
                {
                    name: np.frombuffer(
                        self._in_buf,
                        dtype=np.int64,
                        count=self._cap,
                        offset=in_base + j * row_bytes,
                    )
                    for j, name in enumerate(self._fields)
                }
            )
            self._out_views.append(
                {
                    key: np.frombuffer(
                        self._out_buf,
                        dtype=dtype,
                        count=size,
                        offset=slot * self._stride + off,
                    )
                    for key, (off, dtype, size) in layout.items()
                }
            )
        for slot in range(self.workers):
            self._procs.append(self._spawn(slot))

    def _spawn(self, slot: int) -> _ProcWorker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                child_conn,
                self._mirror,
                self._fields,
                self._cap,
                self._in_buf,
                self._out_buf,
                self._layout,
                self._stride,
                slot,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _ProcWorker(proc, parent_conn)

    # -- introspection -------------------------------------------------------

    def pids(self) -> List[int]:
        """Worker process ids."""
        return [worker.proc.pid for worker in self._procs]

    def unusable_for(self, trace) -> Optional[Tuple[str, str]]:
        """Why this pool cannot carry ``trace`` -- a ``(label, reason)``
        pair, the label being the ``flymon_shard_fallback_total`` reason --
        or ``None`` when it can."""
        if self.unavailable is not None:
            return "no_fork", self.unavailable
        if set(trace.columns) != set(self._fields):
            return "layout", (
                "trace columns do not fit the pool's shared-memory layout"
            )
        return None

    # -- delta sync ----------------------------------------------------------

    def sync(self) -> int:
        """Ship rule deltas to every worker; returns the op count.

        Re-derives the live state on every call instead of trusting a
        mutation hook: a caller-owned transaction can roll the controller
        back *after* a run synced its mutations, with no hook firing.  Spec
        comparison is a tuple-equality check, so the no-change case costs
        microseconds.
        """
        if self.closed:
            raise ShardPoolError("pool is closed")
        new_mirror = replica_specs(self._groups)
        if new_mirror == self._mirror:
            return 0
        ops = _diff_specs(self._mirror, new_mirror)
        self._mirror = new_mirror
        if not ops:
            return 0
        acked = []
        for slot, worker in enumerate(self._procs):
            if worker.dead:
                continue
            try:
                worker.conn.send(("sync", ops))
                acked.append(slot)
            except (OSError, ValueError):
                worker.dead = True
        for slot in acked:
            try:
                msg = self._await(slot)
                if msg[0] != "ok":
                    raise _WorkerFailure(msg[1], dead=False)
            except _WorkerFailure:
                # A replica that cannot apply the delta is inconsistent;
                # kill it and rebuild from the fresh mirror.
                self._kill(slot)
        self._respawn_dead()
        return len(ops)

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        trace,
        ranges: Sequence[Tuple[int, int]],
        batch_size: int,
        tracked: Optional[frozenset],
        collect_exports: bool,
    ) -> Tuple[List[ShardResult], Dict[str, object]]:
        """Run one sharded pass over the resident workers.

        Returns ``(results, stats)`` under the contract of
        ``sharding._run_in_process`` (``retries`` / ``timeouts`` /
        ``events`` / ``timings`` including ``_submit_pc``) so the caller's
        span grafting and report assembly are shared with that path.
        """
        if self.closed:
            raise ShardPoolError("pool is closed")
        if len(ranges) > self.workers:
            raise ShardPoolError(
                f"run needs {len(ranges)} shards, pool has {self.workers} workers"
            )

        count = len(ranges)
        columns = trace.columns
        stats: Dict[str, object] = {
            "retries": 0, "timeouts": 0, "events": [], "timings": []
        }
        results: List[Optional[ShardResult]] = [None] * count

        submit_pc: Dict[int, float] = {}
        dispatch_ms: Dict[int, float] = {}
        compute_ms: Dict[int, float] = {i: 0.0 for i in range(count)}
        transport_ms: Dict[int, float] = {i: 0.0 for i in range(count)}
        failed: Dict[int, str] = {}

        def fail(i: int, reason: str, timed_out: bool = False) -> None:
            if i in failed:
                return
            failed[i] = reason
            dispatch_ms[i] = (time.perf_counter() - submit_pc[i]) * 1e3
            if timed_out:
                stats["timeouts"] += 1

        for i, (start, stop) in enumerate(ranges):
            worker = self._procs[i]
            submit_pc[i] = time.perf_counter()
            if worker.dead:
                fail(i, "worker process died")
                continue
            try:
                worker.conn.send(
                    ("begin", start, stop, batch_size, tracked,
                     collect_exports, _plan_injection(i))
                )
            except (OSError, ValueError):
                worker.dead = True
                fail(i, "worker process died")

        chunk_lists = [
            [
                (lo, min(lo + self._cap, stop))
                for lo in range(start, stop, self._cap)
            ]
            for start, stop in ranges
        ]
        rounds = max(len(chunks) for chunks in chunk_lists)
        for rnd in range(rounds):
            sent = []
            with _RECORDER.span("shard.shm", cat="dataplane", round=rnd):
                for i in range(count):
                    if i in failed or rnd >= len(chunk_lists[i]):
                        continue
                    lo, hi = chunk_lists[i][rnd]
                    t0 = time.perf_counter()
                    views = self._in_views[i]
                    n = hi - lo
                    for name, col in columns.items():
                        views[name][:n] = col[lo:hi]
                    transport_ms[i] += (time.perf_counter() - t0) * 1e3
                    try:
                        self._procs[i].conn.send(("rows", lo, hi))
                        sent.append(i)
                    except (OSError, ValueError):
                        self._procs[i].dead = True
                        fail(i, "worker process died")
            for i in sent:
                try:
                    msg = self._await(i)
                except _WorkerFailure as exc:
                    fail(i, exc.reason, timed_out=exc.timed_out)
                    continue
                if msg[0] == "ok":
                    compute_ms[i] += msg[1]
                else:
                    fail(i, msg[1])

        harvested = []
        for i in range(count):
            if i in failed:
                continue
            try:
                self._procs[i].conn.send(("harvest",))
                harvested.append(i)
            except (OSError, ValueError):
                self._procs[i].dead = True
                fail(i, "worker process died")
        for i in harvested:
            try:
                msg = self._await(i)
            except _WorkerFailure as exc:
                fail(i, exc.reason, timed_out=exc.timed_out)
                continue
            if msg[0] != "ok":
                fail(i, msg[1])
                continue
            _, records, exports, out_ms, worker_build_ms = msg
            journal = ShardJournal(tracked)
            journal._records = records
            start, stop = ranges[i]
            results[i] = ShardResult(
                start, stop, self._out_views[i], journal, exports,
                build_ms=worker_build_ms, compute_ms=compute_ms[i],
            )
            transport_ms[i] += out_ms
            dispatch_ms[i] = (time.perf_counter() - submit_pc[i]) * 1e3

        run_shard = partial(
            _run_shard_at, self._mirror, columns, ranges, batch_size,
            tracked, collect_exports,
        )
        for i, reason in sorted(failed.items()):
            results[i] = _retry_serially(run_shard, i, reason, stats)
        self._respawn_dead()

        for i, (start, stop) in enumerate(ranges):
            stats["timings"].append(
                _shard_timing(
                    i,
                    stop - start,
                    submit_pc[i],
                    dispatch_ms[i],
                    results[i].build_ms,
                    results[i].compute_ms,
                    transport_ms[i],
                    stats["events"],
                )
            )
        return results, stats

    # -- worker lifecycle ----------------------------------------------------

    def _await(self, slot: int):
        """Wait for one reply; raises :class:`_WorkerFailure` on death or
        when :data:`sharding.SHARD_TIMEOUT_S` passes without one
        (terminating the worker so it cannot wedge the pipe)."""
        worker = self._procs[slot]
        deadline = time.perf_counter() + sharding.SHARD_TIMEOUT_S
        while True:
            try:
                if worker.conn.poll(0.05):
                    return worker.conn.recv()
            except (EOFError, OSError):
                worker.dead = True
                raise _WorkerFailure("worker process died", dead=True)
            if not worker.proc.is_alive():
                # One last drain: the reply may have been written pre-exit.
                try:
                    if worker.conn.poll(0):
                        return worker.conn.recv()
                except (EOFError, OSError):
                    pass
                worker.dead = True
                raise _WorkerFailure("worker process died", dead=True)
            if time.perf_counter() > deadline:
                self._kill(slot)
                raise _WorkerFailure("shard timed out", dead=True, timed_out=True)

    def _kill(self, slot: int) -> None:
        worker = self._procs[slot]
        worker.dead = True
        try:
            worker.proc.terminate()
        except Exception:  # noqa: BLE001 - already gone
            pass

    def _respawn_dead(self) -> None:
        for slot, worker in enumerate(self._procs):
            if not worker.dead:
                continue
            try:
                worker.proc.join(0.5)
            except Exception:  # noqa: BLE001 - already reaped
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
            self._procs[slot] = self._spawn(slot)

    # -- epoch rotation --------------------------------------------------

    def seal_epoch(self, epoch_index: int) -> None:
        """Epoch-rotation barrier: replicas confirm they are zeroed.

        Harvest already resets worker registers after every run, so this is
        a cheap round trip -- it exists so rotation has an explicit
        synchronization point and so a wedged worker is caught (and
        respawned) at the epoch boundary instead of mid-ingest.
        """
        if self.closed:
            return
        self.seals += 1
        sealed = []
        for slot, worker in enumerate(self._procs):
            if worker.dead:
                continue
            try:
                worker.conn.send(("seal", epoch_index))
                sealed.append(slot)
            except (OSError, ValueError):
                worker.dead = True
        for slot in sealed:
            try:
                self._await(slot)
            except _WorkerFailure:
                pass
        self._respawn_dead()

    # -- shutdown --------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and release the pool (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self._stop_workers()
        self._in_views = []
        self._out_views = []

    def _stop_workers(self) -> None:
        for worker in self._procs:
            if worker.dead:
                continue
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self._procs:
            try:
                worker.proc.join(0.5)
                if worker.proc.is_alive():
                    worker.proc.terminate()
                    worker.proc.join(0.2)
            except Exception:  # noqa: BLE001 - shutdown best effort
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
        self._procs = []

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass
