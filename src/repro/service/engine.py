"""The streaming epoch engine.

:class:`MeasurementService` layers continuous operation on top of
:class:`~repro.core.controller.FlyMonController`: traffic is ingested in
arbitrary chunks (whole traces, column batches, single packets), epochs
rotate on packet-count or packet-time boundaries, and every rotation *seals*
the epoch -- the hosting registers are snapshotted via
:meth:`Register.snapshot_into` into an immutable :class:`SealedEpoch`, the
per-epoch alarm digests are drained, and the deployments are reset so the
next window starts fresh.  Sealed epochs live in a bounded ring
(``retain``), so long-running services hold a sliding time series of the
last N windows without unbounded growth.

Ingestion rides the vectorized fast path: chunks go through
``controller.process_trace(batch_size=...)`` (the batched engine) -- never
the scalar per-packet loop (``batch_size=0`` forces it, for differential
tests only).  The batched engine is bit-identical to scalar replay, so
sealed state matches a one-shot run of the same window exactly.
"""

from __future__ import annotations

import copy
import sys
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.controller import FlyMonController, TaskHandle
from repro.telemetry import (
    DEFAULT_MS_BUCKETS,
    EV_EPOCH_SEAL,
    EV_INGEST_SHED,
    EV_SEALER_RESTARTED,
    EV_WATCHER_ACTION,
    EV_WATCHER_FIRED,
    RECORDER as _RECORDER,
    TELEMETRY as _TELEMETRY,
)
from repro.traffic.batch import env_batch_size
from repro.traffic.packet import PACKET_FIELDS
from repro.traffic.trace import Trace

#: Default ingest batch size when ``FLYMON_BATCH_SIZE`` is unset.
DEFAULT_SERVICE_BATCH = 8192


def _default_batch_size() -> int:
    value = env_batch_size()
    return value if value is not None and value > 0 else DEFAULT_SERVICE_BATCH


class StaleEpochError(KeyError):
    """The queried task was not deployed when this epoch was sealed (or its
    deployment changed since), so the sealed snapshot cannot answer for it."""


#: Cap on the bytes :class:`_SnapshotPool` parks per array length.
SNAPSHOT_POOL_BYTES = 64 << 20


def _sole_reference_count() -> Optional[int]:
    """What ``sys.getrefcount`` says about an array only :meth:`reclaim`'s
    local holds -- measured, in the statement shape ``reclaim`` uses, so the
    test does not hard-code one interpreter's accounting.  ``None`` (never
    recycle) where there are no reference counts to ask."""
    if not hasattr(sys, "getrefcount"):
        return None
    _key, arr = {0: np.empty(0, dtype=np.int64)}.popitem()
    return sys.getrefcount(arr)


class _SnapshotPool:
    """Parks the cell arrays of dead sealed epochs for the next seal.

    A seal copies every hosting register into an ``int64`` array (512 KB
    each).  Left to ``malloc``, that copy costs 0.7 ms when the pages are
    still resident and 2.1 ms when the heap was trimmed since and they fault
    back in 4 KB at a time -- which of the two depends on what else the
    process freed, not on the seal.  So an epoch the service sealed hands its
    arrays back when it dies (:meth:`SealedEpoch.__del__`), and only those:
    every page of them has been written.  An array something else still
    references (a bound estimator, a view) stays with its holder.  Lock-free
    on purpose -- ``__del__`` can run inside any allocation, and ``list.pop``
    / ``append`` are atomic.
    """

    def __init__(self, limit_bytes: int) -> None:
        self.limit_bytes = limit_bytes
        self._spare: Dict[int, List[np.ndarray]] = {}
        self._sole = _sole_reference_count()

    def take(self, size: int) -> np.ndarray:
        """An ``int64[size]`` array with arbitrary contents."""
        try:
            return self._spare[size].pop()
        except (KeyError, IndexError):
            return np.empty(size, dtype=np.int64)

    def reclaim(self, cells: Dict[Tuple[int, int], np.ndarray]) -> None:
        """Empty ``cells``, keeping the arrays nothing else refers to."""
        while cells and self._sole is not None:
            _key, arr = cells.popitem()
            if sys.getrefcount(arr) != self._sole:
                continue
            spare = self._spare.setdefault(len(arr), [])
            if (len(spare) + 1) * arr.nbytes <= self.limit_bytes:
                spare.append(arr)


_SNAPSHOTS = _SnapshotPool(SNAPSHOT_POOL_BYTES)


class SealedRowView:
    """A read-only stand-in for one deployed row, backed by sealed cells.

    Mirrors the :class:`~repro.core.algorithms.base.RowBinding` query
    surface (``read`` / ``value_for_fields`` / ``probe`` plus the
    ``group``/``cmu``/``config``/``mem`` attributes the estimators consult),
    but every cell access resolves against the epoch's immutable snapshot
    array instead of the live register.  Address computation (key
    compression, CMU index translation) delegates to the live binding --
    those paths are pure functions of the deployment's configuration --
    so a sealed read is bit-identical to what the live register held at the
    instant of sealing, without ever touching it.
    """

    __slots__ = ("_binding", "_cells")

    def __init__(self, binding, cells: np.ndarray) -> None:
        self._binding = binding
        self._cells = cells

    @property
    def group(self):
        return self._binding.group

    @property
    def cmu(self):
        return self._binding.cmu

    @property
    def task_id(self) -> int:
        return self._binding.task_id

    @property
    def config(self):
        return self._binding.config

    @property
    def mem(self):
        return self._binding.mem

    def read(self) -> np.ndarray:
        mem = self._binding.mem
        return self._cells[mem.base : mem.base + mem.length].copy()

    def value_for_fields(self, fields: Dict[str, int]) -> int:
        binding = self._binding
        compressed = binding.group.compress(fields)
        index = binding.cmu.index_for(binding.task_id, compressed)
        return int(self._cells[index & (len(self._cells) - 1)])

    def probe(self, fields: Dict[str, int]) -> Tuple[int, int, int]:
        binding = self._binding
        compressed = binding.group.compress(fields)
        cfg = binding.config
        index = binding.cmu.index_for(binding.task_id, compressed)
        value = int(self._cells[index & (len(self._cells) - 1)])
        p1 = cfg.p1_processor.apply(cfg.p1.value(fields, compressed), fields)
        return index, value, p1

    def reset(self) -> None:
        raise TypeError("sealed epochs are immutable; rows cannot be reset")


class SealedEpoch:
    """One finished epoch's immutable measurement state.

    Holds full-register snapshots of every CMU that hosted a task at seal
    time, the epoch's drained alarm digests, and any registered series
    outputs.  Queries resolve through :meth:`bind`: a detached copy of the
    task's estimator whose row bindings read the sealed cell arrays
    directly.  Sealed answers are bit-identical to querying the live state
    at the instant of sealing, and -- because resolution never touches the
    live registers -- any number of threads can query sealed epochs while
    ingestion continues.
    """

    def __init__(
        self,
        index: int,
        packets: int,
        start_ts: Optional[int],
        end_ts: Optional[int],
        cells: Dict[Tuple[int, int], np.ndarray],
        registers: Dict[Tuple[int, int], object],
        task_ids: Sequence[int],
        digest_sets: Dict[Tuple[int, int, int], set],
    ) -> None:
        self.index = index
        self.packets = packets
        self.start_ts = start_ts
        self.end_ts = end_ts
        self.seal_ms: float = 0.0
        self.outputs: Dict[str, object] = {}
        self.watcher_events: List[object] = []
        self.task_ids = frozenset(task_ids)
        self.digest_sets = digest_sets
        self._cells = cells
        self._registers = registers
        # task_id -> detached estimator bound to the sealed cells.  Plain
        # dict on purpose: entries are immutable once built, and a racing
        # rebuild just produces an equivalent object.
        self._bound: Dict[int, object] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SealedEpoch(index={self.index}, packets={self.packets}, "
            f"tasks={sorted(self.task_ids)})"
        )

    #: Set by the service on the epochs it seals: their ``cells`` came from
    #: :data:`_SNAPSHOTS` and go back to it when the epoch dies.
    _pooled = False

    def __del__(self) -> None:
        if self._pooled and not sys.is_finalizing():
            self._bound.clear()  # the cached estimators' views of the arrays
            _SNAPSHOTS.reclaim(self._cells)

    # -- sealed state access ------------------------------------------------

    def has_task(self, task_id: int) -> bool:
        return task_id in self.task_ids

    def cells(self, group_id: int, cmu_index: int) -> np.ndarray:
        """Copy of one register's sealed cell array."""
        return self._cells[(group_id, cmu_index)].copy()

    def require_task(self, handle: TaskHandle) -> None:
        if not self.has_task(handle.task_id):
            raise StaleEpochError(
                f"task {handle.task_id} was not sealed in epoch {self.index} "
                f"(sealed tasks: {sorted(self.task_ids)})"
            )

    def read_rows(self, handle: TaskHandle) -> List[np.ndarray]:
        """The task's per-row memory slices as sealed (no register access)."""
        self.require_task(handle)
        out = []
        for row in handle.rows:
            mem = row.mem
            cells = self._cells[(row.group.group_id, row.cmu.index)]
            out.append(cells[mem.base : mem.base + mem.length].copy())
        return out

    def digests(self, handle: TaskHandle) -> List[set]:
        """Per-row alarm digest sets drained at seal time."""
        self.require_task(handle)
        return [
            set(
                self.digest_sets.get(
                    (row.group.group_id, row.cmu.index, handle.task_id), set()
                )
            )
            for row in handle.rows
        ]

    def bind(self, handle: TaskHandle):
        """A detached copy of the task's estimator reading this epoch.

        The returned algorithm instance shares the deployment's
        configuration (key selectors, address translation, processors) but
        its row bindings are :class:`SealedRowView` objects over this
        epoch's snapshot arrays, so running any estimator on it neither
        reads nor writes the live registers.  Lock-free: safe to call (and
        to query the result) from any number of threads while ingestion
        continues.
        """
        self.require_task(handle)
        algo = self._bound.get(handle.task_id)
        if algo is not None and algo.task is handle.algorithm.task:
            return algo
        algo = copy.copy(handle.algorithm)
        algo.rows = [
            SealedRowView(row, self._cells[(row.group.group_id, row.cmu.index)])
            for row in handle.rows
        ]
        self._bound[handle.task_id] = algo
        return algo


class MeasurementService:
    """A continuously running measurement pipeline over one controller.

    Rotation policy (exactly one, or none for manual :meth:`rotate`):

    * ``epoch_packets`` -- seal after every N ingested packets;
    * ``epoch_duration_us`` -- seal whenever a packet's timestamp crosses
      the current epoch's end (timestamps must be non-decreasing, as they
      are in captured and generated traces);
    * ``epoch_wall_ms`` -- real-time rotation: :meth:`start` launches a
      background thread that seals every N wall-clock milliseconds while
      ingestion continues on the caller's thread(s).

    ``retain`` bounds the sealed-epoch ring; ``batch_size`` sets the
    batched engine's chunk size for every ingested chunk.

    Concurrency model: ingestion and sealing serialize on an internal lock
    (held per processing window, so the wall-clock sealer interleaves at
    window boundaries); queries against sealed epochs are lock-free (see
    :meth:`SealedEpoch.bind`) and may run from any number of threads.
    Live-window queries and single-packet buffering belong to the ingest
    thread.
    """

    def __init__(
        self,
        controller: FlyMonController,
        epoch_packets: Optional[int] = None,
        epoch_duration_us: Optional[int] = None,
        retain: int = 8,
        batch_size: Optional[int] = None,
        workers: int = 1,
        runtime: Optional[str] = None,
        epoch_wall_ms: Optional[float] = None,
        max_stall_ms: Optional[float] = None,
        sealer_restart_budget: int = 3,
    ) -> None:
        modes = [
            name
            for name, value in (
                ("epoch_packets", epoch_packets),
                ("epoch_duration_us", epoch_duration_us),
                ("epoch_wall_ms", epoch_wall_ms),
            )
            if value is not None
        ]
        if len(modes) > 1:
            raise ValueError(
                "choose one of epoch_packets / epoch_duration_us / "
                f"epoch_wall_ms (got {', '.join(modes)})"
            )
        if epoch_packets is not None and epoch_packets <= 0:
            raise ValueError("epoch_packets must be positive")
        if epoch_duration_us is not None and epoch_duration_us <= 0:
            raise ValueError("epoch_duration_us must be positive")
        if epoch_wall_ms is not None and epoch_wall_ms <= 0:
            raise ValueError("epoch_wall_ms must be positive")
        if retain <= 0:
            raise ValueError("retain must be positive")
        if max_stall_ms is not None and max_stall_ms <= 0:
            raise ValueError("max_stall_ms must be positive")
        if sealer_restart_budget < 0:
            raise ValueError("sealer_restart_budget must be >= 0")
        # -- frozen-ladder shim: benchmarks/ladder/adapter.py:358-359 passes
        # MeasurementService(workers=spec.workers, runtime=...) and
        # adapter.py:372 reads last_shard_report.  ``workers`` and
        # ``runtime`` are checked, then ignored (there is one datapath
        # process), and ``last_shard_report`` is always None.  All three go
        # away with the ladder's sharded_steady rung in ladder v2 (ROADMAP
        # direction 5).
        if not isinstance(workers, int) or workers < 1:
            raise ValueError(f"workers must be an int >= 1 (got {workers!r})")
        if runtime not in (None, "persistent"):
            raise ValueError(
                f"unknown runtime {runtime!r}: only None or 'persistent'"
            )
        self.last_shard_report = None
        self.controller = controller
        self.epoch_packets = epoch_packets
        self.epoch_duration_us = epoch_duration_us
        self.epoch_wall_ms = epoch_wall_ms
        self.retain = retain
        self.batch_size = batch_size
        self.watchers: List[object] = []
        self.watcher_log: List[object] = []
        self._series: Dict[str, object] = {}
        self._ring: Deque[SealedEpoch] = deque(maxlen=retain)
        self._epoch_index = 0
        self._epoch_fill = 0
        self._packets_total = 0
        self._epoch_start_ts: Optional[int] = None
        self._epoch_min_ts: Optional[int] = None
        self._epoch_max_ts: Optional[int] = None
        self._pending_fields: List[Dict[str, int]] = []
        # Serializes ingestion windows against seals.  Reentrant so a seal
        # triggered from inside an ingest window (packet/duration
        # boundaries) nests cleanly.
        self._lock = threading.RLock()
        self._wall_thread: Optional[threading.Thread] = None
        self._wall_stop = threading.Event()
        # Overload protection: when set, an ingest window that cannot take
        # the lock within this bound is shed whole (exact accounting below)
        # instead of queueing unboundedly behind a slow seal/WAL/disk.
        self.max_stall_ms = max_stall_ms
        self.dropped_packets = 0
        self.dropped_windows = 0
        # Sealer supervision (epoch_wall_ms mode): the watchdog restarts a
        # dead sealer thread up to ``sealer_restart_budget`` times and
        # counts deadlines the sealer missed by more than 3 intervals.
        self.sealer_restart_budget = max(0, int(sealer_restart_budget))
        self.sealer_restarts = 0
        self.sealer_missed_deadlines = 0
        self._sealer_failed: Optional[str] = None
        self._sealer_tick: float = 0.0
        self._watchdog_thread: Optional[threading.Thread] = None
        # Optional write-ahead log (see repro.service.wal.ServiceWal):
        # epoch seals are appended as WAL records inside the seal critical
        # section, after watchers ran.
        self._wal = None
        #: Cumulative wall spent inside datapath processing, milliseconds.
        self.ingest_ms_total = 0.0

    # -- registration -------------------------------------------------------

    def add_watcher(self, watcher) -> object:
        """Register a threshold rule evaluated at every seal (in order)."""
        self.watchers.append(watcher)
        return watcher

    def register_series(self, name: str, query) -> None:
        """Evaluate ``query`` against every sealed epoch; results land in
        ``sealed.outputs[name]`` and are exposed by :meth:`series`."""
        if name in self._series:
            raise ValueError(f"series {name!r} already registered")
        self._series[name] = query

    # -- ingestion ----------------------------------------------------------

    def ingest(self, trace: Trace) -> List[SealedEpoch]:
        """Ingest one chunk; returns any epochs sealed while consuming it."""
        self._flush_pending()
        return self._ingest_chunk(trace)

    def ingest_batch(self, batch) -> List[SealedEpoch]:
        """Ingest a :class:`~repro.traffic.batch.PacketBatch` chunk."""
        trace = Trace({f: np.asarray(batch.get(f)) for f in PACKET_FIELDS})
        return self.ingest(trace)

    def ingest_packet(self, fields: Dict[str, int]) -> List[SealedEpoch]:
        """Ingest a single packet (buffered into batched chunks)."""
        self._pending_fields.append(dict(fields))
        if len(self._pending_fields) >= self._effective_batch():
            return self._flush_pending()
        # A buffered packet still has to respect packet-count rotation.
        if (
            self.epoch_packets is not None
            and self._epoch_fill + len(self._pending_fields) >= self.epoch_packets
        ):
            return self._flush_pending()
        return []

    def flush(self) -> List[SealedEpoch]:
        """Process any buffered single packets (no seal unless due)."""
        return self._flush_pending()

    def rotate(self, reset_handles: Optional[Sequence[TaskHandle]] = None) -> SealedEpoch:
        """Seal the current epoch now, regardless of boundaries.

        ``reset_handles`` narrows the end-of-epoch reset to specific
        deployments (the :class:`~repro.core.epochs.EpochRunner` contract);
        by default every controller deployment is reset.
        """
        with self._lock:
            self._flush_pending()
            return self._seal(reset_handles=reset_handles)

    # -- wall-clock rotation ------------------------------------------------

    def start(self) -> "MeasurementService":
        """Begin wall-clock rotation (``epoch_wall_ms`` mode only).

        A daemon thread seals the live window every ``epoch_wall_ms``
        milliseconds of real time.  Ticks that land on an empty window seal
        nothing (no empty-epoch flood while the stream is idle).  Ingestion
        keeps running on the caller's thread; the sealer takes the ingest
        lock only around the seal itself, so sealed-epoch queries are never
        blocked.
        """
        if self.epoch_wall_ms is None:
            raise ValueError("start() requires epoch_wall_ms rotation")
        if self._wall_thread is not None:
            raise RuntimeError("wall-clock rotation is already running")
        self._wall_stop.clear()
        self._sealer_failed = None
        self._sealer_tick = time.monotonic()
        self._wall_thread = threading.Thread(
            target=self._wall_loop, name="flymon-wall-seal", daemon=True
        )
        self._wall_thread.start()
        self._watchdog_thread = threading.Thread(
            target=self._watchdog_loop, name="flymon-wall-watchdog", daemon=True
        )
        self._watchdog_thread.start()
        return self

    def stop(self, seal_tail: bool = False) -> Optional[SealedEpoch]:
        """Stop the wall-clock sealer (no-op when it is not running).

        With ``seal_tail`` the ragged live window (if any) is sealed after
        the thread exits, and that epoch is returned.
        """
        if self._wall_thread is not None or self._watchdog_thread is not None:
            self._wall_stop.set()
            # Watchdog first, so no replacement sealer spawns mid-join.
            if self._watchdog_thread is not None:
                self._watchdog_thread.join()
                self._watchdog_thread = None
            if self._wall_thread is not None:
                self._wall_thread.join()
                self._wall_thread = None
        if seal_tail:
            with self._lock:
                if self._epoch_fill or self._pending_fields:
                    return self.rotate()
        return None

    def _wall_loop(self) -> None:
        try:
            self._wall_run()
        except Exception as exc:  # surfaced via health(); watchdog decides
            self._sealer_failed = f"{type(exc).__name__}: {exc}"

    def _wall_run(self) -> None:
        interval = self.epoch_wall_ms / 1e3
        deadline = time.monotonic() + interval
        while not self._wall_stop.wait(max(0.0, deadline - time.monotonic())):
            deadline += interval
            self._sealer_tick = time.monotonic()
            with self._lock:
                if self._epoch_fill == 0 and not self._pending_fields:
                    continue
                self._flush_pending()
                self._seal()

    def _watchdog_loop(self) -> None:
        interval = self.epoch_wall_ms / 1e3
        stall_counted = False
        while not self._wall_stop.wait(max(interval, 0.01)):
            thread = self._wall_thread
            if thread is None:
                break
            if not thread.is_alive():
                if self._wall_stop.is_set():
                    break
                reason = self._sealer_failed or "sealer thread died"
                if self.sealer_restarts >= self.sealer_restart_budget:
                    self._sealer_failed = (
                        f"sealer dead after {self.sealer_restarts} "
                        f"restart(s): {reason}"
                    )
                    break
                self._restart_sealer(reason)
                stall_counted = False
                continue
            # Missed-deadline detection: the sealer is alive but has not
            # ticked for 3+ intervals (blocked on the lock, a slow disk,
            # a stuck watcher).  Counted once per stall episode.
            lag = time.monotonic() - self._sealer_tick
            if lag > 3.0 * interval:
                if not stall_counted:
                    self.sealer_missed_deadlines += 1
                    stall_counted = True
            else:
                stall_counted = False

    def _restart_sealer(self, reason: str) -> None:
        self.sealer_restarts += 1
        self._sealer_failed = None
        self._sealer_tick = time.monotonic()
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_SEALER_RESTARTED, restart=self.sealer_restarts, reason=reason
            )
            _TELEMETRY.registry.counter("flymon_sealer_restarts_total").inc()
        thread = threading.Thread(
            target=self._wall_loop, name="flymon-wall-seal", daemon=True
        )
        self._wall_thread = thread
        thread.start()

    # -- sealed state -------------------------------------------------------

    @property
    def epochs(self) -> List[SealedEpoch]:
        """The retained sealed epochs, oldest first."""
        return list(self._ring)

    @property
    def latest(self) -> Optional[SealedEpoch]:
        return self._ring[-1] if self._ring else None

    def epoch(self, index: int) -> SealedEpoch:
        for sealed in self._ring:
            if sealed.index == index:
                return sealed
        retained = [s.index for s in self._ring]
        raise StaleEpochError(
            f"epoch {index} is not retained (ring holds {retained})"
        )

    def series(self, name: str) -> List[Tuple[int, object]]:
        """Per-epoch time series of a registered query over the ring."""
        if name not in self._series:
            raise KeyError(f"series {name!r} is not registered")
        return [
            (sealed.index, sealed.outputs[name])
            for sealed in self._ring
            if name in sealed.outputs
        ]

    def query(self, query, epoch=None):
        """Resolve a typed query against the live window or a sealed epoch.

        ``epoch`` is ``None`` (live), an epoch index, or a
        :class:`SealedEpoch`.
        """
        from repro.service.queries import resolve

        sealed = None
        if isinstance(epoch, SealedEpoch):
            sealed = epoch
        elif epoch is not None:
            sealed = self.epoch(int(epoch))
        return resolve(query, sealed)

    def stats(self) -> Dict[str, object]:
        return {
            "epoch": self._epoch_index,
            "epoch_fill": self._epoch_fill + len(self._pending_fields),
            "packets_total": self._packets_total + len(self._pending_fields),
            "sealed_epochs": len(self._ring),
            "retained": [s.index for s in self._ring],
            "watchers": len(self.watchers),
            "series": sorted(self._series),
            "epoch_packets": self.epoch_packets,
            "epoch_duration_us": self.epoch_duration_us,
            "epoch_wall_ms": self.epoch_wall_ms,
            "ingest_ms_total": self.ingest_ms_total,
            "last_seal_ms": self._ring[-1].seal_ms if self._ring else None,
            "watchers_fired": sum(
                1 for e in self.watcher_log if getattr(e, "fired", False)
            ),
            "dropped_packets": self.dropped_packets,
            "dropped_windows": self.dropped_windows,
            "wal_state": self._wal.state if self._wal is not None else None,
            "wal_lost_seals": (
                self._wal.lost_seals if self._wal is not None else 0
            ),
            **self._wal_io(),
            "sealer_restarts": self.sealer_restarts,
            "sealer_missed_deadlines": self.sealer_missed_deadlines,
        }

    def _wal_io(self) -> Dict[str, object]:
        """Where the WAL's time goes (cumulative bytes and seconds spent
        encoding, writing and fsyncing), as ``stats()`` / ``health()`` keys."""
        if self._wal is None:
            return {}
        return {
            "wal_" + key: getattr(self._wal, key)
            for key in ("bytes_written", "encode_s", "write_s", "fsync_s")
        }

    def health(self) -> Dict[str, object]:
        """Machine-readable service health: ``ok`` / ``degraded`` /
        ``failing`` plus the reasons, for dashboards and heartbeats.

        ``degraded`` means the service is still measuring and answering
        queries but something needs attention (WAL detached and retrying,
        windows shed under overload, a sealer restart); ``failing`` means durability or liveness is actually broken
        (WAL permanently failed or sealed epochs lost, sealer dead past
        its restart budget).
        """
        reasons: List[str] = []
        rank = 0  # 0 ok, 1 degraded, 2 failing

        def note(level: int, reason: str) -> None:
            nonlocal rank
            reasons.append(reason)
            rank = max(rank, level)

        wal = self._wal
        wal_status = wal.status() if wal is not None else None
        if wal_status is not None:
            if wal_status["state"] == "degraded":
                note(1, f"wal degraded: {wal_status['last_error']}")
            elif wal_status["state"] == "failed":
                note(2, f"wal failed: {wal_status['last_error']}")
            if wal_status["lost_seals"]:
                # Losses while storage is still unreachable are an active
                # failure; after a successful reattach they are a scar --
                # the log is whole again from the retain window onward.
                note(
                    2 if wal_status["state"] != "ok" else 1,
                    f"wal: {wal_status['lost_seals']} sealed epoch(s) "
                    "never reached stable storage",
                )
        if self._sealer_failed:
            note(2, f"sealer: {self._sealer_failed}")
        elif self.sealer_restarts:
            note(1, f"sealer restarted {self.sealer_restarts} time(s)")
        if self.sealer_missed_deadlines:
            note(
                1,
                f"sealer missed {self.sealer_missed_deadlines} deadline(s)",
            )
        if self.dropped_windows:
            note(
                1,
                f"shed {self.dropped_windows} window(s) "
                f"({self.dropped_packets} packets) under overload",
            )
        return {
            "status": ("ok", "degraded", "failing")[rank],
            "reasons": reasons,
            "wal_state": wal_status["state"] if wal_status else None,
            **self._wal_io(),
            "sealer_alive": (
                self._wall_thread.is_alive()
                if self._wall_thread is not None
                else None
            ),
            "sealer_restarts": self.sealer_restarts,
            "dropped_packets": self.dropped_packets,
            "dropped_windows": self.dropped_windows,
            "epoch": self._epoch_index,
            "sealed_epochs": len(self._ring),
        }

    # -- internals ----------------------------------------------------------

    def _effective_batch(self) -> int:
        if self.batch_size is not None and self.batch_size > 0:
            return self.batch_size
        return _default_batch_size()

    def _flush_pending(self) -> List[SealedEpoch]:
        if not self._pending_fields:
            return []
        from repro.traffic.packet import Packet

        chunk = Trace.from_packets([Packet(**f) for f in self._pending_fields])
        self._pending_fields = []
        return self._ingest_chunk(chunk)

    def _ingest_chunk(self, trace: Trace) -> List[SealedEpoch]:
        sealed: List[SealedEpoch] = []
        remaining = trace
        stall_s = self.max_stall_ms / 1e3 if self.max_stall_ms else None
        with _RECORDER.span("service.ingest", cat="service", packets=len(trace)):
            while len(remaining):
                # The lock is re-acquired per window so a wall-clock sealer
                # can interleave at window boundaries mid-chunk.  With a
                # stall bound, a window that cannot get the lock in time is
                # shed whole rather than queueing behind a stuck seal.
                if stall_s is not None:
                    if not self._lock.acquire(timeout=stall_s):
                        remaining = self._shed_window(remaining)
                        continue
                else:
                    self._lock.acquire()
                try:
                    take = self._room_for(remaining)
                    if take == 0:
                        sealed.append(self._seal())
                        continue
                    window, remaining = _split_trace(remaining, take)
                    self._process(window)
                    self._account(window)
                    if self._boundary_reached():
                        sealed.append(self._seal())
                finally:
                    self._lock.release()
        return sealed

    def _shed_window(self, remaining: Trace) -> Trace:
        """Drop one window's worth of the chunk with exact accounting.

        Shed packets never touch the registers or the packet counters:
        ``dropped_packets`` / ``dropped_windows`` are the only trace they
        leave, so sealed state stays exact for the traffic that *was*
        ingested and the loss is fully machine-readable.
        """
        take = min(len(remaining), self._effective_batch())
        window, rest = _split_trace(remaining, take)
        del window
        self.dropped_packets += take
        self.dropped_windows += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_INGEST_SHED,
                packets=take,
                dropped_packets=self.dropped_packets,
                dropped_windows=self.dropped_windows,
            )
            _TELEMETRY.registry.counter(
                "flymon_ingest_shed_packets_total"
            ).inc(take)
            _TELEMETRY.registry.counter(
                "flymon_ingest_shed_windows_total"
            ).inc()
        return rest

    def _room_for(self, trace: Trace) -> int:
        """How many of the chunk's leading packets fit in this epoch."""
        if self.epoch_packets is not None:
            return min(len(trace), self.epoch_packets - self._epoch_fill)
        if self.epoch_duration_us is not None:
            ts = trace.columns["timestamp"]
            if self._epoch_start_ts is None:
                self._epoch_start_ts = int(ts[0])
            end = self._epoch_start_ts + self.epoch_duration_us
            if self._epoch_fill == 0 and int(ts[0]) >= end:
                # The window is empty and the next packet lies beyond it: a
                # trace time gap.  Seal exactly one empty epoch to mark the
                # discontinuity, then fast-forward the epoch grid to the
                # step holding the next packet -- without this, a multi-hour
                # gap would spin one empty seal (watchers, series, ring
                # churn) per epoch_duration_us step.
                last = self._ring[-1] if self._ring else None
                if last is None or last.packets != 0:
                    return 0  # seal the single gap-marking empty epoch
                steps = (int(ts[0]) - self._epoch_start_ts) // self.epoch_duration_us
                self._epoch_start_ts += steps * self.epoch_duration_us
                end = self._epoch_start_ts + self.epoch_duration_us
            return int(np.searchsorted(ts, end, side="left"))
        if self.epoch_wall_ms is not None:
            # Bounded windows keep the per-window lock hold short so the
            # wall-clock sealer gets in between them.
            return min(len(trace), self._effective_batch())
        return len(trace)  # manual rotation: everything is one open window

    def _boundary_reached(self) -> bool:
        if self.epoch_packets is not None:
            return self._epoch_fill >= self.epoch_packets
        return False  # duration mode seals via _room_for() == 0

    def _account(self, window: Trace) -> None:
        n = len(window)
        self._epoch_fill += n
        self._packets_total += n
        if n:
            ts = window.columns["timestamp"]
            lo, hi = int(ts[0]), int(ts[-1])
            if self._epoch_min_ts is None or lo < self._epoch_min_ts:
                self._epoch_min_ts = lo
            if self._epoch_max_ts is None or hi > self._epoch_max_ts:
                self._epoch_max_ts = hi

    def _process(self, window: Trace) -> None:
        if len(window) == 0:
            return
        t0 = time.perf_counter()
        try:
            if self.batch_size == 0:
                # Scalar reference path: differential tests only.
                self.controller.process_trace(window)
                return
            self.controller.process_trace(window, batch_size=self._effective_batch())
        finally:
            self.ingest_ms_total += (time.perf_counter() - t0) * 1e3

    def _hosting_rows(self, handles: Sequence[TaskHandle]):
        registers: Dict[Tuple[int, int], object] = {}
        for handle in handles:
            for row in handle.rows:
                registers[(row.group.group_id, row.cmu.index)] = row.cmu.register
        return registers

    def _seal(self, reset_handles: Optional[Sequence[TaskHandle]] = None) -> SealedEpoch:
        with self._lock:
            return self._seal_locked(reset_handles=reset_handles)

    def _seal_locked(
        self, reset_handles: Optional[Sequence[TaskHandle]] = None
    ) -> SealedEpoch:
        t0 = time.perf_counter()
        with _RECORDER.span(
            "service.rotate", cat="service", epoch=self._epoch_index,
            packets=self._epoch_fill,
        ):
            with _RECORDER.span("rotate.snapshot", cat="service"):
                handles = self.controller.tasks
                registers = self._hosting_rows(handles)
                cells: Dict[Tuple[int, int], np.ndarray] = {}
                for key, register in registers.items():
                    cells[key] = _SNAPSHOTS.take(register.size)
                    register.snapshot_into(cells[key])
            with _RECORDER.span("rotate.digests", cat="service"):
                digest_sets: Dict[Tuple[int, int, int], set] = {}
                for handle in handles:
                    for row in handle.rows:
                        drained = row.cmu.drain_digests(handle.task_id)
                        if drained:
                            digest_sets[
                                (row.group.group_id, row.cmu.index, handle.task_id)
                            ] = drained
            sealed = SealedEpoch(
                index=self._epoch_index,
                packets=self._epoch_fill,
                start_ts=self._epoch_min_ts,
                end_ts=self._epoch_max_ts,
                cells=cells,
                registers=registers,
                task_ids=[handle.task_id for handle in handles],
                digest_sets=digest_sets,
            )
            sealed._pooled = True
            self._ring.append(sealed)

            # Capture the WAL's per-task payload before watchers can
            # reconfigure (a resize removes the old deployment, after which
            # its rows can no longer be interpreted).
            wal_tasks = (
                self._wal.capture_epoch_tasks(sealed, handles)
                if self._wal is not None
                else None
            )

            # Reset first so the next epoch starts fresh even if a watcher's
            # reaction (or a series estimator) raises; sealed queries keep
            # working because they read the snapshot, not the registers.
            with _RECORDER.span("rotate.reset", cat="service"):
                for handle in (
                    reset_handles if reset_handles is not None else handles
                ):
                    handle.reset()

            with _RECORDER.span("rotate.series", cat="service"):
                self._evaluate_series(sealed)
            with _RECORDER.span("rotate.watchers", cat="service"):
                self._evaluate_watchers(sealed)

            sealed.seal_ms = (time.perf_counter() - t0) * 1e3

            # Window bookkeeping advances *before* the WAL append: a
            # storage failure surfaced here (WalWriteError under
            # ``--wal-policy fail``) must leave the sealed epoch intact
            # and the next window clean, not re-seal the same index.
            self._epoch_index += 1
            self._epoch_fill = 0
            self._epoch_min_ts = None
            self._epoch_max_ts = None
            if self.epoch_duration_us is not None:
                if self._epoch_start_ts is not None:
                    self._epoch_start_ts += self.epoch_duration_us

            if self._wal is not None:
                with _RECORDER.span("rotate.wal", cat="service"):
                    self._wal.append_seal(sealed, wal_tasks)
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_EPOCH_SEAL,
                epoch=sealed.index,
                packets=sealed.packets,
                tasks=len(sealed.task_ids),
                seal_ms=sealed.seal_ms,
                watchers_fired=sum(
                    1 for e in sealed.watcher_events if getattr(e, "fired", False)
                ),
            )
            _TELEMETRY.registry.counter("flymon_epochs_total").inc()
            # The metric is in milliseconds, so the histogram needs the ms
            # bucket ladder -- the default buckets are seconds-scaled and
            # would park every observation in the top bucket.
            _TELEMETRY.registry.histogram(
                "flymon_epoch_seal_ms", buckets=DEFAULT_MS_BUCKETS
            ).observe(sealed.seal_ms)
        return sealed

    def _evaluate_series(self, sealed: SealedEpoch) -> None:
        from repro.service.queries import resolve

        for name, query in self._series.items():
            sealed.outputs[name] = resolve(query, sealed)

    def _evaluate_watchers(self, sealed: SealedEpoch) -> None:
        for watcher in self.watchers:
            event = watcher.evaluate(self, sealed)
            sealed.watcher_events.append(event)
            self.watcher_log.append(event)
            if _TELEMETRY.enabled and event.fired:
                _TELEMETRY.events.emit(
                    EV_WATCHER_FIRED,
                    epoch=sealed.index,
                    watcher=event.watcher,
                    value=event.value,
                    threshold=event.threshold,
                    direction=event.direction,
                )
                _TELEMETRY.registry.counter("flymon_watchers_fired_total").inc()
                if event.action is not None:
                    _TELEMETRY.events.emit(
                        EV_WATCHER_ACTION,
                        epoch=sealed.index,
                        watcher=event.watcher,
                        action=event.action,
                        outcome=event.outcome,
                        error=event.error,
                    )


def _split_trace(trace: Trace, take: int) -> Tuple[Trace, Trace]:
    """Split a trace at ``take`` packets into (head, tail) column views."""
    if take >= len(trace):
        return trace, Trace.empty()
    head = Trace({f: trace.columns[f][:take] for f in PACKET_FIELDS})
    tail = Trace({f: trace.columns[f][take:] for f in PACKET_FIELDS})
    return head, tail
