"""Crash-consistent, bounded-size write-ahead log for the measurement service.

PR 4's JSON artifacts (:mod:`repro.service.checkpoint`) snapshot a service
once, at exit; a process killed mid-stream loses everything.  The WAL
extends those checkpoints to *delta* form: a ``base`` record written at
attach (the controller's replayable checkpoint plus rotation/series
config), then one appended record per committed control-plane mutation
(``op``) and per sealed epoch (``seal``).  Every append is flushed and
fsync'd before the service proceeds, so after a crash -- ``kill -9``
included -- the log contains every epoch that was ever sealed, plus at
most one torn trailing frame (the record being written at the instant of
death), which recovery ignores.

Records are the binary, checksummed frames of
:mod:`repro.service.epoch_codec` (``WAL_VERSION = 3``).  A sealed epoch is
encoded exactly once, in :meth:`ServiceWal.append_seal`; the frame's bytes
are cached in a ``retain``-deep ring, and every later base record (attach,
roll, reattach, single-file rewrite) splices the cached frames in verbatim
behind a JSON header -- a roll encodes no epoch.  Logs of the JSON-lines
releases (versions 1 and 2) are refused by name: recover them with the
release that wrote them before upgrading.

Two on-disk layouts share one record format:

* **single file** (``ServiceWal(path)``) -- one unbounded log; right for
  short runs;
* **segmented directory** (``segment_seals=`` / ``segment_bytes=``, or an
  existing directory path) -- numbered segments ``wal-000001.seg``,
  ``wal-000002.seg``, ...  When the live segment crosses a seal-count or
  byte threshold the WAL *rolls*: it opens the next segment with a fresh
  ``base`` record that embeds the retained sealed epochs
  (checkpoint-based compaction, bounded by the service's ``retain``), so
  every older segment becomes redundant and is pruned down to
  ``keep_segments``.  Recovery reads only the newest segment with an
  intact base -- O(retain + one segment), not O(stream length) -- and
  falls back exactly one segment when the newest base is torn (the crash
  hit mid-roll; ``keep_segments >= 2`` guarantees the predecessor is
  still there, because pruning only runs after the new base is durable).

Storage failures follow a configurable policy (``policy=`` /
``--wal-policy``).  ``"fail"`` surfaces the first write error as
:class:`WalWriteError` at the next seal, stopping ingest cleanly with the
sealed epoch intact in memory.  ``"degrade"`` keeps the service running:
the WAL enters ``state == "degraded"``, caches seal records in a bounded
buffer (``retain`` deep, evictions of never-persisted entries counted in
``lost_seals`` -- loss is *accounted*, never silent), and retries
attaching storage under exponential backoff (a roll to a fresh segment,
or an atomic rewrite of the single file), whose fresh base record embeds
the cached epochs so a successful reattach makes every retained epoch
durable again.  Exhausting the reattach budget moves the WAL to
``state == "failed"`` (still caching, still accounting).  The
``wal_append`` / ``wal_fsync`` / ``wal_roll`` / ``disk_full`` fault sites
(:mod:`repro.faults`) inject failures at each of these points, including
``kill``/``torn`` arguments that SIGKILL the process mid-record to pin
crash-at-every-boundary recovery.

Recovery (:func:`recover_service_artifact`) is two-pass and replay-based:

1. concatenate the base history with every ``op`` record to obtain the
   final committed operation sequence, and replay it onto a fresh
   controller (:meth:`FlyMonController.replay_history`) -- placement
   (groups, CMUs, memory bases) is reproduced exactly, and the replay's
   ref map translates the task ids recorded in seal records into the
   recovered deployments;
2. re-key each seal payload (the base's compacted epochs first, then the
   segment's ``seal`` records) through that map and emit a standard
   :func:`~repro.service.checkpoint.service_checkpoint` artifact, so
   ``repro query`` and :func:`load_service_state` work on a recovered
   log exactly as on a clean checkpoint.

Guarantees: every sealed epoch whose ``seal`` record hit the log is
recovered bit-identically (rows, digests, series outputs, watcher
events); the epoch in flight when the process died is lost by design --
its packets were never sealed, so no query ever observed them.  Tasks
removed before the crash are omitted from recovered epochs, matching
checkpoint semantics (interpreting sealed cells needs a live deployment).
"""

from __future__ import annotations

import errno
import os
import re
import signal
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.controller import FlyMonController
from repro.faults import (
    FAULTS,
    FaultError,
    SITE_DISK_FULL,
    SITE_WAL_APPEND,
    SITE_WAL_FSYNC,
    SITE_WAL_ROLL,
)
from repro.service.epoch_codec import (
    FORMAT_VERSION,
    KIND_BASE,
    KIND_OP,
    KIND_SEAL,
    CodecError,
    decode_epoch,
    encode_frame,
    iter_frames,
    pack_tasks,
    split_frames,
)
from repro.telemetry import (
    EV_WAL_DEGRADED,
    EV_WAL_REATTACHED,
    EV_WAL_SEGMENT_ROLL,
    TELEMETRY as _TELEMETRY,
)

#: 3 = binary frames (:mod:`repro.service.epoch_codec`).  1 and 2 were the
#: JSON-lines logs; this release does not read them.
WAL_VERSION = FORMAT_VERSION

POLICY_FAIL = "fail"
POLICY_DEGRADE = "degrade"
WAL_POLICIES = (POLICY_FAIL, POLICY_DEGRADE)

STATE_OK = "ok"
STATE_DEGRADED = "degraded"
STATE_FAILED = "failed"

_SEGMENT_RE = re.compile(r"^wal-(\d{6})\.(seg|jsonl)$")
_RECORD_TYPES = {KIND_BASE: "base", KIND_OP: "op", KIND_SEAL: "seal"}


class WalError(ValueError):
    """The log is unusable: bad version, missing base, or mid-log
    corruption (anything other than a torn final frame)."""


class WalWriteError(WalError):
    """A WAL append failed under ``policy="fail"``: storage refused the
    write, so ingest must stop (the sealed epoch stays intact in memory,
    and everything previously fsync'd stays recoverable)."""


def _refuse_json_log(path: str, version: str) -> None:
    """WAL versions 1 and 2 were JSON lines (segments named ``*.jsonl``)."""
    raise WalError(
        f"{path}: WAL version {version} (JSON lines); this release reads "
        f"version {WAL_VERSION} only -- recover the log with the release "
        "that wrote it before upgrading"
    )


def _fsync_dir(path: str) -> None:
    """Make a directory entry change (create/replace/unlink) durable."""
    fd = os.open(path or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def wal_segments(path: str) -> List[Tuple[int, str]]:
    """Sorted ``(index, path)`` pairs of a WAL directory's segments."""
    out: List[Tuple[int, str]] = []
    for name in os.listdir(path):
        match = _SEGMENT_RE.match(name)
        if match:
            if match.group(2) == "jsonl":
                _refuse_json_log(os.path.join(path, name), version="2")
            out.append((int(match.group(1)), os.path.join(path, name)))
    out.sort()
    return out


class ServiceWal:
    """Appends base/op/seal records for one service run.

    Attach before ingesting (and after registering series/watchers, so the
    base record captures them)::

        wal = ServiceWal(path)                       # single file
        wal = ServiceWal(dir, segment_seals=64)      # segmented directory
        wal.attach(service)
        try:
            service.ingest(...)
        finally:
            wal.close()

    Attaching to a path that already holds records is refused
    (:class:`WalError`) unless ``resume=True``: a second base appended
    mid-log would make recovery replay the first run's history against
    the second run's seals.  ``resume`` starts a fresh segment (segmented)
    or rotates the old file to ``<path>.prev`` (single file).

    The service calls :meth:`capture_epoch_tasks` / :meth:`append_seal`
    from inside its seal critical section; user code never does.
    """

    def __init__(
        self,
        path: str,
        *,
        segment_seals: Optional[int] = None,
        segment_bytes: Optional[int] = None,
        policy: str = POLICY_FAIL,
        resume: bool = False,
        keep_segments: int = 2,
        reattach_backoff_s: float = 0.5,
        reattach_backoff_cap_s: float = 30.0,
        reattach_max_attempts: int = 8,
    ) -> None:
        if policy not in WAL_POLICIES:
            raise ValueError(
                f"unknown WAL policy {policy!r} (known: {', '.join(WAL_POLICIES)})"
            )
        if segment_seals is not None and segment_seals <= 0:
            raise ValueError("segment_seals must be positive")
        if segment_bytes is not None and segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        if keep_segments < 2:
            # The roll protocol needs the predecessor segment to survive
            # until the new base is durable, or a mid-roll crash would have
            # nothing to fall back to.
            raise ValueError("keep_segments must be >= 2")
        self.path = str(path)
        self.segment_seals = segment_seals
        self.segment_bytes = segment_bytes
        self.policy = policy
        self.resume = resume
        self.keep_segments = keep_segments
        self.reattach_backoff_s = float(reattach_backoff_s)
        self.reattach_backoff_cap_s = float(reattach_backoff_cap_s)
        self.reattach_max_attempts = int(reattach_max_attempts)
        self.segmented = (
            segment_seals is not None
            or segment_bytes is not None
            or os.path.isdir(self.path)
        )
        self._fh = None
        self._service = None
        self._retain: int = 0
        self._state = STATE_OK
        self._last_error: Optional[str] = None
        self._segment_index = 0
        self._seals_in_segment = 0
        self._bytes_in_segment = 0
        # Bounded (retain-deep) cache of the newest seal frames (the encoded
        # bytes), each flagged durable once it is known to live in the
        # current log.  This is what every base embeds, and what bounds loss.
        self._cache: List[Dict[str, object]] = []
        self._backoff = self.reattach_backoff_s
        self._next_attempt = 0.0
        self.records_written = 0
        # Cumulative cost split, so the fsync share is measured, not guessed.
        self.bytes_written = 0
        self.encode_s = 0.0
        self.write_s = 0.0
        self.fsync_s = 0.0
        self.rolls = 0
        self.lost_seals = 0
        self.seals_deferred = 0
        self.seals_recovered = 0
        self.ops_deferred = 0
        self.reattach_attempts = 0
        self.reattachments = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def state(self) -> str:
        """``"ok"`` / ``"degraded"`` / ``"failed"``."""
        return self._state

    def attach(self, service) -> "ServiceWal":
        if self._service is not None:
            raise WalError("this WAL is already attached to a service")
        if service._wal is not None:
            raise WalError("the service already has a WAL attached")
        controller = service.controller
        base_checkpoint = controller.checkpoint()
        if "history" not in base_checkpoint:
            raise WalError(
                "cannot WAL a controller with an incomplete reconfiguration "
                "history -- recovery replays it to reproduce placement"
            )
        self._service = service
        self._retain = service.retain
        # Epochs sealed before attach would otherwise be unrecoverable:
        # pre-fill the cache so the first base record embeds them.
        for sealed in service.epochs:
            self._cache_seal(
                self._seal_frame(
                    sealed, self.capture_epoch_tasks(sealed, controller.tasks)
                )
            )
        try:
            if self.segmented:
                self._attach_segmented()
            else:
                self._attach_single_file()
        except (OSError, FaultError) as exc:
            try:
                self._handle_write_failure(exc, kind="base")
            except WalWriteError:
                self._service = None
                raise
        except WalError:
            self._service = None
            raise
        controller.add_op_listener(self._on_op)
        service._wal = self
        return self

    def _attach_segmented(self) -> None:
        os.makedirs(self.path, exist_ok=True)
        existing = wal_segments(self.path)
        if existing and not self.resume:
            raise WalError(
                f"{self.path}: WAL directory already holds "
                f"{len(existing)} segment(s) from an earlier run -- recover "
                "it first, or pass resume=True (--wal-force) to start a "
                "fresh segment alongside it"
            )
        self._segment_index = (existing[-1][0] if existing else 0) + 1
        fh = open(self._segment_path(self._segment_index), "wb")
        self._fh = fh
        self._bytes_in_segment = self._write_record(
            fh, self._base_frame(segment=self._segment_index), "base"
        )
        self._seals_in_segment = 0
        self._sync_dir(self.path)
        self._mark_cache_durable()

    def _attach_single_file(self) -> None:
        # The directory entry must be as durable as the records: without
        # these syncs a power loss can leave no log at all behind a run
        # whose every record was fsync'd.
        parent = os.path.dirname(os.path.abspath(self.path))
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            if not self.resume:
                raise WalError(
                    f"{self.path}: WAL already contains records from an "
                    "earlier run; appending a second base mid-log would make "
                    "recovery replay the wrong history -- recover it first, "
                    "or pass resume=True (--wal-force) to rotate it aside"
                )
            os.replace(self.path, self.path + ".prev")
            self._sync_dir(parent)
        self._fh = open(self.path, "wb")
        self._write_record(self._fh, self._base_frame(), "base")
        self._sync_dir(parent)
        self._mark_cache_durable()

    def close(self) -> None:
        if self._service is not None:
            # Degraded runs may end before the reattach backoff elapses:
            # force one last attempt so every cached (never-persisted)
            # epoch gets a durable home when storage has recovered.
            if self.policy == POLICY_DEGRADE and self._state != STATE_OK:
                if any(not entry["durable"] for entry in self._cache):
                    self._try_reattach(force=True)
            self._service.controller.remove_op_listener(self._on_op)
            self._service._wal = None
            self._service = None
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "ServiceWal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- record construction --------------------------------------------

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.path, f"wal-{index:06d}.seg")

    def _base_frame(self, segment: Optional[int] = None) -> bytes:
        """The base record: a JSON header, then the cached seal frames
        spliced in whole (checkpoint-based compaction -- the retained
        sealed epochs ride inside the base, so every earlier segment
        becomes redundant, and no epoch is encoded a second time)."""
        started = time.perf_counter()
        service = self._service
        header: Dict[str, object] = {
            "controller": service.controller.checkpoint(),
            "rotation": {
                "epoch_packets": service.epoch_packets,
                "epoch_duration_us": service.epoch_duration_us,
                "epoch_wall_ms": service.epoch_wall_ms,
                "retain": service.retain,
                "workers": service.workers,
            },
            "series": sorted(service._series),
        }
        if segment is not None:
            header["segment"] = segment
        frame = encode_frame(
            KIND_BASE, header, [entry["frame"] for entry in self._cache]
        )
        self.encode_s += time.perf_counter() - started
        return frame

    def capture_epoch_tasks(
        self, sealed, handles
    ) -> Tuple[Dict[str, object], List[bytes]]:
        """Per-task sealed payloads keyed by the *live* task id: the seal
        frame's ``tasks`` header entry and its body chunks (each row's
        cells, already narrowed to their on-disk dtype).

        Called by the service immediately after the snapshot, before
        watchers run: a watcher resize removes the old deployment, after
        which its rows can no longer be interpreted.
        """
        from repro.service.checkpoint import _json_safe

        started = time.perf_counter()
        packed = pack_tasks(
            (
                handle.task_id,
                sealed.read_rows(handle),
                [
                    sorted(_json_safe(flow) for flow in digests)
                    for digests in sealed.digests(handle)
                ],
            )
            for handle in handles
            if sealed.has_task(handle.task_id)
        )
        self.encode_s += time.perf_counter() - started
        return packed

    def _seal_frame(self, sealed, tasks) -> bytes:
        """Encode the epoch -- the one time it is ever encoded."""
        from repro.service.checkpoint import _json_safe

        started = time.perf_counter()
        specs, chunks = tasks
        frame = encode_frame(
            KIND_SEAL,
            {
                "index": sealed.index,
                "packets": sealed.packets,
                "start_ts": sealed.start_ts,
                "end_ts": sealed.end_ts,
                "seal_ms": sealed.seal_ms,
                "tasks": specs,
                "outputs": _json_safe(sealed.outputs),
                "watcher_events": _json_safe(sealed.watcher_events),
            },
            chunks,
        )
        self.encode_s += time.perf_counter() - started
        return frame

    # -- guarded writes -------------------------------------------------

    def _sync_dir(self, path: str) -> None:
        started = time.perf_counter()
        _fsync_dir(path)
        self.fsync_s += time.perf_counter() - started

    def _write_record(self, fh, frame: bytes, kind: str) -> int:
        """One fsync'd append through the storage fault sites; returns the
        frame's byte length (the segment-size accounting unit)."""
        if fh is None:
            raise OSError(errno.EBADF, "WAL file is not open")
        arg = FAULTS.trip(SITE_WAL_APPEND, type=kind)
        if arg is not None:
            self._execute_crash_arg(arg, fh, frame, site=SITE_WAL_APPEND)
        if FAULTS.trip(SITE_DISK_FULL, type=kind) is not None:
            raise OSError(errno.ENOSPC, "injected disk_full: no space left")
        started = time.perf_counter()
        fh.write(frame)
        fh.flush()
        written = time.perf_counter()
        self.write_s += written - started
        if FAULTS.trip(SITE_WAL_FSYNC, type=kind) is not None:
            raise OSError(errno.EIO, "injected wal_fsync failure")
        os.fsync(fh.fileno())
        self.fsync_s += time.perf_counter() - written
        self.records_written += 1
        self.bytes_written += len(frame)
        return len(frame)

    @staticmethod
    def _execute_crash_arg(arg, fh, frame: bytes, site: str) -> None:
        """``kill`` dies before the write; ``torn`` leaves half the frame
        on disk first (the canonical crash-mid-append signature); anything
        else surfaces as an I/O error for the policy ladder."""
        if arg == "torn":
            fh.write(frame[: max(1, len(frame) // 2)])
            fh.flush()
            os.fsync(fh.fileno())
        if arg in ("kill", "torn"):
            os.kill(os.getpid(), signal.SIGKILL)
        raise OSError(errno.EIO, f"injected {site} failure")

    def _handle_write_failure(self, exc: Exception, kind: str) -> None:
        self._last_error = f"{kind}: {exc}"
        if _TELEMETRY.enabled:
            _TELEMETRY.registry.counter(
                "flymon_wal_write_failures_total", kind=kind
            ).inc()
        if self.policy == POLICY_FAIL:
            self._state = STATE_FAILED
            if kind != "op":
                raise WalWriteError(
                    f"{self.path}: WAL {kind} write failed: {exc}"
                ) from exc
            # An op listener fires inside a control-plane commit (possibly
            # a watcher action); raising here would be misattributed to the
            # reconfiguration.  The failure surfaces as WalWriteError at
            # the next seal instead -- recovery stays exact because no
            # later seal record ever hits the log.
            return
        if self._state == STATE_OK:
            self._state = STATE_DEGRADED
            self._backoff = self.reattach_backoff_s
            self._next_attempt = time.monotonic() + self._backoff
            if _TELEMETRY.enabled:
                _TELEMETRY.events.emit(
                    EV_WAL_DEGRADED, kind=kind, error=str(exc), path=self.path
                )

    # -- appends --------------------------------------------------------

    def _on_op(self, entry: Dict[str, object]) -> None:
        if self._state != STATE_OK:
            # Not lost: the controller's committed history carries every
            # op, and the next successful base embeds the full history.
            self.ops_deferred += 1
            return
        try:
            self._bytes_in_segment += self._write_record(
                self._fh, encode_frame(KIND_OP, {"entry": entry}), "op"
            )
        except (OSError, FaultError) as exc:
            self.ops_deferred += 1
            self._handle_write_failure(exc, kind="op")

    def append_seal(self, sealed, tasks) -> None:
        """Append the epoch's seal record (series outputs and watcher
        events are final by now -- the service calls this last)."""
        frame = self._seal_frame(sealed, tasks)
        entry = self._cache_seal(frame)
        if self._state != STATE_OK:
            if self.policy == POLICY_FAIL:
                raise WalWriteError(
                    f"{self.path}: WAL unusable after earlier failure "
                    f"({self._last_error}); epoch {sealed.index} is sealed "
                    "in memory but not durable"
                )
            self.seals_deferred += 1
            self._try_reattach()
            return
        try:
            written = self._write_record(self._fh, frame, "seal")
        except (OSError, FaultError) as exc:
            self.seals_deferred += 1
            self._handle_write_failure(exc, kind="seal")
            return
        entry["durable"] = True
        self._seals_in_segment += 1
        self._bytes_in_segment += written
        self._maybe_roll()

    def _cache_seal(self, frame: bytes) -> Dict[str, object]:
        entry = {"frame": frame, "durable": False}
        self._cache.append(entry)
        while len(self._cache) > max(1, self._retain):
            evicted = self._cache.pop(0)
            if not evicted["durable"]:
                # The service's ring dropped it too; loss is real -- and
                # counted, never silent.
                self.lost_seals += 1
        return entry

    def _mark_cache_durable(self) -> int:
        recovered = sum(1 for entry in self._cache if not entry["durable"])
        for entry in self._cache:
            entry["durable"] = True
        self.seals_recovered += recovered
        return recovered

    # -- segmentation ---------------------------------------------------

    def _maybe_roll(self) -> None:
        if not self.segmented:
            return
        due = (
            self.segment_seals is not None
            and self._seals_in_segment >= self.segment_seals
        ) or (
            self.segment_bytes is not None
            and self._bytes_in_segment >= self.segment_bytes
        )
        if not due:
            return
        try:
            self._roll()
        except (OSError, FaultError, WalError) as exc:
            if isinstance(exc, WalWriteError):
                raise
            self._handle_write_failure(exc, kind="roll")

    def _roll(self) -> None:
        """Open segment N+1 with a fresh compaction base, then prune.

        Ordering is the crash-safety invariant: the new base is written
        and fsync'd (file *and* directory) before the old segment is
        released or anything is pruned, so at every instant at least one
        segment on disk has an intact base.
        """
        next_index = self._segment_index + 1
        arg = FAULTS.trip(SITE_WAL_ROLL, segment=next_index)
        if arg is not None:
            self._execute_roll_fault(arg, next_index)
        fh = open(self._segment_path(next_index), "wb")
        try:
            base_bytes = self._write_record(
                fh, self._base_frame(segment=next_index), "base"
            )
            self._sync_dir(self.path)
        except BaseException:
            fh.close()
            raise
        old = self._fh
        self._fh = fh
        if old is not None:
            try:
                old.close()
            except OSError:
                pass
        self._segment_index = next_index
        self._seals_in_segment = 0
        self._bytes_in_segment = base_bytes
        self.rolls += 1
        self._mark_cache_durable()
        pruned = self._prune_segments()
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_WAL_SEGMENT_ROLL,
                segment=next_index,
                compacted_epochs=len(self._cache),
                pruned=pruned,
            )
            _TELEMETRY.registry.counter("flymon_wal_segment_rolls_total").inc()

    def _execute_roll_fault(self, arg, next_index: int) -> None:
        path = self._segment_path(next_index)
        if arg == "kill":
            # Crash after the new segment exists but before its base: the
            # newest segment is empty and recovery must fall back.
            open(path, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        if arg == "torn":
            frame = self._base_frame(segment=next_index)
            with open(path, "wb") as fh:
                fh.write(frame[: max(1, len(frame) // 2)])
                fh.flush()
                os.fsync(fh.fileno())
            os.kill(os.getpid(), signal.SIGKILL)
        raise OSError(errno.EIO, "injected wal_roll failure")

    def _prune_segments(self) -> int:
        """Unlink segments older than the newest ``keep_segments``."""
        segments = wal_segments(self.path)
        stale = segments[: -self.keep_segments] if self.keep_segments else segments
        pruned = 0
        for _, seg_path in stale:
            try:
                os.unlink(seg_path)
                pruned += 1
            except OSError:
                pass  # pruning is best-effort; an orphan is only disk space
        if pruned:
            self._sync_dir(self.path)
        return pruned

    # -- degradation / reattach -----------------------------------------

    def _try_reattach(self, force: bool = False) -> bool:
        if self._state == STATE_OK:
            return True
        if self.policy == POLICY_FAIL:
            return False
        now = time.monotonic()
        if not force:
            if self._state == STATE_FAILED:
                return False
            if now < self._next_attempt:
                return False
        self.reattach_attempts += 1
        try:
            if self.segmented:
                self._roll()
            else:
                self._rewrite_single_file()
        except (OSError, FaultError, WalError) as exc:
            self._last_error = f"reattach: {exc}"
            self._backoff = min(self.reattach_backoff_cap_s, self._backoff * 2)
            self._next_attempt = time.monotonic() + self._backoff
            if not force and self.reattach_attempts >= self.reattach_max_attempts:
                self._state = STATE_FAILED
            return False
        self._state = STATE_OK
        self._last_error = None
        self.reattachments += 1
        self._backoff = self.reattach_backoff_s
        if _TELEMETRY.enabled:
            _TELEMETRY.events.emit(
                EV_WAL_REATTACHED,
                attempts=self.reattach_attempts,
                recovered_seals=self.seals_recovered,
                path=self.path,
            )
            _TELEMETRY.registry.counter("flymon_wal_reattached_total").inc()
        return True

    def _rewrite_single_file(self) -> None:
        """Atomically replace the single-file log with a fresh base whose
        embedded epochs are the cached (retain-deep) seal records."""
        tmp = self.path + ".tmp"
        fh = open(tmp, "wb")
        try:
            self._write_record(fh, self._base_frame(), "base")
        except BaseException:
            fh.close()
            raise
        fh.close()
        os.replace(tmp, self.path)
        self._sync_dir(os.path.dirname(os.path.abspath(self.path)))
        old = self._fh
        self._fh = open(self.path, "ab")
        if old is not None:
            try:
                old.close()
            except OSError:
                pass
        self._seals_in_segment = 0
        self._bytes_in_segment = 0
        self._mark_cache_durable()

    # -- inspection -----------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Machine-readable WAL state for ``stats()`` / ``health()``."""
        return {
            "path": self.path,
            "mode": "segmented" if self.segmented else "single",
            "state": self._state,
            "policy": self.policy,
            "segment": self._segment_index if self.segmented else None,
            "seals_in_segment": self._seals_in_segment,
            "bytes_in_segment": self._bytes_in_segment,
            "records_written": self.records_written,
            "bytes_written": self.bytes_written,
            "encode_s": self.encode_s,
            "write_s": self.write_s,
            "fsync_s": self.fsync_s,
            "rolls": self.rolls,
            "lost_seals": self.lost_seals,
            "seals_deferred": self.seals_deferred,
            "seals_recovered": self.seals_recovered,
            "ops_deferred": self.ops_deferred,
            "reattach_attempts": self.reattach_attempts,
            "reattachments": self.reattachments,
            "last_error": self._last_error,
        }


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def _record(kind: int, header: Dict[str, object], body) -> Dict[str, object]:
    """A frame as the mapping recovery works on: ``type`` is ``base`` /
    ``op`` / ``seal``, a seal's rows are arrays over the frame's bytes, a
    base's ``epochs`` are the seal records spliced into it."""
    if kind not in _RECORD_TYPES:
        raise CodecError(f"unknown record kind {kind}")
    if kind == KIND_SEAL:
        record = decode_epoch(header, body)
    else:
        record = dict(header)
    if kind == KIND_BASE:
        record["epochs"] = [_record(*frame) for frame in split_frames(body)]
    record["type"] = _RECORD_TYPES[kind]
    return record


def iter_wal_records(path: str) -> Iterator[Dict[str, object]]:
    """Stream a WAL file's records, tolerating exactly one torn tail frame.

    Reads frame by frame (an hours-long log never lands in memory at once).
    A frame that is cut short or fails a checksum anywhere *before* the
    final one means real corruption and raises :class:`WalError`; a torn
    final frame is the expected signature of a crash mid-append and is
    silently dropped.
    """
    with open(path, "rb") as fh:
        if fh.peek(1)[:1] == b"{":
            # The old writer sorted keys, so "version" closes the base line.
            found = re.search(rb'"version": (\d+)\}\s*$', fh.readline())
            _refuse_json_log(path, found.group(1).decode() if found else "1 or 2")
        try:
            for frame in iter_frames(fh, path):
                yield _record(*frame)
        except CodecError as exc:
            raise WalError(str(exc)) from exc


def read_wal_records(path: str) -> List[Dict[str, object]]:
    """:func:`iter_wal_records`, materialized (small logs and tests)."""
    return list(iter_wal_records(path))


def _pick_segment(path: str) -> Tuple[int, str, List[Dict[str, object]], int]:
    """The newest segment with an intact base, falling back one segment
    per torn/empty base (the mid-roll crash signature)."""
    segments = wal_segments(path)
    if not segments:
        raise WalError(f"{path}: empty WAL directory (no wal-NNNNNN.seg)")
    for position in range(len(segments) - 1, -1, -1):
        index, seg_path = segments[position]
        records = read_wal_records(seg_path)  # mid-log corruption raises
        if not records:
            # Empty or a single torn frame: the crash interrupted the roll
            # before this segment's base became durable.
            if position == 0:
                raise WalError(
                    f"{path}: no segment holds an intact base record"
                )
            continue
        if records[0].get("type") != "base":
            raise WalError(
                f"{seg_path}: first record is {records[0].get('type')!r}, "
                "not base"
            )
        return index, seg_path, records, len(segments)
    raise WalError(f"{path}: no segment holds an intact base record")


def _replay(path: str) -> Dict[str, object]:
    """Replay a WAL (single file or segment directory) into a
    :func:`service_checkpoint`-shaped artifact whose rows are still the
    arrays the frames decoded to."""
    from repro.service.checkpoint import (
        ARTIFACT_VERSION,
        _json_safe,
        _placement_signature,
    )

    extra_stats: Dict[str, object] = {}
    if os.path.isdir(path):
        segment, seg_path, records, total = _pick_segment(path)
        extra_stats = {
            "wal_segments": total,
            "wal_segment": segment,
            "wal_segment_path": seg_path,
        }
        origin = seg_path
    else:
        records = read_wal_records(path)
        origin = path
    if not records:
        raise WalError(f"{origin}: empty WAL (no base record)")
    base = records[0]
    if base.get("type") != "base":
        raise WalError(
            f"{origin}: first record is {base.get('type')!r}, not base"
        )

    ops = [r for r in records[1:] if r.get("type") == "op"]
    # The base's compacted epochs (if any) precede the segment's own seal
    # records; indexes are strictly increasing across the two.
    compacted = list(base.get("epochs", []))
    seals = compacted + [r for r in records[1:] if r.get("type") == "seal"]

    # Pass 1: final committed history -> fresh controller at the exact
    # placement the crashed service had.
    history = list(base["controller"].get("history", []))
    history.extend(op["entry"] for op in ops)
    controller = FlyMonController.construct_from_params(
        base["controller"]["params"]
    )
    refs = controller.replay_history(history)
    handles = controller.tasks
    index_of = {handle.task_id: i for i, handle in enumerate(handles)}

    # Pass 2: re-key seal records (live task ids at seal time) to task
    # indexes in the recovered controller's deployment order.
    epochs: List[Dict[str, object]] = []
    watcher_log: List[object] = []
    for seal in seals:
        tasks: Dict[str, object] = {}
        for tid_str, payload in seal.get("tasks", {}).items():
            handle = refs.get(int(tid_str))
            if handle is None:
                continue  # removed since this epoch sealed
            tasks[str(index_of[handle.task_id])] = payload
        epochs.append(
            {
                "index": seal["index"],
                "packets": seal["packets"],
                "start_ts": seal.get("start_ts"),
                "end_ts": seal.get("end_ts"),
                "seal_ms": seal.get("seal_ms", 0.0),
                "tasks": tasks,
                "outputs": seal.get("outputs", {}),
                "watcher_events": seal.get("watcher_events", []),
            }
        )
        watcher_log.extend(seal.get("watcher_events", []))

    rotation = dict(base.get("rotation", {}))
    retain = int(rotation.get("retain") or len(epochs) or 1)
    return {
        "version": ARTIFACT_VERSION,
        "controller": controller.checkpoint(),
        "rotation": rotation,
        "tasks": [
            {
                "algorithm": handle.algorithm_name,
                "task_id": handle.task_id,
                "key": [list(part) for part in handle.task.key.parts],
                "placement": _placement_signature(handle),
            }
            for handle in handles
        ],
        "series": list(base.get("series", [])),
        "epochs": epochs[-retain:],
        "watcher_log": _json_safe(watcher_log),
        "stats": {
            "recovered_from_wal": True,
            "wal_records": len(records),
            "wal_seals": len(seals),
            "wal_compacted": len(compacted),
            "wal_ops": len(ops),
            "epochs_recovered": len(epochs[-retain:]),
            **extra_stats,
        },
    }


def recover_service_artifact(path: str) -> Dict[str, object]:
    """Replay a WAL (single file or segment directory) into a JSON-safe
    :func:`service_checkpoint`-format artifact."""
    from repro.service.checkpoint import _json_safe

    artifact = _replay(path)
    for epoch in artifact["epochs"]:
        for payload in epoch["tasks"].values():
            payload["rows"] = _json_safe(payload["rows"])
    return artifact


def recover_service(path: str):
    """Rebuild a queryable :class:`RestoredService` straight from a WAL
    (the decoded arrays go to :func:`load_service_state` as they are)."""
    from repro.service.checkpoint import load_service_state

    return load_service_state(_replay(path))
