"""Structured control-plane event log.

Every controller-side operation (task lifecycle, placement, key grants,
buddy-allocator activity, rule installs) emits one typed :class:`Event` with
a process-monotonic timestamp and a global sequence number, so the full
reconfiguration history of an experiment can be replayed, queried, or dumped
as JSON Lines.
"""

from __future__ import annotations

import json
import time
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional

# -- event taxonomy (docs/TELEMETRY.md documents the payloads) --------------

EV_TASK_ADD = "task_add"
EV_TASK_REMOVE = "task_remove"
EV_TASK_RESIZE = "task_resize"
EV_TASK_FILTER_UPDATE = "task_filter_update"
EV_TASK_SPLIT = "task_split"
EV_PLACEMENT_DECISION = "placement_decision"
EV_KEY_GRANT = "key_grant"
EV_KEY_RELEASE = "key_release"
EV_MEM_ALLOC = "mem_alloc"
EV_MEM_FREE = "mem_free"
EV_MEM_SPLIT = "mem_split"
EV_RULES_INSTALL = "rules_install"
EV_RULES_REMOVE = "rules_remove"
EV_TXN_ROLLBACK = "txn_rollback"
EV_FAULT_INJECTED = "fault_injected"
EV_CHECKPOINT = "checkpoint"
EV_RESTORE = "restore"
EV_EPOCH_SEAL = "epoch_seal"
EV_WATCHER_FIRED = "watcher_fired"
EV_WATCHER_ACTION = "watcher_action"
EV_WAL_DEGRADED = "wal_degraded"
EV_WAL_REATTACHED = "wal_reattached"
EV_WAL_SEGMENT_ROLL = "wal_segment_roll"
EV_SEALER_RESTARTED = "sealer_restarted"
EV_INGEST_SHED = "ingest_shed"

EVENT_TYPES = frozenset(
    {
        EV_TASK_ADD,
        EV_TASK_REMOVE,
        EV_TASK_RESIZE,
        EV_TASK_FILTER_UPDATE,
        EV_TASK_SPLIT,
        EV_PLACEMENT_DECISION,
        EV_KEY_GRANT,
        EV_KEY_RELEASE,
        EV_MEM_ALLOC,
        EV_MEM_FREE,
        EV_MEM_SPLIT,
        EV_RULES_INSTALL,
        EV_RULES_REMOVE,
        EV_TXN_ROLLBACK,
        EV_FAULT_INJECTED,
        EV_CHECKPOINT,
        EV_RESTORE,
        EV_EPOCH_SEAL,
        EV_WATCHER_FIRED,
        EV_WATCHER_ACTION,
        EV_WAL_DEGRADED,
        EV_WAL_REATTACHED,
        EV_WAL_SEGMENT_ROLL,
        EV_SEALER_RESTARTED,
        EV_INGEST_SHED,
    }
)


@dataclass(frozen=True)
class Event:
    """One control-plane event: what happened, when, and its payload."""

    seq: int
    ts_ms: float  #: monotonic milliseconds since the log's epoch
    type: str
    data: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"seq": self.seq, "ts_ms": self.ts_ms, "type": self.type, **self.data}


class EventLog:
    """Append-only, bounded log of :class:`Event` records.

    ``capacity`` bounds memory for long-running processes: once full, the
    oldest events are dropped (``dropped`` counts them) while sequence
    numbers keep increasing, so gaps are detectable.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._events: List[Event] = []
        self._seq = 0
        self._epoch = time.monotonic()

    # -- recording ----------------------------------------------------------

    def emit(self, type: str, **data: object) -> Event:
        if type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {type!r}")
        self._seq += 1
        event = Event(
            seq=self._seq,
            ts_ms=(time.monotonic() - self._epoch) * 1e3,
            type=type,
            data=data,
        )
        self._events.append(event)
        if len(self._events) > self.capacity:
            overflow = len(self._events) - self.capacity
            del self._events[:overflow]
            self.dropped += overflow
        return event

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    # -- querying -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(list(self._events))

    def query(
        self,
        type: Optional[str] = None,
        since_seq: int = 0,
        predicate: Optional[Callable[[Event], bool]] = None,
        **data_filters: object,
    ) -> List[Event]:
        """Events matching a type, minimum sequence, and payload values.

        ``data_filters`` match on payload equality, e.g.
        ``log.query(task_id=3)`` or ``log.query(EV_KEY_GRANT, group=0)``.
        """
        out = []
        for event in self._events:
            if type is not None and event.type != type:
                continue
            if event.seq <= since_seq:
                continue
            if any(event.data.get(k) != v for k, v in data_filters.items()):
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def of_type(self, type: str) -> List[Event]:
        return self.query(type=type)

    def type_counts(self) -> Dict[str, int]:
        return dict(TallyCounter(e.type for e in self._events))

    # -- export -------------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, object]]:
        return [event.to_dict() for event in self._events]

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(event.to_dict(), sort_keys=True, default=str)
            for event in self._events
        )

    def dump_jsonl(self, path: str) -> int:
        """Write the log as JSON Lines; returns the number of events."""
        text = self.to_jsonl()
        with open(path, "w") as fh:
            if text:
                fh.write(text + "\n")
        return len(self._events)
