"""The pipeline flight recorder: structured, phase-attributed timing spans.

Where :mod:`repro.telemetry.tracing` answers *"how long does one sampled
packet take?"* with per-packet histograms, the flight recorder answers
*"where did this run's time go?"*: every coarse-grained phase of the runtime
-- a trace replay, an epoch seal, a fabric barrier, a control-plane
transaction -- opens a :meth:`FlightRecorder.span` and lands in a bounded
in-memory ring as a :class:`SpanRecord` carrying its parent span id, wall
and CPU durations, and free-form attributes.  Spans are recorded
**unconditionally** while the recorder is enabled (no sampling -- the
instrumented sites fire a handful of times per trace run, never per
packet), and the disabled path is a single attribute check returning a
shared no-op context manager, so leaving the recorder off costs nothing
measurable (see ``tests/dataplane/test_telemetry_overhead.py``).

Three consumers sit on top of the ring:

* :func:`aggregate_spans` folds the ring into a phase tree (grouping spans
  by name along their parent chains) that :func:`format_phase_tree` renders
  with percentages and unattributed self-time -- the ``repro profile``
  output;
* :func:`to_chrome_trace` emits Chrome ``trace_event`` JSON (complete
  events, ``ph: "X"``) loadable in Perfetto / ``chrome://tracing``;
* :meth:`FlightRecorder.to_dicts` is the plain-JSON form for artifacts.

Work measured *outside* the recorder's call stack (timed with raw
``perf_counter`` reads) is grafted in after the fact with
:meth:`FlightRecorder.add`, which accepts an explicit parent id and start
timestamp so synthetic spans nest correctly in both the tree and the Chrome
timeline.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence

#: Spans retained in the ring by default; old spans fall off the front.
DEFAULT_CAPACITY = 8192

#: Sentinel for ``FlightRecorder.add(parent_id=...)``: attach to the
#: caller's currently open span (if any).
CURRENT = "current"


class SpanRecord:
    """One completed span: identity, position in the tree, and durations.

    ``start_us`` is microseconds since the recorder's epoch (reset by
    :meth:`FlightRecorder.clear`), which is also the Chrome ``ts`` unit.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "cat",
        "start_us",
        "wall_ms",
        "cpu_ms",
        "attrs",
        "tid",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        cat: str,
        start_us: float,
        wall_ms: float,
        cpu_ms: float,
        attrs: Dict[str, object],
        tid: int,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.start_us = start_us
        self.wall_ms = wall_ms
        self.cpu_ms = cpu_ms
        self.attrs = attrs
        self.tid = tid

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "cat": self.cat,
            "start_us": self.start_us,
            "wall_ms": self.wall_ms,
            "cpu_ms": self.cpu_ms,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, wall={self.wall_ms:.3f}ms)"
        )


class _NullSpan:
    """The shared disabled-path context manager: enter/exit do nothing.

    Carries ``span_id = None`` so call sites can read ``sp.span_id``
    uniformly whether the recorder is on or off.
    """

    __slots__ = ()
    span_id: Optional[int] = None
    parent_id: Optional[int] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """A live span: times its block and appends a record on exit."""

    __slots__ = ("_rec", "name", "cat", "attrs", "span_id", "parent_id", "_wall0", "_cpu0")

    def __init__(self, rec: "FlightRecorder", name: str, cat: str, attrs: Dict[str, object]) -> None:
        self._rec = rec
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None

    def __enter__(self) -> "_Span":
        rec = self._rec
        stack = rec._stack()
        self.parent_id = stack[-1] if stack else None
        self.span_id = next(rec._ids)
        stack.append(self.span_id)
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> bool:
        wall1 = time.perf_counter()
        cpu1 = time.process_time()
        rec = self._rec
        stack = rec._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        rec._ring.append(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                cat=self.cat,
                start_us=(self._wall0 - rec._t0) * 1e6,
                wall_ms=(wall1 - self._wall0) * 1e3,
                cpu_ms=(cpu1 - self._cpu0) * 1e3,
                attrs=self.attrs,
                tid=threading.get_ident(),
            )
        )
        return False


class FlightRecorder:
    """Bounded ring of phase spans with a per-thread nesting stack.

    Disabled by default; :meth:`span` then returns the shared
    :data:`NULL_SPAN` after one attribute check.  Enabled, each span costs
    two ``perf_counter`` + two ``process_time`` reads and one deque append
    -- affordable because instrumented sites are coarse (per run / epoch /
    transaction, never per packet).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.enabled = False
        self._ring: Deque[SpanRecord] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._t0 = time.perf_counter()

    # -- lifecycle -----------------------------------------------------------

    def enable(self, capacity: Optional[int] = None) -> "FlightRecorder":
        if capacity is not None and capacity != self._ring.maxlen:
            if capacity <= 0:
                raise ValueError("capacity must be positive")
            self._ring = deque(self._ring, maxlen=capacity)
        self.enabled = True
        return self

    def disable(self) -> "FlightRecorder":
        self.enabled = False
        return self

    def clear(self) -> "FlightRecorder":
        """Drop every recorded span and restart the timebase."""
        self._ring.clear()
        self._t0 = time.perf_counter()
        return self

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_id(self) -> Optional[int]:
        """The innermost open span's id on this thread (or ``None``)."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def now_us(self) -> float:
        """Microseconds since the recorder's epoch (the ``start_us`` base)."""
        return (time.perf_counter() - self._t0) * 1e6

    def rel_us(self, perf_counter_time: float) -> float:
        """Convert a raw ``time.perf_counter()`` reading to ``start_us``."""
        return (perf_counter_time - self._t0) * 1e6

    def span(self, name: str, cat: str = "", **attrs: object):
        """Context manager timing a phase; no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, cat, attrs)

    def add(
        self,
        name: str,
        wall_ms: float,
        cpu_ms: float = 0.0,
        parent_id: object = CURRENT,
        start_us: Optional[float] = None,
        cat: str = "",
        **attrs: object,
    ) -> Optional[int]:
        """Graft an externally measured duration into the ring.

        For work timed outside this recorder's call stack (post-hoc
        attribution).  ``parent_id`` defaults to
        the caller's currently open span; pass an explicit id (e.g. a
        ``_Span.span_id`` captured earlier) or ``None`` for a root.
        ``start_us`` positions the span on the Chrome timeline; it defaults
        to ending *now* (i.e. ``now_us() - wall_ms``).
        """
        if not self.enabled:
            return None
        if parent_id is CURRENT:
            parent_id = self.current_id()
        if start_us is None:
            start_us = self.now_us() - wall_ms * 1e3
        span_id = next(self._ids)
        self._ring.append(
            SpanRecord(
                span_id=span_id,
                parent_id=parent_id,  # type: ignore[arg-type]
                name=name,
                cat=cat,
                start_us=float(start_us),
                wall_ms=float(wall_ms),
                cpu_ms=float(cpu_ms),
                attrs=attrs,
                tid=threading.get_ident(),
            )
        )
        return span_id

    # -- export --------------------------------------------------------------

    @property
    def spans(self) -> List[SpanRecord]:
        """The retained spans, oldest first (completion order)."""
        return list(self._ring)

    def to_dicts(self) -> List[Dict[str, object]]:
        return [span.to_dict() for span in self._ring]


# ---------------------------------------------------------------------------
# Phase-tree aggregation (the `repro profile` view)
# ---------------------------------------------------------------------------


class PhaseNode:
    """Aggregated totals for every span sharing a name at one tree level."""

    __slots__ = ("name", "count", "wall_ms", "cpu_ms", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.wall_ms = 0.0
        self.cpu_ms = 0.0
        self.children: Dict[str, "PhaseNode"] = {}

    @property
    def children_wall_ms(self) -> float:
        return sum(child.wall_ms for child in self.children.values())

    @property
    def self_ms(self) -> float:
        """Wall time not attributed to any child phase (clamped at zero)."""
        return max(0.0, self.wall_ms - self.children_wall_ms)

    @property
    def coverage(self) -> float:
        """Fraction of this phase's wall time its children account for."""
        if not self.children or self.wall_ms <= 0.0:
            return 1.0
        return min(1.0, self.children_wall_ms / self.wall_ms)

    def find(self, name: str) -> Optional["PhaseNode"]:
        """Depth-first search for a phase by name (self included)."""
        if self.name == name:
            return self
        for child in self.children.values():
            found = child.find(name)
            if found is not None:
                return found
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "count": self.count,
            "wall_ms": self.wall_ms,
            "cpu_ms": self.cpu_ms,
            "self_ms": self.self_ms,
            "children": [c.to_dict() for c in self.children.values()],
        }


def aggregate_spans(spans: Sequence[SpanRecord]) -> PhaseNode:
    """Fold spans into a phase tree rooted at a synthetic ``total`` node.

    Children are attached through actual parent ids, then grouped by name
    at each level, so two epochs' ``rotate.snapshot`` spans aggregate into
    one node under ``service.rotate``.  A span whose parent has fallen off
    the ring (or was never recorded) becomes a root.
    """
    ids = {span.span_id for span in spans}
    children: Dict[Optional[int], List[SpanRecord]] = {}
    roots: List[SpanRecord] = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in ids:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)

    def build_into(parent: PhaseNode, group: List[SpanRecord]) -> None:
        by_name: Dict[str, List[SpanRecord]] = {}
        for span in group:
            by_name.setdefault(span.name, []).append(span)
        for name, members in by_name.items():
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = PhaseNode(name)
            kids: List[SpanRecord] = []
            for span in members:
                node.count += 1
                node.wall_ms += span.wall_ms
                node.cpu_ms += span.cpu_ms
                kids.extend(children.get(span.span_id, ()))
            if kids:
                build_into(node, kids)

    root = PhaseNode("total")
    build_into(root, roots)
    root.count = sum(node.count for node in root.children.values())
    root.wall_ms = root.children_wall_ms
    root.cpu_ms = sum(node.cpu_ms for node in root.children.values())
    return root


def format_phase_tree(
    root: PhaseNode,
    min_pct: float = 0.05,
    unattributed_label: str = "(unattributed)",
) -> str:
    """Render the phase tree with wall ms, percent-of-total, and counts.

    Phases under ``min_pct`` percent of the total are folded into their
    parent's unattributed line; each branching node with measurable
    untracked time gets an explicit ``(unattributed)`` row so every level
    sums to its parent.
    """
    total = root.wall_ms or 1.0
    lines = [f"{'phase':<46} {'wall ms':>10} {'%':>7} {'count':>7}"]
    lines.append("-" * 73)

    def pct(ms: float) -> str:
        return f"{100.0 * ms / total:6.1f}%"

    def emit(node: PhaseNode, depth: int) -> None:
        label = ("  " * depth + node.name)[:46]
        lines.append(
            f"{label:<46} {node.wall_ms:>10.2f} {pct(node.wall_ms):>7} "
            f"{node.count:>7}"
        )
        ordered = sorted(
            node.children.values(), key=lambda c: c.wall_ms, reverse=True
        )
        shown_any = False
        hidden_ms = 0.0
        for child in ordered:
            if 100.0 * child.wall_ms / total < min_pct and shown_any:
                hidden_ms += child.wall_ms
                continue
            emit(child, depth + 1)
            shown_any = True
        if node.children:
            leftover = node.self_ms + hidden_ms
            if leftover > 0.0 and 100.0 * leftover / total >= min_pct:
                label = ("  " * (depth + 1) + unattributed_label)[:46]
                lines.append(f"{label:<46} {leftover:>10.2f} {pct(leftover):>7} {'':>7}")

    for child in sorted(root.children.values(), key=lambda c: c.wall_ms, reverse=True):
        emit(child, 0)
    lines.append("-" * 73)
    lines.append(f"{'total':<46} {root.wall_ms:>10.2f} {'100.0%':>7} {root.count:>7}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Chrome trace_event export (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------------


def to_chrome_trace(
    spans: Iterable[SpanRecord], meta: Optional[Mapping[str, object]] = None
) -> Dict[str, object]:
    """Chrome ``trace_event`` JSON: one complete (``ph: "X"``) event per span.

    Thread idents are remapped to small consecutive tids so the timeline
    groups nicely; span/parent ids ride in ``args`` for programmatic use.
    """
    tids: Dict[int, int] = {}
    events: List[Dict[str, object]] = []
    for span in spans:
        tid = tids.setdefault(span.tid, len(tids) + 1)
        events.append(
            {
                "name": span.name,
                "cat": span.cat or "flymon",
                "ph": "X",
                "ts": round(span.start_us, 3),
                "dur": round(span.wall_ms * 1e3, 3),
                "pid": 1,
                "tid": tid,
                "args": {
                    **{k: _jsonable(v) for k, v in span.attrs.items()},
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "cpu_ms": round(span.cpu_ms, 3),
                },
            }
        )
    trace: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if meta:
        trace["otherData"] = {k: _jsonable(v) for k, v in meta.items()}
    return trace


def write_chrome_trace(
    path: str,
    spans: Iterable[SpanRecord],
    meta: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    trace = to_chrome_trace(spans, meta=meta)
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
    return trace


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
