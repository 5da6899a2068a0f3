"""Timing wrappers the traced run installs around the program's layers.

A span has a layer name, a start, an end and the span that caused it (the
one on top of the stack when it opened).  Spans are folded into per-layer
totals as they close -- calls, inclusive time, *self* time (inclusive minus
the part its child spans cover) and rows -- so a two-million-packet run
keeps a few dozen counters in memory, not millions of records.  Because
every nanosecond of a root span is either some descendant's self time or
the root's own, the layers' self times plus the root's always sum to the
root's duration exactly.

Single-threaded by design: the ladder's load model is one closed-loop
client, and shard workers are separate processes whose time is accounted
from the program's own ``ShardRunReport``.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "harness.region"


@dataclass
class LayerTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    rows: int = 0


@dataclass(frozen=True)
class Target:
    """One function the traced run wraps.

    ``path`` is ``module:attr`` or ``module:Class.attr``.  ``rows_arg`` is
    the positional index (``self`` = 0) of the argument whose ``len`` is the
    call's row count.  ``generator`` times each resume of the returned
    iterator instead of the call that builds it.  ``keep_results`` stores
    every return value under the layer name (the shard reports).
    """

    layer: str
    path: str
    rows_arg: Optional[int] = None
    generator: bool = False
    keep_results: bool = False


class Recorder:
    """Per-layer span totals plus install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerTotals] = {}
        self.results: Dict[str, List[object]] = {}
        self._stack: List[List[int]] = []
        self._installed: List[Tuple[object, str, object]] = []
        # Objects built while the wrappers were installed may keep bound
        # references to them (pipeline stage hooks do); once uninstalled,
        # such a lingering wrapper must pass straight through.
        self._active = False

    # -- spans ----------------------------------------------------------

    def _open(self) -> int:
        self._stack.append([0])
        return time.perf_counter_ns()

    def _close(self, layer: str, started: int, rows: int = 0) -> None:
        duration = time.perf_counter_ns() - started
        child_ns = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += duration
        totals = self.layers.get(layer)
        if totals is None:
            totals = self.layers[layer] = LayerTotals()
        totals.calls += 1
        totals.total_ns += duration
        totals.self_ns += duration - child_ns
        totals.rows += rows

    def span(self, layer: str) -> "_Span":
        """Context manager for spans the harness opens itself (the root)."""
        return _Span(self, layer)

    def clear(self) -> None:
        self.layers = {}
        for kept in self.results.values():
            del kept[:]  # installed wrappers hold these lists

    # -- wrappers -------------------------------------------------------

    def _wrap_call(self, target: Target, fn: Callable) -> Callable:
        layer, rows_arg = target.layer, target.rows_arg
        kept = self.results.setdefault(layer, []) if target.keep_results else None

        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            started = self._open()
            rows = 0
            try:
                if rows_arg is not None:
                    rows = len(args[rows_arg])
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, started, rows)
            if kept is not None:
                kept.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, target: Target, fn: Callable) -> Callable:
        layer = target.layer

        def wrapper(*args, **kwargs):
            if not self._active:
                yield from fn(*args, **kwargs)
                return
            started = self._open()
            try:
                iterator = iter(fn(*args, **kwargs))
            finally:
                self._close(layer, started)
            while True:
                # One resume = one batch handed over; the consumer's work
                # between resumes belongs to whoever asked for the batch.
                started = self._open()
                try:
                    item = next(iterator)
                except StopIteration:
                    self._close(layer, started)
                    return
                self._close(layer, started, 1)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets: Sequence[Target]) -> None:
        """Replace every target with its timing wrapper.

        A target that does not resolve raises ``LookupError`` naming it: the
        budget table must never silently lose a layer.
        """
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        resolved = [(target, *resolve(target.path)) for target in targets]
        for target, owner, attr, fn in resolved:
            wrap = self._wrap_generator if target.generator else self._wrap_call
            setattr(owner, attr, wrap(target, fn))
            self._installed.append((owner, attr, fn))
        self._active = True

    def uninstall(self) -> None:
        self._active = False
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []

    def snapshot(self) -> Dict[str, LayerTotals]:
        """A copy of the totals so far (later spans do not change it)."""
        return {layer: dataclasses.replace(totals) for layer, totals in self.layers.items()}


class _Span:
    def __init__(self, recorder: Recorder, layer: str) -> None:
        self._recorder = recorder
        self._layer = layer
        self._started = 0

    def __enter__(self) -> "_Span":
        self._started = self._recorder._open()
        return self

    def __exit__(self, *exc) -> None:
        self._recorder._close(self._layer, self._started)


def resolve(path: str) -> Tuple[object, str, Callable]:
    """``module:Class.attr`` -> (owner object, attribute name, function)."""
    module_name, _, dotted = path.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
        *parents, attr = dotted.split(".")
        for name in parents:
            owner = getattr(owner, name)
        fn = getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise LookupError(f"trace target {path!r} does not resolve: {exc}") from exc
    if not callable(fn):
        raise LookupError(f"trace target {path!r} is not callable")
    return owner, attr, fn
