"""Epoch-driven measurement loops.

Sketch state is meaningful per measurement epoch: the control plane reads
and resets registers at epoch boundaries (§2.1's "single pass ... within a
measurement epoch").  :class:`EpochRunner` packages that loop: split a trace
into epochs, process each, hand the deployed tasks to a per-epoch collector
callback, and reset state for the next window.

The runner is a thin wrapper over the streaming engine
(:class:`~repro.service.engine.MeasurementService` in manual-rotation mode),
so epoch processing rides the same batched fast path as the
long-running service and every rotation produces a queryable
:class:`~repro.service.engine.SealedEpoch` alongside the collector outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.controller import FlyMonController, TaskHandle
from repro.traffic.trace import Trace


@dataclass
class EpochResult:
    """One epoch's collected outputs."""

    epoch: int
    packets: int
    outputs: Dict[str, object] = field(default_factory=dict)
    #: The epoch's sealed register snapshot (queryable after the run).
    sealed: Optional[object] = None


class EpochRunner:
    """Runs a controller across measurement epochs with automatic resets.

    ``collectors`` maps an output name to a callback receiving
    ``(epoch_index, epoch_trace)`` and returning any value (typically a
    query against a task handle); results are gathered per epoch and state
    is reset afterwards.  By default *every* controller deployment resets
    at each boundary; :meth:`track` narrows the reset to specific handles
    (tasks meant to accumulate across epochs stay untouched).
    """

    def __init__(self, controller: FlyMonController) -> None:
        self.controller = controller
        self._handles: List[TaskHandle] = []
        self._collectors: Dict[str, Callable[[int, Trace], object]] = {}

    def track(self, handle: TaskHandle) -> TaskHandle:
        """Narrow the end-of-epoch reset to this handle (and other tracked
        ones).  Without any tracked handle, all deployments reset."""
        self._handles.append(handle)
        return handle

    def collect(self, name: str, fn: Callable[[int, Trace], object]) -> None:
        if name in self._collectors:
            raise ValueError(f"collector {name!r} already registered")
        self._collectors[name] = fn

    def run(
        self,
        trace: Trace,
        num_epochs: int,
        on_epoch_start: Optional[Callable[[int], None]] = None,
        batch_size: Optional[int] = None,
    ) -> List[EpochResult]:
        """Process ``trace`` in ``num_epochs`` windows; returns per-epoch
        collector outputs.  ``on_epoch_start`` hooks control-plane actions
        (task inserts/removals/resizes) at epoch boundaries.

        ``batch_size`` sets the vectorized engine's chunk size (``0``
        forces the scalar reference loop); both are bit-identical to scalar
        replay.
        """
        from repro.service.engine import MeasurementService

        service = MeasurementService(
            self.controller,
            retain=max(1, num_epochs),
            batch_size=batch_size,
        )
        results: List[EpochResult] = []
        for epoch, window in enumerate(trace.split_epochs(num_epochs)):
            if on_epoch_start is not None:
                on_epoch_start(epoch)
            service.ingest(window)
            # Collectors read live state (old contract), before the seal
            # snapshots it and resets for the next window.
            outputs = {
                name: fn(epoch, window) for name, fn in self._collectors.items()
            }
            sealed = service.rotate(reset_handles=self._handles or None)
            results.append(
                EpochResult(
                    epoch=epoch,
                    packets=len(window),
                    outputs=outputs,
                    sealed=sealed,
                )
            )
        return results
