"""Drive a service over a trace: the one run loop behind the CLI.

``repro serve``, ``profile``, ``top`` and ``fabric serve``/``query`` all do
the same thing once their service is built: feed the trace in chunks,
report every epoch that seals, stop early on SIGTERM or a failed WAL write,
and seal the ragged tail.  :class:`ServiceRunner` is that loop, for a
:class:`~repro.service.engine.MeasurementService` and a
:class:`~repro.fabric.service.FabricService` alike.
"""

from __future__ import annotations

import signal
from typing import Callable, Iterator, List, Optional

from repro.service.engine import SealedEpoch
from repro.service.wal import WalWriteError
from repro.traffic.packet import PACKET_FIELDS
from repro.traffic.trace import Trace


class ServiceRunner:
    """Feed ``trace`` to ``service`` in ``chunk``-packet pieces.

    Iterating yields each sealed epoch exactly once, in index order: the
    ones a chunk sealed, the ones the wall-clock sealer sealed meanwhile
    (``epoch_wall_ms`` services are started and stopped here), and the
    tail.  ``on_chunk()`` runs after each chunk's epochs; ``done`` counts
    the packets ingested so far.

    SIGTERM (the handler is installed for the run, from the main thread
    only) asks the loop to stop at the next chunk boundary -- a signal
    never unwinds a seal or a WAL append halfway.  The open window is then
    sealed like at the end of the trace.  A :class:`WalWriteError`
    (``--wal-policy fail``) stops ingest at once and seals nothing more:
    every epoch sealed so far is intact and durable.  Any other exception
    stops the service and propagates, sealing nothing.

    Afterwards ``outcome`` is ``"done"``, ``"terminated"`` (SIGTERM) or
    ``"halted"`` (WAL failure, kept in ``error``).
    """

    def __init__(
        self,
        service,
        trace: Trace,
        chunk: int,
        on_chunk: Optional[Callable[[], None]] = None,
    ) -> None:
        self.service = service
        self.trace = trace
        self.chunk = max(1, chunk)
        self.on_chunk = on_chunk
        self.outcome: Optional[str] = None
        self.error: Optional[WalWriteError] = None
        self.done = 0
        self._terminated = False
        self._last = -1

    def __iter__(self) -> Iterator[SealedEpoch]:
        service = self.service
        try:
            previous = signal.signal(signal.SIGTERM, self._on_sigterm)
        except ValueError:  # not the main thread (embedded use)
            previous = None
        if service.epoch_wall_ms is not None:
            service.start()
        clean = False
        try:
            for start in range(0, len(self.trace), self.chunk):
                if self._terminated:
                    break
                piece = Trace(
                    {
                        f: self.trace.columns[f][start : start + self.chunk]
                        for f in PACKET_FIELDS
                    }
                )
                try:
                    sealed = service.ingest(piece)
                except WalWriteError as exc:
                    self.error = exc
                    break
                self.done += len(piece)
                yield from self._fresh(sealed)
                if self.on_chunk is not None:
                    self.on_chunk()
            clean = True
        finally:
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
            tail = service.stop(seal_tail=clean and self.error is None)
        yield from self._fresh([tail] if tail is not None else [])
        if self.error is not None:
            self.outcome = "halted"
        elif self._terminated:
            self.outcome = "terminated"
        else:
            self.outcome = "done"

    def _on_sigterm(self, signum, frame) -> None:
        self._terminated = True

    def _fresh(self, sealed: List[SealedEpoch]) -> Iterator[SealedEpoch]:
        """``sealed`` plus whatever else reached the ring, not yet yielded."""
        pending = {s.index: s for s in self.service.epochs}
        pending.update((s.index, s) for s in sealed)
        for index in sorted(pending):
            if index > self._last:
                # Bump before yielding: whatever the consumer does with the
                # epoch, it is never yielded again.
                self._last = index
                yield pending[index]
