"""Undo-log transactions for control-plane reconfiguration.

Every public mutation of :class:`repro.core.controller.FlyMonController`
(``add_task``, ``remove_task``, ``update_task_filter``, ``resize_task``,
``add_split_task``) runs inside a :class:`ReconfigTransaction`.  Each step
that changes shared state records an inverse action; if the operation raises
at any point, :meth:`ReconfigTransaction.rollback` replays the inverses in
reverse order, leaving the controller, key pools, memory allocators, and
runtime rule table bit-identical to their pre-call state.

Two kinds of entries are recorded:

* **closures** -- e.g. :meth:`repro.dataplane.runtime.StagedInstall.revert`
  for an applied rule batch, or the re-install closure that
  :meth:`repro.dataplane.runtime.RuntimeApi.remove_deployment` records;
* **snapshots** -- cheap control-plane stores (key-manager refcounts, buddy
  allocator free lists, the controller's handle table) captured through
  their ``snapshot()``/``restore()`` pair via :meth:`snapshot`.  They are
  scoped to what the operation can touch: the handle table plus the key
  pool and allocators of the groups it works on (the chosen window for an
  add, the pinned groups for a pinned add, the task's granted groups for a
  remove), so an operation costs the same whatever the number of groups.

Operations record their control-store snapshots *first* so they run *last*
during rollback: data-plane unwinding (reverting rules, restoring hash
masks and register cells) happens before the control stores are reset.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.telemetry import (
    EV_TXN_ROLLBACK,
    RECORDER as _RECORDER,
    TELEMETRY as _TELEMETRY,
)

STATE_OPEN = "open"
STATE_COMMITTED = "committed"
STATE_ROLLED_BACK = "rolled_back"


class TxnRollbackError(RuntimeError):
    """An undo action itself failed during rollback.

    The transaction keeps unwinding the remaining entries before raising
    this, but state consistency can no longer be guaranteed.
    """


class ReconfigTransaction:
    """An undo log for one control-plane operation.

    Use as a context manager: the body's mutations record their inverses;
    an exception triggers :meth:`rollback` (and is re-raised), a clean exit
    triggers :meth:`commit` (which discards the log).

    Transactions nest by *sharing*: a compound operation (``resize_task``,
    ``add_split_task``) passes its transaction down to the primitive calls,
    which record into it instead of opening their own -- so one failure
    anywhere unwinds the whole compound operation.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.state = STATE_OPEN
        self._undo: List[Tuple[str, Callable[[], None]]] = []

    # -- recording -----------------------------------------------------------

    def record(self, description: str, action: Callable[[], None]) -> None:
        """Append an inverse action (run in reverse order on rollback)."""
        if self.state != STATE_OPEN:
            raise RuntimeError(f"transaction {self.name!r} is {self.state}")
        self._undo.append((description, action))

    def snapshot(self, description: str, store) -> None:
        """Capture ``store.snapshot()`` now; restore it on rollback."""
        state = store.snapshot()
        self.record(description, lambda: store.restore(state))

    @property
    def entries(self) -> Tuple[str, ...]:
        """Descriptions of the recorded inverses, in record order."""
        return tuple(description for description, _ in self._undo)

    # -- resolution ----------------------------------------------------------

    def commit(self) -> None:
        """Discard the undo log; the operation's effects are now permanent."""
        if self.state != STATE_OPEN:
            raise RuntimeError(f"transaction {self.name!r} is {self.state}")
        self.state = STATE_COMMITTED
        self._undo.clear()

    def rollback(self, cause: Optional[BaseException] = None) -> None:
        """Replay the recorded inverses in reverse order.

        Rolling back an already-resolved transaction is a no-op.  Failures
        of individual undo actions do not stop the unwinding; they are
        collected and surfaced as a :class:`TxnRollbackError` at the end.
        """
        if self.state != STATE_OPEN:
            return
        self.state = STATE_ROLLED_BACK
        entries = self._undo
        self._undo = []
        errors: List[Tuple[str, BaseException]] = []
        with _RECORDER.span(
            "txn.rollback", cat="control", txn=self.name, entries=len(entries)
        ):
            for description, action in reversed(entries):
                try:
                    action()
                except BaseException as exc:  # noqa: BLE001 - keep unwinding
                    errors.append((description, exc))
        if _TELEMETRY.enabled:
            _TELEMETRY.registry.counter("flymon_rollbacks_total").inc()
            _TELEMETRY.events.emit(
                EV_TXN_ROLLBACK,
                name=self.name,
                entries=len(entries),
                undo_errors=len(errors),
                cause=type(cause).__name__ if cause is not None else None,
            )
        if errors:
            failed = ", ".join(description for description, _ in errors)
            raise TxnRollbackError(
                f"transaction {self.name!r}: {len(errors)} undo action(s) "
                f"failed ({failed}); state may be inconsistent"
            ) from (errors[0][1] if cause is None else cause)

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "ReconfigTransaction":
        if self.state != STATE_OPEN:
            raise RuntimeError(f"transaction {self.name!r} is {self.state}")
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is None:
            if self.state == STATE_OPEN:
                self.commit()
        else:
            self.rollback(cause=exc)
        return False


def in_transaction(name: str, transaction: Optional[ReconfigTransaction]):
    """The transaction a primitive operation should record into.

    Returns ``(txn, owned)``: the caller's transaction when one was passed
    (``owned=False`` -- the outer operation resolves it), or a fresh one
    (``owned=True`` -- the primitive commits/rolls back itself).
    """
    if transaction is not None:
        return transaction, False
    return ReconfigTransaction(name), True
