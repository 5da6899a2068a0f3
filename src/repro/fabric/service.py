"""The federated fabric service: N per-switch services behind one query plane.

One :class:`~repro.service.engine.MeasurementService` runs per simulated
switch (manual rotation -- the fabric owns the epoch clock).  A *canonical*
controller, which processes no traffic, hosts every fabric task once and
defines its coordinates; each hosting switch installs the task at those
exact coordinates via pinned placement, so at seal time the hosts' register
ranges merge law-by-law into a fabric :class:`SealedEpoch` in canonical
coordinates -- bit-identical to a single switch that saw the hosts'
combined traffic.  Queries bind the canonical handles against fabric
epochs through the unmodified typed query plane.

Epoch alignment: every barrier runs under the fabric lock and rotates all
members back-to-back, so no packet window straddles a fabric epoch.  In
wall-clock mode each member runs its own ticker thread; the *first* tick
number to arrive triggers the barrier and the drifted same-numbered ticks
from slower members are absorbed -- per-member clock skew within a tick
cannot split an epoch.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.controller import FlyMonController, TaskHandle
from repro.core.task import MeasurementTask
from repro.core.txn import ReconfigTransaction
from repro.fabric.merge import merge_member_epochs, task_merge_laws
from repro.faults import FAULTS, SITE_MEMBER_SEAL, FaultError
from repro.fabric.placement import FabricPlacer, PlacementDecision
from repro.fabric.topology import FabricTopology
from repro.service.engine import MeasurementService, SealedEpoch, StaleEpochError, _split_trace
from repro.telemetry import RECORDER as _RECORDER
from repro.traffic.packet import PACKET_FIELDS
from repro.traffic.trace import Trace


@dataclass
class FabricTaskHandle:
    """A task deployed across the fabric.

    ``handle`` is the canonical :class:`TaskHandle` -- the coordinate
    authority and the object typed queries unwrap (via the ``.handle``
    duck-typing contract of :mod:`repro.service.queries`).
    """

    task: MeasurementTask
    handle: TaskHandle
    hosts: Tuple[str, ...]
    layer: str
    mergeable: bool
    laws: Dict[Tuple[int, int], str] = field(default_factory=dict)
    member_handles: Dict[str, TaskHandle] = field(default_factory=dict)

    @property
    def task_id(self) -> int:
        return self.handle.task_id


class FabricService:
    """N per-switch measurement services federated at seal time."""

    def __init__(
        self,
        topology: FabricTopology,
        epoch_packets: Optional[int] = None,
        epoch_wall_ms: Optional[float] = None,
        retain: int = 8,
        batch_size: Optional[int] = None,
        controller_params: Optional[Dict[str, object]] = None,
    ) -> None:
        if epoch_packets is not None and epoch_wall_ms is not None:
            raise ValueError("choose one of epoch_packets / epoch_wall_ms")
        if epoch_packets is not None and epoch_packets <= 0:
            raise ValueError("epoch_packets must be positive")
        if epoch_wall_ms is not None and epoch_wall_ms <= 0:
            raise ValueError("epoch_wall_ms must be positive")
        self.topology = topology
        self.epoch_packets = epoch_packets
        self.epoch_wall_ms = epoch_wall_ms
        self.retain = retain
        params = dict(controller_params or {})
        params.setdefault("num_groups", 3)
        # Identical hash seeds fleet-wide are the merge precondition; the
        # canonical layout is only valid for members built the same way.
        params["place_on_pipeline"] = False
        self.canonical = FlyMonController(**params)
        self.members: Dict[str, MeasurementService] = {
            name: MeasurementService(
                FlyMonController(**params),
                retain=retain,
                batch_size=batch_size,
            )
            for name in topology.names
        }
        self.placer = FabricPlacer(topology)
        self._placements: Dict[int, FabricTaskHandle] = {}
        self._series: Dict[str, object] = {}
        self._ring: Deque[SealedEpoch] = deque(maxlen=retain)
        self._lock = threading.RLock()
        self._epoch_index = 0
        self._epoch_fill = 0
        self._packets_total = 0
        # Wall-clock federation state: the highest tick number that has
        # already driven a barrier.  Drifted duplicate ticks absorb here.
        self._barrier_tick = 0
        self._tickers: List[threading.Thread] = []
        self._ticker_stop = threading.Event()
        #: Member name -> reason, for members that failed their last barrier.
        self.degraded_members: Dict[str, str] = {}
        #: Lut cache: switch name -> boolean block-membership array.
        self._luts: Dict[str, np.ndarray] = {
            name: topology.domain_lut(name) for name in topology.names
        }

    # -- deployment ---------------------------------------------------------

    def deploy(self, task: MeasurementTask) -> FabricTaskHandle:
        """Place a task collaboratively and install it transactionally.

        The canonical controller hosts the task first (validating placement
        and fixing its coordinates); every chosen host then installs the
        identical pinned layout inside one shared transaction -- a failure
        on any host rolls back the hosts already installed *and* the
        canonical deployment, so the fabric never holds a partial task.
        """
        with self._lock:
            canonical = self.canonical.add_task(task)
            try:
                laws = task_merge_laws(canonical)
                loads = {
                    name: float(
                        svc.controller.stats()["memory_utilization"]
                    )
                    for name, svc in self.members.items()
                }
                decision = self.placer.choose_hosts(canonical, laws, loads)
                pin = self.canonical.export_placement(canonical)
                member_handles: Dict[str, TaskHandle] = {}
                with ReconfigTransaction(
                    f"fabric deploy task{canonical.task_id}"
                ) as txn:
                    for name in decision.hosts:
                        member_handles[name] = self.members[
                            name
                        ].controller.add_task_pinned(task, pin, transaction=txn)
            except BaseException:
                self.canonical.remove_task(canonical)
                raise
            fabric_handle = FabricTaskHandle(
                task=task,
                handle=canonical,
                hosts=decision.hosts,
                layer=decision.layer,
                mergeable=decision.mergeable,
                laws=laws,
                member_handles=member_handles,
            )
            self._placements[canonical.task_id] = fabric_handle
            return fabric_handle

    def undeploy(self, fabric_handle: FabricTaskHandle) -> None:
        """Tear a fabric task down on every host, then on the canonical."""
        with self._lock:
            if fabric_handle.task_id not in self._placements:
                raise KeyError(f"task {fabric_handle.task_id} is not deployed")
            with ReconfigTransaction(
                f"fabric undeploy task{fabric_handle.task_id}"
            ) as txn:
                for name, handle in fabric_handle.member_handles.items():
                    self.members[name].controller.remove_task(
                        handle, transaction=txn
                    )
            self.canonical.remove_task(fabric_handle.handle)
            del self._placements[fabric_handle.task_id]

    @property
    def placements(self) -> List[FabricTaskHandle]:
        return [self._placements[tid] for tid in sorted(self._placements)]

    def register_series(self, name: str, query) -> None:
        """Evaluate ``query`` against every fabric epoch (``outputs[name]``)."""
        if name in self._series:
            raise ValueError(f"series {name!r} already registered")
        self._series[name] = query

    # -- ingestion ----------------------------------------------------------

    def ingest(self, trace: Trace) -> List[SealedEpoch]:
        """Dispatch one source chunk; returns fabric epochs sealed en route.

        Packets count once (against the source trace) no matter how many
        switches observe them.  In ``epoch_packets`` mode the chunk splits
        at epoch boundaries and each boundary runs a full seal barrier.
        """
        sealed: List[SealedEpoch] = []
        remaining = trace
        while len(remaining):
            with self._lock:
                if self.epoch_packets is not None:
                    room = self.epoch_packets - self._epoch_fill
                    if room <= 0:
                        sealed.append(self._barrier_locked())
                        continue
                else:
                    room = len(remaining)
                window, remaining = _split_trace(remaining, room)
                self._dispatch(window)
                self._epoch_fill += len(window)
                self._packets_total += len(window)
                if (
                    self.epoch_packets is not None
                    and self._epoch_fill >= self.epoch_packets
                ):
                    sealed.append(self._barrier_locked())
        return sealed

    def _dispatch(self, window: Trace) -> None:
        """Route a window to each active switch's domain sub-trace, in order."""
        active = set()
        for placement in self._placements.values():
            active.update(placement.hosts)
        if not active or len(window) == 0:
            return
        with _RECORDER.span(
            "fabric.dispatch", cat="fabric", packets=len(window),
            switches=len(active),
        ):
            blocks = self.topology.block_column(window.columns["src_ip"])
            for name in self.topology.names:
                if name not in active:
                    continue
                mask = self._luts[name][blocks]
                if not mask.any():
                    continue
                if mask.all():
                    sub = window
                else:
                    sub = Trace(
                        {f: window.columns[f][mask] for f in PACKET_FIELDS}
                    )
                self.members[name].ingest(sub)

    # -- the seal barrier ---------------------------------------------------

    def rotate(self) -> SealedEpoch:
        """Seal the current fabric epoch now (manual barrier)."""
        with self._lock:
            return self._barrier_locked()

    def _barrier_locked(self) -> SealedEpoch:
        member_epochs: Dict[str, SealedEpoch] = {}
        self.degraded_members = {}
        with _RECORDER.span(
            "fabric.barrier", cat="fabric", epoch=self._epoch_index,
            switches=len(self.members),
        ):
            for name in self.topology.names:
                try:
                    arg = FAULTS.trip(SITE_MEMBER_SEAL, member=name)
                    if arg is not None:
                        raise FaultError(
                            SITE_MEMBER_SEAL, {"member": name, "arg": arg}
                        )
                    member_epochs[name] = self.members[name].rotate()
                except Exception as exc:
                    # A degraded member: its hosted tasks are excluded from
                    # this fabric epoch (queries raise StaleEpochError) and
                    # the fabric reports degraded health.
                    self.degraded_members[name] = f"{type(exc).__name__}: {exc}"
        with _RECORDER.span(
            "fabric.merge", cat="fabric", epoch=self._epoch_index,
            members=len(member_epochs),
        ):
            sealed = merge_member_epochs(
                index=self._epoch_index,
                packets=self._epoch_fill,
                placements=self._placements.values(),
                member_epochs=member_epochs,
            )
        sealed.degraded = dict(self.degraded_members)
        self._evaluate_series(sealed)
        self._ring.append(sealed)
        self._epoch_index += 1
        self._epoch_fill = 0
        return sealed

    def _evaluate_series(self, sealed: SealedEpoch) -> None:
        from repro.service.queries import resolve

        for name, query in self._series.items():
            try:
                sealed.outputs[name] = resolve(query, sealed)
            except StaleEpochError:
                pass  # the series' task sat on a degraded member this epoch

    # -- wall-clock federation ----------------------------------------------

    def member_tick(self, name: str, tick: int) -> bool:
        """One member's wall-clock tick.  Returns True if it sealed.

        The first arrival of tick number ``n`` (whichever member's clock
        fires first) runs the barrier for every member; the same tick
        arriving later from slower members is absorbed.  Result: exactly
        one fabric epoch per tick number, every member sealed inside the
        same barrier, packets assigned deterministically by arrival order
        against the barrier -- drift within a tick cannot straddle epochs.
        """
        if name not in self.members:
            raise KeyError(f"unknown switch {name!r}")
        with self._lock:
            if tick <= self._barrier_tick:
                return False  # a faster member already drove this barrier
            self._barrier_tick = tick
            if self._epoch_fill == 0:
                return False  # idle stream: consume the tick, seal nothing
            self._barrier_locked()
            return True

    def start(self) -> "FabricService":
        """Launch one wall-clock ticker thread per member."""
        if self.epoch_wall_ms is None:
            raise ValueError("start() requires epoch_wall_ms mode")
        if self._tickers:
            raise RuntimeError("fabric tickers are already running")
        self._ticker_stop.clear()
        t0 = time.monotonic()
        interval = self.epoch_wall_ms / 1e3

        def run(member: str) -> None:
            tick = 0
            while True:
                tick += 1
                deadline = t0 + tick * interval
                if self._ticker_stop.wait(max(0.0, deadline - time.monotonic())):
                    return
                self.member_tick(member, tick)

        for name in self.topology.names:
            thread = threading.Thread(
                target=run, args=(name,), name=f"fabric-tick-{name}", daemon=True
            )
            self._tickers.append(thread)
            thread.start()
        return self

    def stop(self, seal_tail: bool = False) -> Optional[SealedEpoch]:
        """Stop the tickers; optionally seal the ragged tail window."""
        if self._tickers:
            self._ticker_stop.set()
            for thread in self._tickers:
                thread.join()
            self._tickers = []
        if seal_tail:
            with self._lock:
                if self._epoch_fill:
                    return self.rotate()
        return None

    # -- queries and introspection ------------------------------------------

    @property
    def epochs(self) -> List[SealedEpoch]:
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
            f"fabric epoch {index} is not retained (ring holds {retained})"
        )

    def query(self, query, epoch=None):
        """Resolve a typed query against a fabric epoch (default: latest)."""
        from repro.service.queries import resolve

        if isinstance(epoch, SealedEpoch):
            sealed = epoch
        elif epoch is not None:
            sealed = self.epoch(int(epoch))
        else:
            sealed = self.latest
            if sealed is None:
                raise StaleEpochError("no fabric epoch has been sealed yet")
        return resolve(query, sealed)

    def stats(self) -> Dict[str, object]:
        return {
            "switches": len(self.members),
            "epoch": self._epoch_index,
            "epoch_fill": self._epoch_fill,
            "packets_total": self._packets_total,
            "sealed_epochs": len(self._ring),
            "retained": [s.index for s in self._ring],
            "tasks": len(self._placements),
            "placements": {
                tid: list(p.hosts) for tid, p in sorted(self._placements.items())
            },
            "member_packets": {
                name: svc.stats()["packets_total"]
                for name, svc in self.members.items()
            },
            "degraded_members": dict(self.degraded_members),
        }

    def status(self) -> Dict[str, object]:
        """Operator-facing fabric health: per-member health plus placement."""
        members = {
            name: svc.health() for name, svc in self.members.items()
        }
        rank = 0
        reasons: List[str] = []
        for name, health in members.items():
            if health["status"] == "failing":
                rank = max(rank, 2)
                reasons.append(f"{name}: {'; '.join(health['reasons'])}")
            elif health["status"] == "degraded":
                rank = max(rank, 1)
                reasons.append(f"{name}: {'; '.join(health['reasons'])}")
        for name, reason in self.degraded_members.items():
            rank = max(rank, 1)
            reasons.append(f"{name} missed the last barrier: {reason}")
        return {
            "status": ("ok", "degraded", "failing")[rank],
            "reasons": reasons,
            "topology": self.topology.describe(),
            "epoch": self._epoch_index,
            "packets_total": self._packets_total,
            "tasks": {
                tid: {
                    "hosts": list(p.hosts),
                    "layer": p.layer,
                    "mergeable": p.mergeable,
                }
                for tid, p in sorted(self._placements.items())
            },
            "members": members,
        }
