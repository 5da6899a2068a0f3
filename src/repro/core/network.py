"""Network-wide measurement coordination (§3.4's SDM compatibility).

FlyMon positions itself as the flexible hardware data plane under
software-defined-measurement controllers (DREAM/SCREAM-style).  This module
provides the minimal network-wide layer such controllers need: deploy the
same task on many switches and merge the answers.

Merge semantics per attribute:

* frequency -- sum of per-switch estimates (each packet is observed at one
  *designated* switch, e.g. its ingress edge; the coordinator assumes the
  deployment's filters partition traffic that way),
* distinct (HLL) -- registers merge by element-wise max, so flows crossing
  multiple switches are not double-counted,
* existence -- union (a flow exists if any switch saw it),
* heavy hitters -- query the summed frequency; or union the switches'
  data-plane alarm digests (a documented over/under sandwich, below),
* entropy (MRAC) -- element-wise modular sum of the per-switch counter
  rows *then* one EM recovery: because MRAC's data plane is a one-row
  Cond-ADD sketch, the summed row is bit-identical to the row a single
  switch observing the union traffic would hold, so the merged entropy is
  *exact* (equals the single-switch estimate), not an approximation.

The digest-union heavy-hitter set is the one documented approximation: a
switch fires its alarm when a flow crosses the threshold *locally*, so
under edge partitioning (each flow's packets all ingress one switch) the
union is exact, while under traffic splitting it is sandwiched -- every
flow in the union crossed the threshold somewhere (no false alarms beyond
sketch collisions), and any flow whose per-switch shares all stay below
the threshold is missed.  ``digest_heavy_hitters`` documents that bound;
``heavy_hitters`` (summed estimates over candidates) stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Set, Tuple

import numpy as np

from repro.analysis.entropy import entropy_from_distribution
from repro.analysis.estimators import hll_estimate, mrac_em
from repro.core.controller import FlyMonController, TaskHandle
from repro.core.task import MeasurementTask
from repro.traffic.trace import Trace


@dataclass
class NetworkTaskHandle:
    """The same task deployed on every switch in the coordinator."""

    task: MeasurementTask
    per_switch: Dict[str, TaskHandle]

    def query_sum(self, flow: Tuple[int, ...]) -> float:
        """Summed frequency estimate (edge-partitioned observation model)."""
        return sum(h.algorithm.query(flow) for h in self.per_switch.values())

    def heavy_hitters(self, candidates: Iterable, threshold: int) -> Set:
        return {f for f in candidates if self.query_sum(f) >= threshold}

    def contains_anywhere(self, flow: Tuple[int, ...]) -> bool:
        return any(h.algorithm.contains(flow) for h in self.per_switch.values())

    def digest_heavy_hitters(self) -> Set:
        """Union of the switches' data-plane alarm digests.

        Exact under edge partitioning (each flow ingresses one switch).
        Under arbitrary splitting the result is sandwiched: it contains no
        flow that never crossed the threshold on any switch, and it misses
        flows whose per-switch shares all stayed sub-threshold -- see the
        module docstring.  Requires the task to carry a ``threshold``.
        """
        union: Set = set()
        for handle in self.per_switch.values():
            union |= handle.algorithm.data_plane_heavy_hitters()
        return union

    def merged_distribution(self, **kwargs) -> Dict[int, float]:
        """Flow-size distribution recovered from the *merged* MRAC row.

        The per-switch rows are summed element-wise (modular, in register
        width) before a single EM pass -- the same order of operations a
        single switch observing the union traffic performs, so the result
        is exact, not a mixture of per-switch estimates.
        """
        merged = None
        mask = None
        for handle in self.per_switch.values():
            row = handle.algorithm.rows[0]
            counters = np.asarray(row.read(), dtype=np.int64)
            if merged is None:
                merged = counters.copy()
                mask = row.cmu.register.value_mask
            else:
                merged = (merged + counters) & mask
        if merged is None:
            return {}
        return mrac_em(merged, len(merged), **kwargs)

    def merged_entropy(self, **kwargs) -> float:
        """Entropy of the merged MRAC distribution (exact, see above)."""
        return entropy_from_distribution(self.merged_distribution(**kwargs))

    def merged_cardinality(self) -> float:
        """HLL merge across switches: element-wise maximum of the rank
        arrays, so shared flows count once."""
        merged = None
        for handle in self.per_switch.values():
            ranks = handle.algorithm.ranks()
            merged = ranks if merged is None else np.maximum(merged, ranks)
        return hll_estimate(merged) if merged is not None else 0.0

    def reset(self) -> None:
        for handle in self.per_switch.values():
            handle.reset()


class NetworkCoordinator:
    """A fleet of FlyMon switches managed as one measurement fabric.

    All switches are built with the same ``seed_base`` so their compression
    stages compute identical digests -- the precondition for merging
    register state across switches (mirrors how a real deployment would pin
    CRC polynomial configurations fleet-wide).
    """

    def __init__(self, switch_names: Iterable[str], **controller_kwargs) -> None:
        names = list(switch_names)
        if not names:
            raise ValueError("a coordinator needs at least one switch")
        controller_kwargs.setdefault("place_on_pipeline", False)
        self.switches: Dict[str, FlyMonController] = {
            name: FlyMonController(**controller_kwargs) for name in names
        }

    def deploy_everywhere(self, task: MeasurementTask) -> NetworkTaskHandle:
        """Install the task on every switch (each gets its own registers)."""
        per_switch = {
            name: controller.add_task(task)
            for name, controller in self.switches.items()
        }
        return NetworkTaskHandle(task=task, per_switch=per_switch)

    def remove_everywhere(self, handle: NetworkTaskHandle) -> None:
        for name, task_handle in handle.per_switch.items():
            self.switches[name].remove_task(task_handle)

    def process(self, traffic: Mapping[str, Trace]) -> None:
        """Drive each switch with its observed traffic slice."""
        for name, trace in traffic.items():
            self.switches[name].process_trace(trace)

    def total_deployment_ms(self, handle: NetworkTaskHandle) -> float:
        return sum(h.deployment_ms for h in handle.per_switch.values())
