"""Network-wide federated measurement over a simulated switch fabric.

One :class:`~repro.service.engine.MeasurementService` per switch, traffic
partitioned by ingress edge, epochs sealed behind a fabric-wide barrier and
merged law-by-law into fabric :class:`SealedEpoch`\\ s that the existing
typed query plane answers from -- bit-identical to a single switch that saw
the union of the hosts' traffic.  See docs/FABRIC.md.
"""

from repro.fabric.merge import (
    MERGEABLE_LAWS,
    merge_member_epochs,
    task_merge_laws,
    task_mergeable,
)
from repro.fabric.placement import (
    FabricPlacementError,
    FabricPlacer,
    PlacementDecision,
)
from repro.fabric.service import FabricService, FabricTaskHandle
from repro.fabric.topology import (
    LAYER_AGG,
    LAYER_CORE,
    LAYER_EDGE,
    LAYERS,
    FabricTopology,
    SwitchSpec,
    TopologyError,
)

__all__ = [
    "FabricPlacementError",
    "FabricPlacer",
    "FabricService",
    "FabricTaskHandle",
    "FabricTopology",
    "LAYER_AGG",
    "LAYER_CORE",
    "LAYER_EDGE",
    "LAYERS",
    "MERGEABLE_LAWS",
    "PlacementDecision",
    "SwitchSpec",
    "TopologyError",
    "merge_member_epochs",
    "task_merge_laws",
    "task_mergeable",
]
