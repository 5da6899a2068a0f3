"""JSON service artifacts: sealed epochs you can query offline.

``repro serve`` runs a :class:`~repro.service.engine.MeasurementService`
over a trace and writes the artifact produced by
:func:`service_checkpoint`: the controller's replayable checkpoint plus,
for every retained epoch, the per-task sealed row slices, drained digests,
series outputs, and watcher events.  :func:`load_service_state` rebuilds a
queryable view -- a fresh controller restored via
:meth:`FlyMonController.from_checkpoint` with real :class:`SealedEpoch`
objects reconstructed around it -- so ``repro query`` answers typed
queries against any retained epoch without replaying traffic.

Only tasks still deployed when the artifact was written are recoverable
(queries need a live deployment to interpret the sealed cells); epochs
that sealed since-removed tasks simply omit them.
"""

from __future__ import annotations

from dataclasses import asdict, is_dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.controller import FlyMonController, TaskHandle
from repro.service.engine import MeasurementService, SealedEpoch, StaleEpochError

ARTIFACT_VERSION = 1


def _placement_signature(handle: TaskHandle) -> List[List[int]]:
    """Per-row ``[group, cmu, base, length]`` -- sealed-cell alignment
    depends on it, so restores verify it before answering queries."""
    return [
        [row.group.group_id, row.cmu.index, row.mem.base, row.mem.length]
        for row in handle.rows
    ]


def _json_safe(value):
    """Recursively coerce measurement outputs into JSON-encodable values."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray) and value.dtype.kind in "iufb":
        return value.tolist()
    if isinstance(value, (set, frozenset)):
        return sorted(_json_safe(v) for v in value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return _json_safe(asdict(value))
    return repr(value)


def service_checkpoint(service: MeasurementService) -> Dict[str, object]:
    """A JSON-safe artifact of the service: controller + sealed epochs."""
    controller = service.controller
    handles = controller.tasks  # checkpoint order == replay order
    epochs: List[Dict[str, object]] = []
    for sealed in service.epochs:
        tasks: Dict[str, object] = {}
        for task_index, handle in enumerate(handles):
            if not sealed.has_task(handle.task_id):
                continue
            tasks[str(task_index)] = {
                "rows": [values.tolist() for values in sealed.read_rows(handle)],
                "digests": [
                    sorted(_json_safe(flow) for flow in digests)
                    for digests in sealed.digests(handle)
                ],
            }
        epochs.append(
            {
                "index": sealed.index,
                "packets": sealed.packets,
                "start_ts": sealed.start_ts,
                "end_ts": sealed.end_ts,
                "seal_ms": sealed.seal_ms,
                "tasks": tasks,
                "outputs": _json_safe(sealed.outputs),
                "watcher_events": _json_safe(sealed.watcher_events),
            }
        )
    return {
        "version": ARTIFACT_VERSION,
        "controller": controller.checkpoint(),
        "rotation": {
            "epoch_packets": service.epoch_packets,
            "epoch_duration_us": service.epoch_duration_us,
            "epoch_wall_ms": service.epoch_wall_ms,
            "retain": service.retain,
        },
        "tasks": [
            {
                "algorithm": handle.algorithm_name,
                "task_id": handle.task_id,
                "key": [list(part) for part in handle.task.key.parts],
                "placement": _placement_signature(handle),
            }
            for handle in handles
        ],
        "series": sorted(service._series),
        "epochs": epochs,
        "watcher_log": _json_safe(service.watcher_log),
        "stats": _json_safe(service.stats()),
    }


class RestoredService:
    """A queryable offline view rebuilt from a service artifact.

    ``controller`` is a fresh replay of the artifact's deployments (same
    placement, fresh task ids); ``tasks[i]`` corresponds to the artifact's
    task index ``i``.  ``epochs`` are real :class:`SealedEpoch` objects, so
    :meth:`query` resolves typed queries through the same detached sealed
    bindings the live service uses.
    """

    def __init__(
        self,
        controller: FlyMonController,
        epochs: List[SealedEpoch],
        series_names: List[str],
        rotation: Dict[str, object],
        task_info: List[Dict[str, object]],
        watcher_log: List[Dict[str, object]],
    ) -> None:
        self.controller = controller
        self.epochs = epochs
        self.series_names = series_names
        self.rotation = rotation
        self.task_info = task_info
        self.watcher_log = watcher_log

    @property
    def tasks(self) -> List[TaskHandle]:
        return self.controller.tasks

    @property
    def latest(self) -> Optional[SealedEpoch]:
        return self.epochs[-1] if self.epochs else None

    def epoch(self, index: int) -> SealedEpoch:
        for sealed in self.epochs:
            if sealed.index == index:
                return sealed
        retained = [s.index for s in self.epochs]
        raise StaleEpochError(
            f"epoch {index} is not in the artifact (retained: {retained})"
        )

    def query(self, query, epoch=None):
        """Resolve a typed query against a retained epoch (default: latest)."""
        from repro.service.queries import resolve

        if isinstance(epoch, SealedEpoch):
            sealed = epoch
        elif epoch is not None:
            sealed = self.epoch(int(epoch))
        else:
            sealed = self.latest
            if sealed is None:
                raise StaleEpochError("artifact holds no sealed epochs")
        return resolve(query, sealed)

    def series(self, name: str) -> List[Tuple[int, object]]:
        if name not in self.series_names:
            raise KeyError(f"series {name!r} is not in the artifact")
        return [
            (sealed.index, sealed.outputs[name])
            for sealed in self.epochs
            if name in sealed.outputs
        ]


def load_service_state(state: Dict[str, object]) -> RestoredService:
    """Rebuild a :class:`RestoredService` from :func:`service_checkpoint`."""
    version = state.get("version")
    if version != ARTIFACT_VERSION:
        raise ValueError(f"unsupported service artifact version {version!r}")
    controller = FlyMonController.from_checkpoint(state["controller"])
    handles = controller.tasks
    for index, (handle, info) in enumerate(zip(handles, state.get("tasks", []))):
        stored = info.get("placement")
        if stored is not None and _placement_signature(handle) != stored:
            raise ValueError(
                f"task index {index} ({info.get('algorithm')}) restored at a "
                f"different placement than it was sealed with -- the sealed "
                f"cells cannot be interpreted (artifact predates the "
                f"controller's reconfiguration history?)"
            )
    registers = {
        (group.group_id, cmu.index): cmu.register
        for group in controller.groups
        for cmu in group.cmus
    }
    epochs: List[SealedEpoch] = []
    for entry in state["epochs"]:
        cells: Dict[Tuple[int, int], np.ndarray] = {}
        digest_sets: Dict[Tuple[int, int, int], set] = {}
        task_ids: List[int] = []
        for index_str, payload in entry["tasks"].items():
            handle = handles[int(index_str)]
            task_ids.append(handle.task_id)
            for row, values, digests in zip(
                handle.rows, payload["rows"], payload["digests"]
            ):
                key = (row.group.group_id, row.cmu.index)
                if key not in cells:
                    cells[key] = np.zeros(
                        registers[key].size, dtype=np.int64
                    )
                mem = row.mem
                cells[key][mem.base : mem.base + mem.length] = np.asarray(
                    values, dtype=np.int64
                )
                if digests:
                    digest_sets[key + (handle.task_id,)] = {
                        tuple(int(v) for v in flow) for flow in digests
                    }
        sealed = SealedEpoch(
            index=int(entry["index"]),
            packets=int(entry["packets"]),
            start_ts=entry.get("start_ts"),
            end_ts=entry.get("end_ts"),
            cells=cells,
            registers={key: registers[key] for key in cells},
            task_ids=task_ids,
            digest_sets=digest_sets,
        )
        sealed.seal_ms = float(entry.get("seal_ms", 0.0))
        sealed.outputs = dict(entry.get("outputs", {}))
        sealed.watcher_events = list(entry.get("watcher_events", []))
        epochs.append(sealed)
    return RestoredService(
        controller=controller,
        epochs=epochs,
        series_names=list(state.get("series", [])),
        rotation=dict(state.get("rotation", {})),
        task_info=list(state.get("tasks", [])),
        watcher_log=list(state.get("watcher_log", [])),
    )
