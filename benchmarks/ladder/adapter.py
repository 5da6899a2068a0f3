"""The one place the ladder touches the program under test.

Everything else in ``benchmarks/ladder`` works with plain numpy columns,
floats and the small classes defined here, so a refactor of ``repro`` only
ever has to be followed in this file.  Only the public surface is used:
``FlyMonController.add_task / resize_task / update_task_filter /
remove_task / process_trace``, ``MeasurementService``, ``ServiceWal(...)
.attach``, ``recover_service``, ``service_checkpoint`` /
``load_service_state``, ``FabricService`` / ``FabricTopology.preset`` and
the ``python -m repro serve`` command line.

``repro.telemetry`` is never enabled and nothing is wrapped here: the
end-to-end run measures the program exactly as a user gets it.  The traced
run asks for :data:`TRACE_TARGETS`, the dotted names of each layer's entry
points, and installs its own wrappers around them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .spans import Target
from .workloads import FIELDS, TAIL_CHUNK, TAIL_SEALS, Workload

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

_import_started = time.perf_counter()
try:
    import repro  # noqa: F401
except ImportError:
    # Run from a checkout without an installed package (the normal case).
    if not (SRC_DIR / "repro").is_dir():
        raise SystemExit(f"ladder: the program under test is missing ({SRC_DIR}/repro); nothing to measure")
    sys.path.insert(0, str(SRC_DIR))
    import repro  # noqa: F401

from repro.bench_history import machine_info  # noqa: E402
from repro.core.controller import FlyMonController  # noqa: E402
from repro.core.task import AttributeSpec, MeasurementTask, TaskFilter  # noqa: E402
from repro.fabric import FabricService, FabricTopology  # noqa: E402
from repro.service import (  # noqa: E402
    CardinalityQuery,
    ExistenceQuery,
    FrequencyQuery,
    HeavyHitterQuery,
    MeasurementService,
    ServiceWal,
    iter_wal_records,
    load_service_state,
    recover_service,
    service_checkpoint,
    wal_segments,
)
from repro.traffic import KEY_5TUPLE, KEY_DST_IP, KEY_SRC_IP, Trace  # noqa: E402
from repro.traffic.packet import PACKET_FIELDS  # noqa: E402

#: What a fresh process pays before it can build a controller.  Only the
#: first import in a process measures anything; later ones are cached.
IMPORT_S = time.perf_counter() - _import_started

if tuple(PACKET_FIELDS) != FIELDS:
    raise ImportError(
        f"trace column order changed: program has {PACKET_FIELDS}, ladder synthesizes {FIELDS}"
    )

#: WAL layout every rung uses (the ``fast_rotate_wal`` shape).
WAL_SEGMENT_SEALS = 4
#: Heavy-hitter alarm threshold of every CMS task (the CLI's default).
HH_THRESHOLD = 100

#: Entry points of each layer, wrapped only by the traced run.  All are
#: public except ``_seal_locked``: ingest-triggered seals have no public
#: entry (``rotate()`` is one, but ``ingest`` does not go through it).
TRACE_TARGETS: Tuple[Target, ...] = (
    Target("traffic", "repro.traffic.trace:Trace.__init__"),
    Target("traffic", "repro.traffic.trace:Trace.iter_batches", generator=True),
    Target("hashing", "repro.dataplane.hashing:DynamicHashUnit.compute_batch", rows_arg=1),
    Target("tables", "repro.dataplane.tables:MatchActionTable.classify_batch", rows_arg=1),
    Target("register", "repro.dataplane.register:Register.execute_batch", rows_arg=2),
    Target("cmu", "repro.core.cmu:Cmu.process_batch"),
    Target("cmu_group", "repro.core.cmu_group:CmuGroup.process_batch"),
    Target("controller.datapath", "repro.core.controller:FlyMonController.process_batch"),
    Target("controller.datapath", "repro.core.controller:FlyMonController.process_trace"),
    Target(
        "controller.datapath",
        "repro.core.controller:FlyMonController.process_trace_sharded",
        keep_results=True,
    ),
    Target("service.ingest", "repro.service.engine:MeasurementService.ingest"),
    Target("service.seal", "repro.service.engine:MeasurementService._seal_locked"),
    Target("wal.capture", "repro.service.wal:ServiceWal.capture_epoch_tasks"),
    Target("wal.append", "repro.service.wal:ServiceWal.append_seal"),
    Target("fabric.ingest", "repro.fabric.service:FabricService.ingest"),
    Target("fabric.rotate", "repro.fabric.service:FabricService.rotate"),
    Target("fabric_merge", "repro.fabric.service:merge_member_epochs"),
)


def provenance() -> Dict[str, object]:
    """The program's own environment fingerprint (cpu count, python, git SHA)."""
    return dict(machine_info())


# -- deployments --------------------------------------------------------


def _hh(**extra) -> MeasurementTask:
    return MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.frequency(),
        memory=extra.pop("memory", 4096),
        depth=3,
        algorithm="cms",
        threshold=HH_THRESHOLD,
        **extra,
    )


def _card(**extra) -> MeasurementTask:
    return MeasurementTask(
        key=KEY_5TUPLE,
        attribute=AttributeSpec.distinct(KEY_5TUPLE),
        memory=extra.pop("memory", 4096),
        depth=1,
        algorithm="hll",
        **extra,
    )


def _bloom(**extra) -> MeasurementTask:
    return MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.existence(),
        memory=extra.pop("memory", 16384),
        depth=3,
        algorithm="bloom",
        **extra,
    )


def _sumax(**extra) -> MeasurementTask:
    return MeasurementTask(
        key=KEY_SRC_IP,
        attribute=AttributeSpec.maximum("pkt_bytes"),
        memory=2048,
        depth=3,
        algorithm="sumax_max",
        **extra,
    )


def tenant_filter(block: int) -> TaskFilter:
    """One of the eight /3 source-address blocks that partition the space."""
    return TaskFilter.of(src_ip=(block << 29, 3))


def _tenants24() -> List[Tuple[str, MeasurementTask]]:
    tasks = []
    for block in range(8):
        flt = tenant_filter(block)
        tasks.append(("hh", _hh(memory=2048, filter=flt)))
        if block % 2 == 0:
            tasks.append(("card", _card(filter=flt)))
        else:
            tasks.append(("max", _sumax(filter=flt)))
        tasks.append(("bloom", _bloom(memory=4096, filter=flt)))
    return tasks


#: name -> (controller groups, [(role, task)]).  The first task of a role is
#: the one queries and accuracy checks address; ``cli_hh_card`` mirrors the
#: ``repro serve --tasks hh,card`` presets so the in-process equivalent of
#: the CLI run deploys the same thing.
def task_set(name: str) -> Tuple[int, List[Tuple[str, MeasurementTask]]]:
    if name == "hh_card":
        return 3, [("hh", _hh()), ("card", _card())]
    if name == "hh_card_bloom":
        return 4, [("hh", _hh()), ("card", _card()), ("bloom", _bloom())]
    if name == "tenants24":
        return 9, _tenants24()
    if name == "cli_hh_card":
        return 3, [("hh", _hh()), ("card", _card(memory=1024))]
    raise KeyError(f"unknown task set {name!r}")


@dataclasses.dataclass(frozen=True)
class CycleStep:
    """One reconfiguration cycle of the seeded schedule."""

    block: int
    memory: int
    port: int
    new_port: int


def _cycle_filter(step: CycleStep, port: int) -> TaskFilter:
    return TaskFilter.of(src_ip=(step.block << 29, 3), dst_port=(port, 16))


def _cycle_task(step: CycleStep, memory: int) -> MeasurementTask:
    return MeasurementTask(
        key=KEY_DST_IP,
        attribute=AttributeSpec.frequency(),
        memory=memory,
        depth=3,
        algorithm="cms",
        filter=_cycle_filter(step, step.port),
    )


def slice_trace(cols: Dict[str, np.ndarray], start: int, stop: int) -> Trace:
    return Trace({name: cols[name][start:stop] for name in FIELDS})


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - started) * 1e3


# -- sealed state as bytes ----------------------------------------------


def epoch_digest(tasks: Sequence[object], epoch, alarms: bool = True) -> str:
    """SHA-256 of one sealed epoch: every task's row slices and (with
    ``alarms``) alarm digests, in deployment order.  ``tasks`` are the
    handles whose coordinates interpret the epoch (live, restored or
    canonical)."""
    digest = hashlib.sha256()
    digest.update(str(epoch.packets).encode())
    for position, handle in enumerate(tasks):
        if not epoch.has_task(handle.task_id):
            continue
        digest.update(f"task{position}".encode())
        for row in epoch.read_rows(handle):
            digest.update(np.ascontiguousarray(row, dtype=np.int64).tobytes())
        for flows in epoch.digests(handle) if alarms else ():
            digest.update(repr(sorted(flows)).encode())
    return digest.hexdigest()


def register_cells(controller: FlyMonController) -> Dict[Tuple[int, int], np.ndarray]:
    """A copy of every register's cells, keyed by (group, cmu)."""
    return {
        (group.group_id, cmu.index): cmu.register.snapshot_cells()
        for group in controller.groups
        for cmu in group.cmus
    }


def prefix_registers(spec: Workload, cols: Dict[str, np.ndarray]) -> Tuple[dict, dict]:
    """Registers after the scalar and after the batched datapath ran the
    trace's first ``spec.prefix_check_packets`` through the workload's tasks."""
    out = []
    packets = min(spec.prefix_check_packets, spec.total_packets)
    for batch_size in (None, 8_192):
        groups, tasks = task_set(spec.tasks)
        controller = FlyMonController(num_groups=groups)
        for _role, task in tasks:
            controller.add_task(task)
        controller.process_trace(slice_trace(cols, 0, packets), batch_size=batch_size)
        out.append(register_cells(controller))
    return out[0], out[1]


# -- systems under test -------------------------------------------------


class _Deployed:
    """What the harness needs from anything that holds deployed tasks."""

    controller: FlyMonController
    roles: Dict[str, object]
    block: Optional[int] = None
    #: whether sealed alarm digests must equal a single-switch reference's
    alarms_comparable = True

    def _index_roles(self, named: Sequence[Tuple[str, object]], spec: Workload) -> None:
        self.roles = {}
        for role, handle in named:
            self.roles.setdefault(role, handle)
        self.block = spec.tenant_block

    def queries(self, flows: Sequence[int]) -> List[Tuple[str, object]]:
        """One query round: 64 Frequency on distinct flows, 1 Cardinality,
        1 HeavyHitter and, where a Bloom filter is deployed, 8 Existence."""
        round_: List[Tuple[str, object]] = [
            ("frequency", FrequencyQuery(self.roles["hh"], (flow,))) for flow in flows[:64]
        ]
        round_.append(("cardinality", CardinalityQuery(self.roles["card"])))
        round_.append(("heavy_hitters", HeavyHitterQuery(self.roles["hh"])))
        if "bloom" in self.roles:
            round_.extend(
                ("existence", ExistenceQuery(self.roles["bloom"], (flow,))) for flow in flows[64:72]
            )
        return round_

    def answer(self, query, epoch):
        return self.system.query(query, epoch)

    def frequency(self, flow: int, epoch) -> float:
        return self.answer(FrequencyQuery(self.roles["hh"], (flow,)), epoch)

    def cardinality(self, epoch) -> float:
        return self.answer(CardinalityQuery(self.roles["card"]), epoch)

    def reconfig_cycle(self, step: CycleStep) -> Dict[str, List[float]]:
        """add -> resize x2 -> filter update -> remove of one task; the wall
        of each operation in ms, by operation."""
        c = self.controller
        handle, add_ms = _timed(c.add_task, _cycle_task(step, step.memory))
        handle, grow_ms = _timed(c.resize_task, handle, step.memory * 2)
        handle, shrink_ms = _timed(c.resize_task, handle, step.memory // 2)
        _, filter_ms = _timed(c.update_task_filter, handle, _cycle_filter(step, step.new_port))
        _, remove_ms = _timed(c.remove_task, handle)
        return {
            "add_task": [add_ms],
            "resize_task": [grow_ms, shrink_ms],
            "update_filter": [filter_ms],
            "remove_task": [remove_ms],
        }

    def controllers(self) -> List[FlyMonController]:
        return [self.controller]

    def integrity_ok(self) -> bool:
        return all(c.verify_integrity().ok for c in self.controllers())

    def rules_installed(self) -> int:
        return sum(int(c.stats()["rules_installed"]) for c in self.controllers())


class ServiceLive(_Deployed):
    """A freshly built ``MeasurementService`` with the workload's tasks."""

    def __init__(self, spec: Workload, wal_dir: Optional[str] = None, retain: int = 8) -> None:
        groups, tasks = task_set(spec.tasks)
        self.spec = spec
        self.controller = FlyMonController(num_groups=groups)
        named = [(role, self.controller.add_task(task)) for role, task in tasks]
        self._index_roles(named, spec)
        self.system = self.service = MeasurementService(
            self.controller,
            epoch_packets=spec.epoch_packets,
            retain=retain,
            workers=spec.workers,
            runtime="persistent" if spec.workers > 1 else None,
        )
        self.service.register_series("cardinality", CardinalityQuery(self.roles["card"]))
        self.wal: Optional[ServiceWal] = None
        self.shard_slow_windows = 0
        if wal_dir is not None:
            self.attach_wal(wal_dir)

    # -- ingest ---------------------------------------------------------

    def ingest(self, cols: Dict[str, np.ndarray], start: int, stop: int) -> List[float]:
        """Feed one chunk and wait for it; ``seal_ms`` of every epoch it sealed."""
        sealed = self.service.ingest(slice_trace(cols, start, stop))
        report = self.service.last_shard_report
        if report is not None and (report.fallback or report.degraded or report.retries):
            self.shard_slow_windows += 1
        return [epoch.seal_ms for epoch in sealed]

    def rotate(self) -> float:
        return self.service.rotate().seal_ms

    def attach_wal(self, wal_dir: str) -> None:
        self.wal = ServiceWal(wal_dir, segment_seals=WAL_SEGMENT_SEALS).attach(self.service)

    def wal_tail(self, cols: Dict[str, np.ndarray], start: int, wal_dir: str) -> int:
        """Durability tail of a rung with no WAL in its timed region: attach
        one now (its base record embeds the retained epochs), then seal
        ``TAIL_SEALS`` small epochs.  Returns the packets offered."""
        self.attach_wal(wal_dir)
        for at in range(start, start + TAIL_SEALS * TAIL_CHUNK, TAIL_CHUNK):
            self.ingest(cols, at, at + TAIL_CHUNK)
            self.rotate()
        return TAIL_SEALS * TAIL_CHUNK

    def close_wal(self) -> Tuple[List[object], List[object], Dict[str, object]]:
        """Close the WAL; (handles, retained epochs) of the service it was
        attached to -- what recovery must reproduce -- and its status."""
        self.wal.close()
        return self.controller.tasks, self.service.epochs, self.wal.status()

    # -- state the checks read --------------------------------------------

    @property
    def tasks(self) -> List[object]:
        return self.controller.tasks

    def retained(self) -> List[object]:
        return self.service.epochs

    def packets_total(self) -> int:
        return int(self.service.stats()["packets_total"])

    def epochs_sealed(self) -> int:
        return int(self.service.stats()["epoch"])

    def failed_ops(self) -> Dict[str, int]:
        stats = self.service.stats()
        return {
            "dropped_packets": int(stats["dropped_packets"]),
            "wal_lost_seals": self.wal.lost_seals if self.wal else 0,
            "shard_slow_windows": self.shard_slow_windows,
            "degraded_members": 0,
        }

    def write_checkpoint(self, path: str) -> int:
        artifact = service_checkpoint(self.service)
        with open(path, "w") as fh:
            fh.write(json.dumps(artifact))
        return os.path.getsize(path)

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()
        self.controller.close_shard_pool()


class FabricLive(_Deployed):
    """A ``FabricService`` over ``FabricTopology.preset(n)``.

    The fabric rotates on the harness's call (``epoch_packets`` is kept
    here, not given to the fabric) so that the wall of each barrier -- which
    a fabric epoch does not carry in ``seal_ms`` -- is what gets reported.

    The fabric has no persistence of its own (member controllers are
    installed by pinned placement inside a shared transaction, so a WAL
    refuses them).  Its durability tail, recovery and checkpoint therefore
    run on a *union switch*: one ``MeasurementService`` with the same tasks,
    the design the fabric's merged epochs are held equal to.  Cells only: an
    edge raises alarms from its own traffic's collisions, so its alarm sets
    are a subset of the union switch's.
    """

    alarms_comparable = False

    def __init__(self, spec: Workload, retain: int = 8) -> None:
        _groups, tasks = task_set(spec.tasks)
        self.spec = spec
        self.system = self.fabric = FabricService(FabricTopology.preset(spec.switches), retain=retain)
        named = [(role, self.fabric.deploy(task)) for role, task in tasks]
        self._index_roles(named, spec)
        self.fabric.register_series("cardinality", CardinalityQuery(self.roles["card"]))
        self.controller = self.fabric.canonical
        self._fill = 0
        self._degraded = 0
        self._union: Optional[ServiceLive] = None

    def ingest(self, cols, start, stop):
        barriers = []
        while start < stop:
            take = min(stop - start, self.spec.epoch_packets - self._fill)
            self.fabric.ingest(slice_trace(cols, start, start + take))
            start += take
            self._fill += take
            if self._fill == self.spec.epoch_packets:
                barriers.append(self.rotate())
        return barriers

    def rotate(self) -> float:
        _, barrier_ms = _timed(self.fabric.rotate)
        self._fill = 0
        self._degraded += len(self.fabric.degraded_members)
        return barrier_ms

    def wal_tail(self, cols, start, wal_dir):
        self._union = ServiceLive(dataclasses.replace(self.spec, kind="service"))
        return self._union.wal_tail(cols, start, wal_dir)

    def close_wal(self):
        return self._union.close_wal()

    def write_checkpoint(self, path: str) -> int:
        return self._union.write_checkpoint(path)

    @property
    def tasks(self):
        return self.fabric.canonical.tasks

    def retained(self):
        return self.fabric.epochs

    def packets_total(self) -> int:
        return int(self.fabric.stats()["packets_total"])

    def epochs_sealed(self) -> int:
        return int(self.fabric.stats()["epoch"])

    def failed_ops(self):
        return {
            "dropped_packets": sum(int(m.stats()["dropped_packets"]) for m in self.fabric.members.values()),
            "wal_lost_seals": self._union.failed_ops()["wal_lost_seals"] if self._union else 0,
            "shard_slow_windows": 0,
            "degraded_members": self._degraded,
        }

    def reconfig_cycle(self, step: CycleStep):
        """The fabric's verbs: deploy -> undeploy, twice (second at 2x memory)."""
        out = {"add_task": [], "resize_task": [], "update_filter": [], "remove_task": []}
        for memory in (step.memory, step.memory * 2):
            placed, deploy_ms = _timed(self.fabric.deploy, _cycle_task(step, memory))
            _, undeploy_ms = _timed(self.fabric.undeploy, placed)
            out["add_task"].append(deploy_ms)
            out["remove_task"].append(undeploy_ms)
        return out

    def controllers(self):
        return [self.fabric.canonical] + [m.controller for m in self.fabric.members.values()]

    def close(self) -> None:
        if self._union is not None:
            self._union.close()
        self.fabric.stop()


class Restored(_Deployed):
    """A ``RestoredService`` (from a checkpoint artifact or a WAL)."""

    def __init__(self, restored, spec: Workload) -> None:
        self.system = self.restored = restored
        self.controller = restored.controller
        _groups, tasks = task_set(spec.tasks)
        self._index_roles(list(zip((role for role, _ in tasks), restored.tasks)), spec)

    @property
    def tasks(self):
        return self.restored.tasks

    def retained(self):
        return self.restored.epochs


def build(spec: Workload, wal_dir: Optional[str] = None):
    """The workload's system, freshly built; ``wal_dir`` attaches a WAL
    before anything is ingested (services only)."""
    return FabricLive(spec) if spec.kind == "fabric" else ServiceLive(spec, wal_dir=wal_dir)


def recover(wal_dir: str, spec: Workload) -> Restored:
    return Restored(recover_service(wal_dir), spec)


def load_checkpoint(path: str, spec: Workload) -> Restored:
    with open(path) as fh:
        return Restored(load_service_state(json.load(fh)), spec)


def wal_on_disk(wal_dir: str) -> Dict[str, int]:
    """Bytes, records and seal records a segmented WAL directory holds now
    (older segments have been pruned; each segment opens with a base record
    that embeds the retained epochs)."""
    out = {"bytes": 0, "records": 0, "seals": 0}
    for _index, path in wal_segments(wal_dir):
        out["bytes"] += os.path.getsize(path)
        for record in iter_wal_records(path):
            out["records"] += 1
            out["seals"] += record.get("type") == "seal"
    return out


def reference_run(
    spec: Workload,
    cols: Dict[str, np.ndarray],
    start: int,
    stop: int,
    retain: int = 8,
    around=contextlib.nullcontext,
) -> Dict[str, object]:
    """Single-process, WAL-less ``MeasurementService`` over ``[start, stop)``
    with the workload's tasks and epoch size: the oracle for the sharded,
    fabric and CLI rungs.  Returns its ingest wall and, per retained epoch,
    the sealed-state digest and the cardinality series value.  ``around``
    wraps every ingest call (the traced run passes its root span)."""
    solo = ServiceLive(
        dataclasses.replace(spec, kind="service", workers=1, wal_in_region=False), retain=retain
    )
    try:
        started = time.perf_counter()
        for at in range(start, stop, spec.chunk):
            with around():
                solo.ingest(cols, at, min(at + spec.chunk, stop))
        if solo.service.stats()["epoch_fill"]:
            with around():
                solo.rotate()
        wall = time.perf_counter() - started
        epochs = solo.retained()
        return {
            "wall_s": wall,
            "digests": [epoch_digest(solo.tasks, epoch) for epoch in epochs],
            "cell_digests": [epoch_digest(solo.tasks, epoch, alarms=False) for epoch in epochs],
            "cardinality": [epoch.outputs["cardinality"] for epoch in epochs],
        }
    finally:
        solo.close()


# -- the command line ---------------------------------------------------


def _cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    return env


def save_npz(cols: Dict[str, np.ndarray], start: int, stop: int, path: str) -> None:
    slice_trace(cols, start, stop).save(path)


def _sample_peak_rss(pid: int, stop: threading.Event, peak_kb: List[int]) -> None:
    """Follow ``VmHWM`` of ``pid`` until told to stop or the process is gone."""
    while not stop.wait(0.02):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb[0] = max(peak_kb[0], int(line.split()[1]))
                        break
        except OSError:
            return


def cli_serve(spec: Workload, npz: str, checkpoint: str, wal_dir: str, log: str) -> Tuple[float, int, str, float]:
    """``python -m repro serve`` to completion: (wall s, exit code, output,
    peak RSS of the subprocess in MB).

    The peak is the child's own high-water mark, sampled from ``/proc``
    every 20 ms: ``getrusage(RUSAGE_CHILDREN)`` cannot give it, because on
    Linux a spawned child starts from the spawner's high-water mark and this
    process holds the whole trace."""
    command = [
        sys.executable, "-m", "repro", "serve",
        "--input", npz,
        "--epoch-size", str(spec.epoch_packets),
        "--chunk", str(spec.chunk),
        "--tasks", "hh,card",
        "--checkpoint", checkpoint,
        "--wal", wal_dir,
        "--wal-segment-seals", str(WAL_SEGMENT_SEALS),
    ]  # fmt: skip
    stop, peak_kb = threading.Event(), [0]
    with open(log, "w") as out:
        started = time.perf_counter()
        child = subprocess.Popen(command, env=_cli_env(), stdout=out, stderr=subprocess.STDOUT)
        sampler = threading.Thread(target=_sample_peak_rss, args=(child.pid, stop, peak_kb), daemon=True)
        sampler.start()
        try:
            code = child.wait()
            wall = time.perf_counter() - started
        finally:
            stop.set()
            sampler.join()
            if child.poll() is None:
                child.kill()
                child.wait()
    with open(log) as fh:
        return wall, code, fh.read(), peak_kb[0] / 1024.0


def cli_startup_s() -> float:
    """Wall of the cheapest CLI command: interpreter + import + parser."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "list-algorithms"],
        env=_cli_env(), stdout=subprocess.DEVNULL, check=True,
    )  # fmt: skip
    return time.perf_counter() - started


#: ``repro serve`` keeps 16 epochs unless told otherwise.
CLI_RETAIN = 16
