"""One workload, in this process: set up, repeat, check, summarise.

Load model: a closed loop with one client.  The single harness thread cuts
the pre-built trace into chunks, hands each to the synchronous ``ingest``
and waits for it to return; nothing is queued, so a slower program simply
receives its next chunk later.  Every repetition builds a fresh controller
and service, ingests an untimed warm-up chunk and seals it (lazy tables,
shard-pool fork, allocator caches), then runs the timed region and, after
it, the phases that give the remaining end-to-end metrics.

With tracing on, repetitions alternate between plain and wrapped: the
wrapped ones yield the per-layer numbers, the plain ones the baseline the
tracing overhead is measured against.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import re
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import adapter, checks
from .spans import ROOT, LayerTotals, Recorder
from .stats import summarize
from .workloads import (
    WORKLOADS,
    Workload,
    synthesize,
    trace_sha256,
)

WORK_ROOT = Path(__file__).resolve().parent / ".work"
MIN_REPS = 3
QUICK_REPS = 2
E2E_UNITS = {
    "setup_s": "s",
    "ingest_pps": "packets/s",
    "seal_ms_p50": "ms",
    "reconfig_ms_p50": "ms",
    "query_round_ms_p50": "ms",
    "recover_s": "s",
    "wal_bytes_per_seal": "bytes",
    "peak_rss_mb": "MB",
}
OPS = ("add_task", "resize_task", "update_filter", "remove_task")
QUERY_KINDS = ("frequency", "cardinality", "heavy_hitters", "existence")

now = time.perf_counter


@dataclass
class Rep:
    """Everything one repetition measured."""

    traced: bool
    setup_s: float = 0.0
    region_s: float = 0.0
    packets: int = 0
    seal_ms: List[float] = field(default_factory=list)
    cycle_ms: List[float] = field(default_factory=list)
    op_ms: Dict[str, List[float]] = field(default_factory=lambda: {op: [] for op in OPS})
    round_ms: List[float] = field(default_factory=list)
    query_us: Dict[str, List[float]] = field(default_factory=lambda: {k: [] for k in QUERY_KINDS})
    first_touch_us: List[float] = field(default_factory=list)
    recover_s: List[float] = field(default_factory=list)
    wal: Dict[str, int] = field(default_factory=dict)
    checkpoint_ms: float = 0.0
    checkpoint_bytes: int = 0
    cold_start_ms: float = 0.0
    attempted: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    rules_installed: int = 0
    region_digests: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, LayerTotals] = field(default_factory=dict)
    shard_reports: List[object] = field(default_factory=list)
    reference_s: float = 0.0
    child_rss_mb: float = 0.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str, count: int = 1) -> None:
        if count:
            self.failures[kind] = self.failures.get(kind, 0) + count


@dataclass
class Context:
    """Per-process state shared by the repetitions of one workload."""

    spec: Workload
    seed: int
    cols: Dict[str, np.ndarray]
    sha256: str
    workdir: Path
    flows: List[int]
    schedule: List[adapter.CycleStep]
    recorder: Recorder
    one_time_setup_s: float = 0.0
    reference: Optional[Dict[str, object]] = None
    npz: Optional[str] = None
    problems: List[str] = field(default_factory=list)

    def fresh_dir(self, name: str) -> str:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        return str(path)


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (the WAL's fsyncs land there)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _dev, mount, kind = line.split()[:3]
                if str(path).startswith(mount.rstrip("/") + "/") or mount == "/":
                    if len(mount) > len(best):
                        best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def own_peak_rss_mb() -> float:
    """High-water RSS of this process.  Forked shard workers share its pages
    and add only what they dirty; ``RUSAGE_CHILDREN`` would count the shared
    pages a second time, so it is left out."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quiesce(disk: bool = False) -> None:
    """Start a timed section from the same state every time: no garbage
    waiting for a collection that would land inside it and, between
    repetitions, no dirty pages of the previous one (its WAL, checkpoint and
    deleted files) being written back while the next is measured."""
    gc.collect()
    if disk:
        os.sync()


# -- set-up -------------------------------------------------------------


def prepare(spec: Workload, seed: int) -> Context:
    cols = synthesize(spec, seed)
    workdir = WORK_ROOT / f"{spec.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = np.random.default_rng(seed + 1)
    cycles = spec.tail_reconfig_cycles + (spec.packets // spec.chunk + 1 if spec.reconfig_in_region else 0)
    schedule = [
        adapter.CycleStep(
            block=int(rng.integers(0, 8)),
            memory=1024,  # one size: a mix would make the cycle time bimodal
            port=int(rng.integers(1, 512)),
            new_port=int(rng.integers(512, 1024)),
        )
        for _ in range(cycles)
    ]
    first_epoch = (spec.chunk, spec.chunk + spec.epoch_packets)
    ctx = Context(
        spec=spec,
        seed=seed,
        cols=cols,
        sha256=trace_sha256(cols),
        workdir=workdir,
        flows=checks.sample_flows(cols, *first_epoch, 72, spec.tenant_block),
        schedule=schedule,
        recorder=Recorder(),
    )
    scalar, batched = adapter.prefix_registers(spec, cols)
    ctx.problems += checks.compare_registers(scalar, batched, "scalar vs batched prefix")
    region = (spec.chunk, spec.chunk + spec.packets)
    if spec.kind == "fabric":
        ctx.reference = adapter.reference_run(spec, cols, *region)
    elif spec.workers > 1:
        # Epochs are independent (every seal resets the tasks), so the last
        # two are oracle enough; `run` also compares the whole retained ring
        # with steady_hh's.
        ctx.reference = adapter.reference_run(spec, cols, region[1] - 2 * spec.epoch_packets, region[1])
    elif spec.kind == "cli":
        started = now()
        ctx.npz = str(workdir / "trace.npz")
        adapter.save_npz(cols, 0, spec.packets, ctx.npz)
        ctx.one_time_setup_s += now() - started
        ctx.reference = adapter.reference_run(spec, cols, 0, spec.packets, retain=adapter.CLI_RETAIN)
    return ctx


# -- phases -------------------------------------------------------------


def _query_round(deployed, rep: Rep, queries, epoch, touched: set) -> None:
    first = epoch.index not in touched
    touched.add(epoch.index)
    rep.attempted += len(queries)
    try:
        if not rep.traced:
            started = now()
            for _kind, query in queries:
                deployed.answer(query, epoch)
            rep.round_ms.append((now() - started) * 1e3)
            return
        started = now()
        for position, (kind, query) in enumerate(queries):
            at = now()
            deployed.answer(query, epoch)
            took = (now() - at) * 1e6
            rep.query_us[kind].append(took)
            if first and position == 0:
                rep.first_touch_us.append(took)
        rep.round_ms.append((now() - started) * 1e3)
    except Exception as exc:  # a failed round is a counted failure, not a crash
        rep.fail("query_rounds")
        rep.problems.append(f"query round on epoch {epoch.index} raised {type(exc).__name__}: {exc}")


def _query_rounds(deployed, rep: Rep, queries, rounds: int, touched: set) -> None:
    epochs = deployed.retained()
    for _ in range(rounds):
        _query_round(deployed, rep, queries, epochs[len(rep.round_ms) % len(epochs)], touched)


def _reconfig_cycle(deployed, rep: Rep, step: adapter.CycleStep) -> None:
    try:
        walls = deployed.reconfig_cycle(step)
    except Exception as exc:
        rep.fail("reconfig_ops")
        rep.problems.append(f"reconfiguration cycle raised {type(exc).__name__}: {exc}")
        return
    for op, samples in walls.items():
        rep.op_ms[op] += samples
        rep.attempted += len(samples)
    rep.cycle_ms.append(sum(sum(samples) for samples in walls.values()))


def _recover_and_compare(ctx: Context, rep: Rep, wal_dir: str, handles, epochs) -> None:
    """Time ``recover_service`` and hold what it returns against the
    service the WAL was attached to, at its last durable seal."""
    for _ in range(ctx.spec.recovers_per_rep):
        recovered = None  # drop the previous copy before the next is built
        _quiesce()
        started = now()
        recovered = adapter.recover(wal_dir, ctx.spec)
        rep.recover_s.append(now() - started)
        rep.attempted += 1
    live = {e.index: adapter.epoch_digest(handles, e) for e in epochs}
    back = {e.index: adapter.epoch_digest(recovered.tasks, e) for e in recovered.retained()}
    rep.problems += checks.compare_digests(live, back, "recovered vs live sealed state")
    series = {e.index: e.outputs.get("cardinality") for e in epochs}
    rep.problems += checks.compare_equal(
        series, {e.index: e.outputs.get("cardinality") for e in recovered.retained()}, "recovered series"
    )
    rep.wal.update(adapter.wal_on_disk(wal_dir))


def _finish(rep: Rep, deployed, spec: Workload) -> None:
    rep.rules_installed = deployed.rules_installed()
    if not deployed.integrity_ok():
        rep.problems.append("verify_integrity() is not ok after the reconfiguration schedule")
    if (spec.tail_reconfig_cycles or spec.reconfig_in_region) and not rep.cycle_ms:
        rep.problems.append("no reconfiguration cycle completed")
    if not rep.round_ms:
        rep.problems.append("no query round completed")


def service_rep(ctx: Context, traced: bool) -> Rep:
    """One repetition of a service or fabric workload."""
    spec, cols, recorder = ctx.spec, ctx.cols, ctx.recorder
    rep = Rep(traced=traced)
    wal_dir = ctx.fresh_dir("wal")
    start = spec.chunk
    stop = start + spec.packets
    # The end-to-end run installs nothing; its "root span" is a no-op.
    root = (lambda: recorder.span(ROOT)) if traced else contextlib.nullcontext
    if traced:
        recorder.clear()
        recorder.install(adapter.TRACE_TARGETS)
    live = None
    try:
        started = now()
        live = adapter.build(spec, wal_dir if spec.wal_in_region else None)
        at = now()
        live.ingest(cols, 0, start)
        rep.cold_start_ms = (now() - at) * 1e3
        live.rotate()
        rep.setup_s = now() - started
        recorder.clear()

        # -- timed region -----------------------------------------------
        queries = live.queries(ctx.flows)
        touched: set = set()
        cycle = 0
        for at in range(start, stop, spec.chunk):
            if spec.reconfig_in_region and at != start:
                _reconfig_cycle(live, rep, ctx.schedule[cycle])
                cycle += 1
            end = min(at + spec.chunk, stop)
            began = now()
            with root():
                sealed = live.ingest(cols, at, end)
            rep.region_s += now() - began
            rep.seal_ms += sealed
            if sealed and spec.query_rounds_per_epoch:
                _query_rounds(live, rep, queries, spec.query_rounds_per_epoch, touched)
        last_epoch = (stop - start) % spec.epoch_packets
        if last_epoch:
            began = now()
            with root():
                rep.seal_ms.append(live.rotate())
            rep.region_s += now() - began
        rep.packets = stop - start
        if traced:
            rep.layers = recorder.snapshot()
            rep.shard_reports = list(recorder.results.get("controller.datapath", ()))
            recorder.uninstall()

        # -- region state, checked before the tail seals push it out --------
        region_epochs = math.ceil((stop - start) / spec.epoch_packets)
        warm_up_epochs = start // spec.epoch_packets + 1  # auto-sealed + the explicit rotate
        rep.problems += checks.compare_equal(region_epochs, len(rep.seal_ms), "seals returned by the region")
        retained = live.retained()[-min(region_epochs, 8) :]
        alarms = live.alarms_comparable
        rep.region_digests = [adapter.epoch_digest(live.tasks, e, alarms) for e in retained]
        last_epoch = last_epoch or spec.epoch_packets
        rep.problems += checks.sketch_accuracy(live, cols, stop - last_epoch, stop, retained[-1], ctx.seed)
        rep.problems += checks.compare_equal(stop, live.packets_total(), "packets_total after the region")
        rep.problems += checks.compare_equal(
            warm_up_epochs + region_epochs, live.epochs_sealed(), "epochs sealed after the region"
        )
        if ctx.reference is not None:
            expected = ctx.reference["digests" if alarms else "cell_digests"]
            got = rep.region_digests[-len(expected) :]
            rep.problems += checks.compare_equal(expected, got, "sealed state vs single-process reference")

        # -- tail: the phases this workload does not have in its region -----
        _query_rounds(live, rep, queries, spec.tail_query_rounds, touched)
        for step in ctx.schedule[cycle : cycle + spec.tail_reconfig_cycles]:
            _reconfig_cycle(live, rep, step)
        offered = stop
        if not spec.wal_in_region:
            offered += live.wal_tail(cols, stop, wal_dir)
        handles, epochs, status = live.close_wal()
        rep.wal = {"rolls": int(status["rolls"]), "written": int(status["records_written"])}
        _recover_and_compare(ctx, rep, wal_dir, handles, epochs)
        began = now()
        rep.checkpoint_bytes = live.write_checkpoint(str(ctx.workdir / "checkpoint.json"))
        rep.checkpoint_ms = (now() - began) * 1e3
        _finish(rep, live, spec)
        rep.attempted += offered + live.epochs_sealed()
        for kind, count in live.failed_ops().items():
            rep.fail(kind, count)
    finally:
        recorder.uninstall()
        if live is not None:
            live.close()
    return rep


_SERVED = re.compile(r"served (\d+) packets across (\d+) epochs")


def cli_rep(ctx: Context, traced: bool) -> Rep:
    """One ``python -m repro serve`` run and the offline tools on what it wrote."""
    spec = ctx.spec
    rep = Rep(traced=traced)
    started = now()
    wal_dir = ctx.fresh_dir("wal")
    checkpoint = str(ctx.workdir / "checkpoint.json")
    rep.setup_s = now() - started
    rep.region_s, code, output, rep.child_rss_mb = adapter.cli_serve(
        spec, ctx.npz, checkpoint, wal_dir, str(ctx.workdir / "serve.log")
    )
    rep.packets = spec.packets
    served = _SERVED.search(output)
    if code != 0 or served is None:
        rep.problems.append(f"repro serve exited {code}:\n{output[-2000:]}")
        rep.fail("cli_exit")
        return rep
    epochs_expected = math.ceil(spec.packets / spec.epoch_packets)
    rep.problems += checks.compare_equal(
        (spec.packets, epochs_expected), (int(served.group(1)), int(served.group(2))), "served packets/epochs"
    )
    restored = adapter.load_checkpoint(checkpoint, spec)
    rep.checkpoint_bytes = os.path.getsize(checkpoint)
    rep.seal_ms = [e.seal_ms for e in restored.retained()]
    answers = [restored.cardinality(e) for e in restored.retained()]
    rep.problems += checks.compare_equal(ctx.reference["cardinality"], answers, "cardinality per epoch vs in-process run")
    rep.region_digests = [adapter.epoch_digest(restored.tasks, e) for e in restored.retained()]
    rep.problems += checks.compare_equal(ctx.reference["digests"], rep.region_digests, "artifact sealed state vs in-process run")
    rep.reference_s = float(ctx.reference["wall_s"])
    if traced:
        # The subprocess cannot be wrapped from here; the budget table for
        # this rung is the in-process equivalent of the same trace.
        ctx.recorder.clear()
        ctx.recorder.install(adapter.TRACE_TARGETS)
        try:
            again = adapter.reference_run(
                spec, ctx.cols, 0, spec.packets, retain=adapter.CLI_RETAIN, around=lambda: ctx.recorder.span(ROOT)
            )
        finally:
            ctx.recorder.uninstall()
        rep.layers = ctx.recorder.snapshot()
        rep.reference_s = float(again["wall_s"])
    touched: set = set()
    _query_rounds(restored, rep, restored.queries(ctx.flows), spec.tail_query_rounds, touched)
    for step in ctx.schedule[: spec.tail_reconfig_cycles]:
        _reconfig_cycle(restored, rep, step)
    _recover_and_compare(ctx, rep, wal_dir, restored.tasks, restored.retained())
    _finish(rep, restored, spec)
    rep.attempted += spec.packets + epochs_expected
    return rep


# -- a whole workload ----------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    quick: bool = False,
) -> Dict[str, object]:
    """Run one workload for about ``seconds`` of measured repetitions.

    Returns the detailed result: per-metric samples and summaries,
    provenance, counts, and the check outcome.
    """
    spec = WORKLOADS[name]
    if quick:
        spec = spec.quick()
    rep_fn = cli_rep if spec.kind == "cli" else service_rep
    ctx = prepare(spec, seed)
    try:
        # One whole repetition is thrown away: the first full-size one runs
        # slower (heap growth, first-use paths) and would bias a short run.
        _quiesce()
        rep_fn(ctx, traced=False)
        reps: List[Rep] = []
        spent = 0.0
        while not _enough(len(reps), spent, seconds, trace, quick):
            _quiesce(disk=True)
            began = now()
            reps.append(rep_fn(ctx, traced=trace and len(reps) % 2 == 1))
            spent += now() - began
        cli_startup = [adapter.cli_startup_s() for _ in range(3)] if trace and spec.kind == "cli" else []
        return _result(ctx, reps, trace, quick, cli_startup)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # unless another run is using it


def _enough(reps: int, spent: float, seconds: float, trace: bool, quick: bool) -> bool:
    group = 2 if trace else 1  # a traced run alternates plain and wrapped
    if reps % group:
        return False
    if quick:
        return reps >= QUICK_REPS * group
    return reps >= max(MIN_REPS, 2 * group) and spent >= seconds


def _per_rep_median(reps: List[Rep], attr: str) -> List[float]:
    return [float(np.median(getattr(rep, attr))) for rep in reps if getattr(rep, attr)]


def _result(ctx: Context, reps: List[Rep], trace: bool, quick: bool, cli_startup: List[float]) -> Dict[str, object]:
    spec = ctx.spec
    plain = [rep for rep in reps if not rep.traced]
    problems = list(ctx.problems)
    for index, rep in enumerate(reps):
        problems += [f"rep {index}: {p}" for p in rep.problems]
    e2e_samples = {
        "setup_s": [adapter.IMPORT_S + ctx.one_time_setup_s + rep.setup_s for rep in plain],
        "ingest_pps": [rep.packets / rep.region_s for rep in plain],
        "seal_ms_p50": _per_rep_median(plain, "seal_ms"),
        "reconfig_ms_p50": _per_rep_median(plain, "cycle_ms"),
        "query_round_ms_p50": _per_rep_median(plain, "round_ms"),
        "recover_s": _per_rep_median(plain, "recover_s"),
        "wal_bytes_per_seal": [rep.wal["bytes"] / rep.wal["seals"] for rep in plain if rep.wal.get("seals")],
        # cli_serve: what the CLI user's process needs, not this harness.
        "peak_rss_mb": [rep.child_rss_mb for rep in plain] if spec.kind == "cli" else [own_peak_rss_mb()],
    }
    for metric, samples in e2e_samples.items():
        if not samples:
            problems.append(f"{metric}: no sample was taken")
            samples.append(0.0)
    metrics = {
        metric: {"unit": E2E_UNITS[metric], "values": samples, **summarize(samples)}
        for metric, samples in e2e_samples.items()
    }
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    failures: Dict[str, int] = {}
    for rep in reps:
        for kind, count in rep.failures.items():
            failures[kind] = failures.get(kind, 0) + count
    last = plain[-1]
    result: Dict[str, object] = {
        "workload": spec.name,
        "seed": ctx.seed,
        "quick": quick,
        "trace": trace,
        "trace_sha256": ctx.sha256,
        "sealed_sha256": hashlib.sha256("".join(last.region_digests).encode()).hexdigest(),
        "reps": len(plain),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "failed_ops_ratio": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "counts": {
            "packets_per_rep": last.packets,
            "seals_per_rep": len(last.seal_ms),
            "reconfig_cycles_per_rep": len(last.cycle_ms),
            "query_rounds_per_rep": len(last.round_ms),
            "wal_records_on_disk": last.wal.get("records", 0),
            "wal_seal_records_on_disk": last.wal.get("seals", 0),
            "wal_rolls": last.wal.get("rolls", 0),
            "rules_installed": last.rules_installed,
        },
        "provenance": {
            **adapter.provenance(),
            "nproc": os.cpu_count(),
            "wal_fs_type": filesystem_type(ctx.workdir),
        },
    }
    if trace:
        from .layers import layer_metrics

        result["layers"] = layer_metrics(ctx, reps, metrics, cli_startup)
    return result
