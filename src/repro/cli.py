"""Command-line interface: explore algorithms, regenerate experiments, and
drive the measurement service.

Usage::

    python -m repro list-algorithms
    python -m repro list-experiments
    python -m repro run <experiment> [--full] [--telemetry PATH]
    python -m repro stats [--experiment NAME | --input PATH] [--format FMT]
    python -m repro report [--output PATH] [--fast-only]
    python -m repro verify [--rounds N] [--seed N]
    python -m repro serve [--tasks LIST] [--wal PATH] [--checkpoint PATH]
    python -m repro query --input PATH [--list | --query KIND [--flow KEY]]
    python -m repro recover --wal PATH [--output PATH]
    python -m repro profile [--workload stream|batch] [--trace-out PATH]
    python -m repro top [--watch-fill F]
    python -m repro fabric serve|query|status [--switches N | --topology PATH]
    python -m repro bench-compare [--update-baseline]
    python -m repro demo

``run`` accepts the experiment names printed by ``list-experiments``
(e.g. ``fig13`` or ``table3``) and prints the paper-style rows.  With
``--telemetry PATH`` the run executes with telemetry enabled and dumps the
full control-plane event log plus a metrics snapshot to ``PATH`` as JSON.
``stats`` renders such an artifact (or produces a fresh one by running an
experiment) as a summary, Prometheus text, or JSON.

``serve``, ``profile``, ``top`` and ``fabric serve``/``query`` deploy their
task presets through one builder (:func:`_deploy`) and run their service
through :class:`~repro.service.runner.ServiceRunner`.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import List, Optional


class CliError(Exception):
    """A usage problem: :func:`main` prints ``error: <message>`` and exits 2."""


#: Experiment name -> harness module (each exposes run()/format_result()).
EXPERIMENTS = {
    "fig02": "repro.experiments.fig02_footprint",
    "fig08": "repro.experiments.fig08_stage_usage",
    "table3": "repro.experiments.table3_deployment",
    "fig11": "repro.experiments.fig11_address_translation",
    "fig12a": "repro.experiments.fig12a_forwarding",
    "fig12b": "repro.experiments.fig12b_accuracy",
    "fig13": "repro.experiments.fig13_resources",
    "fig14a": "repro.experiments.fig14a_heavy_hitter",
    "fig14b": "repro.experiments.fig14b_probabilistic",
    "fig14c": "repro.experiments.fig14c_ddos",
    "fig14d": "repro.experiments.fig14d_cardinality",
    "fig14e": "repro.experiments.fig14e_entropy",
    "fig14f": "repro.experiments.fig14f_interarrival",
    "fig14g": "repro.experiments.fig14g_existence",
    "appendix-b": "repro.experiments.appendix_b_collisions",
}

#: ``--generator`` choices (see :func:`_load_trace`).
GENERATORS = ("zipf", "uniform", "ddos", "superspreader", "portscan")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlyMon reproduction: on-the-fly network measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-algorithms", help="show the built-in CMU algorithms")
    sub.add_parser("list-experiments", help="show the paper tables/figures")

    run = sub.add_parser("run", help="regenerate one paper table/figure")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument(
        "--full",
        action="store_true",
        help="paper-like workload scale (slower) instead of the quick scale",
    )
    run.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="enable telemetry and dump the event log + metrics snapshot "
        "to PATH as JSON after the run",
    )
    run.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="datapath batch size for trace replays (0 forces the scalar "
        "reference path; default: the engine's built-in size). Both paths "
        "are bit-identical -- this only trades speed",
    )

    stats = sub.add_parser(
        "stats", help="telemetry snapshot: events, metrics, utilization"
    )
    stats.add_argument(
        "--experiment",
        choices=sorted(EXPERIMENTS),
        default="table3",
        help="experiment to run under telemetry (default: table3)",
    )
    stats.add_argument(
        "--input",
        metavar="PATH",
        default=None,
        help="render an existing --telemetry artifact instead of running",
    )
    stats.add_argument(
        "--format",
        choices=("summary", "prometheus", "json"),
        default="summary",
        help="output format (default: summary)",
    )

    report = sub.add_parser(
        "report", help="run a set of experiments and write a combined report"
    )
    report.add_argument(
        "--output", default="REPORT.md", help="path of the markdown report"
    )
    report.add_argument(
        "--fast-only",
        action="store_true",
        help="only the sub-second harnesses (resource/latency models)",
    )

    verify = sub.add_parser(
        "verify",
        help="audit control-plane invariants: deployment integrity, "
        "fault-injection rollback atomicity, checkpoint round-trip",
    )
    verify.add_argument(
        "--rounds",
        type=int,
        default=None,
        metavar="N",
        help="randomized fault-injection rounds (default: the 'rounds' "
        "option of FLYMON_FAULTS, else 10)",
    )
    verify.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="fault-schedule seed (default: the 'seed' option of "
        "FLYMON_FAULTS, else 2026)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the continuous measurement service over a trace: "
        "streaming epochs, watchers, queryable checkpoint artifact",
    )
    _add_source_args(serve, packets=100_000)
    rotation = _add_ingest_args(
        serve, chunk=32_768,
        epoch_help="rotate epochs every N packets (default: packets/20)",
    )
    rotation.add_argument(
        "--epoch-us",
        type=int,
        default=None,
        metavar="US",
        help="rotate epochs every US microseconds of packet time",
    )
    rotation.add_argument(
        "--epoch-wall-ms",
        type=float,
        default=None,
        metavar="MS",
        help="rotate epochs every MS milliseconds of wall-clock time "
        "(a background thread seals while ingestion continues)",
    )
    serve.add_argument(
        "--retain", type=int, default=16, metavar="N",
        help="sealed epochs kept in the ring (default: 16)",
    )
    _add_task_args(serve)
    serve.add_argument(
        "--watch-fill",
        type=float,
        default=None,
        metavar="F",
        help="watcher: when the hh task's fill factor exceeds F at a seal, "
        "double its memory through a transactional resize",
    )
    serve.add_argument(
        "--watch-cardinality",
        type=float,
        default=None,
        metavar="N",
        help="watcher: flag epochs whose cardinality estimate exceeds N",
    )
    serve.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write the queryable service artifact (JSON) for `repro query`",
    )
    serve.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="enable telemetry and dump the event log + metrics to PATH",
    )
    serve.add_argument(
        "--wal",
        metavar="PATH",
        default=None,
        help="append a crash-consistent write-ahead log (binary, checksummed "
        "frames) that `repro recover` replays after a crash; a directory "
        "(with --wal-segment-seals/--wal-segment-bytes) holds "
        "wal-NNNNNN.seg segments",
    )
    serve.add_argument(
        "--wal-policy",
        choices=("fail", "degrade"),
        default="fail",
        help="on a WAL write failure: fail stops ingest cleanly (sealed "
        "epochs stay intact); degrade keeps serving with wal_state="
        "degraded and bounded-backoff reattach attempts (default: fail)",
    )
    serve.add_argument(
        "--wal-segment-seals",
        type=int,
        default=None,
        metavar="N",
        help="roll the WAL to a new segment after N seal records (treats "
        "--wal as a directory of wal-NNNNNN.seg segments)",
    )
    serve.add_argument(
        "--wal-segment-bytes",
        type=int,
        default=None,
        metavar="B",
        help="roll the WAL to a new segment once it exceeds B bytes",
    )
    serve.add_argument(
        "--wal-force",
        action="store_true",
        help="resume into a WAL path that already holds records (starts a "
        "fresh segment, or rotates a single file to PATH.prev); without "
        "this, attaching to a non-empty WAL is refused",
    )
    serve.add_argument(
        "--max-stall-ms",
        type=float,
        default=None,
        metavar="MS",
        help="overload guard: shed whole ingest windows (with exact "
        "dropped_packets/dropped_windows accounting) instead of waiting "
        "more than MS ms for the ingest lock",
    )
    serve.add_argument(
        "--health-out",
        metavar="PATH",
        default=None,
        help="write a service.health() JSON heartbeat to PATH (atomically, "
        "after every chunk and at exit)",
    )

    profile = sub.add_parser(
        "profile",
        help="run a workload under the flight recorder and print the "
        "phase-attribution tree (where the time went)",
    )
    profile.add_argument(
        "--workload",
        choices=("stream", "batch"),
        default="stream",
        help="stream: the continuous service with epoch rotation; "
        "batch: one batched trace replay (default: stream)",
    )
    _add_source_args(profile, packets=100_000)
    _add_ingest_args(
        profile, chunk=32_768,
        epoch_help="stream workload: rotate every N packets "
        "(default: packets/20)",
    )
    _add_task_args(profile)
    profile.add_argument(
        "--min-pct", type=float, default=0.05, metavar="F",
        help="fold phases under F%% of total into (unattributed)",
    )
    profile.add_argument(
        "--capacity", type=int, default=None, metavar="N",
        help="flight-recorder ring capacity (default: 8192 spans)",
    )
    profile.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also write Chrome trace_event JSON (open in Perfetto or "
        "chrome://tracing)",
    )
    profile.add_argument(
        "--json", dest="json_out", metavar="PATH", default=None,
        help="also write the raw span records as JSON",
    )

    top = sub.add_parser(
        "top",
        help="run the streaming service with a live refreshing dashboard "
        "(one frame per --chunk packets): pps, epoch seal ms, health, "
        "watcher fires",
    )
    _add_source_args(top, packets=200_000)
    _add_ingest_args(
        top, chunk=16_384,
        epoch_help="rotate every N packets (default: packets/20)",
    )
    _add_task_args(top)
    top.add_argument(
        "--watch-fill", type=float, default=None, metavar="F",
        help="fill-factor watcher, as for `repro serve`",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of redrawing in place (for logs/pipes)",
    )

    bench_compare = sub.add_parser(
        "bench-compare",
        help="diff benchmarks/results/BENCH_*.json against the committed "
        "baseline and flag perf regressions",
    )
    bench_compare.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="directory of BENCH_*.json files "
        "(default: benchmarks/results, honoring FLYMON_BENCH_DIR)",
    )
    bench_compare.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file (default: benchmarks/baseline.json)",
    )
    bench_compare.add_argument(
        "--threshold", type=float, default=None, metavar="F",
        help="allowed relative slip before a metric regresses "
        "(default: 0.25 = 25%%)",
    )
    bench_compare.add_argument(
        "--update-baseline", action="store_true",
        help="snapshot the current results as the new baseline and exit",
    )
    bench_compare.add_argument(
        "--record-history", metavar="PATH", default=None,
        help="also append this run's results to a JSONL history ledger",
    )
    bench_compare.add_argument("--verbose", action="store_true")

    query = sub.add_parser(
        "query",
        help="answer typed measurement queries against a `repro serve` "
        "checkpoint artifact, offline",
    )
    query.add_argument("--input", metavar="PATH", required=True)
    query.add_argument(
        "--list", action="store_true", help="show epochs, tasks, and series"
    )
    query.add_argument(
        "--epoch", type=int, default=None, metavar="N",
        help="epoch index to query (default: latest retained)",
    )
    query.add_argument(
        "--task", type=int, default=0, metavar="INDEX",
        help="task index from --list (default: 0)",
    )
    query.add_argument(
        "--query",
        dest="query_kind",
        choices=(
            "cardinality",
            "entropy",
            "heavy-hitters",
            "frequency",
            "existence",
            "interarrival",
            "series",
        ),
        default=None,
    )
    _add_flow_arg(query)
    query.add_argument("--threshold", type=int, default=None, metavar="N")
    query.add_argument("--series", default=None, metavar="NAME")

    recover = sub.add_parser(
        "recover",
        help="replay a `repro serve --wal` log (e.g. after a crash) into a "
        "queryable checkpoint artifact",
    )
    recover.add_argument(
        "--wal",
        metavar="PATH",
        required=True,
        help="the write-ahead log: a single file, or a segment directory "
        "(recovers from the newest segment with an intact base)",
    )
    recover.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the recovered artifact here (for `repro query --input`)",
    )

    fabric = sub.add_parser(
        "fabric",
        help="federated measurement over a simulated switch fabric: "
        "per-switch services, epoch barrier, law-based merging",
    )
    fsub = fabric.add_subparsers(dest="fabric_command", required=True)

    def fabric_common(p):
        topo = p.add_mutually_exclusive_group()
        topo.add_argument(
            "--topology",
            metavar="PATH",
            default=None,
            help="JSON topology spec (see docs/FABRIC.md)",
        )
        topo.add_argument(
            "--switches",
            type=int,
            default=4,
            metavar="N",
            help="preset: N edge switches + one core spine (default: 4)",
        )
        _add_task_args(p)

    def fabric_traffic(p):
        p.add_argument(
            "--input", metavar="PATH", default=None,
            help="replay a .npz trace (default: synthesize per-edge zipf)",
        )
        _add_traffic_args(p, packets=40_000, flows=2_000)
        _add_ingest_args(
            p, chunk=16_384, batch=False,
            epoch_help="fabric barrier every N packets (default: packets/8)",
        )

    fserve = fsub.add_parser(
        "serve", help="stream a trace through the fabric, printing each "
        "merged fabric epoch",
    )
    fabric_common(fserve)
    fabric_traffic(fserve)
    fserve.add_argument(
        "--status-out", metavar="PATH", default=None,
        help="write the final fabric status() JSON here",
    )
    fserve.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="record fabric.dispatch/barrier/merge spans to PATH",
    )

    fquery = fsub.add_parser(
        "query", help="one-shot: drive the fabric over a trace, then answer "
        "a typed query against a merged fabric epoch",
    )
    fabric_common(fquery)
    fabric_traffic(fquery)
    fquery.add_argument(
        "--query",
        dest="query_kind",
        choices=("frequency", "cardinality", "entropy", "existence",
                 "heavy-hitters"),
        required=True,
    )
    _add_flow_arg(fquery)
    fquery.add_argument("--epoch", type=int, default=None, metavar="N")

    fstatus = fsub.add_parser(
        "status", help="dry-run: show the topology and where collaborative "
        "placement would host each task",
    )
    fabric_common(fstatus)
    fstatus.add_argument(
        "--json", action="store_true", help="emit machine-readable status"
    )

    sub.add_parser("demo", help="run the quickstart scenario")
    return parser


def _add_source_args(p, packets: int) -> None:
    """Where the trace comes from: a saved .npz or a generator."""
    source = p.add_mutually_exclusive_group()
    source.add_argument(
        "--input", metavar="PATH", default=None,
        help="replay a .npz trace written by Trace.save",
    )
    source.add_argument(
        "--generator", choices=GENERATORS, default="zipf",
        help="synthesize the input trace (default: zipf)",
    )
    _add_traffic_args(p, packets)


def _add_traffic_args(p, packets: int, flows: int = 5_000) -> None:
    """The synthesized trace's size and seed."""
    for flag, default in (("--packets", packets), ("--flows", flows), ("--seed", 1)):
        p.add_argument(flag, type=int, default=default, metavar="N")


def _add_ingest_args(p, chunk: int, epoch_help: str, batch: bool = True):
    """``--batch-size``, ``--chunk`` and ``--epoch-size``.

    Returns the mutually exclusive group ``--epoch-size`` sits in, for
    ``serve``'s other rotation policies.
    """
    if batch:
        p.add_argument(
            "--batch-size", type=int, default=None, metavar="N",
            help="vectorized-engine chunk size (0 forces the scalar path)",
        )
    p.add_argument(
        "--chunk", type=int, default=chunk, metavar="N",
        help=f"ingest the trace in chunks of N packets (default: {chunk})",
    )
    rotation = p.add_mutually_exclusive_group()
    rotation.add_argument(
        "--epoch-size", type=int, default=None, metavar="N", help=epoch_help
    )
    return rotation


def _add_task_args(p) -> None:
    p.add_argument(
        "--tasks",
        default="hh,card",
        metavar="LIST",
        help="comma list of task presets: hh, card, entropy, existence, "
        "interarrival (default: hh,card)",
    )
    p.add_argument(
        "--threshold", type=int, default=100, metavar="N",
        help="heavy-hitter alarm threshold for the hh preset (default: 100)",
    )


def _add_flow_arg(p) -> None:
    p.add_argument(
        "--flow",
        default=None,
        metavar="KEY",
        help="flow key for point queries: comma-separated fields, each a "
        "dotted quad or integer, one per field of the task's key (e.g. "
        "10.0.0.7, or 10.0.0.7,10.0.0.9,443,80,6 for a 5-tuple)",
    )


def cmd_list_algorithms() -> int:
    from repro.core.algorithms import ALGORITHM_REGISTRY
    from repro.core.task import MeasurementTask, AttributeSpec
    from repro.traffic.flows import KEY_SRC_IP

    print(f"{'name':<18} {'attribute':<12} {'rows':<5} groups")
    print("-" * 48)
    for name in sorted(ALGORITHM_REGISTRY):
        cls = ALGORITHM_REGISTRY[name]
        # Probe the shape with a representative task.
        kwargs = dict(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=1024,
            algorithm=name,
        )
        if name in ("beaucoup",):
            kwargs["attribute"] = AttributeSpec.distinct(KEY_SRC_IP)
            kwargs["threshold"] = 512
        elif name in ("hll", "linear_counting", "odd_sketch"):
            kwargs["attribute"] = AttributeSpec.distinct(KEY_SRC_IP)
        elif name in ("sumax_max", "max_interarrival"):
            kwargs["attribute"] = AttributeSpec.maximum("queue_length")
        elif name in ("bloom", "bloom_naive"):
            kwargs["attribute"] = AttributeSpec.existence()
        try:
            algo = cls(MeasurementTask(**kwargs))
            attribute = kwargs["attribute"].kind.value
            print(
                f"{name:<18} {attribute:<12} {algo.num_rows():<5} "
                f"{algo.groups_needed()}"
            )
        except Exception as exc:  # pragma: no cover - defensive listing
            print(f"{name:<18} <unavailable: {exc}>")
    return 0


def cmd_list_experiments() -> int:
    print(f"{'name':<12} module")
    print("-" * 60)
    for name, module in sorted(EXPERIMENTS.items()):
        print(f"{name:<12} {module}")
    return 0


def _datapath_probe(num_packets: int = 512) -> None:
    """Drive a small deployment + trace so a telemetry dump always carries
    datapath signals (pipeline/stage/register counters, sampled spans,
    utilization gauges) even for control-plane-only experiments."""
    from repro.core.controller import FlyMonController
    from repro.core.task import AttributeSpec, MeasurementTask
    from repro.traffic import KEY_SRC_IP, zipf_trace

    controller = FlyMonController(num_groups=3)
    handle = controller.add_task(
        MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=4096,
            depth=3,
            algorithm="cms",
        )
    )
    trace = zipf_trace(num_flows=128, num_packets=num_packets, seed=7)
    controller.process_trace(trace)
    controller.record_telemetry()
    controller.remove_task(handle)


def _run_with_telemetry(experiment: str, full: bool, path: str):
    """Run an experiment instrumented; dump the artifact to ``path``."""
    from repro import telemetry

    module = importlib.import_module(EXPERIMENTS[experiment])
    telemetry.reset()
    telemetry.enable()
    try:
        result = module.run(quick=not full)
        _datapath_probe()
        snapshot = telemetry.write_artifact(
            path,
            meta={
                "experiment": experiment,
                "scale": "full" if full else "quick",
                "sample_interval": telemetry.TELEMETRY.tracer.sample_interval,
                "datapath_probe": True,
            },
        )
    finally:
        telemetry.disable()
    return module, result, snapshot


def cmd_run(
    experiment: str,
    full: bool,
    telemetry_path: Optional[str] = None,
    batch_size: Optional[int] = None,
) -> int:
    if batch_size is not None:
        # Experiment drivers read FLYMON_BATCH_SIZE via
        # repro.experiments.common.default_batch_size.
        os.environ["FLYMON_BATCH_SIZE"] = str(batch_size)
    if telemetry_path is not None:
        parent = os.path.dirname(telemetry_path) or "."
        if not os.path.isdir(parent):
            print(
                f"error: telemetry path directory does not exist: {parent}",
                file=sys.stderr,
            )
            return 2
        module, result, snapshot = _run_with_telemetry(
            experiment, full, telemetry_path
        )
        print(module.format_result(result))
        events = len(snapshot["events"])
        print(f"telemetry: {events} events -> {telemetry_path}")
        return 0
    module = importlib.import_module(EXPERIMENTS[experiment])
    result = module.run(quick=not full)
    print(module.format_result(result))
    return 0


def cmd_stats(experiment: str, input_path: Optional[str], format: str) -> int:
    import json

    from repro import telemetry

    if input_path is not None:
        try:
            snapshot = telemetry.load_artifact(input_path)
        except FileNotFoundError:
            print(f"error: no telemetry artifact at {input_path}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: {input_path} is not valid JSON: {exc}", file=sys.stderr)
            return 2
    else:
        module = importlib.import_module(EXPERIMENTS[experiment])
        telemetry.reset()
        telemetry.enable()
        try:
            module.run(quick=True)
            _datapath_probe()
            snapshot = telemetry.build_snapshot(
                meta={"experiment": experiment, "scale": "quick"}
            )
        finally:
            telemetry.disable()
    if format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True, default=str))
    elif format == "prometheus":
        print(telemetry.to_prometheus(snapshot["metrics"]), end="")
    else:
        print(telemetry.summarize(snapshot))
    return 0


#: Harnesses cheap enough for --fast-only reports.
FAST_EXPERIMENTS = ("fig02", "fig08", "fig11", "fig12a", "fig13", "appendix-b", "table3")


def cmd_report(output: str, fast_only: bool) -> int:
    names = FAST_EXPERIMENTS if fast_only else tuple(sorted(EXPERIMENTS))
    sections = []
    for name in names:
        module = importlib.import_module(EXPERIMENTS[name])
        print(f"running {name} ...", flush=True)
        result = module.run(quick=True)
        sections.append(f"## {name}\n\n```\n{module.format_result(result)}\n```\n")
    with open(output, "w") as fh:
        fh.write("# FlyMon reproduction report\n\n")
        fh.write(
            "Generated by `python -m repro report`. Quick-scale workloads; "
            "see EXPERIMENTS.md for paper-vs-measured discussion.\n\n"
        )
        fh.write("\n".join(sections))
    print(f"wrote {output} ({len(sections)} sections)")
    return 0


def cmd_verify(rounds: Optional[int] = None, seed: Optional[int] = None) -> int:
    """Audit the control plane's robustness invariants.

    Three phases: (1) deploy every Table 3 algorithm and run the integrity
    auditor; (2) randomized fault-injection rounds asserting every aborted
    reconfiguration rolls back to bit-identical state; (3) a checkpoint /
    restore round-trip.  ``FLYMON_FAULTS="seed=...,rounds=..."`` (options
    only, no armed sites) parameterizes the schedule; flags override.
    """
    import random

    from repro.core.controller import FlyMonController
    from repro.core.task import AttributeSpec, MeasurementTask, TaskFilter
    from repro.experiments.table3_deployment import CASES
    from repro.faults import (
        FAULTS,
        FaultSpecError,
        SITE_ALLOC_EXHAUSTED,
        SITE_KEY_DENIED,
        SITE_RULE_APPLY,
        parse_spec,
    )
    from repro.traffic.flows import KEY_DST_IP, KEY_SRC_IP

    options = {}
    env_spec = os.environ.get("FLYMON_FAULTS", "")
    if env_spec:
        try:
            _, options = parse_spec(env_spec)
        except FaultSpecError as exc:
            print(f"error: bad FLYMON_FAULTS: {exc}", file=sys.stderr)
            return 2
    try:
        if seed is None:
            seed = int(options.get("seed", 2026))
        if rounds is None:
            rounds = int(options.get("rounds", 10))
    except ValueError as exc:
        print(f"error: bad FLYMON_FAULTS option: {exc}", file=sys.stderr)
        return 2

    problems: List[str] = []
    # The audit owns the injector: env-armed sites would make phase 1 fail
    # by design, so start from a clean slate and restore nothing after.
    FAULTS.reset()

    # Phase 1 -- Table 3 deployment integrity. ------------------------------
    print("phase 1: Table 3 deployment integrity")
    for name, _attribute, kwargs in CASES:
        controller = FlyMonController(
            num_groups=3, preconfigure_keys=(KEY_SRC_IP, KEY_DST_IP)
        )
        task_kwargs = dict(key=KEY_SRC_IP, memory=16_384, algorithm=name)
        task_kwargs.update(kwargs)
        controller.add_task(MeasurementTask(**task_kwargs))
        report = controller.verify_integrity()
        status = "ok" if report.ok else "FAIL"
        print(f"  {name:<16} {report.checks:>3} checks  {status}")
        if not report.ok:
            problems.extend(f"{name}: {p}" for p in report.problems)

    # Phase 2 -- fault-injection rollback atomicity. ------------------------
    print(f"phase 2: rollback atomicity ({rounds} rounds, seed {seed})")
    rng = random.Random(seed)
    controller = FlyMonController(
        num_groups=3, preconfigure_keys=(KEY_SRC_IP, KEY_DST_IP)
    )
    base_attrs = {
        "cms": AttributeSpec.frequency(),
        "bloom": AttributeSpec.existence(),
        "tower": AttributeSpec.frequency(),
    }
    for i, algorithm in enumerate(("cms", "bloom", "tower")):
        controller.add_task(
            MeasurementTask(
                key=KEY_SRC_IP,
                attribute=base_attrs[algorithm],
                memory=8192,
                algorithm=algorithm,
                filter=TaskFilter.of(src_ip=((10 + i) << 24, 8)),
            )
        )
    sites = (
        (SITE_RULE_APPLY, 8),
        (SITE_ALLOC_EXHAUSTED, 3),
        (SITE_KEY_DENIED, 1),
    )
    fired = aborted = 0
    for n in range(rounds):
        site, max_hit = sites[rng.randrange(len(sites))]
        hit = rng.randint(1, max_hit)
        before_digest = controller.control_digest()
        before_free = controller.free_buckets()
        FAULTS.reset()  # hit counters are cumulative; each round starts at 0
        before_fired = len(FAULTS.fired())
        FAULTS.arm(site, hit=hit)
        probe = MeasurementTask(
            key=KEY_DST_IP,
            attribute=AttributeSpec.frequency(),
            memory=4096,
            algorithm="cms",
            filter=TaskFilter.of(src_ip=((100 + n) << 24, 8)),
        )
        try:
            handle = controller.add_task(probe)
        except Exception:
            aborted += 1
            if len(FAULTS.fired()) == before_fired:
                problems.append(
                    f"round {n}: add_task failed without an injected fault"
                )
            if controller.control_digest() != before_digest:
                problems.append(f"round {n}: {site}@{hit} left a dirty digest")
            if controller.free_buckets() != before_free:
                problems.append(f"round {n}: {site}@{hit} leaked buckets")
        else:
            # The arm outlived the call (fewer hits than the index) or the
            # injected denial was survivable; undo the probe either way.
            if len(FAULTS.fired()) > before_fired:
                fired += 1
            controller.remove_task(handle)
        FAULTS.disarm()
        report = controller.verify_integrity()
        if not report.ok:
            problems.extend(f"round {n}: {p}" for p in report.problems)
    fired += aborted
    print(f"  {rounds} rounds: {fired} faults fired, {aborted} aborts, "
          f"{rounds - fired} no-fire")

    # Mid-batch filter update: fail on a later rule, expect full revert.
    victim = controller.tasks[0]
    old_filter = victim.task.filter
    before_digest = controller.control_digest()
    FAULTS.reset()
    FAULTS.arm(SITE_RULE_APPLY, hit=2)
    try:
        controller.update_task_filter(
            victim, TaskFilter.of(src_ip=(0xC0000000, 8))
        )
    except Exception:
        if controller.control_digest() != before_digest:
            problems.append("mid-batch filter update left a dirty digest")
        if victim.task.filter != old_filter:
            problems.append("mid-batch filter update left a stale handle")
        print("  mid-batch filter-update abort: state reverted")
    else:
        problems.append("injected mid-batch rule failure did not abort")
    FAULTS.disarm()

    # Phase 3 -- checkpoint round-trip. -------------------------------------
    print("phase 3: checkpoint round-trip")
    state = controller.checkpoint()
    restored = FlyMonController.from_checkpoint(state)
    report = restored.verify_integrity()
    if not report.ok:
        problems.extend(f"restore: {p}" for p in report.problems)
    if restored.free_buckets() != controller.free_buckets():
        problems.append("restore: free-bucket map differs from the original")
    if len(restored.tasks) != len(controller.tasks):
        problems.append("restore: task count differs from the original")
    print(f"  {len(restored.tasks)} tasks restored, {report.checks} checks "
          f"{'ok' if report.ok else 'FAIL'}")

    FAULTS.reset()
    if problems:
        print(f"verify: {len(problems)} problem(s)", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print("verify: all invariants hold")
    return 0


def _write_json(path: str, obj, atomic: bool = False) -> None:
    """Write ``obj`` to ``path`` as the bytes ``json.dumps(obj)`` gives.

    ``atomic`` writes ``path.tmp`` and renames it over ``path``, so a
    reader never sees half a file.
    """
    target = path + ".tmp" if atomic else path
    with open(target, "w") as fh:
        fh.writelines(_json_pieces(obj))
    if atomic:
        os.replace(target, path)


def _json_pieces(obj):
    """``json.dumps(obj)`` in pieces: dicts and lists of containers are
    split, so each piece the C encoder sees is a scalar or a flat list (a
    register row, in a checkpoint).

    ``json.dump`` streams through the pure-Python encoder, ~5x slower on a
    checkpoint; one ``json.dumps`` of the whole runs the C encoder, but on
    CPython 3.11 that holds every small fragment until the end (+4 MB peak
    RSS on a 0.8 MB checkpoint).  Piece by piece does neither.
    """
    import json

    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from _json_pieces(value)
        yield "}"
    elif isinstance(obj, (list, tuple)) and obj and isinstance(
        obj[0], (dict, list, tuple)
    ):
        yield "["
        for i, value in enumerate(obj):
            if i:
                yield ", "
            yield from _json_pieces(value)
        yield "]"
    else:
        yield json.dumps(obj)


def _presets(args):
    """The ``--tasks`` presets as (name, task) pairs, in request order."""
    from repro.core.task import AttributeSpec, MeasurementTask
    from repro.traffic.flows import KEY_5TUPLE, KEY_SRC_IP

    presets = {
        "hh": lambda: MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=4096,
            depth=3,
            algorithm="cms",
            threshold=args.threshold,
        ),
        "card": lambda: MeasurementTask(
            key=KEY_5TUPLE,
            attribute=AttributeSpec.distinct(KEY_5TUPLE),
            memory=1024,
            depth=1,
            algorithm="hll",
        ),
        "entropy": lambda: MeasurementTask(
            key=KEY_5TUPLE,
            attribute=AttributeSpec.frequency(),
            memory=2048,
            depth=1,
            algorithm="mrac",
        ),
        "existence": lambda: MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.existence(),
            memory=4096,
            depth=3,
            algorithm="bloom",
        ),
        "interarrival": lambda: MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.maximum("packet_interval"),
            memory=2048,
            depth=2,
            algorithm="max_interarrival",
        ),
    }
    out = []
    for name in (n.strip() for n in args.tasks.split(",")):
        if not name:
            continue
        if name not in presets:
            raise CliError(
                f"unknown task preset {name!r} (choose from {sorted(presets)})"
            )
        out.append((name, presets[name]()))
    return out


def _deploy(args, service, series: bool = True):
    """Deploy the ``--tasks`` presets on ``service`` -- through its
    controller, or collaboratively on a fabric -- register the series the
    presets answer, and add the watchers the flags ask for.

    Returns preset name -> the handle typed queries take.
    """
    from repro.core.controller import PlacementError
    from repro.fabric import FabricPlacementError, FabricService
    from repro.service import (
        CardinalityQuery,
        EntropyQuery,
        HeavyHitterQuery,
        TaskRef,
        Watcher,
        cardinality_metric,
        fill_factor_metric,
        resize_action,
    )

    if isinstance(service, FabricService):
        deploy = service.deploy
    else:
        def deploy(task):
            return TaskRef(service.controller.add_task(task))

    try:
        handles = {name: deploy(task) for name, task in _presets(args)}
    except (PlacementError, FabricPlacementError) as exc:
        raise CliError(f"cannot place the task mix ({args.tasks}): {exc}")
    if series:
        for preset, name, query in (
            ("hh", "heavy_hitters", HeavyHitterQuery),
            ("card", "cardinality", CardinalityQuery),
            ("entropy", "entropy", EntropyQuery),
        ):
            if preset in handles:
                service.register_series(name, query(handles[preset]))
    if getattr(args, "watch_fill", None) is not None:
        if "hh" not in handles:
            raise CliError("--watch-fill needs the hh task")
        service.add_watcher(
            Watcher(
                "fill_factor",
                fill_factor_metric(handles["hh"]),
                above=args.watch_fill,
                action=resize_action(handles["hh"]),
                cooldown_epochs=1,
            )
        )
    if getattr(args, "watch_cardinality", None) is not None:
        if "card" not in handles:
            raise CliError("--watch-cardinality needs the card task")
        service.add_watcher(
            Watcher(
                "cardinality_spike",
                cardinality_metric(handles["card"]),
                above=args.watch_cardinality,
            )
        )
    return handles


def _load_trace(args):
    """The ``--input`` trace, or the ``--generator`` one."""
    from repro.traffic import (
        ddos_trace,
        portscan_trace,
        superspreader_trace,
        uniform_trace,
        zipf_trace,
    )
    from repro.traffic.trace import Trace

    if args.input is not None:
        try:
            return Trace.load(args.input)
        except FileNotFoundError:
            raise CliError(f"no trace at {args.input}")
    generators = {
        "zipf": lambda: zipf_trace(
            num_flows=args.flows, num_packets=args.packets, seed=args.seed
        ),
        "uniform": lambda: uniform_trace(
            num_flows=args.flows, num_packets=args.packets, seed=args.seed
        ),
        "ddos": lambda: ddos_trace(num_packets=args.packets, seed=args.seed),
        "superspreader": lambda: superspreader_trace(
            num_packets=args.packets, seed=args.seed
        ),
        "portscan": lambda: portscan_trace(
            num_packets=args.packets, seed=args.seed
        ),
    }
    return generators[args.generator]()


def _build_service(args, trace):
    """A service over a fresh controller for ``trace``, rotating as the
    flags say (every ``packets/20`` by default), with the presets deployed
    (:func:`_deploy`).  Only ``serve`` has the other rotation policies,
    ``--retain`` and ``--max-stall-ms``."""
    from repro.core.controller import FlyMonController
    from repro.service import MeasurementService

    epoch_us = getattr(args, "epoch_us", None)
    epoch_wall_ms = getattr(args, "epoch_wall_ms", None)
    epoch_packets = args.epoch_size
    if epoch_packets is None and epoch_us is None and epoch_wall_ms is None:
        epoch_packets = max(1, len(trace) // 20)
    try:
        service = MeasurementService(
            FlyMonController(num_groups=3),
            epoch_packets=epoch_packets,
            epoch_duration_us=epoch_us,
            epoch_wall_ms=epoch_wall_ms,
            retain=getattr(args, "retain", 16),
            batch_size=args.batch_size,
            max_stall_ms=getattr(args, "max_stall_ms", None),
        )
    except ValueError as exc:
        raise CliError(str(exc))
    _deploy(args, service)
    return service


def _epoch_line(sealed, merged: bool = False) -> str:
    """The stdout line for one sealed epoch: a service's (seal time, fired
    watchers) or, ``merged``, a fabric's (members that missed it)."""
    head = "merged" if merged else f"sealed in {sealed.seal_ms:6.2f} ms"
    line = f"epoch {sealed.index:>3}: {sealed.packets:>7} pkts {head}"
    for name in sorted(sealed.outputs):
        value = sealed.outputs[name]
        if isinstance(value, float):
            line += f"  {name}={value:.1f}"
        elif isinstance(value, (set, frozenset, list)):
            line += f"  {name}={len(value)}"
        else:
            line += f"  {name}={value}"
    fired = [e for e in sealed.watcher_events if e.fired]
    if fired:
        line += "  [" + ", ".join(
            f"{e.watcher}->{e.outcome or 'fired'}" for e in fired
        ) + "]"
    degraded = getattr(sealed, "degraded", None)
    if degraded:
        line += f"  [degraded: {', '.join(degraded)}]"
    return line


def cmd_serve(args) -> int:
    import time

    from repro import telemetry
    from repro.service import service_checkpoint
    from repro.service.runner import ServiceRunner

    trace = _load_trace(args)
    if args.telemetry is not None:
        telemetry.reset()
        telemetry.enable()
    try:
        service = _build_service(args, trace)
        wal = None
        if args.wal is not None:
            from repro.service.wal import ServiceWal, WalError

            try:
                wal = ServiceWal(
                    args.wal,
                    segment_seals=args.wal_segment_seals,
                    segment_bytes=args.wal_segment_bytes,
                    policy=args.wal_policy,
                    resume=args.wal_force,
                ).attach(service)
            except WalError as exc:
                raise CliError(str(exc))

        def write_health() -> None:
            if args.health_out is None:
                return
            payload = service.health()
            payload["time"] = time.time()
            if wal is not None:
                payload["wal"] = wal.status()
            _write_json(args.health_out, payload, atomic=True)

        runner = ServiceRunner(service, trace, args.chunk, on_chunk=write_health)
        for sealed in runner:
            print(_epoch_line(sealed), flush=True)
        write_health()

        stats = service.stats()
        if runner.outcome == "halted":
            print(
                f"error: {runner.error}\n"
                f"served {stats['packets_total']} packets across "
                f"{stats['epoch']} epochs before the WAL failure; the log "
                "is recoverable up to the last sealed epoch",
                file=sys.stderr,
            )
            if wal is not None:
                wal.close()
            return 1
        if runner.outcome == "terminated":
            print(
                "sigterm: sealed the open window and flushed state before "
                "exit", flush=True
            )
        print(
            f"served {stats['packets_total']} packets across {stats['epoch']} "
            f"epochs ({stats['sealed_epochs']} retained)"
        )
        if args.checkpoint is not None:
            artifact = service_checkpoint(service)
            _write_json(args.checkpoint, artifact)
            print(f"checkpoint: {len(artifact['epochs'])} epochs -> {args.checkpoint}")
        if wal is not None:
            wal.close()  # may flush cached epochs via a final reattach
            status = wal.status()
            line = (
                f"wal: {wal.records_written} records, "
                f"{status['bytes_written']} bytes (encode "
                f"{status['encode_s'] * 1e3:.1f} ms, write "
                f"{status['write_s'] * 1e3:.1f} ms, fsync "
                f"{status['fsync_s'] * 1e3:.1f} ms)"
            )
            if status["mode"] == "segmented":
                line += f", segment {status['segment']} ({status['rolls']} roll(s))"
            if status["state"] != "ok":
                line += f", state={status['state']}"
            if status["lost_seals"]:
                line += f", LOST {status['lost_seals']} sealed epoch(s)"
            print(line + f" -> {args.wal}")
            write_health()  # reflect the close-time reattach outcome
        if args.telemetry is not None:
            snapshot = telemetry.write_artifact(
                args.telemetry, meta={"command": "serve"}
            )
            print(
                f"telemetry: {len(snapshot['events'])} events -> {args.telemetry}"
            )
    finally:
        if args.telemetry is not None:
            telemetry.disable()
    return 0


def cmd_profile(args) -> int:
    import json
    import time

    from repro import telemetry
    from repro.service.runner import ServiceRunner

    recorder = telemetry.RECORDER
    recorder.clear()
    telemetry.enable_recorder(capacity=args.capacity)
    try:
        trace = _load_trace(args)
        service = _build_service(args, trace)
        t0 = time.perf_counter()
        if args.workload == "batch":
            service.controller.process_trace(
                trace, batch_size=args.batch_size or 8192
            )
        else:
            for _sealed in ServiceRunner(service, trace, args.chunk):
                pass
        wall_ms = (time.perf_counter() - t0) * 1e3
    finally:
        telemetry.disable_recorder()

    spans = recorder.spans
    root = telemetry.aggregate_spans(spans)
    print(
        f"workload={args.workload} packets={len(trace)} spans={len(spans)}"
    )
    print()
    print(telemetry.format_phase_tree(root, min_pct=args.min_pct))
    coverage = 100.0 * root.wall_ms / wall_ms if wall_ms > 0 else 0.0
    print()
    print(
        f"measured wall: {wall_ms:.2f} ms; recorded phases cover "
        f"{coverage:.1f}% of it"
    )
    if args.trace_out is not None:
        telemetry.write_chrome_trace(
            args.trace_out,
            spans,
            meta={
                "workload": args.workload,
                "packets": len(trace),
                "wall_ms": wall_ms,
            },
        )
        print(
            f"chrome trace: {len(spans)} events -> {args.trace_out} "
            "(open in Perfetto or chrome://tracing)"
        )
    if args.json_out is not None:
        with open(args.json_out, "w") as fh:
            json.dump(
                {"wall_ms": wall_ms, "spans": recorder.to_dicts()},
                fh,
                indent=1,
                default=str,
            )
        print(f"span json: {len(spans)} spans -> {args.json_out}")
    return 0


def _top_frame(service, done: int, total: int, elapsed_s: float) -> str:
    """One rendering of the `repro top` dashboard."""
    stats = service.stats()
    pps = done / elapsed_s if elapsed_s > 0 else 0.0
    seal_times = [s.seal_ms for s in service.epochs]
    lines = [
        "repro top -- streaming measurement service",
        (
            f"packets  {done:>12,} / {total:,}"
            f"   elapsed {elapsed_s:7.2f} s   rate {pps / 1e3:8.1f} kpps"
        ),
    ]
    if seal_times:
        lines.append(
            f"epochs   {stats['epoch']:>5} sealed"
            f"   last seal {seal_times[-1]:7.2f} ms"
            f"   mean {sum(seal_times) / len(seal_times):7.2f} ms"
            f"   max {max(seal_times):7.2f} ms"
        )
    else:
        lines.append(f"epochs   {stats['epoch']:>5} sealed")
    lines.append(
        f"watchers {stats['watchers']:>5} registered"
        f"   fired {stats['watchers_fired']}"
    )
    health = service.health()
    health_line = f"health   {health['status']:>5}"
    if health["wal_state"] is not None:
        health_line += f"   wal={health['wal_state']}"
    if health["dropped_windows"]:
        health_line += (
            f"   shed {health['dropped_windows']} window(s)"
            f" / {health['dropped_packets']} pkts"
        )
    if health["sealer_restarts"]:
        health_line += f"   sealer restarts={health['sealer_restarts']}"
    if health["reasons"]:
        health_line += "   [" + "; ".join(health["reasons"]) + "]"
    lines.append(health_line)
    return "\n".join(lines)


def cmd_top(args) -> int:
    import time

    from repro.service.runner import ServiceRunner

    trace = _load_trace(args)
    service = _build_service(args, trace)
    clear = not args.no_clear and sys.stdout.isatty()
    t0 = time.perf_counter()

    def show(last: bool = False) -> None:
        frame = _top_frame(
            service, runner.done, len(trace), time.perf_counter() - t0
        )
        if clear:
            print("\x1b[2J\x1b[H" + frame, flush=True)
        else:
            print(frame if last else frame + "\n", flush=True)

    runner = ServiceRunner(service, trace, args.chunk, on_chunk=show)
    for _sealed in runner:
        pass
    show(last=True)
    stats = service.stats()
    print(
        f"\nserved {stats['packets_total']:,} packets across "
        f"{stats['epoch']} epochs; datapath time "
        f"{stats['ingest_ms_total'] / 1e3:.2f} s"
    )
    return 0


def cmd_bench_compare(args) -> int:
    from pathlib import Path

    from repro import bench_history

    root = Path(__file__).resolve().parents[2]
    results_dir = args.results_dir or os.environ.get("FLYMON_BENCH_DIR") or (
        root / "benchmarks" / "results"
    )
    baseline_path = args.baseline or (root / "benchmarks" / "baseline.json")

    if args.update_baseline:
        entry = bench_history.write_baseline(results_dir, baseline_path)
        print(
            f"baseline with {len(entry['benches'])} bench(es) -> "
            f"{baseline_path}"
        )
        return 0

    results = bench_history.load_results(results_dir)
    if not results:
        print(f"error: no BENCH_*.json under {results_dir}", file=sys.stderr)
        return 2
    if args.record_history is not None:
        bench_history.record_history(results_dir, args.record_history)
        print(f"history: recorded {len(results)} bench(es) -> {args.record_history}")
    baseline = bench_history.load_baseline(baseline_path)
    if baseline is None:
        print(f"no baseline at {baseline_path}; nothing to compare against")
        return 0
    threshold = (
        args.threshold
        if args.threshold is not None
        else bench_history.DEFAULT_THRESHOLD
    )
    report = bench_history.compare(results, baseline, threshold=threshold)
    print(bench_history.format_report(report, verbose=args.verbose))
    return 0 if report.ok else 1


def _parse_flow(spec: str, key) -> tuple:
    """``--flow`` against a task's key (its ``(field, bits)`` parts): one
    comma-separated field per part, each a dotted quad or an integer that
    fits the part's width."""
    fields = [part.strip() for part in spec.split(",")]
    if len(fields) != len(key):
        names = "+".join(name for name, _bits in key)
        raise CliError(
            f"--flow {spec!r} has {len(fields)} field(s); the task's key "
            f"({names}) has {len(key)}"
        )
    flow = []
    for text, (name, bits) in zip(fields, key):
        parts = text.split(".")
        try:
            octets = [int(p, 10) for p in parts] if len(parts) == 4 else None
            value = int(text, 0) if len(parts) == 1 else None
        except ValueError:
            octets = value = None
        if octets is not None:
            if not all(0 <= octet <= 255 for octet in octets):
                raise CliError(
                    f"--flow field {text!r} has an octet outside 0-255"
                )
            a, b, c, d = octets
            value = (a << 24) | (b << 16) | (c << 8) | d
        if value is None:
            raise CliError(
                f"--flow field {text!r} is not a dotted quad or an integer"
            )
        if not 0 <= value < 1 << bits:
            raise CliError(
                f"--flow field {text!r} does not fit {name} ({bits} bits)"
            )
        flow.append(value)
    return tuple(flow)


def _build_query(kind: str, handle, key, flow: Optional[str], threshold=None):
    """The typed query ``--query kind`` names, against ``handle`` (whose
    task has flow key ``key``); point queries parse ``--flow``."""
    from repro.service import (
        CardinalityQuery,
        EntropyQuery,
        ExistenceQuery,
        FrequencyQuery,
        HeavyHitterQuery,
        InterArrivalQuery,
    )

    point = {
        "frequency": FrequencyQuery,
        "existence": ExistenceQuery,
        "interarrival": InterArrivalQuery,
    }.get(kind)
    if point is not None:
        if flow is None:
            raise CliError(f"--query {kind} needs --flow")
        return point(handle, _parse_flow(flow, key))
    if kind == "heavy-hitters":
        return HeavyHitterQuery(handle, threshold=threshold)
    return {"cardinality": CardinalityQuery, "entropy": EntropyQuery}[kind](
        handle
    )


def _format_flow(flow) -> str:
    def fmt(v: int) -> str:
        if v > 0xFFFF:  # render plausible addresses as dotted quads
            return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"
        return str(v)

    return ",".join(fmt(int(v)) for v in flow)


def cmd_query(args) -> int:
    import json

    from repro.service import (
        StaleEpochError,
        UnsupportedQueryError,
        load_service_state,
    )

    try:
        with open(args.input) as fh:
            artifact = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"no artifact at {args.input}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.input} is not valid JSON: {exc}")
    try:
        restored = load_service_state(artifact)
    except ValueError as exc:
        raise CliError(str(exc))

    if args.list or args.query_kind is None:
        print(f"{'index':<6} {'algorithm':<18} key")
        for index, info in enumerate(restored.task_info):
            key = "+".join(name for name, _bits in info["key"])
            print(f"{index:<6} {info['algorithm']:<18} {key}")
        epochs = ", ".join(
            f"{s.index}({s.packets}p)" for s in restored.epochs
        )
        print(f"epochs: {epochs or '(none)'}")
        print(f"series: {', '.join(restored.series_names) or '(none)'}")
        if restored.watcher_log:
            fired = sum(1 for e in restored.watcher_log if e.get("fired"))
            print(f"watcher events: {len(restored.watcher_log)} ({fired} fired)")
        return 0

    if args.query_kind == "series":
        if args.series is None:
            raise CliError("--query series needs --series NAME")
        try:
            for index, value in restored.series(args.series):
                print(f"{index:>4}  {value}")
        except KeyError as exc:
            raise CliError(exc.args[0])
        return 0

    if not 0 <= args.task < len(restored.tasks):
        raise CliError(
            f"no task index {args.task} (artifact has {len(restored.tasks)})"
        )
    query = _build_query(
        args.query_kind,
        restored.tasks[args.task],
        restored.task_info[args.task]["key"],
        args.flow,
        threshold=args.threshold,
    )
    try:
        result = restored.query(query, epoch=args.epoch)
    except (StaleEpochError, UnsupportedQueryError) as exc:
        raise CliError(exc.args[0] if exc.args else exc)
    if isinstance(result, (set, frozenset)):
        print(f"{len(result)} heavy hitter(s)")
        for item in sorted(result):
            print(f"  {_format_flow(item)}")
    else:
        print(result)
    return 0


def cmd_recover(args) -> int:
    from repro.service.wal import WalError, recover_service_artifact

    try:
        artifact = recover_service_artifact(args.wal)
    except FileNotFoundError:
        raise CliError(f"no WAL at {args.wal}")
    except WalError as exc:
        raise CliError(str(exc))
    stats = artifact["stats"]
    print(
        f"recovered {stats['epochs_recovered']} epoch(s) from "
        f"{stats['wal_seals']} seal record(s) and {stats['wal_ops']} op "
        f"record(s) in {args.wal}"
    )
    if "wal_segments" in stats:
        print(
            f"segmented WAL: recovered from segment {stats['wal_segment']} "
            f"({stats['wal_segments']} segment(s) on disk, "
            f"{stats.get('wal_compacted', 0)} compacted epoch(s) in its base)"
        )
    if artifact["epochs"]:
        last = artifact["epochs"][-1]
        print(
            f"last sealed epoch: index {last['index']} "
            f"({last['packets']} pkts, {len(last['tasks'])} task(s))"
        )
    if args.output is not None:
        _write_json(args.output, artifact)
        print(f"artifact -> {args.output}")
    return 0


def _fabric_trace(args, topology):
    """The fabric's input trace: replayed, or per-edge zipf slices.

    The synthesized default places each block's hosts under a /8 whose top
    ``partition_bits`` bits equal the block id, so every edge switch sees
    its own share of the traffic.
    """
    from repro.traffic import Trace, zipf_trace

    if args.input is not None:
        return Trace.load(args.input)
    bits = topology.partition_bits
    blocks = topology.num_blocks
    per_block = max(1, args.packets // blocks)
    flows = max(1, args.flows // blocks)
    parts = []
    for b in range(blocks):
        # Top `bits` bits carry the block; set a low bit of the /8 so
        # addresses stay out of reserved 0.0.0.0/8 regardless of block.
        prefix_byte = (b << (8 - bits)) | 1 if bits < 8 else b
        parts.append(
            zipf_trace(
                num_flows=flows,
                num_packets=per_block,
                seed=args.seed + b,
                src_prefix=prefix_byte << 24,
            )
        )
    return Trace.concatenate(parts).sorted_by_time()


def _build_fabric(args):
    """Topology + fabric service with the presets deployed (:func:`_deploy`;
    only ``fabric serve`` prints series)."""
    from repro.fabric import FabricService, FabricTopology

    try:
        if args.topology:
            topology = FabricTopology.load(args.topology)
        else:
            topology = FabricTopology.preset(args.switches)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad topology: {exc}")
    epoch_size = getattr(args, "epoch_size", None)  # status has no traffic
    if epoch_size is None:
        epoch_size = max(1, getattr(args, "packets", 40_000) // 8)
    try:
        fabric = FabricService(topology, epoch_packets=epoch_size)
    except ValueError as exc:
        raise CliError(str(exc))
    handles = _deploy(args, fabric, series=args.fabric_command == "serve")
    return topology, fabric, handles


#: ``fabric query`` kind -> the preset that answers it.
FABRIC_QUERY_PRESETS = {
    "frequency": "hh",
    "heavy-hitters": "hh",
    "cardinality": "card",
    "entropy": "entropy",
    "existence": "existence",
}


def cmd_fabric(args) -> int:
    import json

    from repro import telemetry
    from repro.service import StaleEpochError, UnsupportedQueryError
    from repro.service.runner import ServiceRunner

    topology, fabric, handles = _build_fabric(args)
    telemetry_path = getattr(args, "telemetry", None)  # fabric serve only
    try:
        query = None
        if args.fabric_command == "query":
            # Checked before any traffic flows: a bad --flow or a missing
            # preset costs nothing.
            preset = FABRIC_QUERY_PRESETS[args.query_kind]
            if preset not in handles:
                raise CliError(
                    f"--query {args.query_kind} needs the {preset!r} task "
                    f"preset (got --tasks {args.tasks})"
                )
            handle = handles[preset]
            query = _build_query(
                args.query_kind, handle, handle.task.key.parts, args.flow
            )

        print(f"fabric: {topology.describe()}")
        for name, fh in handles.items():
            merge = "mergeable" if fh.mergeable else "single-host"
            print(
                f"  {name}: task {fh.task_id} -> {', '.join(fh.hosts)} "
                f"({fh.layer} layer, {merge})"
            )
        if args.fabric_command == "status":
            status = fabric.status()
            if args.json:
                print(json.dumps(status, indent=2, default=str))
            else:
                print(f"status: {status['status']}")
                for name, health in status["members"].items():
                    print(f"  {name}: {health['status']}")
            return 0

        if telemetry_path is not None:
            telemetry.reset()
            telemetry.enable()
        trace = _fabric_trace(args, topology)
        for sealed in ServiceRunner(fabric, trace, args.chunk):
            print(_epoch_line(sealed, merged=True), flush=True)

        if query is not None:
            try:
                result = fabric.query(query, epoch=args.epoch)
            except (StaleEpochError, UnsupportedQueryError) as exc:
                raise CliError(exc.args[0] if exc.args else exc)
            if isinstance(result, (set, frozenset)):
                for f in sorted(result):
                    print(f"  {_format_flow(f)}")
                print(f"{args.query_kind}: {len(result)} flows")
            else:
                print(f"{args.query_kind}: {result}")

        stats = fabric.stats()
        print(
            f"fabric served {stats['packets_total']} packets across "
            f"{stats['epoch']} epochs on {stats['switches']} switches"
        )
        if getattr(args, "status_out", None) is not None:
            _write_json(args.status_out, fabric.status(), atomic=True)
            print(f"status -> {args.status_out}")
        if telemetry_path is not None:
            snapshot = telemetry.write_artifact(
                telemetry_path, meta={"command": "fabric"}
            )
            print(
                f"telemetry: {len(snapshot['events'])} events -> "
                f"{telemetry_path}"
            )
    finally:
        fabric.stop()
        if telemetry_path is not None:
            telemetry.disable()
    return 0


def cmd_demo() -> int:
    import runpy
    from pathlib import Path

    quickstart = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if quickstart.exists():
        runpy.run_path(str(quickstart), run_name="__main__")
        return 0
    print("examples/quickstart.py not found next to the package", file=sys.stderr)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    from repro.traffic.batch import env_batch_size

    args = build_parser().parse_args(argv)
    try:
        env_batch_size()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _dispatch(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "list-algorithms":
        return cmd_list_algorithms()
    if args.command == "list-experiments":
        return cmd_list_experiments()
    if args.command == "run":
        return cmd_run(
            args.experiment, args.full, args.telemetry, args.batch_size
        )
    if args.command == "stats":
        return cmd_stats(args.experiment, args.input, args.format)
    if args.command == "report":
        return cmd_report(args.output, args.fast_only)
    if args.command == "verify":
        return cmd_verify(args.rounds, args.seed)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "top":
        return cmd_top(args)
    if args.command == "bench-compare":
        return cmd_bench_compare(args)
    if args.command == "query":
        return cmd_query(args)
    if args.command == "recover":
        return cmd_recover(args)
    if args.command == "fabric":
        return cmd_fabric(args)
    if args.command == "demo":
        return cmd_demo()
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
