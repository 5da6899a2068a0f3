"""Command-line interface: explore algorithms and regenerate experiments.

Usage::

    python -m repro list-algorithms
    python -m repro list-experiments
    python -m repro run <experiment> [--full] [--telemetry PATH]
    python -m repro stats [--experiment NAME | --input PATH] [--format FMT]
    python -m repro profile [--workers N] [--trace-out PATH]
    python -m repro top [--workers N]
    python -m repro bench-compare [--update-baseline]
    python -m repro demo

``run`` accepts the experiment names printed by ``list-experiments``
(e.g. ``fig13`` or ``table3``) and prints the paper-style rows.  With
``--telemetry PATH`` the run executes with telemetry enabled and dumps the
full control-plane event log plus a metrics snapshot to ``PATH`` as JSON.
``stats`` renders such an artifact (or produces a fresh one by running an
experiment) as a summary, Prometheus text, or JSON.
"""

from __future__ import annotations

import argparse
import importlib
import os
import signal
import sys
from typing import List, Optional


class GracefulShutdown(Exception):
    """Raised by the ``repro serve`` SIGTERM handler to unwind ingestion.

    Riding an exception through the ingest loop funnels the signal into the
    same cleanup path as a completed trace: wall-clock sealers stop, the
    ragged tail window seals, the WAL flushes through its close-time
    reattach, and the shard pool shuts down -- instead of the default
    handler killing the process mid-epoch.
    """

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
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard trace replays over N parallel datapath workers "
        "(default: FLYMON_WORKERS or 1). Worker register state is merged "
        "exactly, so results stay bit-identical to a sequential replay",
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
    source = serve.add_mutually_exclusive_group()
    source.add_argument(
        "--input",
        metavar="PATH",
        default=None,
        help="replay a .npz trace written by Trace.save",
    )
    source.add_argument(
        "--generator",
        choices=("zipf", "uniform", "ddos", "superspreader", "portscan"),
        default="zipf",
        help="synthesize the input trace (default: zipf)",
    )
    serve.add_argument("--packets", type=int, default=100_000, metavar="N")
    serve.add_argument("--flows", type=int, default=5_000, metavar="N")
    serve.add_argument("--seed", type=int, default=1, metavar="N")
    rotation = serve.add_mutually_exclusive_group()
    rotation.add_argument(
        "--epoch-size",
        type=int,
        default=None,
        metavar="N",
        help="rotate epochs every N packets (default: packets/20)",
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
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard ingestion over N parallel datapath workers",
    )
    serve.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="vectorized-engine chunk size (0 forces the scalar path)",
    )
    serve.add_argument(
        "--chunk", type=int, default=32_768, metavar="N",
        help="ingest the trace in chunks of N packets (default: 32768)",
    )
    serve.add_argument(
        "--tasks",
        default="hh,card",
        metavar="LIST",
        help="comma list of task presets: hh, card, entropy, existence, "
        "interarrival (default: hh,card)",
    )
    serve.add_argument(
        "--threshold", type=int, default=100, metavar="N",
        help="heavy-hitter alarm threshold for the hh preset (default: 100)",
    )
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
        help="append a crash-consistent write-ahead log (JSON lines) that "
        "`repro recover` replays after a crash; a directory (with "
        "--wal-segment-seals/--wal-segment-bytes) enables segmentation",
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
        "batch: one sharded trace replay (default: stream)",
    )
    psource = profile.add_mutually_exclusive_group()
    psource.add_argument(
        "--input", metavar="PATH", default=None,
        help="replay a .npz trace written by Trace.save",
    )
    psource.add_argument(
        "--generator",
        choices=("zipf", "uniform", "ddos", "superspreader", "portscan"),
        default="zipf",
    )
    profile.add_argument("--packets", type=int, default=100_000, metavar="N")
    profile.add_argument("--flows", type=int, default=5_000, metavar="N")
    profile.add_argument("--seed", type=int, default=1, metavar="N")
    profile.add_argument(
        "--epoch-size", type=int, default=None, metavar="N",
        help="stream workload: rotate every N packets (default: packets/20)",
    )
    profile.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard the datapath over N parallel workers",
    )
    profile.add_argument(
        "--batch-size", type=int, default=None, metavar="N"
    )
    profile.add_argument(
        "--chunk", type=int, default=32_768, metavar="N",
        help="stream workload: ingest chunk size (default: 32768)",
    )
    profile.add_argument(
        "--tasks", default="hh,card", metavar="LIST",
        help="task presets, as for `repro serve` (default: hh,card)",
    )
    profile.add_argument("--threshold", type=int, default=100, metavar="N")
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
        help="run the streaming service with a live refreshing dashboard: "
        "pps, epoch seal ms, shard utilization, watcher fires",
    )
    tsource = top.add_mutually_exclusive_group()
    tsource.add_argument("--input", metavar="PATH", default=None)
    tsource.add_argument(
        "--generator",
        choices=("zipf", "uniform", "ddos", "superspreader", "portscan"),
        default="zipf",
    )
    top.add_argument("--packets", type=int, default=200_000, metavar="N")
    top.add_argument("--flows", type=int, default=5_000, metavar="N")
    top.add_argument("--seed", type=int, default=1, metavar="N")
    top.add_argument("--epoch-size", type=int, default=None, metavar="N")
    top.add_argument("--workers", type=int, default=1, metavar="N")
    top.add_argument("--batch-size", type=int, default=None, metavar="N")
    top.add_argument(
        "--chunk", type=int, default=16_384, metavar="N",
        help="dashboard refresh granularity in packets (default: 16384)",
    )
    top.add_argument("--tasks", default="hh,card", metavar="LIST")
    top.add_argument("--threshold", type=int, default=100, metavar="N")
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
    query.add_argument(
        "--flow",
        default=None,
        metavar="KEY",
        help="flow key for point queries: comma-separated fields, each a "
        "dotted quad or integer (e.g. 10.0.0.7 or 10.0.0.7,443)",
    )
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
        p.add_argument(
            "--tasks",
            default="hh,card",
            metavar="LIST",
            help="comma list of task presets: hh, card, entropy, existence, "
            "interarrival (default: hh,card)",
        )
        p.add_argument("--threshold", type=int, default=100, metavar="N")

    def fabric_traffic(p):
        p.add_argument(
            "--input", metavar="PATH", default=None,
            help="replay a .npz trace (default: synthesize per-edge zipf)",
        )
        p.add_argument("--packets", type=int, default=40_000, metavar="N")
        p.add_argument("--flows", type=int, default=2_000, metavar="N")
        p.add_argument("--seed", type=int, default=1, metavar="N")
        p.add_argument(
            "--epoch-size", type=int, default=None, metavar="N",
            help="fabric barrier every N packets (default: packets/8)",
        )
        p.add_argument("--chunk", type=int, default=16_384, metavar="N")

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
    fquery.add_argument("--flow", default=None, metavar="KEY")
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
    workers: Optional[int] = None,
) -> int:
    if batch_size is not None:
        # Experiment drivers read FLYMON_BATCH_SIZE via
        # repro.experiments.common.default_batch_size.
        os.environ["FLYMON_BATCH_SIZE"] = str(batch_size)
    if workers is not None:
        # Experiment drivers read FLYMON_WORKERS via
        # repro.experiments.common.default_workers.
        os.environ["FLYMON_WORKERS"] = str(workers)
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


def _serve_tasks(names: List[str], threshold: int):
    """Instantiate the ``repro serve`` task presets, in request order."""
    from repro.core.task import AttributeSpec, MeasurementTask
    from repro.traffic.flows import KEY_5TUPLE, KEY_SRC_IP

    presets = {
        "hh": lambda: MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=4096,
            depth=3,
            algorithm="cms",
            threshold=threshold,
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
    for name in names:
        if name not in presets:
            raise ValueError(
                f"unknown task preset {name!r} (choose from {sorted(presets)})"
            )
        out.append((name, presets[name]()))
    return out


def _load_serve_trace(args):
    from repro.traffic import (
        ddos_trace,
        portscan_trace,
        superspreader_trace,
        uniform_trace,
        zipf_trace,
    )
    from repro.traffic.trace import Trace

    if args.input is not None:
        return Trace.load(args.input)
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


def cmd_serve(args) -> int:
    import json
    import time

    from repro import telemetry
    from repro.core.controller import FlyMonController
    from repro.service import (
        CardinalityQuery,
        EntropyQuery,
        HeavyHitterQuery,
        MeasurementService,
        TaskRef,
        Watcher,
        cardinality_metric,
        fill_factor_metric,
        resize_action,
        service_checkpoint,
    )

    try:
        trace = _load_serve_trace(args)
    except FileNotFoundError:
        print(f"error: no trace at {args.input}", file=sys.stderr)
        return 2
    epoch_packets = args.epoch_size
    epoch_duration_us = args.epoch_us
    epoch_wall_ms = args.epoch_wall_ms
    if epoch_packets is None and epoch_duration_us is None and epoch_wall_ms is None:
        epoch_packets = max(1, len(trace) // 20)

    if args.telemetry is not None:
        telemetry.reset()
        telemetry.enable()
    controller = None
    try:
        controller = FlyMonController(num_groups=3)
        try:
            named = _serve_tasks(
                [n.strip() for n in args.tasks.split(",") if n.strip()],
                args.threshold,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        from repro.core.controller import PlacementError

        try:
            refs = {
                name: TaskRef(controller.add_task(task)) for name, task in named
            }
        except PlacementError as exc:
            print(
                f"error: cannot place the requested task mix "
                f"({args.tasks}): {exc}",
                file=sys.stderr,
            )
            return 2
        service = MeasurementService(
            controller,
            epoch_packets=epoch_packets,
            epoch_duration_us=epoch_duration_us,
            epoch_wall_ms=epoch_wall_ms,
            retain=args.retain,
            workers=args.workers,
            batch_size=args.batch_size,
            max_stall_ms=getattr(args, "max_stall_ms", None),
        )
        if "hh" in refs:
            service.register_series("heavy_hitters", HeavyHitterQuery(refs["hh"]))
        if "card" in refs:
            service.register_series("cardinality", CardinalityQuery(refs["card"]))
        if "entropy" in refs:
            service.register_series("entropy", EntropyQuery(refs["entropy"]))
        if args.watch_fill is not None:
            if "hh" not in refs:
                print("error: --watch-fill needs the hh task", file=sys.stderr)
                return 2
            service.add_watcher(
                Watcher(
                    "fill_factor",
                    fill_factor_metric(refs["hh"]),
                    above=args.watch_fill,
                    action=resize_action(refs["hh"]),
                    cooldown_epochs=1,
                )
            )
        if args.watch_cardinality is not None:
            if "card" not in refs:
                print(
                    "error: --watch-cardinality needs the card task",
                    file=sys.stderr,
                )
                return 2
            service.add_watcher(
                Watcher(
                    "cardinality_spike",
                    cardinality_metric(refs["card"]),
                    above=args.watch_cardinality,
                )
            )

        wal = None
        if args.wal is not None:
            from repro.service.wal import ServiceWal, WalError

            try:
                wal = ServiceWal(
                    args.wal,
                    segment_seals=getattr(args, "wal_segment_seals", None),
                    segment_bytes=getattr(args, "wal_segment_bytes", None),
                    policy=getattr(args, "wal_policy", "fail"),
                    resume=bool(getattr(args, "wal_force", False)),
                ).attach(service)
            except WalError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2

        health_out = getattr(args, "health_out", None)

        def write_health() -> None:
            if health_out is None:
                return
            payload = service.health()
            payload["time"] = time.time()
            if wal is not None:
                payload["wal"] = wal.status()
            tmp = health_out + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, health_out)

        def print_epoch(sealed) -> None:
            fired = [e for e in sealed.watcher_events if e.fired]
            line = (
                f"epoch {sealed.index:>3}: {sealed.packets:>7} pkts "
                f"sealed in {sealed.seal_ms:6.2f} ms"
            )
            for name in sorted(sealed.outputs):
                value = sealed.outputs[name]
                if isinstance(value, float):
                    line += f"  {name}={value:.1f}"
                elif isinstance(value, (set, frozenset, list)):
                    line += f"  {name}={len(value)}"
                else:
                    line += f"  {name}={value}"
            if fired:
                line += "  [" + ", ".join(
                    f"{e.watcher}->{e.outcome or 'fired'}" for e in fired
                ) + "]"
            print(line, flush=True)

        from repro.traffic.packet import PACKET_FIELDS
        from repro.traffic.trace import Trace

        from repro.service.wal import WalWriteError

        last_printed = -1
        halted = None
        terminated = False

        def _on_sigterm(signum, frame):
            raise GracefulShutdown()

        try:
            prev_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:  # not the main thread (embedded use)
            prev_sigterm = None
        if epoch_wall_ms is not None:
            service.start()
        try:
            chunk = max(1, args.chunk)
            for start in range(0, len(trace), chunk):
                piece = Trace(
                    {f: trace.columns[f][start : start + chunk] for f in PACKET_FIELDS}
                )
                for sealed in service.ingest(piece):
                    # Bump before printing so a SIGTERM landing inside the
                    # print cannot double-report the epoch from the
                    # shutdown catch-up loop below.
                    last_printed = sealed.index
                    print_epoch(sealed)
                # Wall-clock epochs seal on the background thread; report
                # any that landed while this chunk was processing.
                for sealed in list(service.epochs):
                    if sealed.index > last_printed:
                        last_printed = sealed.index
                        print_epoch(sealed)
                write_health()
        except WalWriteError as exc:
            # --wal-policy fail: storage refused a write.  Stop ingest
            # cleanly -- every epoch sealed so far is intact and durable.
            halted = exc
        except GracefulShutdown:
            # SIGTERM: stop ingesting, but run the full shutdown path --
            # seal the tail, flush the WAL, close the shard pool.
            terminated = True
        finally:
            if prev_sigterm is not None:
                signal.signal(signal.SIGTERM, prev_sigterm)
            if epoch_wall_ms is not None:
                service.stop(seal_tail=halted is None)
            elif service._epoch_fill and halted is None:
                service.rotate()  # seal the ragged tail window
            for sealed in list(service.epochs):
                if sealed.index > last_printed:
                    print_epoch(sealed)
                    last_printed = sealed.index
            write_health()

        if halted is not None:
            stats = service.stats()
            print(
                f"error: {halted}\n"
                f"served {stats['packets_total']} packets across "
                f"{stats['epoch']} epochs before the WAL failure; the log "
                "is recoverable up to the last sealed epoch",
                file=sys.stderr,
            )
            if wal is not None:
                wal.close()
            return 1

        stats = service.stats()
        if terminated:
            print(
                "sigterm: sealed the open window and flushed state before "
                "exit", flush=True
            )
        print(
            f"served {stats['packets_total']} packets across {stats['epoch']} "
            f"epochs ({stats['sealed_epochs']} retained), workers={args.workers}"
        )
        if args.checkpoint is not None:
            artifact = service_checkpoint(service)
            with open(args.checkpoint, "w") as fh:
                json.dump(artifact, fh)
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
        if controller is not None:
            controller.close_shard_pool()
        if args.telemetry is not None:
            telemetry.disable()
    return 0


def _build_stream_workload(args):
    """Controller + service + trace for the profile/top stream workloads."""
    from repro.core.controller import FlyMonController, PlacementError
    from repro.service import (
        CardinalityQuery,
        HeavyHitterQuery,
        MeasurementService,
        TaskRef,
    )

    trace = _load_serve_trace(args)
    controller = FlyMonController(num_groups=3)
    named = _serve_tasks(
        [n.strip() for n in args.tasks.split(",") if n.strip()], args.threshold
    )
    try:
        refs = {
            name: TaskRef(controller.add_task(task)) for name, task in named
        }
    except PlacementError as exc:
        raise ValueError(f"cannot place the task mix ({args.tasks}): {exc}")
    epoch_packets = args.epoch_size
    if epoch_packets is None:
        epoch_packets = max(1, len(trace) // 20)
    service = MeasurementService(
        controller,
        epoch_packets=epoch_packets,
        retain=16,
        workers=args.workers,
        batch_size=args.batch_size,
    )
    if "hh" in refs:
        service.register_series("heavy_hitters", HeavyHitterQuery(refs["hh"]))
    if "card" in refs:
        service.register_series("cardinality", CardinalityQuery(refs["card"]))
    return trace, controller, service, refs


def _iter_chunks(trace, chunk: int):
    from repro.traffic.packet import PACKET_FIELDS
    from repro.traffic.trace import Trace

    for start in range(0, len(trace), chunk):
        yield Trace(
            {f: trace.columns[f][start : start + chunk] for f in PACKET_FIELDS}
        )


def cmd_profile(args) -> int:
    import json
    import time

    from repro import telemetry

    recorder = telemetry.RECORDER
    recorder.clear()
    telemetry.enable_recorder(capacity=args.capacity)
    try:
        if args.workload == "batch":
            from repro.core.controller import FlyMonController, PlacementError

            trace = _load_serve_trace(args)
            controller = FlyMonController(num_groups=3)
            try:
                for _name, task in _serve_tasks(
                    [n.strip() for n in args.tasks.split(",") if n.strip()],
                    args.threshold,
                ):
                    controller.add_task(task)
            except (ValueError, PlacementError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            t0 = time.perf_counter()
            report = controller.process_trace_sharded(
                trace,
                max(1, args.workers),
                batch_size=args.batch_size,
            )
            controller.close_shard_pool()
            wall_ms = (time.perf_counter() - t0) * 1e3
            backend = report.backend
        else:
            try:
                trace, _controller, service, _refs = _build_stream_workload(args)
            except (ValueError, FileNotFoundError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            t0 = time.perf_counter()
            for piece in _iter_chunks(trace, max(1, args.chunk)):
                service.ingest(piece)
            if service._epoch_fill:
                service.rotate()  # seal the ragged tail window
            wall_ms = (time.perf_counter() - t0) * 1e3
            report = service.last_shard_report
            backend = report.backend if report is not None else "batched"
            _controller.close_shard_pool()
    finally:
        telemetry.disable_recorder()

    spans = recorder.spans
    root = telemetry.aggregate_spans(spans)
    print(
        f"workload={args.workload} packets={len(trace)} "
        f"workers={args.workers} backend={backend} spans={len(spans)}"
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
                "workers": args.workers,
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


def _top_frame(args, service, done: int, total: int, elapsed_s: float) -> str:
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
    report = service.last_shard_report
    if report is not None and report.shard_timings:
        lines.append(
            f"shards   backend={report.backend} workers={report.workers}"
            f"   retries={report.retries} timeouts={report.timeouts}"
        )
        for timing in report.shard_timings:
            dispatch = timing["dispatch_ms"] or 0.0
            busy = (
                100.0 * timing["compute_ms"] / dispatch if dispatch > 0 else 0.0
            )
            bar = "#" * max(0, min(20, int(busy / 5.0)))
            lines.append(
                f"  shard {timing['shard']}: busy {busy:5.1f}% [{bar:<20}] "
                f"compute {timing['compute_ms']:6.2f} ms  "
                f"build {timing['build_ms']:5.2f} ms  "
                f"transport {timing['transport_ms']:6.2f} ms"
                + ("  RETRIED" if timing["retried"] else "")
            )
    else:
        lines.append(f"shards   (single pipeline, workers={stats['workers']})")
    return "\n".join(lines)


def cmd_top(args) -> int:
    import time

    from repro.service import Watcher, fill_factor_metric, resize_action

    try:
        trace, _controller, service, refs = _build_stream_workload(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.watch_fill is not None:
        if "hh" not in refs:
            print("error: --watch-fill needs the hh task", file=sys.stderr)
            return 2
        service.add_watcher(
            Watcher(
                "fill_factor",
                fill_factor_metric(refs["hh"]),
                above=args.watch_fill,
                action=resize_action(refs["hh"]),
                cooldown_epochs=1,
            )
        )

    clear = not args.no_clear and sys.stdout.isatty()
    total = len(trace)
    done = 0
    t0 = time.perf_counter()
    for piece in _iter_chunks(trace, max(1, args.chunk)):
        service.ingest(piece)
        done += len(piece)
        frame = _top_frame(args, service, done, total, time.perf_counter() - t0)
        if clear:
            print("\x1b[2J\x1b[H" + frame, flush=True)
        else:
            print(frame + "\n", flush=True)
    if service._epoch_fill:
        service.rotate()
    frame = _top_frame(args, service, done, total, time.perf_counter() - t0)
    if clear:
        print("\x1b[2J\x1b[H" + frame, flush=True)
    else:
        print(frame, flush=True)
    stats = service.stats()
    print(
        f"\nserved {stats['packets_total']:,} packets across "
        f"{stats['epoch']} epochs; datapath time "
        f"{stats['ingest_ms_total'] / 1e3:.2f} s"
    )
    _controller.close_shard_pool()
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


def _parse_flow(spec: str) -> tuple:
    def part(p: str) -> int:
        p = p.strip()
        if p.count(".") == 3:
            a, b, c, d = (int(x) for x in p.split("."))
            return (a << 24) | (b << 16) | (c << 8) | d
        return int(p, 0)

    return tuple(part(p) for p in spec.split(","))


def _format_flow(flow) -> str:
    def fmt(v: int) -> str:
        if v > 0xFFFF:  # render plausible addresses as dotted quads
            return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"
        return str(v)

    return ",".join(fmt(int(v)) for v in flow)


def cmd_query(args) -> int:
    import json

    from repro.service import (
        CardinalityQuery,
        EntropyQuery,
        ExistenceQuery,
        FrequencyQuery,
        HeavyHitterQuery,
        InterArrivalQuery,
        StaleEpochError,
        UnsupportedQueryError,
        load_service_state,
    )

    try:
        with open(args.input) as fh:
            artifact = json.load(fh)
    except FileNotFoundError:
        print(f"error: no artifact at {args.input}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.input} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        restored = load_service_state(artifact)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
        name = args.series
        if name is None:
            print("error: --query series needs --series NAME", file=sys.stderr)
            return 2
        try:
            for index, value in restored.series(name):
                print(f"{index:>4}  {value}")
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        return 0

    try:
        handle = restored.tasks[args.task]
    except IndexError:
        print(
            f"error: no task index {args.task} (artifact has "
            f"{len(restored.tasks)})",
            file=sys.stderr,
        )
        return 2
    needs_flow = args.query_kind in ("frequency", "existence", "interarrival")
    flow = None
    if needs_flow:
        if args.flow is None:
            print(
                f"error: --query {args.query_kind} needs --flow",
                file=sys.stderr,
            )
            return 2
        flow = _parse_flow(args.flow)
    queries = {
        "cardinality": lambda: CardinalityQuery(handle),
        "entropy": lambda: EntropyQuery(handle),
        "heavy-hitters": lambda: HeavyHitterQuery(handle, threshold=args.threshold),
        "frequency": lambda: FrequencyQuery(handle, flow),
        "existence": lambda: ExistenceQuery(handle, flow),
        "interarrival": lambda: InterArrivalQuery(handle, flow),
    }
    try:
        result = restored.query(queries[args.query_kind](), epoch=args.epoch)
    except (StaleEpochError, UnsupportedQueryError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    if isinstance(result, (set, frozenset)):
        print(f"{len(result)} heavy hitter(s)")
        for item in sorted(result):
            print(f"  {_format_flow(item)}")
    else:
        print(result)
    return 0


def cmd_recover(args) -> int:
    import json

    from repro.service.wal import WalError, recover_service_artifact

    try:
        artifact = recover_service_artifact(args.wal)
    except FileNotFoundError:
        print(f"error: no WAL at {args.wal}", file=sys.stderr)
        return 2
    except WalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        with open(args.output, "w") as fh:
            json.dump(artifact, fh)
        print(f"artifact -> {args.output}")
    return 0


def _fabric_topology(args):
    from repro.fabric import FabricTopology

    if getattr(args, "topology", None):
        return FabricTopology.load(args.topology)
    return FabricTopology.preset(args.switches)


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


def _fabric_build(args):
    """Topology + fabric service + deployed task presets."""
    from repro.fabric import FabricPlacementError, FabricService

    topology = _fabric_topology(args)
    epoch_size = getattr(args, "epoch_size", None)
    if epoch_size is None:
        epoch_size = max(1, getattr(args, "packets", 40_000) // 8)
    fabric = FabricService(topology, epoch_packets=epoch_size)
    named = _serve_tasks(
        [n.strip() for n in args.tasks.split(",") if n.strip()],
        args.threshold,
    )
    handles = {}
    for name, task in named:
        try:
            handles[name] = fabric.deploy(task)
        except FabricPlacementError as exc:
            print(f"error: cannot place {name!r}: {exc}", file=sys.stderr)
            raise
    return topology, fabric, handles


def _print_placements(handles) -> None:
    for name, fh in handles.items():
        merge = "mergeable" if fh.mergeable else "single-host"
        print(
            f"  {name}: task {fh.task_id} -> {', '.join(fh.hosts)} "
            f"({fh.layer} layer, {merge})"
        )


def cmd_fabric(args) -> int:
    import json

    from repro import telemetry
    from repro.service import (
        CardinalityQuery,
        EntropyQuery,
        ExistenceQuery,
        FrequencyQuery,
        HeavyHitterQuery,
    )
    from repro.traffic.packet import PACKET_FIELDS
    from repro.traffic.trace import Trace

    try:
        topology, fabric, handles = _fabric_build(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"fabric: {topology.describe()}")
    _print_placements(handles)

    if args.fabric_command == "status":
        status = fabric.status()
        if args.json:
            print(json.dumps(status, indent=2, default=str))
        else:
            print(f"status: {status['status']}")
            for name, health in status["members"].items():
                print(f"  {name}: {health['status']}")
        fabric.stop()
        return 0

    if getattr(args, "telemetry", None) is not None:
        telemetry.reset()
        telemetry.enable()
    try:
        if args.fabric_command == "serve":
            if "hh" in handles:
                fabric.register_series(
                    "heavy_hitters", HeavyHitterQuery(handles["hh"])
                )
            if "card" in handles:
                fabric.register_series(
                    "cardinality", CardinalityQuery(handles["card"])
                )
            if "entropy" in handles:
                fabric.register_series("entropy", EntropyQuery(handles["entropy"]))

        trace = _fabric_trace(args, topology)

        def print_epoch(sealed) -> None:
            line = f"epoch {sealed.index:>3}: {sealed.packets:>7} pkts merged"
            for name in sorted(sealed.outputs):
                value = sealed.outputs[name]
                if isinstance(value, float):
                    line += f"  {name}={value:.1f}"
                elif isinstance(value, (set, frozenset, list)):
                    line += f"  {name}={len(value)}"
                else:
                    line += f"  {name}={value}"
            degraded = getattr(sealed, "degraded", None)
            if degraded:
                line += f"  [degraded: {', '.join(degraded)}]"
            print(line, flush=True)

        chunk = max(1, args.chunk)
        for start in range(0, len(trace), chunk):
            piece = Trace(
                {f: trace.columns[f][start : start + chunk] for f in PACKET_FIELDS}
            )
            for sealed in fabric.ingest(piece):
                print_epoch(sealed)
        if fabric._epoch_fill:
            print_epoch(fabric.rotate())

        if args.fabric_command == "query":
            kind = args.query_kind
            flow = _parse_flow(args.flow) if args.flow else None
            if kind in ("frequency", "existence") and flow is None:
                print(f"error: --query {kind} needs --flow", file=sys.stderr)
                return 2
            targets = {
                "frequency": ("hh", lambda h: FrequencyQuery(h, flow)),
                "heavy-hitters": ("hh", lambda h: HeavyHitterQuery(h)),
                "cardinality": ("card", CardinalityQuery),
                "entropy": ("entropy", EntropyQuery),
                "existence": ("existence", lambda h: ExistenceQuery(h, flow)),
            }
            preset, make = targets[kind]
            if preset not in handles:
                print(
                    f"error: --query {kind} needs the {preset!r} task preset "
                    f"(got --tasks {args.tasks})",
                    file=sys.stderr,
                )
                return 2
            result = fabric.query(make(handles[preset]), epoch=args.epoch)
            if isinstance(result, (set, frozenset)):
                for f in sorted(result):
                    print(f"  {_format_flow(f)}")
                print(f"{kind}: {len(result)} flows")
            else:
                print(f"{kind}: {result}")

        stats = fabric.stats()
        print(
            f"fabric served {stats['packets_total']} packets across "
            f"{stats['epoch']} epochs on {stats['switches']} switches"
        )
        if getattr(args, "status_out", None) is not None:
            tmp = args.status_out + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(fabric.status(), fh, default=str)
            os.replace(tmp, args.status_out)
            print(f"status -> {args.status_out}")
        if getattr(args, "telemetry", None) is not None:
            snapshot = telemetry.write_artifact(
                args.telemetry, meta={"command": "fabric"}
            )
            print(
                f"telemetry: {len(snapshot['events'])} events -> {args.telemetry}"
            )
    finally:
        fabric.stop()
        if getattr(args, "telemetry", None) is not None:
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
    if args.command == "list-algorithms":
        return cmd_list_algorithms()
    if args.command == "list-experiments":
        return cmd_list_experiments()
    if args.command == "run":
        return cmd_run(
            args.experiment, args.full, args.telemetry, args.batch_size, args.workers
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
