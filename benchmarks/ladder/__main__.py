"""``python -m benchmarks.ladder {run,trace,compare,bench}`` (from the repo root).

``bench`` is the contract entry ``BENCHMARK.json`` names (through
``run.py``): one workload, in this process, result as the last line of
standard output.  ``run`` and ``trace`` start one ``bench`` child per
workload -- a clean ``peak_rss_mb`` and clean task-id counters each -- and
print and save what the children report.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import checks, stats
from .layers import BUDGET_LAYERS, UNATTRIBUTED
from .workloads import WORKLOADS

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
DEFAULT_SEED = 2026
QUICK_STAMP = "quick: not comparable"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ladder", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="one workload in this process; last stdout line is the result JSON")
    bench.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench.add_argument("--seconds", type=float, default=None, help="measured time (default: run_seconds of BENCHMARK.json)")
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    bench.add_argument("--quick", action="store_true")
    bench.add_argument("--detail", metavar="PATH", default=None, help="also write the detailed result as JSON")

    for name, text in (("run", "every workload, end-to-end metrics"), ("trace", "every workload, per-layer budget")):
        every = sub.add_parser(name, help=text)
        every.add_argument("--seed", type=int, default=DEFAULT_SEED)
        every.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="only this one (repeatable)")
        every.add_argument("--quick", action="store_true", help=f"50k packets, 2 repetitions ({QUICK_STAMP})")
        every.add_argument("--seconds", type=float, default=None)
        every.add_argument("--out", metavar="PATH", default=None, help="result file (default: benchmarks/results/)")

    compare = sub.add_parser("compare", help="apply BENCHMARK.json's bounds to two `run` result files")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


# -- bench: the contract entry ------------------------------------------


def _print_summary(result: Dict[str, object]) -> None:
    stamp = f"  [{QUICK_STAMP}]" if result["quick"] else ""
    print(f"workload {result['workload']}  seed {result['seed']}  reps {result['reps']}{stamp}")
    print(f"  trace_sha256  {result['trace_sha256']}")
    print(f"  sealed_sha256 {result['sealed_sha256']}")
    provenance = result["provenance"]
    print(
        f"  machine: nproc={provenance['nproc']} python={provenance['python']} {provenance['machine']} "
        f"git={provenance['git_sha']} wal_fs={provenance['wal_fs_type']}"
    )
    print(f"  {'metric':<24}{'unit':<11}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for name, m in result["metrics"].items():
        print(f"  {name:<24}{m['unit']:<11}{m['median']:>14.6g}{m['q1']:>14.6g}{m['q3']:>14.6g}{m['n']:>4}")
    print(
        f"  failed_ops_ratio        ratio      {result['failed_ops_ratio']:>14.6g}"
        f"   ({result['failed']} of {result['attempted']} operations; {result['failures'] or 'none'})"
    )
    if result["trace"]:
        for name, m in result["layers"]["metrics"].items():
            print(f"  {name:<42}{m['unit']:<11}{m['value']:>16.6g}")
    if result["problems"]:
        print(checks.format_problems(result["problems"]))


def cmd_bench(args) -> int:
    from . import harness  # imports the program; stays out of `compare`

    seconds = args.seconds
    if seconds is None:
        seconds = float(stats.load_declared()["run_seconds"])
    result = harness.run_workload(args.workload, args.seed, seconds, trace=bool(args.trace), quick=args.quick)
    _print_summary(result)
    if args.detail:
        Path(args.detail).write_text(json.dumps(result, indent=1, default=float) + "\n")
    if args.trace:
        metrics = result["layers"]["metrics"]
    else:
        metrics = {name: {"value": m["median"], "unit": m["unit"]} for name, m in result["metrics"].items()}
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


# -- run / trace: one child per workload --------------------------------


def _child(workload: str, args, trace: bool, detail: Path) -> Optional[Dict[str, object]]:
    command = [
        sys.executable, "-m", "benchmarks.ladder", "bench",
        "--workload", workload, "--seed", str(args.seed), "--trace", str(int(trace)), "--detail", str(detail),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
    if not detail.exists():
        print(f"  {workload}: no result (exit {done.returncode})")
        return None
    result = json.loads(detail.read_text())
    detail.unlink()
    return result


def _budget_table(results: Dict[str, Dict[str, object]]) -> str:
    names = list(results)
    width = max(14, *(len(n) + 2 for n in names))
    lines = ["self time, ns/packet (rows sum to 1e9 / ingest_pps of the traced repetition)"]
    lines.append(f"{'layer':<24}" + "".join(f"{n:>{width}}" for n in names))
    for layer in (*BUDGET_LAYERS, UNATTRIBUTED):
        cells = "".join(f"{results[n]['layers']['budget_ns_per_packet'][layer]:>{width}.1f}" for n in names)
        lines.append(f"{layer:<24}{cells}")
    totals = "".join(f"{results[n]['layers']['budget_total_ns_per_packet']:>{width}.1f}" for n in names)
    lines.append(f"{'= root span':<24}{totals}")
    for metric in ("harness.unattributed_pct", "harness.trace_overhead_pct"):
        cells = "".join(f"{results[n]['layers']['metrics'][metric]['value']:>{width}.2f}" for n in names)
        lines.append(f"{metric:<24}{cells}")
    return "\n".join(lines)


def cmd_every(args, trace: bool) -> int:
    started = time.time()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    names = args.workload or list(WORKLOADS)
    results: Dict[str, Dict[str, object]] = {}
    problems: List[str] = []
    for name in names:
        result = _child(name, args, trace, RESULTS_DIR / f".ladder-{name}.json")
        if result is None:
            problems.append(f"{name}: produced no result")
            continue
        results[name] = result
        problems += [f"{name}: {p}" for p in result["problems"]]
    if {"steady_hh", "sharded_steady"} <= results.keys():
        problems += [
            f"sharded_steady: {p}"
            for p in checks.compare_equal(
                results["steady_hh"]["sealed_sha256"],
                results["sharded_steady"]["sealed_sha256"],
                "sealed-cell SHA-256 vs steady_hh",
            )
        ]
    kind = "trace" if trace else "run"
    payload = {
        "kind": kind,
        "seed": args.seed,
        "quick": args.quick,
        "stamp": QUICK_STAMP if args.quick else "",
        "wall_s": time.time() - started,
        "provenance": next(iter(results.values()))["provenance"] if results else {},
        "correct": not problems,
        "problems": problems,
        "workloads": results,
    }
    out = Path(args.out) if args.out else RESULTS_DIR / f"LADDER_{kind}_{args.seed}{'_quick' if args.quick else ''}.json"
    out.write_text(json.dumps(payload, indent=1, default=float) + "\n")
    if trace and results:
        print()
        print(_budget_table(results))
    print(f"\n{kind}: {len(results)}/{len(names)} workloads in {payload['wall_s']:.0f} s -> {out}")
    if args.quick:
        print(QUICK_STAMP)
    if problems:
        print(checks.format_problems(problems, limit=20))
        return 1
    return 0


def cmd_compare(args) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    for side in (a, b):
        if side.get("quick"):
            print(f"warning: a side is stamped '{QUICK_STAMP}'")
    rows = stats.compare_results(a, b, stats.load_declared())
    print(stats.format_comparison(rows))
    return 1 if stats.comparison_failed(rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "compare":
        return cmd_compare(args)
    return cmd_every(args, trace=args.command == "trace")


if __name__ == "__main__":
    sys.exit(main())
