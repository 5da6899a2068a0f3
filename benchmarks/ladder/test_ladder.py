"""Tests of the ladder itself, at ``--quick`` scale (50k packets, 2 reps).

Run with ``pytest benchmarks/ladder -q`` from the repo root.  Timings at
this scale mean nothing; what is pinned is the contract: names, units,
checks that can fail, spans that add up, and a comparison that tells a
regression from noise.
"""

import copy
import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.ladder import checks, stats  # noqa: E402
from benchmarks.ladder.__main__ import QUICK_STAMP  # noqa: E402
from benchmarks.ladder.spans import ROOT, Recorder, Target  # noqa: E402
from benchmarks.ladder.workloads import WORKLOADS, synthesize, trace_sha256  # noqa: E402

DECLARED = stats.load_declared()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: Workloads whose traced run the tests also make (one per kind of system,
#: plus the one with a WAL inside its timed region).
TRACED = ("steady_hh", "fast_rotate_wal", "fabric_4sw", "cli_serve")


def _bench(workload: str, trace: int, tmp: Path):
    detail = tmp / f"{workload}-{trace}.json"
    command = [
        sys.executable, str(REPO_ROOT / DECLARED["command"][1]),
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
        "--quick", "--detail", str(detail),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout, json.loads(done.stdout.splitlines()[-1]), json.loads(detail.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One quick end-to-end run per workload and a traced run of a few."""
    tmp = tmp_path_factory.mktemp("ladder")
    jobs = [(name, 0) for name in WORKLOADS] + [(name, 1) for name in TRACED]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: _bench(*job, tmp), jobs))
    return dict(zip(jobs, results))


def test_benchmark_json_is_consistent_with_the_workload_table():
    assert DECLARED["paths"] == ["benchmarks/ladder"]
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    for declared in DECLARED["workloads"]:
        assert declared["why"] == WORKLOADS[declared["name"]].why
        assert len(declared["why"]) <= 200 and "\n" not in declared["why"]
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_exactly_the_declared_end_to_end_metrics(runs, workload):
    stdout, line, detail = runs[(workload, 0)]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name
    assert QUICK_STAMP in stdout and detail["quick"] is True
    for key in ("seed", "trace_sha256", "reps", "provenance"):
        assert key in detail
    for key in ("cpu_count", "python", "git_sha", "nproc", "wal_fs_type"):
        assert key in detail["provenance"]


@pytest.mark.parametrize("workload", TRACED)
def test_traced_run_emits_exactly_the_declared_per_layer_metrics(runs, workload):
    _stdout, line, detail = runs[(workload, 1)]
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    assert line["correct"] is True
    assert "harness.trace_overhead_pct" in line["metrics"]
    # Self times plus the unattributed remainder are the root span.
    layers = detail["layers"]
    total = sum(layers["budget_ns_per_packet"].values())
    assert total == pytest.approx(layers["budget_total_ns_per_packet"], rel=0.01)
    assert layers["metrics"]["harness.unattributed_pct"]["value"] < 5.0


def test_layers_show_up_where_the_workload_puts_them(runs):
    value = lambda workload, name: runs[(workload, 1)][1]["metrics"][name]["value"]  # noqa: E731
    assert value("fast_rotate_wal", "wal.ns_per_packet") > 0
    assert value("steady_hh", "wal.ns_per_packet") == 0
    assert value("fabric_4sw", "fabric_merge.calls") > 0 and value("fabric_4sw", "fabric.vs_solo_ratio") > 0
    assert value("steady_hh", "fabric_merge.calls") == 0
    assert value("cli_serve", "cli.startup_s") > 0
    for workload in TRACED:
        assert value(workload, "register.rows") > 0


def test_sharded_sealed_cells_equal_steady(runs):
    steady, sharded = runs[("steady_hh", 0)][2], runs[("sharded_steady", 0)][2]
    assert steady["trace_sha256"] == sharded["trace_sha256"]
    assert steady["sealed_sha256"] == sharded["sealed_sha256"]


def test_traces_are_a_function_of_the_seed():
    spec = WORKLOADS["steady_hh"].quick()
    assert trace_sha256(synthesize(spec, 5)) == trace_sha256(synthesize(spec, 5))
    assert trace_sha256(synthesize(spec, 5)) != trace_sha256(synthesize(spec, 6))


def test_a_corrupted_register_fails_the_check():
    from benchmarks.ladder import adapter

    spec = WORKLOADS["steady_hh"].quick()
    scalar, batched = adapter.prefix_registers(spec, synthesize(spec, 3))
    assert checks.compare_registers(scalar, batched, "prefix") == []
    key = next(k for k, cells in batched.items() if cells.any())
    batched[key][int(batched[key].argmax())] += 1
    problems = checks.compare_registers(scalar, batched, "prefix")
    assert problems and str(key) in problems[0]


def test_a_missing_trace_target_fails_loudly():
    recorder = Recorder()
    with pytest.raises(LookupError, match="no_such_method"):
        recorder.install([Target("x", "benchmarks.ladder.spans:Recorder.no_such_method")])
    recorder.uninstall()


def test_self_times_sum_to_the_root_span():
    recorder = Recorder()

    class Layered:
        def outer(self, n):
            return sum(self.inner(i) for i in range(n))

        def inner(self, i):
            return sum(range(200 * (i + 1)))

        def batches(self, n):
            yield from range(n)

    import types

    module = types.ModuleType("ladder_test_layers")
    module.Layered = Layered
    sys.modules[module.__name__] = module
    try:
        recorder.install(
            [
                Target("outer", "ladder_test_layers:Layered.outer"),
                Target("inner", "ladder_test_layers:Layered.inner"),
                Target("gen", "ladder_test_layers:Layered.batches", generator=True),
            ]
        )
        with recorder.span(ROOT):
            Layered().outer(50)
            assert list(Layered().batches(4)) == [0, 1, 2, 3]
        recorder.uninstall()
        Layered().outer(3)  # passes straight through once uninstalled
    finally:
        del sys.modules[module.__name__]
    layers = recorder.layers
    assert layers["outer"].calls == 1 and layers["inner"].calls == 50 and layers["gen"].rows == 4
    assert sum(t.self_ns for t in layers.values()) == layers[ROOT].total_ns
    assert layers["outer"].self_ns == layers["outer"].total_ns - layers["inner"].total_ns


def test_summaries_and_supportable_tail():
    summary = stats.summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert summary["median"] == 3.0 and summary["n"] == 5 and summary["iqr"] > 0
    assert stats.supportable_percentile(19) is None
    assert stats.supportable_percentile(100) == pytest.approx(90.0)
    assert stats.supportable_percentile(5000) == 99.0
    assert stats.tail(range(1000))["percentile"] == 99.0
    assert stats.tail([5.0, 6.0])["percentile"] == 50.0


def _synthetic_run(pps_values):
    def entry(values):
        return {"unit": "x", "values": list(values), **stats.summarize(values)}

    metrics = {m["name"]: entry([10.0, 10.1, 9.9, 10.0, 10.05]) for m in DECLARED["end_to_end"]}
    metrics["ingest_pps"] = entry(pps_values)
    return {"workloads": {"steady_hh": {"metrics": metrics, "failed": 0, "counts": {"rules_installed": 676}}}}


def test_compare_flags_a_regression_and_passes_an_identical_pair():
    base = _synthetic_run([1000.0, 1005.0, 995.0, 1002.0, 998.0])
    same = stats.compare_results(base, copy.deepcopy(base), DECLARED)
    assert not stats.comparison_failed(same)
    assert {row["verdict"] for row in same} == {"unchanged"}

    bound = next(m["bound"] for m in DECLARED["end_to_end"] if m["name"] == "ingest_pps")
    drop = 1.0 - 1.5 * bound  # well past the bound, tight samples
    slower = _synthetic_run([1000.0 * drop, 1005.0 * drop, 995.0 * drop, 1002.0 * drop, 998.0 * drop])
    rows = stats.compare_results(base, slower, DECLARED)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts["ingest_pps"] == "regression" and stats.comparison_failed(rows)

    # Same median, samples scattered far beyond the bound: cannot be called unchanged.
    wide = 3.0 * bound
    noisy = _synthetic_run([1000.0, 1000.0 * (1 - wide), 1000.0 * (1 + wide), 1000.0 * (1 - wide / 2), 1000.0 * (1 + wide / 2)])
    rows = stats.compare_results(base, noisy, DECLARED)
    assert {row["metric"]: row["verdict"] for row in rows}["ingest_pps"] == "unresolved"

    moved = copy.deepcopy(base)
    moved["workloads"]["steady_hh"]["counts"]["rules_installed"] += 1
    rows = stats.compare_results(base, moved, DECLARED)
    assert {row["metric"]: row["verdict"] for row in rows}["rules_installed"] == "count-changed"
