"""Summaries of repeated measurements, and the A-vs-B comparison rule.

A timing is reported as its median with the quartiles and the sample count;
its tail as the highest percentile that still has ten samples beyond it.
``compare`` applies each end-to-end metric's bound from ``BENCHMARK.json``
and never calls a metric "unchanged" when its own spread exceeds the bound.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Samples that must lie beyond a reported tail percentile.
TAIL_SUPPORT = 10


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, IQR (absolute and as a share of the median), n."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("cannot summarize an empty sample")
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    iqr = q3 - q1
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": iqr,
        "iqr_share": iqr / abs(median) if median else 0.0,
        "n": len(values),
    }


def supportable_percentile(n: int, ceiling: float = 99.0) -> Optional[float]:
    """Highest percentile (<= ``ceiling``) with ``TAIL_SUPPORT`` samples
    beyond it, or ``None`` when the sample is too small for any tail."""
    if n < 2 * TAIL_SUPPORT:
        return None
    return min(ceiling, 100.0 * (1.0 - TAIL_SUPPORT / n))


def tail(values: Sequence[float], ceiling: float = 99.0) -> Dict[str, float]:
    """Value at the highest supportable percentile (the median of a sample
    too small to have a tail), with the percentile actually used."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return {"value": 0.0, "percentile": 0.0, "n": 0}
    pct = supportable_percentile(len(ordered), ceiling)
    if pct is None:
        return {"value": statistics.median(ordered), "percentile": 50.0, "n": len(ordered)}
    rank = min(len(ordered) - 1, int(len(ordered) * pct / 100.0))
    return {"value": ordered[rank], "percentile": pct, "n": len(ordered)}


# -- comparison ---------------------------------------------------------


def load_declared(path: Path = BENCHMARK_JSON) -> Dict[str, object]:
    with open(path) as fh:
        return json.load(fh)


def _worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare_metric(spec: Dict[str, object], a: Dict[str, object], b: Dict[str, object]) -> Dict[str, object]:
    """Verdict for one end-to-end metric of one workload.

    ``a``/``b`` are result-file entries (``median``, ``iqr_share``,
    ``values``).  Verdicts: ``regression`` (median worse by more than the
    bound), ``unresolved`` (a spread wider than the bound and the samples
    overlap, so neither "same" nor "better" can be told), ``improved``
    (better by more than the bound) or ``unchanged``.
    """
    bound, better = float(spec["bound"]), str(spec["better"])
    worse_by = _worsening(a["median"], b["median"], better)
    spread = max(a.get("iqr_share", 0.0), b.get("iqr_share", 0.0))
    if worse_by > bound:
        verdict = "regression"
    elif spread > bound and not _all_better(a["values"], b["values"], better):
        verdict = "unresolved"
    elif worse_by < -bound:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {"worse_by": worse_by, "spread": spread, "bound": bound, "verdict": verdict}


def _all_better(a_values: Sequence[float], b_values: Sequence[float], better: str) -> bool:
    if not a_values or not b_values:
        return False
    if better == "lower":
        return max(b_values) < min(a_values)
    return min(b_values) > max(a_values)


def compare_results(a: Dict[str, object], b: Dict[str, object], declared: Dict[str, object]) -> List[Dict[str, object]]:
    """Rows (workload, metric, verdict...) for two ``run`` result files.

    End-to-end metrics follow their declared bound.  Counts (unit
    ``count``) must be exactly equal, as must ``failed`` -- a count that
    moved is a change in behaviour, not noise.
    """
    rows: List[Dict[str, object]] = []
    specs = {m["name"]: m for m in declared["end_to_end"]}
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            rows.append({"workload": name, "metric": "*", "verdict": "missing"})
            continue
        for metric, spec in specs.items():
            if metric not in wa["metrics"] or metric not in wb["metrics"]:
                rows.append({"workload": name, "metric": metric, "verdict": "missing"})
                continue
            row = compare_metric(spec, wa["metrics"][metric], wb["metrics"][metric])
            row.update(workload=name, metric=metric, a=wa["metrics"][metric]["median"], b=wb["metrics"][metric]["median"])
            rows.append(row)
        rows.append(
            {
                "workload": name,
                "metric": "failed",
                "a": wa["failed"],
                "b": wb["failed"],
                "verdict": "unchanged" if wa["failed"] == wb["failed"] else "regression",
            }
        )
        for metric, entry in wa.get("counts", {}).items():
            other = wb.get("counts", {}).get(metric)
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "a": entry,
                    "b": other,
                    "verdict": "unchanged" if entry == other else "count-changed",
                }
            )
    return rows


def format_comparison(rows: Sequence[Dict[str, object]]) -> str:
    def fmt(v) -> str:
        return f"{v:>14.4g}" if isinstance(v, (int, float)) else f"{'-':>14}"

    lines = [f"{'workload':<24}{'metric':<22}{'A':>14}{'B':>14}{'worse by':>10}{'spread':>9}  verdict"]
    for row in rows:
        a, b = row.get("a"), row.get("b")
        worse = f"{100 * row['worse_by']:>9.1f}%" if "worse_by" in row else f"{'':>10}"
        spread = f"{100 * row['spread']:>8.1f}%" if "spread" in row else f"{'':>9}"
        lines.append(f"{row['workload']:<24}{row['metric']:<22}{fmt(a)}{fmt(b)}{worse}{spread}  {row['verdict']}")
    return "\n".join(lines)


def comparison_failed(rows: Sequence[Dict[str, object]]) -> bool:
    return any(row["verdict"] in ("regression", "count-changed", "missing") for row in rows)
