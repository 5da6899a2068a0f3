"""Output checks.  Each returns a list of problems; empty means correct.

All of them run in untimed regions, on every run.  Exact ground truth is
computed here with numpy from the same columns the program ingested.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from .workloads import SAMPLED_FLOWS

#: HLL tolerance.  The 4096-register sketch the rungs deploy measured a
#: standard deviation of 1.3 % (largest error 3.7 %) over their epoch sizes,
#: so 10 % is eight sigma: a miss is a bug, not bad luck.
CARDINALITY_TOLERANCE = 0.10


def compare_registers(reference: Mapping, candidate: Mapping, what: str) -> List[str]:
    """Cell-for-cell equality of two ``{(group, cmu): cells}`` snapshots."""
    problems = []
    if reference.keys() != candidate.keys():
        return [f"{what}: register sets differ ({sorted(reference)} vs {sorted(candidate)})"]
    for key in sorted(reference):
        if not np.array_equal(reference[key], candidate[key]):
            cells = int(np.count_nonzero(np.asarray(reference[key]) != np.asarray(candidate[key])))
            problems.append(f"{what}: register {key} differs in {cells} cell(s)")
    return problems


def compare_equal(expected, actual, what: str) -> List[str]:
    return [] if expected == actual else [f"{what}: expected {expected!r}, got {actual!r}"]


def compare_digests(expected: Mapping[int, str], actual: Mapping[int, str], what: str) -> List[str]:
    """Per-epoch sealed-state digests, keyed by epoch index."""
    if not expected:
        return [f"{what}: nothing to compare"]
    problems = []
    for index in sorted(expected):
        if index not in actual:
            problems.append(f"{what}: epoch {index} missing")
        elif expected[index] != actual[index]:
            problems.append(f"{what}: epoch {index} sealed state differs")
    return problems


def sketch_accuracy(
    deployed,
    cols: Dict[str, np.ndarray],
    start: int,
    stop: int,
    epoch,
    seed: int,
) -> List[str]:
    """CMS never under-estimates and HLL is within tolerance, for the sealed
    ``epoch`` that holds packets ``[start, stop)``.  ``deployed.block``
    narrows ground truth to the tenant block its first tasks filter on."""
    src = cols["src_ip"][start:stop]
    keep: Optional[np.ndarray] = None
    if deployed.block is not None:
        keep = (src >> 29) == deployed.block
        src = src[keep]
    problems = []
    flows, sizes = np.unique(src, return_counts=True)
    picks = np.random.default_rng(seed).choice(len(flows), size=min(SAMPLED_FLOWS, len(flows)), replace=False)
    low = [
        (int(flows[i]), int(sizes[i]), estimate)
        for i in picks
        if (estimate := deployed.frequency(int(flows[i]), epoch)) < sizes[i]
    ]
    if low:
        flow, exact, estimate = low[0]
        problems.append(
            f"epoch {epoch.index}: CMS under-estimates {len(low)} of {len(picks)} sampled flows "
            f"(flow {flow:#x}: exact {exact}, estimate {estimate})"
        )
    tuples = np.stack([cols[f][start:stop] for f in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")], axis=1)
    if keep is not None:
        tuples = tuples[keep]
    exact = len(np.unique(tuples, axis=0))
    estimate = deployed.cardinality(epoch)
    if abs(estimate - exact) > CARDINALITY_TOLERANCE * exact:
        problems.append(
            f"epoch {epoch.index}: HLL estimate {estimate:.0f} is more than "
            f"{CARDINALITY_TOLERANCE:.0%} from the exact cardinality {exact}"
        )
    return problems


def sample_flows(cols: Dict[str, np.ndarray], start: int, stop: int, count: int, block: Optional[int]) -> List[int]:
    """``count`` distinct source addresses seen in ``[start, stop)``."""
    src = cols["src_ip"][start:stop]
    if block is not None:
        src = src[(src >> 29) == block]
    flows = np.unique(src)
    if len(flows) < count:
        raise ValueError(f"only {len(flows)} distinct flows in the sample window, need {count}")
    return [int(v) for v in flows[:: max(1, len(flows) // count)][:count]]


def format_problems(problems: Sequence[str], limit: int = 5) -> str:
    shown = list(problems[:limit])
    if len(problems) > limit:
        shown.append(f"... and {len(problems) - limit} more")
    return "\n".join(f"  CHECK FAILED: {p}" for p in shown)
