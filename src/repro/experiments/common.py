"""Shared experiment plumbing: trace caches, sizing helpers, table rendering."""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence

from repro.traffic import Trace, ddos_trace, zipf_trace
from repro.traffic.batch import env_batch_size

#: Bytes per CMU bucket under the evaluation's uniform 32-bit configuration.
BUCKET_BYTES = 4


@lru_cache(maxsize=8)
def evaluation_trace(quick: bool = True, seed: int = 2020) -> Trace:
    """The WIDE-stand-in workload for accuracy experiments.

    Quick mode keeps pure-Python per-packet processing tractable; full mode
    triples the scale.  Flow-size skew (Zipf alpha 1.1) matches backbone
    traces' heavy tails.
    """
    if quick:
        return zipf_trace(num_flows=6_000, num_packets=60_000, seed=seed)
    return zipf_trace(num_flows=20_000, num_packets=200_000, seed=seed)


@lru_cache(maxsize=8)
def evaluation_ddos_trace(quick: bool = True, seed: int = 2021) -> Trace:
    """DDoS-victim workload (Fig. 14c): threshold-crossing victims plus
    sub-threshold decoys and Zipf background."""
    if quick:
        return ddos_trace(
            num_victims=12,
            sources_per_victim=1_200,
            background_flows=4_000,
            background_packets=25_000,
            seed=seed,
        )
    return ddos_trace(
        num_victims=30,
        sources_per_victim=2_000,
        background_flows=10_000,
        background_packets=80_000,
        seed=seed,
    )


def pow2_at_least(value: int) -> int:
    """Smallest power of two >= value (minimum 64: the smallest register)."""
    value = max(64, int(value))
    if value & (value - 1):
        value = 1 << value.bit_length()
    return value


def buckets_for_bytes(total_bytes: float, rows: int = 1) -> int:
    """Bucket count (per row, power of two) approximating a byte budget."""
    per_row = total_bytes / (rows * BUCKET_BYTES)
    buckets = max(64, int(per_row))
    # Round to the *nearest* power of two so memory axes line up.
    hi = 1 << buckets.bit_length()
    lo = hi >> 1
    return hi if (hi - buckets) < (buckets - lo) else lo


def memory_bytes(buckets: int, rows: int = 1) -> int:
    return buckets * rows * BUCKET_BYTES


def default_batch_size() -> Optional[int]:
    """Batch size experiment drivers use, from ``FLYMON_BATCH_SIZE``.

    Unset or empty keeps the batched engine on at its default size; ``0`` or
    a negative value selects the scalar reference path; a positive integer
    fixes the batch size.
    """
    value = env_batch_size()
    if value is None:
        return DEFAULT_BATCH_SIZE
    return value if value > 0 else None


#: Default column-slice size for experiment replays: large enough that numpy
#: kernel launches amortize, small enough to stay cache-friendly.
DEFAULT_BATCH_SIZE = 8192


def deploy_and_process(
    task,
    trace: Trace,
    num_groups: int = 3,
    register_size: int = None,
    seed_base: int = 0xC0DE,
    batch_size: Optional[int] = "env",
):
    """Fresh controller sized for the task, deploy, run the trace.

    Returns ``(controller, handle)``.  The pipeline resource model is
    skipped for accuracy sweeps (memory axes may exceed one pipeline's SRAM;
    resource questions are Figs. 2/11/13's job).

    ``batch_size`` defaults to :func:`default_batch_size` (the
    ``FLYMON_BATCH_SIZE`` environment override); pass ``None`` to force the
    scalar reference path or an integer to fix the batch size.  Both paths
    produce bit-identical register state, digests, and estimates.
    """
    from repro.core.controller import FlyMonController

    if batch_size == "env":
        batch_size = default_batch_size()
    if register_size is None:
        register_size = 1 << 16
    controller = FlyMonController(
        num_groups=num_groups,
        register_size=register_size,
        place_on_pipeline=False,
        seed_base=seed_base,
    )
    handle = controller.add_task(task)
    controller.process_trace(trace, batch_size=batch_size)
    return controller, handle


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Plain fixed-width table (the benches print these)."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)
