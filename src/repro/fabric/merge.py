"""Seal-time federation: merge member epochs into one fabric epoch.

The fabric installs every task at *pinned* coordinates (same groups, hash
units, CMUs, memory bases, task id) on each of its hosts, so a task's row
occupies the identical register range on every switch that hosts it.
Hosts' traffic domains are disjoint, which makes merging a pure per-law
fold over the hosts' sealed partitions, one row-sized array at a time:

* ``sum``  -- Cond-ADD counters: element-wise modular sum,
* ``max``  -- HLL / SuMax registers: element-wise maximum,
* ``or``   -- Bloom / BeauCoup coupon bitmaps: bitwise OR,
* ``xor``  -- XOR sketches: bitwise XOR.

Each law is associative, commutative, and equal to what a single switch
observing the hosts' combined traffic would have computed -- so the merged
fabric epoch is *bit-identical* to the single-switch union reference.
Tasks with no such law (chained inter-arrival pipelines, finite-bound
Cond-ADD towers, counter braids) are placed on exactly one covering switch
instead; their merge takes that host's partition as is, exact for any
operation.

Alarm digests merge by set union, a *documented approximation*: a host sees only its own share of a flow's
traffic, so threshold crossings fire against per-host counts.  The union is
sandwiched -- every true heavy hitter appears (its full traffic lands on
one host), and nothing outside the single-switch digest set appears (union
cells dominate per-host cells) -- see docs/FABRIC.md.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.controller import TaskHandle
from repro.core.merge import (
    LAW_MAX,
    LAW_OR,
    LAW_REPLAY,
    LAW_SUM,
    LAW_XOR,
    is_chained,
    merge_law,
)
from repro.service.engine import SealedEpoch, row_key

#: Laws a task may carry and still be hosted on multiple switches.
MERGEABLE_LAWS = frozenset({LAW_SUM, LAW_MAX, LAW_OR, LAW_XOR})


def task_merge_laws(handle: TaskHandle) -> Dict[Tuple[int, int], str]:
    """Per-row fabric merge laws of a deployed task, keyed ``(group, cmu)``.

    Chained rows (inputs fed by upstream CMU exports) are forced to
    ``replay``: their register stream depends on seeing the *whole* packet
    sequence, so only single-host placement is exact.  Everything else
    takes the op-only :func:`~repro.core.merge.merge_law` even when
    alarm-armed: the fabric merges digests by set union with a documented
    bound, and alarm thresholds do not change how *cells* update.
    """
    laws: Dict[Tuple[int, int], str] = {}
    for row in handle.rows:
        plan = row.cmu.task_plans()[handle.task_id]
        if is_chained(plan.config):
            law = LAW_REPLAY
        else:
            law = merge_law(
                plan, row.cmu.bucket_bits, row.cmu.register.value_mask
            )
        laws[(row.group.group_id, row.cmu.index)] = law
    return laws


def task_mergeable(laws: Mapping[Tuple[int, int], str]) -> bool:
    return all(law in MERGEABLE_LAWS for law in laws.values())


def _fold(law: str, acc: np.ndarray, part: np.ndarray, value_mask: int) -> np.ndarray:
    if law == LAW_SUM:
        return (acc + part) & value_mask
    if law == LAW_MAX:
        return np.maximum(acc, part)
    if law == LAW_OR:
        return acc | part
    if law == LAW_XOR:
        return acc ^ part
    raise ValueError(f"law {law!r} cannot fold multiple hosts")


def merge_member_epochs(
    index: int,
    packets: int,
    placements: Iterable,
    member_epochs: Mapping[str, SealedEpoch],
) -> SealedEpoch:
    """Fold member epochs into one fabric :class:`SealedEpoch`.

    ``placements`` yields objects with ``handle`` (the canonical
    :class:`TaskHandle` defining coordinates), ``hosts`` (switch names),
    and ``laws`` (per-``(group, cmu)`` merge laws).  Members absent from
    ``member_epochs`` (a degraded switch that failed to seal) exclude every
    task they host: those tasks are dropped from the fabric epoch's task
    set, so queries against them raise ``StaleEpochError`` instead of
    returning partial answers.

    The result lives in *canonical coordinates*: binding a canonical task
    handle against it resolves addresses through the canonical deployment
    and reads the merged cells -- the existing typed query plane needs no
    changes.
    """
    cells: Dict[Tuple[int, int, int], np.ndarray] = {}
    digest_sets: Dict[Tuple[int, int, int], set] = {}
    task_ids: List[int] = []
    start_ts: Optional[int] = None
    end_ts: Optional[int] = None

    for epoch in member_epochs.values():
        if epoch.start_ts is not None:
            start_ts = epoch.start_ts if start_ts is None else min(start_ts, epoch.start_ts)
        if epoch.end_ts is not None:
            end_ts = epoch.end_ts if end_ts is None else max(end_ts, epoch.end_ts)

    for placement in placements:
        handle = placement.handle
        sealed = [
            member_epochs[name]
            for name in placement.hosts
            if name in member_epochs
        ]
        if len(sealed) != len(placement.hosts):
            continue  # a host is degraded: exclude the task this epoch
        task_ids.append(handle.task_id)
        for row in handle.rows:
            key = row_key(row)
            law = placement.laws[key[:2]]
            if len(sealed) > 1 and law not in MERGEABLE_LAWS:
                raise ValueError(
                    f"task {handle.task_id}: law {law!r} hosted on "
                    f"{len(sealed)} switches (single host required)"
                )
            # Sealed arrays are never written, and every fold returns a new
            # one, so a sole host's partition is shared rather than copied.
            merged = sealed[0]._cells[key]
            for epoch in sealed[1:]:
                merged = _fold(
                    law, merged, epoch._cells[key], row.cmu.register.value_mask
                )
            cells[key] = merged
            union: set = set()
            for epoch in sealed:
                union |= epoch.digest_sets.get(key, set())
            if union:
                digest_sets[key] = union

    return SealedEpoch(
        index=index,
        packets=packets,
        start_ts=start_ts,
        end_ts=end_ts,
        cells=cells,
        task_ids=task_ids,
        digest_sets=digest_sets,
    )
