"""SALU-backed stateful registers.

A *register* on Tofino is a fixed-size SRAM array bound to a stateful ALU.
The hardware constraints FlyMon designs around are modeled explicitly:

* the array's size and bucket bit-width are fixed at "compile" time
  (construction) and cannot change at runtime -- dynamic memory has to be
  realized by address translation on top of this;
* one SALU supports at most :data:`MAX_REGISTER_ACTIONS` pre-loaded register
  actions (Tofino: 4), selected per packet;
* one packet can access the register once (single read-modify-write).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.telemetry import TELEMETRY as _TELEMETRY

#: Tofino SALUs pre-load at most four register actions.
MAX_REGISTER_ACTIONS = 4

#: Heaviest-bucket multiplicity above which execute_batch folds chains with
#: the action's chain_fn instead of iterating occurrence-rank rounds.  Below
#: this the rank loop's few tiny passes beat a full segmented scan.
_CHAIN_FOLD_THRESHOLD = 4


class Chains(NamedTuple):
    """Layout of a batch sorted by bucket, as :func:`_group_by_bucket` found
    it: what every fold kernel needs, derived once per batch."""

    starts: np.ndarray  #: row offset of each chain
    counts: np.ndarray  #: length of each chain
    seg_id: np.ndarray  #: chain number of each row


def segmented_cumsum(x: np.ndarray, chains: Chains) -> np.ndarray:
    """Inclusive prefix sum within each chain."""
    c = np.cumsum(x)
    base = np.where(chains.starts > 0, c[chains.starts - 1], 0)
    return c - base[chains.seg_id]


def segmented_cumxor(x: np.ndarray, chains: Chains) -> np.ndarray:
    """Inclusive prefix XOR within each chain (XOR is its own inverse, so
    the cumsum subtraction trick applies verbatim)."""
    c = np.bitwise_xor.accumulate(x)
    base = np.where(chains.starts > 0, c[chains.starts - 1], 0)
    return c ^ base[chains.seg_id]


def segmented_cummax(x: np.ndarray, chains: Chains) -> np.ndarray:
    """Inclusive running maximum within each chain, of values in
    ``[0, 2**32)`` (register words): with the chain number packed above the
    value, one running maximum over the whole array never carries across a
    boundary."""
    packed = np.maximum.accumulate((chains.seg_id << 32) | x)
    return packed & 0xFFFFFFFF


def segmented_compose_masks(
    A: np.ndarray, B: np.ndarray, chains: Chains
) -> Tuple[np.ndarray, np.ndarray]:
    """Inclusive prefix composition of ``x -> (x & A) | B`` within each chain.

    Mask pairs are closed under composition (``later . earlier`` is
    ``(Ae & Al, (Be & Al) | Bl)``), so a doubling scan folds an arbitrary
    AND/OR chain in ``O(log longest chain)`` passes.
    """
    n = len(A)
    A = np.array(A, dtype=np.int64, copy=True)
    B = np.array(B, dtype=np.int64, copy=True)
    pos = np.arange(n)
    first = chains.starts[chains.seg_id]
    longest = int(chains.counts.max())
    d = 1
    while d < longest:
        can = pos - d >= first
        Ae = np.empty_like(A)
        Be = np.empty_like(B)
        Ae[d:] = A[:-d]
        Be[d:] = B[:-d]
        A, B = (
            np.where(can, Ae & A, A),
            np.where(can, (Be & A) | B, B),
        )
        d <<= 1
    return A, B


def chain_all(ok: np.ndarray, chains: Chains) -> np.ndarray:
    """Broadcast a per-row predicate to per-chain ALL (a chain is only
    usable as a unit -- one bad step poisons the whole bucket chain)."""
    return np.logical_and.reduceat(ok, chains.starts)[chains.seg_id]


def _group_by_bucket(idx: np.ndarray, size: int):
    """The one grouping pass of a batch: ``(order, starts, counts)``.

    ``order`` stably sorts the rows by bucket, so each bucket's packets are
    contiguous and in arrival order: chain ``k`` is ``order[starts[k] :
    starts[k] + counts[k]]``, a row's occurrence rank is its offset into its
    chain (``[7, 3, 7, 7, 3]`` -> order ``[1, 4, 0, 2, 3]``, starts ``[0, 2]``,
    counts ``[2, 3]``).
    A register of up to 65,536 cells sorts on a ``uint16`` key, which numpy
    sorts by radix -- about ten times faster than comparing ``int64``.
    """
    key = idx.astype(np.uint16) if size <= 1 << 16 else idx
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    seg_start = np.empty(len(idx), dtype=bool)
    seg_start[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=seg_start[1:])
    starts = np.flatnonzero(seg_start)
    counts = np.concatenate((starts[1:], [len(idx)])) - starts
    return order, starts, counts


def _count_fallback(reason: str, amount: int) -> None:
    """No silent slow path: count work that left the vectorized kernels."""
    if _TELEMETRY.enabled:
        _TELEMETRY.registry.counter(
            "flymon_register_fallback_total", reason=reason
        ).inc(amount)


@dataclass(frozen=True)
class RegisterAction:
    """A pre-loaded stateful operation.

    ``fn(stored_value, p1, p2) -> (new_value, result)`` where ``result`` is
    the value exported back to the PHV (Tofino register actions can output
    one word).  Values are treated as unsigned integers of the register's
    bucket width; the register clamps the stored value on write.

    ``batch_fn`` is the optional vectorized form used by
    :meth:`Register.execute_batch`: the same signature over equal-length
    ``int64`` arrays, returning ``(new_values, results)`` arrays.  It must be
    element-wise equivalent to ``fn``; actions without one fall back to a
    per-element scalar loop (exact, just slow).

    ``chain_fn`` optionally folds a whole duplicate-bucket chain at once:
    ``chain_fn(stored, p1, p2, chains, value_mask)`` over rows sorted so
    each bucket's packets are contiguous and in arrival order, with
    ``stored`` the bucket's pre-chain value repeated across its rows and
    ``chains`` the :class:`Chains` layout the batch's one grouping pass found
    (starts, lengths, chain number per row -- handed through so no kernel
    derives them again).  It returns ``(new_values, results,
    ok)`` where ``new_values[i]`` is the stored value *after* row ``i``,
    ``results`` the per-row exports, and ``ok`` a per-row validity mask
    (``None`` = exact everywhere) that is uniform over each chain
    (:func:`chain_all`).  Invalid chains are re-run through the rank loop, so
    a ``chain_fn`` may use a fast closed form that only holds under
    conditions it can check (no saturation/wrap).
    """

    name: str
    fn: Callable[[int, int, int], Tuple[int, int]]
    batch_fn: Optional[Callable] = None
    chain_fn: Optional[Callable] = None


class Register:
    """A fixed-configuration stateful array plus its SALU.

    ``size`` buckets of ``bit_width`` bits each.  Register actions are
    installed at construction time (compile-phase) via :meth:`load_action`;
    per-packet, :meth:`execute` selects one by name.
    """

    def __init__(self, size: int, bit_width: int = 16) -> None:
        if size <= 0 or size & (size - 1):
            raise ValueError("register size must be a positive power of two")
        if bit_width not in (1, 8, 16, 32):
            raise ValueError("bit_width must be one of 1, 8, 16, 32")
        self.size = size
        self.bit_width = bit_width
        self.value_mask = (1 << bit_width) - 1
        dtype = np.uint8 if bit_width <= 8 else (np.uint16 if bit_width == 16 else np.uint32)
        self._cells = np.zeros(size, dtype=dtype)
        self._actions: Dict[str, RegisterAction] = {}

    # -- compile-phase configuration -------------------------------------

    def load_action(self, action: RegisterAction) -> None:
        if action.name in self._actions:
            raise ValueError(f"register action {action.name!r} already loaded")
        if len(self._actions) >= MAX_REGISTER_ACTIONS:
            raise RuntimeError(
                f"SALU supports at most {MAX_REGISTER_ACTIONS} register actions"
            )
        self._actions[action.name] = action

    @property
    def action_names(self) -> Tuple[str, ...]:
        return tuple(self._actions)

    # -- per-packet execution ---------------------------------------------

    def execute(self, action_name: str, index: int, p1: int, p2: int) -> int:
        """Run a pre-loaded action on bucket ``index``; returns its result."""
        action = self._actions.get(action_name)
        if action is None:
            raise KeyError(
                f"register action {action_name!r} not pre-loaded "
                f"(have: {self.action_names})"
            )
        idx = index & (self.size - 1)
        stored = int(self._cells[idx])
        new_value, result = action.fn(stored, p1 & self.value_mask, p2 & self.value_mask)
        self._cells[idx] = new_value & self.value_mask
        return result & self.value_mask

    def execute_batch(
        self, action_name: str, indices: np.ndarray, p1: np.ndarray, p2: np.ndarray
    ) -> np.ndarray:
        """Run a pre-loaded action on a whole batch; returns the results.

        Exactly equivalent to calling :meth:`execute` per element in order,
        including duplicate-index read-modify-write chains.  The batch is
        grouped by bucket once (:func:`_group_by_bucket`); everything else --
        whether any bucket repeats, the heaviest chain, the chain-fold layout
        and the occurrence-rank rounds -- is read off that one permutation.
        """
        action = self._actions.get(action_name)
        if action is None:
            raise KeyError(
                f"register action {action_name!r} not pre-loaded "
                f"(have: {self.action_names})"
            )
        idx = np.asarray(indices, dtype=np.int64) & (self.size - 1)
        n = len(idx)
        results = np.zeros(n, dtype=np.int64)
        if n == 0:
            return results
        p1 = np.asarray(p1, dtype=np.int64) & self.value_mask
        p2 = np.asarray(p2, dtype=np.int64) & self.value_mask
        if action.batch_fn is None:
            # Exact fallback for custom actions loaded without a kernel.
            _count_fallback("no_kernel", 1)
            for i in range(n):
                results[i] = self.execute(action_name, int(idx[i]), int(p1[i]), int(p2[i]))
            return results
        order, starts, counts = _group_by_bucket(idx, self.size)
        if len(starts) == n:
            self._apply_rank(action, slice(None), idx, p1, p2, results)
        elif action.chain_fn is not None and counts.max() > _CHAIN_FOLD_THRESHOLD:
            self._execute_chained(action, order, starts, counts, idx, p1, p2, results)
        else:
            self._execute_ranked(action, order, starts, counts, idx, p1, p2, results)
        return results

    def _execute_chained(
        self,
        action: RegisterAction,
        order: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        idx: np.ndarray,
        p1: np.ndarray,
        p2: np.ndarray,
        results: np.ndarray,
    ) -> None:
        """Fold duplicate-bucket chains with the action's ``chain_fn``.

        In ``order`` each chain is contiguous and in arrival order; the
        kernel computes every row's post-state and export in a constant (or
        logarithmic) number of full-array passes.  Chains the kernel flags
        invalid fall back to the exact rank loop -- chains are whole buckets,
        so the two groups touch disjoint cells and order between them is
        immaterial.
        """
        sorted_idx = idx[order]
        stored = self._cells[sorted_idx].astype(np.int64)
        chains = Chains(starts, counts, np.repeat(np.arange(len(starts)), counts))
        new_values, chain_results, ok = action.chain_fn(
            stored, p1[order], p2[order], chains, self.value_mask
        )
        last = starts + counts - 1
        good = None if ok is None else ok[starts]
        if good is None or good.all():
            self._cells[sorted_idx[last]] = new_values[last] & self.value_mask
            results[order] = chain_results & self.value_mask
            return
        write = last[good]
        self._cells[sorted_idx[write]] = new_values[write] & self.value_mask
        results[order[ok]] = chain_results[ok] & self.value_mask
        bad = ~good
        _count_fallback("exact_chain", int(counts[bad].sum()))
        self._execute_ranked(
            action, order, starts[bad], counts[bad], idx, p1, p2, results
        )

    def _execute_ranked(
        self,
        action: RegisterAction,
        order: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        idx: np.ndarray,
        p1: np.ndarray,
        p2: np.ndarray,
        results: np.ndarray,
    ) -> None:
        """Exact occurrence-rank rounds over the given chains: round ``r``
        runs the ``r``-th packet of every chain that has one.  Within a round
        every bucket is distinct, so it is one vectorized gather/compute/
        scatter; the number of rounds is the heaviest chain's length."""
        rank = 0
        while len(starts):
            self._apply_rank(action, order[starts + rank], idx, p1, p2, results)
            rank += 1
            alive = counts > rank
            starts, counts = starts[alive], counts[alive]

    def _apply_rank(
        self,
        action: RegisterAction,
        rows,
        idx: np.ndarray,
        p1: np.ndarray,
        p2: np.ndarray,
        results: np.ndarray,
    ) -> None:
        buckets = idx[rows]
        stored = self._cells[buckets].astype(np.int64)
        new_values, rank_results = action.batch_fn(stored, p1[rows], p2[rows])
        self._cells[buckets] = new_values & self.value_mask
        results[rows] = rank_results & self.value_mask

    # -- control-plane access ---------------------------------------------

    def read(self, index: int) -> int:
        return int(self._cells[index & (self.size - 1)])

    def _check_range(self, start: int, length: int) -> None:
        if length < 0:
            raise IndexError(f"negative range length {length}")
        if not 0 <= start <= self.size or start + length > self.size:
            raise IndexError(f"range [{start}, {start + length}) out of bounds")

    def read_range(self, start: int, length: int) -> np.ndarray:
        """Control-plane bulk read of ``[start, start+length)`` (copy)."""
        self._check_range(start, length)
        return self._cells[start : start + length].astype(np.int64)

    def write(self, index: int, value: int) -> None:
        self._cells[index & (self.size - 1)] = value & self.value_mask

    def reset_range(self, start: int, length: int) -> None:
        """Zero ``[start, start+length)`` -- epoch rollover / task recycle."""
        self._check_range(start, length)
        self._cells[start : start + length] = 0

    def write_range(self, start: int, values: np.ndarray) -> None:
        """Control-plane bulk write of ``[start, start+len(values))`` --
        the restore side of a rolled-back register reset."""
        values = np.asarray(values, dtype=np.int64)
        self._check_range(start, len(values))
        self._cells[start : start + len(values)] = (
            values & self.value_mask
        ).astype(self._cells.dtype)

    def snapshot_cells(self) -> np.ndarray:
        """Copy of the full cell array as ``int64`` (mergeable snapshot)."""
        return self._cells.astype(np.int64)

    def load_cells(self, cells: np.ndarray) -> None:
        """Overwrite the full cell array (the inverse of :meth:`snapshot_cells`)."""
        cells = np.asarray(cells, dtype=np.int64)
        if len(cells) != self.size:
            raise ValueError(
                f"cell array has length {len(cells)}, register holds {self.size}"
            )
        self._cells[:] = (cells & self.value_mask).astype(self._cells.dtype)

    def reset(self) -> None:
        self._cells[:] = 0

    @property
    def total_bits(self) -> int:
        return self.size * self.bit_width

    def __repr__(self) -> str:
        return f"Register(size={self.size}, bit_width={self.bit_width})"
