"""Batched register execution: duplicate-bucket RMW chains must serialize
exactly like per-packet execution, including the chain-folded fast paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.operations import (
    EXTENDED_OPERATION_SET,
    OP_COND_ADD,
    load_reduced_operation_set,
)
from repro.dataplane.register import (
    Chains,
    Register,
    RegisterAction,
    _group_by_bucket,
    chain_all,
    segmented_compose_masks,
    segmented_cummax,
    segmented_cumsum,
    segmented_cumxor,
)


def _pair(size=256, bit_width=16):
    a, b = Register(size, bit_width), Register(size, bit_width)
    load_reduced_operation_set(a)
    load_reduced_operation_set(b)
    return a, b


def _chains(seg_start):
    """The layout ``execute_batch`` hands the fold kernels, from a
    chain-start mask."""
    starts = np.flatnonzero(seg_start)
    counts = np.diff(starts, append=len(seg_start))
    return Chains(starts, counts, np.repeat(np.arange(len(starts)), counts))


def _doubling_cummax(x, seg_start):
    """The Hillis-Steele doubling scan ``segmented_cummax`` used to be (one
    full-array pass per power of two): the reference for the packed form."""
    n = len(x)
    out = np.array(x, dtype=np.int64, copy=True)
    pos = np.arange(n)
    starts = np.nonzero(seg_start)[0]
    first = starts[np.cumsum(seg_start) - 1]
    d = 1
    while d < n:
        can = pos - d >= first
        shifted = np.empty_like(out)
        shifted[d:] = out[:-d]
        out = np.where(can, np.maximum(out, shifted), out)
        d <<= 1
    return out


def _assert_equivalent(op, idx, p1, p2, size=256, bit_width=16, init=None):
    scalar, batched = _pair(size, bit_width)
    if init is not None:
        scalar.load_cells(init)
        batched.load_cells(init)
    want = np.array(
        [
            scalar.execute(op, int(idx[i]), int(p1[i]), int(p2[i]))
            for i in range(len(idx))
        ]
    )
    got = batched.execute_batch(op, idx, p1, p2)
    np.testing.assert_array_equal(want, got)
    np.testing.assert_array_equal(
        scalar.read_range(0, size), batched.read_range(0, size)
    )


class TestOccurrenceRanks:
    def test_ranks_count_prior_occurrences(self):
        # A row's rank is its offset into its bucket's chain of the one
        # grouping permutation.
        idx = np.array([7, 3, 7, 7, 3])
        order, starts, counts = _group_by_bucket(idx, 8)
        np.testing.assert_array_equal(order, [1, 4, 0, 2, 3])
        np.testing.assert_array_equal(starts, [0, 2])
        np.testing.assert_array_equal(counts, [2, 3])
        ranks = np.empty(len(idx), dtype=np.int64)
        ranks[order] = np.arange(len(idx)) - np.repeat(starts, counts)
        np.testing.assert_array_equal(ranks, [0, 0, 1, 2, 1])


class TestSegmentedScans:
    def test_cumsum_cumxor_cummax_reset_at_segments(self):
        x = np.array([3, 1, 4, 1, 5, 9, 2], dtype=np.int64)
        seg = _chains(np.array([True, False, False, True, False, True, False]))
        np.testing.assert_array_equal(
            segmented_cumsum(x, seg), [3, 4, 8, 1, 6, 9, 11]
        )
        np.testing.assert_array_equal(
            segmented_cummax(x, seg), [3, 3, 4, 1, 5, 9, 9]
        )
        np.testing.assert_array_equal(
            segmented_cumxor(x, seg), [3, 2, 6, 1, 4, 9, 11]
        )

    def test_cummax_matches_doubling_scan_reference(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 64, 1000):
            x = rng.integers(0, 1 << 32, size=n)
            seg = rng.random(n) < 0.2
            seg[0] = True
            np.testing.assert_array_equal(
                segmented_cummax(x, _chains(seg)), _doubling_cummax(x, seg)
            )

    def test_compose_masks_folds_and_or_chains(self):
        # segment 1: OR 0b01 then AND 0b10 -> x&0b10; segment 2: OR 0b100
        A = np.array([0xFF, 0b10, 0xFF], dtype=np.int64)
        B = np.array([0b01, 0, 0b100], dtype=np.int64)
        seg = _chains(np.array([True, False, True]))
        CA, CB = segmented_compose_masks(A, B, seg)
        for x in (0, 0b11, 0b1010):
            assert ((x & CA[1]) | CB[1]) == (((x | 0b01) & 0b10))
        assert ((0 & CA[2]) | CB[2]) == 0b100

    def test_chain_all_poisons_whole_segment(self):
        ok = np.array([True, False, True, True])
        seg = _chains(np.array([True, False, True, False]))
        np.testing.assert_array_equal(
            chain_all(ok, seg), [False, False, True, True]
        )


class TestExecuteBatchEquivalence:
    @pytest.mark.parametrize("op", EXTENDED_OPERATION_SET)
    def test_duplicate_heavy_chains(self, op):
        rng = np.random.default_rng(hash(op) & 0xFFFF)
        n = 800
        idx = rng.integers(0, 4, size=n) * 64  # 4 buckets, ~200-deep chains
        p1 = rng.integers(0, 1 << 16, size=n)
        p2 = rng.integers(0, 1 << 16, size=n)
        _assert_equivalent(op, idx, p1, p2)

    @pytest.mark.parametrize("op", EXTENDED_OPERATION_SET)
    def test_all_distinct_buckets(self, op):
        rng = np.random.default_rng(1)
        idx = rng.permutation(256)[:100]
        p1 = rng.integers(0, 1 << 16, size=100)
        p2 = rng.integers(0, 1 << 16, size=100)
        _assert_equivalent(op, idx, p1, p2)

    def test_cond_add_saturating_chain_falls_back_exactly(self):
        # A long chain that crosses its p2 threshold mid-way: the closed-form
        # sum is invalid there, so the chain must re-run via rank rounds.
        n = 64
        idx = np.zeros(n, dtype=np.int64)
        p1 = np.full(n, 7, dtype=np.int64)
        p2 = np.full(n, 100, dtype=np.int64)
        _assert_equivalent(OP_COND_ADD, idx, p1, p2)

    def test_cond_add_wrapping_chain_falls_back_exactly(self):
        # Increments that overflow the 8-bit bucket width force the wrap
        # check to reject the fold.
        n = 50
        idx = np.zeros(n, dtype=np.int64)
        p1 = np.full(n, 200, dtype=np.int64)
        p2 = np.full(n, 255, dtype=np.int64)
        _assert_equivalent(OP_COND_ADD, idx, p1, p2, bit_width=8)

    def test_nonzero_initial_state(self):
        rng = np.random.default_rng(3)
        init = rng.integers(0, 1 << 16, size=256)
        idx = rng.integers(0, 8, size=300) * 8
        p1 = rng.integers(0, 4, size=300)
        p2 = np.full(300, (1 << 16) - 1)
        _assert_equivalent(OP_COND_ADD, idx, p1, p2, init=init)

    def test_action_without_batch_kernel_uses_scalar_fallback(self):
        def weird(stored, p1, p2):
            return (stored * 3 + p1) % 251, stored

        a = Register(64, 16)
        b = Register(64, 16)
        a.load_action(RegisterAction("weird", weird))
        b.load_action(RegisterAction("weird", weird))
        rng = np.random.default_rng(9)
        idx = rng.integers(0, 4, size=100)
        p1 = rng.integers(0, 100, size=100)
        p2 = np.zeros(100, dtype=np.int64)
        want = np.array(
            [a.execute("weird", int(idx[i]), int(p1[i]), 0) for i in range(100)]
        )
        got = b.execute_batch("weird", idx, p1, p2)
        np.testing.assert_array_equal(want, got)
        np.testing.assert_array_equal(a.read_range(0, 64), b.read_range(0, 64))

    def test_fallbacks_are_counted_when_telemetry_is_on(self):
        # One batch, two chains: bucket 0 adds 1 forty times under an
        # unreachable bound (folds in closed form); bucket 1 reaches p2 = 10
        # mid-chain, so its 30 rows re-run through the exact rank rounds.
        idx = np.array([0, 1] * 30 + [0] * 10)
        p1 = np.ones(len(idx), dtype=np.int64)
        p2 = np.where(idx == 0, 0xFFFF, 10)
        registry = telemetry.TELEMETRY.registry
        _assert_equivalent(OP_COND_ADD, idx, p1, p2)
        assert registry.get("flymon_register_fallback_total", reason="exact_chain") is None
        telemetry.reset()
        telemetry.enable()
        try:
            _assert_equivalent(OP_COND_ADD, idx, p1, p2)
            assert registry.value(
                "flymon_register_fallback_total", reason="exact_chain"
            ) == 30
            register = Register(64, 16)
            register.load_action(RegisterAction("first", lambda s, a, b: (s or a, s)))
            for _ in range(2):
                register.execute_batch("first", idx, p1, p2)
            assert registry.value(
                "flymon_register_fallback_total", reason="no_kernel"
            ) == 2
        finally:
            telemetry.disable()
            telemetry.reset()

    def test_empty_batch_is_a_noop(self):
        register = Register(64, 16)
        load_reduced_operation_set(register)
        out = register.execute_batch(
            OP_COND_ADD, np.array([], dtype=np.int64), np.array([]), np.array([])
        )
        assert len(out) == 0

    def test_unknown_action_raises(self):
        register = Register(64, 16)
        with pytest.raises(KeyError):
            register.execute_batch(
                "nope", np.array([0]), np.array([1]), np.array([0])
            )


@settings(max_examples=150, deadline=None)
@given(
    op=st.sampled_from(EXTENDED_OPERATION_SET),
    size=st.sampled_from([2, 4096, 1 << 16, 1 << 17]),  # 2**17: key outgrows uint16
    bit_width=st.sampled_from([1, 8, 16, 32]),
    n=st.integers(1, 400),
    hot=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_execute_batch_matches_execute_loop(op, size, bit_width, n, hot, seed):
    """Duplicate-heavy batches over every op, register size and bucket
    width.  Even buckets never reach their bound (their Cond-ADD chains fold
    unless an increment wraps the bucket); odd buckets carry a bound a few
    increments away, so their chains saturate mid-chain and re-run exactly
    -- both kinds in one batch."""
    rng = np.random.default_rng(seed)
    mask = (1 << bit_width) - 1
    hot_buckets = rng.integers(0, size, size=hot)
    idx = np.where(
        rng.random(n) < 0.8,
        hot_buckets[rng.integers(0, hot, size=n)],
        rng.integers(0, size, size=n),
    )
    p1 = np.where(
        rng.random(n) < 0.85, rng.integers(1, 4, size=n), rng.integers(0, mask + 1, size=n)
    )
    p2 = np.where(idx % 2 == 0, mask, rng.integers(0, min(mask, 12) + 1, size=n))
    init = rng.integers(0, min(mask, 6) + 1, size=size)
    # Indices beyond the register wrap modulo its size.
    idx = idx + size * rng.integers(0, 3, size=n)
    _assert_equivalent(op, idx, p1, p2, size=size, bit_width=bit_width, init=init)
