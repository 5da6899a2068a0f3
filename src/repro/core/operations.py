"""The reduced stateful operation set (§3.1.2, Appendix A).

FlyMon implements ten sketching algorithms with only three pre-loaded SALU
operations (leaving one of Tofino's four action slots as expansion room):

* ``Cond-ADD(p1, p2)`` -- add ``p1`` while the counter is below ``p2``
  (``p2 = max`` degenerates to CMS's unconditional ADD; finite ``p2`` gives
  SuMax's conservative update, saturating tower counters, and Counter
  Braids' overflow detection),
* ``MAX(p1)`` -- keep the per-bucket maximum,
* ``AND-OR(p1, p2)`` -- bit-wise AND when ``p2 == 0``, OR otherwise
  (Bloom Filter inserts, BeauCoup coupon collection).

Result-bus semantics: a Tofino SALU can export either the pre- or the
post-modification word per register action.  Appendix A's pseudocode returns
the post-update value; the combinatorial tasks of §4 require the pre-update
word for MAX (inter-arrival needs the *previous* arrival time) and AND-OR
(new-flow detection needs the *previous* bitmap), while Appendix D's Counter
Braids needs Cond-ADD's post-update value (0 signals saturation).  We
configure the exports accordingly and document the choice here.
"""

from __future__ import annotations

import numpy as np

from repro.dataplane.register import (
    Register,
    RegisterAction,
    chain_all,
    segmented_compose_masks,
    segmented_cummax,
    segmented_cumsum,
    segmented_cumxor,
)

OP_COND_ADD = "cond_add"
OP_MAX = "max"
OP_AND_OR = "and_or"
#: The expansion example of §6: filling the reserved fourth action slot with
#: XOR enables Odd Sketch (traffic-set similarity).
OP_XOR = "xor"

REDUCED_OPERATION_SET = (OP_COND_ADD, OP_MAX, OP_AND_OR)
EXTENDED_OPERATION_SET = REDUCED_OPERATION_SET + (OP_XOR,)


def _cond_add(stored: int, p1: int, p2: int):
    """Add ``p1`` if ``stored < p2``; export the post-update value, else 0."""
    if stored < p2:
        new = stored + p1
        return new, new
    return stored, 0


def _max(stored: int, p1: int, p2: int):
    """Keep the maximum of ``stored`` and ``p1``; export the pre-update value
    on update (the previous maximum), else 0."""
    if stored < p1:
        return p1, stored
    return stored, 0


def _and_or(stored: int, p1: int, p2: int):
    """AND with ``p1`` when ``p2 == 0``, OR otherwise; export the pre-update
    word (so membership of a just-inserted item is still observable)."""
    if p2 == 0:
        return stored & p1, stored
    return stored | p1, stored


def _xor(stored: int, p1: int, p2: int):
    """Bit-wise XOR with ``p1`` (Odd Sketch's parity flip); exports the
    pre-update word."""
    return stored ^ p1, stored


# -- vectorized kernels -------------------------------------------------------
#
# Element-wise duals of the scalar actions over int64 arrays, used by
# Register.execute_batch.  Each returns (new_values, results) pre-masking;
# the register masks to the bucket width on store/export, exactly like the
# scalar path.


def _cond_add_batch(stored: np.ndarray, p1: np.ndarray, p2: np.ndarray):
    updated = stored < p2
    new_values = np.where(updated, stored + p1, stored)
    return new_values, np.where(updated, new_values, 0)


def _max_batch(stored: np.ndarray, p1: np.ndarray, p2: np.ndarray):
    updated = stored < p1
    return np.where(updated, p1, stored), np.where(updated, stored, 0)


def _and_or_batch(stored: np.ndarray, p1: np.ndarray, p2: np.ndarray):
    return np.where(p2 == 0, stored & p1, stored | p1), stored


def _xor_batch(stored: np.ndarray, p1: np.ndarray, p2: np.ndarray):
    return stored ^ p1, stored


# -- chain kernels ------------------------------------------------------------
#
# Whole duplicate-bucket chains folded in closed form (see
# RegisterAction.chain_fn): rows arrive sorted by bucket in arrival order,
# ``stored`` holds each bucket's pre-chain value, ``chains`` is the layout the
# grouping pass found.  Each returns (per-row post-state, per-row exports, validity).


def _cond_add_chain(stored, p1, p2, chains, value_mask):
    """Running sums, valid only while every step's condition held and no
    intermediate exceeded the bucket width (else saturation/wrap makes the
    fold non-linear and the chain is re-run exactly)."""
    post = stored + segmented_cumsum(p1, chains)
    prev = post - p1
    ok = chain_all((prev < p2) & (post <= value_mask), chains)
    return post, post, ok


def _max_chain(stored, p1, p2, chains, value_mask):
    """Running maxima; always exact.  The export is the pre-update word on
    update (the previous maximum), else 0 -- exactly the scalar action."""
    cm = segmented_cummax(p1, chains)
    prev = np.empty_like(cm)
    prev[1:] = cm[:-1]
    prev[chains.starts] = stored[chains.starts]
    prev = np.maximum(prev, stored)
    updated = prev < p1
    return np.maximum(prev, p1), np.where(updated, prev, 0), None


def _and_or_chain(stored, p1, p2, chains, value_mask):
    """AND/OR chains composed as (and-mask, or-mask) pairs; always exact."""
    A = np.where(p2 == 0, p1, value_mask)
    B = np.where(p2 == 0, 0, p1)
    A, B = segmented_compose_masks(A, B, chains)
    pre_a = np.empty_like(A)
    pre_b = np.empty_like(B)
    pre_a[1:] = A[:-1]
    pre_b[1:] = B[:-1]
    pre_a[chains.starts] = value_mask
    pre_b[chains.starts] = 0
    return (stored & A) | B, (stored & pre_a) | pre_b, None


def _xor_chain(stored, p1, p2, chains, value_mask):
    """Running parity; always exact (exports the pre-update word)."""
    inc = segmented_cumxor(p1, chains)
    new_values = stored ^ inc
    return new_values, new_values ^ p1, None


def load_reduced_operation_set(register: Register, with_xor: bool = True) -> None:
    """Pre-load the FlyMon operations into a register's SALU.

    ``with_xor`` also fills the fourth (reserved) action slot with XOR --
    the §6 expansion that enables Odd Sketch.  Pass ``False`` to model the
    paper's as-published three-operation configuration.
    """
    register.load_action(
        RegisterAction(OP_COND_ADD, _cond_add, _cond_add_batch, _cond_add_chain)
    )
    register.load_action(RegisterAction(OP_MAX, _max, _max_batch, _max_chain))
    register.load_action(
        RegisterAction(OP_AND_OR, _and_or, _and_or_batch, _and_or_chain)
    )
    if with_xor:
        register.load_action(RegisterAction(OP_XOR, _xor, _xor_batch, _xor_chain))
