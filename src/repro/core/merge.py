"""Merge laws: how one task's register cells fold across disjoint traffic.

Two registers that ran the same task over disjoint slices of traffic (the
fabric's member switches, each seeing its own hosts) fold back into the
register a single switch observing the union would hold, *exactly*, when
the task's operation has one of these laws:

* **sum** -- an unarmed Cond-ADD whose ``p2`` is a constant covering the
  whole bucket range never blocks an update, so each cell is the modular
  sum of its slices' increments and the fold is ``(a + b) mod 2^w`` (CMS et
  al.).  Wrap-around commutes with the sum; only a counter parking
  *exactly* on the all-ones value would diverge, which is why the law
  requires >= 8-bit buckets;
* **max** -- MAX registers fold by element-wise maximum (always exact);
* **xor** -- XOR registers fold by element-wise XOR (always exact);
* **or** -- an AND-OR task whose ``p2`` is a non-zero constant only ever
  ORs, and OR-only mask composition degenerates to element-wise OR
  (Bloom/coupon inserts);
* **replay** -- everything else (finite-``p2`` Cond-ADD towers, mixed
  AND-OR): the result depends on the order packets arrived in, so no
  cell-wise fold is exact and the task must see the whole stream.

Tasks whose parameters read *upstream CMU exports* (:func:`is_chained`)
are order-dependent across the whole trace whatever their operation.
"""

from __future__ import annotations

#: Merge laws (per task): how register state from disjoint traffic folds.
LAW_SUM = "sum"
LAW_MAX = "max"
LAW_XOR = "xor"
LAW_OR = "or"
LAW_REPLAY = "replay"


def is_chained(config) -> bool:
    """Whether a task's inputs depend on upstream CMU exports (PHV chaining),
    which makes its register stream state-dependent and unmergeable."""
    from repro.core.params import InterarrivalProcessor, MinResultsParam, ResultParam

    if isinstance(config.p1, (ResultParam, MinResultsParam)):
        return True
    if isinstance(config.p2, (ResultParam, MinResultsParam)):
        return True
    processor = config.p1_processor
    if isinstance(processor, InterarrivalProcessor) and processor.bloom_group >= 0:
        return True
    return False


def merge_law(plan, bucket_bits: int, value_mask: int) -> str:
    """The cheapest exact law for folding one task's *cells* (see module
    docs).  It depends only on the operation; what to do about alarm
    digests is the caller's policy (the fabric unions digests)."""
    from repro.core.operations import OP_AND_OR, OP_COND_ADD, OP_MAX, OP_XOR
    from repro.core.params import ConstParam

    config = plan.config
    if config.op == OP_MAX:
        return LAW_MAX
    if config.op == OP_XOR:
        return LAW_XOR
    if config.op == OP_COND_ADD:
        if (
            isinstance(config.p2, ConstParam)
            and (config.p2.constant & value_mask) == value_mask
            and bucket_bits >= 8
        ):
            return LAW_SUM
        return LAW_REPLAY
    if config.op == OP_AND_OR:
        if isinstance(config.p2, ConstParam) and (config.p2.constant & value_mask):
            return LAW_OR
        return LAW_REPLAY
    return LAW_REPLAY
