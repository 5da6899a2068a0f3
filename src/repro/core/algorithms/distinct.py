"""Distinct-attribute algorithms on CMUs (§4)."""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

import numpy as np

from repro.analysis.estimators import (
    coupon_collector_inversion,
    hll_estimate,
    linear_counting_estimate,
    rho32_batch,
    tune_coupon_probability,
)
from repro.core.algorithms.base import (
    CmuAlgorithm,
    PlanContext,
    fields_from_flow,
    register_algorithm,
)
from repro.core.cmu import CmuTaskConfig
from repro.core.compression import HASH_KEY_BITS
from repro.core.operations import OP_AND_OR, OP_MAX
from repro.core.params import (
    BitSelectProcessor,
    CompressedKeyParam,
    ComplementProcessor,
    ConstParam,
    IdentityProcessor,
    OneHotCouponProcessor,
)
from repro.core.task import MeasurementTask
from repro.traffic.flows import FlowKeyDef


def _param_keydef(task: MeasurementTask) -> FlowKeyDef:
    param = task.attribute.param
    if not isinstance(param, FlowKeyDef):
        raise TypeError("distinct attribute needs a FlowKeyDef parameter")
    return param


@register_algorithm
class FlyMonHll(CmuAlgorithm):
    """Single-key distinct counting via the MAX operation (§4).

    Both the key and ``p1`` are set to the flow key's compressed value: the
    key slice locates a bucket and ``p1`` (a disjoint slice, complemented in
    the preparation stage) is MAX-tracked.  The stored maximum of the
    complemented hash equals the minimum hash, whose leading-zero count is
    the HLL rank -- no TCAM entries needed, matching the paper's stated
    preference over rho-encoding implementations.
    """

    name = "hll"
    rho_bits = 16

    def num_rows(self) -> int:
        return 1

    def build_configs(self, ctx: PlanContext) -> List[CmuTaskConfig]:
        row = ctx.rows[0]
        address_bits = ctx.address_bits(row)
        key = row.key_grant.selector.with_slice(0, address_bits)
        rho_source = row.key_grant.selector.with_slice(
            HASH_KEY_BITS - self.rho_bits, self.rho_bits
        )
        return [
            CmuTaskConfig(
                task_id=ctx.task_id,
                filter=ctx.task.filter,
                key_selector=key,
                p1=CompressedKeyParam(rho_source),
                p2=ConstParam(0),
                p1_processor=ComplementProcessor(self.rho_bits),
                mem=row.mem,
                op=OP_MAX,
                strategy=ctx.strategy,
                sample_prob=ctx.task.sample_prob,
                priority=ctx.priority,
            )
        ]

    def ranks(self) -> np.ndarray:
        """Per-bucket HLL ranks recovered from the stored complement maxima:
        0 for an empty bucket, ``rho_bits + 1`` for an all-zero minimum
        hash, else its leading-zero count plus one (integer-exact, see
        :func:`rho32_batch`)."""
        stored = np.asarray(self.rows[0].read(), dtype=np.int64)
        ranks = rho32_batch(~stored, skip_bits=32 - self.rho_bits)
        return np.where(stored == 0, 0, ranks)

    def estimate(self) -> float:
        """Cardinality estimate from the stored complement maxima."""
        return hll_estimate(self.ranks())


@register_algorithm
class FlyMonBeauCoup(CmuAlgorithm):
    """Multi-key distinct counting via coupon collection (§4).

    Key and ``p1`` are two different compressed keys (e.g. ``C(DstIP)`` and
    ``C(SrcIP)``); the preparation stage maps ``p1`` to a one-hot coupon and
    the AND-OR operation (OR side) collects it.  Instead of the original
    checksums, FlyMon uses ``d`` coupon tables and reports a key only when
    every table's coupons are complete (the CMS-style collision damping the
    paper describes).
    """

    name = "beaucoup"
    #: 32 coupons fill the uniform 32-bit buckets; more coupons mean a
    #: sharper coupon-collector threshold (lower detection variance).
    default_coupons = 32

    def __init__(self, task: MeasurementTask) -> None:
        super().__init__(task)
        if task.threshold is None:
            raise ValueError("beaucoup needs task.threshold for coupon tuning")
        self.num_coupons = min(self.default_coupons, 32)
        self.coupon_prob = tune_coupon_probability(self.num_coupons, task.threshold)

    def needs_param_key(self) -> bool:
        return True

    def build_configs(self, ctx: PlanContext) -> List[CmuTaskConfig]:
        if ctx.bucket_bits < self.num_coupons:
            self.num_coupons = ctx.bucket_bits
            self.coupon_prob = tune_coupon_probability(
                self.num_coupons, ctx.task.threshold
            )
        configs = []
        for i, row in enumerate(ctx.rows):
            assert row.param_grant is not None
            configs.append(
                CmuTaskConfig(
                    task_id=ctx.task_id,
                    filter=ctx.task.filter,
                    key_selector=ctx.sliced_key(i),
                    p1=CompressedKeyParam(row.param_grant.selector),
                    p2=ConstParam(1),  # select the OR side of AND-OR
                    p1_processor=OneHotCouponProcessor(
                        self.num_coupons, self.coupon_prob
                    ),
                    mem=row.mem,
                    op=OP_AND_OR,
                    strategy=ctx.strategy,
                    sample_prob=ctx.task.sample_prob,
                    priority=ctx.priority,
                )
            )
        return configs

    @property
    def full_mask(self) -> int:
        return (1 << self.num_coupons) - 1

    def alarms(self, candidates: Iterable[Tuple[int, ...]]) -> Set:
        """Candidate keys whose coupons are complete in every table."""
        out = set()
        for flow in candidates:
            values = self.row_values(flow)
            if all(v & self.full_mask == self.full_mask for v in values):
                out.add(flow)
        return out

    def estimate_distinct(self, flow: Tuple[int, ...]) -> float:
        values = self.row_values(flow)
        estimates = sorted(
            coupon_collector_inversion(
                bin(v & self.full_mask).count("1"), self.num_coupons, self.coupon_prob
            )
            for v in values
        )
        return estimates[len(estimates) // 2]


@register_algorithm
class FlyMonLinearCounting(CmuAlgorithm):
    """Single-key distinct counting on a bit-packed bitmap.

    Data plane identical to the optimized Bloom Filter with one row
    (Appendix D: "the same is true for Linear Counting and Bloom Filter");
    the estimate inverts the zero-bit fraction.
    """

    name = "linear_counting"

    def num_rows(self) -> int:
        return 1

    def build_configs(self, ctx: PlanContext) -> List[CmuTaskConfig]:
        row = ctx.rows[0]
        address_bits = ctx.address_bits(row)
        key = row.key_grant.selector.with_slice(0, address_bits)
        bit_source = row.key_grant.selector.with_slice(
            HASH_KEY_BITS - 16, 16
        )
        return [
            CmuTaskConfig(
                task_id=ctx.task_id,
                filter=ctx.task.filter,
                key_selector=key,
                p1=CompressedKeyParam(bit_source),
                p2=ConstParam(1),
                p1_processor=BitSelectProcessor(ctx.bucket_bits),
                mem=row.mem,
                op=OP_AND_OR,
                strategy=ctx.strategy,
                sample_prob=ctx.task.sample_prob,
                priority=ctx.priority,
            )
        ]

    def estimate(self) -> float:
        stored = self.rows[0].read()
        bucket_bits = self.rows[0].cmu.bucket_bits
        total_bits = len(stored) * bucket_bits
        ones = int(sum(bin(int(v)).count("1") for v in stored))
        return linear_counting_estimate(total_bits, total_bits - ones)
