"""The RMT pipeline: an ordered sequence of MAU stages plus pipeline PHV."""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, MutableMapping, Optional

from repro.dataplane.phv import PhvLayout
from repro.dataplane.resources import (
    NUM_STAGES,
    PIPELINE_PHV_BITS,
    ResourceVector,
    STAGE_CAPACITY,
)
from repro.dataplane.stage import MauStage
from repro.telemetry import TELEMETRY as _TELEMETRY


class Pipeline:
    """A fixed number of MAU stages sharing one PHV bit budget.

    Packets traverse stages in order; each stage runs its attached hooks over
    the packet's mutable field mapping (the simulated PHV).

    When telemetry is enabled, :meth:`process` counts packets per stage and
    records sampled timing spans (``flymon_pipeline_process_seconds``); when
    disabled, the only added cost is one flag check per packet.
    """

    def __init__(
        self,
        num_stages: int = NUM_STAGES,
        stage_capacity: ResourceVector = STAGE_CAPACITY,
        phv_budget_bits: int = PIPELINE_PHV_BITS,
    ) -> None:
        if num_stages <= 0:
            raise ValueError("num_stages must be positive")
        self.stages: List[MauStage] = [
            MauStage(i, stage_capacity) for i in range(num_stages)
        ]
        self.phv_layout = PhvLayout(phv_budget_bits)
        #: Lazily-built telemetry handles (created on the first traced packet).
        self._stage_counters: Optional[list] = None
        self._packet_counter = None
        self._span_histogram = None

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def stage(self, index: int) -> MauStage:
        return self.stages[index]

    def process(self, fields: MutableMapping[str, int]) -> None:
        """Run one packet through every stage in order."""
        if _TELEMETRY.enabled:
            self._process_traced(fields)
            return
        for stage in self.stages:
            stage.process(fields)

    def _process_traced(self, fields: MutableMapping[str, int]) -> None:
        if self._stage_counters is None:
            self._bind_telemetry()
        self._packet_counter.inc()
        sampled = _TELEMETRY.tracer.should_sample()
        start = perf_counter() if sampled else 0.0
        for stage, hits in zip(self.stages, self._stage_counters):
            hits.inc()
            stage.process(fields)
        if sampled:
            self._span_histogram.observe(perf_counter() - start)

    def process_batch(self, batch) -> None:
        """Run a whole :class:`~repro.traffic.batch.PacketBatch` through every
        stage in order -- the batched dual of :meth:`process`.

        Telemetry counters advance by the batch length (packets, not
        batches); timing spans cover one batch traversal.
        """
        if _TELEMETRY.enabled:
            self._process_batch_traced(batch)
            return
        for stage in self.stages:
            stage.process_batch(batch)

    def _process_batch_traced(self, batch) -> None:
        if self._stage_counters is None:
            self._bind_telemetry()
        n = len(batch)
        self._packet_counter.inc(n)
        sampled = _TELEMETRY.tracer.should_sample()
        start = perf_counter() if sampled else 0.0
        for stage, hits in zip(self.stages, self._stage_counters):
            hits.inc(n)
            stage.process_batch(batch)
        if sampled:
            self._span_histogram.observe(perf_counter() - start)

    def _bind_telemetry(self) -> None:
        registry = _TELEMETRY.registry
        self._packet_counter = registry.counter("flymon_pipeline_packets_total")
        self._stage_counters = [
            registry.counter("flymon_stage_packets_total", stage=str(stage.index))
            for stage in self.stages
        ]
        self._span_histogram = _TELEMETRY.tracer.span_histogram(
            "flymon_pipeline_process"
        )

    def scalar_fallback_hooks(self) -> List[tuple]:
        """``(stage_index, hook)`` pairs attached without a batched dual.

        A non-empty result means :meth:`process_batch` pays the exact-but-slow
        per-row dict round-trip at those stages.
        """
        return [
            (stage.index, hook)
            for stage in self.stages
            for hook in stage.scalar_only_hooks()
        ]

    # -- aggregate accounting -----------------------------------------------

    def total_used(self) -> ResourceVector:
        total = ResourceVector.zero()
        for stage in self.stages:
            total = total + stage.used
        return total

    def total_capacity(self) -> ResourceVector:
        total = self.stages[0].capacity * self.num_stages
        return ResourceVector(
            hash_units=total.hash_units,
            salus=total.salus,
            vliw=total.vliw,
            tcam_blocks=total.tcam_blocks,
            sram_blocks=total.sram_blocks,
            table_ids=total.table_ids,
            phv_bits=self.phv_layout.budget_bits,
        )

    def utilization(self) -> Dict[str, float]:
        used = self.total_used()
        used = ResourceVector(
            hash_units=used.hash_units,
            salus=used.salus,
            vliw=used.vliw,
            tcam_blocks=used.tcam_blocks,
            sram_blocks=used.sram_blocks,
            table_ids=used.table_ids,
            phv_bits=self.phv_layout.used_bits,
        )
        return used.utilization(self.total_capacity())
