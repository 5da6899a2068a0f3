"""Tofino switch model: pipeline + baseline (switch.p4) footprint.

Figure 13a reports the utilization of six resources for Tofino's baseline
``switch.p4`` project alone and with 1 / 3 CMU Groups integrated.  The
baseline occupancies below are approximations of the figure's left bars; the
reproduction's claim is about the *increment* a CMU Group adds, which comes
from the resource model, not these constants.

Figure 2's static-sketch footprints are also computed here: a conventionally
deployed sketch with ``d`` rows consumes ``d`` hash units, ``d`` SALUs,
``d`` logical table IDs, and its counters' SRAM -- per flow key, which is why
four coexisting single-key sketches already strain the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

from repro.dataplane.phv import STANDARD_HEADER_FIELDS, STANDARD_METADATA_FIELDS, FieldSpec
from repro.dataplane.pipeline import Pipeline
from repro.dataplane.resources import (
    NUM_STAGES,
    ResourceVector,
    sram_blocks_for,
)
from repro.dataplane.runtime import RuntimeApi
from repro.telemetry import TELEMETRY as _TELEMETRY, update_resource_gauges

#: Fractions of each pipeline-wide resource the switch.p4 baseline occupies.
#: Approximated from Figure 13a's left bars.
SWITCH_P4_BASELINE_UTILIZATION = {
    "hash_units": 0.30,
    "salus": 0.08,
    "vliw": 0.32,
    "tcam_blocks": 0.35,
    "sram_blocks": 0.30,
    "table_ids": 0.35,
    "phv_bits": 0.40,
}


class TofinoSwitch:
    """One pipeline of a Tofino switch plus its runtime API.

    ``with_baseline=True`` pre-charges the ``switch.p4`` footprint so CMU
    Group integration experiments (Fig. 13a) measure increments over a
    realistic starting point.
    """

    def __init__(self, num_stages: int = NUM_STAGES, with_baseline: bool = False) -> None:
        self.pipeline = Pipeline(num_stages=num_stages)
        self.runtime = RuntimeApi()
        self.candidate_fields: Sequence[FieldSpec] = STANDARD_HEADER_FIELDS
        self.metadata_fields: Sequence[FieldSpec] = STANDARD_METADATA_FIELDS
        self.with_baseline = with_baseline
        if with_baseline:
            self._charge_baseline()

    def _charge_baseline(self) -> None:
        for stage in self.pipeline.stages:
            demand = ResourceVector(
                hash_units=stage.capacity.hash_units
                * SWITCH_P4_BASELINE_UTILIZATION["hash_units"],
                salus=stage.capacity.salus * SWITCH_P4_BASELINE_UTILIZATION["salus"],
                vliw=stage.capacity.vliw * SWITCH_P4_BASELINE_UTILIZATION["vliw"],
                tcam_blocks=stage.capacity.tcam_blocks
                * SWITCH_P4_BASELINE_UTILIZATION["tcam_blocks"],
                sram_blocks=stage.capacity.sram_blocks
                * SWITCH_P4_BASELINE_UTILIZATION["sram_blocks"],
                table_ids=stage.capacity.table_ids
                * SWITCH_P4_BASELINE_UTILIZATION["table_ids"],
            )
            stage.allocate("switch.p4", demand)
        phv_baseline = int(
            self.pipeline.phv_layout.budget_bits
            * SWITCH_P4_BASELINE_UTILIZATION["phv_bits"]
        )
        self.pipeline.phv_layout.allocate(FieldSpec("switch.p4/headers", phv_baseline))

    def utilization(self) -> Dict[str, float]:
        return self.pipeline.utilization()

    def record_telemetry(self, scope: str = "switch") -> Dict[str, float]:
        """Publish the live ResourceVector utilization as telemetry gauges."""
        utilization = self.utilization()
        update_resource_gauges(utilization, _TELEMETRY.registry, scope=scope)
        return utilization

    def process_packet(self, fields: dict) -> None:
        self.pipeline.process(fields)

    def process_batch(self, batch) -> None:
        """Run a :class:`~repro.traffic.batch.PacketBatch` through the pipe."""
        self.pipeline.process_batch(batch)

    def datapath_groups(self) -> list:
        """The CMU groups placed on this pipeline, in pipeline order."""
        return datapath_groups(self.pipeline)

    def process_trace(self, trace, batch_size=None):
        """Replay a trace through the pipeline."""
        if batch_size is not None:
            for batch in trace.iter_batches(batch_size):
                self.pipeline.process_batch(batch)
            return None
        for fields in trace.iter_fields():
            self.pipeline.process(fields)
        return None


def datapath_groups(pipeline: Pipeline) -> list:
    """Discover the CMU groups attached to a pipeline's stages.

    Placement attaches each group's ``process``/``process_batch`` bound
    methods as operation-stage hooks; walking the hook entries in stage
    order recovers the groups in the order packets traverse them.
    """
    from repro.core.cmu_group import CmuGroup

    groups = []
    seen = set()
    for stage in pipeline.stages:
        for hook, _ in stage.hook_entries():
            owner = getattr(hook, "__self__", None)
            if isinstance(owner, CmuGroup) and id(owner) not in seen:
                seen.add(id(owner))
                groups.append(owner)
    return groups


# ---------------------------------------------------------------------------
# Static (conventional) sketch deployment footprints -- Figure 2.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticSketchSpec:
    """Resource shape of a conventionally deployed sketch (one flow key)."""

    name: str
    rows: int
    buckets_per_row: int
    bucket_bits: int
    #: Extra logical tables beyond the per-row register tables (e.g. the
    #: preprocessing / result-export tables some sketches need).
    extra_tables: int = 0

    def footprint(self) -> ResourceVector:
        sram = sum(
            sram_blocks_for(self.buckets_per_row, self.bucket_bits)
            for _ in range(self.rows)
        )
        # Hardware rounds each row's register up to at least one SRAM block.
        sram = max(sram, float(self.rows))
        return ResourceVector(
            hash_units=self.rows,
            salus=self.rows,
            vliw=self.rows + self.extra_tables,
            tcam_blocks=0,
            sram_blocks=sram,
            table_ids=self.rows + self.extra_tables,
            phv_bits=104,  # the statically copied 5-tuple key
        )


#: Typical configurations of the four sketches Figure 2 profiles.
FIGURE2_SKETCHES = (
    StaticSketchSpec("BloomFilter", rows=3, buckets_per_row=2**18, bucket_bits=1),
    StaticSketchSpec("CMS", rows=3, buckets_per_row=2**16, bucket_bits=32),
    StaticSketchSpec("HLL", rows=1, buckets_per_row=2**14, bucket_bits=8, extra_tables=2),
    StaticSketchSpec("MRAC", rows=1, buckets_per_row=2**16, bucket_bits=32, extra_tables=1),
)


def static_sketch_utilization(
    specs: Iterable[StaticSketchSpec] = FIGURE2_SKETCHES,
    num_stages: int = NUM_STAGES,
) -> Dict[str, Dict[str, float]]:
    """Per-sketch and summed utilization of the four Figure 2 resources.

    Returns ``{sketch_name: {resource: fraction}}`` plus a ``"Sum"`` row,
    reporting the resources Figure 2 plots: hash units, logical table IDs,
    SALUs, and stateful memory.
    """
    pipeline = Pipeline(num_stages=num_stages)
    capacity = pipeline.total_capacity()
    out: Dict[str, Dict[str, float]] = {}
    total = ResourceVector.zero()
    for spec in specs:
        vec = spec.footprint()
        total = total + vec
        out[spec.name] = _figure2_fractions(vec, capacity)
    out["Sum"] = _figure2_fractions(total, capacity)
    return out


#: A "typical scenario" static sketch (the CocoSketch remark the paper cites):
#: three 0.5 MB counter rows per flow key.
TYPICAL_STATIC_SKETCH = StaticSketchSpec(
    "typical-CMS", rows=3, buckets_per_row=2**17, bucket_bits=32
)


def max_static_keys(
    spec: StaticSketchSpec = TYPICAL_STATIC_SKETCH, num_stages: int = NUM_STAGES
) -> int:
    """How many single-key sketch deployments fit alongside switch.p4.

    Figure 2's conclusion ("cannot support more than four single-key
    sketches in a typical scenario"): each key statically consumes one hash
    unit, one SALU, and one whole register per row on top of the baseline.
    Rows are placed greedily stage by stage; a register must fit within a
    single stage's SRAM (hardware registers cannot span stages), which is
    the binding constraint at typical row sizes.
    """
    switch = TofinoSwitch(num_stages=num_stages, with_baseline=True)
    row_demand = ResourceVector(
        hash_units=1,
        salus=1,
        vliw=1,
        sram_blocks=max(
            1.0, sram_blocks_for(spec.buckets_per_row, spec.bucket_bits)
        ),
        table_ids=1,
    )
    deployed = 0
    while deployed <= 64:
        rows_placed = 0
        for row in range(spec.rows):
            for stage in switch.pipeline.stages:
                if (stage.used + row_demand).fits_within(stage.capacity):
                    stage.allocate(f"static-{deployed}-row{row}", row_demand)
                    rows_placed += 1
                    break
        if rows_placed < spec.rows:
            return deployed
        try:
            switch.pipeline.phv_layout.allocate(
                FieldSpec(f"static-key-{deployed}", 104)
            )
        except Exception:
            return deployed
        deployed += 1
    return deployed


def _figure2_fractions(vec: ResourceVector, capacity: ResourceVector) -> Dict[str, float]:
    util = vec.utilization(capacity)
    return {
        "hash_unit": util["hash_units"],
        "logical_table_id": util["table_ids"],
        "stateful_alu": util["salus"],
        "stateful_memory": util["sram_blocks"],
    }
