"""CMU Groups (§3.2): three CMUs sharing a compression stage.

A group owns ``compression_units`` dynamic hash units (the paper's setting
dedicates 3 of the 6 per-stage hash distribution units to compression; the
other 3 are consumed by SALU addressing in the operation stage) and three
CMUs.  Its four pipeline stages (Compression / Initialization / Preparation
/ Operation) have the per-stage resource demands of the Figure 8 table,
exposed for the cross-stacking mapper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.cmu import Cmu
from repro.core.compression import CompressedKeyManager
from repro.dataplane.hashing import DynamicHashUnit
from repro.dataplane.phv import STANDARD_HEADER_FIELDS, FieldSpec
from repro.dataplane.resources import ResourceVector, sram_blocks_for
from repro.telemetry import TELEMETRY as _TELEMETRY

#: Stage labels in pipeline order.
STAGE_COMPRESSION = "compression"
STAGE_INITIALIZATION = "initialization"
STAGE_PREPARATION = "preparation"
STAGE_OPERATION = "operation"
GROUP_STAGES = (
    STAGE_COMPRESSION,
    STAGE_INITIALIZATION,
    STAGE_PREPARATION,
    STAGE_OPERATION,
)


class CmuGroup:
    """A group of CMUs with a shared compression stage."""

    def __init__(
        self,
        group_id: int,
        num_cmus: int = 3,
        compression_units: int = 3,
        register_size: int = 1 << 16,
        bucket_bits: int = 16,
        candidate_fields: Sequence[FieldSpec] = STANDARD_HEADER_FIELDS,
        seed_base: int = 0xC0DE,
    ) -> None:
        if num_cmus <= 0 or compression_units <= 0:
            raise ValueError("num_cmus and compression_units must be positive")
        self.group_id = group_id
        self.candidate_fields = tuple(candidate_fields)
        #: Kept for replica cloning (sharded execution rebuilds per-worker
        #: groups with identical hash seeding from these parameters).
        self.seed_base = seed_base
        self.hash_units = [
            DynamicHashUnit(i, self.candidate_fields, seed=seed_base + (group_id << 10) + i)
            for i in range(compression_units)
        ]
        self.keys = CompressedKeyManager(self.hash_units)
        self.cmus = [
            Cmu(group_id, i, register_size, bucket_bits) for i in range(num_cmus)
        ]
        #: Cached telemetry handle (bound on first use while enabled).
        self._packet_counter = None

    # -- data plane ---------------------------------------------------------

    def compress(self, fields) -> List[int]:
        """The compression stage: one 32-bit key per hash unit."""
        return [unit.compute(fields) for unit in self.hash_units]

    def process(self, fields: Dict[str, int]) -> None:
        """Run one packet through all four stages of the group."""
        if _TELEMETRY.enabled:
            if self._packet_counter is None:
                self._packet_counter = _TELEMETRY.registry.counter(
                    "flymon_group_packets_total", group=str(self.group_id)
                )
            self._packet_counter.inc()
        compressed = self.compress(fields)
        for cmu in self.cmus:
            cmu.process(fields, compressed)

    def compress_batch(self, batch) -> List:
        """Columnar :meth:`compress`: one int64 key array per hash unit."""
        return [unit.compute_batch(batch) for unit in self.hash_units]

    def process_batch(self, batch) -> None:
        """Run a whole :class:`~repro.traffic.batch.PacketBatch` through all
        four stages -- bit-identical to :meth:`process` per packet in order.

        The compressed keys depend only on header fields (never on CMU
        exports), so they are computed once up front; CMUs then run in
        pipeline order over the whole batch, each reading upstream exports
        from the batch's result columns.
        """
        if _TELEMETRY.enabled:
            if self._packet_counter is None:
                self._packet_counter = _TELEMETRY.registry.counter(
                    "flymon_group_packets_total", group=str(self.group_id)
                )
            self._packet_counter.inc(len(batch))
        if not any(cmu.task_ids for cmu in self.cmus):
            return  # nothing to hash for: no CMU of the group hosts a task
        compressed = self.compress_batch(batch)
        for cmu in self.cmus:
            cmu.process_batch(batch, compressed)

    # -- capacity queries ------------------------------------------------------

    @property
    def num_cmus(self) -> int:
        return len(self.cmus)

    @property
    def register_size(self) -> int:
        return self.cmus[0].register_size

    @property
    def bucket_bits(self) -> int:
        return self.cmus[0].bucket_bits

    def max_selectable_keys(self) -> int:
        """``k(k+1)/2`` distinct keys from ``k`` shared hash units (§3.1)."""
        k = len(self.hash_units)
        return k * (k + 1) // 2

    def control_digest(self) -> tuple:
        """A hashable summary of the group's hash-unit masks, key-manager
        accounting, and per-CMU state (see :meth:`repro.core.cmu.Cmu.
        control_digest`).  Equal digests mean bit-identical group state."""
        masks = tuple(
            unit.mask.describe() if unit.mask is not None else None
            for unit in self.hash_units
        )
        committed = tuple(
            (i, mask.describe() if mask is not None else None)
            for i, mask in sorted(self.keys.committed_masks().items())
        )
        refcounts = tuple(sorted(self.keys.refcounts().items()))
        return (
            masks,
            committed,
            refcounts,
            tuple(cmu.control_digest() for cmu in self.cmus),
        )

    # -- resource model (Figure 8) -----------------------------------------------

    def stage_demands(self) -> Dict[str, ResourceVector]:
        """Per-stage resource demand of this group.

        Calibrated to the Figure 8 table: C uses half the hash units, O uses
        the other half (SALU addressing) plus 3 SALUs; I and P split VLIW
        and TCAM as published.
        """
        k = len(self.hash_units)
        n = self.num_cmus
        sram = n * sram_blocks_for(self.register_size, self.bucket_bits)
        return {
            STAGE_COMPRESSION: ResourceVector(hash_units=k, vliw=2, table_ids=1),
            STAGE_INITIALIZATION: ResourceVector(vliw=8, tcam_blocks=3, table_ids=n),
            STAGE_PREPARATION: ResourceVector(vliw=2, tcam_blocks=12, table_ids=n),
            STAGE_OPERATION: ResourceVector(
                hash_units=n, vliw=8, salus=n, sram_blocks=sram, table_ids=n
            ),
        }

    def phv_demand_bits(self) -> int:
        """PHV bits the group statically reserves: one 32-bit compressed key
        per hash unit plus one result/param export word per CMU."""
        return 32 * len(self.hash_units) + 2 * 16 * self.num_cmus

    def __repr__(self) -> str:
        return f"CmuGroup(id={self.group_id}, cmus={self.num_cmus})"
