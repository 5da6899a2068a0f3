"""Address translation: dynamic memory on a fixed register (§3.3, Fig. 9, 11).

The selected key is a full-range address in ``[0, m)``; the preparation
stage narrows it into the task's partition ``[base, base + length)``.  Both
hardware strategies are modeled, with their distinct resource costs:

* **Shift-based** -- right-shift the address by ``log2(m / length)`` and add
  the base.  Functionally free of TCAM, but either costs an extra MAU stage
  or pre-computes every possible shifted copy in the initialization stage at
  the price of PHV bits (Fig. 11b).
* **TCAM-based** -- range-match the address and add a per-source-chunk
  offset so ``addr' = base + (addr mod length)``; needs ``m/length - 1``
  TCAM entries per task plus a shared default (Fig. 11a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.memory import MemRange

STRATEGY_SHIFT = "shift"
STRATEGY_TCAM = "tcam"


def _log2(value: int) -> int:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


@dataclass(frozen=True)
class ShiftTranslation:
    """Shift-based translation: high address bits select within the range."""

    register_size: int
    mem: MemRange

    @property
    def shift(self) -> int:
        return _log2(self.register_size) - _log2(self.mem.length)

    def translate(self, address: int) -> int:
        address &= self.register_size - 1
        return self.mem.base + (address >> self.shift)

    def table_rules(self) -> int:
        """Runtime rules: one shift rule + one base-add rule."""
        return 2

    @staticmethod
    def phv_bits_for(num_partitions: int, address_bits: int = 32) -> int:
        """PHV cost of the single-stage variant (Fig. 11b): pre-computing a
        shifted copy of the address for every possible partition level."""
        if num_partitions <= 0 or num_partitions & (num_partitions - 1):
            raise ValueError("num_partitions must be a positive power of two")
        levels = _log2(num_partitions) + 1  # shifts 0 .. log2(p)
        return levels * address_bits


@dataclass(frozen=True)
class TcamTranslation:
    """TCAM-based translation: range-match chunks, add per-chunk offsets."""

    register_size: int
    mem: MemRange

    def translate(self, address: int) -> int:
        address &= self.register_size - 1
        return self.mem.base + (address % self.mem.length)

    def tcam_entries(self) -> int:
        """Physical TCAM entries this task's translation occupies.

        Each aligned ``length``-sized chunk of ``[0, m)`` other than the
        target chunk needs one range entry mapping it onto the target
        (power-of-two aligned ranges expand to exactly one ternary entry).
        """
        chunks = self.register_size // self.mem.length
        return chunks - 1

    def entry_plan(self) -> List[Tuple[int, int, int]]:
        """The ``(chunk_lo, chunk_hi_inclusive, offset_mod_m)`` entries."""
        out = []
        length = self.mem.length
        for chunk_base in range(0, self.register_size, length):
            if chunk_base == self.mem.base:
                continue
            offset = (self.mem.base - chunk_base) % self.register_size
            out.append((chunk_base, chunk_base + length - 1, offset))
        return out

    def table_rules(self) -> int:
        return self.tcam_entries()


def make_translation(strategy: str, register_size: int, mem: MemRange):
    if strategy == STRATEGY_SHIFT:
        return ShiftTranslation(register_size, mem)
    if strategy == STRATEGY_TCAM:
        return TcamTranslation(register_size, mem)
    raise ValueError(f"unknown address-translation strategy {strategy!r}")


def tcam_usage_fraction(
    num_partitions: int,
    tasks_per_cmu: int = None,
    stage_tcam_entries: int = 24 * 512,
) -> float:
    """Fraction of one MAU stage's TCAM used by TCAM-based translation when a
    CMU is split into ``num_partitions`` partitions (Fig. 11a).

    Worst case: every partition hosts a task of the minimum size, each
    needing ``num_partitions - 1`` entries.
    """
    if tasks_per_cmu is None:
        tasks_per_cmu = num_partitions
    entries = tasks_per_cmu * (num_partitions - 1) + 1  # + shared default
    return entries / stage_tcam_entries
