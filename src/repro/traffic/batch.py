"""Structure-of-arrays packet batches for the vectorized datapath.

A :class:`PacketBatch` is the columnar dual of the per-packet field dict:
one NumPy ``int64`` column per PHV field, all of equal length.  The batch
engine streams whole batches through the pipeline (compression, ternary
classification, address translation, register execution) with one NumPy
kernel per stage instead of one Python dict per packet, which is what makes
trace replays interpreter-bound no longer (see docs/BATCHING.md).

Semantics mirror the scalar datapath exactly: a field absent from a packet
dict reads as 0 via ``fields.get(name, 0)``, so :meth:`PacketBatch.get`
returns a zero column for unknown names.  Columns written by CMUs (the
``_cmu_result/...`` / ``_cmu_p1/...`` PHV exports) are created on demand
with :meth:`ensure` and behave like per-packet PHV words.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.traffic.packet import PACKET_FIELDS


def env_batch_size() -> Optional[int]:
    """``FLYMON_BATCH_SIZE`` as an integer (``None`` when unset or empty).

    The one parser of that variable: a value that is not an integer raises
    ``ValueError`` naming the variable and the value, wherever it is read.
    """
    raw = os.environ.get("FLYMON_BATCH_SIZE", "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"FLYMON_BATCH_SIZE must be an integer, got {raw!r}"
        ) from None


class PacketBatch:
    """A fixed-length batch of packets stored column-per-field.

    Columns are ``int64`` arrays; the constructor normalizes dtypes but does
    not copy arrays that already match.  Batches are mutable in the same way
    the scalar PHV dict is: stages add or overwrite columns as the batch
    traverses the pipeline.
    """

    __slots__ = ("_columns", "_length")

    def __init__(self, columns: Mapping[str, np.ndarray], length: Optional[int] = None) -> None:
        self._columns: Dict[str, np.ndarray] = {}
        self._length = length
        for name, col in columns.items():
            arr = np.asarray(col, dtype=np.int64)
            if self._length is None:
                self._length = len(arr)
            elif len(arr) != self._length:
                raise ValueError(
                    f"column {name!r} has length {len(arr)}, expected {self._length}"
                )
            self._columns[name] = arr
        if self._length is None:
            self._length = 0

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_fields_dicts(dicts: Sequence[Mapping[str, int]]) -> "PacketBatch":
        """Build a batch from per-packet field dicts (the scalar layout)."""
        names: List[str] = []
        seen = set()
        for fields in dicts:
            for name in fields:
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        cols = {
            name: np.array([int(f.get(name, 0)) for f in dicts], dtype=np.int64)
            for name in names
        }
        return PacketBatch(cols, length=len(dicts))

    @staticmethod
    def empty() -> "PacketBatch":
        return PacketBatch({}, length=0)

    # -- column access ------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def get(self, name: str) -> np.ndarray:
        """The column for ``name`` -- zeros if the field was never written
        (matching ``fields.get(name, 0)`` on the scalar path).

        The zero column is *not* stored; use :meth:`ensure` for a column the
        caller will write to.
        """
        col = self._columns.get(name)
        if col is None:
            return np.zeros(self._length, dtype=np.int64)
        return col

    def ensure(self, name: str) -> np.ndarray:
        """Get-or-create a writable zero-initialized column."""
        col = self._columns.get(name)
        if col is None:
            col = np.zeros(self._length, dtype=np.int64)
            self._columns[name] = col
        return col

    def set(self, name: str, values: np.ndarray) -> None:
        arr = np.asarray(values, dtype=np.int64)
        if len(arr) != self._length:
            raise ValueError(
                f"column {name!r} has length {len(arr)}, expected {self._length}"
            )
        self._columns[name] = arr

    # -- scalar interop -----------------------------------------------------

    def iter_fields(self) -> Iterator[Dict[str, int]]:
        """Yield one mutable per-packet dict per row (scalar-path layout).

        Only materializes fields that exist as columns, exactly like the
        scalar PHV dict only holds fields some stage wrote.
        """
        names = list(self._columns)
        cols = [self._columns[n] for n in names]
        for row in zip(*cols) if names else iter([()] * self._length):
            yield dict(zip(names, (int(v) for v in row)))

    def to_fields_dicts(self) -> List[Dict[str, int]]:
        return list(self.iter_fields())

    def select(self, indices: np.ndarray) -> "PacketBatch":
        """A new batch holding only the given rows (copies)."""
        indices = np.asarray(indices)
        return PacketBatch(
            {name: col[indices] for name, col in self._columns.items()},
            length=len(indices),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PacketBatch(n={self._length}, columns={len(self._columns)})"


def batches_from_columns(
    columns: Mapping[str, np.ndarray], batch_size: int
) -> Iterator[PacketBatch]:
    """Slice equal-length columns into consecutive :class:`PacketBatch`es.

    Slices are NumPy views, so building batches from a
    :class:`repro.traffic.trace.Trace` copies no packet data.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    total = len(next(iter(columns.values()))) if columns else 0
    for start in range(0, total, batch_size):
        stop = min(start + batch_size, total)
        yield PacketBatch(
            {name: col[start:stop] for name, col in columns.items()},
            length=stop - start,
        )


def batch_from_trace_columns(columns: Mapping[str, np.ndarray]) -> PacketBatch:
    """One batch spanning a whole columnar trace (views, no copies)."""
    return PacketBatch({name: columns[name] for name in PACKET_FIELDS})
