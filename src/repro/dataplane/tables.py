"""Match-action tables: exact, ternary (TCAM), and range matching.

The preparation stage of a CMU leans on TCAM range matching (address
translation, parameter preprocessing), and Figure 11a counts TCAM entries, so
the classic prefix decomposition of ranges into ternary entries is implemented
here and reused both for matching and for resource accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry import TELEMETRY as _TELEMETRY


@dataclass(frozen=True)
class TernaryField:
    """One field of a ternary match key: ``packet & mask == value & mask``."""

    value: int
    mask: int

    def matches(self, packet_value: int) -> bool:
        return (packet_value & self.mask) == (self.value & self.mask)

    @staticmethod
    def exact(value: int, width: int) -> "TernaryField":
        return TernaryField(value, (1 << width) - 1)

    @staticmethod
    def wildcard() -> "TernaryField":
        return TernaryField(0, 0)

    @staticmethod
    def prefix(value: int, prefix_len: int, width: int) -> "TernaryField":
        """LPM-style prefix match on the ``prefix_len`` high bits."""
        if not 0 <= prefix_len <= width:
            raise ValueError(f"prefix_len {prefix_len} out of range for width {width}")
        if prefix_len == 0:
            return TernaryField.wildcard()
        mask = ((1 << prefix_len) - 1) << (width - prefix_len)
        return TernaryField(value & mask, mask)


def range_to_ternary(lo: int, hi: int, width: int) -> List[TernaryField]:
    """Decompose the inclusive range ``[lo, hi]`` into ternary prefixes.

    This is the standard TCAM range-expansion algorithm; the number of
    returned entries is what a real TCAM would consume, which Figure 11a
    measures for the TCAM-based address translation.
    """
    if not 0 <= lo <= hi < (1 << width):
        raise ValueError(f"range [{lo}, {hi}] invalid for width {width}")
    entries: List[TernaryField] = []
    while lo <= hi:
        # Largest power-of-two block aligned at `lo` that fits in [lo, hi].
        max_align = lo & -lo if lo else 1 << width
        size = max_align
        while size > hi - lo + 1:
            size >>= 1
        prefix_len = width - size.bit_length() + 1
        entries.append(TernaryField.prefix(lo, prefix_len, width))
        lo += size
    return entries


@dataclass(frozen=True)
class TableEntry:
    """One installed rule: a match, an action name, and action arguments.

    Higher ``priority`` wins among ternary entries that all match.
    """

    match: Tuple[Tuple[str, TernaryField], ...]
    action: str
    args: Tuple[Tuple[str, Any], ...] = ()
    priority: int = 0

    @staticmethod
    def build(
        match: Mapping[str, TernaryField],
        action: str,
        args: Optional[Mapping[str, Any]] = None,
        priority: int = 0,
    ) -> "TableEntry":
        return TableEntry(
            match=tuple(sorted(match.items())),
            action=action,
            args=tuple(sorted((args or {}).items())),
            priority=priority,
        )

    def args_dict(self) -> Dict[str, Any]:
        return dict(self.args)

    def matches(self, fields: Mapping[str, int]) -> bool:
        return all(tf.matches(int(fields.get(name, 0))) for name, tf in self.match)


#: Packed keys up to this many bits resolve through a direct-index table
#: (one gather); wider ones through a binary search over the sorted entry keys.
_DIRECT_KEY_BITS = 16


def _pack_layout(shape: Tuple[Tuple[str, int], ...]):
    """``([(name, mask, shift)], bits)`` packing one mask shape's masked
    fields side by side into a non-negative ``int64`` key -- or ``None`` when
    a mask is not one run of bits or the runs total more than 63 bits (a
    5-tuple exact match is 104).  ``shift`` is signed: positive is right."""
    layout, bits = [], 0
    for name, mask in shape:
        low = (mask & -mask).bit_length() - 1
        run = mask >> low
        if run & (run + 1):
            return None
        layout.append((name, mask, low - bits))
        bits += run.bit_length()
    return (layout, bits) if bits <= 63 else None


def _shifted(value, shift: int):
    return value >> shift if shift >= 0 else value << -shift


class TableClassifier(NamedTuple):
    """A table's rules compiled by mask shape (tuple space) for batches."""

    size: int  #: entry count: the position that means "no entry"
    #: What every packet resolves to at worst: the first wildcard entry, else
    #: ``size``.  Entries below it can never win and are not compiled.
    floor: int
    #: ``(layout, keys, positions)`` per packable multi-entry shape; ``keys is
    #: None`` means ``positions`` is indexed by the packed key itself.
    packed: List[tuple]
    single: List[tuple]  #: ``(position, [(name, mask, value)])``: masked equality
    unpackable: int  #: entries of ``single`` from multi-entry shapes that cannot pack
    values: Dict[tuple, np.ndarray]  #: ``classify_batch``'s ``(arg, default)`` tables


class MatchActionTable:
    """Base class: a named table holding prioritized entries."""

    def __init__(self, name: str, key_fields: Sequence[str], max_entries: int = 4096) -> None:
        self.name = name
        self.key_fields = tuple(key_fields)
        self.max_entries = max_entries
        self._entries: List[TableEntry] = []
        self.default_action: Optional[str] = None
        self.default_args: Dict[str, Any] = {}
        #: Compiled on the first batch after a rule change; every mutator
        #: drops it with one store and compiles nothing.
        self._classifier: Optional[TableClassifier] = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> Tuple[TableEntry, ...]:
        return tuple(self._entries)

    def set_default(self, action: str, args: Optional[Mapping[str, Any]] = None) -> None:
        self.default_action = action
        self.default_args = dict(args or {})
        self._classifier = None

    def insert(self, entry: TableEntry) -> TableEntry:
        for name, _ in entry.match:
            if name not in self.key_fields:
                raise KeyError(
                    f"table {self.name!r} has no key field {name!r} "
                    f"(keys: {self.key_fields})"
                )
        if len(self._entries) >= self.max_entries:
            raise TableFullError(
                f"table {self.name!r} is full ({self.max_entries} entries)"
            )
        self._entries.append(entry)
        self._entries.sort(key=lambda e: -e.priority)
        self._classifier = None
        return entry

    def remove(self, entry: TableEntry) -> None:
        self._entries.remove(entry)
        self._classifier = None

    def remove_where(self, predicate: Callable[[TableEntry], bool]) -> int:
        before = len(self._entries)
        self._entries = [e for e in self._entries if not predicate(e)]
        self._classifier = None
        return before - len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._classifier = None

    def lookup(self, fields: Mapping[str, int]) -> Tuple[Optional[str], Dict[str, Any]]:
        """First (highest-priority) matching entry, else the default action."""
        for entry in self._entries:
            if entry.matches(fields):
                return entry.action, entry.args_dict()
        return self.default_action, dict(self.default_args)

    def classifier(self) -> TableClassifier:
        """The rules compiled for batches, built on first use after a rule
        change; its identity is the rule set's version (a caller that derived
        state from it recompiles when this returns another object).

        Entries sharing a mask shape are one exact-match group on the masked,
        packed fields: a batch costs one lookup per *shape*, not per entry.
        """
        if self._classifier is not None:
            return self._classifier
        by_shape: Dict[tuple, List[int]] = {}
        for pos, entry in enumerate(self._entries):
            shape = tuple((name, tf.mask) for name, tf in entry.match if tf.mask)
            by_shape.setdefault(shape, []).append(pos)
        size = len(self._entries)
        floor = by_shape.pop((), [size])[0]
        packed, single, unpackable = [], [], 0
        for shape, positions in by_shape.items():
            positions = [pos for pos in positions if pos < floor]
            packing = _pack_layout(shape) if len(positions) > 1 else None
            if packing is None:
                unpackable += len(positions) if len(positions) > 1 else 0
                single += [
                    (pos, [(name, tf.mask, tf.value & tf.mask)
                           for name, tf in self._entries[pos].match if tf.mask])
                    for pos in positions
                ]
                continue
            layout, bits = packing
            first: Dict[int, int] = {}  # duplicate keys: the lowest position wins
            for pos in positions:
                match = dict(self._entries[pos].match)
                key = sum(_shifted(match[n].value & mask, shift) for n, mask, shift in layout)
                first.setdefault(key, pos)
            if bits <= _DIRECT_KEY_BITS:
                table = np.full(1 << bits, size, dtype=np.int64)
                table[list(first)] = list(first.values())
                packed.append((layout, None, table))
            else:  # sorted keys plus one pad slot, where keys above them all land
                keys = sorted(first)
                packed.append(
                    (layout, np.array(keys + keys[-1:]), np.array([first[k] for k in keys] + [size]))
                )
        self._classifier = TableClassifier(size, floor, packed, single, unpackable, {})
        return self._classifier

    def _winning_positions(self, batch, n: Optional[int]) -> np.ndarray:
        """Per packet, the lowest matching entry position -- ``lookup``'s
        first match by priority -- or ``len(entries)`` where none matches."""
        compiled = self.classifier()
        out = np.full(len(batch) if n is None else n, compiled.floor, dtype=np.int64)
        for layout, keys, positions in compiled.packed:
            name, mask, shift = layout[0]
            key = _shifted(batch.get(name) & mask, shift)
            for name, mask, shift in layout[1:]:
                key |= _shifted(batch.get(name) & mask, shift)
            if keys is None:
                found = positions[key]
            else:
                at = np.searchsorted(keys[:-1], key)
                found = np.where(keys[at] == key, positions[at], compiled.size)
            np.minimum(out, found, out=out)
        for pos, fields in compiled.single:
            hit = out > pos
            for name, mask, value in fields:
                hit &= (batch.get(name) & mask) == value
            out[hit] = pos
        if compiled.unpackable and _TELEMETRY.enabled:  # no silent slow path
            _TELEMETRY.registry.counter(
                "flymon_classify_fallback_total", reason="unpackable"
            ).inc(compiled.unpackable * len(out))
        return out

    def match_batch(self, batch, n: Optional[int] = None) -> np.ndarray:
        """Winning entry position per packet of a columnar batch.

        ``batch`` is a :class:`repro.traffic.batch.PacketBatch` (anything
        with ``get(name) -> ndarray`` works).  Returns an ``int64`` array
        whose element is the index into :attr:`entries` of the
        highest-priority matching entry, or ``-1`` where only the default
        action applies -- the batched dual of :meth:`lookup`, one lookup per
        mask shape (see :meth:`classifier`) instead of one per packet.
        """
        out = self._winning_positions(batch, n)
        out[out == len(self._entries)] = -1
        return out

    def classify_batch(
        self, batch, arg: str, n: Optional[int] = None, default: int = -1
    ) -> np.ndarray:
        """Per-packet value of integer action argument ``arg``.

        The batched task-selection primitive: for a CMU's task table,
        ``classify_batch(batch, "task_id")`` yields the task-id vector.
        Packets matching no entry (or an entry/default without ``arg``) get
        ``default``.
        """
        positions = self._winning_positions(batch, n)
        cache = self.classifier().values
        values = cache.get((arg, default))
        if values is None:
            found = [dict(entry.args).get(arg) for entry in self._entries]
            # One more slot answers the packets no entry matched.
            found.append(self.default_args.get(arg) if self.default_action is not None else None)
            values = cache[arg, default] = np.array(
                [default if value is None else int(value) for value in found], dtype=np.int64
            )
        return values[positions]


class TableFullError(RuntimeError):
    """Raised when inserting beyond a table's capacity."""


class ExactMatchTable(MatchActionTable):
    """SRAM-backed exact-match table (hash table in hardware)."""

    def insert_exact(
        self,
        key: Mapping[str, int],
        widths: Mapping[str, int],
        action: str,
        args: Optional[Mapping[str, Any]] = None,
    ) -> TableEntry:
        match = {
            name: TernaryField.exact(value, widths[name]) for name, value in key.items()
        }
        return self.insert(TableEntry.build(match, action, args))


class TernaryMatchTable(MatchActionTable):
    """TCAM-backed ternary table with prefix and range helpers."""

    def insert_range(
        self,
        range_field: str,
        lo: int,
        hi: int,
        width: int,
        action: str,
        args: Optional[Mapping[str, Any]] = None,
        extra_match: Optional[Mapping[str, TernaryField]] = None,
        priority: int = 0,
    ) -> List[TableEntry]:
        """Install ``[lo, hi]`` on ``range_field`` via prefix expansion.

        Returns every physical entry installed, so callers can account for
        the true TCAM cost of a range rule.
        """
        installed = []
        for tf in range_to_ternary(lo, hi, width):
            match = dict(extra_match or {})
            match[range_field] = tf
            installed.append(self.insert(TableEntry.build(match, action, args, priority)))
        return installed

    def tcam_entry_count(self) -> int:
        return len(self._entries)
