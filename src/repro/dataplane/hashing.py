"""Hash units, including Tofino-style dynamic hashing.

Tofino exposes a limited pool of hash distribution units per MAU stage.  SDE
9.7.0 added *dynamic hashing* (``tna_dyn_hashing``): the unit's input is wired
to a fixed candidate field set at compile time, but the control plane can
install masks at runtime selecting which fields (or field prefixes)
participate in the calculation.  FlyMon's compression stage is built on this
feature, so the model reproduces it faithfully:

* :class:`HashFunction` -- one seeded 32-bit hash (a stand-in for one CRC
  polynomial configuration).
* :class:`DynamicHashUnit` -- a hash unit bound to an ordered candidate field
  set, with a runtime-reconfigurable :class:`HashMask`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.dataplane.phv import FieldSpec

HASH_WIDTH = 32
HASH_MASK = (1 << HASH_WIDTH) - 1


def _fmix32(h: int) -> int:
    """Murmur3 finalizer; breaks the linearity of CRC for independence."""
    h &= HASH_MASK
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & HASH_MASK
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & HASH_MASK
    h ^= h >> 16
    return h


def _fmix32_batch(h: np.ndarray) -> np.ndarray:
    """:func:`_fmix32` over a uint32 array (wrap-around multiply matches the
    scalar's explicit 32-bit masking)."""
    h = h.astype(np.uint32, copy=True)
    h ^= h >> np.uint32(16)
    h *= np.uint32(0x85EBCA6B)
    h ^= h >> np.uint32(13)
    h *= np.uint32(0xC2B2AE35)
    h ^= h >> np.uint32(16)
    return h


def _zlib_crc_table() -> np.ndarray:
    """The reflected CRC-32 (IEEE/zlib) byte table as a uint32 array."""
    entries = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
        entries.append(crc)
    return np.array(entries, dtype=np.uint32)


_CRC32_TABLE = _zlib_crc_table()

#: ``{distance: table}``, built on first use and shared by the process; each
#: is 65,536 ``uint32`` = 256 KiB.  A ``<IH``-per-field layout uses one or two
#: per masked field; every ladder deployment ends up with the same eight (2 MiB).
_POSITION_TABLES: Dict[int, np.ndarray] = {}


def _position_table(distance: int) -> np.ndarray:
    """CRC-32 contribution of one little-endian 16-bit word followed by
    ``distance`` more message bytes.

    For a fixed message length the CRC is affine over GF(2): the CRC of the
    all-zero message (which carries the seed) XOR one term per message word
    that depends only on the word's value and its distance from the end.
    ``table[w]`` is that term: the raw zero-init register after the word's
    two bytes and ``distance`` zero bytes.
    """
    table = _POSITION_TABLES.get(distance)
    if table is None:
        # Zero-init register after one byte, then shifted through zero bytes.
        after = [_CRC32_TABLE]
        for _ in range(distance + 1):
            prev = after[-1]
            after.append((prev >> np.uint32(8)) ^ _CRC32_TABLE[prev & np.uint32(0xFF)])
        word = np.arange(1 << 16)
        table = after[distance + 1][word & 0xFF] ^ after[distance][word >> 8]
        _POSITION_TABLES[distance] = table
    return table


def _crc32_words(n: int, template: bytes, seed: int, words) -> np.ndarray:
    """``zlib.crc32(message, seed)`` for ``n`` messages given as ``template``
    (the bytes every message shares, zero elsewhere) plus ``words``:
    ``(byte offset, column of 16-bit word values)`` pairs.  One table gather
    and one XOR per word."""
    crc = np.full(n, zlib.crc32(template, seed), dtype=np.uint32)
    for offset, column in words:
        crc ^= np.take(_position_table(len(template) - offset - 2), column)
    return crc


def crc32_batch(data: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized ``zlib.crc32(row, seed)`` over an ``(n, L)`` uint8 matrix,
    bit-identical to the scalar zlib call, by position tables over the
    rows' 16-bit words."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    n, length = data.shape
    pad = length & 1
    if pad:
        # A leading zero byte leaves a zero-init CRC register at zero, so it
        # moves no word's distance from the end.
        padded = np.zeros((n, length + 1), dtype=np.uint8)
        padded[:, 1:] = data
        data = padded
    words = data.view("<u2")
    return _crc32_words(
        n,
        bytes(length),
        seed,
        [(2 * k - pad, words[:, k]) for k in range(words.shape[1])],
    )


def uint64_le_bytes(values: np.ndarray, nbytes: int = 8) -> np.ndarray:
    """Little-endian byte matrix ``(n, nbytes)`` of a uint64 array -- the
    columnar dual of ``int.to_bytes(nbytes, "little")``."""
    values = np.ascontiguousarray(values, dtype="<u8")
    return values.view(np.uint8).reshape(len(values), 8)[:, :nbytes]


class HashFunction:
    """A seeded 32-bit hash over byte strings.

    Different seeds model different CRC polynomial configurations; outputs for
    distinct seeds behave as independent hash functions for sketching
    purposes.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed) & HASH_MASK
        self._seed_bytes = struct.pack("<I", self.seed)

    def hash_bytes(self, data: bytes) -> int:
        return _fmix32(zlib.crc32(data, self.seed) ^ self.seed)

    def hash_int(self, value: int, width: int = 64) -> int:
        nbytes = max(1, (width + 7) // 8)
        return self.hash_bytes(int(value).to_bytes(nbytes, "little", signed=False))

    def hash_bytes_batch(self, data: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`hash_bytes` over an ``(n, L)`` uint8 matrix."""
        return _fmix32_batch(crc32_batch(data, self.seed) ^ np.uint32(self.seed))

    def hash_words_batch(self, template: bytes, words) -> np.ndarray:
        """Row-wise :meth:`hash_bytes` of messages in the ``template`` +
        ``words`` form of :func:`_crc32_words` (at least one word)."""
        crc = _crc32_words(len(words[0][1]), template, self.seed, words)
        return _fmix32_batch(crc ^ np.uint32(self.seed))

    def hash_int_batch(self, values: np.ndarray, width: int = 64) -> np.ndarray:
        """Row-wise :meth:`hash_int` over a non-negative integer array
        (``width`` at most 64 -- the widths the datapath uses)."""
        if width > 64:
            raise ValueError("hash_int_batch supports widths up to 64 bits")
        nbytes = max(1, (width + 7) // 8)
        return self.hash_bytes_batch(uint64_le_bytes(values, nbytes)).astype(np.int64)

    def __repr__(self) -> str:
        return f"HashFunction(seed={self.seed:#010x})"


def hash_family(count: int, base_seed: int = 0xF17E50) -> list:
    """A list of ``count`` independent :class:`HashFunction` objects."""
    return [HashFunction(base_seed + 0x9E3779B9 * i) for i in range(count)]


class _CrcAdapter:
    """Adapts a :class:`repro.dataplane.crc.Crc32` to the hash interface."""

    def __init__(self, crc) -> None:
        self._crc = crc
        self.seed = crc.poly

    def hash_bytes(self, data: bytes) -> int:
        return self._crc.compute(data)

    def hash_bytes_batch(self, data: np.ndarray) -> np.ndarray:
        return self._crc.compute_batch(data)

    def hash_words_batch(self, template: bytes, words) -> np.ndarray:
        # A genuine CRC variant has no position tables: spell the bytes out.
        row = np.frombuffer(template, dtype=np.uint8)
        data = np.tile(row, (len(words[0][1]), 1))
        for offset, column in words:
            data[:, offset] = column & 0xFF
            data[:, offset + 1] = column >> 8
        return self._crc.compute_batch(data)


@dataclass(frozen=True)
class HashMask:
    """Runtime configuration of a dynamic hash unit.

    ``field_bits`` maps field name -> number of most-significant bits of that
    field to include (``width`` for the full field, smaller values model
    prefix keys like ``SrcIP/24``).  Fields absent from the mapping do not
    participate.  An empty mask means the unit contributes nothing (used for
    unconfigured units).
    """

    field_bits: Tuple[Tuple[str, int], ...] = ()

    @staticmethod
    def of(mapping: Mapping[str, int]) -> "HashMask":
        return HashMask(tuple(sorted(mapping.items())))

    @staticmethod
    def full_fields(names: Iterable[str], specs: Mapping[str, FieldSpec]) -> "HashMask":
        return HashMask.of({name: specs[name].width for name in names})

    def as_dict(self) -> Dict[str, int]:
        return dict(self.field_bits)

    @property
    def is_empty(self) -> bool:
        return not self.field_bits

    def describe(self) -> str:
        if self.is_empty:
            return "<empty>"
        parts = []
        for name, bits in self.field_bits:
            parts.append(f"{name}/{bits}")
        return "+".join(parts)


class DynamicHashUnit:
    """A hash distribution unit with runtime-reconfigurable input masks.

    The candidate field set is fixed at construction (the compile-time
    wiring); :meth:`set_mask` installs a new mask at runtime, exactly like a
    ``tna_dyn_hashing`` control-plane call.  :meth:`compute` hashes the masked
    candidate fields of one packet into a 32-bit compressed key.

    By default the digest is the fast seeded :class:`HashFunction`; pass a
    :class:`repro.dataplane.crc.Crc32` as ``crc`` to compute a genuine CRC
    variant instead (higher hardware fidelity, pure-Python speed).
    """

    def __init__(
        self,
        unit_id: int,
        candidate_fields: Sequence[FieldSpec],
        seed: int,
        crc=None,
    ) -> None:
        if not candidate_fields:
            raise ValueError("a hash unit needs at least one candidate field")
        self.unit_id = unit_id
        self._specs: Dict[str, FieldSpec] = {f.name: f for f in candidate_fields}
        self._order = tuple(f.name for f in candidate_fields)
        if crc is not None:
            self._fn = _CrcAdapter(crc)
        else:
            self._fn = HashFunction(seed)
        self._mask = HashMask()

    @property
    def mask(self) -> HashMask:
        return self._mask

    @property
    def candidate_field_names(self) -> Tuple[str, ...]:
        return self._order

    def set_mask(self, mask: HashMask) -> None:
        """Install a hash-mask rule (validates fields against the wiring)."""
        for name, bits in mask.field_bits:
            spec = self._specs.get(name)
            if spec is None:
                raise KeyError(
                    f"field {name!r} is not in hash unit {self.unit_id}'s "
                    f"candidate set {self._order}"
                )
            if not 0 < bits <= spec.width:
                raise ValueError(
                    f"mask of {bits} bits invalid for field {name!r} "
                    f"(width {spec.width})"
                )
        self._mask = mask

    def clear_mask(self) -> None:
        self._mask = HashMask()

    def compute(self, fields: Mapping[str, int]) -> int:
        """32-bit compressed key of the masked candidate fields.

        Unconfigured units return 0, matching hardware where a zeroed hash
        configuration contributes a constant.
        """
        if self._mask.is_empty:
            return 0
        mask_bits = dict(self._mask.field_bits)
        pieces = []
        for name in self._order:
            bits = mask_bits.get(name)
            if bits is None:
                continue
            spec = self._specs[name]
            value = int(fields.get(name, 0)) & spec.mask
            # Keep the most-significant `bits` bits: prefix semantics.
            value >>= spec.width - bits
            pieces.append(struct.pack("<IH", value & 0xFFFFFFFF, bits))
            if value >> 32:
                pieces.append(struct.pack("<I", value >> 32))
        return self._fn.hash_bytes(b"".join(pieces))

    def compute_batch(self, batch) -> np.ndarray:
        """Columnar :meth:`compute`: one 32-bit key per packet of ``batch``.

        ``batch`` is a :class:`repro.traffic.batch.PacketBatch` (or anything
        with ``__len__`` and ``get(name) -> ndarray``).  The packed message
        per packet is the same fixed-width ``<IH``-per-field layout the
        scalar path builds, so hashes are bit-identical.
        """
        n = len(batch)
        if self._mask.is_empty:
            return np.zeros(n, dtype=np.int64)
        mask_bits = dict(self._mask.field_bits)
        parts = []  # (low 32 bits, bits, high word or None)
        for name in self._order:
            bits = mask_bits.get(name)
            if bits is None:
                continue
            spec = self._specs[name]
            if spec.width > 32:
                # Wide fields can spill a second word (the scalar path's
                # `value >> 32` branch): carry the high word alongside.
                values = (batch.get(name).astype(np.uint64) & np.uint64(spec.mask)) >> np.uint64(
                    spec.width - bits
                )
                low = (values & np.uint64(0xFFFFFFFF)).astype(np.int64)
                parts.append((low, bits, (values >> np.uint64(32)).astype(np.int64)))
            else:
                values = (batch.get(name) & spec.mask) >> (spec.width - bits)
                parts.append((values, bits, None))
        wide = [i for i, part in enumerate(parts) if part[2] is not None]
        if not wide:
            return self._hash_fixed_layout(parts, slice(None), ())
        # The message layout varies per packet: a wide field appends its high
        # word only when non-zero.  Partition rows by their spill signature
        # (which wide fields spill); each signature class shares one fixed
        # layout and hashes as a single vectorized call.
        sig = np.zeros(n, dtype=np.int64)
        for k, i in enumerate(wide):
            sig |= (parts[i][2] != 0).astype(np.int64) << k
        out = np.empty(n, dtype=np.int64)
        for s in np.unique(sig):
            rows = np.nonzero(sig == s)[0]
            spilled = tuple(i for k, i in enumerate(wide) if (int(s) >> k) & 1)
            out[rows] = self._hash_fixed_layout(parts, rows, spilled)
        return out

    def _hash_fixed_layout(self, parts, rows, spilled: Tuple[int, ...]) -> np.ndarray:
        """Hash the rows whose packed message shares one layout: the ``<IH``
        chunk per field, plus a 4-byte high word after each field in
        ``spilled`` (by position in ``parts``).

        The message is never materialized: each 32-bit value goes to the
        hash function as its 16-bit words (the upper one only where the mask
        lets it be non-zero) and the ``bits`` shorts as the template every
        row shares.
        """
        template = bytearray()
        words = []
        for i, (values, bits, high) in enumerate(parts):
            chunks = [(values, min(bits, 32), struct.pack("<IH", 0, bits))]
            if i in spilled:
                chunks.append((high, bits - 32, bytes(4)))
            for column, width, chunk in chunks:
                column = column[rows]
                words.append((len(template), column & 0xFFFF))
                if width > 16:
                    words.append((len(template) + 2, column >> 16))
                template += chunk
        return self._fn.hash_words_batch(bytes(template), words).astype(np.int64)

    def __repr__(self) -> str:
        return f"DynamicHashUnit(id={self.unit_id}, mask={self._mask.describe()})"
