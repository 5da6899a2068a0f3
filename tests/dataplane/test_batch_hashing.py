"""Batched hashing must be bit-identical to the scalar reference path."""

import zlib

import numpy as np
import pytest

from repro.dataplane.crc import Crc32, POLY_CRC32C
from repro.dataplane.hashing import (
    HashFunction,
    HashMask,
    crc32_batch,
    uint64_le_bytes,
)
from repro.dataplane.phv import FieldSpec
from repro.dataplane.hashing import DynamicHashUnit
from repro.traffic.batch import PacketBatch

RNG = np.random.default_rng(42)

_BYTE_TABLE = np.array(
    [zlib.crc32(bytes([b]), 0xFFFFFFFF) ^ 0xFFFFFFFF for b in range(256)],
    dtype=np.uint32,
)


def _crc32_byte_loop(data, seed=0):
    """The per-byte table walk ``crc32_batch`` used to be (shift, xor, and,
    gather, xor per message byte): the reference for the position tables."""
    crc = np.full(data.shape[0], (seed ^ 0xFFFFFFFF) & 0xFFFFFFFF, dtype=np.uint32)
    for j in range(data.shape[1]):
        crc = (crc >> np.uint32(8)) ^ _BYTE_TABLE[(crc ^ data[:, j]) & np.uint32(0xFF)]
    return crc ^ np.uint32(0xFFFFFFFF)


class TestCrcBatch:
    def test_crc32_batch_matches_zlib(self):
        data = RNG.integers(0, 256, size=(64, 6), dtype=np.uint8)
        got = crc32_batch(data, seed=0x1234)
        for i in range(len(data)):
            assert int(got[i]) == zlib.crc32(bytes(data[i]), 0x1234)

    @pytest.mark.parametrize("length", range(0, 41))
    def test_crc32_batch_every_length_and_seed(self, length):
        # Odd lengths take the padded path; every length has its own set of
        # word distances, so its own position tables.
        data = RNG.integers(0, 256, size=(32, length), dtype=np.uint8)
        for seed in (0, 0xFFFFFFFF, int(RNG.integers(1, 1 << 32))):
            got = crc32_batch(data, seed=seed)
            assert got.dtype == np.uint32
            np.testing.assert_array_equal(got, _crc32_byte_loop(data, seed))
            assert got.tolist() == [zlib.crc32(bytes(row), seed) for row in data]

    def test_crc32_batch_accepts_strided_input(self):
        wide = RNG.integers(0, 256, size=(20, 16), dtype=np.uint8)
        data = wide[:, 3:10]  # not contiguous, odd length
        np.testing.assert_array_equal(crc32_batch(data, 9), _crc32_byte_loop(data, 9))

    def test_crc32_variant_batch_matches_scalar(self):
        crc = Crc32(POLY_CRC32C)
        data = RNG.integers(0, 256, size=(50, 8), dtype=np.uint8)
        got = crc.compute_batch(data)
        for i in range(len(data)):
            assert int(got[i]) == crc.compute(bytes(data[i]))

    def test_uint64_le_bytes_matches_to_bytes(self):
        values = RNG.integers(0, 1 << 48, size=20)
        mat = uint64_le_bytes(values, nbytes=6)
        for i, value in enumerate(values):
            assert bytes(mat[i]) == int(value).to_bytes(6, "little")


class TestHashFunctionBatch:
    def test_hash_int_batch_matches_scalar(self):
        fn = HashFunction(0xBEEF)
        values = RNG.integers(0, 1 << 62, size=100)
        got = fn.hash_int_batch(values, width=64)
        for i, value in enumerate(values):
            assert int(got[i]) == fn.hash_int(int(value), width=64)

    def test_hash_bytes_batch_matches_scalar(self):
        fn = HashFunction(7)
        data = RNG.integers(0, 256, size=(40, 12), dtype=np.uint8)
        got = fn.hash_bytes_batch(data)
        for i in range(len(data)):
            assert int(got[i]) == fn.hash_bytes(bytes(data[i]))


def _unit(crc=None) -> DynamicHashUnit:
    fields = (
        FieldSpec("src_ip", 32),
        FieldSpec("dst_ip", 32),
        FieldSpec("src_port", 16),
    )
    return DynamicHashUnit(0, fields, seed=0xABCD, crc=crc)


def _random_batch(n: int = 200) -> PacketBatch:
    return PacketBatch(
        {
            "src_ip": RNG.integers(0, 1 << 32, size=n),
            "dst_ip": RNG.integers(0, 1 << 32, size=n),
            "src_port": RNG.integers(0, 1 << 16, size=n),
        }
    )


class TestDynamicHashUnitBatch:
    @pytest.mark.parametrize(
        "mask",
        [
            {"src_ip": 32},
            {"src_ip": 24},  # prefix semantics: top 24 bits
            {"src_ip": 32, "src_port": 16},
            {"src_ip": 8, "dst_ip": 16, "src_port": 4},
        ],
    )
    def test_compute_batch_matches_scalar(self, mask):
        unit = _unit()
        unit.set_mask(HashMask.of(mask))
        batch = _random_batch()
        got = unit.compute_batch(batch)
        for i, fields in enumerate(batch.iter_fields()):
            assert int(got[i]) == unit.compute(fields)

    @pytest.mark.parametrize("crc", [None, Crc32(POLY_CRC32C)])
    @pytest.mark.parametrize("bits", [48, 40, 33, 32, 20, 8])
    def test_wide_field_spill_matches_scalar(self, bits, crc):
        # A >32-bit field appends its high word only when non-zero, so one
        # batch mixes message layouts; masks of <= 16 bits drop the upper
        # 16-bit word of a value from the hash input altogether.
        fields = (FieldSpec("mac", 48), FieldSpec("stamp", 64), FieldSpec("src_port", 16))
        unit = DynamicHashUnit(0, fields, seed=99, crc=crc)
        unit.set_mask(HashMask.of({"mac": bits, "stamp": 64, "src_port": 9}))
        n = 120
        mac = RNG.integers(0, 1 << 48, size=n)
        mac[::3] &= 0xFFFF  # these never spill
        stamp = RNG.integers(0, 1 << 63, size=n)
        stamp[::2] >>= 40
        batch = PacketBatch(
            {"mac": mac, "stamp": stamp, "src_port": RNG.integers(0, 1 << 16, size=n)}
        )
        got = unit.compute_batch(batch)
        for i, packet in enumerate(batch.iter_fields()):
            assert int(got[i]) == unit.compute(packet)

    def test_unconfigured_unit_yields_zeros(self):
        unit = _unit()
        assert (unit.compute_batch(_random_batch(16)) == 0).all()

    def test_missing_column_reads_as_zero(self):
        unit = _unit()
        unit.set_mask(HashMask.of({"src_ip": 32, "src_port": 16}))
        batch = PacketBatch({"src_ip": RNG.integers(0, 1 << 32, size=10)})
        got = unit.compute_batch(batch)
        for i, src_ip in enumerate(batch.get("src_ip")):
            assert int(got[i]) == unit.compute({"src_ip": int(src_ip)})

    def test_crc_backed_unit_matches_scalar(self):
        unit = _unit(crc=Crc32(POLY_CRC32C))
        unit.set_mask(HashMask.of({"src_ip": 32, "dst_ip": 20}))
        batch = _random_batch(64)
        got = unit.compute_batch(batch)
        for i, fields in enumerate(batch.iter_fields()):
            assert int(got[i]) == unit.compute(fields)
