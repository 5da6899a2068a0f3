"""The sealed-epoch codec and the WAL's frame reader.

Three things are pinned here.  The codec round-trips any integer rows
(every dtype the narrowing rule can pick, negative cells, empty rows, empty
digests).  A real segment truncated at *every* byte of its last frame
recovers exactly the records before it, and a torn base sends recovery back
one segment.  One flipped byte in a frame's prefix, header, body or trailer
raises :class:`WalError` when a frame follows it and only drops the frame
when it is the last one -- the prefix checksum is what keeps a flipped
length byte from reading as a torn tail.
"""

import io
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    MeasurementService,
    ServiceWal,
    WalError,
    iter_wal_records,
    recover_service_artifact,
    wal_segments,
)
from repro.service.epoch_codec import (
    KIND_SEAL,
    CodecError,
    decode_epoch,
    encode_frame,
    iter_frames,
    pack_row,
    pack_tasks,
)
from repro.service.wal import read_wal_records
from repro.traffic import zipf_trace

from service_tasks import freq_task
from wal_frames import PREFIX, comparable, flip_byte, frame_spans

# -- the codec ----------------------------------------------------------

#: One strategy per outcome of the narrowing rule, plus the empty row.
_RANGES = {
    "u1": (0, 0xFF),
    "u2": (0x100, 0xFFFF),
    "u4": (0x1_0000, 0xFFFF_FFFF),
    "i8": (0x1_0000_0000, (1 << 63) - 1),
    "negative": (-(1 << 63), -1),
}


def _row(low, high):
    return st.lists(st.integers(low, high), min_size=1, max_size=40)


_rows = st.one_of(
    st.just([]),
    *[_row(low, high) for low, high in _RANGES.values()],
    # a wide cell among narrow ones decides the whole row
    st.tuples(_row(0, 0xFF), _row(-5, 1 << 40)).map(lambda pair: pair[0] + pair[1]),
)
_digests = st.lists(
    st.lists(st.integers(0, 0xFFFF_FFFF), min_size=1, max_size=5),
    max_size=3,
)


class TestRoundTrip:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_integer_rows_survive_a_frame(self, data):
        tasks = []
        for task_id in range(data.draw(st.integers(0, 4))):
            rows = data.draw(st.lists(_rows, max_size=4))
            digests = [data.draw(_digests) for _ in rows]
            tasks.append(
                (task_id * 7, [np.array(r, dtype=np.int64) for r in rows], digests)
            )
        specs, chunks = pack_tasks(tasks)
        meta = {
            "index": data.draw(st.integers(0, 1 << 40)),
            "packets": 12,
            "start_ts": None,
            "end_ts": 99,
            "seal_ms": 0.25,
            "outputs": {"cardinality": 17.5},
            "watcher_events": [],
            "tasks": specs,
        }
        frame = encode_frame(KIND_SEAL, meta, chunks)
        ((kind, header, body),) = iter_frames(io.BytesIO(frame), "memory")
        assert kind == KIND_SEAL
        epoch = decode_epoch(header, body)
        assert {k: v for k, v in epoch.items() if k != "tasks"} == {
            k: v for k, v in meta.items() if k != "tasks"
        }
        assert list(epoch["tasks"]) == [str(task_id) for task_id, _, _ in tasks]
        for task_id, rows, digests in tasks:
            payload = epoch["tasks"][str(task_id)]
            assert payload["digests"] == digests
            assert [r.tolist() for r in payload["rows"]] == [
                r.tolist() for r in rows
            ]

    @pytest.mark.parametrize("code", sorted(_RANGES))
    def test_narrowest_dtype_that_holds_the_row(self, code):
        low, high = _RANGES[code]
        (dtype, length), cells = pack_row(np.array([low, high], dtype=np.int64))
        assert dtype == ("i8" if code == "negative" else code)
        assert length == 2
        assert len(cells) == 2 * int(dtype[1])

    def test_bytes_fall_against_json(self):
        # The JSON-lines WAL spent three bytes on an empty cell ("0, ").
        (dtype, _), cells = pack_row(np.zeros(4096, dtype=np.int64))
        assert dtype == "u1" and len(cells) == 4096 < 3 * 4096

    def test_row_lengths_must_match_the_body(self):
        specs, chunks = pack_tasks([(1, [np.arange(8)], [[]])])
        body = memoryview(b"".join(chunks))
        with pytest.raises(CodecError, match="longer"):
            decode_epoch({"tasks": specs}, memoryview(bytes(body) + b"\0"))
        with pytest.raises(CodecError, match="exceed"):
            decode_epoch({"tasks": specs}, body[:-1])

    def test_another_format_version_is_refused_by_number(self):
        frame = bytearray(encode_frame(KIND_SEAL, {"tasks": {}}))
        frame[4] = 9  # the version byte; re-seal the prefix around it
        frame[PREFIX.size - 4 : PREFIX.size] = zlib.crc32(
            bytes(frame[: PREFIX.size - 4])
        ).to_bytes(4, "little")
        with pytest.raises(CodecError, match="version 9"):
            list(iter_frames(io.BytesIO(bytes(frame)), "memory"))


# -- the reader, on what ServiceWal really writes -----------------------


@pytest.fixture
def segment_dir(controller, tmp_path):
    """A small segmented WAL: the newest segment holds a base (embedding
    the retained epochs) and at least two seal records after it."""
    controller.add_task(freq_task(memory=256, depth=2, threshold=150))
    service = MeasurementService(controller, epoch_packets=500, retain=4)
    wal = ServiceWal(str(tmp_path / "seg"), segment_seals=3).attach(service)
    service.ingest(zipf_trace(num_flows=100, num_packets=5500, seed=9))
    wal.close()
    newest = wal_segments(str(tmp_path / "seg"))[-1][1]
    assert len(frame_spans(newest)) >= 3, "need a base and two seals"
    return str(tmp_path / "seg")


class TestTruncation:
    def test_every_byte_of_the_last_frame(self, segment_dir):
        newest = wal_segments(segment_dir)[-1][1]
        data = Path(newest).read_bytes()
        intact = comparable(read_wal_records(newest))
        last = frame_spans(newest)[-1]
        for size in range(last.start, last.end):
            Path(newest).write_bytes(data[:size])
            assert comparable(read_wal_records(newest)) == intact[:-1], (
                f"cut at byte {size - last.start} of the last frame"
            )
        Path(newest).write_bytes(data)
        assert comparable(read_wal_records(newest)) == intact

    def test_torn_base_reads_as_no_records_and_falls_back(self, segment_dir):
        (_, older), (_, newest) = wal_segments(segment_dir)[-2:]
        base = frame_spans(newest)[0]
        assert base.end > 2_000
        data = Path(newest).read_bytes()
        expected = recover_service_artifact(older)["epochs"]
        offsets = sorted(
            {0, 1, PREFIX.size - 1, PREFIX.size, base.body, base.trailer,
             base.end - 1, *range(7, base.end, 397)}
        )  # fmt: skip
        for size in offsets:
            Path(newest).write_bytes(data[:size])
            assert read_wal_records(newest) == []
            fallback = recover_service_artifact(segment_dir)
            assert fallback["stats"]["wal_segment_path"] == older
            assert fallback["epochs"] == expected


class TestFlippedBytes:
    REGIONS = ("prefix", "length", "header", "body", "trailer")

    @staticmethod
    def _offset(span, region):
        return {
            "prefix": span.start + 5,  # the kind byte
            "length": span.start + 17,  # top byte of the body length
            "header": (span.header + span.body) // 2,
            "body": (span.body + span.trailer) // 2,
            "trailer": span.trailer + 1,
        }[region]

    @pytest.mark.parametrize("region", REGIONS)
    def test_damage_before_the_last_frame_raises(self, segment_dir, region):
        newest = wal_segments(segment_dir)[-1][1]
        spans = frame_spans(newest)
        for span in spans[:-1]:  # the base, then every seal but the last
            data = Path(newest).read_bytes()
            flip_byte(newest, self._offset(span, region))
            with pytest.raises(WalError, match="mid-log"):
                list(iter_wal_records(newest))
            with pytest.raises(WalError, match="mid-log"):
                recover_service_artifact(segment_dir)
            Path(newest).write_bytes(data)

    @pytest.mark.parametrize("region", REGIONS)
    def test_damage_in_the_last_frame_drops_it(self, segment_dir, region):
        newest = wal_segments(segment_dir)[-1][1]
        intact = comparable(read_wal_records(newest))
        flip_byte(newest, self._offset(frame_spans(newest)[-1], region))
        assert comparable(read_wal_records(newest)) == intact[:-1]
        recovered = recover_service_artifact(segment_dir)
        assert recovered["epochs"][-1]["index"] == intact[-2]["index"]
