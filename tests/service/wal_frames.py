"""On-disk WAL frames, located the way docs/SERVICE.md lays them out.

The helpers parse the 22-byte prefix themselves (not through the codec's
reader), so the damage tests cut and flip bytes at positions the format
document promises, not wherever the implementation happens to put them.
"""

import struct
from pathlib import Path
from typing import List, NamedTuple

from repro.service.checkpoint import _json_safe

#: magic, version, kind, header bytes, body bytes, CRC32 of those fields.
PREFIX = struct.Struct("<4sBBIQI")
TRAILER_SIZE = 4


class FrameSpan(NamedTuple):
    """Byte ranges of one top-level frame in a WAL file."""

    start: int
    header: int  # first header byte
    body: int  # first body byte (== trailer when the body is empty)
    trailer: int  # first trailer byte
    end: int


def frame_spans(path) -> List[FrameSpan]:
    data = Path(path).read_bytes()
    spans, at = [], 0
    while at < len(data):
        magic, _version, _kind, head, body, _crc = PREFIX.unpack_from(data, at)
        assert magic == b"FMWL", f"no frame at byte {at} of {path}"
        header = at + PREFIX.size
        trailer = header + head + body
        spans.append(
            FrameSpan(at, header, header + head, trailer, trailer + TRAILER_SIZE)
        )
        at = trailer + TRAILER_SIZE
    assert at == len(data), f"{path} ends inside a frame"
    return spans


def flip_byte(path, offset: int) -> None:
    data = bytearray(Path(path).read_bytes())
    data[offset] ^= 0x40
    Path(path).write_bytes(bytes(data))


def truncate_to(path, size: int) -> None:
    Path(path).write_bytes(Path(path).read_bytes()[:size])


def comparable(records):
    """WAL records with their row arrays as lists, so ``==`` works."""
    return _json_safe(list(records))
