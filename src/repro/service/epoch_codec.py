"""The sealed-epoch codec: one binary, checksummed frame per record.

A sealed epoch is the system's artifact -- immutable and self-describing --
so it is encoded exactly once, when it seals, and every later consumer (a
WAL append, a roll's compaction base, a reattach) moves those bytes
verbatim.  A frame is::

    prefix   magic "FMWL" | version u8 | kind u8 | header bytes u32
             | body bytes u64 | CRC32 of the preceding 18 bytes      (22 B)
    header   compact JSON, UTF-8
    body     raw bytes (little-endian cells, or whole embedded frames)
    trailer  CRC32 of header + body                                   (4 B)

A ``seal`` frame's header carries the epoch metadata, series outputs,
watcher events, alarm digests and, per task and row, ``[dtype, length]``;
its body is the rows' cells back to back, each row in the narrowest
unsigned dtype that holds its maximum (``u1``/``u2``/``u4``), ``i8`` when
a cell is negative or wider than 32 bits.  A ``base`` frame's body is the
retained seal frames spliced in whole, an ``op`` frame has no body.

The prefix has its own checksum so that a flipped length byte cannot send
the reader past the end of the file and pass for a torn tail:
:func:`iter_frames` drops a truncated or checksum-failing *final* frame
silently (the record being written when the process died) and raises
:class:`CodecError` for damage anywhere before it.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

MAGIC = b"FMWL"
FORMAT_VERSION = 3

KIND_BASE = 1
KIND_OP = 2
KIND_SEAL = 3

_FIELDS = struct.Struct("<4sBBIQ")  # magic, version, kind, header, body
_CRC = struct.Struct("<I")
PREFIX_SIZE = _FIELDS.size + _CRC.size

#: dtype code -> largest cell it holds (rows are tried narrowest first).
_UNSIGNED = (("u1", 0xFF), ("u2", 0xFFFF), ("u4", 0xFFFFFFFF))
_DTYPES = {code: np.dtype("<" + code) for code in ("u1", "u2", "u4", "i8")}

Frame = Tuple[int, Dict[str, object], memoryview]


class CodecError(ValueError):
    """A frame is damaged, or written by a format this reader does not
    speak."""


# -- rows ---------------------------------------------------------------


def pack_row(values: np.ndarray) -> Tuple[List[object], bytes]:
    """``([dtype, length], cells)`` of one row of integer cells."""
    code = "u1"
    if len(values):
        low, high = int(values.min()), int(values.max())
        fits = (c for c, top in _UNSIGNED if low >= 0 and high <= top)
        code = next(fits, "i8")
    return [code, len(values)], values.astype(_DTYPES[code]).tobytes()


def pack_tasks(tasks) -> Tuple[Dict[str, object], List[bytes]]:
    """Header entry and body chunks for ``(task id, rows, digests)``
    triples; the chunks follow the header's task and row order."""
    specs: Dict[str, object] = {}
    chunks: List[bytes] = []
    for task_id, rows, digests in tasks:
        packed = [pack_row(row) for row in rows]
        specs[str(task_id)] = {
            "rows": [spec for spec, _ in packed],
            "digests": digests,
        }
        chunks.extend(cells for _, cells in packed)
    return specs, chunks


def decode_epoch(header: Dict[str, object], body: memoryview) -> Dict[str, object]:
    """A seal frame's header with every task's ``rows`` replaced by
    read-only arrays over ``body`` (no cell is copied)."""
    epoch = dict(header)
    tasks: Dict[str, object] = {}
    offset = 0
    for task_id, payload in header.get("tasks", {}).items():
        rows = []
        for code, length in payload["rows"]:
            dtype = _DTYPES.get(code)
            if dtype is None:
                raise CodecError(f"unknown row dtype {code!r}")
            if offset + length * dtype.itemsize > len(body):
                raise CodecError("row lengths exceed the frame body")
            rows.append(np.frombuffer(body, dtype=dtype, count=length, offset=offset))
            offset += length * dtype.itemsize
        tasks[task_id] = {"rows": rows, "digests": payload["digests"]}
    if offset != len(body):
        raise CodecError("frame body is longer than its row lengths")
    epoch["tasks"] = tasks
    return epoch


# -- frames -------------------------------------------------------------


def encode_frame(
    kind: int, header: Dict[str, object], body: Sequence[bytes] = ()
) -> bytes:
    head = json.dumps(header, separators=(",", ":")).encode()
    fields = _FIELDS.pack(
        MAGIC, FORMAT_VERSION, kind, len(head), sum(len(part) for part in body)
    )
    crc = zlib.crc32(head)
    for part in body:
        crc = zlib.crc32(part, crc)
    return b"".join(
        (fields, _CRC.pack(zlib.crc32(fields)), head, *body, _CRC.pack(crc))
    )


def _parse_prefix(raw) -> Optional[Tuple[int, int, int]]:
    """``(kind, header bytes, body bytes)``, or ``None`` when the prefix is
    damaged; an intact prefix of another format version raises."""
    magic, version, kind, head, body = _FIELDS.unpack_from(raw)
    (crc,) = _CRC.unpack_from(raw, _FIELDS.size)
    if magic != MAGIC or crc != zlib.crc32(raw[: _FIELDS.size]):
        return None
    if version != FORMAT_VERSION:
        raise CodecError(
            f"frame format version {version} (this release reads "
            f"{FORMAT_VERSION} only)"
        )
    return kind, head, body


def _open_payload(payload, head: int, body: int):
    """``(header, body)`` of the bytes that follow a prefix, or ``None``
    when their checksum fails."""
    view = memoryview(payload)
    (crc,) = _CRC.unpack_from(view, head + body)
    if crc != zlib.crc32(view[: head + body]):
        return None
    try:
        header = json.loads(bytes(view[:head]))
    except ValueError as exc:
        raise CodecError(f"frame header is not JSON: {exc}") from exc
    return header, view[head : head + body]


def split_frames(buf) -> Iterator[Frame]:
    """The frames spliced back to back in ``buf`` (a base frame's body).
    Strict: any damage raises, nothing here can be a torn tail."""
    view = memoryview(buf)
    offset = 0
    while offset < len(view):
        if offset + PREFIX_SIZE > len(view):
            raise CodecError("embedded frame is cut short")
        prefix = _parse_prefix(view[offset : offset + PREFIX_SIZE])
        if prefix is None:
            raise CodecError("embedded frame has a damaged prefix")
        kind, head, body = prefix
        start = offset + PREFIX_SIZE
        offset = start + head + body + _CRC.size
        if offset > len(view):
            raise CodecError("embedded frame is cut short")
        opened = _open_payload(view[start:offset], head, body)
        if opened is None:
            raise CodecError("embedded frame fails its checksum")
        yield (kind, *opened)


def _intact_prefix_follows(fh: BinaryIO, start: int) -> bool:
    """Whether any frame starts between ``start`` and the end of the file
    -- what tells mid-log damage from a damaged final frame once a prefix
    (and with it the frame's length) cannot be trusted."""
    fh.seek(start)
    window = b""
    while True:
        chunk = fh.read(1 << 16)
        if not chunk:
            return False
        window = window[-(PREFIX_SIZE - 1) :] + chunk
        at = window.find(MAGIC)
        while at != -1:
            candidate = window[at : at + PREFIX_SIZE]
            if len(candidate) == PREFIX_SIZE:
                try:
                    if _parse_prefix(candidate) is not None:
                        return True
                except CodecError:
                    return True  # an intact prefix, of another version
            at = window.find(MAGIC, at + 1)


def iter_frames(fh: BinaryIO, origin: str) -> Iterator[Frame]:
    """Stream the frames of a binary file opened at a frame boundary.

    One frame is in memory at a time.  A final frame that is cut short or
    fails a checksum is dropped silently; the same damage with a frame
    after it raises :class:`CodecError`.
    """
    offset = fh.tell()
    size = fh.seek(0, 2)
    fh.seek(offset)
    while offset < size:
        raw = fh.read(PREFIX_SIZE)
        if len(raw) < PREFIX_SIZE:
            return  # torn inside the prefix
        try:
            prefix = _parse_prefix(raw)
        except CodecError as exc:
            raise CodecError(f"{origin}@{offset}: {exc}") from exc
        if prefix is None:
            if _intact_prefix_follows(fh, offset + 1):
                raise CodecError(
                    f"{origin}@{offset}: corrupt frame prefix mid-log"
                )
            return
        kind, head, body = prefix
        end = offset + PREFIX_SIZE + head + body + _CRC.size
        if end > size:
            return  # torn tail: the frame's last bytes never hit the disk
        opened = _open_payload(fh.read(end - offset - PREFIX_SIZE), head, body)
        if opened is None:
            if end < size:
                raise CodecError(
                    f"{origin}@{offset}: corrupt frame mid-log "
                    "(checksum mismatch)"
                )
            return
        yield (kind, *opened)
        offset = end
