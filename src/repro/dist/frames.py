"""Wire format for cross-shard control messages.

Every message that crosses a shard boundary travels as a *frame*: a
length-prefixed, type-tagged binary blob (msgpack-style — a compact
self-describing encoding implemented here so the backend has zero
third-party dependencies).  A frame carries

* routing/tag metadata — collective ``kind``, operation ordinal ``op``,
  schedule ``round``, source/destination shard, and a per-peer sequence
  number used to detect reordering and loss, and
* one ``payload`` value: anything the control plane exchanges — 128-bit
  determinism digests (arbitrary-precision ints), fence keys, trace
  metadata dicts, future values (including numpy scalars/arrays).

The encoding is canonical: equal values encode to identical bytes on every
shard, which the conformance tests rely on (a digest that round-trips
through the wire must compare equal to the in-process one, bit for bit).

Layout of one frame on the wire::

    +-------+----------+-----------------------------+
    | magic | length   | body (``length`` bytes)     |
    | 2 B   | u32 BE   | packed header + payload     |
    +-------+----------+-----------------------------+

One encoder and one decoder serve every fabric.  :func:`encode_frame`
returns a frame as one bytes object.  The decoder parses a frame in place
from bytes, a bytearray or a memoryview and copies out only the decoded
values, so nothing it returns aliases the wire buffer:
:func:`decode_frame` takes one whole frame (the loopback queues) and
:class:`FrameDecoder` splits a byte stream (the socket fabrics, shm and
tcp).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

__all__ = ["Frame", "FrameError", "pack", "unpack", "encode_frame",
           "decode_frame", "FrameDecoder", "MAGIC"]

MAGIC = b"\xd5\x01"          # frame marker + wire-format version 1
_MAX_FRAME = 64 * 1024 * 1024  # sanity bound on one frame's body


class FrameError(ValueError):
    """Malformed bytes on the wire (bad magic, truncation, unknown tag)."""


# ---------------------------------------------------------------------------
# Value encoding (msgpack-style type-tagged canonical binary)
# ---------------------------------------------------------------------------

_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT64 = b"i"      # fits in signed 64-bit
_T_BIGINT = b"I"     # arbitrary precision (e.g. 128-bit digests), signed
_T_FLOAT = b"f"      # IEEE-754 double
_T_STR = b"s"
_T_BYTES = b"b"
_T_LIST = b"l"
_T_TUPLE = b"t"
_T_DICT = b"d"
_T_NDARRAY = b"a"

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _pack_into(value: Any, out: List[Any]) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            out.append(_T_INT64)
            out.append(struct.pack(">q", value))
        else:
            # Signed big int: sign byte + magnitude, length-prefixed.
            mag = abs(value)
            raw = mag.to_bytes((mag.bit_length() + 7) // 8, "big")
            out.append(_T_BIGINT)
            out.append(struct.pack(">BI", 1 if value < 0 else 0, len(raw)))
            out.append(raw)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out.append(struct.pack(">d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out.append(struct.pack(">I", len(raw)))
        out.append(raw)
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        out.append(struct.pack(">I", len(value)))
        out.append(value)
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST if isinstance(value, list) else _T_TUPLE)
        out.append(struct.pack(">I", len(value)))
        for item in value:
            _pack_into(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out.append(struct.pack(">I", len(value)))
        # Canonical order: sort by each key's own encoding.
        items = sorted(value.items(), key=lambda kv: pack(kv[0]))
        for k, v in items:
            _pack_into(k, out)
            _pack_into(v, out)
    elif isinstance(value, np.generic):
        _pack_into(value.item(), out)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        dt = arr.dtype.str.encode()
        out.append(_T_NDARRAY)
        out.append(struct.pack(">I", len(dt)))
        out.append(dt)
        out.append(struct.pack(">I", arr.ndim))
        out.append(struct.pack(f">{arr.ndim}q", *arr.shape))
        out.append(struct.pack(">I", arr.nbytes))
        # The array's own bytes (the view keeps ``arr`` alive): the join
        # in the encoder makes the one copy.
        out.append(arr.reshape(-1).view(np.uint8).data)
    else:
        raise FrameError(
            f"cannot serialize {type(value).__name__!r} onto the wire; "
            f"shard-boundary payloads must be plain data "
            f"(None/bool/int/float/str/bytes/list/tuple/dict/ndarray)")


def pack(value: Any) -> bytes:
    """Canonical binary encoding of one payload value."""
    out: List[Any] = []
    _pack_into(value, out)
    return b"".join(out)


# Single-byte tag ordinals: indexing works identically on bytes,
# bytearray and memoryview inputs, which is what lets one parse run in
# place over all three.
_TAG_NONE = _T_NONE[0]
_TAG_TRUE = _T_TRUE[0]
_TAG_FALSE = _T_FALSE[0]
_TAG_INT64 = _T_INT64[0]
_TAG_BIGINT = _T_BIGINT[0]
_TAG_FLOAT = _T_FLOAT[0]
_TAG_STR = _T_STR[0]
_TAG_BYTES = _T_BYTES[0]
_TAG_LIST = _T_LIST[0]
_TAG_TUPLE = _T_TUPLE[0]
_TAG_DICT = _T_DICT[0]
_TAG_NDARRAY = _T_NDARRAY[0]


def _unpack_from(buf, pos: int) -> Tuple[Any, int]:
    """Decode one value from ``buf`` (bytes-like) at ``pos``; copies out."""
    if pos >= len(buf):
        raise FrameError("truncated payload")
    tag = buf[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT64:
        return struct.unpack_from(">q", buf, pos)[0], pos + 8
    if tag == _TAG_BIGINT:
        neg, n = struct.unpack_from(">BI", buf, pos)
        pos += 5
        mag = int.from_bytes(bytes(buf[pos:pos + n]), "big")
        return (-mag if neg else mag), pos + n
    if tag == _TAG_FLOAT:
        return struct.unpack_from(">d", buf, pos)[0], pos + 8
    if tag == _TAG_STR:
        n = struct.unpack_from(">I", buf, pos)[0]
        pos += 4
        return bytes(buf[pos:pos + n]).decode("utf-8"), pos + n
    if tag == _TAG_BYTES:
        n = struct.unpack_from(">I", buf, pos)[0]
        pos += 4
        return bytes(buf[pos:pos + n]), pos + n
    if tag in (_TAG_LIST, _TAG_TUPLE):
        n = struct.unpack_from(">I", buf, pos)[0]
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _unpack_from(buf, pos)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), pos
    if tag == _TAG_DICT:
        n = struct.unpack_from(">I", buf, pos)[0]
        pos += 4
        d = {}
        for _ in range(n):
            k, pos = _unpack_from(buf, pos)
            v, pos = _unpack_from(buf, pos)
            d[k] = v
        return d, pos
    if tag == _TAG_NDARRAY:
        n = struct.unpack_from(">I", buf, pos)[0]
        pos += 4
        dt = bytes(buf[pos:pos + n]).decode()
        pos += n
        ndim = struct.unpack_from(">I", buf, pos)[0]
        pos += 4
        shape = struct.unpack_from(f">{ndim}q", buf, pos)
        pos += 8 * ndim
        nb = struct.unpack_from(">I", buf, pos)[0]
        pos += 4
        return np.frombuffer(buf[pos:pos + nb], dtype=np.dtype(dt)) \
            .reshape(shape).copy(), pos + nb
    raise FrameError(f"unknown wire tag {bytes([tag])!r} at offset {pos - 1}")


def unpack(buf: bytes) -> Any:
    """Inverse of :func:`pack`; requires the buffer be exactly one value."""
    value, pos = _unpack_from(buf, 0)
    if pos != len(buf):
        raise FrameError(f"{len(buf) - pos} trailing bytes after payload")
    return value


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """One tagged control-plane message between two shards.

    ``(kind, op, round)`` identify the schedule step this message belongs
    to — the *tag* receivers match on — and ``seq`` is the per-(src, dst)
    channel sequence number that makes reordering detectable.
    """

    kind: str        # collective kind or control channel ("allreduce", ...)
    op: int          # per-collectives operation ordinal
    round: int       # schedule round within the operation
    src: int         # sending shard
    dst: int         # receiving shard
    seq: int         # per-(src, dst) channel sequence number
    payload: Any = None

    def tag(self) -> Tuple[str, int, int]:
        return (self.kind, self.op, self.round)


def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame, length prefix included — the one encoder."""
    out: List[Any] = [b""]          # the prefix, once the body is sized
    _pack_into((frame.kind, frame.op, frame.round,
                frame.src, frame.dst, frame.seq, frame.payload), out)
    body_len = sum(map(len, out))
    if body_len > _MAX_FRAME:
        raise FrameError(f"frame body of {body_len} bytes exceeds the "
                         f"{_MAX_FRAME}-byte bound")
    out[0] = MAGIC + struct.pack(">I", body_len)
    return b"".join(out)


def _parse_frame(buf, pos: int = 0) -> Tuple[Optional[Frame], int]:
    """Parse the frame starting at ``buf[pos]`` in place — the one decoder.

    ``buf`` is bytes, a bytearray or a memoryview; only decoded values are
    copied out.  Returns ``(frame, end)``, or ``(None, pos)`` while
    ``buf`` holds only part of the frame.  Raises :class:`FrameError` on
    a corrupt frame.
    """
    if len(buf) - pos < 6:
        return None, pos
    if bytes(buf[pos:pos + 2]) != MAGIC:
        raise FrameError(f"bad frame magic {bytes(buf[pos:pos + 2])!r}")
    n = struct.unpack_from(">I", buf, pos + 2)[0]
    if n > _MAX_FRAME:
        raise FrameError(f"frame length {n} exceeds the {_MAX_FRAME} bound")
    end = pos + 6 + n
    if len(buf) < end:
        return None, pos
    # Bound the body so a corrupt length field cannot read into the next
    # frame; the view is released before a stream buffer is compacted.
    with memoryview(buf)[pos + 6:end] as body:
        fields, used = _unpack_from(body, 0)
    if used != n:
        raise FrameError(f"{n - used} trailing bytes after frame body")
    if not (isinstance(fields, tuple) and len(fields) == 7):
        raise FrameError("malformed frame body")
    return Frame(*fields), end


def decode_frame(buf) -> Frame:
    """Decode exactly one frame from ``buf`` (prefix + body, no trailing)."""
    frame, end = _parse_frame(buf)
    if frame is None:
        raise FrameError("truncated frame")
    if end != len(buf):
        raise FrameError(f"{len(buf) - end} trailing bytes after frame")
    return frame


class FrameDecoder:
    """Incremental frame splitter for stream transports."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> List[Frame]:
        """Absorb ``chunk``; return every frame completed by it."""
        self._buf.extend(chunk)
        frames: List[Frame] = []
        pos = 0
        while True:
            frame, pos = _parse_frame(self._buf, pos)
            if frame is None:
                break
            frames.append(frame)
        del self._buf[:pos]
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
