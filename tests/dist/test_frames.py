"""Wire-format tests: every payload type round-trips, framing is robust."""

import numpy as np
import pytest

from repro.dist.frames import (MAGIC, Frame, FrameDecoder, FrameError,
                               decode_frame, encode_frame, pack, unpack)

PAYLOADS = [
    None,
    True,
    False,
    0,
    -1,
    2 ** 62,
    -(2 ** 62),
    2 ** 63,                       # first value that needs the bigint path
    -(2 ** 63) - 1,
    (1 << 127) + 12345,            # a 128-bit determinism digest
    -((1 << 127) + 12345),
    0.0,
    -0.0,
    3.14159,
    float("inf"),
    "",
    "hello",
    "ünïcode ✓",
    b"",
    b"\x00\xff raw",
    [],
    [1, "two", 3.0, None],
    (),
    (1, (2, [3, {"k": b"v"}])),
    {},
    {"a": 1, "b": [True, False]},
    {1: "int key", "s": 2, (3, 4): "tuple key"},
]


@pytest.mark.parametrize("value", PAYLOADS,
                         ids=[repr(p)[:40] for p in PAYLOADS])
def test_pack_roundtrip(value):
    assert unpack(pack(value)) == value


def test_roundtrip_preserves_container_kind():
    assert unpack(pack([1, 2])) == [1, 2]
    assert isinstance(unpack(pack([1, 2])), list)
    assert isinstance(unpack(pack((1, 2))), tuple)


def test_nan_roundtrip():
    out = unpack(pack(float("nan")))
    assert out != out  # NaN


def test_numpy_scalars_become_python():
    assert unpack(pack(np.int64(7))) == 7
    assert isinstance(unpack(pack(np.int64(7))), int)
    assert unpack(pack(np.float64(2.5))) == 2.5


def test_ndarray_roundtrip_dtype_and_shape():
    for arr in (np.arange(12, dtype=np.float64).reshape(3, 4),
                np.array([], dtype=np.int32),
                np.array([[True, False]]),
                np.arange(5, dtype=np.int16)[::2]):  # non-contiguous
        out = unpack(pack(arr))
        np.testing.assert_array_equal(out, np.ascontiguousarray(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape


def test_canonical_encoding_is_deterministic():
    # Equal dicts built in different insertion orders encode identically —
    # the property the cross-process digest comparisons rely on.
    a = {"x": 1, "y": 2, 3: [True]}
    b = {3: [True], "y": 2, "x": 1}
    assert pack(a) == pack(b)


def test_unserializable_payload_raises():
    with pytest.raises(FrameError, match="cannot serialize"):
        pack(object())
    with pytest.raises(FrameError, match="cannot serialize"):
        pack({"fn": lambda: None})


def test_trailing_bytes_rejected():
    with pytest.raises(FrameError, match="trailing"):
        unpack(pack(1) + b"x")


def test_truncated_payload_rejected():
    buf = pack("hello world")
    with pytest.raises(FrameError):
        unpack(buf[:-3])


def test_frame_roundtrip_every_field():
    frame = Frame(kind="allreduce", op=7, round=2, src=1, dst=3, seq=42,
                  payload=(0, 64, (1 << 127) + 9, -1, True))
    out = decode_frame(encode_frame(frame))
    assert out == frame
    assert out.tag() == ("allreduce", 7, 2)


def test_frame_bytes_pinned():
    # Every fabric encodes through encode_frame.  Its bytes must not
    # move.
    frame = Frame("bcast", 1, 2, 0, 1, 3, {
        "a": np.arange(6, dtype=np.int16).reshape(2, 3)[:, ::2],
        "d": (1 << 127) + 5, "s": "x", "f": 0.5, "n": None,
        "l": [True, b"z"]})
    raw = encode_frame(frame)
    assert raw.hex() == (
        "d501000000bf74000000077300000005626361737469000000000000000169"
        "0000000000000002690000000000000000690000000000000001690000000000"
        "000003640000000673000000016161000000033c693200000002000000000000"
        "0002000000000000000200000008000002000300050073000000016449000000"
        "0010800000000000000000000000000000057300000001666"
        "63fe000000000000073000000016c6c000000025462000000017a730000000"
        "16e4e730000000173730000000178")
    out = decode_frame(memoryview(raw))
    np.testing.assert_array_equal(out.payload["a"], [[0, 2], [3, 5]])
    assert out.payload["d"] == (1 << 127) + 5


def test_bad_magic_rejected():
    raw = encode_frame(Frame("k", 0, 0, 0, 1, 0, None))
    with pytest.raises(FrameError, match="magic"):
        decode_frame(b"XX" + raw[2:])


def test_truncated_frame_rejected():
    raw = encode_frame(Frame("k", 0, 0, 0, 1, 0, "payload"))
    with pytest.raises(FrameError, match="truncated"):
        decode_frame(raw[:-1])


def test_frame_trailing_bytes_rejected():
    raw = encode_frame(Frame("k", 0, 0, 0, 1, 0, None))
    with pytest.raises(FrameError, match="trailing"):
        decode_frame(raw + b"\x00")


def test_decoder_reassembles_arbitrary_chunking():
    frames = [Frame("bcast", i, 0, 0, 1, i, {"i": i, "blob": b"x" * i})
              for i in range(5)]
    stream = b"".join(encode_frame(f) for f in frames)
    for chunk_size in (1, 2, 3, 7, len(stream)):
        dec = FrameDecoder()
        got = []
        for off in range(0, len(stream), chunk_size):
            got.extend(dec.feed(stream[off:off + chunk_size]))
        assert got == frames
        assert dec.pending_bytes == 0


def test_decoder_keeps_partial_frame_pending():
    raw = encode_frame(Frame("k", 0, 0, 0, 1, 0, "abcdef"))
    dec = FrameDecoder()
    assert dec.feed(raw[:4]) == []
    assert dec.pending_bytes == 4
    assert len(dec.feed(raw[4:])) == 1


def test_magic_constant_versioned():
    # Bumping the wire format must change MAGIC — pin the current value.
    assert MAGIC == b"\xd5\x01"
