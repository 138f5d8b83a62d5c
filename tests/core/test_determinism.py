"""Control-determinism checking at the monitor level (paper §3)."""

import collections
import enum
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.determinism import (ControlDeterminismViolation,
                                    DeterminismMonitor, ShardHasher)


class TestHashing:
    def test_identical_calls_identical_hash(self):
        a, b = ShardHasher(0), ShardHasher(1)
        assert a.record("launch", 1, "x", 2.5) == b.record("launch", 1, "x", 2.5)

    def test_argument_sensitivity(self):
        a, b = ShardHasher(0), ShardHasher(1)
        assert a.record("launch", 1) != b.record("launch", 2)

    def test_call_name_sensitivity(self):
        a, b = ShardHasher(0), ShardHasher(1)
        assert a.record("fill", 1) != b.record("launch", 1)

    def test_kwargs_order_insensitive(self):
        a, b = ShardHasher(0), ShardHasher(1)
        assert a.record("op", x=1, y=2) == b.record("op", y=2, x=1)

    def test_type_disambiguation(self):
        """1, 1.0, "1" and True must hash differently (no coercion)."""
        h = ShardHasher(0)
        digests = {h.record("op", v) for v in (1, 1.0, "1", True)}
        assert len(digests) == 4

    def test_container_canonicalization(self):
        a, b = ShardHasher(0), ShardHasher(1)
        assert a.record("op", [1, (2, 3)]) == b.record("op", [1, (2, 3)])
        assert a.record("op", {4, 5}) == b.record("op", {5, 4})
        assert a.record("op", {"k": 1}) == b.record("op", {"k": 1})

    def test_resource_interning_by_first_use(self):
        """Different objects in the same usage order hash identically —
        the property that makes per-shard resource handles comparable."""
        res_a, res_b = object(), object()
        other_a, other_b = object(), object()
        h0, h1 = ShardHasher(0), ShardHasher(1)
        d0 = [h0.record("use", res_a), h0.record("use", other_a)]
        d1 = [h1.record("use", res_b), h1.record("use", other_b)]
        assert d0 == d1
        # Swapped usage order changes the digests.
        h2 = ShardHasher(2)
        d2 = [h2.record("use", other_a), h2.record("use", res_a)]
        assert d2 == d0  # first-use interning is positional, so still equal

    def test_resource_reuse_stable(self):
        res = object()
        h = ShardHasher(0)
        first = h.record("use", res)
        second = h.record("use", res)
        assert first == second

    @given(st.lists(st.integers(), max_size=6))
    def test_hash_is_128_bit(self, args):
        d = ShardHasher(0).record("op", *args)
        assert 0 <= d < 2 ** 128


class TestMonitor:
    def _record_all(self, mon, *calls):
        for shard in range(len(mon.hashers)):
            for call in calls:
                mon.hasher(shard).record(*call)
            mon.maybe_check()

    def test_agreeing_shards_pass(self):
        mon = DeterminismMonitor(3, batch=2)
        self._record_all(mon, ("a", 1), ("b", 2), ("c", 3))
        mon.flush()
        assert mon.checks_performed >= 1

    def test_divergent_argument_detected(self):
        mon = DeterminismMonitor(2, batch=1)
        mon.hasher(0).record("launch", 1)
        mon.hasher(1).record("launch", 2)
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.maybe_check()
        assert exc.value.seq == 0
        assert "launch" in str(exc.value)

    def test_divergent_order_detected(self):
        mon = DeterminismMonitor(2, batch=2)
        mon.hasher(0).record("a")
        mon.hasher(0).record("b")
        mon.hasher(1).record("b")
        mon.hasher(1).record("a")
        with pytest.raises(ControlDeterminismViolation):
            mon.maybe_check()

    def test_missing_call_detected_at_flush(self):
        mon = DeterminismMonitor(2, batch=100)
        mon.hasher(0).record("a")
        mon.hasher(0).record("b")
        mon.hasher(1).record("a")
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        assert exc.value.seq == 1

    def test_batching_defers_checks(self):
        mon = DeterminismMonitor(2, batch=4)
        for _ in range(3):
            mon.hasher(0).record("x")
            mon.hasher(1).record("x")
            mon.maybe_check()
        assert mon.checks_performed == 0        # batch not yet full
        mon.hasher(0).record("x")
        mon.hasher(1).record("x")
        mon.maybe_check()
        assert mon.checks_performed == 1

    def test_disabled_monitor_never_raises(self):
        mon = DeterminismMonitor(2, batch=1, enabled=False)
        mon.hasher(0).record("a", 1)
        mon.hasher(1).record("a", 2)
        mon.maybe_check()
        mon.flush()
        assert mon.checks_performed == 0

    def test_violation_reports_first_divergence(self):
        mon = DeterminismMonitor(2, batch=8)
        for shard in (0, 1):
            mon.hasher(shard).record("same")
        mon.hasher(0).record("diverge", 0)
        mon.hasher(1).record("diverge", 1)
        for shard in (0, 1):
            mon.hasher(shard).record("same-again")
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        assert exc.value.seq == 1


class TestCanonicalEncodingProperties:
    from hypothesis import given as _given, strategies as _st

    primitives = _st.one_of(
        _st.integers(-10**6, 10**6), _st.floats(allow_nan=False),
        _st.text(max_size=12), _st.booleans(), _st.none())

    @_given(primitives, primitives)
    def test_distinct_values_distinct_hashes(self, a, b):
        """The canonical encoding must be injective on primitives (no
        cross-type coercion collisions like 1 == 1.0 == True)."""
        if a is b or (type(a) is type(b) and a == b):
            return
        ha = ShardHasher(0).record("op", a)
        hb = ShardHasher(1).record("op", b)
        assert ha != hb, (a, b)

    @_given(_st.lists(primitives, max_size=5))
    def test_encoding_stable_across_hashers(self, args):
        assert ShardHasher(0).record("op", *args) == \
            ShardHasher(1).record("op", *args)

    @_given(_st.lists(primitives, min_size=2, max_size=5))
    def test_argument_order_matters(self, args):
        if args == list(reversed(args)):
            return
        a = ShardHasher(0).record("op", *args)
        b = ShardHasher(1).record("op", *reversed(args))
        assert a != b


class TestArrayValues:
    """A NumPy array is hashed by dtype + shape + content, at any depth."""

    @staticmethod
    def _digest(*args):
        return ShardHasher(0).record("x", *args)

    def test_equal_arrays_equal_digest(self):
        assert self._digest(np.arange(6.)) == self._digest(np.arange(6.))
        assert self._digest(np.arange(6.)) != self._digest(np.arange(6.) + 1)

    @pytest.mark.parametrize("other", [
        np.zeros((2, 2)), np.zeros(8, "f4"), np.zeros((4, 1)),
        np.zeros(4, "i8"), np.zeros(4).tobytes()],
        ids=["2x2", "f4", "4x1", "i8", "bytes"])
    def test_equal_bytes_different_shape_or_dtype(self, other):
        """All of these share ``np.zeros(4)``'s 32 zero bytes."""
        assert self._digest(np.zeros(4)) != self._digest(other)

    def test_view_hashes_like_its_contiguous_copy(self):
        base = np.arange(24.).reshape(4, 6)
        for view in (base[:, ::2], base.T, base[1:3, 2:5], base[::-1]):
            assert not view.flags.c_contiguous
            assert self._digest(view) == self._digest(view.copy(order="C"))
        fortran = np.asfortranarray(base)
        assert self._digest(fortran) == self._digest(base)

    def test_nested_array_hashed_by_content(self):
        a, b = np.arange(3.), np.arange(3.) + 7
        assert self._digest((a, 1)) != self._digest((b, 1))
        assert self._digest([{"k": (a,)}]) != self._digest([{"k": (b,)}])
        assert self._digest((a, 1)) == self._digest((a.copy(), 1))

    def test_nested_numpy_scalar_hashed_by_value(self):
        assert self._digest((np.int64(3), 1)) != self._digest((np.int64(4), 1))
        assert self._digest((np.int64(3), 1)) == self._digest((3, 1))
        assert self._digest(np.float32(0.5)) == self._digest(0.5)
        assert self._digest(np.bool_(True)) == self._digest(True)

    def test_scalar_without_python_equivalent_hashed_by_value(self):
        assert self._digest(np.longdouble(1)) != self._digest(np.longdouble(2))
        assert self._digest(np.datetime64("2021-02-27")) != \
            self._digest(np.datetime64("2021-02-28"))

    @pytest.mark.parametrize("array", [
        np.array(2.5), np.zeros(0), np.zeros((0, 3)), np.array([True, False]),
        np.arange(4, dtype=">f8"), np.array(["ab", "c"]),
        np.zeros(2, "c16")],
        ids=["0-d", "empty", "empty-2d", "bool", "big-endian", "str", "c16"])
    def test_every_plain_dtype_hashes(self, array):
        assert self._digest(array) == self._digest(array.copy())
        assert 0 <= self._digest(array) < 2 ** 128

    def test_byte_order_and_emptiness_are_part_of_the_value(self):
        assert self._digest(np.arange(4, dtype=">f8")) != \
            self._digest(np.arange(4, dtype="<f8"))
        assert self._digest(np.zeros(0)) != self._digest(np.zeros((0, 3)))
        assert self._digest(np.array(2.5)) != self._digest(np.array([2.5]))

    @pytest.mark.parametrize("array", [
        np.array([1, "a", None], dtype=object),
        np.zeros(2, dtype=[("a", "i4"), ("b", "f8")])],
        ids=["object", "structured"])
    def test_object_and_structured_dtypes_refused(self, array):
        """Interning such an array by identity would hash nothing."""
        with pytest.raises(TypeError, match="dtype"):
            self._digest(array)
        with pytest.raises(TypeError, match="dtype"):
            self._digest(("nested", [array]))

    def test_monitor_catches_a_divergent_nested_element(self):
        mon = DeterminismMonitor(2, batch=1)
        payload = np.zeros(1024)
        mon.hasher(0).record("index_launch", "t", [(payload, (1024,))])
        payload = payload.copy()
        payload[1023] = 1e-300
        mon.hasher(1).record("index_launch", "t", [(payload, (1024,))])
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.maybe_check()
        assert exc.value.seq == 0


class _ReferenceHasher:
    """The recursive encoder this repo shipped before the type-dispatched
    one, kept verbatim as the executable spec of the byte stream."""

    def __init__(self):
        self.interned = {}

    def canon(self, value):
        if value is None:
            return b"N"
        if isinstance(value, bool):
            return b"B1" if value else b"B0"
        if isinstance(value, int):
            return b"I" + str(value).encode()
        if isinstance(value, float):
            return b"F" + value.hex().encode()
        if isinstance(value, str):
            return b"S" + value.encode()
        if isinstance(value, bytes):
            return b"Y" + value
        if isinstance(value, (tuple, list)):
            return b"T(" + b",".join(self.canon(v) for v in value) + b")"
        if isinstance(value, dict):
            items = sorted((str(k), v) for k, v in value.items())
            return b"D(" + b",".join(
                self.canon(k) + b"=" + self.canon(v) for k, v in items) + b")"
        if isinstance(value, (set, frozenset)):
            return b"Z(" + b",".join(
                sorted(self.canon(v) for v in value)) + b")"
        return b"R" + str(self.interned.setdefault(
            id(value), len(self.interned))).encode()

    def record(self, api_call, *args, **kwargs):
        h = hashlib.blake2b(digest_size=16)
        h.update(api_call.encode())
        for a in args:
            h.update(b"|" + self.canon(a))
        for k in sorted(kwargs):
            h.update(b"|" + k.encode() + b"=" + self.canon(kwargs[k]))
        return int.from_bytes(h.digest(), "little")


class _Resource:
    """Stands in for a region/partition/future: hashed by first-use order."""


class _Color(enum.IntEnum):
    RED = 1
    BLUE = 7


_Point = collections.namedtuple("_Point", "x y")
_RESOURCES = [_Resource() for _ in range(4)]

_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 90, 2 ** 90),
    st.floats(allow_nan=True, allow_infinity=True), st.just(-0.0),
    st.text(max_size=6), st.binary(max_size=6),
    st.sampled_from(_RESOURCES), st.sampled_from(list(_Color)),
    st.floats(allow_nan=False).map(np.float64),
    st.text(max_size=4).map(np.str_))
_hashable_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.text(max_size=4), st.binary(max_size=4), st.sampled_from(_RESOURCES))
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.tuples(inner, inner).map(lambda t: _Point(*t)),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
        st.sets(_hashable_leaves, max_size=4),
        st.frozensets(_hashable_leaves, max_size=4)),
    max_leaves=12)


class TestEncoderEquivalence:
    """Values without arrays hash to exactly what they always have, so
    service streams, templates and ``run_reference`` digests do not move."""

    @given(st.lists(st.tuples(st.lists(_values, max_size=3),
                              st.dictionaries(st.sampled_from("abcd"),
                                              _values, max_size=2)),
                    min_size=1, max_size=4))
    def test_record_matches_the_reference_encoder(self, calls):
        hasher, reference = ShardHasher(0), _ReferenceHasher()
        for args, kwargs in calls:
            assert hasher.record("op", *args, **kwargs) == \
                reference.record("op", *args, **kwargs)
        # ... and resources were interned in the same first-use order.
        assert hasher._intern == reference.interned

    def test_digests_pinned_from_the_parent_commit(self):
        """One value of each kind, digests read off commit ef03407 (the
        last one with the recursive encoder) — so "non-array digests do
        not move" is checked against the real parent, not only against
        the copy above."""
        a, b = _Resource(), _Resource()
        cases = {
            "none": ((None,), {}),
            "bool": ((True, False), {}),
            "int": ((0, -7, 2 ** 80), {}),
            "float": ((2.5, -0.0, float("inf"), float("nan")), {}),
            "str": (("", "h\u00e9llo"), {}),
            "bytes": ((b"", b"\x00\xff|,"), {}),
            "tuple": (((1, (2.0, "x"), ()),), {}),
            "list": (([1, [2, [3]]],), {}),
            "dict": (({"b": 1, "a": (2, None), 3: "k"},), {}),
            "set": (({3, 1, 2}, frozenset({"x", "y"})), {}),
            "resource": ((a, b, a, [b, (a,)]), {}),
            "kwargs": ((1,), {"z": a, "y": [1.5], "x": None}),
            "no-args": ((), {}),
            "subclass": ((_Point(1, 2), (np.float64(1.5), np.str_("s"))), {}),
        }
        pinned = {
            "none": 0x36d16af835ade05a931593acbda58f06,
            "bool": 0x26a6822a4deb9749178f1db6eaafefeb,
            "int": 0xaf4042d53323a3639d2df043ec22b16b,
            "float": 0x9bd09376e39491acf0a329d179a8285a,
            "str": 0x7b9eb24e40cdc9c8fdab57cc8c32e768,
            "bytes": 0xf687cca1032df09809e48a4d1da96f30,
            "tuple": 0x8398f38b5c9072ac8e8a368d813596e7,
            "list": 0x5b4c5f2b2d63f7804d1a5fbcbf43a878,
            "dict": 0xb9f764823ba79ff5b06a51acf6418401,
            "set": 0x6f9bb448f092649ca27d13b2e66846a0,
            "resource": 0xae12486f0dbc590a19ada22d21524c76,
            "kwargs": 0xc1b6f138176aae83e89ca9885180435a,
            "no-args": 0x8f8eb280db092eb61ac1ad16feb683e5,
            "subclass": 0x84956bbf8150bc86be339981043d1338,
        }
        got = {name: ShardHasher(0).record("call:" + name, *args, **kwargs)
               for name, (args, kwargs) in cases.items()}
        assert got == pinned


class TestStructuredViolation:
    """Satellite: violations carry enough structure to act on (resilience)."""

    def test_flush_count_mismatch_is_structured(self):
        mon = DeterminismMonitor(3, batch=100)
        for shard in range(3):
            mon.hasher(shard).record("a")
            mon.hasher(shard).record("b")
        mon.hasher(1).record("c")           # shards 0 and 2 stop short
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        v = exc.value
        assert v.seq == 2
        assert v.call_counts == [2, 3, 2]
        assert v.shard_ids == [0, 1, 2]
        # The shards that recorded fewest calls are the likely culprits.
        assert v.divergent_shards == [0, 2]
        assert "<no call>" in v.descriptions

    def test_flush_count_guard_indexes_safely(self):
        """The count guard must not IndexError when the shortest shard has
        recorded fewer calls than the divergence point (regression)."""
        mon = DeterminismMonitor(2, batch=100)
        mon.hasher(0).record("only-on-zero")
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        assert exc.value.descriptions == ["only-on-zero", "<no call>"]

    def test_batch_violation_carries_digests(self):
        mon = DeterminismMonitor(2, batch=1)
        mon.hasher(0).record("launch", 1)
        mon.hasher(1).record("launch", 2)
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.maybe_check()
        v = exc.value
        assert v.shard_ids == [0, 1]
        assert v.shard_digests is not None
        assert len(set(v.shard_digests)) == 2


class TestLocalization:
    """LOCALIZE: one allgather + binary search pins the divergent call."""

    def _diverge_at(self, num_shards, culprit, idx, total, localize=True):
        mon = DeterminismMonitor(num_shards, batch=total, localize=localize)
        for shard in range(num_shards):
            for call in range(total):
                if shard == culprit and call == idx:
                    mon.hasher(shard).record("call", call, "divergent")
                else:
                    mon.hasher(shard).record("call", call)
        return mon

    def test_diagnosis_names_call_and_shard(self):
        mon = self._diverge_at(3, culprit=1, idx=5, total=12)
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.maybe_check()
        d = exc.value.diagnosis
        assert d is not None
        assert d.seq == 5
        assert d.divergent_shards == (1,)
        assert d.majority_digest == mon.hasher(0).calls[5]
        assert d.window == (0, 12)
        assert "shard 1" in d.summary()

    def test_recoincident_digests_still_localized(self):
        """Calls after the divergence hash identically again, so the
        search must run on prefix digests, not raw call digests
        (regression: raw digests are not prefix-monotone)."""
        mon = self._diverge_at(3, culprit=2, idx=0, total=10)
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        d = exc.value.diagnosis
        assert d.seq == 0 and d.divergent_shards == (2,)

    def test_divergence_at_window_end(self):
        mon = self._diverge_at(2, culprit=1, idx=7, total=8)
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        assert exc.value.diagnosis.seq == 7

    def test_localize_off_keeps_plain_violation(self):
        mon = self._diverge_at(2, culprit=1, idx=3, total=6, localize=False)
        with pytest.raises(ControlDeterminismViolation) as exc:
            mon.flush()
        assert exc.value.diagnosis is None
        assert exc.value.seq == 3

    def test_localization_charged_to_collectives(self):
        mon = self._diverge_at(3, culprit=1, idx=2, total=6)
        before = mon.collectives.stats.by_kind.get("allgather", 0)
        with pytest.raises(ControlDeterminismViolation):
            mon.flush()
        assert mon.collectives.stats.by_kind["allgather"] == before + 1


class TestShardSetManagement:
    """Quarantine/reset used by the DEGRADE and RESTART policies."""

    def test_quarantined_shard_is_not_compared(self):
        mon = DeterminismMonitor(3, batch=2)
        mon.quarantine(2)
        for shard in (0, 1):
            mon.hasher(shard).record("a")
            mon.hasher(shard).record("b")
        mon.flush()                          # shard 2 recorded nothing: fine
        assert mon.checks_performed == 1
        assert mon.active_shards == [0, 1]

    def test_cannot_quarantine_last_shard(self):
        mon = DeterminismMonitor(2)
        mon.quarantine(0)
        with pytest.raises(ValueError):
            mon.quarantine(1)

    def test_reset_shard_stalls_checks_until_caught_up(self):
        mon = DeterminismMonitor(2, batch=2)
        for shard in (0, 1):
            for call in ("a", "b"):
                mon.hasher(shard).record(call)
        mon.maybe_check()
        assert mon.checks_performed == 1
        mon.reset_shard(1)                   # fresh hasher, 0 calls
        mon.maybe_check()                    # must not underflow or raise
        assert mon.checks_performed == 1
        for call in ("a", "b"):
            mon.hasher(1).record(call)       # replica replays from scratch
        mon.hasher(0).record("c")
        mon.hasher(1).record("c")
        mon.flush()                          # only call "c" is new to check
        assert mon.checks_performed == 2
