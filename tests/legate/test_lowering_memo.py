"""Each shard lowers a repeated array op once, and the memos that make it
so are invisible in what the shard hashes.

A ``LegateContext`` interns its views and keeps one op memo per launch
site; a ``FrontDoor`` keeps a task key per function object and a lowering
per ``reqs`` spec.  These tests hold every one of those memos to three
rules: emptying them before each op changes no byte of any shard's
hashed call stream, a repeated iteration adds nothing to them, and a
loop with a fresh scalar on every iteration keeps them bounded.
"""

import glob
import os
from unittest import mock

import numpy as np
import pytest

from repro.legate import (LegateContext, kmeans, logistic_regression,
                          make_blobs, make_problem, make_wave,
                          preconditioned_cg, sliced_stencil)
from repro.legate import array as array_module
from repro.legate.array import LegateArray
from repro.legate.fuzz import deferred_control, program_from_json
from repro.legate.views import ViewSpec
from repro.regions import Partition
from repro.runtime import Runtime
from repro.runtime import frontdoor as frontdoor_module

#: Every lowering memo of a LegateContext and of its shard's FrontDoor.
#: ``_partitions`` is not one: it is where a partition is created, once
#: per (region, rects), so emptying it would add calls to the stream.
LEGATE_MEMOS = ("_views", "_ops", "_canon", "_args")
DOOR_MEMOS = ("_keys", "_lowered")

_GOLDEN = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "fuzz", "golden", "*.json")))


def _golden(path):
    with open(path) as f:
        program = program_from_json(f.read())
    return lambda ctx: deferred_control(program, num_tiles=4)(ctx)


def _apps():
    n = 24
    a = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return {
        "sliced_stencil": lambda ctx: sliced_stencil(ctx, make_wave(64), 6,
                                                     4),
        "preconditioned_cg": lambda ctx: preconditioned_cg(
            ctx, a, np.arange(1.0, n + 1), 6, 4),
        "kmeans": lambda ctx: kmeans(ctx, make_blobs(24, 3, 3), 3, 3, 4),
        "logistic_regression": lambda ctx: logistic_regression(
            ctx, *make_problem(29, 5), 3, 0.5, 4),
    }


def _every_site(ctx):
    """Each launch site twice or more, over views of the same blocks that
    differ in one operand only, so a key that told them apart too coarsely
    would serve one the other's lowering."""
    lg = LegateContext(ctx, 3)
    a = lg.from_values(np.arange(24.0).reshape(4, 6))
    v = lg.from_values(np.arange(6.0))
    w = lg.from_values(np.arange(4.0))
    out = []
    for _ in range(2):
        a[0:2] = 1.0
        a[2:4, 1:3] = 2.0
        a[1:3, 0:2] = v[0:2]
        a[1:3, 0:2] = v[4:6]
        a[0:1, 2:6] = v[2:6]
        v[0:3].axpy(0.5, w[0:3])
        v[3:6].axpy(0.5, w[0:3])
        v[3:6].axpy(0.25, w[1:4])
        out += [a[0:2] + a[2:4], a[1:3] + a[2:4], a.T[0:3] - a.T[3:6],
                -a[0:2], -a[1:3], a.sum(axis=1), a[1:3].sum(axis=1),
                a.sum(axis=0), a[0:2].sum(axis=0), a.max(axis=0),
                a.matvec(v), a[0:2].matvec(v), a.rmatvec(w),
                a[0:2].rmatvec(w[0:2]), a[2:4].rmatvec(w[0:2]),
                a[2:4].rmatvec(w[2:4]), a.matmat(a.T), a[0:2].matmat(a.T)]
        out += [a[0:2].sum(), a[2:4].sum(), a[0:2].max(), a.min(),
                v[0:3].dot(w[0:3]), v[3:6].dot(w[0:3]), v[3:6].dot(w[1:4])]
    return [x if isinstance(x, float) else x.to_numpy() for x in out]


PROGRAMS = {os.path.basename(p): _golden(p) for p in _GOLDEN}
PROGRAMS.update(_apps(), every_site=_every_site)


def _empty(lg):
    for name in LEGATE_MEMOS:
        getattr(lg, name).clear()
    for name in DOOR_MEMOS:
        getattr(lg.ctx._door, name).clear()


def _streams(control, shards, empty_before_each_op):
    """Each shard's (digests, descriptions) for one inprocess execute;
    optionally with every memo emptied before each array op."""
    contexts = []
    init = LegateContext.__init__

    def capture(lg, *args, **kwargs):
        init(lg, *args, **kwargs)
        contexts.append(lg)

    def emptying(fn):
        def op(*args, **kwargs):
            for lg in contexts:
                _empty(lg)
            return fn(*args, **kwargs)
        return op

    patches = [mock.patch.object(LegateContext, "__init__", capture)]
    if empty_before_each_op:
        # the public surface: operators, methods and properties, not the
        # private helpers an op calls on its way
        for cls in (LegateArray, LegateContext):
            for name, value in vars(cls).items():
                if name == "__init__" or (name.startswith("_")
                                          and not name.startswith("__")):
                    continue
                if isinstance(value, property):
                    patches.append(mock.patch.object(
                        cls, name, property(emptying(value.fget))))
                elif callable(value):
                    patches.append(mock.patch.object(cls, name,
                                                     emptying(value)))
    rt = Runtime(num_shards=shards)
    for p in patches:
        p.start()
    try:
        rt.execute(control)
    finally:
        for p in reversed(patches):
            p.stop()
    assert contexts
    memos = {name for name, value in vars(contexts[0]).items()
             if isinstance(value, dict)}
    assert memos == set(LEGATE_MEMOS) | {"_partitions"}, (
        "a new LegateContext memo: list it in LEGATE_MEMOS")
    hashers = [rt.monitor.hasher(s) for s in range(shards)]
    return [(list(h.calls), list(h.descriptions)) for h in hashers]


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_emptying_every_memo_before_each_op_changes_no_hashed_byte(
        name, shards):
    control = PROGRAMS[name]
    memoised = _streams(control, shards, False)
    emptied = _streams(control, shards, True)
    assert len(memoised) == shards
    for shard, (kept, cold) in enumerate(zip(memoised, emptied)):
        assert kept[1] == cold[1], f"shard {shard}: descriptions differ"
        assert kept[0] == cold[0], f"shard {shard}: digests differ"


def test_the_corpus_is_covered():
    assert len(_GOLDEN) >= 10


def test_a_repeated_iteration_creates_no_view_partition_or_memo_entry():
    """After two sliced-stencil iterations a third is served whole from
    the memos: no ViewSpec, no Partition and no memo entry is made."""
    seen = []

    def control(ctx):
        lg = LegateContext(ctx, 4)
        n = 64
        u = lg.from_values(make_wave(n))
        for _ in range(2):
            u[1:n - 1] = (u[0:n - 2] + u[2:n]) * 0.5
        before = {name: dict(getattr(lg, name)) for name in LEGATE_MEMOS}
        door = {name: dict(getattr(ctx._door, name)) for name in DOOR_MEMOS}
        made = {"views": 0, "partitions": 0}
        view_init, part_init = ViewSpec.__init__, Partition.__init__

        def count_view(self, *args, **kwargs):
            made["views"] += 1
            view_init(self, *args, **kwargs)

        def count_part(self, *args, **kwargs):
            made["partitions"] += 1
            part_init(self, *args, **kwargs)

        with mock.patch.object(ViewSpec, "__init__", count_view), \
                mock.patch.object(Partition, "__init__", count_part):
            u[1:n - 1] = (u[0:n - 2] + u[2:n]) * 0.5
        after = {name: dict(getattr(lg, name)) for name in LEGATE_MEMOS}
        # the fresh scalar 0.5 is the same scalar: no new args tuple either
        seen.append((made, before == after,
                     door == {name: dict(getattr(ctx._door, name))
                              for name in DOOR_MEMOS}))
        return u.to_numpy()

    Runtime(num_shards=2).execute(control)
    assert seen == [({"views": 0, "partitions": 0}, True, True)] * 2


def test_a_fresh_scalar_every_iteration_keeps_every_memo_bounded():
    """``p = z + beta * p`` with a new ``beta`` on each of 5 000
    iterations: scalars are not in the op memo's key, so it stays the
    same size, and the args memo, which does hold each scalar, is
    cleared when full."""
    sizes = []

    def control(ctx):
        lg = LegateContext(ctx, 4)
        z = lg.from_values(np.arange(16.0))
        p = lg.zeros(16)
        for i in range(5000):
            p = z + (1.0 / (i + 3)) * p
            sizes.append([len(getattr(lg, name)) for name in LEGATE_MEMOS]
                         + [len(getattr(ctx._door, name))
                            for name in DOOR_MEMOS])
        return p.to_numpy()

    Runtime(num_shards=1).execute(control)
    bound = array_module._MAX_MEMO
    bounds = [bound] * len(LEGATE_MEMOS) \
        + [frontdoor_module._MAX_MEMO] * len(DOOR_MEMOS)
    assert all(max(column) <= b for column, b in zip(zip(*sizes), bounds))
    ops = [s[LEGATE_MEMOS.index("_ops")] for s in sizes]
    assert ops[-1] == ops[10] and max(ops) <= 8
    args = [s[LEGATE_MEMOS.index("_args")] for s in sizes]
    assert max(args) == bound       # it filled, and was cleared


def test_an_interned_slice_does_not_admit_an_equal_invalid_key():
    """``1.0 == 1``, but only the int is a slice index: after ``u[1:5]``
    is interned, ``u[1.0:5]`` still raises as NumPy does."""
    def control(ctx):
        u = LegateContext(ctx, 2).from_values(np.arange(8.0))
        first = u[1:5].to_numpy()
        with pytest.raises(TypeError, match="slice indices"):
            u[1.0:5]
        return first

    assert list(Runtime(num_shards=1).execute(control)) == [1.0, 2.0, 3.0,
                                                            4.0]
