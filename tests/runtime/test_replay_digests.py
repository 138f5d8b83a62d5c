"""Trace replay changes what analysis costs, never what it produces; the
determinism digests depend on the program alone.

Four array programs run auto-traced at 1, 3 and 4 shards; the task-graph
digest is pinned to the value the per-op epoch fold produced before
replays were settled per run, and ``replayed`` pins how much of each
program a replay serves, so the pins keep covering the replay path.  The
per-shard determinism digests were pinned in a fresh interpreter; the
tests reproduce every pin inside the test process after unrelated work
(another program, other field spaces), so no process-global id can reach
a digest.  Both columns moved once, when resources were named by
structural keys and tasks by ``module:qualname``; the task-graph digests
moved only through the fence sequence's keys
(``tests/core/test_launch_analysis.py`` reproduces the earlier pins from
the same products keyed the interned way).
"""

import hashlib

import numpy as np
import pytest

from repro.core.pipeline import analysis_digest
from repro.legate import (kmeans, logistic_regression, make_blobs,
                          make_problem, make_wave, preconditioned_cg,
                          sliced_stencil)
from repro.regions import FieldSpace
from repro.runtime import Runtime

# program, shards, replayed ops, ops, task-graph digest, determinism digest
_PINNED = """\
sliced_stencil 1 144 151 215f902768d3bbca 6e2ba01c5068a347
sliced_stencil 3 144 151 d75c996ca32bdc21 f1abc5413bfbb648
sliced_stencil 4 144 151 5f34681d647a681a 14be187d2d51a94c
preconditioned_cg 1 96 169 f4f6ea832530b8f7 e7eb777b1c985f8e
preconditioned_cg 3 96 169 f0faf551d56e3002 92cd233c41ae23e7
preconditioned_cg 4 96 169 62fdad8683e60a0e 4a98efec41a2609b
kmeans 1 0 198 854ab996a3d8b083 15d922aaba9b9fb3
kmeans 3 0 198 c3f33b611524c3a2 ccb4a7c0db7375b7
kmeans 4 0 198 7a44ce6a525ba464 62547e1e0d7ee455
logistic_regression 1 0 39 87d3a9c3d65dd850 0e265916c3124ab0
logistic_regression 3 0 39 ed3a73d6214ffbdf 8504d8eedc1c0b07
logistic_regression 4 0 39 600b0ef44ac26a73 f8851c4aabe6a74a
"""


def _programs():
    n = 24
    a = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return [
        (sliced_stencil, (make_wave(2048), 50, 8)),
        (preconditioned_cg, (a, np.arange(1.0, n + 1), 20, 4)),
        (kmeans, (make_blobs(24, 3, 3), 3, 5, 4)),
        (logistic_regression, make_problem(29, 5) + (6, 0.5, 4)),
    ]


def _unrelated_work():
    """Advance every process-global id counter: a program, field spaces."""
    def control(ctx):
        fs = ctx.create_field_space([("a", "f8"), ("b", "f8"), ("c", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "unrelated")
        ctx.fill(r, ["a", "b"], 1.0)

    Runtime(num_shards=2).execute(control)
    return [FieldSpace([("u", "f8"), ("v", "f8")]) for _ in range(5)]


def _streams(rt):
    return hashlib.sha256(
        repr(rt.determinism_digests()).encode()).hexdigest()[:16]


def test_auto_traced_products_are_the_eager_folds():
    _unrelated_work()
    out = ""
    for fn, args in _programs():
        for shards in (1, 3, 4):
            rt = Runtime(num_shards=shards, auto_trace=True)
            rt.execute(fn, *args)
            p = rt.pipeline
            out += (f"{fn.__name__} {shards} {p.stats.traced_ops} "
                    f"{p.stats.ops} "
                    f"{analysis_digest(p.coarse_result, p.fine_result)[:16]} "
                    f"{_streams(rt)}\n")
    assert out == _PINNED


@pytest.mark.parametrize("backend", ["inprocess", "loopback"])
def test_determinism_digests_ignore_earlier_work(backend):
    """The same program hashes the same however many regions, partitions
    and fields the process created before it."""
    pinned = {tuple(line.split()[:2]): line.split()[-1]
              for line in _PINNED.splitlines()}
    for fn, args in _programs()[:2]:
        for shards in (1, 3):
            _unrelated_work()
            rt = Runtime(num_shards=shards, auto_trace=True, backend=backend)
            rt.execute(fn, *args)
            assert _streams(rt) == pinned[fn.__name__, str(shards)], \
                (fn.__name__, shards)


def _read(_a, *_args):
    return 1.0


def _scale(_point, _a, *_args):
    pass


def _launches(as_given):
    """A program whose launches pass ``args`` and ``future_args`` through
    ``as_given`` (``list`` or ``tuple``)."""
    def control(ctx):
        fs = ctx.create_field_space([("a", "f8")], "fs")
        cells = ctx.create_region(ctx.create_index_space(8), fs, "cells")
        halves = ctx.partition_equal(cells, 2, name="halves")
        ctx.fill(cells, "a", 1.0)
        for step in range(3):
            total = ctx.launch(_read, [(cells, "a", "ro")],
                               args=as_given([step, 0.5]))
            ctx.index_launch(_scale, range(2), [(halves, "a", "rw")],
                             args=as_given([(step, "x"), -0.0]),
                             future_args=as_given([total]))
    return control


def test_list_and_tuple_arguments_hash_alike():
    """A launch hashes its ``args`` and ``future_args`` as given, a tuple
    without a copy: a list and a tuple of the same items encode alike."""
    streams = []
    for as_given in (list, tuple):
        rt = Runtime(num_shards=2)
        rt.execute(_launches(as_given))
        streams.append(rt.determinism_digests())
    assert streams[0] == streams[1]


def test_signed_zero_scalars_hash_apart():
    """The frontend hands one args tuple per elementwise (code, operands,
    scalars), keyed by each scalar's ``float.hex``: after ``x + 0.0``,
    ``x + -0.0`` still hashes its own scalar."""
    from repro.legate import LegateContext

    def streams(second):
        def control(ctx):
            lg = LegateContext(ctx, 2)
            x = lg.zeros(8)
            x + 0.0
            x + second
        rt = Runtime(num_shards=2)
        rt.execute(control)
        return rt.determinism_digests()

    assert streams(0.0) == streams(0.0)
    assert streams(-0.0) != streams(0.0)
