"""Trace replay changes what analysis costs, never what it produces; the
determinism digests depend on the program alone.

Four array programs run auto-traced at 1, 3 and 4 shards; the task-graph
digest is pinned to the value the per-op epoch fold produced before
replays were settled per run, and ``replayed`` pins how much of each
program a replay serves, so the pins keep covering the replay path.  The
per-shard determinism digests were pinned in a fresh interpreter; the
tests reproduce every pin inside the test process after unrelated work
(another program, other field spaces), so no process-global id can reach
a digest.
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
sliced_stencil 1 144 151 b10770072c5f0a6b 1b7b8a34bb2ed194
sliced_stencil 3 144 151 e3b4dfb4ee9f5735 632fff7586c21afd
sliced_stencil 4 144 151 845001324fc1eb65 9253d8f23ca1bc04
preconditioned_cg 1 96 169 88575a9fe7324270 3b3fcc4736dabcb6
preconditioned_cg 3 96 169 ae8501366576bebf 04ce2341b4d3b97f
preconditioned_cg 4 96 169 ac4a567e11dc7078 19912281d55afd42
kmeans 1 0 198 854ab996a3d8b083 d0c83c29890c900f
kmeans 3 0 198 df5751c2f55784f7 086e30c0ed7050c9
kmeans 4 0 198 8e2e5a0b8e736542 7b10697ddef0ea0a
logistic_regression 1 0 39 87d3a9c3d65dd850 3153dd5e44188e4f
logistic_regression 3 0 39 b659a730226cb2a6 b0e0605dae8362f1
logistic_regression 4 0 39 62b3245ef458118e 039305a258c3e19e
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
