"""Array programs vs explicit-region mirrors: byte-for-byte equality.

Each demo has two implementations: the pure deferred-array program and a
hand-written explicit-region version using the same
:func:`~repro.legate.views.choose_tiling` boundaries and token-identical
per-tile NumPy expressions.  Floating point is deterministic, so the
outputs must match to the byte — any drift means the frontend changed the
launch structure (tiling, partial/combine shape, or expression order).

Run out of program order, in a seeded random order of the point graph,
both must still produce the same bytes; with the fine stage's edges
dropped, they must not.
"""

import numpy as np
import pytest

from helpers import REORDER_SEEDS, drop_fine_edges, reordered_runtime
from repro.legate import (explicit_kmeans, explicit_logistic_regression,
                          explicit_stencil, kmeans, logistic_regression,
                          make_blobs, make_problem, make_wave,
                          reference_stencil, sliced_stencil)
from repro.runtime import Runtime


@pytest.mark.parametrize("shards", [1, 2, 4])
class TestByteIdentity:
    def test_logistic_regression(self, shards):
        x, y = make_problem(29, 5)
        w1 = Runtime(num_shards=shards).execute(
            logistic_regression, x, y, 6, 0.5, 4)
        w2 = Runtime(num_shards=shards).execute(
            explicit_logistic_regression, x, y, 6, 0.5, 4)
        assert w1.tobytes() == w2.tobytes()

    def test_kmeans(self, shards):
        blobs = make_blobs(24, 3, 3)
        c1, l1 = Runtime(num_shards=shards).execute(
            kmeans, blobs, 3, 5, 4)
        c2, l2 = Runtime(num_shards=shards).execute(
            explicit_kmeans, blobs, 3, 5, 4)
        assert c1.tobytes() == c2.tobytes()
        assert l1.tobytes() == l2.tobytes()

    def test_stencil(self, shards):
        init = make_wave(33)
        a = Runtime(num_shards=shards).execute(sliced_stencil, init, 7, 4)
        b = Runtime(num_shards=shards).execute(explicit_stencil, init, 7, 4)
        assert a.tobytes() == b.tobytes()
        assert np.array_equal(a, reference_stencil(init, 7))


class TestByteIdentityAcrossTilings:
    """The mirrors track the frontend under every tile budget too."""

    @pytest.mark.parametrize("tiles", [1, 2, 3, 4])
    def test_stencil_tilings(self, tiles):
        init = make_wave(19)
        a = Runtime(num_shards=2).execute(sliced_stencil, init, 5, tiles)
        b = Runtime(num_shards=2).execute(explicit_stencil, init, 5, tiles)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("tiles", [2, 3])
    def test_logreg_tilings(self, tiles):
        x, y = make_problem(17, 4)
        w1 = Runtime(num_shards=2).execute(
            logistic_regression, x, y, 4, 0.5, tiles)
        w2 = Runtime(num_shards=2).execute(
            explicit_logistic_regression, x, y, 4, 0.5, tiles)
        assert w1.tobytes() == w2.tobytes()


def _programs():
    """(name, array program, explicit mirror, args) of each demo."""
    x, y = make_problem(29, 5)
    return [("logistic_regression", logistic_regression,
             explicit_logistic_regression, (x, y, 6, 0.5, 4)),
            ("kmeans", kmeans, explicit_kmeans,
             (make_blobs(24, 3, 3), 3, 5, 4)),
            ("stencil", sliced_stencil, explicit_stencil,
             (make_wave(33), 7, 4))]


def _bytes(result) -> bytes:
    parts = result if isinstance(result, tuple) else (result,)
    return b"|".join(np.ascontiguousarray(p).tobytes() for p in parts)


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("seed", REORDER_SEEDS)
def test_programs_match_program_order_out_of_order(seed, shards):
    """Each demo and its mirror, their points run in a seeded random
    topological order, return the bytes program order returns."""
    for name, program, mirror, args in _programs():
        expected = _bytes(Runtime(num_shards=shards).execute(program, *args))
        for control in (program, mirror):
            got = reordered_runtime(seed, num_shards=shards).execute(
                control, *args)
            assert _bytes(got) == expected, (name, control.__name__)


def test_a_dropped_edge_changes_the_bytes(monkeypatch):
    """The dropped-edge mutant: with no fine edges, the random order
    changes every demo's bytes at every seed."""
    drop_fine_edges(monkeypatch)
    for name, program, _mirror, args in _programs():
        expected = _bytes(Runtime(num_shards=2).execute(program, *args))
        for seed in REORDER_SEEDS:
            got = reordered_runtime(seed, num_shards=2).execute(program, *args)
            assert _bytes(got) != expected, (name, seed)
