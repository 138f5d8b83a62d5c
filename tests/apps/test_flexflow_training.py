"""Functional data-parallel MLP training against the NumPy trainer."""

import numpy as np
import pytest

from repro.flexflow import (make_regression, reference_train_mlp,
                            train_mlp)
from repro.runtime import Runtime


@pytest.fixture(scope="module")
def problem():
    return make_regression(n=32, f=4)


class TestTraining:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_reference(self, problem, shards):
        x, y = problem
        rt = Runtime(num_shards=shards)
        wr, losses = rt.execute(train_mlp, x, y, 6, 10)
        w = rt.store.raw(wr, wr.field_space["w"]).copy()
        ref_w, ref_losses = reference_train_mlp(x, y, 6, 10)
        assert np.allclose(w, ref_w)
        assert np.allclose(losses, ref_losses)

    def test_loss_decreases(self, problem):
        x, y = problem
        rt = Runtime(num_shards=2)
        _wr, losses = rt.execute(train_mlp, x, y, 8, 25, 0.8)
        assert losses[-1] < 0.5 * losses[0]

    def test_tiling_invariance(self, problem):
        """Tile-averaged gradients depend on the tiling when tile sizes
        differ, so we compare equal-tile configurations only: 2 vs 4 tiles
        both divide 32 rows evenly and must agree with their references."""
        x, y = problem
        for tiles in (2, 4):
            rt = Runtime(num_shards=2)
            wr, _losses = rt.execute(train_mlp, x, y, 6, 8, 0.5, tiles)
            w = rt.store.raw(wr, wr.field_space["w"]).copy()
            ref_w, _ = reference_train_mlp(x, y, 6, 8, 0.5, tiles)
            assert np.allclose(w, ref_w), tiles

    def test_graph_validates(self, problem):
        x, y = problem
        rt = Runtime(num_shards=3)
        rt.execute(train_mlp, x, y, 6, 5)
        rt.pipeline.validate()
        from repro.tools import validate_run
        assert validate_run(rt).clean

    def test_data_generator_deterministic(self):
        a = make_regression(10, 3)
        b = make_regression(10, 3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
