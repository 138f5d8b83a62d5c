"""ViewSpec transform algebra and the automatic chunker."""

import numpy as np
import pytest

from repro.legate.views import (ViewSpec, ViewTable, choose_tiling,
                                extract_block)


def tiles_cover(rects, shape):
    """Every index covered exactly once (disjoint + complete)."""
    seen = np.zeros(shape, dtype=int)
    for lo, hi in rects:
        seen[tuple(slice(l, h + 1) for l, h in zip(lo, hi))] += 1
    return (seen == 1).all()


class TestViewSpec:
    def test_identity(self):
        v = ViewSpec.identity((4, 5))
        assert v.is_identity and v.writable
        assert v.shape == (4, 5) and v.ndim == 2

    def test_slice_accumulates_offsets(self):
        v = ViewSpec.identity((10,)).sliced([(2, 9)]).sliced([(1, 5)])
        assert v.shape == (4,)
        assert v.offsets == (3,)
        assert v.writable and not v.is_identity

    def test_slice_bounds_validated(self):
        v = ViewSpec.identity((4,))
        with pytest.raises(ValueError):
            v.sliced([(1, 5)])
        with pytest.raises(ValueError):
            v.sliced([(2, 2)])          # empty

    def test_transpose_reverses_axes(self):
        v = ViewSpec.identity((3, 7)).transposed()
        assert v.shape == (7, 3)
        assert v.axes == (1, 0)
        assert not v.writable           # writes through a transpose are not

    def test_transpose_of_slice(self):
        v = ViewSpec.identity((4, 6)).sliced([(1, 4), (2, 6)]).transposed()
        assert v.shape == (4, 3)
        assert v.offsets == (1, 2)      # offsets stay in base order

    def test_broadcast_marks_stretched_and_new_axes(self):
        v = ViewSpec.identity((1, 3)).broadcast_to((5, 4, 3))
        assert v.shape == (5, 4, 3)
        assert v.axes[0] is None        # brand-new leading axis
        assert v.stretched[1]           # size-1 stretched to 4
        assert not v.writable

    def test_broadcast_rejects_mismatch(self):
        with pytest.raises(ValueError):
            ViewSpec.identity((3,)).broadcast_to((4,))

    def test_base_rect_identity_and_slice(self):
        v = ViewSpec.identity((10,)).sliced([(3, 8)])
        assert v.base_rect((0,), (4,)) == ((3,), (7,))

    def test_base_rect_through_transpose(self):
        v = ViewSpec.identity((4, 6)).transposed()
        # logical rect rows 1..2, cols 0..3 -> base rows 0..3, cols 1..2
        assert v.base_rect((1, 0), (2, 3)) == ((0, 1), (3, 2))

    def test_base_rect_stretched_pins_to_offset(self):
        v = ViewSpec.identity((1, 3)).broadcast_to((5, 3))
        lo, hi = v.base_rect((0, 0), (4, 2))
        assert lo == (0, 0) and hi == (0, 2)

    def test_read_matches_numpy_composition(self):
        raw = np.arange(24, dtype=np.float64).reshape(4, 6)
        v = ViewSpec.identity((4, 6)).sliced([(1, 4), (2, 6)]).transposed()
        assert np.array_equal(v.read(raw), raw[1:4, 2:6].T)

    def test_extract_block_reorients(self):
        block = np.arange(6.0).reshape(2, 3)
        out = extract_block(block, ((1, 0),))
        assert np.array_equal(out, block.T)
        out = extract_block(block, ((None, 0, 1),))
        assert out.shape == (1, 2, 3)


class TestChooseTiling:
    def test_1d_contiguous_cover(self):
        rects = choose_tiling((17,), 4)
        assert len(rects) == 4
        assert tiles_cover(rects, (17,))

    def test_1d_small_array_clamps(self):
        assert len(choose_tiling((2,), 4)) == 2
        assert len(choose_tiling((1,), 4)) == 1

    def test_2d_grid(self):
        rects = choose_tiling((8, 8), 4)
        assert len(rects) == 4          # 4 row tiles, budget consumed
        assert tiles_cover(rects, (8, 8))

    def test_chunking_bug_regression_short_leading_dim(self):
        # The latent bug: tiles = min(num_tiles, shape[0]) degraded a
        # (2, 1024) array to 2 tiles.  The chunker must spend the spare
        # budget on columns: 2 rows x 2 cols = 4 non-empty tiles.
        rects = choose_tiling((2, 1024), 4)
        assert len(rects) == 4
        assert tiles_cover(rects, (2, 1024))
        assert all(hi[0] >= lo[0] and hi[1] >= lo[1] for lo, hi in rects)

    def test_single_row_gets_column_tiles(self):
        rects = choose_tiling((1, 100), 4)
        assert len(rects) == 4
        assert tiles_cover(rects, (1, 100))

    def test_row_only_forces_whole_rows(self):
        rects = choose_tiling((2, 1024), 4, row_only=True)
        assert len(rects) == 2
        assert all(lo[1] == 0 and hi[1] == 1023 for lo, hi in rects)

    def test_never_empty_tiles(self):
        for shape in [(1,), (3,), (5, 2), (2, 2), (1, 1)]:
            for t in (1, 2, 4, 8):
                for lo, hi in choose_tiling(shape, t):
                    assert all(h >= l for l, h in zip(lo, hi))


class TestViewTable:
    def test_equal_views_are_one_object_and_the_table_stays_bounded(self):
        table = ViewTable(16)
        base = table.identity((64,))
        assert table.identity((64,)) is base
        a = table.sliced(base, slice(0, 8))
        assert table.sliced(base, (slice(0, 8),)) is a      # same triples
        assert table.sliced(base, slice(None, 8)) is a      # equal view
        assert table.transformed(a, "b", (3, 8)).shape == (3, 8)
        for lo in range(40):
            assert table.sliced(base, slice(lo, lo + 8)).offsets == (lo,)
            assert len(table) <= 16
