"""Every kernel body writes the bytes the copy-through-a-temporary form wrote.

A kernel writes its tile in place through ``out=``, an operand block in
logical order comes back untouched under the identity axes, and a body
stretches a block to the tile's shape only when it is not that shape.
Each of those must leave the bytes as they were when every kernel built
its result in a temporary and copied it into the tile, every operand was
transposed and every block was broadcast.  The references below are that
earlier form, kept here verbatim as the oracle.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.legate import ops
from repro.legate.views import ViewSpec


def _f(x):
    return x.astype(np.float64)


#: the kernels as they were: code -> function returning a fresh result
REFERENCE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "neg": lambda a: -a,
    "abs": lambda a: np.abs(a),
    "exp": lambda a: np.exp(a),
    "log": lambda a: np.log(a),
    "sqrt": lambda a: np.sqrt(a),
    "tanh": lambda a: np.tanh(a),
    "sigmoid": lambda a: 1.0 / (1.0 + np.exp(-a)),
    "copy": lambda a: a,
    "pow": lambda a, e: np.power(a, e),
    "clip": lambda a, lo, hi: np.clip(a, lo, hi),
    "maximum": lambda a, b: np.maximum(a, b),
    "minimum": lambda a, b: np.minimum(a, b),
    "gt": lambda a, b: _f(a > b),
    "ge": lambda a, b: _f(a >= b),
    "lt": lambda a, b: _f(a < b),
    "le": lambda a, b: _f(a <= b),
    "eq": lambda a, b: _f(a == b),
    "ne": lambda a, b: _f(a != b),
    "where": lambda c, a, b: np.where(c != 0, a, b),
}

#: the operand kinds each code is launched with ("a" array, "s" scalar):
#: binary codes take scalars on either side (``2 - x`` is ("s", "a"))
KINDS = {code: ("aa", "as", "sa") for code in
         ("add", "sub", "mul", "div", "maximum", "minimum",
          "gt", "ge", "lt", "le", "eq", "ne")}
KINDS.update({code: ("a",) for code in
              ("neg", "abs", "exp", "log", "sqrt", "tanh", "sigmoid",
               "copy")})
KINDS.update({"pow": ("as",), "clip": ("ass",), "where": ("aaa", "aas")})

SPECIALS = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1.5,
                     0.5, 1.0, 2.0, -3.25, 700.0, -745.5])
SCALARS = (-0.0, np.nan, np.inf, -np.inf, 2.0, 0.5, -1.5)
TILE = (4, 5)


def old_extract_block(block, spec):
    (axes,) = spec
    arr = block.transpose([b for b in axes if b is not None]
                          if None in axes else axes)
    for d, b in enumerate(axes):
        if b is None:
            arr = np.expand_dims(arr, d)
    return arr


def values(rng, shape):
    """Specials (signed zeros, NaN, infinities, a subnormal, overflow and
    underflow points of exp) mixed with normals."""
    n = int(np.prod(shape))
    vals = np.where(rng.random(n) < 0.5, rng.choice(SPECIALS, n),
                    rng.normal(0.0, 4.0, n))
    return vals.reshape(shape)


def layouts(rng):
    """(name, base block, spec) of a (4, 5) logical operand, one per way a
    view can reach a kernel: identity, a strided slice, a transpose, a
    stretched row or column, a new leading axis, and a transposed new
    axis."""
    big = values(rng, (6, 9))
    return [
        ("identity", values(rng, TILE), ViewSpec.identity(TILE)),
        ("slice", big[1:5, 2:7],
         ViewSpec.identity((6, 9)).sliced([(1, 5), (2, 7)])),
        ("transposed", values(rng, (5, 4)),
         ViewSpec.identity((5, 4)).transposed()),
        ("stretched_row", values(rng, (1, 5)),
         ViewSpec.identity((1, 5)).broadcast_to(TILE)),
        ("stretched_col", values(rng, (4, 1)),
         ViewSpec.identity((4, 1)).broadcast_to(TILE)),
        ("new_axis", values(rng, (5,)),
         ViewSpec.identity((5,)).broadcast_to(TILE)),
        ("transposed_new_axis", values(rng, (4,)),
         ViewSpec.identity((4,)).broadcast_to((5, 4)).transposed()),
    ]


def arg(array):
    """What a task body indexes: ``arg["v"].view``."""
    return {"v": SimpleNamespace(view=array)}


def out_tiles():
    """A fresh contiguous tile and a strided column tile of a larger
    field, both poisoned so an unwritten element shows."""
    field = np.full((4, 9), 123.0)
    return [np.full(TILE, 123.0), field[:, 2:7]]


def operand_sets(rng, kinds):
    """Operand tuples for one kinds string: every layout in every array
    slot (the others identity or transposed), every scalar in a scalar
    slot."""
    lay = layouts(rng)
    for i, (name, block, view) in enumerate(lay):
        for k, scalar in enumerate(SCALARS if "s" in kinds else (None,)):
            picks = []
            for slot, kind in enumerate(kinds):
                if kind == "s":
                    picks.append(SCALARS[(k + slot) % len(SCALARS)])
                elif slot == kinds.index("a"):
                    picks.append((block, view.task_spec()))
                else:
                    _, b, v = lay[(i + slot) % 3]
                    picks.append((b, v.task_spec()))
            yield f"{name}/{scalar}", picks


@pytest.mark.parametrize("code", sorted(REFERENCE))
def test_every_kernel_writes_the_bytes_of_the_copied_result(code):
    assert set(ops.KERNELS) == set(REFERENCE)
    rng = np.random.default_rng(sorted(REFERENCE).index(code))
    for kinds in KINDS[code]:
        for label, picks in operand_sets(rng, kinds):
            blocks = [p for p in picks if isinstance(p, tuple)]
            scalars = tuple(p for p in picks if not isinstance(p, tuple))
            specs = tuple(spec for _, spec in blocks)
            for tile in out_tiles():
                want = tile.copy()
                with np.errstate(all="ignore"):
                    np.copyto(want, REFERENCE[code](*[
                        old_extract_block(*p) if isinstance(p, tuple) else p
                        for p in picks]))
                    ops.elementwise_body(
                        0, arg(tile), *[arg(b) for b, _ in blocks], code,
                        kinds, specs, scalars)
                assert tile.tobytes() == want.tobytes(), (code, kinds, label)


# -- the other bodies, against their earlier form ------------------------------

def old_setitem(out, src, spec):
    src = old_extract_block(src, spec)
    np.copyto(out, np.broadcast_to(src, out.shape))


def old_reduce_tile(block, code, spec, shape):
    block = np.broadcast_to(old_extract_block(block, spec), shape)
    if code == "sum":
        return float(np.sum(block))
    if code == "max":
        return float(np.max(block))
    return float(np.min(block))


def old_dot_tile(a, b, spec_a, spec_b, shape):
    a = np.broadcast_to(old_extract_block(a, spec_a), shape)
    b = np.broadcast_to(old_extract_block(b, spec_b), shape)
    return float(np.sum(a * b))


def old_axis0_partial(p, block, code, spec, shape):
    block = np.broadcast_to(old_extract_block(block, spec), shape)
    p[...] = block.sum(axis=0) if code == "sum" else block.max(axis=0)


def old_rowsum(out, block, spec, shape):
    out[...] = np.broadcast_to(old_extract_block(block, spec),
                               shape).sum(axis=1)


def f64(x):
    return np.float64(x).tobytes()


@pytest.fixture
def operands():
    """Every layout, finite values only (a sum over NaN shows nothing)."""
    rng = np.random.default_rng(7)
    out = []
    for name, block, view in layouts(rng):
        block = np.nan_to_num(block, nan=1.25, posinf=9.0, neginf=-9.0)
        out.append((name, block, view.task_spec()))
    return out


def test_layouts_include_blocks_that_need_a_broadcast_and_ones_that_do_not(
        operands):
    needs = {name: ops.extract_block(block, spec).shape != TILE
             for name, block, spec in operands}
    assert not needs["identity"] and not needs["transposed"]
    assert needs["stretched_row"] and needs["new_axis"]


def test_setitem(operands):
    for name, block, spec in operands:
        for tile in out_tiles():
            want = tile.copy()
            old_setitem(want, block, spec)
            ops.setitem_body(0, arg(tile), arg(block), spec)
            assert tile.tobytes() == want.tobytes(), name


def test_reduce_tile(operands):
    for name, block, spec in operands:
        for code in ("sum", "max", "min"):
            got = ops.reduce_tile_body(3, arg(block), code, spec,
                                       {3: TILE})
            assert f64(got) == f64(old_reduce_tile(block, code, spec,
                                                   TILE)), (name, code)


def test_dot_tile(operands):
    for name, block, spec in operands:
        for _, other, other_spec in operands:
            got = ops.dot_tile_body(1, arg(block), arg(other), spec,
                                    other_spec, {1: TILE})
            want = old_dot_tile(block, other, spec, other_spec, TILE)
            assert f64(got) == f64(want), name


def test_axis0_partial(operands):
    for name, block, spec in operands:
        for code in ("sum", "max"):
            got, want = np.zeros((1, 5)), np.zeros((1, 5))
            ops.axis0_partial_body(0, arg(got), arg(block), code, spec,
                                   (TILE,))
            old_axis0_partial(want, block, code, spec, TILE)
            assert got.tobytes() == want.tobytes(), (name, code)


def test_rowsum(operands):
    for name, block, spec in operands:
        got, want = np.zeros(4), np.zeros(4)
        ops.rowsum_body(0, arg(got), arg(block), spec, (TILE,))
        old_rowsum(want, block, spec, TILE)
        assert got.tobytes() == want.tobytes(), name


def test_identity_block_comes_back_untouched():
    block = np.arange(20.0).reshape(4, 5)
    assert ops.extract_block(block, ViewSpec.identity(TILE)
                             .task_spec()) is block
    moved = ops.extract_block(block, ViewSpec.identity(TILE).transposed()
                              .task_spec())
    assert np.shares_memory(moved, block) and moved.shape == (5, 4)
