"""Kernel registry and task bodies for the deferred array frontend.

Every array operation launches one of a handful of *generic* task bodies
defined at module level (their task keys, made by ``FrontDoor.lower``,
are stable across shards and backends).  The actual arithmetic
is looked up by a kernel code carried in the hashed task arguments, and
operands arrive as base-region blocks plus a :class:`~.views.ViewSpec`
transform description — :func:`~.views.extract_block` reorients each block
into logical order, and NumPy broadcasting does the rest.  A kernel writes
its tile in place through ``out=``; no body builds a temporary the size of
the tile only to copy it.
"""

from __future__ import annotations

import numpy as np

from .views import extract_block

__all__ = ["KERNELS", "elementwise_body", "setitem_body", "fill_tile_body",
           "ingest", "init_body", "reduce_tile_body", "dot_tile_body",
           "axis0_partial_body", "axis0_combine_body", "rowsum_body",
           "matvec_body", "rmatvec_partial_body", "rmatvec_combine_body",
           "matmat_body", "axpy_body"]


def _sigmoid(a, out):
    np.negative(a, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    np.divide(1.0, out, out=out)


def _copy(a, out):
    np.copyto(out, a)


def _where(c, a, b, out):
    np.copyto(out, b)
    np.copyto(out, a, where=c != 0)


#: code -> kernel over logical-order operand blocks, writing the tile
#: through ``out=`` (operands broadcast against it).
KERNELS = {
    # arithmetic
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.true_divide,
    # unary
    "neg": np.negative,
    "abs": np.absolute,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "sigmoid": _sigmoid,
    "copy": _copy,
    # scalar-parameterized
    "pow": np.power,
    "clip": np.clip,
    # binary selections
    "maximum": np.maximum,
    "minimum": np.minimum,
    # comparisons (0.0/1.0 doubles — the NumPy-bool analogue)
    "gt": np.greater,
    "ge": np.greater_equal,
    "lt": np.less,
    "le": np.less_equal,
    "eq": np.equal,
    "ne": np.not_equal,
    # ternary select: cond != 0 ? a : b
    "where": _where,
}


def elementwise_body(point, *packed):
    """Generic elementwise kernel over one aligned tile: array blocks and
    scalars are interleaved back into kernel-call order."""
    code, kinds, specs, scalars = packed[-4:]
    arrs = iter(packed[1:-4])
    svals = iter(scalars)
    spec_it = iter(specs)
    ops = []
    for k in kinds:
        if k == "a":
            ops.append(extract_block(next(arrs)["v"].view, next(spec_it)))
        else:
            ops.append(next(svals))
    KERNELS[code](*ops, out=packed[0]["v"].view)


def setitem_body(point, *packed):
    """Copy a (possibly transformed) source tile into a destination slice
    (``copyto`` broadcasts a size-1 source itself)."""
    spec, = packed[-1:]
    np.copyto(packed[0]["v"].view, extract_block(packed[1]["v"].view, spec))


def fill_tile_body(point, out_arg, value):
    """Write a scalar into one tile of a destination slice."""
    out_arg["v"].view[...] = value


def ingest(values) -> np.ndarray:
    """The payload an init launch carries: a private, read-only,
    C-contiguous float64 copy, so the caller's array is neither aliased
    nor frozen and the bytes that were hashed are the bytes tiles read."""
    data = np.array(values, dtype=np.float64, order="C")
    data.flags.writeable = False
    return data


def init_body(point, out, payload, shape):
    """Slice one tile of a fresh array out of the ingested payload."""
    rect = out.region.index_space.rect
    out["v"].view[...] = np.asarray(payload).reshape(shape)[tuple(
        slice(l, l + e) for l, e in zip(rect.lo, rect.extents))]


# -- reductions ---------------------------------------------------------------

def _tile(arg, spec, shape):
    """An operand's block in logical order, stretched to the logical tile
    ``shape`` only when it is not that shape already: broadcast views
    deliver size-1 blocks that must count once per logical element."""
    block = extract_block(arg["v"].view, spec)
    return block if block.shape == shape else np.broadcast_to(block, shape)


def reduce_tile_body(point, a_arg, code, spec, shapes):
    """Per-tile scalar partial of a full reduction (sum/max/min);
    ``shapes[point]`` is the logical tile shape."""
    block = _tile(a_arg, spec, shapes[point])
    if code == "sum":
        return float(np.sum(block))
    if code == "max":
        return float(np.max(block))
    return float(np.min(block))


def dot_tile_body(point, a_arg, b_arg, spec_a, spec_b, shapes):
    """Per-tile partial inner product."""
    shape = shapes[point]
    a = _tile(a_arg, spec_a, shape)
    return float(np.sum(a * _tile(b_arg, spec_b, shape)))


def axis0_partial_body(point, p_arg, a_arg, code, spec, shapes):
    """One row of the (tiles, M) partials region for an axis-0 reduction."""
    block = _tile(a_arg, spec, shapes[point])
    p = p_arg["v"].view
    if code == "sum":
        p[...] = block.sum(axis=0)
    else:
        p[...] = block.max(axis=0)


def axis0_combine_body(p_arg, o_arg, code):
    """Fold the per-tile partials into the final axis-0 result."""
    p = p_arg["v"].view
    o = o_arg["v"].view
    if code == "sum":
        o[...] = p.sum(axis=0)
    else:
        o[...] = p.max(axis=0)


def rowsum_body(point, out_arg, a_arg, spec, shapes):
    """Tile-local axis-1 sum (rows stay whole under row tiling)."""
    out_arg["v"].view[...] = _tile(a_arg, spec, shapes[point]).sum(axis=1)


# -- linear algebra -----------------------------------------------------------

def matvec_body(point, out_arg, mat_arg, vec_arg, spec):
    """Row tile of (N, F) @ (F,): the whole vector is a broadcast read."""
    mat = extract_block(mat_arg["v"].view, spec)
    out_arg["v"].view[...] = mat @ vec_arg["v"].view


def rmatvec_partial_body(point, p_arg, mat_arg, vec_arg, spec_m, spec_v):
    """One (F,) partial of (N, F).T @ (N,) from one row tile."""
    mat = extract_block(mat_arg["v"].view, spec_m)
    vec = extract_block(vec_arg["v"].view, spec_v)
    p_arg["v"].view[...] = mat.T @ vec


def rmatvec_combine_body(p_arg, o_arg):
    o_arg["v"].view[...] = p_arg["v"].view.sum(axis=0)


def matmat_body(point, out_arg, a_arg, b_arg, spec):
    """Row tile of (N, K) @ (K, M): the right operand is a broadcast read."""
    a = extract_block(a_arg["v"].view, spec)
    out_arg["v"].view[...] = a @ b_arg["v"].view


def axpy_body(point, out_arg, x_arg, alpha, spec):
    """In-place out += alpha * x over one aligned tile."""
    x = extract_block(x_arg["v"].view, spec)
    out_arg["v"].view[...] += alpha * x
