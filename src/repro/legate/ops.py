"""Kernel registry and task bodies for the deferred array frontend.

Every array operation launches one of a handful of *generic* task bodies
defined at module level (their task keys, made by ``FrontDoor.lower``,
are stable across shards and backends).  The actual arithmetic
is looked up by a kernel code carried in the hashed task arguments, and
operands arrive as base-region blocks plus a :class:`~.views.ViewSpec`
transform description — :func:`~.views.extract_block` reorients each block
into logical order, and NumPy broadcasting does the rest.
"""

from __future__ import annotations

import numpy as np

from .views import extract_block

__all__ = ["KERNELS", "elementwise_body", "setitem_body", "fill_tile_body",
           "ingest", "init_body", "reduce_tile_body", "dot_tile_body",
           "axis0_partial_body", "axis0_combine_body", "rowsum_body",
           "matvec_body", "rmatvec_partial_body", "rmatvec_combine_body",
           "matmat_body", "axpy_body"]


def _f(x):
    return x.astype(np.float64)


#: code -> kernel over logical-order operand blocks (arrays broadcast).
KERNELS = {
    # arithmetic
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    # unary
    "neg": lambda a: -a,
    "abs": lambda a: np.abs(a),
    "exp": lambda a: np.exp(a),
    "log": lambda a: np.log(a),
    "sqrt": lambda a: np.sqrt(a),
    "tanh": lambda a: np.tanh(a),
    "sigmoid": lambda a: 1.0 / (1.0 + np.exp(-a)),
    "copy": lambda a: a,
    # scalar-parameterized
    "pow": lambda a, e: np.power(a, e),
    "clip": lambda a, lo, hi: np.clip(a, lo, hi),
    # binary selections
    "maximum": lambda a, b: np.maximum(a, b),
    "minimum": lambda a, b: np.minimum(a, b),
    # comparisons (0.0/1.0 doubles — the NumPy-bool analogue)
    "gt": lambda a, b: _f(a > b),
    "ge": lambda a, b: _f(a >= b),
    "lt": lambda a, b: _f(a < b),
    "le": lambda a, b: _f(a <= b),
    "eq": lambda a, b: _f(a == b),
    "ne": lambda a, b: _f(a != b),
    # ternary select: cond != 0 ? a : b
    "where": lambda c, a, b: np.where(c != 0, a, b),
}


def _operands(rargs, kinds, specs, scalars):
    """Interleave array blocks and scalars back into kernel-call order."""
    arrs = iter(rargs)
    svals = iter(scalars)
    spec_it = iter(specs)
    out = []
    for k in kinds:
        if k == "a":
            out.append(extract_block(next(arrs)["v"].view, next(spec_it)))
        else:
            out.append(next(svals))
    return out


def elementwise_body(point, *packed):
    """Generic elementwise kernel over one aligned tile."""
    code, kinds, specs, scalars = packed[-4:]
    out = packed[0]["v"].view
    ops = _operands(packed[1:-4], kinds, specs, scalars)
    np.copyto(out, KERNELS[code](*ops))


def setitem_body(point, *packed):
    """Copy a (possibly transformed) source tile into a destination slice."""
    spec, = packed[-1:]
    out = packed[0]["v"].view
    src = extract_block(packed[1]["v"].view, spec)
    np.copyto(out, np.broadcast_to(src, out.shape))


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

def reduce_tile_body(point, a_arg, code, spec, shapes):
    """Per-tile scalar partial of a full reduction (sum/max/min).

    ``shapes[point]`` is the logical tile shape: broadcast views deliver
    size-1 blocks that must count once per logical element.
    """
    block = np.broadcast_to(extract_block(a_arg["v"].view, spec),
                            shapes[point])
    if code == "sum":
        return float(np.sum(block))
    if code == "max":
        return float(np.max(block))
    return float(np.min(block))


def dot_tile_body(point, a_arg, b_arg, spec_a, spec_b, shapes):
    """Per-tile partial inner product."""
    a = np.broadcast_to(extract_block(a_arg["v"].view, spec_a), shapes[point])
    b = np.broadcast_to(extract_block(b_arg["v"].view, spec_b), shapes[point])
    return float(np.sum(a * b))


def axis0_partial_body(point, p_arg, a_arg, code, spec, shapes):
    """One row of the (tiles, M) partials region for an axis-0 reduction."""
    block = np.broadcast_to(extract_block(a_arg["v"].view, spec),
                            shapes[point])
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
    block = np.broadcast_to(extract_block(a_arg["v"].view, spec),
                            shapes[point])
    out_arg["v"].view[...] = block.sum(axis=1)


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
