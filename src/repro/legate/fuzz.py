"""Differential fuzzing support for the deferred array frontend.

A fuzz *program* is a JSON-able list of step dicts over a growing list of
arrays — creations, elementwise ops, view transforms (slice / transpose /
broadcast), in-place slice writes, and reductions.  Two interpreters run
the same program:

* :func:`run_numpy` — the reference semantics, plain ndarrays;
* :func:`run_deferred` — the deferred frontend under a replicated
  :class:`~repro.runtime.Runtime` on any backend, returning the outputs
  *and* the per-shard control-determinism digest vector.

The generated domain is **integer-valued doubles**: creations and scalars
are small integers, the op set preserves integrality (no division or
transcendentals), and multiplies/dots are gated by a tracked magnitude
bound so every intermediate — including arbitrarily re-associated tiled
reduction partials — stays below 2**53 and is therefore *exact* in
float64.  That turns the usual "allclose" fuzz oracle into strict
equality: any tiling, any shard count, any backend must reproduce NumPy
bit-for-bit, and all shards must hash the identical call stream.

:func:`format_program` prints a program as readable pseudo-assignments;
failures shrink well because every step is locally droppable.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

import numpy as np

from ..runtime import Runtime
from .array import LegateContext

__all__ = ["run_numpy", "run_deferred", "format_program",
           "program_to_json", "program_from_json", "MAX_EXACT"]

#: Magnitude cap for generated intermediates: products stay below this and
#: reduction totals below 2**53, so float64 arithmetic is exact.
MAX_EXACT = float(2 ** 40)

_BINARY_NP = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "maximum": np.maximum,
    "minimum": np.minimum,
    "gt": lambda a, b: (a > b).astype(np.float64),
    "ge": lambda a, b: (a >= b).astype(np.float64),
    "lt": lambda a, b: (a < b).astype(np.float64),
    "le": lambda a, b: (a <= b).astype(np.float64),
    "eq": lambda a, b: (a == b).astype(np.float64),
    "ne": lambda a, b: (a != b).astype(np.float64),
}

_BINARY_DEF = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "maximum": lambda a, b: a.maximum(b),
    "minimum": lambda a, b: a.minimum(b),
    "gt": lambda a, b: a.greater(b),
    "ge": lambda a, b: a.greater_equal(b),
    "lt": lambda a, b: a.less(b),
    "le": lambda a, b: a.less_equal(b),
    "eq": lambda a, b: a.equal(b),
    "ne": lambda a, b: a.not_equal(b),
}

_UNARY_NP = {
    "neg": lambda a: -a,
    "abs": np.abs,
    "copy": lambda a: a.copy(),
}

_UNARY_DEF = {
    "neg": lambda a: -a,
    "abs": lambda a: a.abs(),
    "copy": lambda a: a.copy(),
}


def _key(bounds: List[List[int]]) -> Tuple[slice, ...]:
    return tuple(slice(lo, stop) for lo, stop in bounds)


def _interpret(program: List[Dict[str, Any]], make, unary, binary,
               setitem, reduce_step) -> Tuple[List[Any], List[float]]:
    """Shared control flow of both interpreters."""
    arrays: List[Any] = []
    scalars: List[float] = []
    for step in program:
        op = step["op"]
        if op == "create":
            arrays.append(make(step))
        elif op == "unary":
            arrays.append(unary[step["fn"]](arrays[step["src"]]))
        elif op == "binary":
            arrays.append(binary[step["fn"]](arrays[step["a"]],
                                             arrays[step["b"]]))
        elif op == "scalar":
            arrays.append(binary[step["fn"]](arrays[step["a"]],
                                             float(step["s"])))
        elif op == "where":
            c, a, b = (arrays[step[k]] for k in ("c", "a", "b"))
            arrays.append(a.where(c, b) if hasattr(a, "where")
                          else np.where(c != 0, a, b).astype(np.float64))
        elif op == "slice":
            arrays.append(arrays[step["src"]][_key(step["bounds"])])
        elif op == "transpose":
            arrays.append(arrays[step["src"]].T)
        elif op == "broadcast":
            src = arrays[step["src"]]
            shape = tuple(step["shape"])
            if hasattr(src, "broadcast_to"):
                arrays.append(src.broadcast_to(shape))
            else:
                arrays.append(np.broadcast_to(src, shape))
        elif op == "setitem":
            setitem(arrays, step)
        elif op in ("sum", "max", "dot"):
            value = reduce_step(arrays, step)
            if isinstance(value, float):
                scalars.append(value)
            else:
                arrays.append(value)
        else:
            raise ValueError(f"unknown fuzz op {op!r}")
    return arrays, scalars


# -- NumPy reference interpreter ----------------------------------------------

def run_numpy(program: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reference run: final contents of every array plus scalar results."""

    def make(step):
        return np.array(step["values"],
                        dtype=np.float64).reshape(step["shape"])

    def setitem(arrays, step):
        dst = arrays[step["dst"]]
        if "src" in step:
            dst[_key(step["bounds"])] = arrays[step["src"]]
        else:
            dst[_key(step["bounds"])] = float(step["s"])

    def reduce_step(arrays, step):
        if step["op"] == "dot":
            return float(np.sum(arrays[step["a"]] * arrays[step["b"]]))
        a = arrays[step["src"]]
        axis = step.get("axis")
        if step["op"] == "sum":
            return float(np.sum(a)) if axis is None \
                else np.sum(a, axis=axis)
        return float(np.max(a)) if axis is None else np.max(a, axis=axis)

    arrays, scalars = _interpret(program, make, _UNARY_NP, _BINARY_NP,
                                 setitem, reduce_step)
    return {"arrays": [np.array(a, dtype=np.float64) for a in arrays],
            "scalars": scalars}


# -- deferred-frontend interpreter --------------------------------------------

def run_deferred(program: List[Dict[str, Any]], num_shards: int = 1,
                 backend: str = "inprocess", num_tiles: int = 4
                 ) -> Tuple[Dict[str, Any], List[int]]:
    """Run the program replicated; returns (outputs, per-shard digests).

    Digest vectors depend only on the program, so they compare equal
    across repeated runs (and backends) in one process.
    """

    def control(ctx):
        lg = LegateContext(ctx, num_tiles=num_tiles)

        def make(step):
            return lg.from_values(
                np.array(step["values"],
                         dtype=np.float64).reshape(step["shape"]))

        def setitem(arrays, step):
            dst = arrays[step["dst"]]
            if "src" in step:
                dst[_key(step["bounds"])] = arrays[step["src"]]
            else:
                dst[_key(step["bounds"])] = float(step["s"])

        def reduce_step(arrays, step):
            if step["op"] == "dot":
                return arrays[step["a"]].dot(arrays[step["b"]])
            a = arrays[step["src"]]
            axis = step.get("axis")
            if step["op"] == "sum":
                return a.sum(axis=axis)
            return a.max(axis=axis)

        arrays, scalars = _interpret(program, make, _UNARY_DEF, _BINARY_DEF,
                                     setitem, reduce_step)
        return {"arrays": [a.to_numpy() for a in arrays],
                "scalars": scalars}

    rt = Runtime(num_shards=num_shards, backend=backend)
    out = rt.execute(control)
    return out, rt.determinism_digests()


# -- serialization & pretty-printing ------------------------------------------

def program_to_json(program: List[Dict[str, Any]]) -> str:
    return json.dumps({"steps": program}, indent=1)


def program_from_json(text: str) -> List[Dict[str, Any]]:
    return json.loads(text)["steps"]


def format_program(program: List[Dict[str, Any]]) -> str:
    """Render a program as readable pseudo-assignments (repro aid)."""
    lines: List[str] = []
    n_arr = n_sc = 0

    def bnd(bounds):
        return ", ".join(f"{lo}:{stop}" for lo, stop in bounds)

    for step in program:
        op = step["op"]
        if op == "create":
            lines.append(f"a{n_arr} = create{tuple(step['shape'])} "
                         f"values={step['values']}")
            n_arr += 1
        elif op == "unary":
            lines.append(f"a{n_arr} = {step['fn']}(a{step['src']})")
            n_arr += 1
        elif op == "binary":
            lines.append(
                f"a{n_arr} = {step['fn']}(a{step['a']}, a{step['b']})")
            n_arr += 1
        elif op == "scalar":
            lines.append(
                f"a{n_arr} = {step['fn']}(a{step['a']}, {step['s']})")
            n_arr += 1
        elif op == "where":
            lines.append(f"a{n_arr} = where(a{step['c']} != 0, "
                         f"a{step['a']}, a{step['b']})")
            n_arr += 1
        elif op == "slice":
            lines.append(
                f"a{n_arr} = a{step['src']}[{bnd(step['bounds'])}]")
            n_arr += 1
        elif op == "transpose":
            lines.append(f"a{n_arr} = a{step['src']}.T")
            n_arr += 1
        elif op == "broadcast":
            lines.append(f"a{n_arr} = broadcast(a{step['src']}, "
                         f"{tuple(step['shape'])})")
            n_arr += 1
        elif op == "setitem":
            src = f"a{step['src']}" if "src" in step else str(step["s"])
            lines.append(
                f"a{step['dst']}[{bnd(step['bounds'])}] = {src}")
        elif op in ("sum", "max", "dot"):
            if op == "dot":
                rhs = f"dot(a{step['a']}, a{step['b']})"
            else:
                rhs = f"{op}(a{step['src']}, axis={step.get('axis')})"
            if step.get("axis") is None or op == "dot":
                lines.append(f"s{n_sc} = {rhs}")
                n_sc += 1
            else:
                lines.append(f"a{n_arr} = {rhs}")
                n_arr += 1
        else:
            lines.append(f"?? {step}")
    return "\n".join(lines)
