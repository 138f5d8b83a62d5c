"""Differential fuzz tier: deferred arrays vs NumPy, across backends.

Every generated program (see :mod:`strategies`) must satisfy, with ZERO
tolerance (the integer-valued-double domain makes float64 exact):

* value equality with NumPy for every live array and scalar result;
* an identical control-determinism digest on every shard of a run;
* the identical digest vector across the inprocess, loopback and
  multiprocess backends at the same shard count.

Profiles (REPRO_FUZZ_PROFILE): ``dev`` (default, small and derandomized —
tier-1 safe), ``ci`` (bigger derandomized budget), ``extended``
(randomized soak for workflow_dispatch runs).

On failure the minimal program is written to REPRO_FUZZ_ARTIFACT_DIR (if
set) as JSON plus a readable transcript; re-run it with
``repro.legate.fuzz.run_deferred(program_from_json(...))``.  The
falsifying example's transcript is also attached as a hypothesis note.
"""

import os

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, note, settings

from repro.legate.fuzz import (format_program, program_to_json, run_deferred,
                               run_numpy)
from strategies import fuzz_cases

_PROFILE = os.environ.get("REPRO_FUZZ_PROFILE", "dev")
_BUDGETS = {"dev": (20, 5), "ci": (150, 30), "extended": (500, 80)}
if _PROFILE not in _BUDGETS:
    raise ValueError(f"unknown REPRO_FUZZ_PROFILE {_PROFILE!r}; "
                     f"expected one of {sorted(_BUDGETS)}")
_DIFF_EXAMPLES, _CROSS_EXAMPLES = _BUDGETS[_PROFILE]

_COMMON = dict(
    deadline=None,
    derandomize=_PROFILE != "extended",
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much,
                           HealthCheck.large_base_example],
)


def _dump_artifact(program, name):
    art_dir = os.environ.get("REPRO_FUZZ_ARTIFACT_DIR")
    if not art_dir:
        return
    os.makedirs(art_dir, exist_ok=True)
    with open(os.path.join(art_dir, f"{name}.json"), "w") as f:
        f.write(program_to_json(program))
    with open(os.path.join(art_dir, f"{name}.txt"), "w") as f:
        f.write(format_program(program) + "\n")


def _assert_same(ref, got):
    assert len(ref["arrays"]) == len(got["arrays"])
    for k, (a, b) in enumerate(zip(ref["arrays"], got["arrays"])):
        assert a.shape == np.asarray(b).shape, f"array {k} shape"
        assert np.array_equal(a, b), \
            f"array {k} differs:\nnumpy   ={a!r}\ndeferred={b!r}"
    assert ref["scalars"] == got["scalars"], "scalar results differ"


@given(case=fuzz_cases())
@settings(max_examples=_DIFF_EXAMPLES, **_COMMON)
def test_deferred_matches_numpy(case):
    """Exact value + digest-uniformity oracle on the inprocess backend."""
    program, shards, tiles = case
    try:
        ref = run_numpy(program)
        got1, dig1 = run_deferred(program, num_shards=1,
                                  backend="inprocess", num_tiles=tiles)
        _assert_same(ref, got1)
        gotn, dign = run_deferred(program, num_shards=shards,
                                  backend="inprocess", num_tiles=tiles)
        _assert_same(ref, gotn)
        assert len(dign) == shards
        assert len(set(dign)) == 1, "shards hashed different call streams"
        # The digest is a pure function of the control program — the
        # shard count must not perturb any hashed call.
        assert dig1[0] == dign[0], "digest changed with shard count"
    except AssertionError:
        note(format_program(program))
        _dump_artifact(program, "diff_failure")
        raise


@given(case=fuzz_cases(max_steps=6))
@settings(max_examples=_CROSS_EXAMPLES, **_COMMON)
def test_cross_backend_values_and_digests(case):
    """All three backends: NumPy-equal values, equal digest vectors."""
    program, shards, tiles = case
    try:
        ref = run_numpy(program)
        vectors = {}
        for backend in ("inprocess", "loopback", "tcp"):
            got, digests = run_deferred(program, num_shards=shards,
                                        backend=backend, num_tiles=tiles)
            _assert_same(ref, got)
            assert len(set(digests)) == 1, f"{backend}: shard divergence"
            vectors[backend] = tuple(digests)
        assert len(set(vectors.values())) == 1, \
            f"digest vectors differ across backends: {vectors}"
    except AssertionError:
        note(format_program(program))
        _dump_artifact(program, "cross_backend_failure")
        raise
