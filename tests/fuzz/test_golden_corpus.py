"""Golden-repro corpus: minimized fuzz programs pinned as fast tier-1 tests.

Each ``golden/*.json`` is a small program that exercises a view/field
corner the fuzz tier covers statistically — length-1 axes, single-tile
arrays, composed slices, transposes of slices, stretched broadcasts,
aliased overlapping setitem, where-chains, dots of slices, axis-0
reductions of transposed views.  Unlike the Hypothesis tier these replay
deterministically on every run, on all three backends, with the same
exact-equality and digest oracles.

To add a case from a fuzz failure, copy the artifact JSON dropped in
REPRO_FUZZ_ARTIFACT_DIR here under a descriptive name.
"""

import glob
import json
import os

import numpy as np
import pytest

from repro.legate.fuzz import (format_program, program_from_json,
                               run_deferred, run_numpy)

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
_CASES = sorted(glob.glob(os.path.join(_GOLDEN_DIR, "*.json")))


def _load(path):
    with open(path) as f:
        return program_from_json(f.read())


def _check_values(ref, got, label):
    assert len(ref["arrays"]) == len(got["arrays"])
    for k, (a, b) in enumerate(zip(ref["arrays"], got["arrays"])):
        assert np.array_equal(a, b), f"{label}: array {k} differs"
    assert ref["scalars"] == got["scalars"], f"{label}: scalars differ"


def test_corpus_is_nonempty():
    assert len(_CASES) >= 10


@pytest.mark.parametrize("path", _CASES,
                         ids=[os.path.basename(p) for p in _CASES])
def test_golden_case(path):
    program = _load(path)
    ref = run_numpy(program)
    vectors = {}
    for backend in ("inprocess", "loopback", "tcp"):
        got, digests = run_deferred(program, num_shards=2,
                                    backend=backend, num_tiles=4)
        _check_values(ref, got, backend)
        assert len(set(digests)) == 1, \
            f"{backend}: shards diverged\n{format_program(program)}"
        vectors[backend] = tuple(digests)
    assert len(set(vectors.values())) == 1, \
        f"digest vectors differ across backends: {vectors}"


@pytest.mark.parametrize("path", _CASES,
                         ids=[os.path.basename(p) for p in _CASES])
def test_golden_case_alternate_tiling(path):
    """The same programs under a different shard count and tile budget."""
    program = _load(path)
    ref = run_numpy(program)
    got, digests = run_deferred(program, num_shards=3,
                                backend="inprocess", num_tiles=2)
    _check_values(ref, got, "inprocess@3x2")
    assert len(set(digests)) == 1


def test_golden_files_are_valid_json():
    for path in _CASES:
        with open(path) as f:
            doc = json.load(f)
        assert isinstance(doc.get("steps"), list) and doc["steps"]
