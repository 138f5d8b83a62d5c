"""Trace replay changes what analysis costs, never what it produces.

Four array programs run auto-traced at 1, 3 and 4 shards in one fresh
interpreter (uid counters start from zero there, so the digests are
reproducible); the task-graph digest and the per-shard determinism digests
are pinned to the values the per-op epoch fold produced before replays were
settled per run.  ``replayed`` pins how much of each program a replay
serves, so the pins keep covering the replay path.
"""

import os
import subprocess
import sys

_SCRIPT = r"""
import hashlib
import numpy as np
from repro.core.pipeline import analysis_digest
from repro.legate import (kmeans, logistic_regression, make_blobs,
                          make_problem, make_wave, preconditioned_cg,
                          sliced_stencil)
from repro.runtime import Runtime

n = 24
a = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
programs = [
    (sliced_stencil, (make_wave(2048), 50, 8)),
    (preconditioned_cg, (a, np.arange(1.0, n + 1), 20, 4)),
    (kmeans, (make_blobs(24, 3, 3), 3, 5, 4)),
    (logistic_regression, make_problem(29, 5) + (6, 0.5, 4)),
]
for fn, args in programs:
    for shards in (1, 3, 4):
        rt = Runtime(num_shards=shards, auto_trace=True)
        rt.execute(fn, *args)
        p = rt.pipeline
        streams = hashlib.sha256(
            repr(rt.determinism_digests()).encode()).hexdigest()
        print(fn.__name__, shards, p.stats.traced_ops, p.stats.ops,
              analysis_digest(p.coarse_result, p.fine_result)[:16],
              streams[:16])
"""

# program, shards, replayed ops, ops, task-graph digest, determinism digest
_PINNED = """\
sliced_stencil 1 144 151 b10770072c5f0a6b 0c714e9d5c957075
sliced_stencil 3 144 151 e3b4dfb4ee9f5735 d46dcfac978c917a
sliced_stencil 4 144 151 845001324fc1eb65 71b3eed94990d85b
preconditioned_cg 1 96 169 88575a9fe7324270 d6ed9416602f5cec
preconditioned_cg 3 96 169 ae8501366576bebf 48ee5f3e185f35e2
preconditioned_cg 4 96 169 ac4a567e11dc7078 88724d26fb87b9b6
kmeans 1 0 198 854ab996a3d8b083 4d9688bcb1e4eb68
kmeans 3 0 198 df5751c2f55784f7 2f9b4c47e3ace754
kmeans 4 0 198 8e2e5a0b8e736542 20348929b93b695d
logistic_regression 1 0 39 87d3a9c3d65dd850 ddf5fdb05f09cb9d
logistic_regression 3 0 39 b659a730226cb2a6 553c03ce626c7705
logistic_regression 4 0 39 62b3245ef458118e 3369bc8f79ee9034
"""


def test_auto_traced_products_are_the_eager_folds():
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out == _PINNED
