"""The seven end-to-end workloads and their correctness oracles.

Every workload is a closed loop with one client: :meth:`op` runs one
operation (one ``Runtime.execute``, one sweep of them, or one service job,
submit to result) and :meth:`check` verifies what it produced.  Inputs are
functions of ``seed`` only, and seeds change payload values, never program
structure, so timings stay comparable across seeds.  ``smoke`` shrinks the
inputs for the under-30-second smoke run.

README.md and BENCHMARK.json record why each workload exists and which
layer it stresses.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.dist import run_reference
from repro.dist.programs import OpSpec, ProgramSpec
from repro.legate import (LegateContext, kmeans, logistic_regression,
                          make_blobs, make_problem, preconditioned_cg,
                          reference_kmeans, reference_logistic_regression,
                          reference_preconditioned_cg, reference_stencil,
                          sliced_stencil)
from repro.legate.stencil import make_wave
from repro.runtime import Runtime
from repro.service import DCRService
from repro.service.loadgen import _with_fresh_params, make_shape_pool

__all__ = ["make_workload", "verify_extra_programs"]

def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------------------
# Array programs through Runtime.execute
# ---------------------------------------------------------------------------

class ArrayWorkload:
    """One array program on one ``Runtime`` configuration."""

    #: Operations after which the exact-repeat counts have seen every input.
    count_cycle = 1

    def __init__(self, name: str, backend: str, shards: int,
                 auto_trace: bool = False):
        self.name = name
        self.backend = backend
        self.shards = shards
        self.auto_trace = auto_trace
        self.profiler = None          # set per operation by the traced loop
        self.rts: List[Runtime] = []  # runtimes of the last operation
        self.out: Any = None

    # subclasses fill these in setup()
    program: Any = None
    args: tuple = ()
    expected: Any = None
    exact = True                      # bit-equality pinned by the tests

    def setup(self, seed: int, smoke: bool, **_unused: Any) -> None:
        raise NotImplementedError

    def _execute(self, backend: str, shards: int, *args: Any) -> tuple:
        rt = Runtime(backend=backend, num_shards=shards,
                     auto_trace=self.auto_trace, profiler=self.profiler)
        return rt, rt.execute(self.program, *args)

    def op(self) -> int:
        rt, self.out = self._execute(self.backend, self.shards, *self.args)
        self.rts = [rt]
        return len(rt.task_graph().tasks)

    def run_x1(self) -> Any:
        return self._execute("inprocess", 1, *self.args)[1]

    def _matches(self, got: Any, want: Any) -> bool:
        if self.exact:
            return np.array_equal(got, want)
        return np.allclose(got, want)

    def check(self) -> Optional[str]:
        if not self._matches(self.out, self.expected):
            return f"{self.name}: result differs from the NumPy reference"
        return None

    def check_x1(self) -> Optional[str]:
        """The same program on inprocess x1 must give identical bytes."""
        if _same_bytes(self.out, self.run_x1()):
            return None
        return f"{self.name}: result differs from the inprocess x1 run"

    def teardown(self) -> None:
        pass


def _same_bytes(a: Any, b: Any) -> bool:
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_bytes, a, b))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class StencilWorkload(ArrayWorkload):
    program = staticmethod(sliced_stencil)

    def __init__(self, name: str, backend: str, shards: int, cells: int,
                 tiles: int, iterations: int, smoke_cells: int,
                 auto_trace: bool = False):
        super().__init__(name, backend, shards, auto_trace)
        self.cells, self.tiles, self.iterations = cells, tiles, iterations
        self.smoke_cells = smoke_cells

    def setup(self, seed: int, smoke: bool, **_unused: Any) -> None:
        n = self.smoke_cells if smoke else self.cells
        iters = max(4, self.iterations // 5) if smoke else self.iterations
        init = make_wave(n) + _rng(seed, 1).uniform(0.0, 0.01, n)
        self.args = (init, iters, self.tiles)
        self.expected = reference_stencil(init, iters)


def grain_program(ctx: Any, n: int, head: float, iterations: int,
                  tiles: int) -> np.ndarray:
    """``sliced_stencil`` without ingest: the array starts from ``full``,
    so no payload is hashed and the kernels carry the large grains."""
    lg = LegateContext(ctx, tiles)
    u = lg.full(n, 1.0)
    u[0:n // 4] = head
    for _ in range(iterations):
        u[1:n - 1] = (u[0:n - 2] + u[2:n]) * 0.5
    return u.to_numpy()


class GrainSweepWorkload(ArrayWorkload):
    """One operation is the whole sweep; ``last_walls`` (one wall per
    size) feeds METG."""

    program = staticmethod(grain_program)
    SIZES = (2 ** 13, 2 ** 15, 2 ** 17, 2 ** 19, 2 ** 20, 2 ** 21)
    SMOKE_SIZES = (2 ** 11, 2 ** 13, 2 ** 15)
    ITERATIONS = 8
    TILES = 4

    def setup(self, seed: int, smoke: bool, **_unused: Any) -> None:
        self.sizes = self.SMOKE_SIZES if smoke else self.SIZES
        self.head = 1.0 + float(_rng(seed, 2).uniform(0.1, 0.9))
        self.inits = []
        for n in self.sizes:
            init = np.ones(n)
            init[:n // 4] = self.head
            self.inits.append(init)
        self.expected = [reference_stencil(init, self.ITERATIONS)
                         for init in self.inits]

    def _sweep(self, backend: str, shards: int) -> tuple:
        rts, outs, walls = [], [], []
        for n in self.sizes:
            t0 = time.perf_counter()
            rt, out = self._execute(backend, shards, n, self.head,
                                    self.ITERATIONS, self.TILES)
            walls.append(time.perf_counter() - t0)
            rts.append(rt)
            outs.append(out)
        return rts, outs, walls

    def op(self) -> int:
        self.rts, self.out, self.last_walls = self._sweep(self.backend,
                                                          self.shards)
        return sum(len(rt.task_graph().tasks) for rt in self.rts)

    def run_x1(self) -> Any:
        return self._sweep("inprocess", 1)[1]

    def check(self) -> Optional[str]:
        for n, got, want in zip(self.sizes, self.out, self.expected):
            if not np.array_equal(got, want):
                return f"{self.name}: n={n} differs from the NumPy reference"
        return None

    def reference_walls(self) -> List[float]:
        """Wall of plain NumPy on the same inputs, per size."""
        walls = []
        for init in self.inits:
            t0 = time.perf_counter()
            reference_stencil(init, self.ITERATIONS)
            walls.append(time.perf_counter() - t0)
        return walls

    def metg(self, sweeps: Sequence[tuple]) -> Dict[str, Optional[float]]:
        """METG(50 %) from ``(run walls, reference walls)`` pairs per sweep.

        Efficiency(n) is the NumPy reference wall over the run wall
        (medians over sweeps); the grain of size n is the reference wall
        per point task.  METG is the smallest grain whose efficiency
        reaches 50 %, interpolated between the two sizes that straddle it
        on a log-grain axis; when even the largest size stays below 50 %
        it is not reached on this machine.
        """
        run_s = np.median([run for run, _ref in sweeps], axis=0)
        ref_s = np.median([ref for _run, ref in sweeps], axis=0)
        tasks = [len(rt.task_graph().tasks) for rt in self.rts]
        curve = [(ref / t * 1e6, ref / run)
                 for run, ref, t in zip(run_s, ref_s, tasks)]
        metg = None
        for (g0, e0), (g1, e1) in zip([(None, None)] + curve, curve):
            if e1 >= 0.5:
                if g0 is None:
                    metg = g1           # the smallest size: an upper bound
                else:
                    w = (0.5 - e0) / (e1 - e0)
                    metg = float(np.exp(np.log(g0)
                                        + w * (np.log(g1) - np.log(g0))))
                break
        return {"runtime.metg_us": metg,
                "runtime.metg_reached": 0.0 if metg is None else 1.0,
                "runtime.peak_efficiency": float(max(e for _g, e in curve))}


class CGWorkload(ArrayWorkload):
    program = staticmethod(preconditioned_cg)
    exact = False                     # tests/legate pin np.allclose for CG

    def setup(self, seed: int, smoke: bool, **_unused: Any) -> None:
        n, iters = (64, 10) if smoke else (256, 20)
        rng = _rng(seed, 3)
        m = rng.standard_normal((n, n))
        a = m @ m.T / n + 4.0 * np.eye(n)        # symmetric positive definite
        b = rng.standard_normal(n)
        self.args = (a, b, iters, 4)
        self.expected = reference_preconditioned_cg(a, b, iters)


# ---------------------------------------------------------------------------
# Service jobs through DCRService
# ---------------------------------------------------------------------------

class ServiceWorkload:
    """A stream of ``ProgramSpec`` jobs through one persistent service."""

    SHARDS = 2
    TILES = 8
    STEPS = 16

    def __init__(self, name: str, backend: str, hit: bool):
        self.name = name
        self.backend = backend
        self.shards = self.SHARDS
        self.hit = hit
        self.svc: Optional[DCRService] = None
        self.report: Any = None
        self._next = 0
        self._probe: Any = None

    def _cold_pool(self, seed: int, shapes: int) -> List[ProgramSpec]:
        """Structurally distinct (``cells_per_tile``) fence-heavy programs.

        Each step's ``fill`` opens an epoch, so the following ``blend``,
        ``bump`` and ``spot`` each need a fence: ~80 real barriers a job.
        The spot owner alternates by step, not by seed, so every seed
        analyses the same structure.
        """
        rng = _rng(seed, 4)
        pool = []
        for i in range(shapes):
            ops = [OpSpec("fill", int(rng.integers(1_000_000)))]
            for s in range(self.STEPS):
                ops += [OpSpec("fill", int(rng.integers(1_000_000))),
                        OpSpec("blend", int(rng.integers(1_000_000))),
                        OpSpec("bump", int(rng.integers(1_000_000))),
                        OpSpec("spot",
                               2 * int(rng.integers(500_000)) + s % 2)]
            ops.append(OpSpec("readx"))
            pool.append(ProgramSpec(tiles=self.TILES, ops=tuple(ops),
                                    cells_per_tile=4 + i))
        return pool

    def setup(self, seed: int, smoke: bool,
              profile_dir: Optional[str] = None) -> None:
        if self.hit:
            shapes = 2 if smoke else 8
            self.pool = make_shape_pool(shapes, self.TILES, self.STEPS, seed)
            # Fresh parameters per submission, generated up front so the
            # timed loop only submits; the stream repeats after 512 jobs.
            self.specs = [_with_fresh_params(self.pool[n % shapes], seed, n)
                          for n in range(64 if smoke else 512)]
            capacity = 128
        else:
            # More shapes than template slots, cycled: under LRU every
            # lookup misses, records and evicts.  The slots are filled
            # during set-up so eviction starts with the first timed job.
            shapes, capacity = (3, 2) if smoke else (12, 8)
            self.pool = self._cold_pool(seed, shapes)
            self.specs = self.pool
        self.count_cycle = shapes
        self.refs = [run_reference(spec, self.shards) for spec in self.pool]
        # Graph digest and fences are checked on every job.  The determinism
        # digest depends on the parameters, and run_reference costs a full
        # analysis (~100x one hit job), so the hit stream checks it on each
        # shape's first variant only; the cold stream on every job.
        self.det_refs = {
            i: (run_reference(self.specs[i], self.shards) if self.hit
                else self.refs[i]).determinism_digest
            for i in range(shapes)}
        self.svc = DCRService(self.shards, backend=self.backend,
                              template_capacity=capacity,
                              job_timeout_s=10.0, deadline_s=10.0,
                              profile_dir=profile_dir).start()
        warm = self.svc.open_session("warm")
        for spec in (self.pool if self.hit else self.pool[:capacity]):
            if not warm.run(spec).conformant:
                raise RuntimeError(f"{self.name}: set-up run not conformant")
        warm.close()
        self.session = self.svc.open_session("timed")
        # The cold stream continues the LRU cycle where set-up stopped.
        self._next = 0 if self.hit else capacity

    def op(self) -> int:
        self._index = self._next % len(self.specs)
        self._next += 1
        self.report = self.session.run(self.specs[self._index])
        return self.report.total_points

    def check(self) -> Optional[str]:
        r, i = self.report, self._index
        ref = self.refs[i % len(self.pool)]
        if not r.conformant:
            return f"{self.name}: job {i} not conformant {r.mismatches}"
        if r.template_hit != self.hit:
            return f"{self.name}: job {i} template_hit={r.template_hit}"
        if r.graph_digest != ref.graph_digest or r.fences != ref.fences:
            return f"{self.name}: job {i} graph differs from run_reference"
        want = self.det_refs.get(i)
        if want is not None and r.determinism_digest != want:
            return f"{self.name}: job {i} determinism digest differs " \
                   f"from run_reference"
        return None

    def check_x1(self) -> Optional[str]:
        return None                   # run_reference is the oracle here

    def empty_job(self) -> None:
        """An empty control program through the same service path (its own
        session, so worker profiles can tell it from the timed jobs)."""
        if self._probe is None:
            self._probe = self.svc.open_session("probe")
        self._probe.run(ProgramSpec(tiles=self.TILES, ops=()))

    def teardown(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None


def make_workload(name: str) -> Any:
    if name == "stencil_fine":
        return StencilWorkload(name, "inprocess", 4, 2048, 8, 50, 512)
    if name == "stencil_traced":
        return StencilWorkload(name, "inprocess", 4, 2048, 8, 50, 512,
                               auto_trace=True)
    if name == "stencil_coarse":
        return StencilWorkload(name, "inprocess", 1, 1 << 18, 4, 30, 1 << 15)
    if name == "stencil_metg":
        return GrainSweepWorkload(name, "inprocess", 2)
    if name == "cg_tcp":
        return CGWorkload(name, "tcp", 2)
    if name == "service_cold_shm":
        return ServiceWorkload(name, "shm", hit=False)
    if name == "service_hit_loopback":
        return ServiceWorkload(name, "loopback", hit=True)
    raise ValueError(f"unknown workload {name!r}")


def verify_extra_programs(seed: int) -> Sequence[Optional[str]]:
    """Untimed verify-only pass of the two array programs no workload runs.

    Small ``logistic_regression`` and ``kmeans`` on loopback x2 against
    their NumPy references (the tests' tolerances) and against inprocess
    x1 (identical bytes).  One entry per program: None or the mismatch.
    """
    x, y = make_problem(40, 4, seed=seed)
    blobs = make_blobs(n=36, f=2, k=3, seed=seed)
    ref_w = reference_logistic_regression(x, y, 6, 0.5)
    ref_centers, ref_labels = reference_kmeans(blobs, 3, 6)
    cases = [
        ("logistic_regression", logistic_regression, (x, y, 6, 0.5, 4),
         lambda w: np.allclose(w, ref_w)),
        ("kmeans", kmeans, (blobs, 3, 6),
         lambda r: np.allclose(r[0], ref_centers)
         and np.array_equal(r[1], ref_labels)),
    ]
    results: List[Optional[str]] = []
    for name, program, args, matches_reference in cases:
        got = Runtime(backend="loopback", num_shards=2).execute(program,
                                                                *args)
        x1 = Runtime(backend="inprocess", num_shards=1).execute(program,
                                                                *args)
        if not matches_reference(got):
            results.append(f"{name} differs from its reference")
        elif not _same_bytes(got, x1):
            results.append(f"{name} differs from inprocess x1")
        else:
            results.append(None)
    return results
