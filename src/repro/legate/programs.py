"""Scale-out operation streams for the Legate benchmarks (Figs. 19-20).

The paper's weak-scaling axis is *sockets* (20 CPU cores or 1 GPU per
socket) on DGX-1V nodes; Legate runs the NumPy program under DCR while
``dask.array`` runs the same program through Dask's centralized scheduler
(CPU only, with hand-tuned chunk sizes).  The per-iteration operation
structure below is exactly what the functional solvers in
:mod:`repro.legate.linalg` launch, sized to the machine.
"""

from __future__ import annotations

from typing import Optional

from ..oracle import READ_ONLY, READ_WRITE
from ..sim.machine import MachineSpec, ProcKind
from ..sim.workload import DepSpec, SimOp, SimProgram
from ..apps.common import TiledField, group_op, single_op

__all__ = ["logreg_program", "cg_program", "SAMPLES_PER_SOCKET", "FEATURES"]

SAMPLES_PER_SOCKET = 2_000_000
# The CG solve runs on a much larger sparse system (its per-row work is a
# handful of flops, not a dense feature dot).
CG_ROWS_PER_SOCKET = 64_000_000
FEATURES = 32
# Per-sample per-feature cost of the fused map operations on one socket
# (20 cores) — calibrated to a few iterations/s per socket like Fig. 19.
SECONDS_PER_SAMPLE_CPU = 6.0e-9
# One V100 vs one 20-core socket (so ~240x a single core on these
# memory-bound kernels).
GPU_SPEEDUP = 240.0


def logreg_program(machine: MachineSpec, *, gpu: bool = False,
                   iterations: int = 10, warmup: int = 2,
                   tracing: bool = True,
                   chunks_per_socket: int | None = None) -> SimProgram:
    """Fig. 19: logistic regression weak-scaled per socket.

    Chunking matches what both systems actually do on CPUs: one chunk per
    *core* (Legate picks this automatically; the Dask runs were tuned to
    it), and one chunk per GPU for GPU execution.
    """
    sockets = max(1, machine.nodes)
    if chunks_per_socket is None:
        chunks_per_socket = 1 if gpu else max(1, machine.cpus_per_node)
    tiles_n = sockets * chunks_per_socket
    rows = SAMPLES_PER_SOCKET // chunks_per_socket
    threads = max(1, machine.cpus_per_node // chunks_per_socket)
    per_row = SECONDS_PER_SAMPLE_CPU * FEATURES \
        / (GPU_SPEEDUP if gpu else threads)
    kind = ProcKind.GPU if gpu else ProcKind.CPU

    x = TiledField.build("lgX", [("v", "f8")], tiles_n, with_ghost=False)
    z = TiledField.build("lgz", [("v", "f8")], tiles_n, with_ghost=False)
    g = TiledField.build("lgg", [("v", "f8")], tiles_n, with_ghost=False)
    w = TiledField.build("lgw", [("v", "f8")], 1, with_ghost=False)

    prog = SimProgram(f"legate-logreg-{'gpu' if gpu else 'cpu'}",
                      scr_applicable=True)
    prog.work_per_iteration = 1.0    # throughput axis: iterations/s

    prev_w: Optional[int] = None
    grad_bytes = FEATURES * 8.0
    for it in range(warmup + iterations):
        timed = it >= warmup
        start = prog.begin_iteration() if timed else None
        traced = tracing and it >= 1

        # z = X @ w  (each tile reads the whole small w: a broadcast)
        mv = group_op(f"matvec[{it}]", tiles_n,
                      [(z.tiles, z.fieldset("v"), READ_WRITE),
                       (x.tiles, x.fieldset("v"), READ_ONLY)])
        deps = ([DepSpec(prev_w, "all", grad_bytes)]
                if prev_w is not None else [])
        i_mv = prog.add(SimOp(mv.name, tiles_n, rows * per_row * 0.45,
                              deps=deps, proc_kind=kind, operation=mv,
                              traced=traced))

        # p = sigmoid(z); r = p - y  (fused elementwise)
        sg = group_op(f"sigmoid[{it}]", tiles_n,
                      [(z.tiles, z.fieldset("v"), READ_WRITE)])
        i_sg = prog.add(SimOp(sg.name, tiles_n, rows * per_row * 0.10,
                              deps=[DepSpec(i_mv, "pointwise", 0.0)],
                              proc_kind=kind, operation=sg, traced=traced))

        # partial gradients: g_tile = X_tile.T @ r_tile
        gr = group_op(f"rmatvec[{it}]", tiles_n,
                      [(g.tiles, g.fieldset("v"), READ_WRITE),
                       (x.tiles, x.fieldset("v"), READ_ONLY),
                       (z.tiles, z.fieldset("v"), READ_ONLY)])
        i_gr = prog.add(SimOp(gr.name, tiles_n, rows * per_row * 0.45,
                              deps=[DepSpec(i_sg, "pointwise", 0.0)],
                              proc_kind=kind, operation=gr, traced=traced))

        # gradient reduction + weight update (small, but a global gather).
        up = single_op(f"update_w[{it}]",
                       [(g.region, g.fieldset("v"), READ_ONLY),
                        (w.region, w.fieldset("v"), READ_WRITE)])
        prev_w = prog.add(SimOp(up.name, 1, 1e-6,
                                deps=[DepSpec(i_gr, "all", grad_bytes)],
                                proc_kind=kind, operation=up,
                                traced=traced))
        if timed:
            prog.end_iteration(start)  # type: ignore[arg-type]
    return prog


def cg_program(machine: MachineSpec, *, gpu: bool = False,
               iterations: int = 10, warmup: int = 2,
               tracing: bool = True,
               chunks_per_socket: int | None = None) -> SimProgram:
    """Fig. 20: preconditioned CG; sparse (stencil) matvec + two dots."""
    sockets = max(1, machine.nodes)
    if chunks_per_socket is None:
        chunks_per_socket = 1 if gpu else max(1, machine.cpus_per_node)
    tiles_n = sockets * chunks_per_socket
    rows = CG_ROWS_PER_SOCKET // chunks_per_socket
    threads = max(1, machine.cpus_per_node // chunks_per_socket)
    per_row = SECONDS_PER_SAMPLE_CPU * 12 / (GPU_SPEEDUP if gpu else threads)
    kind = ProcKind.GPU if gpu else ProcKind.CPU
    halo_bytes = 8.0 * 1024            # boundary rows of p

    p = TiledField.build("cgp", [("v", "f8")], tiles_n)
    r = TiledField.build("cgr", [("v", "f8")], tiles_n, with_ghost=False)
    xv = TiledField.build("cgx", [("v", "f8")], tiles_n, with_ghost=False)
    assert p.ghost is not None

    prog = SimProgram(f"legate-cg-{'gpu' if gpu else 'cpu'}",
                      scr_applicable=True)
    prog.work_per_iteration = 1.0

    prev_p: Optional[int] = None
    for it in range(warmup + iterations):
        timed = it >= warmup
        start = prog.begin_iteration() if timed else None
        traced = tracing and it >= 1

        # Ap = A @ p: sparse stencil matvec with neighbor-row ghosts.
        mv = group_op(f"spmv[{it}]", tiles_n,
                      [(r.tiles, r.fieldset("v"), READ_WRITE),
                       (p.ghost, p.fieldset("v"), READ_ONLY)])
        deps = ([DepSpec(prev_p, "halo", halo_bytes, (-1, 1))]
                if prev_p is not None else [])
        i_mv = prog.add(SimOp(mv.name, tiles_n, rows * per_row * 0.5,
                              deps=deps, proc_kind=kind, operation=mv,
                              traced=traced))

        # alpha = rz / p.Ap: partial dots + scalar reduction.
        d1 = group_op(f"dot1[{it}]", tiles_n,
                      [(p.tiles, p.fieldset("v"), READ_ONLY),
                       (r.tiles, r.fieldset("v"), READ_ONLY)])
        i_d1 = prog.add(SimOp(d1.name, tiles_n, rows * per_row * 0.1,
                              deps=[DepSpec(i_mv, "pointwise", 0.0)],
                              proc_kind=kind, operation=d1, traced=traced))
        s1 = single_op(f"alpha[{it}]",
                       [(r.region, r.fieldset("v"), READ_ONLY)])
        i_s1 = prog.add(SimOp(s1.name, 1, 1e-6,
                              deps=[DepSpec(i_d1, "all", 8.0)],
                              proc_kind=kind, operation=s1, traced=traced))

        # x += alpha p; r -= alpha Ap; z = Minv r  (fused axpys)
        ax = group_op(f"axpys[{it}]", tiles_n,
                      [(xv.tiles, xv.fieldset("v"), READ_WRITE),
                       (r.tiles, r.fieldset("v"), READ_WRITE)])
        i_ax = prog.add(SimOp(ax.name, tiles_n, rows * per_row * 0.25,
                              deps=[DepSpec(i_s1, "all", 8.0)],
                              proc_kind=kind, operation=ax, traced=traced))

        # beta dot + p update (needs the new z everywhere next iteration).
        d2 = group_op(f"dot2[{it}]", tiles_n,
                      [(r.tiles, r.fieldset("v"), READ_ONLY)])
        i_d2 = prog.add(SimOp(d2.name, tiles_n, rows * per_row * 0.05,
                              deps=[DepSpec(i_ax, "pointwise", 0.0)],
                              proc_kind=kind, operation=d2, traced=traced))
        pu = group_op(f"update_p[{it}]", tiles_n,
                      [(p.tiles, p.fieldset("v"), READ_WRITE),
                       (r.tiles, r.fieldset("v"), READ_ONLY)])
        prev_p = prog.add(SimOp(pu.name, tiles_n, rows * per_row * 0.10,
                                deps=[DepSpec(i_d2, "all", 8.0)],
                                proc_kind=kind, operation=pu,
                                traced=traced))
        if timed:
            prog.end_iteration(start)  # type: ignore[arg-type]
    return prog
