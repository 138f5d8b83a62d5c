#!/usr/bin/env python
"""Circuit simulation with dynamic (data-dependent) partitioning (Fig. 13).

The circuit app is the paper's showcase for analysis that *cannot* be done
statically: the graph — and therefore the node partition and communication
pattern — is generated at run time.  This script runs the functional
simulation replicated over shards, verifies it against a NumPy reference,
and then simulates the Fig. 13a weak-scaling comparison.

Run:  python examples/circuit.py
"""

import numpy as np

from repro.apps import circuit
from repro.apps.circuit import circuit_control, reference_circuit
from repro.models import DCRModel, LegionNoCRModel, SCRModel
from repro.runtime import Runtime
from repro.sim.machine import PIZ_DAINT

if __name__ == "__main__":
    # --- functional run: real data, real dependence analysis -------------
    runtime = Runtime(num_shards=3)
    nodes_region = runtime.execute(circuit_control, 4, 8, 12, 5)
    voltages = runtime.store.raw(nodes_region,
                                 nodes_region.field_space["voltage"])
    assert np.allclose(voltages, reference_circuit(4, 8, 12, 5))
    print("simulated 5 steps of a 4-piece random circuit "
          "(32 nodes, 48 wires), replicated over 3 shards")
    print("final voltages (first 8):", np.round(voltages[:8], 4))
    coarse = runtime.coarse_result()
    print(f"fences: {len(coarse.fences)} inserted, "
          f"{coarse.fences_elided} elided — the aliased ghost partition "
          f"of the dynamically computed graph forces fences each step")

    # --- performance run: the Fig. 13a sweep ------------------------------
    print("\nFig. 13a weak scaling (wires/s per node):")
    print(f"{'nodes':>6} {'no-CR':>12} {'static-CR':>12} {'dynamic-CR':>12}")
    for n in (1, 4, 16, 64, 256, 512):
        m = PIZ_DAINT.with_nodes(n)
        nocr = LegionNoCRModel(m).run(circuit.build_program(m))
        scr = SCRModel(m).run(circuit.build_program(m))
        dcr = DCRModel(m).run(circuit.build_program(m))
        print(f"{n:6d} {nocr.throughput_per_node:12.4g} "
              f"{scr.throughput_per_node:12.4g} "
              f"{dcr.throughput_per_node:12.4g}")
