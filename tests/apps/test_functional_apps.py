"""Functional app correctness against NumPy references."""

import numpy as np
import pytest

from repro.apps.circuit import (circuit_control, generate_circuit,
                                reference_circuit)
from repro.apps.stencil import reference_stencil2d, stencil2d_control
from repro.apps.taskbench import efficiency, metg
from repro.runtime import Runtime
from repro.sim.machine import MachineSpec


class TestStencilFunctional:
    @pytest.mark.parametrize("n,tiles,steps", [(8, 2, 1), (12, 4, 5),
                                               (16, 4, 6), (9, 3, 3)])
    def test_matches_reference(self, n, tiles, steps):
        rt = Runtime(num_shards=2)
        cells = rt.execute(stencil2d_control, n, tiles, steps)
        out_field = "a" if steps % 2 == 0 else "b"
        got = rt.store.raw(cells, cells.field_space[out_field])
        assert np.allclose(got, reference_stencil2d(n, steps))

    def test_zero_steps(self):
        rt = Runtime(num_shards=1)
        cells = rt.execute(stencil2d_control, 8, 2, 0, 3.0)
        got = rt.store.raw(cells, cells.field_space["a"])
        assert (got == 3.0).all()


class TestCircuitFunctional:
    def test_generator_deterministic(self):
        a = generate_circuit(3, 4, 5, seed=11)
        b = generate_circuit(3, 4, 5, seed=11)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_generator_wires_in_range(self):
        wire_in, wire_out, pieces = generate_circuit(4, 8, 10)
        assert wire_in.min() >= 0 and wire_in.max() < 32
        assert wire_out.min() >= 0 and wire_out.max() < 32
        # Local endpoints stay in the owning piece.
        for p, nodes in pieces.items():
            assert nodes == list(range(p * 8, (p + 1) * 8))

    @pytest.mark.parametrize("pieces,steps", [(2, 2), (4, 3), (3, 5)])
    def test_matches_reference(self, pieces, steps):
        rt = Runtime(num_shards=2)
        nodes = rt.execute(circuit_control, pieces, 6, 8, steps)
        got = rt.store.raw(nodes, nodes.field_space["voltage"])
        ref = reference_circuit(pieces, 6, 8, steps)
        assert np.allclose(got, ref)

    def test_charge_conserved_to_zero(self):
        """update_voltages clears charge each step."""
        rt = Runtime(num_shards=1)
        nodes = rt.execute(circuit_control)
        charge = rt.store.raw(nodes, nodes.field_space["charge"])
        assert np.allclose(charge, 0.0)


class TestMETG:
    def cluster(self, n):
        return MachineSpec("c", nodes=n, cpus_per_node=1, gpus_per_node=0)

    def test_efficiency_monotone_in_granularity(self):
        m = self.cluster(4)
        effs = [efficiency(m, g, tracing=False, safe=True)
                for g in (1e-6, 1e-4, 1e-2)]
        assert effs[0] < effs[1] <= effs[2] + 1e-9
        assert effs[2] > 0.9

    def test_metg_bisection_brackets(self):
        m = self.cluster(4)
        g = metg(m, tracing=False, safe=True)
        assert efficiency(m, g, tracing=False, safe=True) >= 0.5
        assert efficiency(m, g / 4, tracing=False, safe=True) < 0.5

    def test_tracing_lowers_metg(self):
        m = self.cluster(8)
        assert metg(m, tracing=True, safe=True) < \
            metg(m, tracing=False, safe=True)


class TestTiled2DStencil:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("tx,ty", [(2, 2), (2, 3), (3, 2)])
    def test_matches_reference(self, shards, tx, ty):
        from repro.apps.stencil import stencil2d_tiled_control

        rt = Runtime(num_shards=shards)
        cells = rt.execute(stencil2d_tiled_control, 12, tx, ty, 5)
        got = rt.store.raw(cells, cells.field_space["b"])
        assert np.allclose(got, reference_stencil2d(12, 5))

    def test_2d_launch_points_validate(self):
        from repro.apps.stencil import stencil2d_tiled_control
        from repro.tools import validate_run

        rt = Runtime(num_shards=3)
        rt.execute(stencil2d_tiled_control, 12, 2, 2, 4)
        rt.pipeline.validate()
        assert validate_run(rt).clean
        # Tuple launch points flowed through sharding and the graph.
        points = {t.point for t in rt.task_graph().tasks
                  if t.op.is_group}
        assert (0, 0) in points and (1, 1) in points

    def test_corner_exchange_moves_data(self):
        """2-D ghosts include corners: diagonal-neighbor traffic exists."""
        from repro.apps.stencil import stencil2d_tiled_control
        from repro.runtime.instance import track_movement

        rt = Runtime(num_shards=4)
        rt.execute(stencil2d_tiled_control, 12, 2, 2, 5)
        report = track_movement(rt)
        # Tiles 0 (0,0) and 3 (1,1) are diagonal; the 2-D halo touches the
        # shared corner cell, so some bytes flow between them.
        assert report.bytes_between(0, 3) + report.bytes_between(3, 0) > 0
