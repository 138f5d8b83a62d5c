"""Functional mini-HTR against the NumPy reference."""

import numpy as np
import pytest

from repro.apps.htr_mini import htr_mini_control, reference_htr_mini
from repro.runtime import Runtime


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_matches_reference(shards):
    rt = Runtime(num_shards=shards)
    cells = rt.execute(htr_mini_control, 32, 4, 6)
    temp = rt.store.raw(cells, cells.field_space["temp"])
    fuel = rt.store.raw(cells, cells.field_space["fuel"])
    ref_temp, ref_fuel = reference_htr_mini(32, 6)
    assert np.allclose(temp, ref_temp)
    assert np.allclose(fuel, ref_fuel)


def test_fuel_burns_and_heats():
    temp0, fuel0 = reference_htr_mini(32, 0)
    temp, fuel = reference_htr_mini(32, 12)
    assert fuel.sum() < fuel0.sum()              # fuel consumed
    assert temp.max() > temp0.max()              # exothermic


def test_dt_shrinks_as_flame_heats():
    """The data-dependent dt loop adapts to the developing flame: after
    enough steps the CFL bound must be below the initial guess."""
    temp, _fuel = reference_htr_mini(32, 12, dt_init=0.2)
    from repro.apps.htr_mini import ADV, CFL_LIMIT
    assert CFL_LIMIT / (ADV + np.sqrt(temp.max())) < 0.2


def test_graph_validates_under_dcr():
    rt = Runtime(num_shards=3)
    rt.execute(htr_mini_control, 32, 4, 5)
    rt.pipeline.validate()
    # 1 fill + 1 init group + 4 ops x 5 steps, all 4-point groups.
    assert len(rt.task_graph().tasks) == 1 + 4 + 4 * 5 * 4


def test_mass_of_species_bounded():
    _temp, fuel = reference_htr_mini(32, 20)
    assert (fuel >= 0).all() and (fuel <= 0.8 + 1e-12).all()
