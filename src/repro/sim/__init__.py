"""Discrete-event machine simulator: the substitute for the paper's clusters.

See DESIGN.md §2 for the substitution argument: the evaluation studies
runtime overhead vs. scale, which a cost-modeled simulator exposes directly.
"""

from .costs import CostModel, DEFAULT_COSTS
from .machine import (DGX1V, LASSEN, PIZ_DAINT, QUARTZ, SIERRA, SUMMIT,
                      MachineSpec, ProcKind)
from .network import NetworkModel, TrafficStats
from .workload import DepSpec, SimOp, SimProgram, edge_sources, placement

__all__ = [
    "CostModel", "DEFAULT_COSTS",
    "DGX1V", "LASSEN", "PIZ_DAINT", "QUARTZ", "SIERRA", "SUMMIT",
    "MachineSpec", "ProcKind",
    "NetworkModel", "TrafficStats",
    "DepSpec", "SimOp", "SimProgram", "edge_sources", "placement",
]
