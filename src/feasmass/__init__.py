"""Feasible-mass laboratory for generic and constraint-enhanced QAOA on
permutation-constrained problems."""

from .fullspace import AngleSchedule
from .instance import (DiagonalCost, build_cost, enumerate_feasible, load_instance,
                       make_instance, synthetic_instance)

__all__ = [
    "AngleSchedule", "DiagonalCost", "build_cost", "enumerate_feasible", "load_instance",
    "make_instance", "synthetic_instance",
]

__version__ = "0.1.0"
