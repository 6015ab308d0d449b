"""Volt/Var control on radial feeders: simulation, equilibria, and the
price of signal-anticipation with its spectral bounds."""

from .controls import ControlSpec
from .dynamics import OperatingConstants, SimulationTrace, operating_constants
from .equilibrium import PosaReport, posa_report
from .sensitivity import SensitivitySet, build_sensitivity
from .topology import BusData, DegreeDistribution, Line, RadialNetwork, random_tree, validate_tree

__version__ = "0.1.0"

__all__ = [
    "BusData", "ControlSpec", "DegreeDistribution", "Line",
    "OperatingConstants", "PosaReport", "RadialNetwork",
    "SensitivitySet", "SimulationTrace", "build_sensitivity",
    "operating_constants", "posa_report", "random_tree", "validate_tree",
]
