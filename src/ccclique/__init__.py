"""Congested-clique simulator and (Delta+1) coloring algorithms."""

from .config import Config, load_config
from .graphs import Graph, gen_random_graph, load_graph, save_graph
from .coloring import (Palettes, UNCOLORED, concentration_bound, free_colors,
                       is_proper, Violation)
from .sim import Simulator, RoundLedger

__all__ = [
    "Config", "load_config", "Graph", "gen_random_graph", "load_graph",
    "save_graph", "Palettes", "UNCOLORED", "concentration_bound",
    "free_colors", "is_proper", "Violation", "Simulator", "RoundLedger",
]

__version__ = "0.1.0"
