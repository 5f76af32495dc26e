"""Structured graphs at config corners: every entry point that reaches the
deterministic list-coloring dispatch returns a proper coloring within its
budget, whatever the regime gate `c_fit` leaves to the partition's parts.
"""

import pytest

from ccclique.config import Config
from ccclique.graphs import Graph, gen_random_graph
from ccclique.harness import run_algorithm
from ccclique.runlog import FALLBACK_REASONS


def star(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 joined to every other vertex."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


GRAPHS = {
    **{f"K1,{n - 1}": (lambda n=n: star(n)) for n in (5, 17, 64, 130)},
    "G(300,0.9)": lambda: gen_random_graph(300, 0.9, 1),
    "G(200,0.5)": lambda: gen_random_graph(200, 0.5, 1),
}
C_FITS = (0.25, 0.5, 0.9, 1.0)
ALGOS = ("det", "clp", "fast", "recursive")


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_config_corners_color_properly(name):
    graph = GRAPHS[name]()
    for c_fit in C_FITS:
        for algo in ALGOS:
            cell = (name, algo, c_fit)
            _, rep = run_algorithm(algo, graph,
                                   Config(rng_seed=1, c_fit=c_fit))
            assert rep["proper"] and rep["within_budget"], cell
            assert rep["bandwidth_ok"], cell
            assert max(rep["rounds_by_stage"].values(), default=0) <= \
                rep["rounds_total"], cell
            reasons = {e["reason"] for e in rep["assertion_log"]
                       if e.get("note") == "fallback"}
            assert reasons <= FALLBACK_REASONS, (cell, reasons)
