"""Structured graphs at config corners: every entry point that reaches the
deterministic list-coloring dispatch returns a proper coloring within its
budget, whatever the regime gate `c_fit` leaves to the partition's parts.

A Hypothesis layer (QuickCheck-style shrinking) draws small structured
graphs and config corners and runs all six entry points on them, so that a
failure shrinks to a minimal graph and config.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from ccclique.config import Config
from ccclique.graphs import Graph, gen_random_graph
from ccclique.harness import ALGORITHMS, report_key, run_algorithm
from ccclique.runlog import FALLBACK_REASONS


def star(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 joined to every other vertex."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def ring(n: int, k: int) -> Graph:
    """C(n, +-1..k): vertex i joined to i +- j (mod n) for j = 1..k."""
    return Graph.from_edges(n, [(i, (i + j) % n) for i in range(n)
                                for j in range(1, k + 1)])


def cliques(n: int, size: int) -> Graph:
    """Disjoint cliques on blocks of `size` consecutive vertices (the last
    block may be smaller)."""
    return Graph.from_edges(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n)
                                if u // size == v // size])


def bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: vertices 0..a-1 joined to a..a+b-1."""
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a)
                                    for v in range(b)])


GRAPHS = {
    **{f"K1,{n - 1}": (lambda n=n: star(n)) for n in (5, 17, 64, 130)},
    "G(300,0.9)": lambda: gen_random_graph(300, 0.9, 1),
    "G(200,0.5)": lambda: gen_random_graph(200, 0.5, 1),
}
C_FITS = (0.25, 0.5, 0.9, 1.0)
ALGOS = ("det", "clp", "fast", "recursive")


def assert_sound(rep: dict, cell) -> None:
    """Proper, within budget and bandwidth, no stage above the whole run,
    and every fallback note with a known reason."""
    assert rep["proper"] and rep["within_budget"], cell
    assert rep["bandwidth_ok"], cell
    assert max(rep["rounds_by_stage"].values(), default=0) <= \
        rep["rounds_total"], cell
    reasons = {e["reason"] for e in rep["assertion_log"]
               if e.get("note") == "fallback"}
    assert reasons <= FALLBACK_REASONS, (cell, reasons)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_config_corners_color_properly(name):
    graph = GRAPHS[name]()
    for c_fit in C_FITS:
        for algo in ALGOS:
            _, rep = run_algorithm(algo, graph,
                                   Config(rng_seed=1, c_fit=c_fit))
            assert_sound(rep, (name, algo, c_fit))


@pytest.mark.parametrize("n", (2, 3))
def test_partition_of_two_or_three_vertices(n):
    """K_2 and K_3 at c_fit <= 0.5 miss the n^(3/4) gate, so det (and clp,
    which hands them to det) splits them into two parts.  The second part
    cannot own leaders apart from the first's at n <= 3, so it seeds after
    it as instance 0; every run colors K_n with n colors."""
    for c_fit in (0.05, 0.1, 0.25, 0.5):
        for delta_min in (1, 64):
            for algo in ALGORITHMS:
                cell = (n, algo, c_fit, delta_min)
                _, rep = run_algorithm(algo, Graph.complete(n), Config(
                    rng_seed=1, c_fit=c_fit, delta_min=delta_min))
                assert_sound(rep, cell)
                if algo in ("det", "clp"):
                    assert rep["colors_used"] == n, cell


# ------------------------- the Hypothesis layer ------------------------- #

@st.composite
def graph_specs(draw):
    """A small structured graph as a printable spec: (kind, n, param)."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(("star", "ring", "cliques", "bipartite",
                                 "gnp")))
    if kind == "star":
        return kind, n, None
    if kind == "ring":
        return kind, n, draw(st.integers(1, max(1, (n - 1) // 2)))
    if kind == "cliques":
        return kind, n, draw(st.integers(2, n))
    if kind == "bipartite":
        return kind, n, draw(st.integers(1, n - 1))
    return kind, n, (draw(st.sampled_from((0.1, 0.3, 0.6, 0.9))),
                     draw(st.integers(0, 3)))


def build(spec) -> Graph:
    kind, n, param = spec
    if kind == "star":
        return star(n)
    if kind == "ring":
        return ring(n, param)
    if kind == "cliques":
        return cliques(n, param)
    if kind == "bipartite":
        return bipartite(param, n - param)
    return gen_random_graph(n, *param)


@example(spec=("star", 2, None), c_fit=0.25, delta_min=1,
         term_budget=120_000)
@given(spec=graph_specs(), c_fit=st.sampled_from((0.25, 0.5, 1.0, 8.0)),
       delta_min=st.sampled_from((1, 4, 64)),
       term_budget=st.sampled_from((2_000, 120_000)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_small_graphs_at_config_corners(spec, c_fit, delta_min,
                                        term_budget):
    """All six entry points on a drawn graph and config: no exception, a
    sound report, and the same report (wall time aside) from a rerun."""
    graph = build(spec)
    cfg = Config(rng_seed=1, c_fit=c_fit, delta_min=delta_min,
                 term_budget=term_budget, debug_checks=True)
    for algo in ALGORITHMS:
        cell = (spec, algo)
        _, rep = run_algorithm(algo, graph, cfg)
        assert_sound(rep, cell)
        _, again = run_algorithm(algo, graph, cfg)
        assert report_key(again) == report_key(rep), cell
