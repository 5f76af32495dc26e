"""run_algorithm's contract with the colorers: it allocates the coloring,
colors a graph without edges itself, and every hand-off between colorers
is one `fallback` note with a known reason."""

import pytest

from ccclique.config import Config
from ccclique.errors import ParameterViolation
from ccclique.graphs import Graph, gen_random_graph
from ccclique.harness import ALGORITHMS, run_algorithm
from ccclique.runlog import FALLBACK_REASONS, RunLog


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_edgeless_graph_takes_one_color_in_no_rounds(algo, n):
    g = Graph.from_edges(n, [])
    coloring, rep = run_algorithm(algo, g, Config())
    assert coloring.tolist() == [1] * n
    assert rep["rounds_total"] == 0 and rep["rounds_by_stage"] == {}
    assert rep["proper"] and rep["within_budget"]
    assert rep["colors_used"] == 1 and rep["assertion_log"] == []


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, float("nan")])
def test_manycolors_rejects_eps_on_edgeless_graph(n, eps):
    with pytest.raises(ParameterViolation):
        run_algorithm("manycolors", Graph.from_edges(n, []), Config(),
                      eps=eps)


def test_fallback_rejects_unknown_reason():
    log = RunLog()
    log.fallback("host-budget", 3, where="sqrt", phase=1)
    assert log.entries == [{"note": "fallback", "reason": "host-budget",
                            "size": 3, "where": "sqrt", "phase": 1}]
    with pytest.raises(ValueError, match="partition rejected"):
        log.fallback("partition rejected", 3)
    assert len(log.entries) == 1 and "host-budget" in FALLBACK_REASONS


def test_degenerate_fast_split_is_one_plan_rejected_note():
    # G(1024, 0.3) is above n/(10 log n), but the split's probabilities
    # leave (0, 1): one plan-rejected note, then recursion on the graph
    _, rep = run_algorithm("fast", gen_random_graph(1024, 0.3, 1),
                           Config(rng_seed=1))
    handoffs = [e for e in rep["assertion_log"] if e.get("note") ==
                "fallback"]
    assert handoffs[0]["reason"] == "plan-rejected"
    assert handoffs[0]["size"] == 1024 and handoffs[0]["ell"] == 50
    assert {e["reason"] for e in handoffs} <= FALLBACK_REASONS
    assert rep["rounds_by_stage"]["fast:recursive"] > 0
