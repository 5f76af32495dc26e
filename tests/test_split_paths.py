"""Pinned runs of the split-and-recurse paths.

Each instance takes a branch that splits the graph into parts, measures
each part's degree, gives each part a disjoint palette range and colors
the parts as simultaneous instances.  The exact model costs pin those
branches: a change to how parts are drawn, measured, allocated or seeded
moves at least one of them.
"""

import pytest

from ccclique.config import Config
from ccclique.graphs import gen_random_graph
from ccclique.harness import run_algorithm


@pytest.mark.parametrize(
    "algo, n, p, seed, rounds, messages, colors, stages",
    [
        # k = floor(Delta^eps) = 3 parts, each colored recursively, whose
        # seed chunks take the model's width
        ("manycolors", 512, 0.3, 2, 333, 2_275_671, 92,
         ("many:sample", "many:measure", "many:parts")),
        # an accepted partition plan: recursive_coloring recurses on parts
        ("recursive", 8192, 0.8, 1, 38_727, 79_421_952, 1521,
         ("partition:sample", "partition:measure")),
        # a part's dense block needs a leader gather above n words: the
        # dense step logs it and colors nothing, bidding and the cleanup
        # color the block; hierarchy:collect charges the uncolored
        # vertices it classifies, not the whole graph
        ("recursive", 8192, 0.8, 2, 38_499, 79_443_495, 1521,
         ("partition:measure", "clp:bidding", "clp:cleanup")),
        ("fast", 8192, 0.8, 2, 38_499, 79_443_495, 1521,
         ("partition:measure", "clp:bidding", "clp:cleanup")),
        # Delta^4 > n^3: the capacity split feeds simultaneous n^(3/4)
        # parts, whose seed chunks take the model's width
        ("det", 256, 0.8, 2, 602, 850_072, 172, ("partition:split",)),
    ])
def test_split_path_costs_pinned(algo, n, p, seed, rounds, messages, colors,
                                 stages):
    graph = gen_random_graph(n, p, seed)
    _, rep = run_algorithm(algo, graph, Config(rng_seed=seed))
    assert rep["proper"] and rep["within_budget"] and rep["bandwidth_ok"]
    assert (rep["rounds_total"], rep["messages_total"],
            rep["colors_used"]) == (rounds, messages, colors)
    for stage in stages:
        assert rep["rounds_by_stage"][stage] > 0, stage


def test_failed_dense_gather_is_not_retried():
    # the dense step whose gather does not fit draws and charges nothing,
    # so clp's dense passes stop after it: one note, not one per pass
    graph = gen_random_graph(8192, 0.8, 2)
    _, rep = run_algorithm("recursive", graph, Config(rng_seed=2))
    gathers = [e for e in rep["assertion_log"]
               if e.get("reason") == "dense-gather"]
    assert gathers == [{"note": "fallback", "reason": "dense-gather",
                        "size": 48, "words": 317_823, "n": 8192}]
    assert rep["rounds_total"] == 38_499


def test_manycolors_measures_each_draw():
    # every draw of the split charges one seed broadcast and one routing
    # call that measures its parts, whether or not the draw fits
    graph = gen_random_graph(512, 0.3, 2)
    cfg = Config(rng_seed=2)
    _, rep = run_algorithm("manycolors", graph, cfg)
    draws = 1 + sum(e.get("check") == "many-allocation"
                    for e in rep["assertion_log"])
    assert rep["rounds_by_stage"]["many:sample"] == \
        draws * cfg.seed_broadcast_cost
    assert rep["rounds_by_stage"]["many:measure"] == draws * cfg.lenzen_cost
