"""Exact outputs of fixed runs: which vertex got which color, not only how
many rounds and colors a run took.  A host-side speed-up keeps these
digests; a change that moves one says so and re-pins it."""

import hashlib
import json

import pytest

from ccclique.config import Config
from ccclique.graphs import Graph, gen_random_graph
from ccclique.harness import report_key, run_algorithm

# SHA-256 of the coloring as little-endian int64, run at rng_seed 1 on
# gen_random_graph(n, p, 1)
COLORING_DIGESTS = {
    ("fast", 1024, 0.8):
        "c7fc2e363e7e32db3ebedb43dcfe090021d800e8b69b1c0a9630afbb381ade06",
    ("manycolors", 1024, 0.8):
        "c1e8e40bfe0daa50bdcdd647290d3758c2ef687af6da4cf1bc8c69b16eded32a",
    ("det", 1024, 0.8):
        "eb52a393c6adbffadf4d80d920dab3e734432c22ea2e3403d7fe5a3ceb0a071d",
    ("det", 96, 0.12):
        "25549d133947c02a2ee35d259940c3c46af35d5210d363e3044f92dceca3d824",
    ("detsq", 1024, 0.0075):
        "90fa8380bab71422246270b4d6d54cb0c8b639f49934b0347ff6b1a0318117bd",
    ("det", 256, 0.015):
        "791bd6dbc56da29a5d4e647716f89466498394a123196b2f446bd2262c3bd72f",
}

# SHA-256 of json.dumps(report_key(report), sort_keys=True, default=str),
# run at rng_seed 1 on gen_random_graph(n, p, 1), or on the star K_{1,100}
# for n = "star": every report byte but wall_time, the seed rounds'
# `terms` counts in the assertion log included
REPORT_DIGESTS = {
    ("det", 96, 0.12):
        "df03e971bf54f7a88bd7c3f844ae4afb968e1e51fd1a4cb16cbf343a0e519ed2",
    ("det", 256, 0.015):
        "f5c72a858c1ba3ccb7bf53853419903683445798b0666fe58c5e1a22b2d20380",
    ("detsq", 1024, 0.0075):
        "f3c86287cf3fc26dfdf63b0cc19e76f607978610d0013dc1f78a607e2ff71d62",
    ("det", "star", None):
        "660b507a13a8ef31db52846d69f097c121743804fe7a3a79b09427b873c95ab7",
}

# det on the benchmark's gather-dense graph: the capacity split's moves
# and the coloring they lead to
DET_DENSE_DIGEST = \
    "b2be595a93de2c2d10a954f44fd272023272c0dfdbe9986ad57dd1e24834b332"
DET_DENSE_SPLIT_MOVES = 498


@pytest.mark.parametrize("algo,n,p", sorted(COLORING_DIGESTS))
def test_coloring_digest_pinned(algo, n, p):
    coloring, rep = run_algorithm(algo, gen_random_graph(n, p, 1),
                                  Config(rng_seed=1))
    assert rep["proper"]
    digest = hashlib.sha256(coloring.astype("<i8").tobytes()).hexdigest()
    assert digest == COLORING_DIGESTS[(algo, n, p)]


@pytest.mark.parametrize("algo,n,p", REPORT_DIGESTS,
                         ids=[f"{a}-{n}-{p}" for a, n, p in REPORT_DIGESTS])
def test_report_digest_pinned(algo, n, p):
    graph = (Graph.from_edges(101, [(0, i) for i in range(1, 101)])
             if n == "star" else gen_random_graph(n, p, 1))
    _, rep = run_algorithm(algo, graph, Config(rng_seed=1))
    assert rep["proper"]
    text = json.dumps(report_key(rep), sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        REPORT_DIGESTS[(algo, n, p)]


def test_det_dense_benchmark_cell_pinned():
    """det on G(4096, 0.8) at seed 1 repairs the partition in 498 moves
    and gives the pinned coloring."""
    coloring, rep = run_algorithm("det", gen_random_graph(4096, 0.8, 1),
                                  Config(rng_seed=1))
    assert rep["proper"]
    digest = hashlib.sha256(coloring.astype("<i8").tobytes()).hexdigest()
    assert digest == DET_DENSE_DIGEST
    assert [e for e in rep["assertion_log"]
            if e.get("note") == "capacity-split"] == \
        [{"note": "capacity-split", "moves": DET_DENSE_SPLIT_MOVES}]


def count_degree_passes(monkeypatch, algo, graph):
    """Graph.degrees_within calls of one run of `algo` on `graph` at
    rng_seed 1."""
    calls = []
    counted = Graph.degrees_within

    def counting(self, *args, **kwargs):
        calls.append(1)
        return counted(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "degrees_within", counting)
    run_algorithm(algo, graph, Config(rng_seed=1))
    return len(calls)


def test_det_dense_degree_passes(monkeypatch):
    """det on G(1024, 0.8) counts subgraph degrees 6 times: the capacity
    split counts each part's row once and hands it to that part's n^(3/4)
    run, and each list colorer's first phase and its central hand-offs
    reuse it."""
    assert count_degree_passes(monkeypatch, "det",
                               gen_random_graph(1024, 0.8, 1)) == 6


def test_clp_partition_degree_passes(monkeypatch):
    """clp on G(1024, 0.3) hands its graph to det's capacity split and
    counts subgraph degrees 5 times, once per part."""
    assert count_degree_passes(monkeypatch, "clp",
                               gen_random_graph(1024, 0.3, 1)) == 5


def test_det_star_degree_passes(monkeypatch):
    """det on K_{1,100} takes the seeded partition, whose probes count
    each non-empty part, and the left-over once the parts pass (6
    counts).  The list colorers start from the accepted probe's counts:
    three parts and the left-over fit the sqrt regime and finish in one
    phase, and the one n^(3/4) part counts its top-up and its second
    phase, so the run counts subgraph degrees 8 times."""
    star = Graph.from_edges(101, [(0, i) for i in range(1, 101)])
    assert count_degree_passes(monkeypatch, "det", star) == 8


def test_manycolors_dense_degree_passes(monkeypatch):
    """manycolors on G(1024, 0.8) counts subgraph degrees 5 times, once
    per part of its one split draw: each part's recursion, its fallback
    and the colorer that takes the part reuse that count."""
    assert count_degree_passes(monkeypatch, "manycolors",
                               gen_random_graph(1024, 0.8, 1)) == 5
