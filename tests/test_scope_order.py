"""Colorers given their scope in any order give the sorted scope's result.

Each function sorts and dedupes `vertices` once on entry, so a reversed
scope yields the same coloring, ledger and assertion log as the sorted one.
"""

import numpy as np
import pytest

from ccclique.coloring import Palettes, find_conflict
from ccclique.config import Config
from ccclique.derand import HashFamily
from ccclique.detcolor import (det_list_color_n34, det_list_color_sqrt,
                               simple_rand_color_round)
from ccclique.graphs import gen_random_graph
from ccclique.randcolor import clp_list_coloring, one_shot_coloring
from ccclique.sim import Simulator


def run_both(n, call, cfg=None):
    """call(sim, coloring, scope) on the sorted and on the reversed scope;
    returns the two (coloring, ledger, log) outcomes."""
    out = []
    for scope in (np.arange(n), np.arange(n)[::-1].copy()):
        sim = Simulator(n, cfg or Config())
        coloring = np.zeros(n, dtype=np.int64)
        call(sim, coloring, scope)
        out.append((coloring.tolist(), sim.ledger.snapshot(),
                    sim.log.entries))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_one_shot_reversed_scope(seed):
    g = gen_random_graph(40, 0.5, seed)
    pal = Palettes.uniform_range(g.n, 1, 3)

    def call(sim, coloring, scope):
        one_shot_coloring(sim, g, pal, coloring, 0.125, 8,
                          np.random.default_rng(seed), vertices=scope)
        assert find_conflict(g, coloring) is None

    a, b = run_both(g.n, call)
    assert a == b


@pytest.mark.parametrize("seed", range(3))
def test_det_sqrt_reversed_scope(seed):
    g = gen_random_graph(256, 0.015, seed)
    pal = Palettes.uniform_range(g.n, 1, g.max_degree + 1)

    def call(sim, coloring, scope):
        det_list_color_sqrt(sim, g, pal, coloring, vertices=scope)

    a, b = run_both(g.n, call)
    assert a == b


@pytest.mark.parametrize("seed", range(3))
def test_det_n34_reversed_scope(seed):
    g = gen_random_graph(96, 0.12, seed)
    pal = Palettes.uniform_range(g.n, 1, g.max_degree + 1)

    def call(sim, coloring, scope):
        det_list_color_n34(sim, g, pal, coloring, vertices=scope)

    a, b = run_both(g.n, call)
    assert a == b


@pytest.mark.parametrize("hashed", [False, True])
def test_simple_round_reversed_scope(hashed):
    g = gen_random_graph(120, 0.05, 3)
    pal = Palettes.uniform_range(g.n, 1, g.max_degree + 1)
    family = HashFamily(7, 8, 2)

    def call(sim, coloring, scope):
        source = (family, 0x2D5A3) if hashed else np.random.default_rng(5)
        for _ in range(3):
            simple_rand_color_round(g, pal, coloring, source, vertices=scope)

    a, b = run_both(g.n, call)
    assert a == b
    assert any(a[0])


def test_clp_reversed_scope():
    g = gen_random_graph(1024, 0.2, 1)
    cfg = Config(rng_seed=1, delta_min=16, c_fit=64)
    pal = Palettes.uniform_range(g.n, 1, g.max_degree + 1)

    def call(sim, coloring, scope):
        clp_list_coloring(sim, g, pal, np.random.default_rng(1), coloring,
                          vertices=scope)

    a, b = run_both(g.n, call, cfg)
    assert a == b
    assert a[1]["rounds_by_stage"]["clp:hierarchy"] > 0
