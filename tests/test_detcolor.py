"""Deterministic colorers: quadratic palette, derandomized list coloring,
bins, and the general partition."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ccclique
from ccclique import detcolor
from ccclique.config import Config
from ccclique.coloring import Palettes, free_sets, is_proper
from ccclique.detcolor import (GeneralPartitionPlan, _add_term_groups,
                               _capacity_split, bin_layout, classify_and_bin,
                               det_coloring, det_delta_sq, det_list_color,
                               det_list_color_n34, det_list_color_sqrt,
                               det_partition_general, phase_bound,
                               required_independence)
from ccclique.derand import AffineObjective, HashFamily
from ccclique.errors import (DegreeTooLarge, NoZeroViolationSeed,
                             ParameterViolation)
from ccclique.gf2 import EchelonTemplate
from ccclique.graphs import Graph, gen_random_graph
from ccclique.harness import run_algorithm
from ccclique.sim import Simulator
from oracles import exhaustive_round_probability, simple_rand_color_round


def setup_ctx(n, **kw):
    sim = Simulator(n, Config(**kw))
    return sim, sim.config, sim.log


# --------------------- simple one-round colorer ----------------------- #

def test_simple_round_noop_when_colored():
    g = Graph.from_edges(2, [(0, 1)])
    pal = Palettes.uniform_range(2, 1, 2)
    coloring = np.array([1, 2], dtype=np.int64)
    got = simple_rand_color_round(g, pal, coloring,
                                  np.random.default_rng(0))
    assert got == 0 and list(coloring) == [1, 2]


def test_simple_round_isolated_half_over_seeds():
    g = Graph.from_edges(1, [])
    pal = Palettes.uniform_range(1, 1, 1)
    fam = HashFamily(2, 2, 2)
    colored = 0
    for s in range(1 << fam.seed_len):
        coloring = np.zeros(1, dtype=np.int64)
        simple_rand_color_round(g, pal, coloring, (fam, s))
        colored += int(coloring[0] != 0)
    assert 2 * colored == 1 << fam.seed_len


def test_simple_round_k2_exact_probability():
    # ideal product space: both colored with probability exactly 1/8
    g = Graph.from_edges(2, [(0, 1)])
    pal = Palettes.uniform_range(2, 1, 2)
    p_both = exhaustive_round_probability(
        g, pal, lambda c: c[0] != 0 and c[1] != 0)
    assert p_both == Fraction(1, 8)
    # the dyadic seed map realizes the same probability here (F=2 exact)
    fam = HashFamily(2, 2, 2)
    both = sum(
        int((lambda col: (col != 0).all())(
            _run_seeded(g, pal, fam, s)))
        for s in range(1 << fam.seed_len))
    assert Fraction(both, 1 << fam.seed_len) == Fraction(1, 8)


def _run_seeded(g, pal, fam, s):
    coloring = np.zeros(g.n, dtype=np.int64)
    simple_rand_color_round(g, pal, coloring, (fam, s))
    return coloring


def test_add_term_groups_matches_pad_and_concatenate():
    # groups of widths 3, 6 and 2 written into one preallocated array
    # freeze to the same rows as padding each group with zero columns to
    # the widest and concatenating
    rng = np.random.default_rng(4)
    groups = []
    for width, n_sys, n_terms in ((3, 5, 9), (6, 4, 7), (2, 3, 6)):
        groups.append((
            rng.integers(0, 1 << 10, size=(n_sys, width), dtype=np.uint64),
            rng.integers(0, n_sys, size=n_terms),
            rng.integers(0, 16, size=n_terms),
            rng.integers(-3, 4, size=n_terms),
            rng.integers(0, 1 << width, size=n_terms, dtype=np.uint64)))
    got = AffineObjective(10)
    _add_term_groups(got, *groups)
    masks, systems, nodes, coefs, rhs = zip(*groups)
    offsets = np.cumsum([0] + [len(m) for m in masks])
    ref = AffineObjective(10)
    ref.add_terms(
        EchelonTemplate(np.concatenate(
            [np.pad(m, ((0, 0), (0, 6 - m.shape[1]))) for m in masks])),
        np.concatenate([s + off for s, off in zip(systems, offsets)]),
        np.concatenate(nodes), np.concatenate(coefs), np.concatenate(rhs))
    got.freeze()
    ref.freeze()
    for name in ("term_node", "term_coef", "n_rows_per_term", "row_mask",
                 "row_rhs", "row_term", "row_pivot", "const_node",
                 "const_coef"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert got.n_terms == ref.n_terms > 0


# ----------------------------- delta^2 -------------------------------- #

def test_delta_sq_k2():
    g = Graph.from_edges(2, [(0, 1)])
    _, rep = run_algorithm("detsq", g, Config())
    assert rep["proper"]
    assert rep["color_budget"] == 4  # max(Delta,2)^2 covers K2
    assert rep["max_color"] <= 4


def _delta_sq(sim, g):
    """det_delta_sq on a fresh coloring; returns it with the run's
    detsq-info note, the last entry of the log."""
    coloring = np.zeros(g.n, dtype=np.int64)
    det_delta_sq(sim, g, coloring)
    assert sim.log.entries[-1]["note"] == "detsq-info"
    return coloring, sim.log.entries[-1]


def test_delta_sq_identity_regime():
    g = gen_random_graph(128, 0.5, 1)  # Delta^2 >= n
    sim, cfg, log = setup_ctx(g.n)
    coloring, info = _delta_sq(sim, g)
    assert info["uncolored_after_seed"] == 0
    assert sim.ledger.rounds_total == 0
    assert is_proper(g, coloring,
                     Palettes.uniform_range(g.n, 1, info["budget"])) is True


def test_delta_sq_seeded_regime_remainder_bound():
    # Delta^2 < n forces the derandomized rounds
    g = gen_random_graph(512, 0.012, 3)
    delta = g.max_degree
    assert delta >= 5 and delta * delta < g.n
    sim, cfg, log = setup_ctx(g.n)
    coloring, info = _delta_sq(sim, g)
    assert info["uncolored_after_seed"] <= g.n // delta
    assert sim.ledger.rounds_total > 0
    assert is_proper(g, coloring,
                     Palettes.uniform_range(g.n, 1, delta * delta)) is True
    assert all(e["ok"] for e in log.entries
               if e.get("check", "").startswith("deltasq"))


def test_delta_sq_deterministic():
    g = gen_random_graph(512, 0.012, 3)
    runs = []
    for _ in range(2):
        sim, cfg, log = setup_ctx(g.n)
        coloring, _ = _delta_sq(sim, g)
        runs.append((coloring.copy(), sim.ledger.snapshot()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


# --------------------------- sqrt variant ----------------------------- #

def test_sqrt_three_path_colored_within_bound():
    # toy instance inside a 16-node model so Delta <= sqrt(c_fit n)
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    pal = Palettes.from_lists(3, {0: [1, 2], 1: [1, 2, 3], 2: [1, 2]})
    sim, cfg, log = setup_ctx(16)
    coloring = np.zeros(3, dtype=np.int64)
    phases = det_list_color_sqrt(sim, g, pal, coloring)
    assert is_proper(g, coloring, pal) is True
    assert phases <= phase_bound(3) == 4


def test_sqrt_zero_phases_when_complete():
    g = Graph.from_edges(3, [(0, 1)])
    pal = Palettes.uniform_range(3, 1, 2)
    sim, cfg, log = setup_ctx(3)
    coloring = np.array([1, 2, 1], dtype=np.int64)
    assert det_list_color_sqrt(sim, g, pal, coloring) == 0


def test_sqrt_quarter_progress_every_phase():
    g = gen_random_graph(400, 0.02, 17)
    delta = g.max_degree
    assert delta * delta <= g.n
    sim, cfg, log = setup_ctx(g.n)
    pal = Palettes.uniform_range(g.n, 1, delta + 1)
    coloring = np.zeros(g.n, dtype=np.int64)
    phases = det_list_color_sqrt(sim, g, pal, coloring)
    assert is_proper(g, coloring, pal) is True
    progress = [e for e in log.entries
                if e.get("check") == "sqrt-quarter-progress"]
    assert progress and all(e["ok"] for e in progress)
    assert phases <= phase_bound(g.n)


def test_sqrt_degree_precondition():
    g = gen_random_graph(64, 0.8, 1)
    sim, cfg, log = setup_ctx(g.n)
    pal = Palettes.uniform_range(g.n, 1, g.max_degree + 1)
    with pytest.raises(DegreeTooLarge):
        det_list_color_sqrt(sim, g, pal, np.zeros(g.n, dtype=np.int64))


@pytest.mark.parametrize("colorer", [det_list_color_sqrt, det_list_color_n34])
def test_palette_guard_names_first_short_vertex(colorer):
    g = gen_random_graph(40, 0.2, 3)
    sim, cfg, log = setup_ctx(1024)
    lo = np.ones(g.n, dtype=np.int64)
    hi = g.degrees + 1
    hi[[7, 12, 30]] = 0
    scope = np.array([30, 12, 7, 2], dtype=np.int64)
    coloring = np.zeros(g.n, dtype=np.int64)
    with pytest.raises(ParameterViolation, match="^palette of 7 below"):
        colorer(sim, g, Palettes(g.n, lo, hi), coloring)
    with pytest.raises(ParameterViolation, match="^palette of 30 below"):
        colorer(sim, g, Palettes(g.n, lo, hi), coloring,
                vertices=scope)


# ------------------------------- bins --------------------------------- #

def test_bin_layout_partitions_palette():
    layout = bin_layout(1000)
    assert layout.n_bins == 10  # ceil(1000^(1/3))
    assert layout.width == -(-1001 // 10)
    assert layout.n_bins * layout.width >= 1001
    # happiness threshold boundary: 55 competitors on a 5-color set is
    # happy, 56 is not
    assert 55 <= 11 * 5
    assert not 56 <= 11 * 5


def test_required_independence_monotone():
    assert required_independence(10.0, 1000.0, 1024) == 8
    assert required_independence(10.0, 10000.0, 1024) <= 8
    assert required_independence(1000.0, 2.0, 1024) == 64  # unattainable


def test_all_small_bins_goes_a0():
    # scattered palette puts every free color in a small bin
    n = 40
    edges = [(0, v) for v in range(1, 21)]
    g = Graph.from_edges(n, edges)
    delta = 5000  # small_cap = 5000^(1/12) > 2 with float headroom
    layout = bin_layout(delta, 1, delta + 1)
    colors = np.arange(1, delta + 1)[::173]
    lists = {v: colors for v in range(n)}
    pal = Palettes.from_lists(n, lists)
    sim, cfg, log = setup_ctx(delta * delta + 1)
    active = np.arange(n)
    coloring = np.zeros(n, dtype=np.int64)
    free = free_sets(g, pal, coloring, active)
    state = classify_and_bin(sim, g, free, layout, g.edge_array())
    assert state.branch == "A0"
    assert set(state.a0.tolist()) == set(range(n))
    # every bin is small, so S(u) is the whole free list
    assert state.s_sets.vertices.tolist() == active.tolist()
    assert (state.s_sets.sizes == len(colors)).all()


def test_n34_moderate_instance_properness_and_logs():
    # downsized analogue of the all-range-palette example
    n = 4096
    g = gen_random_graph(n, 0.055, 8)
    delta = g.max_degree
    assert delta ** 4 <= n ** 3 and delta * delta > n
    sim, cfg, log = setup_ctx(n)
    pal = Palettes.uniform_range(n, 1, delta + 1)
    coloring = np.zeros(n, dtype=np.int64)
    phases = det_list_color_n34(sim, g, pal, coloring)
    assert is_proper(g, coloring, pal) is True
    assert phases <= phase_bound(n)
    for e in log.entries:
        if e.get("check") in ("seed-round-dominance", "a0-small-bin-mass",
                              "bin-happy-dominance"):
            assert e["ok"]


@pytest.mark.parametrize("seed, bins, seed_rounds, total, colors",
                         [(1, 200, 120, 404, 18), (2, 180, 108, 355, 19)])
def test_det_n34_a1_branch_in_regime(seed, bins, seed_rounds, total, colors):
    # G(96, 0.12) sits in the n^(3/4) regime, and its phases take the A1
    # branch: derandomized bin choice, then seed rounds on S(u)
    g = gen_random_graph(96, 0.12, seed)
    coloring, report = run_algorithm("det", g, Config())
    assert report["proper"] and is_proper(g, coloring, None) is True
    checks = [e for e in report["assertion_log"] if e.get("check") in
              ("bin-happy-dominance", "seed-round-dominance")]
    assert {e["check"] for e in checks} == {"bin-happy-dominance",
                                            "seed-round-dominance"}
    assert all(e["ok"] for e in checks)
    stages = report["rounds_by_stage"]
    assert (stages["n34:bins"], stages["n34:seed"]) == (bins, seed_rounds)
    assert (report["rounds_total"], report["colors_used"]) == (total, colors)
    # every phase is seeded here, and each keeps its quarter of progress
    phases = next(e["phases"] for e in report["assertion_log"]
                  if e.get("note") == "det-info")
    progress = [e for e in report["assertion_log"]
                if e.get("check") == "n34-quarter-progress"]
    assert [e["phase"] for e in progress] == list(range(1, phases + 1))
    assert all(e["ok"] for e in progress)


@pytest.mark.parametrize("colorer, prefix, n, p", [
    (det_list_color_sqrt, "sqrt", 256, 0.015),
    (det_list_color_n34, "n34", 96, 0.12)])
def test_guard_fires_after_phase_bound_full_phases(monkeypatch, colorer,
                                                   prefix, n, p):
    # with the cap at one phase, both colorers run one full seeded phase
    # and then color the rest centrally under the guard
    monkeypatch.setattr(detcolor, "phase_bound", lambda n: 1)
    g = gen_random_graph(n, p, 1)
    sim, cfg, log = setup_ctx(n)
    pal = Palettes.uniform_range(n, 1, g.max_degree + 1)
    coloring = np.zeros(n, dtype=np.int64)
    phases = colorer(sim, g, pal, coloring)
    assert phases == 1 and is_proper(g, coloring, pal) is True
    stages = sim.ledger.snapshot()["rounds_by_stage"]
    assert stages[f"{prefix}:seed"] > 0 and stages[f"{prefix}:guard"] > 0
    seeded = [e for e in log.entries
              if e.get("check") == "seed-round-dominance"]
    progress = [e for e in log.entries
                if e.get("check") == f"{prefix}-quarter-progress"]
    assert len(seeded) == 1 and [e["phase"] for e in progress] == [1]


def test_regime_predicates_at_their_boundaries():
    cfg = Config()
    assert cfg.fits_sqrt(16, 256) and not cfg.fits_sqrt(17, 256)
    assert cfg.fits_n34(64, 256) and not cfg.fits_n34(65, 256)
    half = Config(c_fit=0.5)
    assert half.fits_sqrt(8, 128) and not half.fits_sqrt(9, 128)


def test_n34_single_vertex():
    g = Graph.from_edges(1, [])
    sim, cfg, log = setup_ctx(16)
    pal = Palettes.uniform_range(1, 1, 1)
    coloring = np.zeros(1, dtype=np.int64)
    phases = det_list_color_n34(sim, g, pal, coloring)
    assert coloring[0] == 1 and phases == 1


# --------------------------- general partition ------------------------ #

def test_general_partition_plan_formula():
    plan = GeneralPartitionPlan.from_delta(2 ** 16)
    assert plan.ell == 16
    assert plan.q == pytest.approx(2 * 2 ** -5)
    assert plan.p_i == pytest.approx(0.9375 / 16)
    assert plan.ell * plan.p_i + plan.q == pytest.approx(1.0)
    # cap_parts is floor(Delta^(3/4)) exactly, also where a float power
    # would round
    for delta in [*range(1, 20001), 10 ** 9 - 1, 10 ** 9, 2 ** 60 + 1]:
        cap = GeneralPartitionPlan.from_delta(delta).cap_parts
        assert cap ** 4 <= delta ** 3 < (cap + 1) ** 4, delta


def test_partition_guard_on_small_degree():
    g = gen_random_graph(256, 0.1, 1)  # Delta <= n^(3/4)
    sim, cfg, log = setup_ctx(g.n)
    with pytest.raises(ParameterViolation):
        det_partition_general(
            sim, g, GeneralPartitionPlan.from_delta(g.max_degree))


def test_partition_desk_scale_raises_no_zero_seed():
    g = gen_random_graph(256, 0.8, 1)
    assert g.max_degree ** 4 > g.n ** 3
    sim, cfg, log = setup_ctx(g.n)
    with pytest.raises(NoZeroViolationSeed):
        det_partition_general(
            sim, g, GeneralPartitionPlan.from_delta(g.max_degree))


def test_seeded_partition_hands_down_measured_degrees():
    """On K_{1,100} the seeded route accepts a probe; it returns every
    part's degree array and the left-over's, as measured, and charges one
    partition:probe block per trial."""
    g = Graph.from_edges(101, [(0, i) for i in range(1, 101)])
    sim, cfg, log = setup_ctx(g.n)
    plan = GeneralPartitionPlan.from_delta(100)
    part, sizes, degs = det_partition_general(sim, g, plan)
    assert len(degs) == plan.ell + 1
    for i, deg in enumerate(degs):
        assert np.array_equal(deg, g.degrees_among(np.nonzero(part == i)[0]))
    assert sizes == [int(d.max()) + 1 for d in degs[:-1]]
    # per trial: a 64-bit seed in 7-bit words (10 rounds) and one
    # routing call (2 rounds)
    trials = log.entries[0]["trial"] + 1
    assert sim.ledger.stage_rounds == {"partition:probe": 12 * trials}


def test_capacity_split_respects_caps_and_budget():
    g = gen_random_graph(300, 0.5, 6)
    delta = g.max_degree
    ell = 5
    sizes = np.full(ell, (delta + 1) // ell, dtype=np.int64)
    sizes[: (delta + 1) % ell] += 1
    assert sizes.sum() == delta + 1
    sim, cfg, log = setup_ctx(g.n)
    part, d = _capacity_split(sim, g, ell, sizes)
    for i in range(ell):
        members = np.nonzero(part == i)[0]
        # row i is every vertex's degree into part i
        assert np.array_equal(d[i], g.degrees_within(
            g.pack_vertex_mask(members)))
        assert d[i][members].max(initial=0) <= sizes[i] - 1
    assert sim.ledger.stage_rounds == {"partition:split": 2}


def reference_capacity_split(graph, ell, cap_sizes):
    """The per-vertex repair loop: (n, ell) part degrees, the first
    violating vertex moved each time.  Returns (part, moves)."""
    n = graph.n
    caps = cap_sizes - 1
    part = np.arange(n, dtype=np.int64) % ell
    d = np.zeros((n, ell), dtype=np.int64)
    for i in range(ell):
        d[:, i] = graph.degrees_within(
            graph.pack_vertex_mask(np.nonzero(part == i)[0]))
    weights = 1.0 / cap_sizes.astype(np.float64)
    moves = 0
    while True:
        viol = np.nonzero(d[np.arange(n), part] > caps[part])[0]
        if len(viol) == 0:
            return part, moves
        v = int(viol[0])
        j = int(np.argmin(d[v] * weights))
        i = int(part[v])
        nbr = graph.neighbors(v)
        d[nbr, i] -= 1
        d[nbr, j] += 1
        part[v] = j
        moves += 1


@pytest.mark.parametrize("n,p,seed,ell", [(300, 0.5, 6, 5), (200, 0.9, 1, 3),
                                          (130, 0.3, 2, 4), (500, 0.7, 3, 5),
                                          (1024, 0.8, 1, 6)])
def test_capacity_split_matches_reference(n, p, seed, ell):
    """The same moves as the per-vertex loop, and exact int64 part
    degrees.  G(1024, 0.8) at ell 6 makes 110 moves, 9 of them between
    tied scores, where the first minimum wins."""
    g = gen_random_graph(n, p, seed)
    delta = g.max_degree
    sizes = np.full(ell, (delta + 1) // ell, dtype=np.int64)
    sizes[: (delta + 1) % ell] += 1
    sim, cfg, log = setup_ctx(g.n)
    part, d = _capacity_split(sim, g, ell, sizes)
    want, moves = reference_capacity_split(g, ell, sizes)
    assert moves > 0
    assert np.array_equal(part, want)
    assert part.dtype == d.dtype == np.int64
    for i in range(ell):
        assert np.array_equal(d[i], g.degrees_within(
            g.pack_vertex_mask(np.nonzero(part == i)[0])))
    assert sim.log.entries == [{"note": "capacity-split", "moves": moves}]
    assert sim.ledger.stage_rounds == {"partition:split": 2}


# ------------------------------ dispatch ------------------------------ #

def test_det_coloring_clique_exact_colors():
    n = 48
    g = Graph.complete(n)
    coloring, rep = run_algorithm("det", g, Config())
    assert rep["proper"]
    assert sorted(np.unique(coloring)) == list(range(1, n + 1))


def test_det_coloring_fully_deterministic():
    g = gen_random_graph(300, 0.4, 4)
    runs = []
    for seed in (1, 99):  # rng seed must not matter at all
        coloring, rep = run_algorithm("det", g, Config(rng_seed=seed))
        runs.append((coloring, {k: v for k, v in rep.items()
                                if k not in ("wall_time", "config",
                                             "rng_seed")}))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_det_coloring_partition_regime_logs():
    g = gen_random_graph(256, 0.8, 2)
    assert g.max_degree ** 4 > g.n ** 3
    coloring, rep = run_algorithm("det", g, Config())
    assert rep["proper"] and rep["within_budget"]
    checks = {e.get("check") for e in rep["assertion_log"]}
    assert "partition-cap" in checks
    assert all(e["ok"] for e in rep["assertion_log"]
               if e.get("check") in ("partition-cap", "partition-palette"))


def test_det_star_takes_seeded_partition():
    # K_{1,100}: Delta^4 > n^3, and the leaves' low degrees make the
    # expected cap violations fall below 1, so a probed hash seed splits
    # the graph; det_list_color colors the part holding the center with
    # the n^(3/4) colorer, and the other three parts (each its own seed
    # instance) and the left-over set with the sqrt colorer
    g = Graph.from_edges(101, [(0, i) for i in range(1, 101)])
    _, rep = run_algorithm("det", g, Config())
    assert rep["proper"] and rep["within_budget"] and rep["bandwidth_ok"]
    notes = [e for e in rep["assertion_log"] if "note" in e]
    assert notes[0] == {"note": "partition-seeded", "trial": 1}
    assert not any(e["note"] == "fallback" for e in notes)
    stages = rep["rounds_by_stage"]
    assert rep["rounds_total"] == 171
    assert (stages["partition:probe"], stages["det:star"],
            stages["n34:seed"], stages["sqrt:seed"]) == (24, 13, 44, 32)


@pytest.mark.parametrize("algo,graph,c_fit", [
    ("det", lambda: gen_random_graph(300, 0.9, 1), 0.5),
    ("clp", lambda: gen_random_graph(300, 0.9, 1), 0.5),
    ("det", lambda: Graph.from_edges(17, [(0, i) for i in range(1, 17)]),
     0.9)], ids=["det-G300", "clp-G300", "det-K1,16"])
def test_partition_part_above_n34_gate_is_colored(algo, graph, c_fit):
    """At c_fit < 1 a partition part at its cap floor(Delta^(3/4)) can
    miss the n^(3/4) gate.  Such a part is logged once as an `n34-bound`
    fallback and det_list_color colors it centrally within its palette,
    where it used to raise DegreeTooLarge."""
    g = graph()
    cfg = Config(rng_seed=1, c_fit=c_fit)
    _, rep = run_algorithm(algo, g, cfg)
    assert rep["proper"] and rep["within_budget"] and rep["bandwidth_ok"]
    notes = [e for e in rep["assertion_log"] if e.get("note") == "fallback"
             and e["reason"] == "n34-bound"]
    assert notes and len({e["part"] for e in notes}) == len(notes)
    assert not any(cfg.fits_n34(e["deg"], g.n) for e in notes)
    assert rep["rounds_by_stage"]["fallback"] > 0


def test_det_list_color_picks_regime_by_scope_degree():
    """One dispatch for every deterministic list-coloring scope: the same
    scope goes to the sqrt colorer, the n^(3/4) colorer or one central
    gather as c_fit moves its maximum degree across the two gates."""
    g = gen_random_graph(96, 0.12, 1)
    scope = np.arange(0, 96, 2)
    deg = g.degrees_among(scope)
    dmax = int(deg[scope].max())
    pal = Palettes.uniform_range(g.n, 1, dmax + 1).restrict(scope)
    for c_fit, regime in ((1.01 * dmax ** 2 / g.n, "sqrt"),
                          (1.01 * dmax ** (4 / 3) / g.n, "n34"),
                          (0.5 * dmax ** (4 / 3) / g.n, "central")):
        sim, cfg, log = setup_ctx(g.n, c_fit=c_fit)
        coloring = np.zeros(g.n, dtype=np.int64)
        got, phases = det_list_color(sim, g, pal, coloring, scope)
        assert got == regime and (phases == 0) == (regime == "central")
        assert ((coloring[scope] >= 1) & (coloring[scope] <= dmax + 1)).all()
        assert (np.delete(coloring, scope) == 0).all()
        u, v = g.edges_within(scope).T
        assert (coloring[u] != coloring[v]).all()
        assert ("fallback" in sim.ledger.stage_rounds) == \
            (regime == "central")
        if regime == "central":  # the dispatch itself logs nothing
            assert log.entries == []


def test_det_phase_cap_criterion():
    for n, p, s in ((256, 0.3, 1), (1024, 0.05, 2)):
        g = gen_random_graph(n, p, s)
        _, rep = run_algorithm("det", g, Config())
        assert rep["proper"]
        info = [e for e in rep["assertion_log"] if e.get("note") ==
                "det-info"]
        assert info and info[0]["phases"] <= phase_bound(n)


def test_detsq_model_width_seed_fits_in_memory():
    """detsq on G(16384, 0.002) seeds at the model's chunk width, 14 bits,
    and charges 13 rounds.  Its stages keep O(rows) arrays and build the
    failure sets over the 2^14 assignments in bounded blocks, so the
    seed agreement traces under 30 MB.  The graph is generated in 1 MB
    blocks, so the process peaks near 126 MB, of which the 32 MB
    adjacency and the interpreter with numpy are about 72 MB (Python
    3.11, numpy 2.4).  The bound leaves about 170 MB of margin for other
    builds; generating in 32M-cell chunks peaked at 370 MB, and stages
    holding every row's packed failure set at 880 MB.  A fresh process
    measures its own peak RSS."""
    code = textwrap.dedent("""
        import json, resource
        from ccclique.config import Config
        from ccclique.graphs import gen_random_graph
        from ccclique.harness import run_algorithm
        _, rep = run_algorithm("detsq", gen_random_graph(16384, 0.002, 1),
                               Config(rng_seed=1))
        rep["ru_maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(rep))
    """)
    src = str(Path(ccclique.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=600).stdout
    rep = json.loads(out.splitlines()[-1])
    assert rep["proper"] and rep["within_budget"] and rep["bandwidth_ok"]
    assert rep["rounds_total"] == 13
    assert rep["ru_maxrss_kb"] < 0.3 * 2 ** 20
