"""Randomized pipeline tests: one-shot, hierarchy, dense step, bidding,
partitioning, recursion, and the top-level drivers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ccclique.config import Config
from ccclique.coloring import Palettes, UNCOLORED, is_proper
from ccclique.errors import (AllocationOverflow, ParameterViolation,
                             PlanRejected)
from ccclique.graphs import Graph, gen_random_graph
from ccclique.harness import run_algorithm
from ccclique.randcolor import (RETRY_BUDGET, PartitionPlan,
                                _measured_split, _split_and_recurse,
                                color_bidding,
                                compute_hierarchy, dense_coloring_step,
                                friend_threshold, one_shot_coloring,
                                partition_step, recursive_coloring)
from ccclique.sim import Simulator


def setup_ctx(n, **kw):
    sim = Simulator(n, Config(**kw))
    return sim, sim.config, sim.log


class StubRng:
    """Deterministic stand-in: fixed participation and choice stream."""

    def __init__(self, rand_vals=(), int_vals=()):
        self._rand = list(rand_vals)
        self._ints = list(int_vals)

    def random(self, size=None):
        if size is None:
            return self._rand.pop(0)
        out = np.array([self._rand.pop(0) for _ in range(size)])
        return out

    def integers(self, lo, hi=None, size=None):
        if size is None:
            return self._ints.pop(0)
        return np.array([self._ints.pop(0) for _ in range(size)])


# ----------------------------- one-shot ------------------------------- #

def test_one_shot_p_zero_noop():
    g = Graph.from_edges(3, [(0, 1)])
    sim, cfg, log = setup_ctx(3)
    pal = Palettes.uniform_range(3, 1, 2)
    coloring = np.zeros(3, dtype=np.int64)
    got = one_shot_coloring(sim, g, pal, coloring, 0.0, 2,
                            np.random.default_rng(0))
    assert got == 0 and (coloring == 0).all()
    assert sim.ledger.rounds_total == 2  # rounds still tick


def test_one_shot_rejects_large_p():
    g = Graph.from_edges(2, [(0, 1)])
    sim, cfg, log = setup_ctx(2)
    pal = Palettes.uniform_range(2, 1, 2)
    with pytest.raises(ParameterViolation):
        one_shot_coloring(sim, g, pal, np.zeros(2, dtype=np.int64), 0.3, 1,
                          np.random.default_rng(0))


def test_one_shot_isolated_vertex_frequency():
    # lone vertex participates w.p. 1/8; over 10^4 seeded trials the
    # colored frequency lands within +-0.02
    g = Graph.from_edges(1, [])
    pal = Palettes.uniform_range(1, 1, 1)
    rng = np.random.default_rng(123)
    hits = 0
    trials = 10_000
    for _ in range(trials):
        sim = Simulator(1, Config())
        coloring = np.zeros(1, dtype=np.int64)
        one_shot_coloring(sim, g, pal, coloring, 0.125, 1, rng)
        hits += int(coloring[0] != 0)
    assert abs(hits / trials - 0.125) < 0.02


def test_one_shot_lower_id_wins_on_conflict():
    # both endpoints participate and draw the same color: the lower id
    # keeps it, the higher id does not
    g = Graph.from_edges(2, [(0, 1)])
    sim, cfg, log = setup_ctx(2)
    pal = Palettes.from_lists(2, {0: [1], 1: [1]})
    coloring = np.zeros(2, dtype=np.int64)
    stub = StubRng(rand_vals=[0.0, 0.0], int_vals=[0, 0])
    one_shot_coloring(sim, g, pal, coloring, 0.125, 1, stub)
    assert coloring[0] == 1 and coloring[1] == 0


# ----------------------------- hierarchy ------------------------------ #

def test_friend_threshold_formula():
    assert friend_threshold(1024, 64, 1.0 / 16) == (15 / 16) * 960 == 900.0


def test_hierarchy_complete_graph_single_clique():
    # K_{Delta+1}: every adjacent pair shares Delta-1 common neighbors
    delta = 32
    sim = Simulator(2048, Config())  # Delta^2 = 1024 <= 2048
    g = Graph.complete(delta + 1)
    hier = compute_hierarchy(sim, g, np.arange(g.n))
    assert (hier.label == 0).all()  # one clique, labelled by vertex 0
    # 33 members, below Delta / log2(Delta^0.1)^2 = 128
    assert not hier.large.any()
    assert [len(b) for b in hier.blocks(large=False)] == [33]


def test_hierarchy_empty_graph_all_sparse():
    g = Graph.from_edges(6, [])
    sim, cfg, log = setup_ctx(64)
    hier = compute_hierarchy(sim, g, np.arange(6))
    assert (hier.label == -1).all() and not hier.large.any()
    assert hier.blocks(large=False) == hier.blocks(large=True) == []


def test_hierarchy_rejects_a_second_level():
    # eps = Delta^(-1/10) falls below 1/K = 1/100 first at Delta = 10^20
    g = Graph.from_edges(6, [(0, 1)])
    sim = Simulator(64, Config(c_fit=1e40))
    with pytest.raises(ParameterViolation):
        compute_hierarchy(sim, g, np.arange(6), delta=10 ** 20)
    hier = compute_hierarchy(sim, g, np.arange(6), delta=128)
    assert (hier.label == -1).all()


def planted_near_cliques(n, p_bg, cliques, seed):
    """G(n, p_bg) plus one near-clique per (size, p_in) on consecutive
    vertex ranges from 0, each pair inside kept with probability p_in."""
    rng = np.random.default_rng(seed)
    edges = [tuple(e) for e in
             gen_random_graph(n, p_bg, seed).edge_array().tolist()]
    start = 0
    for size, p_in in cliques:
        iu, ju = np.triu_indices(size, 1)
        keep = rng.random(len(iu)) < p_in
        edges += zip((start + iu[keep]).tolist(), (start + ju[keep]).tolist())
        start += size
    return Graph.from_edges(n, edges)


def reference_hierarchy(graph, uncolored, delta):
    """Per-vertex clique label and large flag by dict and set loops:
    friends share (1-eps)(Delta-q) neighbours, dense vertices have that
    many friends, cliques are friend components of dense vertices labelled
    by their smallest member, and a clique is large from
    Delta / log2(1/eps)^2 members."""
    eps, q = delta ** -0.1, delta ** 0.6
    thr = max(1.0, (1 - eps) * (delta - q))
    unc = sorted(int(v) for v in uncolored)
    nbrs = {v: set(graph.neighbors(v).tolist()) for v in range(graph.n)}
    live = set(unc)
    friends = {v: [u for u in nbrs[v] & live
                   if len(nbrs[u] & nbrs[v]) >= thr] for v in unc}
    dense = {v for v in unc if len(friends[v]) >= thr}
    label = {}
    for v in unc:
        if v in dense and v not in label:
            comp, todo = {v}, [v]
            while todo:
                for u in friends[todo.pop()]:
                    if u in dense and u not in comp:
                        comp.add(u)
                        todo.append(u)
            label.update(dict.fromkeys(comp, min(comp)))
    size = {}
    for c in label.values():
        size[c] = size.get(c, 0) + 1
    big = delta / math.log2(1 / eps) ** 2
    return ([label.get(v, -1) for v in unc],
            [v in label and size[label[v]] >= big for v in unc])


@pytest.mark.parametrize("case", range(12))
def test_hierarchy_block_flags_match_loop_reference(case):
    rng = np.random.default_rng(case)
    k = int(rng.integers(2, 7))
    cliques = list(zip(rng.integers(8, 45, k).tolist(),
                       rng.uniform(0.5, 1.0, k).tolist()))
    g = planted_near_cliques(400, 0.01, cliques, case)
    sim, cfg, log = setup_ctx(g.n, c_fit=64)
    unc = np.flatnonzero(rng.random(g.n) < 0.8)
    hier = compute_hierarchy(sim, g, unc)
    label, large = reference_hierarchy(g, unc, g.max_degree)
    assert hier.vertices.tolist() == unc.tolist()
    assert hier.label.tolist() == label
    assert hier.large.tolist() == large
    # one charged components call, after the collection
    assert sim.ledger.stage_rounds["hierarchy:components"] == 1


def test_hierarchy_large_block():
    # near-cliques of 1,100 and 200 vertices in G(2048, 0.005): Delta is
    # 1,092, so the big one is a large block (from 1,092 / log2(1092^0.1)^2
    # = 1,072.02 members); the 200 have too few friends to be dense
    g = planted_near_cliques(2048, 0.005, ((1100, 0.97), (200, 0.9)), 0)
    assert g.max_degree == 1092
    sim, cfg, log = setup_ctx(g.n, c_fit=1000)
    hier = compute_hierarchy(sim, g, np.arange(g.n))
    assert (hier.label[:1100] == 0).all() and (hier.label[1100:] == -1).all()
    assert np.array_equal(np.flatnonzero(hier.large), np.arange(1100))
    assert [b.tolist() for b in hier.blocks(large=True)] == [list(range(1100))]
    assert hier.blocks(large=False) == []


def test_friend_pairs_imply_two_eps_friends():
    # with q = Delta^(3/5) and eps in the ladder window, every
    # (eps,q)-friend pair has at least (1-2 eps) Delta common neighbors
    g = gen_random_graph(2048, 0.55, 4)
    delta = g.max_degree
    assert delta >= 2 ** 10
    q = delta ** 0.6
    e1 = delta ** -0.1
    for eps in (e1, min(2 * e1, 0.5)):
        assert (1 - eps) * q <= eps * delta  # the algebraic step
        edges = g.edge_array()[:3000]
        common = g.common_neighbors(edges[:, 0], edges[:, 1])
        friends = common >= friend_threshold(delta, q, eps)
        assert (common[friends] >= (1 - 2 * eps) * delta).all()


# ----------------------------- dense step ----------------------------- #

def test_dense_step_triangle_all_colored():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    sim, cfg, log = setup_ctx(64)
    pal = Palettes.uniform_range(3, 1, 4)
    coloring = np.zeros(3, dtype=np.int64)
    got = dense_coloring_step(sim, g, pal, coloring, [np.arange(3)],
                              np.random.default_rng(0))
    assert got == 3
    assert is_proper(g, coloring, pal) is True


def test_dense_step_single_vertex():
    g = Graph.from_edges(1, [])
    sim, cfg, log = setup_ctx(16)
    pal = Palettes.uniform_range(1, 1, 1)
    coloring = np.zeros(1, dtype=np.int64)
    assert dense_coloring_step(sim, g, pal, coloring, [np.array([0])],
                               np.random.default_rng(0)) == 1
    assert coloring[0] == 1


def test_dense_step_cross_block_conflict_probability():
    # two singleton blocks joined by an edge, palettes {1,2}: enumerate
    # the 2x2 choice space; conflicts (both drop) in exactly half of it
    g = Graph.from_edges(2, [(0, 1)])
    pal = Palettes.uniform_range(2, 1, 2)
    outcomes = []
    for c0 in (0, 1):
        for c1 in (0, 1):
            sim, cfg, log = setup_ctx(8)
            coloring = np.zeros(2, dtype=np.int64)
            stub = StubRng(int_vals=[c0, c1])
            dense_coloring_step(sim, g, pal, coloring,
                                [np.array([0]), np.array([1])], stub)
            outcomes.append(tuple(coloring))
    conflicts = sum(1 for o in outcomes if o == (0, 0))
    assert conflicts == 2  # c0 == c1 cases; brute-force probability 1/2
    for o in outcomes:
        if o != (0, 0):
            assert o[0] != o[1] and 0 not in o


# ----------------------------- bidding -------------------------------- #

def test_bidding_out_degree_zero_colored():
    g = Graph.from_edges(1, [])
    sim, cfg, log = setup_ctx(16)
    pal = Palettes.uniform_range(1, 1, 5)
    coloring = np.zeros(1, dtype=np.int64)
    color_bidding(sim, g, pal, coloring, np.array([0]), np.ones(1, np.int64),
                  np.random.default_rng(0), iterations=50)
    assert coloring[0] != 0


def test_bidding_disjoint_palettes_both_colored():
    g = Graph.from_edges(2, [(0, 1)])
    sim, cfg, log = setup_ctx(16)
    pal = Palettes.from_lists(2, {0: [1, 2, 3], 1: [4, 5, 6]})
    coloring = np.zeros(2, dtype=np.int64)
    rank = np.ones(2, dtype=np.int64)
    color_bidding(sim, g, pal, coloring, np.arange(2), rank,
                  np.random.default_rng(1), iterations=60)
    assert (coloring != 0).all()
    assert is_proper(g, coloring, pal) is True


def exact_path4_success_probs():
    """First-iteration coloring probabilities on the 4-path with shared
    5-color palettes and C=1, by exact enumeration (sample sets are
    independent across vertices)."""
    # out-neighbor chain: 1->0, 2->1, 3->2; p = [5, 4, 4, 4]
    probs = [Fraction(1, 10), Fraction(1, 8), Fraction(1, 8), Fraction(1, 8)]

    def subset_prob(mask, p):
        pr = Fraction(1)
        for c in range(5):
            pr *= p if (mask >> c) & 1 else (1 - p)
        return pr

    out = []
    # v0: colored iff its own sample set is non-empty
    out.append(1 - (1 - probs[0]) ** 5)
    # v1 given S0; v2 given S1; v3 given S2 (each pair independent)
    for v, parent in ((1, 0), (2, 1), (3, 2)):
        total = Fraction(0)
        for s_par in range(32):
            w_par = subset_prob(s_par, probs[parent])
            # v succeeds iff it samples a color outside s_par
            miss = Fraction(1)
            for c in range(5):
                if not (s_par >> c) & 1:
                    miss *= 1 - probs[v]
            total += w_par * (1 - miss)
        out.append(total)
    return out


def test_bidding_path4_matches_bruteforce():
    exact = exact_path4_success_probs()
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    pal = Palettes.uniform_range(4, 1, 5)
    rank = np.ones(4, dtype=np.int64)
    rng = np.random.default_rng(7)
    trials = 4000
    hits = np.zeros(4)
    for _ in range(trials):
        sim, cfg, log = setup_ctx(16)
        coloring = np.zeros(4, dtype=np.int64)
        color_bidding(sim, g, pal, coloring, np.arange(4), rank, rng,
                      iterations=1)
        hits += coloring != 0
    for v in range(4):
        assert abs(hits[v] / trials - float(exact[v])) < 0.03


# ----------------------------- partitioning --------------------------- #

def test_partition_plan_formula_example():
    plan = PartitionPlan.make(10 ** 6, 2, 2 ** 20)
    assert plan.q == 100
    assert plan.delta_small == pytest.approx(20.0)
    assert plan.p_j == pytest.approx(0.008)
    assert plan.p_star == pytest.approx(0.2)
    assert plan.q * plan.p_j + plan.p_star == pytest.approx(1.0)


def test_partition_plan_rejected_at_desk_scale():
    with pytest.raises(PlanRejected):
        PartitionPlan.make(4096, 2, 2 ** 20)  # p* = 20/16 > 1
    with pytest.raises(PlanRejected):
        PartitionPlan.make(100, 1, 2 ** 20)  # x below 2


def test_partition_step_allocates_disjoint_ranges():
    g = gen_random_graph(16384, 0.5, 21)
    sim, cfg, log = setup_ctx(g.n)
    scope = np.arange(g.n)
    plan, parts, ranges, degs = partition_step(
        sim, g, scope, g.max_degree, 1, g.max_degree + 1, 2,
        np.random.default_rng(3))
    assert len(parts) == plan.q + 1
    # each part's range holds its measured degree + 1 colors, and the
    # measured degrees are the part's own
    for m, (lo, hi), d in zip(parts, ranges, degs):
        assert hi - lo == int(d.max()) == g.induced(m)[0].max_degree
    assert sum(len(p) for p in parts) == g.n
    last_hi = 0
    for lo, hi in ranges:
        assert lo > last_hi
        last_hi = hi
    assert last_hi <= g.max_degree + 1
    assert all(e["ok"] for e in log.entries
               if e.get("check") == "partition-ranges-disjoint")


def test_overflowing_split_draws_logged():
    # every draw puts all of K6 in one part, which needs 6 colors of the 4
    # available: each draw logs its need, then the split gives up
    g = Graph.from_edges(6, [(u, v) for u in range(6)
                             for v in range(u + 1, 6)])
    sim, cfg, log = setup_ctx(g.n)
    with pytest.raises(AllocationOverflow) as exc:
        _measured_split(sim, g, np.arange(6), lambda: np.zeros(6, int), 1,
                        1, 4, "fast")
    assert (exc.value.need, exc.value.available) == (6, 4)
    assert log.entries == [
        {"check": "fast-allocation", "ok": False, "attempt": a, "need": 6,
         "available": 4} for a in range(RETRY_BUDGET + 1)]
    # every draw charges its seed and the routing call that measures it
    assert sim.ledger.stage_rounds == {
        "fast:sample": (RETRY_BUDGET + 1) * cfg.seed_broadcast_cost,
        "fast:measure": (RETRY_BUDGET + 1) * cfg.lenzen_cost}


def test_split_overflow_hands_off_to_recursion():
    # the same always-overflowing split through _split_and_recurse: after
    # the four logged draws, one split-overflow fallback hands the whole
    # graph to one recursive instance under fast:recursive
    g = Graph.complete(6)
    sim, cfg, log = setup_ctx(g.n)
    coloring = np.zeros(g.n, dtype=np.int64)
    star = _split_and_recurse(sim, g, np.random.default_rng(1), coloring,
                              "fast", lambda: np.zeros(6, int), 1, 4)
    assert star is None
    assert is_proper(g, coloring, Palettes.uniform_range(6, 1, 6)) is True
    names = [e.get("check") or e.get("note") for e in log.entries]
    assert names[: RETRY_BUDGET + 2] == \
        ["fast-allocation"] * (RETRY_BUDGET + 1) + ["fallback"]
    assert log.entries[RETRY_BUDGET + 1] == {
        "note": "fallback", "reason": "split-overflow", "size": 6,
        "need": 6, "available": 4}
    assert [e.get("reason") for e in log.entries].count(
        "split-overflow") == 1
    assert sim.ledger.stage_rounds["fast:recursive"] > 0


def test_recursive_split_overflow_hands_off_to_fallback(monkeypatch):
    # a recursion level whose every draw puts each of two disjoint K6s in
    # its own part: the parts need 12 colors of the 6 available, so after
    # the four logged draws one split-overflow fallback, with that need
    # and the available colors, hands the scope to the fallback colorers
    from ccclique import randcolor
    monkeypatch.setattr(PartitionPlan, "make", staticmethod(
        lambda delta_i, x, n: PartitionPlan(2, 1.0, 0.4, 0.2)))
    monkeypatch.setattr(randcolor, "_split_labels",
                        lambda rng, size, p, q: np.arange(size) // 6)
    g = Graph.from_edges(12, [(u + off, v + off) for off in (0, 6)
                              for u in range(6) for v in range(u + 1, 6)])
    # Delta = 5 is above delta_min and outside both list-coloring regimes
    sim, cfg, log = setup_ctx(g.n, delta_min=1, c_fit=0.5)
    coloring = np.zeros(g.n, dtype=np.int64)
    recursive_coloring(sim, g, np.arange(g.n), 1, 6,
                       np.random.default_rng(1), coloring)
    assert is_proper(g, coloring, Palettes.uniform_range(12, 1, 6)) is True
    names = [e.get("check") or e.get("note") for e in log.entries]
    assert names[: RETRY_BUDGET + 2] == \
        ["partition-allocation"] * (RETRY_BUDGET + 1) + ["fallback"]
    assert log.entries[RETRY_BUDGET + 1] == {
        "note": "fallback", "reason": "split-overflow", "size": 12,
        "need": 12, "available": 6}
    assert sim.ledger.stage_rounds["partition:measure"] == \
        (RETRY_BUDGET + 1) * cfg.lenzen_cost
    assert sim.ledger.stage_rounds["fallback"] > 0


def test_recursive_base_case_no_partition_rounds():
    # Delta <= sqrt(n): straight to list coloring, no partition stage
    g = gen_random_graph(4096, 0.008, 5)
    assert g.max_degree ** 2 <= g.n
    sim, cfg, log = setup_ctx(g.n)
    coloring = np.zeros(g.n, dtype=np.int64)
    recursive_coloring(sim, g, np.arange(g.n), 1, g.max_degree + 1,
                       np.random.default_rng(1), coloring)
    assert is_proper(g, coloring,
                     Palettes.uniform_range(g.n, 1, g.max_degree + 1)) is True
    assert not any(k.startswith("partition") for k in
                   sim.ledger.stage_rounds)


def test_recursive_left_over_runs_on_list_palettes(monkeypatch):
    # a plan with q = 4 parts of p_j = 0.15 leaves 40% of the vertices in
    # the left-over set; at c_fit = 16 its degree fits the sqrt bound, so
    # it is list-colored from its free colors in the parent palette
    from ccclique import randcolor
    monkeypatch.setattr(PartitionPlan, "make", staticmethod(
        lambda delta_i, x, n: PartitionPlan(4, 1.6, 0.15, 0.4)))
    lists = []
    for name in ("clp_list_coloring", "det_list_color"):
        def spy(sim, graph, palettes, *a, _f=getattr(randcolor, name), **k):
            lists.append(not palettes.is_range)
            return _f(sim, graph, palettes, *a, **k)
        monkeypatch.setattr(randcolor, name, spy)
    g = gen_random_graph(1024, 0.15, 3)
    sim, cfg, log = setup_ctx(g.n, c_fit=16)
    assert g.max_degree ** 2 > cfg.c_fit * g.n
    coloring = np.zeros(g.n, dtype=np.int64)
    recursive_coloring(sim, g, np.arange(g.n), 1, g.max_degree + 1,
                       np.random.default_rng(1), coloring)
    assert is_proper(g, coloring, Palettes.uniform_range(
        g.n, 1, g.max_degree + 1)) is True
    assert any(lists)


def test_parallel_instance_isolation():
    # coloring two disjoint blocks via run_parallel equals sequential runs
    # with the same per-instance seeds
    blocks = []
    edges = []
    for b in range(2):
        gb = gen_random_graph(40, 0.2, b)
        off = b * 40
        blocks.append(np.arange(off, off + 40))
        edges.extend((int(u) + off, int(v) + off)
                     for u, v in gb.edges_iter())
    g = Graph.from_edges(80, edges)
    delta = g.max_degree

    def run(parallel):
        sim, cfg, log = setup_ctx(g.n)
        coloring = np.zeros(g.n, dtype=np.int64)
        jobs = [
            (lambda b=b: recursive_coloring(
                sim, g, blocks[b], 1, delta + 1,
                np.random.default_rng(100 + b), coloring))
            for b in range(2)]
        if parallel:
            sim.run_parallel(jobs)
        else:
            for j in jobs:
                j()
        return coloring

    assert np.array_equal(run(True), run(False))


# ----------------------------- drivers -------------------------------- #

def test_fast_on_clique_uses_all_colors():
    n = 64
    g = Graph.complete(n)
    _, rep = run_algorithm("fast", g, Config(rng_seed=5))
    assert rep["proper"] and rep["within_budget"]
    assert rep["colors_used"] == n  # clique forces Delta+1 = n colors


def test_fast_branch_predicate():
    # Delta <= n/(10 log2 n): the recursion branch is taken
    g = gen_random_graph(4096, 0.002, 9)
    assert g.max_degree <= 4096 / (10 * math.log2(4096))
    sim = Simulator(g.n, Config(rng_seed=9))
    from ccclique.randcolor import fast_coloring
    coloring = np.zeros(g.n, dtype=np.int64)
    fast_coloring(sim, g, np.random.default_rng(9), coloring)
    assert "fast:recursive" in sim.ledger.stage_rounds
    assert "fast:parts" not in sim.ledger.stage_rounds
    assert is_proper(g, coloring,
                     Palettes.uniform_range(g.n, 1, g.max_degree + 1)) is True


def test_manycolors_budget_and_degenerate_k():
    g = gen_random_graph(512, 0.3, 2)
    delta = g.max_degree
    eps = 0.25
    _, rep = run_algorithm("manycolors", g, Config(rng_seed=2), eps=eps)
    assert rep["proper"]
    assert rep["max_color"] <= delta + int(delta ** (0.5 + eps))
    # k = floor(Delta^eps): at Delta=2^16, eps=1/4 the split has 16 parts
    assert int((2 ** 16) ** 0.25) == 16
    # eps small enough that k = 1 degenerates to plain recursion
    tiny_eps = 1e-9
    _, rep2 = run_algorithm("manycolors", g, Config(rng_seed=2),
                            eps=tiny_eps)
    assert rep2["proper"] and rep2["within_budget"]


def test_clp_window_preconditions():
    from ccclique.randcolor import clp_list_coloring
    g = gen_random_graph(256, 0.3, 3)
    delta = g.max_degree
    sim, cfg, log = setup_ctx(g.n)
    bad = Palettes.from_lists(
        g.n, {v: np.arange(1, 3) for v in range(g.n)})  # r_v = 2 too few
    with pytest.raises(ParameterViolation):
        clp_list_coloring(sim, g, bad, np.random.default_rng(0),
                          np.zeros(g.n, dtype=np.int64))


def test_clp_palette_window_hands_off():
    # Delta = 246 puts the window's lower end at 218.8; palettes of deg+1
    # colors leave 884 vertices below it, so clp hands the scope to the
    # fallback colorers instead of running the dense pipeline
    from ccclique.randcolor import clp_list_coloring
    g = gen_random_graph(1024, 0.2, 0)
    sim, cfg, log = setup_ctx(g.n, rng_seed=0, delta_min=16, c_fit=64)
    pal = Palettes.from_lists(
        g.n, {v: np.arange(1, int(g.degrees[v]) + 2) for v in range(g.n)})
    assert g.max_degree == 246
    assert (pal.sizes(np.arange(g.n)) < 246 - 246 ** 0.6).sum() == 884
    coloring = np.zeros(g.n, dtype=np.int64)
    clp_list_coloring(sim, g, pal, np.random.default_rng(0), coloring)
    assert is_proper(g, coloring, pal) is True
    # the list colorer it hands to may in turn hand phases to a central
    # solve, logged as host-budget fallbacks
    handoffs = [e for e in log.entries if e.get("note") == "fallback"]
    assert handoffs[0] == {"note": "fallback", "reason": "palette-window",
                           "size": g.n, "delta": 246}
    assert {e["reason"] for e in handoffs[1:]} <= {"host-budget"}
    assert not any(k.startswith("clp:") for k in sim.ledger.stage_rounds)


def test_clp_stages_charged_once(monkeypatch):
    # every stage is opened once per charge: clp's direct stages add up to
    # clp, and no stage is opened inside a stage of the same name
    stage = Simulator.stage

    def spy(self, name):
        assert name not in self.ledger.stage_stack, name
        return stage(self, name)

    monkeypatch.setattr(Simulator, "stage", spy)
    g = gen_random_graph(1024, 0.2, 0)
    _, rep = run_algorithm("clp", g, Config(rng_seed=0, delta_min=16,
                                            c_fit=64))
    by_stage = rep["rounds_by_stage"]
    assert by_stage["clp:cleanup"] == 4
    assert rep["rounds_total"] == by_stage["clp"] == 22
    assert sum(r for k, r in by_stage.items()
               if k.startswith("clp:")) == 22


def test_free_color_floor_invariant_during_pipeline():
    # after any prefix: free colors >= uncolored-degree + 1 (structural)
    g = gen_random_graph(300, 0.1, 13)
    delta = g.max_degree
    pal = Palettes.uniform_range(g.n, 1, delta + 1)
    sim, cfg, log = setup_ctx(g.n)
    rng = np.random.default_rng(13)
    coloring = np.zeros(g.n, dtype=np.int64)
    one_shot_coloring(sim, g, pal, coloring, 0.125, 3, rng)
    from ccclique.coloring import free_colors
    unc = np.nonzero(coloring == UNCOLORED)[0]
    for v in unc[:50]:
        nbr = g.neighbors(int(v))
        unc_deg = int((coloring[nbr] == UNCOLORED).sum())
        assert len(free_colors(int(v), pal, coloring, g)) >= unc_deg + 1


def test_clp_runs_hierarchy_and_bidding_in_regime():
    # delta_min=16 and c_fit=64 put Delta (246) inside the clp window
    # at n=1024, so the run reaches the hierarchy's blocks and the
    # bidding step instead of falling back
    g = gen_random_graph(1024, 0.2, 0)
    _, rep = run_algorithm("clp", g, Config(rng_seed=0, delta_min=16,
                                            c_fit=64))
    assert rep["proper"] and rep["within_budget"]
    assert rep["rounds_by_stage"]["clp:hierarchy"] > 0
    assert rep["rounds_by_stage"]["clp:bidding"] > 0


def test_clp_dense_step_colors_disjoint_cliques(monkeypatch):
    # 51 disjoint K_20 (ids 20b..20b+19) plus 4 isolated vertices: every
    # clique is one dense block, so the dense step gathers each block at a
    # leader and colors it; no bidding round charges anything
    edges = [(20 * b + i, 20 * b + j) for b in range(51)
             for i in range(20) for j in range(i + 1, 20)]
    g = Graph.from_edges(1024, edges)
    from ccclique import randcolor
    dense = randcolor.dense_coloring_step
    colored = []
    monkeypatch.setattr(randcolor, "dense_coloring_step",
                        lambda *a, **k: colored.append(dense(*a, **k))
                        or colored[-1])
    _, rep = run_algorithm("clp", g, Config(delta_min=16, rng_seed=1))
    assert rep["proper"] and rep["within_budget"]
    assert colored == [697]
    assert rep["rounds_total"] == 11
    assert rep["rounds_by_stage"] == {
        "clp": 11, "clp:bidding": 0, "clp:dense-large": 0,
        "clp:dense-small": 5, "clp:hierarchy": 3, "clp:oneshot": 3,
        "dense:gather": 5, "hierarchy:collect": 2,
        "hierarchy:components": 1}


def test_clp_dense_large_colors_chained_blocks(monkeypatch):
    # two circulant rings C(160, +-1..10) and C(110, +-1..10) at n = 8192:
    # Delta = 20 puts eps at 20^(-0.1) = 0.74, so the friend components
    # chain around a ring past Delta + 1 members, and a block is large from
    # 20 / log2(20^0.1)^2 = 107.1 members.  After one-shot the 110-ring's
    # block (78) is small and the 160-ring's (121) large; both gathers fit
    # in n words.  The leader colors at most Delta + 1 members of a block
    # per pass.
    edges = [(s + i, s + (i + d) % m) for s, m in ((0, 160), (160, 110))
             for i in range(m) for d in range(1, 11)]
    g = Graph.from_edges(8192, edges)
    from ccclique import randcolor
    dense = randcolor.dense_coloring_step
    colored = []
    monkeypatch.setattr(randcolor, "dense_coloring_step",
                        lambda *a, **k: colored.append(dense(*a, **k))
                        or colored[-1])
    _, rep = run_algorithm("clp", g, Config(delta_min=8, rng_seed=1))
    assert rep["proper"] and rep["within_budget"]
    assert colored == [21, 21, 21, 15] + [21, 21, 21, 21, 21, 16]
    assert rep["rounds_by_stage"]["clp:dense-small"] == 20
    assert rep["rounds_by_stage"]["clp:dense-large"] == 30
