"""Graph core: generation, IO, verification, concentration bounds."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccclique.coloring import (Palettes, concentration_bound,
                               free_colors, greedy_list_color, is_proper,
                               Violation)
from ccclique.errors import InputError
from ccclique.graphs import (Graph, gen_random_graph, graph_from_text,
                             read_edge_list, write_edge_list)


def test_gen_empty_and_complete():
    g0 = gen_random_graph(5, 0.0, 1)
    assert g0.max_degree == 0 and g0.n_edges == 0
    g1 = gen_random_graph(5, 1.0, 1)
    assert g1.max_degree == 4 and g1.n_edges == 10


def test_gen_seed_deterministic():
    a = gen_random_graph(100, 0.4, 42)
    b = gen_random_graph(100, 0.4, 42)
    c = gen_random_graph(100, 0.4, 43)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)


def test_gen_degree_within_concentration():
    g = gen_random_graph(1024, 0.5, 7)
    g.validate()
    bound = concentration_bound(511.5, 1024)
    assert bound.contains(g.max_degree)


def test_induced_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        g = gen_random_graph(n, 0.4, int(rng.integers(1000)))
        verts = np.sort(rng.choice(n, size=n // 2, replace=False))
        sub, ids = g.induced(verts)
        assert np.array_equal(ids, verts)
        for i in range(len(verts)):
            for j in range(len(verts)):
                assert sub.has_edge(i, j) == g.has_edge(int(verts[i]),
                                                        int(verts[j]))


def test_common_neighbors_bruteforce():
    g = gen_random_graph(60, 0.3, 5)
    us = np.array([0, 5, 10, 20])
    vs = np.array([1, 6, 30, 21])
    got = g.common_neighbors(us, vs)
    for k in range(len(us)):
        want = len(set(map(int, g.neighbors(int(us[k]))))
                   & set(map(int, g.neighbors(int(vs[k])))))
        assert got[k] == want


def test_degrees_within_rows_variant():
    g = gen_random_graph(50, 0.3, 9)
    members = np.array([1, 4, 9, 16, 25, 36, 49])
    mask = g.pack_vertex_mask(members)
    full = g.degrees_within(mask)
    part = g.degrees_within(mask, rows=members)
    assert np.array_equal(full[members], part[members])
    assert g.max_degree_within(members) == g.induced(members)[0].max_degree
    assert g.max_degree_within(np.zeros(0, dtype=np.int64)) == 0


def test_edge_list_roundtrip():
    g = gen_random_graph(30, 0.3, 11)
    buf = io.StringIO()
    write_edge_list(g, buf)
    buf.seek(0)
    g2 = read_edge_list(buf)
    assert g2.n == g.n
    assert np.array_equal(g2.rows, g.rows)


def test_edge_list_comments_and_errors():
    g = graph_from_text("# comment\n0 1\n\n1 2\n")
    assert g.n == 3 and g.n_edges == 2
    with pytest.raises(InputError):
        graph_from_text("0 1 2\n")
    with pytest.raises(InputError):
        graph_from_text("0 x\n")
    with pytest.raises(InputError):
        Graph.from_edges(3, [(1, 1)])


def test_is_proper_triangle_cases():
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    pal = Palettes.uniform_range(3, 1, 3)
    assert is_proper(k3, np.array([1, 2, 3]), pal) is True
    v = is_proper(k3, np.array([1, 1, 2]), pal)
    assert isinstance(v, Violation)
    assert v.kind == "edge" and v.edge == (0, 1)
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert is_proper(path, np.array([1, 2, 1]), pal) is True


def test_is_proper_uncolored_and_palette():
    g = Graph.from_edges(2, [(0, 1)])
    pal = Palettes.uniform_range(2, 1, 2)
    v = is_proper(g, np.array([1, 0]), pal)
    assert v.kind == "uncolored" and v.vertex == 1
    v2 = is_proper(g, np.array([1, 9]), pal)
    assert v2.kind == "palette" and v2.vertex == 1


def test_free_colors_examples():
    g = Graph.from_edges(2, [(0, 1)])
    pal = Palettes.from_lists(2, {0: [1, 2, 3], 1: [3]})
    coloring = np.array([0, 3])
    assert list(free_colors(0, pal, coloring, g)) == [1, 2]

    iso = Graph.from_edges(1, [])
    pal1 = Palettes.from_lists(1, {0: [1]})
    assert list(free_colors(0, pal1, np.array([0]), iso)) == [1]

    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    spal = Palettes.uniform_range(4, 1, 4)
    coloring = np.array([0, 1, 2, 3])
    assert list(free_colors(0, spal, coloring, star)) == [4]


def test_concentration_bound_formulas():
    b = concentration_bound(2000, 2 ** 20)  # 5 log2 n = 100
    assert b.low == 2000 - math.sqrt(2000 * 100)
    assert b.high == 2000 + math.sqrt(2000 * 100)
    assert abs(b.high - 2447.213595) < 1e-6
    b2 = concentration_bound(10, 2 ** 20)
    assert b2.low == 0 and b2.high == 110
    with pytest.raises(ValueError):
        concentration_bound(-1, 4)


def test_concentration_monte_carlo():
    # binomial(1e5, 0.01) samples stay inside the bound >= 999/1000 trials
    rng = np.random.default_rng(2024)
    n_pop = 10 ** 5
    mu = n_pop * 0.01
    bound = concentration_bound(mu, n_pop)
    samples = rng.binomial(n_pop, 0.01, size=1000)
    inside = np.count_nonzero((samples >= bound.low)
                              & (samples <= bound.high))
    assert inside >= 999


def test_palette_span_and_contains():
    pal = Palettes.from_lists(4, {0: [3, 7], 2: [5]})
    assert pal.span(np.array([0, 2])) == (3, 7)
    assert pal.contains(0, 7) and not pal.contains(0, 4)
    r = Palettes.uniform_range(4, 2, 6)
    assert r.span(np.arange(4)) == (2, 6)
    assert r.size(1) == 5


def test_greedy_list_color_paths_agree():
    rng = np.random.default_rng(8)
    for trial in range(5):
        n = 24
        g = gen_random_graph(n, 0.4, trial)
        delta = g.max_degree
        ranged = Palettes.uniform_range(n, 1, delta + 1)
        listed = Palettes.from_lists(
            n, {v: np.arange(1, delta + 2) for v in range(n)})
        c1 = np.zeros(n, dtype=np.int64)
        c2 = np.zeros(n, dtype=np.int64)
        greedy_list_color(g, ranged, c1, np.arange(n))
        greedy_list_color(g, listed, c2, np.arange(n))
        assert np.array_equal(c1, c2)
        assert is_proper(g, c1, ranged) is True


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10 ** 6))
def test_gen_graph_is_simple_symmetric(n, seed):
    g = gen_random_graph(n, 0.5, seed)
    g.validate()
    assert g.max_degree <= n - 1
