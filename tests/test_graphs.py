"""Graph core: generation, IO, verification, concentration bounds."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccclique.coloring import (UNCOLORED, Palettes, concentration_bound,
                               find_conflict, free_colors, greedy_list_color,
                               is_proper, palette_ranges, Violation)
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


def test_greedy_all_taken_raises_stuck():
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    pal = Palettes.uniform_range(3, 1, 2)
    coloring = np.array([1, 2, 0], dtype=np.int64)
    with pytest.raises(AssertionError, match="greedy stuck at 2"):
        greedy_list_color(k3, pal, coloring, np.arange(3))


@pytest.mark.parametrize("lo,hi", [([1, 1, 1], [2, 0, 2]),
                                   ([1, 3, 1], [4, 1, 4])])
def test_greedy_empty_range_raises_stuck(lo, hi):
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    pal = Palettes(3, np.array(lo), np.array(hi))
    coloring = np.zeros(3, dtype=np.int64)
    with pytest.raises(AssertionError, match="greedy stuck at 1"):
        greedy_list_color(path, pal, coloring, np.arange(3))
    assert list(coloring) == [1, 0, 0]


# ------------- packed kernels against per-vertex references ------------ #

def reference_range_greedy(graph, palettes, coloring, vertices):
    """Per-vertex range greedy: unpack each row, gather the neighbours'
    colors, take the smallest free one."""
    count = 0
    lo, hi = palettes._lo, palettes._hi
    for v in np.sort(np.asarray(vertices, dtype=np.int64)):
        v = int(v)
        if coloring[v] != UNCOLORED:
            continue
        size = int(hi[v] - lo[v] + 1)
        cols = coloring[graph.neighbors(v)] - lo[v]
        taken = np.zeros(size, dtype=bool)
        taken[cols[(cols >= 0) & (cols < size)]] = True
        c = int(np.argmin(taken))
        if taken[c]:
            raise AssertionError(
                f"greedy stuck at {v}: palette slack invariant violated")
        coloring[v] = int(lo[v]) + c
        count += 1
    return count


def reference_find_conflict(graph, coloring):
    """First monochromatic edge in lexicographic order, by brute force."""
    e = graph.edge_array()
    mono = e[(coloring[e[:, 0]] == coloring[e[:, 1]]) &
             (coloring[e[:, 0]] != UNCOLORED)]
    if len(mono) == 0:
        return None
    u, v = mono[np.lexsort((mono[:, 1], mono[:, 0]))[0]]
    return int(u), int(v)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 200), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 4), st.integers(-1, 2), st.floats(0.0, 0.6))
def test_range_greedy_matches_reference(n, p, seed, parts, slack, frac):
    """Disjoint per-part ranges, pre-colored vertices inside, below and
    above the table's columns (and above n), duplicate and pre-colored
    entries in `vertices`, and tight palettes that get stuck."""
    g = gen_random_graph(n, p, seed)
    rng = np.random.default_rng(seed)
    label = rng.integers(0, parts, n)
    sizes = [g.max_degree_within(np.flatnonzero(label == j)) + 1 +
             max(0, slack) for j in range(parts)]
    lo, hi = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for j, (a, b) in enumerate(palette_ranges(1 + int(rng.integers(0, 4)),
                                              sizes)):
        lo[label == j], hi[label == j] = a, b
    if slack < 0:
        hi = lo + (hi - lo) // 3
    pal = Palettes(n, lo, hi)
    coloring = np.zeros(n, dtype=np.int64)
    pre = rng.random(n) < frac
    coloring[pre] = rng.choice([1, 2, int(hi.max()), int(hi.max()) + 1,
                                n + 5, 3 * n + 7], size=int(pre.sum()))
    coloring[pre] += rng.integers(0, 3, int(pre.sum()))
    vertices = rng.integers(0, n, int(rng.integers(0, 2 * n + 1)))
    want, got = coloring.copy(), coloring.copy()
    try:
        expected = reference_range_greedy(g, pal, want, vertices)
    except AssertionError as exc:
        with pytest.raises(AssertionError, match=re.escape(str(exc))):
            greedy_list_color(g, pal, got, vertices)
        assert np.array_equal(want, got)
        return
    assert greedy_list_color(g, pal, got, vertices) == expected
    assert np.array_equal(want, got)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 200), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 300), st.floats(0.0, 1.0))
def test_find_conflict_matches_reference(n, p, seed, colors, frac):
    """Uncolored vertices, several conflicts, colors above n, and rows
    that conflict only with lower ids."""
    g = gen_random_graph(n, p, seed)
    rng = np.random.default_rng(seed)
    coloring = rng.integers(1, colors + 1, n) * \
        (rng.random(n) < frac)
    coloring[rng.random(n) < 0.1] += 10 * n
    assert find_conflict(g, coloring) == reference_find_conflict(g, coloring)
    proper = np.zeros(n, dtype=np.int64)
    greedy_list_color(g, Palettes.uniform_range(n, 1, g.max_degree + 1),
                      proper, np.arange(n))
    assert find_conflict(g, proper) is None
    assert reference_find_conflict(g, proper) is None


def test_find_conflict_lower_ids_only():
    # 70 > 64 vertices: hits span two words; vertex 69 conflicts only with
    # lower ids, and the first conflict is the lowest-id row's lowest hit.
    g = Graph.from_edges(70, [(3, 69), (3, 66), (10, 69), (65, 69)])
    coloring = np.arange(1, 71, dtype=np.int64)
    assert find_conflict(g, coloring) is None
    coloring[[3, 66, 69]] = 7
    assert find_conflict(g, coloring) == (3, 66)
    coloring[3] = 8
    assert find_conflict(g, coloring) is None
    coloring[65] = 7
    assert find_conflict(g, coloring) == (65, 69)
    coloring[[65, 69]] = 0
    assert find_conflict(g, coloring) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10 ** 6))
def test_gen_graph_is_simple_symmetric(n, seed):
    g = gen_random_graph(n, 0.5, seed)
    g.validate()
    assert g.max_degree <= n - 1
