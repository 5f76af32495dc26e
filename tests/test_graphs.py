"""Graph core: generation, IO, verification, concentration bounds."""

import hashlib
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccclique.coloring import (UNCOLORED, Palettes, concentration_bound,
                               find_conflict, free_colors, free_sets,
                               greedy_list_color, is_proper, palette_ranges,
                               Violation)
from ccclique import graphs
from ccclique.errors import InputError
from ccclique.graphs import (Graph, gen_random_graph, graph_from_text,
                             read_edge_list, write_edge_list)
from oracles import find_conflict_scan


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
                assert sub.row_bool(i)[j] == g.row_bool(int(verts[i]))[
                    int(verts[j])]


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
    among = g.degrees_among(members)
    assert np.array_equal(among, part)
    assert among.max() == g.induced(members)[0].max_degree
    assert not g.degrees_among(np.zeros(0, dtype=np.int64)).any()


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


def test_edge_list_header_pins_n_only_as_first_token():
    # a comment that merely contains n= leaves n at max id + 1
    assert graph_from_text("# run=300 of the sweep\n0 1\n").n == 2
    assert graph_from_text("# the n=300 run\n0 1\n").n == 2
    assert graph_from_text("# n=300\n0 1\n").n == 300
    assert graph_from_text("#n=7 from a sweep\n0 1\n").n == 7


@pytest.mark.parametrize("text,message", [
    ("# n=-3\n0 1\n", "line 1: bad vertex count 'n=-3'"),
    ("0 1\n# n=abc\n", "line 2: bad vertex count 'n=abc'"),
    ("# n=\n", "line 1: bad vertex count 'n='"),
    ("# n=2\n0 1\n0 5\n", "line 3: vertex 5 at or above the pinned n=2"),
    ("# n=2\n\n1 2\n", "line 3: vertex 2 at or above the pinned n=2"),
    # a list that names no vertex
    ("# n=0\n", "the edge list names no vertex"),
    ("# comment only\n", "the edge list names no vertex"),
    ("", "the edge list names no vertex"),
])
def test_edge_list_bad_header_or_id_above_pin(text, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        graph_from_text(text)

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
    sizes = [int(g.degrees_among(np.flatnonzero(label == j)).max()) + 1 +
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


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 200), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 0.5), st.sampled_from([0, 1, 2, 7]))
def test_find_conflict_matches_scan(n, p, seed, frac, planted):
    """A proper coloring with uncolored vertices and 0, 1 or several
    planted monochromatic edges, at n that need not fill its last word:
    the same first edge as the reference scan."""
    g = gen_random_graph(n, p, seed)
    rng = np.random.default_rng(seed)
    coloring = np.zeros(n, dtype=np.int64)
    greedy_list_color(g, Palettes.uniform_range(n, 1, g.max_degree + 1),
                      coloring, np.arange(n))
    coloring[rng.random(n) < frac] = UNCOLORED
    edges = g.edge_array()
    if len(edges) == 0:
        planted = 0
    for u, v in edges[rng.integers(0, max(1, len(edges)), planted)]:
        coloring[u] = coloring[v] = max(coloring[u], coloring[v], 1)
    got = find_conflict(g, coloring)
    assert got == find_conflict_scan(g, coloring)
    assert (got is None) == (planted == 0)


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


# ------------- one neighbour substrate: edges, free sets, lists ------------ #

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 150), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 300))
def test_edges_within_matches_bruteforce(n, p, seed, size):
    """Random, unsorted, duplicated and empty vertex sets."""
    g = gen_random_graph(n, p, seed)
    vertices = np.random.default_rng(seed).integers(0, n, size)
    ids = sorted(set(vertices.tolist()))
    want = [(u, v) for u in ids for v in ids if u < v and g.row_bool(u)[v]]
    got = g.edges_within(vertices)
    assert got.shape == (len(want), 2) and got.dtype == np.int64
    assert [tuple(e) for e in got.tolist()] == want
    assert np.array_equal(g.edges_within(vertices[::-1]), got)


def test_edges_within_empty_and_whole():
    g = gen_random_graph(130, 0.3, 4)
    assert g.edges_within(np.zeros(0, dtype=np.int64)).shape == (0, 2)
    assert g.edges_within([5]).shape == (0, 2)
    whole = g.edge_array()
    assert len(whole) == g.n_edges
    assert np.array_equal(whole, g.edges_within(np.arange(g.n)))
    assert np.array_equal(whole, np.array(list(g.edges_iter())))


def reference_free_colors(v, palette, coloring, graph):
    """Per-vertex free colors: v's palette minus its colored neighbours'
    colors, by `setdiff1d`."""
    nbr_colors = coloring[graph.neighbors(v)]
    taken = np.unique(nbr_colors[nbr_colors != UNCOLORED])
    if len(taken) == 0:
        return palette
    return np.setdiff1d(palette, taken, assume_unique=False)


def random_lists(rng, n, top):
    """Dict palettes on a random subset of [0, n), some of them empty."""
    return {int(v): rng.choice(np.arange(1, top + 1),
                               int(rng.integers(0, top + 1)))
            for v in np.flatnonzero(rng.random(n) < 0.7)}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 120), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_free_sets_match_per_vertex_reference(n, p, seed, listed):
    g = gen_random_graph(n, p, seed)
    rng = np.random.default_rng(seed)
    top = g.max_degree + 3
    if listed:
        lists = random_lists(rng, n, top)
        pal = Palettes.from_lists(n, lists)
        palette = {v: np.unique(lists.get(v, [])).astype(np.int64)
                   for v in range(n)}
    else:
        lo = rng.integers(1, 4, n)
        hi = lo + rng.integers(-1, top, n)
        pal = Palettes(n, lo, hi)
        palette = {v: np.arange(lo[v], hi[v] + 1) for v in range(n)}
    coloring = rng.integers(1, top + 2, n) * (rng.random(n) < 0.5)
    vertices = rng.permutation(n)[: int(rng.integers(0, n + 1))]
    free = free_sets(g, pal, coloring, vertices)
    assert np.array_equal(free.vertices, vertices)
    assert len(free.ptr) == len(vertices) + 1
    for i, v in enumerate(vertices.tolist()):
        want = reference_free_colors(v, palette[v], coloring, g)
        assert free.colors[free.ptr[i]:free.ptr[i + 1]].tolist() == \
            want.tolist()
        assert free_colors(v, pal, coloring, g).tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80), st.integers(0, 2 ** 32 - 1))
def test_list_palettes_match_dict_semantics(n, seed):
    """Every list-palette query against the same query on the dict, with
    vertices that have no list or an empty one."""
    rng = np.random.default_rng(seed)
    lists = random_lists(rng, n, 12)
    ref = {v: np.unique(np.asarray(lists.get(v, []), dtype=np.int64))
           for v in range(n)}
    pal = Palettes.from_lists(n, lists)
    assert not pal.is_range
    vertices = rng.integers(0, n, int(rng.integers(0, 2 * n)))
    assert pal.sizes(vertices).tolist() == [len(ref[v]) for v in
                                            vertices.tolist()]
    ptr, colors = pal.flat(vertices)
    for i, v in enumerate(vertices.tolist()):
        assert pal.size(v) == len(ref[v])
        assert pal.colors(v).tolist() == ref[v].tolist()
        assert colors[ptr[i]:ptr[i + 1]].tolist() == ref[v].tolist()
    held = [c for v in vertices.tolist() for c in ref[v].tolist()]
    assert pal.span(vertices) == ((min(held), max(held)) if held else (1, 1))
    probe = rng.integers(0, 14, len(vertices))
    assert pal.contains(vertices, probe).tolist() == \
        [c in ref[v] for v, c in zip(vertices.tolist(), probe.tolist())]
    keep = set(vertices.tolist())
    sub = pal.restrict(vertices)
    for v in range(n):
        want = ref[v] if v in keep else []
        assert sub.colors(v).tolist() == list(want)
    # a palette violation is the first vertex whose color is not listed
    coloring = np.array([int(ref[v][0]) if len(ref[v]) else 1
                         for v in range(n)], dtype=np.int64)
    bad = [v for v in range(n) if coloring[v] not in ref[v]]
    verdict = is_proper(Graph.from_edges(n, []), coloring, pal)
    if bad:
        assert (verdict.kind, verdict.vertex) == ("palette", bad[0])
        assert verdict.color == coloring[bad[0]]
    else:
        assert verdict is True


def test_list_palettes_hold_free_sets():
    # a list palette built from free sets is those sets, row for row
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    coloring = np.array([2, 0, 0, 4, 0])
    free = free_sets(g, Palettes.uniform_range(5, 1, 5), coloring,
                     np.array([1, 2, 4]))
    pal = Palettes(5, sets=free)
    assert [pal.colors(v).tolist() for v in range(5)] == \
        [[], [1, 3, 4, 5], [1, 2, 3, 5], [], [1, 2, 3, 4, 5]]
    assert pal.contains(1, 3) and not pal.contains(1, 2)
    assert not pal.contains(0, 2)


def reference_list_greedy(graph, lists, coloring, vertices):
    """Per-vertex list greedy: each vertex in ascending order takes the
    first color of its free list (`reference_free_colors`)."""
    count = 0
    for v in np.sort(np.asarray(vertices, dtype=np.int64)).tolist():
        if coloring[v] != UNCOLORED:
            continue
        palette = np.unique(np.asarray(lists.get(v, []), dtype=np.int64))
        options = reference_free_colors(v, palette, coloring, graph)
        if len(options) == 0:
            raise AssertionError(
                f"greedy stuck at {v}: palette slack invariant violated")
        coloring[v] = int(options[0])
        count += 1
    return count


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 150), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
       st.integers(-2, 3), st.floats(0.0, 0.6))
def test_list_greedy_matches_reference(n, p, seed, slack, frac):
    """Scattered lists of deg+1+slack colors; short lists and vertices
    with no list get stuck.  Pre-colored vertices and duplicate entries."""
    g = gen_random_graph(n, p, seed)
    rng = np.random.default_rng(seed)
    top = 2 * g.max_degree + 8
    lists = {v: rng.choice(np.arange(1, top + 1),
                           max(0, min(top, int(g.degrees[v]) + 1 + slack)),
                           replace=False)
             for v in range(n) if slack >= 0 or rng.random() < 0.95}
    pal = Palettes.from_lists(n, lists)
    coloring = np.zeros(n, dtype=np.int64)
    pre = rng.random(n) < frac
    coloring[pre] = rng.integers(1, top + 5, int(pre.sum()))
    vertices = rng.integers(0, n, int(rng.integers(0, 2 * n + 1)))
    want, got = coloring.copy(), coloring.copy()
    try:
        expected = reference_list_greedy(g, lists, want, vertices)
    except AssertionError as exc:
        with pytest.raises(AssertionError, match=re.escape(str(exc))):
            greedy_list_color(g, pal, got, vertices)
        assert np.array_equal(want, got)
        return
    assert greedy_list_color(g, pal, got, vertices) == expected
    assert np.array_equal(want, got)


# ------------- bounded blocks: generation, counts, construction ------------ #

# SHA-256 of gen_random_graph(n, p, 1).rows.tobytes().  The cells span one
# and several row and column blocks, with and without a padded last word.
GEN_DIGESTS = {
    (1, 0): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    (1, 0.3): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    (1, 1): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    (63, 0): "696bda342649ec9268da57b6a279df6f24b0e857d5e6d0605fd25af95adc3cee",
    (63, 0.3): "4cf43d6383c49fdcc02912a3c4061165441f21a9a1233cd150d73596eb88b055",
    (63, 1): "9030262310012727ad247181f8b0806b97ba6f9b352d75b09666e9d8921f0591",
    (64, 0): "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    (64, 0.3): "d948e02fec1ce86a97f870730c0fad39865561fa1f8f0e036b3d72369569e8cf",
    (64, 1): "767dfa123f30c601ca1a71d83a0c340e11b2ff7ccfbe9a95ea14def2534c34c8",
    (65, 0): "256fb9c4796b15a7ec4b0d5319e9e493ca4cffda658310420bdfd31e1c59da79",
    (65, 0.3): "8a5b51b41b5975674427e6db64b169db807ff4f75ed08bfdfeda53c0861c7ed3",
    (65, 1): "92a80d62e53a842f34412ebbc28f3942c0f0d9bb002ea3d79c03395fe2db681f",
    (1000, 0): "eec19bc6af0b3b6dfb97a08782c65f4bb3c3203e789a015d2008b0d689ad08be",
    (1000, 0.3): "f39ec344b483b1a9bd13478270220ac6af75900e1a9b2570f608892e910a4f0c",
    (1000, 1): "de99ff1b7b608ccbf6cab2b267c0ff79b5ee2105b024776c19c0e0cb4ea9f24a",
    (5000, 0): "df4456272990b7d177e5c329e6a2f90196b497e9fadbb11dbe67234e1391f415",
    (5000, 0.3): "2567f407fdc235af30191fe067bdfe68662445de4864cfba1e126f22281a1707",
    (5000, 1): "1c7b4f714163b2cda83ab98692e92fd7d9b30fa6298dc4b7c622bdbb2b6ce03d",
}


@pytest.mark.parametrize("n,p", sorted(GEN_DIGESTS))
def test_gen_random_graph_golden(n, p):
    rows = gen_random_graph(n, p, 1).rows
    assert hashlib.sha256(rows.tobytes()).hexdigest() == GEN_DIGESTS[n, p]


def test_gen_random_graph_traced_peak():
    """G(4096, 0.8) draws, packs and symmetrizes in 1 MB blocks: beyond
    its 2 MB of rows it traces a few MB.  Drawing the whole matrix at
    once traced 119 MB."""
    tracemalloc.start()
    try:
        gen_random_graph(4096, 0.8, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_block_size_does_not_change_results(monkeypatch):
    """Every blocked pass gives the same answer with 256-byte blocks."""
    n = 200
    g = gen_random_graph(n, 0.3, 6)
    edges = g.edge_array()
    mask = g.pack_vertex_mask(np.arange(0, n, 3))
    monkeypatch.setattr(graphs, "BLOCK_BYTES", 256)
    small = gen_random_graph(n, 0.3, 6)
    assert np.array_equal(small.rows, g.rows)
    small.validate()
    assert np.array_equal(small.degrees, g.degrees)
    assert np.array_equal(small.degrees_within(mask), g.degrees_within(mask))
    assert list(small.edges_iter()) == [tuple(e) for e in edges.tolist()]
    assert np.array_equal(small.common_neighbors(edges[:, 0], edges[:, 1]),
                          g.common_neighbors(edges[:, 0], edges[:, 1]))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 200),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([None, 256, 4096]))
def test_gen_random_graph_is_the_stream_definition(n, p, seed, block_bytes):
    """Every cell against the whole uint32 matrix drawn at once: the strict
    upper triangle thresholded, then mirrored.  Small blocks start rows
    on odd stream positions, where a block's first draw is the high half
    of the previous block's last word."""
    draws = np.random.default_rng(seed).integers(0, 2 ** 32, size=(n, n),
                                                 dtype=np.uint32)
    thresh = min(2 ** 32 - 1, round(p * 2 ** 32))
    want = np.triu(draws < thresh if p < 1 else np.ones((n, n), bool), 1)
    want |= want.T
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes is not None:
            mp.setattr(graphs, "BLOCK_BYTES", block_bytes)
        g = gen_random_graph(n, p, seed)
    bits = np.unpackbits(g.rows.view(np.uint8), axis=1, bitorder="little")
    assert np.array_equal(bits[:, :n], want)
    assert not bits[:, n:].any()


@pytest.mark.parametrize("n,u,v,message", [
    (128, 3, 70, "adjacency not symmetric"),    # inside a full 64x64 block
    (130, 5, 129, "adjacency not symmetric"),   # the last, partial block
    (130, 129, 5, "adjacency not symmetric"),
    (130, 7, 7, "self-loop at 7"),
])
def test_validate_rejects_bad_adjacency(n, u, v, message):
    rows = gen_random_graph(n, 0.3, 2).rows.copy()
    Graph(n, rows.copy()).validate()
    rows[u, v >> 6] ^= np.uint64(1) << np.uint64(v & 63)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Graph(n, rows).validate()


def test_common_neighbors_multi_block_bruteforce():
    g = gen_random_graph(1000, 0.04, 3)
    edges = g.edge_array()
    assert len(edges) > 2 * graphs._block(g.n_words, 8)
    adj = np.array([g.row_bool(v) for v in range(g.n)], dtype=np.float32)
    want = (adj @ adj)[edges[:, 0], edges[:, 1]]
    assert np.array_equal(g.common_neighbors(edges[:, 0], edges[:, 1]),
                          want.astype(np.int64))


def test_from_edges_round_trip():
    g = gen_random_graph(130, 0.3, 8)
    edges = g.edge_array()
    assert np.array_equal(Graph.from_edges(130, edges).rows, g.rows)
    both = np.concatenate([edges[::-1, ::-1], edges]).tolist()
    assert np.array_equal(Graph.from_edges(130, both).rows, g.rows)
    empty = Graph.from_edges(5, [])
    assert empty.n_edges == 0 and empty.rows.shape == (5, 1)
    assert np.array_equal(Graph.complete(130).rows,
                          gen_random_graph(130, 1.0, 0).rows)


@pytest.mark.parametrize("edges,message", [
    ([(0, 1), (2, 2), (9, 1)], "self-loop at 2"),
    ([(0, 1), (9, 1), (2, 2)], "edge (9,1) out of range for n=4"),
    ([(0, 1), (1, -1)], "edge (1,-1) out of range for n=4"),
    ([(4, 4)], "self-loop at 4"),
])
def test_from_edges_reports_first_bad_edge(edges, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Graph.from_edges(4, edges)
