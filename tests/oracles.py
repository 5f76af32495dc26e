"""Exhaustive tiny-scale references for the derandomized machinery.

The deterministic colorers rest on the method of conditional
expectations.  These references check it where every seed can be
enumerated:

* `TableObjective` and `cond_exp_search`: an explicit value table over all
  2^L seeds and the offline chunked greedy search, which the distributed
  leader protocol (`derand.distributed_seed_agreement`) must match bit for
  bit; `make_corpus` draws random per-node tables for both.
* `hash_jointly_uniform`: d-wise joint uniformity of `HashFamily` by full
  enumeration of its seeds.
* `simple_rand_color_round` and `exhaustive_round_probability`: one
  abstain-or-pick round through the production choice map and commit rule
  (`detcolor._hash_choices`, `detcolor._commit_picks`), and the exact
  probability of an event after one ideal round.
* `find_conflict_scan`: the first monochromatic edge by a row-chunked
  scan of every colored row against its color's packed set, the
  reference for `coloring.find_conflict`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from ccclique.coloring import Palettes, UNCOLORED, free_sets
from ccclique.derand import HashFamily, Seed, _pick
from ccclique.detcolor import _commit_picks, _hash_choices
from ccclique.errors import ParameterViolation
from ccclique.graphs import Graph


class TableObjective:
    """Exact objective given by a value table over all 2^L seeds.

    Per-node decomposition is a dict of tables that sum to the total;
    values are integers so all conditional sums are exact.
    """

    def __init__(self, node_tables: dict[int, np.ndarray], seed_len: int):
        self.seed_len = seed_len
        size = 1 << seed_len
        self.node_tables = {int(v): np.asarray(t, dtype=np.int64)
                            for v, t in node_tables.items()}
        for t in self.node_tables.values():
            if len(t) != size:
                raise ValueError("table size must be 2^seed_len")
        self.total = np.zeros(size, dtype=np.int64)
        for t in self.node_tables.values():
            self.total += t
        self.committed = 0
        self.k = 0

    def eval_block(self, width: int) -> np.ndarray:
        """Conditional sums (exact, common denominator) per assignment."""
        folded = self.total.reshape(-1, 1 << (self.k + width)).sum(axis=0)
        return folded[self.committed + (np.arange(1 << width) << self.k)]

    def contributing_nodes(self) -> np.ndarray:
        """Sorted ids of the nodes that own a table."""
        return np.array(sorted(self.node_tables), dtype=np.int64)

    def commit(self, assignment: int, width: int) -> None:
        self.committed |= assignment << self.k
        self.k += width

    def exhaustive_mean(self) -> Fraction:
        return Fraction(int(self.total.sum()), 1 << self.seed_len)

    def value_of(self, seed_bits: int) -> int:
        return int(self.total[seed_bits])


def cond_exp_search(objective, seed_len: int, z: int,
                    minimize: bool = False) -> Seed:
    """Offline greedy chunked seed fixing; the result's objective value
    meets or beats the average over all seeds (exact conditional
    expectations)."""
    if z < 1:
        raise ValueError("chunk size must be >= 1")
    k = 0
    bits = 0
    while k < seed_len:
        width = min(z, seed_len - k)
        b = _pick(objective.eval_block(width), minimize)
        objective.commit(b, width)
        bits |= b << k
        k += width
    return Seed(bits)


def make_corpus(n_cases: int = 50, rng_seed: int = 12345):
    """Random per-node table objectives with seed_len <= 16, as
    (tables, seed_len, chunk width) triples."""
    rng = np.random.default_rng(rng_seed)
    corpus = []
    for _ in range(n_cases):
        length = int(rng.integers(2, 17))
        n_nodes = int(rng.integers(1, 5))
        tables = {v: rng.integers(0, 64, size=1 << length).astype(np.int64)
                  for v in range(n_nodes)}
        z = int(rng.integers(1, 5))
        corpus.append((tables, length, z))
    return corpus


def hash_jointly_uniform(gb: int, d: int) -> bool:
    """Whether HashFamily(gb, gb, d) maps every d distinct inputs to
    exactly jointly uniform outputs over all its seeds."""
    fam = HashFamily(gb, gb, d)
    n_seeds = 1 << fam.seed_len
    table = np.array([[fam.eval(s, x) for s in range(n_seeds)]
                      for x in range(1 << gb)], dtype=np.int64)
    want = n_seeds >> (gb * d)
    for xs in combinations(range(1 << gb), d):
        joint = {}
        for s in range(n_seeds):
            key = tuple(int(table[x, s]) for x in xs)
            joint[key] = joint.get(key, 0) + 1
        if len(joint) != 1 << (gb * d) or set(joint.values()) != {want}:
            return False
    return True


def simple_rand_color_round(graph: Graph, palettes: Palettes,
                            coloring: np.ndarray, source,
                            vertices: np.ndarray | None = None) -> int:
    """One abstain-or-pick round of the basic list colorer (no charges).

    `source` is either a numpy Generator (ideal randomness: abstain with
    probability 1/2, else a uniform free color) or a (family, seed_bits)
    pair deriving choices from hash outputs through the dyadic index map
    of the derandomized rounds.  A vertex keeps its pick unless an
    uncolored neighbor picked the same color (mutual drop).  Returns the
    number of vertices colored; mutates `coloring`.
    """
    scope = np.arange(graph.n) if vertices is None else \
        np.unique(np.asarray(vertices, dtype=np.int64))
    active = scope[coloring[scope] == UNCOLORED]
    if len(active) == 0:
        return 0
    free = free_sets(graph, palettes, coloring, active)
    fs = free.sizes
    if (fs == 0).any():
        raise ParameterViolation("active vertex with empty free palette")
    if isinstance(source, tuple):
        family, bits = source
        valid, idx = _hash_choices(
            family.eval_vec(bits, active.astype(np.uint64)), fs, 1)
    else:
        valid = source.random(len(active)) < 0.5
        idx = np.zeros(len(active), dtype=np.int64)
        for i in np.flatnonzero(valid):
            idx[i] = source.integers(0, int(fs[i]))
    edges = graph.edges_within(active)
    return _commit_picks(coloring, free, valid, idx,
                         *np.searchsorted(active, edges).T)


def exhaustive_round_probability(graph: Graph, palettes: Palettes,
                                 target) -> Fraction:
    """Probability of `target(coloring)` after one ideal abstain-or-pick
    round, by enumerating the product choice space exactly."""
    spaces = []
    for v in range(graph.n):
        opts = palettes.colors(v)
        # choice 0 = abstain (prob 1/2); each color (1/2)/F
        spaces.append([(0, Fraction(1, 2))] +
                      [(int(c), Fraction(1, 2 * len(opts))) for c in opts])
    total = Fraction(0)
    for combo in product(*spaces):
        prob = Fraction(1)
        for _, p in combo:
            prob *= p
        chosen = np.array([c for c, _ in combo], dtype=np.int64)
        keep = chosen.copy()
        for u, v in graph.edges_iter():
            if chosen[u] != 0 and chosen[u] == chosen[v]:
                keep[u] = keep[v] = 0
        if target(keep):
            total += prob
    return total


def find_conflict_scan(graph: Graph, coloring: np.ndarray):
    """First monochromatic edge (u, v) with u < v among colored vertices,
    or None, by scanning every colored row.

    Each color's vertices form one packed set; a colored row ANDed with
    its own color's set holds exactly its monochromatic neighbours.  The
    first row with a hit is u, and v is its lowest hit.
    """
    coloring = np.asarray(coloring)
    colored = np.flatnonzero(coloring != UNCOLORED)
    if len(colored) == 0:
        return None
    _, cid = np.unique(coloring[colored], return_inverse=True)
    cls = np.zeros((int(cid.max()) + 1, graph.n_words), dtype=np.uint64)
    np.bitwise_or.at(cls, (cid, colored >> 6),
                     np.uint64(1) << (colored & 63).astype(np.uint64))
    step = max(1, (1 << 18) // graph.n_words)
    for s in range(0, len(colored), step):
        hit = graph.rows[colored[s:s + step]] & cls[cid[s:s + step]]
        rows = np.flatnonzero(hit.any(axis=1))
        if len(rows):
            k = int(rows[0])
            w = int(np.flatnonzero(hit[k])[0])
            x = int(hit[k, w])
            return int(colored[s + k]), 64 * w + (x & -x).bit_length() - 1
    return None
