"""Randomized coloring pipelines: one-shot coloring, the density
hierarchy with leader-simulated dense steps, color bidding, list coloring
for degrees up to sqrt(c_fit*n), recursive degree reduction, and the
top-level drivers.

The partition formulas hold asymptotically; at desk scale every plan is
validated (probabilities in range, allocation fits the parent palette) and
invalid plans fall back to the deterministic list colorers rather than
divide by vanishing quantities.  Every failure path still ends in a proper
coloring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Config
from .coloring import (Palettes, UNCOLORED, assert_no_conflict,
                       concentration_bound, free_sets, log2n, palette_ranges)
from .detcolor import (det_list_color_n34, det_list_color_sqrt,
                       _central_phase)
from .errors import (AllocationOverflow, DegreeTooLarge, ParameterViolation,
                     PlanRejected)
from .graphs import Graph
from .runlog import RunLog
from .sim import Simulator

# The O(1)s the method leaves unspecified, fixed at their desk-scale values.
BIG_K = 100          # sparsity constant K: the eps ladder is capped at 1/K
ONE_SHOT_ITERS = 3   # the "O(1) iterations" of one-shot coloring in clp
DENSE_ITERS = 6      # dense-step applications per set of working units
BIDDING_ITERS = 6    # color-bidding iterations before the central cleanup
RETRY_BUDGET = 3     # fresh draws after the first for a split that overflows


# ===================================================================== #
# one-shot coloring
# ===================================================================== #

def one_shot_coloring(sim: Simulator, graph: Graph, palettes: Palettes,
                      coloring: np.ndarray, p: float, iterations: int,
                      rng: np.random.Generator,
                      vertices: np.ndarray | None = None) -> int:
    """Participate-with-probability-p rounds: participants pick a uniform
    free color and keep it unless a lower-id participating neighbor picked
    the same one.  One simulator round per iteration.
    """
    if p < 0 or p > 0.125:
        raise ParameterViolation("participation probability outside (0,1/8]")
    scope = np.arange(graph.n) if vertices is None else \
        np.unique(np.asarray(vertices, dtype=np.int64))
    everyone = graph.pack_vertex_mask(np.arange(graph.n))
    total = 0
    for _ in range(iterations):
        active = scope[coloring[scope] == UNCOLORED]
        if len(active) == 0 or p == 0:
            sim.exchange_counts([], [])  # the round passes idle
            continue
        parts = active[rng.random(len(active)) < p]
        free = free_sets(graph, palettes, coloring, parts)
        fs = free.sizes
        chosen = np.zeros(len(parts), dtype=np.int64)
        for i in np.flatnonzero(fs):
            chosen[i] = free.colors[free.ptr[i] + rng.integers(0, int(fs[i]))]
        parts, chosen = parts[fs > 0], chosen[fs > 0]
        # keep unless a lower-id participant neighbor chose the same color
        e = np.searchsorted(parts, graph.edges_within(parts))
        keep = np.ones(len(parts), dtype=bool)
        keep[e[chosen[e[:, 0]] == chosen[e[:, 1]], 1]] = False
        coloring[parts[keep]] = chosen[keep]
        total += int(keep.sum())
        if sim.config.debug_checks:
            assert_no_conflict(graph, coloring, "after one-shot round")
        # participants announce their pick to all graph neighbors
        i, w = graph.edges_into(parts, everyone)
        sim.exchange_counts(parts[i], w)
    return total


# ===================================================================== #
# density hierarchy
# ===================================================================== #

@dataclass
class EpsHierarchy:
    """The density hierarchy as arrays over the sorted uncolored set
    `vertices` (entry i describes vertices[i]).

    level: first dense level (1..ell), ell + 1 if sparse at every level.
    labels[l - 1]: clique at level l (its smallest member id), -1 where
    not dense.  A block is the vertices sharing a first level l and a
    level-l clique, ordered by (l, clique), members by id.  stratum: the
    block's stratum (0 if sparse).  large: the block has at least
    Delta / log2(1/xi_k)^2 members and no large ancestor.
    """
    strata: list[list[int]]           # stratum -> layer indices (1-based)
    vertices: np.ndarray
    level: np.ndarray
    labels: np.ndarray
    stratum: np.ndarray
    large: np.ndarray

    def superblocks(self, stratum: int) -> list[np.ndarray]:
        """Stratum members grouped by their top-layer clique."""
        lab = self.labels[max(self.strata[stratum - 1]) - 1]
        sel = (self.stratum == stratum) & (lab >= 0)
        return _runs(self.vertices[sel], lab[sel])

    def large_blocks(self, stratum: int) -> list[np.ndarray]:
        """Members of the stratum's large blocks, in block order."""
        i = np.flatnonzero(self.large & (self.stratum == stratum))
        lev = self.level[i]
        return _runs(self.vertices[i], self.labels[lev - 1, i], lev)


def _runs(vertices: np.ndarray, *keys: np.ndarray) -> list[np.ndarray]:
    """Split `vertices` into groups of equal keys, ordered by the keys
    (the last one primary) and within a group by id."""
    order = np.lexsort((vertices,) + keys)
    k = np.stack(keys)[:, order]
    cut = np.flatnonzero((k[:, 1:] != k[:, :-1]).any(axis=0)) + 1
    return [g for g in np.split(vertices[order], cut) if len(g)]


def eps_ladder(delta: int, big_k: int) -> list[float]:
    """Sparsity thresholds: Delta^(-1/10), then repeated square roots,
    capped at 1/K.  At desk scale the first value usually already exceeds
    1/K and the ladder has a single level."""
    e1 = max(1, delta) ** (-0.1)
    cap = 1.0 / big_k
    seq = [e1]
    while seq[-1] < cap:
        nxt = math.sqrt(seq[-1])
        if nxt >= cap:
            seq.append(cap)
            break
        seq.append(nxt)
    return seq


def strata_of(eps_seq: list[float]) -> list[list[int]]:
    """Group layer indices (1-based) by thresholds xi_1 = eps_1,
    xi_k = 1/log2(1/xi_{k-1}): stratum k holds layers with eps in
    (xi_{k-1}, xi_k].  Degenerate ladders collapse to few strata."""
    if not eps_seq:
        return []
    strata: list[list[int]] = [[1]]
    xi = eps_seq[0]
    i = 2
    while i <= len(eps_seq):
        xi = 1.0 / math.log2(1.0 / xi) if 0 < xi < 0.5 else 1.0
        group: list[int] = []
        while i <= len(eps_seq) and (eps_seq[i - 1] <= xi or xi >= 1.0):
            group.append(i)
            i += 1
        if not group:  # threshold failed to advance; force progress
            group.append(i)
            i += 1
        strata.append(group)
    return strata


def friend_threshold(delta: int, q: float, eps: float) -> float:
    return (1.0 - eps) * (delta - q)


def compute_hierarchy(sim: Simulator, graph: Graph, cfg: Config,
                      uncolored: np.ndarray,
                      delta: int | None = None) -> EpsHierarchy:
    """Classify uncolored vertices by density: each vertex's first dense
    level, its clique at every level, and its block's stratum and large
    flag (a block's parent, which decides the flag, is the block at the
    lowest higher level of its smallest member's clique).

    Friendship between adjacent uncolored u, v at level i means
    |N(u) & N(v)| >= (1-eps_i)(Delta-q) in the full graph; density at
    level i needs (1-eps_i)(Delta-q) incident friend edges; cliques are
    connected components of the level's dense/friend subgraph (charged
    connectivity primitive per level).
    """
    n = graph.n
    delta = graph.max_degree if delta is None else delta
    if not cfg.fits_sqrt(delta, sim.n):
        raise DegreeTooLarge(f"Delta={delta}: 2-neighborhoods too large")
    q = max(1, delta) ** 0.6
    eps_seq = eps_ladder(delta, BIG_K)
    ell = len(eps_seq)
    unc = np.sort(np.asarray(uncolored, dtype=np.int64))
    edges = graph.edges_within(unc)
    with sim.stage("hierarchy:collect"):
        # 2-neighborhood collection by the classified vertices: O(Delta)
        # out, O(Delta^2) in per node
        deg = np.zeros(n, dtype=np.int64)
        deg[unc] = graph.degrees[unc]
        sim.charge_route_counts(deg, np.minimum(deg * delta, n))
    common = graph.common_neighbors(edges[:, 0], edges[:, 1])
    e = np.searchsorted(unc, edges)
    level = np.full(len(unc), ell + 1, dtype=np.int64)
    labels = np.full((ell, len(unc)), -1, dtype=np.int64)
    for li, eps in enumerate(eps_seq, start=1):
        # degenerate degrees make the threshold vacuous; one real friend
        # is the least a dense vertex can have
        thr = max(1.0, friend_threshold(delta, q, eps))
        fe = e[common >= thr]
        dense = np.bincount(fe.ravel(), minlength=len(unc)) >= thr
        level[dense & (level > ell)] = li
        # cliques: components of dense vertices under friend edges
        fe = fe[dense[fe[:, 0]] & dense[fe[:, 1]]]
        with sim.stage("hierarchy:components"):
            labels[li - 1, dense] = sim.component_labels(unc[fe], unc[dense])
    strata = strata_of(eps_seq)
    stratum_of = np.zeros(ell + 2, dtype=np.int64)
    for k, ls in enumerate(strata, start=1):
        stratum_of[ls] = k
    # blocks: one per (first level, clique) pair, in that order; `first`
    # is each block's smallest member
    d = np.flatnonzero(level <= ell)
    keys, first, block = np.unique(level[d] * n + labels[level[d] - 1, d],
                                   return_index=True, return_inverse=True)
    b_level, rep = keys // n, d[first]
    size = np.bincount(block, minlength=len(keys))
    # parent: the block, at the lowest higher level, of the smallest
    # member's clique
    parent = np.full(len(keys), -1, dtype=np.int64)
    for lj in range(ell, 1, -1):
        lower = np.flatnonzero(b_level < lj)
        lab = labels[lj - 1, rep[lower]]
        j = np.minimum(np.searchsorted(keys, lj * n + lab), len(keys) - 1)
        hit = (lab >= 0) & (keys[j] == lj * n + lab)
        parent[lower[hit]] = j[hit]
    # large flags, highest level first: a large ancestor suppresses them
    large = np.zeros(len(keys), dtype=bool)
    covered = np.zeros(len(keys), dtype=bool)  # large, or under a large one
    for lj in range(ell, 0, -1):
        x = eps_seq[strata[stratum_of[lj] - 1][-1] - 1]
        thr = delta / math.log2(1.0 / x) ** 2 if 0 < x < 1 else math.inf
        b = np.flatnonzero(b_level == lj)
        anc = (parent[b] >= 0) & covered[parent[b]]
        large[b] = (size[b] >= thr) & ~anc
        covered[b] = large[b] | anc
    v_large = np.zeros(len(unc), dtype=bool)
    v_large[d] = large[block]
    # stratum_of[ell + 1] = 0 marks the sparse vertices
    return EpsHierarchy(strata, unc, level, labels,
                        stratum_of[level], v_large)


# ===================================================================== #
# dense coloring step
# ===================================================================== #

def dense_coloring_step(sim: Simulator, graph: Graph, palettes: Palettes,
                        coloring: np.ndarray, super_blocks: list[np.ndarray],
                        rng: np.random.Generator, log: RunLog) -> int:
    """One leader-simulated permutation coloring pass over super-blocks.

    Per block, members are ordered by increasing external degree (ties by
    id); each takes a uniform free color excluding lower-rank picks inside
    the block; a vertex keeps its color only if no vertex outside its
    block tentatively picked the same color on a shared edge.  A block
    whose leader gather would exceed n words makes the step color nothing
    (a `dense-gather` fallback); bidding and the cleanup color the units.
    """
    blocks = [np.asarray(b, dtype=np.int64) for b in super_blocks if len(b)]
    if not blocks:
        return 0
    blocks = [b[coloring[b] == UNCOLORED] for b in blocks]
    # gather feasibility: palettes + neighbor lists to each leader
    for b in blocks:
        words = int((palettes.sizes(b) + graph.degrees[b] + 2).sum())
        if words > sim.n:
            log.fallback("dense-gather", sum(len(u) for u in blocks),
                         words=words, n=sim.n)
            return 0
    with sim.stage("dense:gather"):
        sim.ledger.advance(2 * sim.config.lenzen_cost + 1)
    members = np.concatenate(blocks)
    block_of = np.full(graph.n, -1, dtype=np.int64)
    block_of[members] = np.repeat(np.arange(len(blocks)),
                                  [len(b) for b in blocks])
    # D_v: uncolored neighbours outside v's block
    i, w = graph.edges_into(members, graph.pack_vertex_mask(
        np.flatnonzero(coloring == UNCOLORED)))
    d_ext = np.bincount(i[block_of[w] != block_of[members[i]]],
                        minlength=len(members))
    # leader simulation: per block, by increasing (D_v, id), each takes a
    # uniform free color no earlier member of its block took
    free = free_sets(graph, palettes, coloring, members)
    tentative = np.zeros(graph.n, dtype=np.int64)
    taken_in_block: dict[int, set] = {}
    for r in np.lexsort((members, d_ext, block_of[members])).tolist():
        v = int(members[r])
        used = taken_in_block.setdefault(int(block_of[v]), set())
        avail = [c for c in free.colors[free.ptr[r]:free.ptr[r + 1]].tolist()
                 if c not in used]
        if not avail:
            continue
        c = avail[int(rng.integers(0, len(avail)))]
        tentative[v] = c
        used.add(c)
    # external conflicts: drop both endpoints
    picked = np.flatnonzero(tentative)
    e = graph.edges_within(picked)
    clash = (tentative[e[:, 0]] == tentative[e[:, 1]]) & \
        (block_of[e[:, 0]] != block_of[e[:, 1]])
    tentative[e[clash].ravel()] = UNCOLORED
    keep = np.flatnonzero(tentative)
    coloring[keep] = tentative[keep]
    if sim.config.debug_checks:
        assert_no_conflict(graph, coloring, "after dense step")
    return len(keep)


# ===================================================================== #
# color bidding
# ===================================================================== #

def color_bidding(sim: Simulator, graph: Graph, palettes: Palettes,
                  coloring: np.ndarray, vertices: np.ndarray,
                  rank: np.ndarray, rng: np.random.Generator,
                  C: float | None = None,
                  iterations: int = BIDDING_ITERS) -> int:
    """Bid-for-colors rounds on an acyclically oriented uncolored set.

    rank is an integer array indexed by vertex id; every edge points to
    its end with the smaller (rank, id).  Each vertex samples each free
    color with probability C/(2 p_v), p_v = max(1, |free| - outdeg), and
    takes its smallest sampled color no out-neighbor sampled; properness
    follows from the orientation.
    """
    scope = np.asarray(vertices, dtype=np.int64)
    pos = np.zeros(graph.n, dtype=np.int64)
    colored = 0
    for _ in range(iterations):
        active = scope[coloring[scope] == UNCOLORED]
        if len(active) == 0:
            break
        free = free_sets(graph, palettes, coloring, active)
        # out-edges (v, u): u is an active neighbour of v with a smaller
        # (rank, id), listed by v and then by id, so the float sums below
        # add in id order
        pos[active] = np.arange(len(active))
        a, b = graph.edges_within(active).T
        down = (rank[b] < rank[a]) | ((rank[b] == rank[a]) & (b < a))
        v_out = pos[np.where(down, a, b)]
        u_out = pos[np.where(down, b, a)]
        by_v = np.lexsort((active[u_out], v_out))
        v_out, u_out = v_out[by_v], u_out[by_v]
        p = np.maximum(1, free.sizes - np.bincount(v_out,
                                                   minlength=len(active)))
        load = np.bincount(v_out, weights=1.0 / p[u_out],
                           minlength=len(active))
        if C is None:
            worst = float(load.max())
            c_val = 1.0 if worst == 0 else min(1.0, 1.0 / worst)
        else:
            c_val = C
            over = np.flatnonzero(load > 1.0 / c_val + 1e-12)
            if len(over):
                raise ParameterViolation(
                    f"bid constant: sum 1/p over out-nbrs of "
                    f"{int(active[over[0]])} > 1/C")
        prob = np.minimum(1.0, c_val / (2.0 * p))
        samples = free.select(rng.random(len(free.colors)) < prob[free.owner])
        # every vertex ships its sample set to in-neighbors
        out_counts = np.zeros(graph.n, dtype=np.int64)
        out_counts[active] = samples.sizes * np.bincount(
            u_out, minlength=len(active))
        sim.charge_route_counts(out_counts, out_counts)
        # each vertex takes its smallest sampled color no out-neighbour
        # sampled
        j, k = samples.expand(u_out)
        span = int(samples.colors.max(initial=0)) + 1
        forbidden = v_out[j] * span + samples.colors[samples.ptr[u_out][j] + k]
        mine = samples.select(~np.isin(samples.owner * span + samples.colors,
                                       forbidden))
        won = np.flatnonzero(mine.sizes)
        coloring[active[won]] = mine.colors[mine.ptr[won]]
        colored += len(won)
        if sim.config.debug_checks:
            assert_no_conflict(graph, coloring, "after bidding round")
    return colored


# ===================================================================== #
# list coloring for Delta = O(sqrt(n)) with palette windows
# ===================================================================== #

def _fallback_list_color(sim: Simulator, graph: Graph, palettes: Palettes,
                         coloring: np.ndarray, vertices: np.ndarray,
                         dmax: int, cfg: Config, log: RunLog,
                         reason: str, **detail) -> None:
    """Deterministic relief valve for the uncolored, non-empty `vertices`
    of maximum degree `dmax` among themselves, logged as one `fallback`
    note: derandomized list coloring when that regime allows it, charged
    central greedy otherwise.  Every palette must hold deg+1 colors; the
    list colorers check that."""
    log.fallback(reason, len(vertices), **detail)
    if cfg.fits_sqrt(dmax, sim.n):
        det_list_color_sqrt(sim, graph, palettes, cfg, log, coloring,
                            vertices=vertices)
    elif cfg.fits_n34(dmax, sim.n):
        det_list_color_n34(sim, graph, palettes, cfg, log, coloring,
                           vertices=vertices)
    else:
        _central_phase(sim, graph, palettes, coloring, vertices, "fallback")


def clp_list_coloring(sim: Simulator, graph: Graph, palettes: Palettes,
                      cfg: Config, rng: np.random.Generator, log: RunLog,
                      coloring: np.ndarray,
                      vertices: np.ndarray | None = None) -> None:
    """List coloring for Delta <= sqrt(c_fit n) with palettes allowed to
    range over [Delta - Delta^(3/5), Delta + 1], in place in `coloring`.

    Pipeline: one-shot rounds, density hierarchy, small blocks stratum by
    stratum, large blocks (upper strata then stratum 1), bidding on the
    leftovers and sparse set, then a charged central cleanup.

    This is the one gate for the pipeline's scale preconditions: a palette
    below the window, or Delta below delta_min, hands the scope to the
    fallback colorers.  A palette below deg+1 or above Delta+1 raises
    ParameterViolation, and Delta above the sqrt bound DegreeTooLarge.
    """
    n = graph.n
    scope = np.arange(n) if vertices is None else \
        np.unique(np.asarray(vertices, dtype=np.int64))
    scope = scope[coloring[scope] == UNCOLORED]
    if len(scope) == 0:
        return
    sub_deg = graph.degrees_within(graph.pack_vertex_mask(scope),
                                   rows=scope)[scope]
    delta = int(sub_deg.max(initial=0))
    sizes = palettes.sizes(scope)
    short = np.flatnonzero(sizes < sub_deg + 1)
    if len(short):
        raise ParameterViolation(
            f"palette of {int(scope[short[0]])} below deg+1")
    if sizes.max() > delta + 1:
        raise ParameterViolation(
            f"palette size {int(sizes.max())} above Delta+1={delta + 1}")
    window_lo = delta - max(1, delta) ** 0.6
    narrow = (sizes < window_lo).any()
    if narrow or delta < cfg.delta_min:
        reason = "palette-window" if narrow else "delta-min"
        _fallback_list_color(sim, graph, palettes, coloring, scope, delta,
                             cfg, log, reason, delta=delta)
        return
    if not cfg.fits_sqrt(delta, sim.n):
        raise DegreeTooLarge(f"Delta={delta} above sqrt({cfg.c_fit}*n)")

    with sim.stage("clp:oneshot"):
        one_shot_coloring(sim, graph, palettes, coloring, 0.125,
                          ONE_SHOT_ITERS, rng, vertices=scope)
    unc = scope[coloring[scope] == UNCOLORED]
    if len(unc) == 0:
        return
    with sim.stage("clp:hierarchy"):
        hier = compute_hierarchy(sim, graph, cfg, unc, delta=delta)

    def dense_passes(units):
        """Up to DENSE_ITERS dense steps on the uncolored part of `units`,
        stopping once every unit is colored."""
        for _ in range(DENSE_ITERS):
            units = [m[coloring[m] == UNCOLORED] for m in units]
            units = [m for m in units if len(m)]
            if not units:
                return
            dense_coloring_step(sim, graph, palettes, coloring, units, rng,
                                log)

    # small blocks, stratum by stratum from the top; the working units are
    # super-blocks (stratum members grouped by their top-layer clique)
    small = np.zeros(n, dtype=bool)
    small[hier.vertices[~hier.large]] = True
    with sim.stage("clp:dense-small"):
        for k in range(len(hier.strata), 0, -1):
            dense_passes([sb[small[sb]] for sb in hier.superblocks(k)])
    # large blocks, upper strata first and stratum 1 last
    with sim.stage("clp:dense-large"):
        for k in range(len(hier.strata), 0, -1):
            dense_passes(hier.large_blocks(k))
    # leftovers and sparse vertices: bidding oriented by density level
    rest = scope[coloring[scope] == UNCOLORED]
    if len(rest):
        rank = np.zeros(n, dtype=np.int64)
        rank[hier.vertices] = hier.level
        with sim.stage("clp:bidding"):
            color_bidding(sim, graph, palettes, coloring, rest, rank, rng)
    # cleanup: constant-degree part plus remaining components, centrally
    rest = scope[coloring[scope] == UNCOLORED]
    if len(rest):
        _central_phase(sim, graph, palettes, coloring, rest, "clp:cleanup")
    if cfg.debug_checks:
        assert_no_conflict(graph, coloring, "after clp")


# ===================================================================== #
# recursive degree reduction
# ===================================================================== #

@dataclass
class PartitionPlan:
    q: int
    delta_small: float          # the paper's delta_i deviation parameter
    p_j: float
    p_star: float

    @staticmethod
    def make(delta_i: int, x: int, n: int) -> "PartitionPlan":
        """Partition parameters at one recursion level; raises
        PlanRejected when the probabilities leave (0,1) at this scale."""
        if x < 2:
            raise PlanRejected(f"x={x} below 2")
        q = math.ceil(delta_i ** (1.0 / (2 * x - 1)))
        if q < 2:
            raise PlanRejected(f"q={q} below 2")
        dsm = 2.0 * math.sqrt(5.0 * log2n(n)) * q ** 1.5 / math.sqrt(delta_i)
        p_j = 1.0 / q - dsm / (q * q)
        p_star = dsm / q
        if not (0.0 < p_star < 1.0):
            raise PlanRejected(f"p*={p_star:.4f} outside (0,1)")
        if p_j <= 0.0:
            raise PlanRejected(f"p_j={p_j:.4f} not positive")
        return PartitionPlan(q, dsm, p_j, p_star)


def _split_labels(rng: np.random.Generator, size: int, p: float,
                  q: int) -> np.ndarray:
    """Part label per vertex: each part j < q with probability p, the
    left-over label q otherwise."""
    u = rng.random(size)
    return np.minimum(np.where(u < p * q, (u / p).astype(np.int64), q), q)


def _measured_split(sim: Simulator, graph: Graph, scope: np.ndarray,
                    labels, n_parts: int, lo: int, hi: int, name: str,
                    log: RunLog):
    """Sample, measure, retry: split `scope` until the parts fit [lo, hi].

    Each attempt broadcasts a fresh seed (charged to `name:sample`),
    labels `scope` with `labels()` (label n_parts marks the left-over set)
    and measures each part's maximum degree; part j needs that degree + 1
    colors.  Returns (parts with the left-over last, contiguous ranges
    packed from lo) for the first draw that fits.  Each draw that does not
    fit is logged as `name-allocation` with its attempt, need and the
    available colors; after RETRY_BUDGET + 1 of them AllocationOverflow is
    raised.
    """
    available = hi - lo + 1
    for attempt in range(RETRY_BUDGET + 1):
        with sim.stage(f"{name}:sample"):
            sim.broadcast_seed(sim.word_size)
        part = labels()
        parts = [scope[part == j] for j in range(n_parts + 1)]
        sizes = [graph.max_degree_within(m) + 1 for m in parts[:-1]]
        need = sum(sizes)
        if need <= available:
            return parts, palette_ranges(lo, sizes)
        log.record(f"{name}-allocation", False, attempt=attempt, need=need,
                   available=available)
    raise AllocationOverflow(
        f"sum of child palettes {need} exceeds {available}")


def _color_parts(sim: Simulator, graph: Graph, parts: list[np.ndarray],
                 ranges: list[tuple[int, int]], cfg: Config,
                 rng: np.random.Generator, log: RunLog,
                 coloring: np.ndarray) -> None:
    """Color vertex-disjoint parts as simultaneous recursive instances:
    part j from ranges[j], with its own seed from `rng` and an equal share
    of the budgets."""
    seeds = rng.integers(0, 2 ** 63 - 1, size=len(parts))
    child_cfg = cfg.split_budgets(sum(1 for m in parts if len(m)))
    sim.run_parallel([
        lambda m=m, lo=lo, hi=hi, s=int(s): recursive_coloring(
            sim, graph, m, lo, hi, child_cfg, np.random.default_rng(s), log,
            coloring)
        for m, (lo, hi), s in zip(parts, ranges, seeds) if len(m)])


def partition_step(sim: Simulator, graph: Graph, scope: np.ndarray,
                   delta_i: int, palette_lo: int, palette_hi: int, x: int,
                   rng: np.random.Generator, log: RunLog):
    """Randomly split `scope`, whose maximum degree is delta_i, into q
    parts plus a left-over set and allocate disjoint palette subranges
    sized by measured part degrees.

    Returns (plan, parts list with the left-over last, list of (lo, hi)
    child ranges aligned with the q parts).  Raises PlanRejected or
    AllocationOverflow (after RETRY_BUDGET fresh draws).
    """
    plan = PartitionPlan.make(delta_i, x, graph.n)
    ones = np.ones(graph.n, dtype=np.int64)

    def labels():
        # measuring the parts' degrees costs one routing call per draw
        part = _split_labels(rng, len(scope), plan.p_j, plan.q)
        with sim.stage("partition:measure"):
            sim.charge_route_counts(ones, ones)
        return part

    parts, ranges = _measured_split(sim, graph, scope, labels, plan.q,
                                    palette_lo, palette_hi, "partition", log)
    last = ranges[-1][1]
    need = last - palette_lo + 1
    log.record("partition-lemma-budget", need <= delta_i, total=need,
               delta_i=delta_i)
    log.require("partition-ranges-disjoint", last <= palette_hi,
                last=last, hi=palette_hi)
    return plan, parts, ranges


def recursive_coloring(sim: Simulator, graph: Graph, scope: np.ndarray,
                       palette_lo: int, palette_hi: int, cfg: Config,
                       rng: np.random.Generator, log: RunLog,
                       coloring: np.ndarray) -> None:
    """Recursive degree reduction, in place in `coloring`: partition,
    recurse on the parts simultaneously, then list-color the left-over set
    from leftover palettes.  Falls back to the deterministic colorers when
    a plan is rejected or every split overflows at this scale."""
    n = graph.n
    scope = np.asarray(scope, dtype=np.int64)
    scope = scope[coloring[scope] == UNCOLORED]
    if len(scope) == 0:
        return
    delta = graph.max_degree_within(scope)
    if palette_hi - palette_lo + 1 < delta + 1:
        raise ParameterViolation("palette smaller than Delta+1")
    pal = Palettes.uniform_range(n, palette_lo,
                                 palette_lo + delta).restrict(scope)
    if delta < cfg.delta_min or cfg.fits_sqrt(delta, sim.n):
        clp_list_coloring(sim, graph, pal, cfg, rng, log, coloring,
                          vertices=scope)
        return
    # choose the recursion exponent: smallest y with Delta <= N^(1-1/2^(y+1))
    bigN = n / (5.0 * log2n(n))
    x = 2
    if bigN > 1 and delta < bigN:
        frac = math.log(delta) / math.log(bigN) if delta > 1 else 0.0
        if frac < 1.0:
            y = max(1, math.ceil(math.log2(1.0 / (1.0 - frac))) - 1)
            x = 2 ** max(1, y)
    x = max(2, x)
    try:
        plan, parts, ranges = partition_step(
            sim, graph, scope, delta, palette_lo, palette_hi, x, rng, log)
    except (PlanRejected, AllocationOverflow) as exc:
        reason = "plan-rejected" if isinstance(exc, PlanRejected) else \
            "split-overflow"
        _fallback_list_color(sim, graph, pal, coloring, scope, delta, cfg,
                             log, reason, cause=str(exc))
        return
    _color_parts(sim, graph, parts[:-1], ranges, cfg, rng, log, coloring)
    # left-over set: free colors within the parent palette
    star = parts[-1]
    star = star[coloring[star] == UNCOLORED]
    if len(star) == 0:
        return
    parent = Palettes.uniform_range(n, palette_lo, palette_hi)
    smask = graph.pack_vertex_mask(star)
    sdeg = graph.degrees_within(smask, rows=star)
    dstar = int(sdeg[star].max(initial=0))
    bound = concentration_bound(delta * plan.p_star, n)
    log.record("star-degree-concentration", dstar <= bound.high,
               dstar=dstar, high=bound.high)
    if not cfg.fits_sqrt(dstar, sim.n):
        # too dense for the window machinery at this scale: hand off before
        # the free lists are built, which on dense cells would hold on the
        # order of |star| * Delta* entries
        _fallback_list_color(sim, graph, parent.restrict(star), coloring,
                             star, dstar, cfg, log, "sqrt-bound",
                             delta=dstar)
        return
    free = free_sets(graph, parent, coloring, star)
    for v, f, need in zip(star.tolist(), free.sizes.tolist(),
                          (sdeg[star] + 1).tolist()):
        log.require("star-free-floor", f >= need, vertex=v, free=f,
                    need=need)
    # truncate each list to the window's upper end; clp checks its lower end
    spal = Palettes(n, sets=free.select(
        np.arange(len(free.colors)) - free.ptr[free.owner] <= dstar))
    clp_list_coloring(sim, graph, spal, cfg, rng, log, coloring,
                      vertices=star)


# ===================================================================== #
# top-level drivers
# ===================================================================== #

def _recurse_whole(sim: Simulator, graph: Graph, cfg: Config,
                   rng: np.random.Generator, log: RunLog,
                   coloring: np.ndarray, stage: str) -> None:
    """One recursive instance on the whole graph with colors 1..Delta+1."""
    with sim.stage(stage):
        recursive_coloring(sim, graph, np.arange(graph.n), 1,
                           graph.max_degree + 1, cfg, rng, log, coloring)


def _split_and_recurse(sim: Simulator, graph: Graph, cfg: Config,
                       rng: np.random.Generator, log: RunLog,
                       coloring: np.ndarray, name: str, labels,
                       n_parts: int, budget: int) -> np.ndarray | None:
    """Split the whole graph by `labels` into n_parts parts plus a
    left-over set, then color the parts recursively from disjoint ranges
    of [1, budget].

    Seeds are charged to stage `name:sample`, overflowing draws are logged
    as `name-allocation` and the parts run under `name:parts`.  Returns
    the left-over set, or None when every draw overflowed: then a
    `split-overflow` fallback precedes one recursive instance on the whole
    graph under `name:recursive`.
    """
    try:
        parts, ranges = _measured_split(
            sim, graph, np.arange(graph.n), labels, n_parts, 1, budget,
            name, log)
    except AllocationOverflow:
        log.fallback("split-overflow", graph.n)
        _recurse_whole(sim, graph, cfg, rng, log, coloring,
                       f"{name}:recursive")
        return None
    with sim.stage(f"{name}:parts"):
        _color_parts(sim, graph, parts[:-1], ranges, cfg, rng, log,
                     coloring)
    return parts[-1]


def fast_coloring(sim: Simulator, graph: Graph, cfg: Config,
                  rng: np.random.Generator, log: RunLog,
                  coloring: np.ndarray) -> None:
    """General (Delta+1) entry point: recursion below n/(10 log n), else a
    log-n-way split with recursion per part and a one-shot + central
    finish on the left-over."""
    n = graph.n
    delta = graph.max_degree
    ell = math.ceil(5.0 * log2n(n))
    p = 1.0 / ell - 2.0 * math.sqrt(5.0 * log2n(n) / (delta * ell))
    p_star = 1.0 - ell * p
    split = delta > n / (10.0 * log2n(n))
    if split and (p <= 0.0 or not (0.0 < p_star < 1.0)):
        log.fallback("plan-rejected", n, p=p, ell=ell)
        split = False
    if not split:
        _recurse_whole(sim, graph, cfg, rng, log, coloring, "fast:recursive")
        return
    star = _split_and_recurse(sim, graph, cfg, rng, log, coloring, "fast",
                              lambda: _split_labels(rng, n, p, ell), ell,
                              delta + 1)
    if star is None:
        return
    star = star[coloring[star] == UNCOLORED]
    if len(star):
        parent = Palettes.uniform_range(n, 1, delta + 1)
        iters = max(3, math.ceil(2.0 * math.log2(max(2.0, log2n(n)))))
        with sim.stage("fast:star-oneshot"):
            one_shot_coloring(sim, graph, parent, coloring, 0.125, iters,
                              rng, vertices=star)
        rest = star[coloring[star] == UNCOLORED]
        if len(rest):
            _central_phase(sim, graph, parent, coloring, rest,
                           "fast:star-central")


def many_colors_coloring(sim: Simulator, graph: Graph, cfg: Config,
                         rng: np.random.Generator, log: RunLog,
                         coloring: np.ndarray, eps: float) -> None:
    """Coloring with budget Delta + Delta^(1/2+eps), eps in (0, 1): uniform
    split into floor(Delta^eps) parts, then the recursive colorer per
    part."""
    n = graph.n
    delta = graph.max_degree
    budget = delta + int(math.floor(delta ** (0.5 + eps)))
    k = max(1, int(math.floor(delta ** eps)))
    if k == 1:
        _recurse_whole(sim, graph, cfg, rng, log, coloring, "many:recursive")
        return
    if _split_and_recurse(sim, graph, cfg, rng, log, coloring, "many",
                          lambda: rng.integers(0, k, size=n), k,
                          budget) is None:
        return
    used = int(coloring.max())
    log.require("many-colors-budget", used <= budget, used=used,
                budget=budget)
