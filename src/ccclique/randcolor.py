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
from .coloring import (Palettes, UNCOLORED, free_colors,
                       concentration_bound, log2n, palette_ranges)
from .detcolor import (det_list_color_n34, det_list_color_sqrt,
                       _central_phase)
from .errors import (AllocationOverflow, DegreeTooLarge, ParameterViolation,
                     PlanRejected)
from .graphs import Graph
from .runlog import RunLog
from .sim import Simulator


# ===================================================================== #
# one-shot coloring
# ===================================================================== #

def one_shot_coloring(sim: Simulator, graph: Graph, palettes: Palettes,
                      coloring: np.ndarray, p: float, iterations: int,
                      rng: np.random.Generator, log: RunLog,
                      vertices: np.ndarray | None = None) -> int:
    """Participate-with-probability-p rounds: participants pick a uniform
    free color and keep it unless a lower-id participating neighbor picked
    the same one.  One simulator round per iteration.
    """
    if p < 0 or p > 0.125:
        raise ParameterViolation("participation probability outside (0,1/8]")
    scope = np.arange(graph.n) if vertices is None else \
        np.asarray(vertices, dtype=np.int64)
    total = 0
    for _ in range(iterations):
        active = scope[coloring[scope] == UNCOLORED]
        if len(active) == 0 or p == 0:
            sim.ledger.advance(1)
            continue
        mask = rng.random(len(active)) < p
        parts = active[mask]
        chosen = np.zeros(len(parts), dtype=np.int64)
        ok = np.ones(len(parts), dtype=bool)
        for i, v in enumerate(parts):
            opts = free_colors(int(v), palettes, coloring, graph)
            if len(opts) == 0:
                ok[i] = False
                continue
            chosen[i] = int(opts[rng.integers(0, len(opts))])
        parts, chosen = parts[ok], chosen[ok]
        # keep unless a lower-id participant neighbor chose the same color
        keep = np.ones(len(parts), dtype=bool)
        if len(parts) > 1:
            sub, ids = graph.induced(parts)
            e = sub.edge_array()
            if len(e):
                lo, hi = e[:, 0], e[:, 1]  # ids[lo] < ids[hi]
                clash = chosen[lo] == chosen[hi]
                keep[hi[clash]] = False
        coloring[parts[keep]] = chosen[keep]
        total += int(keep.sum())
        if sim.config.debug_checks:
            from .coloring import assert_no_conflict
            assert_no_conflict(graph, coloring, "after one-shot round")
        # participants announce their pick to all graph neighbors
        srcs, dsts = [], []
        for v in parts:
            nbr = graph.neighbors(int(v))
            srcs.append(np.full(len(nbr), v))
            dsts.append(nbr)
        if srcs:
            sim.exchange_counts(np.concatenate(srcs), np.concatenate(dsts))
        else:
            sim.ledger.advance(1)
    return total


# ===================================================================== #
# density hierarchy
# ===================================================================== #

@dataclass
class HierBlock:
    level: int
    clique: int
    stratum: int
    members: np.ndarray
    large: bool = False
    parent: int | None = None  # index into EpsHierarchy.blocks


@dataclass
class EpsHierarchy:
    eps_seq: list[float]
    q: float
    delta: int
    layers: list[np.ndarray]          # V_1..V_ell
    v_sp: np.ndarray
    strata: list[list[int]]           # stratum -> layer indices (1-based)
    blocks: list[HierBlock]
    clique_of: list[dict[int, int]]   # per level: vertex -> clique label

    def superblocks(self, stratum: int) -> list[np.ndarray]:
        """Stratum members grouped by their top-layer clique."""
        layers = self.strata[stratum - 1]
        top = max(layers)
        groups: dict[int, list[int]] = {}
        for li in layers:
            for v in self.layers[li - 1]:
                lab = self.clique_of[top - 1].get(int(v))
                if lab is not None:
                    groups.setdefault(lab, []).append(int(v))
        return [np.array(sorted(g), dtype=np.int64)
                for _, g in sorted(groups.items())]


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
    """Classify uncolored vertices by density and build layers, strata,
    blocks and the block tree.

    Friendship between adjacent uncolored u, v at level i means
    |N(u) & N(v)| >= (1-eps_i)(Delta-q) in the full graph; density at
    level i needs (1-eps_i)(Delta-q) incident friend edges; cliques are
    connected components of the level's dense/friend subgraph (charged
    connectivity primitive per level).
    """
    n = graph.n
    delta = graph.max_degree if delta is None else delta
    if delta * delta > cfg.c_fit * sim.n:
        raise DegreeTooLarge(f"Delta={delta}: 2-neighborhoods too large")
    q = max(1, delta) ** 0.6
    eps_seq = eps_ladder(delta, cfg.big_k)
    ell = len(eps_seq)
    unc = np.sort(np.asarray(uncolored, dtype=np.int64))
    sub, ids = graph.induced(unc)
    e_local = sub.edge_array()
    edges = ids[e_local] if len(e_local) else np.zeros((0, 2), np.int64)
    with sim.stage("hierarchy:collect"):
        # 2-neighborhood collection: O(Delta) out, O(Delta^2) in per node
        sim.charge_route_counts(graph.degrees,
                                np.minimum(graph.degrees * delta, n))
    common = graph.common_neighbors(edges[:, 0], edges[:, 1]) \
        if len(edges) else np.zeros(0, dtype=np.int64)
    e_lo = np.searchsorted(unc, edges[:, 0]) if len(edges) else \
        np.zeros(0, dtype=np.int64)
    e_hi = np.searchsorted(unc, edges[:, 1]) if len(edges) else e_lo
    dense_prev = np.zeros(len(unc), dtype=bool)
    layers: list[np.ndarray] = []
    clique_of: list[dict[int, int]] = []
    for li, eps in enumerate(eps_seq, start=1):
        # degenerate degrees make the threshold vacuous; one real friend
        # is the least a dense vertex can have
        thr = max(1.0, friend_threshold(delta, q, eps))
        fmask = common >= thr if len(edges) else np.zeros(0, bool)
        fcount = np.zeros(len(unc), dtype=np.int64)
        if fmask.any():
            np.add.at(fcount, e_lo[fmask], 1)
            np.add.at(fcount, e_hi[fmask], 1)
        dense = fcount >= thr
        layers.append(unc[dense & ~dense_prev])
        # cliques: components of dense vertices under friend edges
        dset = unc[dense]
        dmask = np.zeros(n, dtype=bool)
        dmask[dset] = True
        if fmask.any():
            fe = edges[fmask]
            keep = dmask[fe[:, 0]] & dmask[fe[:, 1]]
            fe = fe[keep]
        else:
            fe = np.zeros((0, 2), np.int64)
        with sim.stage("hierarchy:components"):
            labels = sim.component_labels(fe, dset)
        clique_of.append({int(v): int(c) for v, c in zip(dset, labels)})
        dense_prev |= dense
    v_sp = unc[~dense_prev]
    strata = strata_of(eps_seq)
    stratum_of_layer = {}
    for k, ls in enumerate(strata, start=1):
        for li in ls:
            stratum_of_layer[li] = k
    # blocks: layer x clique, plus the ancestry tree
    blocks: list[HierBlock] = []
    block_index: dict[tuple[int, int], int] = {}
    for li in range(1, ell + 1):
        groups: dict[int, list[int]] = {}
        for v in layers[li - 1]:
            lab = clique_of[li - 1].get(int(v))
            if lab is not None:
                groups.setdefault(lab, []).append(int(v))
        for lab, mem in sorted(groups.items()):
            b = HierBlock(li, lab, stratum_of_layer[li],
                          np.array(sorted(mem), dtype=np.int64))
            block_index[(li, lab)] = len(blocks)
            blocks.append(b)
    for b in blocks:
        rep = int(b.members[0])
        for lj in range(b.level + 1, ell + 1):
            lab = clique_of[lj - 1].get(rep)
            if lab is None:
                continue
            key = (lj, lab)
            if key in block_index:
                b.parent = block_index[key]
                break
    # large flags, highest level first so ancestors are decided first
    xi = {k: eps_seq[ls[-1] - 1] for k, ls in enumerate(strata, start=1)}
    for b in sorted(blocks, key=lambda b: -b.level):
        x = xi[b.stratum]
        denom = math.log2(1.0 / x) ** 2 if 0 < x < 1 else 0.0
        thr = delta / denom if denom > 0 else float("inf")
        if len(b.members) >= thr:
            anc = b.parent
            has_large_anc = False
            while anc is not None:
                if blocks[anc].large:
                    has_large_anc = True
                    break
                anc = blocks[anc].parent
            b.large = not has_large_anc
    return EpsHierarchy(eps_seq, q, delta, layers, v_sp, strata, blocks,
                        clique_of)


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
    (a failed `dense-gather` entry); bidding and the cleanup color it.
    """
    blocks = [np.asarray(b, dtype=np.int64) for b in super_blocks if len(b)]
    if not blocks:
        return 0
    # gather feasibility: palettes + neighbor lists to each leader
    for b in blocks:
        words = 0
        for v in b:
            if coloring[int(v)] != UNCOLORED:
                continue
            words += palettes.size(int(v)) + graph.degree(int(v)) + 2
        if words > sim.n:
            log.record("dense-gather", False, words=words, n=sim.n)
            return 0
    with sim.stage("dense:gather"):
        sim.ledger.advance(2 * sim.config.lenzen_cost + 1)
    tentative: dict[int, int] = {}
    block_of: dict[int, int] = {}
    order_all: list[tuple] = []
    for bi, b in enumerate(blocks):
        members = [int(v) for v in b if coloring[int(v)] == UNCOLORED]
        if not members:
            continue
        bset = set(members)
        z_ex = None
        dvals = {}
        for v in members:
            nbr = graph.neighbors(v)
            unc_nbr = nbr[coloring[nbr] == UNCOLORED]
            ext = int(sum(1 for u in unc_nbr if int(u) not in bset))
            dvals[v] = ext
            excess = len(free_colors(v, palettes, coloring, graph)) \
                - len(unc_nbr)
            z_ex = excess if z_ex is None else min(z_ex, excess)
        z_ex = max(1, z_ex if z_ex is not None else 1)
        for v in members:
            block_of[v] = bi
            order_all.append((bi, dvals[v], v, dvals[v] / z_ex))
    # leader simulation: per block, by increasing (D_v, id)
    order_all.sort(key=lambda t: (t[0], t[1], t[2]))
    taken_in_block: dict[int, set] = {}
    for bi, _dv, v, _delta_v in order_all:
        opts = free_colors(v, palettes, coloring, graph)
        used = taken_in_block.setdefault(bi, set())
        avail = [c for c in opts.tolist() if c not in used]
        if not avail:
            continue
        c = avail[int(rng.integers(0, len(avail)))]
        tentative[v] = c
        used.add(c)
    # external conflicts: drop both endpoints
    committed = 0
    drop: set[int] = set()
    for v, c in tentative.items():
        for u in graph.neighbors(v):
            u = int(u)
            cu = tentative.get(u)
            if cu == c and block_of.get(u) != block_of.get(v):
                drop.add(v)
                drop.add(u)
    for v, c in tentative.items():
        if v not in drop:
            coloring[v] = c
            committed += 1
    if sim.config.debug_checks:
        from .coloring import assert_no_conflict
        assert_no_conflict(graph, coloring, "after dense step")
    return committed


# ===================================================================== #
# color bidding
# ===================================================================== #

def color_bidding(sim: Simulator, graph: Graph, palettes: Palettes,
                  coloring: np.ndarray, vertices: np.ndarray,
                  rank: dict[int, tuple], cfg: Config,
                  rng: np.random.Generator, log: RunLog,
                  C: float | None = None,
                  iterations: int | None = None) -> int:
    """Bid-for-colors rounds on an acyclically oriented uncolored set.

    rank gives the orientation: edges point to the smaller (layer, id)
    rank.  Each vertex samples each free color with probability C/(2 p_v),
    p_v = max(1, |free| - outdeg), and takes its smallest sampled color no
    out-neighbor sampled; properness follows from the orientation.
    """
    scope = np.asarray(vertices, dtype=np.int64)
    iterations = cfg.bidding_iters if iterations is None else iterations
    colored = 0
    for _ in range(iterations):
        active = scope[coloring[scope] == UNCOLORED]
        if len(active) == 0:
            break
        aset = {int(v) for v in active}
        free = {int(v): free_colors(int(v), palettes, coloring, graph)
                for v in active}
        out_nbrs = {}
        for v in active:
            v = int(v)
            nbr = [int(u) for u in graph.neighbors(v)
                   if int(u) in aset and rank[int(u)] < rank[v]]
            out_nbrs[v] = nbr
        p = {v: max(1, len(free[v]) - len(out_nbrs[v])) for v in
             (int(x) for x in active)}
        if C is None:
            worst = max((sum(1.0 / p[u] for u in out_nbrs[v])
                         for v in p), default=0.0)
            c_val = 1.0 if worst == 0 else min(1.0, 1.0 / worst)
        else:
            c_val = C
            for v in p:
                s = sum(1.0 / p[u] for u in out_nbrs[v])
                if s > 1.0 / c_val + 1e-12:
                    raise ParameterViolation(
                        f"bid constant: sum 1/p over out-nbrs of {v} > 1/C")
        samples: dict[int, np.ndarray] = {}
        words = np.zeros(graph.n, dtype=np.int64)
        for v in p:
            prob = min(1.0, c_val / (2.0 * p[v]))
            pick = free[v][rng.random(len(free[v])) < prob]
            samples[v] = pick
            words[v] = len(pick)
        # every vertex ships its sample set to in-neighbors
        out_counts = np.zeros(graph.n, dtype=np.int64)
        for v in p:
            indeg = sum(1 for u in graph.neighbors(v)
                        if int(u) in aset and rank[int(u)] > rank[v])
            out_counts[v] = words[v] * indeg
        with sim.stage("bidding"):
            sim.charge_route_counts(out_counts, out_counts)
        for v in p:
            forbidden = np.concatenate([samples[u] for u in out_nbrs[v]]) \
                if out_nbrs[v] else np.zeros(0, dtype=np.int64)
            mine = np.setdiff1d(samples[v], forbidden, assume_unique=False)
            if len(mine):
                coloring[v] = int(mine[0])
                colored += 1
        if sim.config.debug_checks:
            from .coloring import assert_no_conflict
            assert_no_conflict(graph, coloring, "after bidding round")
    return colored


# ===================================================================== #
# list coloring for Delta = O(sqrt(n)) with palette windows
# ===================================================================== #

def _fallback_list_color(sim: Simulator, graph: Graph, palettes: Palettes,
                         coloring: np.ndarray, vertices: np.ndarray,
                         cfg: Config, log: RunLog, reason: str) -> None:
    """Deterministic relief valve: derandomized list coloring when the
    degree regime allows it, charged central greedy otherwise."""
    log.note("fallback", reason=reason, size=len(vertices))
    active = vertices[coloring[vertices] == UNCOLORED]
    if len(active) == 0:
        return
    sub_deg = graph.degrees_within(graph.pack_vertex_mask(active),
                                   rows=active)
    dmax = int(sub_deg[active].max(initial=0))
    sizes_ok = bool((palettes.sizes(active) >= sub_deg[active] + 1).all())
    if sizes_ok and dmax * dmax <= cfg.c_fit * sim.n:
        det_list_color_sqrt(sim, graph, palettes, cfg, log,
                            vertices=active, coloring=coloring)
    elif sizes_ok and dmax ** 4 <= (cfg.c_fit * sim.n) ** 3:
        det_list_color_n34(sim, graph, palettes, cfg, log,
                           vertices=active, coloring=coloring)
    else:
        _central_phase(sim, graph, palettes, coloring, active, "fallback")


def clp_list_coloring(sim: Simulator, graph: Graph, palettes: Palettes,
                      cfg: Config, rng: np.random.Generator, log: RunLog,
                      vertices: np.ndarray | None = None,
                      coloring: np.ndarray | None = None) -> np.ndarray:
    """List coloring for Delta <= sqrt(c_fit n) with palettes allowed to
    range over [Delta - Delta^(3/5), Delta + 1].

    Pipeline: one-shot rounds, density hierarchy, small blocks stratum by
    stratum, large blocks (upper strata then stratum 1), bidding on the
    leftovers and sparse set, then a charged central cleanup.  Below
    delta_min the dense machinery is skipped entirely (fallback path).
    """
    n = graph.n
    if coloring is None:
        coloring = np.zeros(n, dtype=np.int64)
    scope = np.arange(n) if vertices is None else \
        np.asarray(vertices, dtype=np.int64)
    scope = scope[coloring[scope] == UNCOLORED]
    if len(scope) == 0:
        return coloring
    sub_deg = graph.degrees_within(graph.pack_vertex_mask(scope),
                                   rows=scope)
    delta = int(sub_deg[scope].max(initial=0))
    window_lo = delta - max(1, delta) ** 0.6
    for v in scope:
        r = palettes.size(int(v))
        if r < sub_deg[v] + 1:
            raise ParameterViolation(f"palette of {int(v)} below deg+1")
        if r < window_lo or r > delta + 1:
            raise ParameterViolation(
                f"palette size {r} outside window [{window_lo},{delta + 1}]")
    if delta < cfg.delta_min:
        _fallback_list_color(sim, graph, palettes, coloring, scope, cfg,
                             log, f"Delta={delta} below delta_min")
        return coloring
    if delta * delta > cfg.c_fit * sim.n:
        raise DegreeTooLarge(f"Delta={delta} above sqrt({cfg.c_fit}*n)")

    with sim.stage("clp:oneshot"):
        one_shot_coloring(sim, graph, palettes, coloring, 0.125,
                          cfg.one_shot_iters, rng, log, vertices=scope)
    unc = scope[coloring[scope] == UNCOLORED]
    if len(unc) == 0:
        return coloring
    with sim.stage("clp:hierarchy"):
        hier = compute_hierarchy(sim, graph, cfg, unc, delta=delta)
    # small blocks, stratum by stratum from the top; the working units are
    # super-blocks (stratum members grouped by their top-layer clique)
    with sim.stage("clp:dense-small"):
        for k in range(len(hier.strata), 0, -1):
            small_members = np.concatenate(
                [b.members for b in hier.blocks
                 if b.stratum == k and not b.large] or
                [np.zeros(0, dtype=np.int64)])
            sset = set(small_members.tolist())
            small = [np.array([v for v in sb if int(v) in sset],
                              dtype=np.int64)
                     for sb in hier.superblocks(k)]
            small = [m[coloring[m] == UNCOLORED] for m in small]
            small = [m for m in small if len(m)]
            for _ in range(cfg.dense_iters):
                if not small:
                    break
                dense_coloring_step(sim, graph, palettes, coloring, small,
                                    rng, log)
                small = [m[coloring[m] == UNCOLORED] for m in small]
                small = [m for m in small if len(m)]
    with sim.stage("clp:dense-large"):
        for k in range(len(hier.strata), 1, -1):
            large = [b.members for b in hier.blocks
                     if b.stratum == k and b.large]
            for _ in range(cfg.dense_iters):
                large = [m[coloring[m] == UNCOLORED] for m in large]
                large = [m for m in large if len(m)]
                if not large:
                    break
                dense_coloring_step(sim, graph, palettes, coloring, large,
                                    rng, log)
        large1 = [b.members for b in hier.blocks
                  if b.stratum == 1 and b.large]
        for _ in range(cfg.dense_iters):
            large1 = [m[coloring[m] == UNCOLORED] for m in large1]
            large1 = [m for m in large1 if len(m)]
            if not large1:
                break
            dense_coloring_step(sim, graph, palettes, coloring, large1,
                                rng, log)
    # leftovers and sparse vertices: bidding over the density orientation
    level_of: dict[int, int] = {}
    for li, layer in enumerate(hier.layers, start=1):
        for v in layer:
            level_of[int(v)] = li
    rest = scope[coloring[scope] == UNCOLORED]
    if len(rest):
        rank = {int(v): (level_of.get(int(v), len(hier.eps_seq) + 1),
                         int(v)) for v in rest}
        with sim.stage("clp:bidding"):
            color_bidding(sim, graph, palettes, coloring, rest, rank, cfg,
                          rng, log)
    # cleanup: constant-degree part plus remaining components, centrally
    rest = scope[coloring[scope] == UNCOLORED]
    if len(rest):
        with sim.stage("clp:cleanup"):
            _central_phase(sim, graph, palettes, coloring, rest,
                           "clp:cleanup")
    if cfg.debug_checks:
        from .coloring import assert_no_conflict
        assert_no_conflict(graph, coloring, "after clp")
    return coloring


# ===================================================================== #
# recursive degree reduction
# ===================================================================== #

@dataclass
class PartitionPlan:
    level: int
    y: int
    x: int
    delta_i: int
    q: int
    delta_small: float          # the paper's delta_i deviation parameter
    p_j: float
    p_star: float

    @staticmethod
    def make(delta_i: int, x: int, n: int, level: int = 0,
             y: int | None = None) -> "PartitionPlan":
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
        return PartitionPlan(level, y if y is not None else x.bit_length(),
                             x, delta_i, q, dsm, p_j, p_star)


def _split_labels(rng: np.random.Generator, size: int, p: float,
                  q: int) -> np.ndarray:
    """Part label per vertex: each part j < q with probability p, the
    left-over label q otherwise."""
    u = rng.random(size)
    return np.minimum(np.where(u < p * q, (u / p).astype(np.int64), q), q)


def _measured_split(sim: Simulator, graph: Graph, scope: np.ndarray,
                    labels, n_parts: int, lo: int, hi: int, cfg: Config,
                    stage: str, on_overflow):
    """Sample, measure, retry: split `scope` until the parts fit [lo, hi].

    Each attempt broadcasts a fresh seed (charged to `stage`), labels
    `scope` with `labels()` (label n_parts marks the left-over set) and
    measures each part's maximum degree; part j needs that degree + 1
    colors.  Returns (parts with the left-over last, contiguous ranges
    packed from lo) for the first draw that fits.  Each draw that does not
    fit calls on_overflow(attempt, need); after retry_budget + 1 of them
    AllocationOverflow is raised.
    """
    for attempt in range(cfg.retry_budget + 1):
        with sim.stage(stage):
            sim.broadcast_seed(sim.word_size)
        part = labels()
        parts = [scope[part == j] for j in range(n_parts + 1)]
        sizes = [graph.max_degree_within(m) + 1 for m in parts[:-1]]
        need = sum(sizes)
        if need <= hi - lo + 1:
            return parts, palette_ranges(lo, sizes)
        on_overflow(attempt, need)
    raise AllocationOverflow(
        f"sum of child palettes {need} exceeds {hi - lo + 1}")


def _color_parts(sim: Simulator, graph: Graph, parts: list[np.ndarray],
                 ranges: list[tuple[int, int]], cfg: Config,
                 rng: np.random.Generator, log: RunLog,
                 coloring: np.ndarray, depth: int) -> None:
    """Color vertex-disjoint parts as simultaneous recursive instances:
    part j from ranges[j], with its own seed from `rng` and an equal share
    of the budgets."""
    seeds = rng.integers(0, 2 ** 63 - 1, size=len(parts))
    child_cfg = cfg.split_budgets(sum(1 for m in parts if len(m)))
    sim.run_parallel([
        lambda m=m, lo=lo, hi=hi, s=int(s): recursive_coloring(
            sim, graph, m, lo, hi, child_cfg, np.random.default_rng(s), log,
            coloring=coloring, depth=depth)
        for m, (lo, hi), s in zip(parts, ranges, seeds) if len(m)])


def partition_step(sim: Simulator, graph: Graph, scope: np.ndarray,
                   palette_lo: int, palette_hi: int, x: int,
                   rng: np.random.Generator, cfg: Config, log: RunLog,
                   level: int = 0):
    """Randomly split `scope` into q parts plus a left-over set and
    allocate disjoint palette subranges sized by measured part degrees.

    Returns (plan, parts list with the left-over last, list of (lo, hi)
    child ranges aligned with the q parts).  Raises PlanRejected or
    AllocationOverflow (after retry_budget fresh draws).
    """
    delta_i = graph.max_degree_within(scope)
    plan = PartitionPlan.make(delta_i, x, graph.n, level=level)
    ones = np.ones(graph.n, dtype=np.int64)

    def labels():
        # measuring the parts' degrees costs one routing call per draw
        part = _split_labels(rng, len(scope), plan.p_j, plan.q)
        with sim.stage("partition:measure"):
            sim.charge_route_counts(ones, ones)
        return part

    parts, ranges = _measured_split(
        sim, graph, scope, labels, plan.q, palette_lo, palette_hi, cfg,
        "partition:sample",
        lambda attempt, need: log.record(
            "partition-allocation", False, attempt=attempt, need=need,
            available=palette_hi - palette_lo + 1))
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
                       coloring: np.ndarray | None = None,
                       depth: int = 0) -> np.ndarray:
    """Recursive degree reduction: partition, recurse on the parts
    simultaneously, then list-color the left-over set from leftover
    palettes.  Falls back to the deterministic colorers when a plan is
    rejected at this scale."""
    n = graph.n
    if coloring is None:
        coloring = np.zeros(n, dtype=np.int64)
    scope = np.asarray(scope, dtype=np.int64)
    scope = scope[coloring[scope] == UNCOLORED]
    if len(scope) == 0:
        return coloring
    delta = graph.max_degree_within(scope)
    if palette_hi - palette_lo + 1 < delta + 1:
        raise ParameterViolation("palette smaller than Delta+1")
    pal = Palettes.uniform_range(n, palette_lo,
                                 palette_lo + delta).restrict(scope)
    if delta * delta <= cfg.c_fit * sim.n and delta >= cfg.delta_min:
        clp_list_coloring(sim, graph, pal, cfg, rng, log, vertices=scope,
                          coloring=coloring)
        return coloring
    if delta < cfg.delta_min:
        _fallback_list_color(sim, graph, pal, coloring, scope, cfg, log,
                             f"Delta={delta} below delta_min")
        return coloring
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
            sim, graph, scope, palette_lo, palette_hi, x, rng, cfg, log,
            level=depth)
    except (PlanRejected, AllocationOverflow) as exc:
        _fallback_list_color(sim, graph, pal, coloring, scope, cfg, log,
                             f"partition rejected: {exc}")
        return coloring
    _color_parts(sim, graph, parts[:-1], ranges, cfg, rng, log, coloring,
                 depth + 1)
    # left-over set: free colors within the parent palette
    star = parts[-1]
    star = star[coloring[star] == UNCOLORED]
    if len(star) == 0:
        return coloring
    parent = Palettes.uniform_range(n, palette_lo, palette_hi)
    smask = graph.pack_vertex_mask(star)
    sdeg = graph.degrees_within(smask, rows=star)
    dstar = int(sdeg[star].max(initial=0))
    bound = concentration_bound(delta * plan.p_star, n)
    log.record("star-degree-concentration", dstar <= bound.high,
               dstar=dstar, high=bound.high)
    if dstar * dstar > cfg.c_fit * sim.n:
        # too dense for the window machinery at this scale; the greedy
        # fallback certifies the deg+1 free-color floor by completing
        log.record("palette-window", False, dstar=dstar,
                   reason="left-over degree above sqrt bound")
        _fallback_list_color(sim, graph, parent.restrict(star), coloring,
                             star, cfg, log,
                             f"left-over Delta*={dstar} above sqrt bound")
        return coloring
    window_lo = dstar - max(1, dstar) ** 0.6
    lists = {}
    window_ok = True
    for v in star:
        v = int(v)
        opts = free_colors(v, parent, coloring, graph)
        log.require("star-free-floor", len(opts) >= sdeg[v] + 1,
                    vertex=v, free=len(opts), need=int(sdeg[v]) + 1)
        if len(opts) < window_lo:
            window_ok = False
        lists[v] = opts[: dstar + 1]  # truncate to the window's upper end
    if not window_ok:
        log.record("palette-window", False, dstar=dstar)
        _fallback_list_color(sim, graph, Palettes.from_lists(n, lists),
                             coloring, star, cfg, log,
                             "left-over palette window unsatisfiable")
        return coloring
    spal = Palettes.from_lists(n, lists)
    clp_list_coloring(sim, graph, spal, cfg, rng, log, vertices=star,
                      coloring=coloring)
    return coloring


# ===================================================================== #
# top-level drivers
# ===================================================================== #

def _recurse_whole(sim: Simulator, graph: Graph, cfg: Config,
                   rng: np.random.Generator, log: RunLog,
                   coloring: np.ndarray, stage: str) -> None:
    """One recursive instance on the whole graph with colors 1..Delta+1."""
    with sim.stage(stage):
        recursive_coloring(sim, graph, np.arange(graph.n), 1,
                           graph.max_degree + 1, cfg, rng, log,
                           coloring=coloring)


def _split_and_recurse(sim: Simulator, graph: Graph, cfg: Config,
                       rng: np.random.Generator, log: RunLog,
                       coloring: np.ndarray, name: str, labels,
                       n_parts: int, budget: int) -> np.ndarray | None:
    """Split the whole graph by `labels` into n_parts parts plus a
    left-over set, then color the parts recursively from disjoint ranges
    of [1, budget].

    Seeds are charged to stage `name:sample`, overflowing draws are logged
    as `name-allocation` and the parts run under `name:parts`.  Returns
    the left-over set, or None when every draw overflowed: then the note
    `name-split-overflow` precedes one recursive instance on the whole
    graph under `name:recursive`.
    """
    try:
        parts, ranges = _measured_split(
            sim, graph, np.arange(graph.n), labels, n_parts, 1, budget, cfg,
            f"{name}:sample",
            lambda attempt, need: log.record(f"{name}-allocation", False,
                                             attempt=attempt))
    except AllocationOverflow:
        log.note(f"{name}-split-overflow")
        _recurse_whole(sim, graph, cfg, rng, log, coloring,
                       f"{name}:recursive")
        return None
    with sim.stage(f"{name}:parts"):
        _color_parts(sim, graph, parts[:-1], ranges, cfg, rng, log,
                     coloring, 0)
    return parts[-1]


def fast_coloring(sim: Simulator, graph: Graph, cfg: Config,
                  rng: np.random.Generator, log: RunLog) -> np.ndarray:
    """General (Delta+1) entry point: recursion below n/(10 log n), else a
    log-n-way split with recursion per part and a one-shot + central
    finish on the left-over."""
    n = graph.n
    delta = graph.max_degree
    coloring = np.zeros(n, dtype=np.int64)
    if delta == 0:
        coloring[:] = 1
        return coloring
    ell = math.ceil(5.0 * log2n(n))
    p = 1.0 / ell - 2.0 * math.sqrt(5.0 * log2n(n) / (delta * ell))
    p_star = 1.0 - ell * p
    split = delta > n / (10.0 * log2n(n))
    if split and (p <= 0.0 or not (0.0 < p_star < 1.0)):
        log.note("fast-split-degenerate", p=p, ell=ell)
        split = False
    if not split:
        _recurse_whole(sim, graph, cfg, rng, log, coloring, "fast:recursive")
        return coloring
    star = _split_and_recurse(sim, graph, cfg, rng, log, coloring, "fast",
                              lambda: _split_labels(rng, n, p, ell), ell,
                              delta + 1)
    if star is None:
        return coloring
    star = star[coloring[star] == UNCOLORED]
    if len(star):
        parent = Palettes.uniform_range(n, 1, delta + 1)
        iters = max(3, math.ceil(2.0 * math.log2(max(2.0, log2n(n)))))
        with sim.stage("fast:star-oneshot"):
            one_shot_coloring(sim, graph, parent, coloring, 0.125, iters,
                              rng, log, vertices=star)
        rest = star[coloring[star] == UNCOLORED]
        if len(rest):
            with sim.stage("fast:star-central"):
                _central_phase(sim, graph, parent, coloring, rest,
                               "fast:star-central")
    return coloring


def many_colors_coloring(sim: Simulator, graph: Graph, cfg: Config,
                         rng: np.random.Generator, log: RunLog,
                         eps: float) -> np.ndarray:
    """Coloring with budget Delta + Delta^(1/2+eps): uniform split into
    floor(Delta^eps) parts, then the recursive colorer per part."""
    if not (0.0 < eps < 1.0):
        raise ParameterViolation("eps must lie in (0,1)")
    n = graph.n
    delta = graph.max_degree
    coloring = np.zeros(n, dtype=np.int64)
    if delta == 0:
        coloring[:] = 1
        return coloring
    budget = delta + int(math.floor(delta ** (0.5 + eps)))
    k = max(1, int(math.floor(delta ** eps)))
    if k == 1:
        _recurse_whole(sim, graph, cfg, rng, log, coloring, "many:recursive")
        return coloring
    if _split_and_recurse(sim, graph, cfg, rng, log, coloring, "many",
                          lambda: rng.integers(0, k, size=n), k,
                          budget) is None:
        return coloring
    used = int(coloring.max())
    log.require("many-colors-budget", used <= budget, used=used,
                budget=budget)
    return coloring
