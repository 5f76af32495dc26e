"""Deterministic coloring: quadratic-palette one-shot, derandomized list
coloring for moderate degrees, bin-based list coloring up to n^(3/4), and
the general-case capacity partition.

Derandomized steps share one pattern: a per-phase experiment whose random
choices are hash outputs of node ids, and a pessimistic success estimator
whose terms are affine events over seed bits, so conditional expectations
are exact (see derand.AffineObjective).  `_seed_round` builds the
estimator, agrees the seed through the leader protocol and evaluates the
hash; realized progress is asserted against the estimator's initial
expectation (the dominance the method guarantees).

Every deterministic list-coloring scope (`det`'s graph, its partition's
parts and left-over, every scope the randomized pipelines hand on) goes
through `det_list_color`, which picks the sqrt colorer, the n^(3/4) bin
colorer or, above both regimes, one charged central gather.

Both list colorers run the same phase loop, `_list_color_phases`; each
supplies only its phase body.  Three desk-scale escape hatches, all
charged honestly in the ledger:

* When the estimator would exceed the configured term budget, the phase is
  completed by a central greedy list-coloring instead (gather charged via
  the central-solve cost rule; a `host-budget` fallback note).  Greedy
  colors like this never violate a palette or an edge because every
  palette keeps deg+1 slack.
* When a phase's seed colors fewer than a quarter of its vertices (the
  power-of-two index map concedes up to half the participation mass), a
  charged central top-up colors the difference, so every seeded phase of
  either colorer colors at least a quarter of its vertices (the asserted
  `sqrt-quarter-progress` / `n34-quarter-progress`).
* After phase_bound(|scope|) full phases, whatever is left is colored
  centrally (the termination guard).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .coloring import (FreeSets, Palettes, UNCOLORED, free_sets,
                       greedy_list_color, palette_ranges)
from .derand import (AffineObjective, HashFamily, chunk_bits,
                     distributed_seed_agreement, owns_leaders)
from .errors import DegreeTooLarge, NoZeroViolationSeed, ParameterViolation
from .gf2 import EchelonTemplate, column_masks_vec
from .graphs import Graph
from .sim import Simulator

D_INDEPENDENCE = 4  # hash independence order at the "O(1)-wise" sites


def phase_bound(n: int) -> int:
    """Hard cap on list-coloring phases: ceil(log_{4/3} n)."""
    return max(1, math.ceil(math.log(max(2, n)) / math.log(4.0 / 3.0)))


def _ceil_div_pow2(num: int, shift: int) -> int:
    return -((-num) >> shift)


def _common_colors(free: FreeSets, iu: np.ndarray, iv: np.ndarray):
    """Colors shared by rows iu[e] and iv[e] of `free`, for every e.

    Returns (e, ku, kv): one entry per shared color in ascending color
    order per e, with the color's index ku in row iu[e] and kv in row
    iv[e]."""
    e, ku = free.expand(iu)
    color = free.colors[free.ptr[iu][e] + ku]
    span = int(free.colors.max(initial=0)) + 1
    keys = free.owner * span + free.colors  # ascending
    want = iv[e] * span + color
    # want is empty whenever keys is, so the clamp never indexes keys[-1]
    # of an empty array
    at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    hit = keys[at] == want
    return e[hit], ku[hit], at[hit] - free.ptr[iv[e[hit]]]


def _bit_length(x: np.ndarray) -> np.ndarray:
    """int.bit_length of each non-negative int64 below 2^53."""
    return np.frexp(np.asarray(x, dtype=np.float64))[1].astype(np.int64)


def _commit_picks(coloring: np.ndarray, free: FreeSets, valid: np.ndarray,
                  idx: np.ndarray, iu: np.ndarray, iv: np.ndarray) -> int:
    """Row i picks entry idx[i] of its free list where valid[i]; both ends
    of an edge (iu[e], iv[e]) that picked the same color drop their pick,
    and the other picks are colored.  Returns how many were."""
    chosen = np.zeros(len(valid), dtype=np.int64)
    chosen[valid] = free.colors[free.ptr[:-1][valid] + idx[valid]]
    clash = valid[iu] & valid[iv] & (chosen[iu] == chosen[iv])
    keep = valid.copy()
    keep[iu[clash]] = False
    keep[iv[clash]] = False
    coloring[free.vertices[keep]] = chosen[keep]
    return int(keep.sum())


def _rows_block(masks: np.ndarray, li: np.ndarray, lo: np.ndarray,
                hi: np.ndarray, head: int = 0) -> np.ndarray:
    """One mask system per entry: row b is masks[li, b] when b < head or
    lo <= b < hi, and zero (a row that constrains nothing) otherwise, so
    the kept rows stay in ascending-b order."""
    b = np.arange(masks.shape[1])
    keep = (b < head) | ((b >= lo[:, None]) & (b < hi[:, None]))
    return np.where(keep, masks[li], np.uint64(0))


def _add_term_groups(obj: AffineObjective, *groups) -> None:
    """Add every group's terms to `obj` through one EchelonTemplate, in
    group order.  A group is (masks, systems, nodes, coefs, rhs_bits) with
    its own system ids; narrower systems pad with zero columns, rows that
    constrain nothing."""
    masks, systems, nodes, coefs, rhs = zip(*groups)
    offsets = np.cumsum([0] + [len(m) for m in masks])
    rows = np.zeros((offsets[-1], max(m.shape[1] for m in masks)),
                    dtype=np.uint64)
    for m, off in zip(masks, offsets):
        rows[off: off + len(m), : m.shape[1]] = m

    def cat(col, dtype):
        return np.concatenate([np.asarray(x, dtype=dtype) for x in col])

    obj.add_terms(
        EchelonTemplate(rows),
        cat([s + off for s, off in zip(systems, offsets)], np.int64),
        cat(nodes, np.int64), cat(coefs, np.int64), cat(rhs, np.uint64))


def _central_phase(sim: Simulator, graph: Graph, palettes: Palettes,
                   coloring: np.ndarray, vertices: np.ndarray,
                   stage: str, deg_sub: np.ndarray | None = None) -> int:
    """Charged central greedy list-coloring of `vertices`.

    Cost model: the subgraph's edges plus one palette of deg_sub+1 words
    per vertex are gathered to a leader, solved, and scattered back.
    `deg_sub`, when the caller has it, is the degree of each of
    `vertices` within `vertices` (indexed by vertex id); otherwise it is
    counted here.
    """
    if len(vertices) == 0:
        return 0
    if deg_sub is None:
        deg_sub = graph.degrees_among(vertices)
    m_sub = int(deg_sub[vertices].sum()) // 2
    payload = int(deg_sub[vertices].sum()) + len(vertices)
    with sim.stage(stage):
        return sim.central_solve_counts(
            m_sub, payload,
            lambda: greedy_list_color(graph, palettes, coloring, vertices))


def _announce(sim: Simulator, edges: np.ndarray) -> None:
    """One round in which both ends of every edge message each other; an
    empty edge set still costs the round."""
    sim.exchange_counts(edges.ravel(), edges[:, ::-1].ravel())


def _charge_edge_words(sim: Simulator, stage: str, edges: np.ndarray,
                       words: np.ndarray) -> None:
    """Charge to `stage` one routing call in which both ends of every edge
    send the other words[end] words; free when there is no edge."""
    if len(edges) == 0:
        return
    ends = edges.ravel()
    sent = np.bincount(ends, words[ends], len(words)).astype(np.int64)
    got = np.bincount(edges[:, ::-1].ravel(), words[ends],
                      len(words)).astype(np.int64)
    with sim.stage(stage):
        sim.charge_route_counts(sent, got)


def _seed_round(sim: Simulator, family: HashFamily, ids: np.ndarray,
                groups: list, stage: str, instance_id: int = 0,
                minimize: bool = False):
    """One derandomized hash-seeded round.

    Builds the estimator from the term `groups` (see _add_term_groups),
    agrees a seed on it through the leader protocol under `stage`, and
    returns (the hash outputs of `ids` under that seed, the estimator's
    exact initial expectation numerator, the frozen estimator).  The
    chunk width depends only on n, the seed length and the instance
    (derand.chunk_bits); no host cost estimate narrows it."""
    obj = AffineObjective(family.seed_len)
    if groups:
        _add_term_groups(obj, *groups)
    obj.freeze()
    exp0 = obj.expectation_num()
    z = chunk_bits(sim.n, family.seed_len, instance_id)
    seed = distributed_seed_agreement(sim, obj, family.seed_len, z,
                                      minimize=minimize,
                                      instance_id=instance_id,
                                      stage_name=stage)
    return family.eval_vec(seed.bits, ids.astype(np.uint64)), exp0, obj


# ===================================================================== #
# the list-coloring phase loop (shared by sqrt and n^(3/4))
# ===================================================================== #

def _list_scope(graph: Graph, palettes: Palettes, vertices: np.ndarray | None,
                deg: np.ndarray | None = None):
    """The one gate into list coloring (clp's and both derandomized
    colorers): returns (sorted scope, each scope vertex's degree within
    the scope indexed by vertex id, the scope's maximum degree).  The
    degrees are `deg` when the caller measured them (read only at the
    scope's vertices), `graph.degrees` for the whole graph (`vertices`
    None), else counted here.  Every palette needs deg+1 colors: the
    first short vertex in the caller's order is named in the
    ParameterViolation.  The regime is det_list_color's to pick."""
    scope = np.arange(graph.n) if vertices is None else \
        np.asarray(vertices, dtype=np.int64)
    if deg is None:
        deg = graph.degrees if vertices is None else graph.degrees_among(scope)
    short = scope[palettes.sizes(scope) < deg[scope] + 1]
    if len(short):
        raise ParameterViolation(f"palette of {int(short[0])} below deg+1")
    return np.unique(scope), deg, int(deg[scope].max(initial=0))


def _list_color_phases(sim: Simulator, graph: Graph, palettes: Palettes,
                       coloring: np.ndarray, scope: np.ndarray,
                       scope_deg: np.ndarray, prefix: str, scale_where: str,
                       phase) -> int:
    """Color the uncolored vertices of `scope` phase by phase; returns the
    number of full phases.  `scope_deg` is `_list_scope`'s degree array:
    while no scope vertex is colored, the active set is the scope and its
    degrees are not counted again.

    `phase(edges, free)` runs the seeded round of a phase on the active
    vertices (`free.vertices`), the edges among them and their free
    colors, and returns how many vertices it colored, or the
    (reason, where) of the `fallback` note that hands the phase to a
    central solve: `host-budget` when its estimator would exceed the term
    budget, `no-candidates` when no vertex kept a candidate color.  A
    phase also completes centrally (`host-budget`, where `scale_where`)
    when the active subgraph alone, 2m + 2|active| terms, exceeds the
    budget.  Central phases charge `{prefix}:central`.  A seeded phase
    that colors fewer than a quarter of its active vertices is topped up
    centrally (`{prefix}:topup`), and `{prefix}-quarter-progress` asserts
    the quarter.  After phase_bound(|scope|) full phases the rest is
    colored centrally under `{prefix}:guard`."""
    log = sim.log
    cap = phase_bound(len(scope))
    phases = 0
    while True:
        active = scope[coloring[scope] == UNCOLORED]
        if len(active) == 0:
            break
        if phases >= cap:  # unconditional termination guard
            _central_phase(sim, graph, palettes, coloring, active,
                           f"{prefix}:guard")
            break
        phases += 1
        deg_act = scope_deg if len(active) == len(scope) else \
            graph.degrees_among(active)
        # the degree sum is 2m
        if int(deg_act[active].sum()) + 2 * len(active) > \
                sim.config.term_budget:
            colored = ("host-budget", scale_where)
        else:
            colored = phase(graph.edges_within(active),
                            free_sets(graph, palettes, coloring, active))
        if isinstance(colored, tuple):
            _central_phase(sim, graph, palettes, coloring, active,
                           f"{prefix}:central", deg_act)
            reason, where = colored
            log.fallback(reason, len(active), where=where, phase=phases)
            continue
        need = -(-len(active) // 4)
        if colored < need:
            still = active[coloring[active] == UNCOLORED]
            _central_phase(sim, graph, palettes, coloring,
                           still[: need - colored], f"{prefix}:topup")
            log.note("phase-topup", phase=phases, shortfall=need - colored)
        done = int((coloring[active] != UNCOLORED).sum())
        log.require(f"{prefix}-quarter-progress", done >= need,
                    phase=phases, colored=done, need=need)
    log.require(f"{prefix}-phase-cap", phases <= cap, phases=phases, cap=cap)
    return phases


# ===================================================================== #
# derandomized one-round list coloring step (shared by sqrt and n^(3/4))
# ===================================================================== #

@dataclass
class RoundOutcome:
    colored: int


def _estimate_terms(sizes: np.ndarray, edges: np.ndarray,
                    n_vertices: int) -> int:
    """Upper bound on a seed round's terms: two per vertex, plus 2 * sum
    over edges of the smaller palette size."""
    return 2 * (n_vertices + int(np.minimum(sizes[edges[:, 0]],
                                            sizes[edges[:, 1]]).sum()))


def _hash_choices(ys: np.ndarray, fs: np.ndarray,
                  part_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The choice map of a hashed abstain-or-pick round: a vertex with
    free-list size F and hash output y participates when the low
    part_bits bits of y are zero, and picks the index in the next
    ceil(log2 F) bits; an index >= F abstains.  Returns (valid, idx)."""
    idx = (ys >> np.uint64(part_bits)).astype(np.int64) & \
        ((1 << _bit_length(fs - 1)) - 1)
    return ((ys & np.uint64((1 << part_bits) - 1)) == 0) & (idx < fs), idx


def derand_color_round(sim: Simulator, graph: Graph, coloring: np.ndarray,
                       free: FreeSets, edges: np.ndarray,
                       part_bits: int = 1, instance_id: int = 0,
                       stage: str = "seed-round") -> RoundOutcome:
    """One derandomized abstain-or-pick round on the vertices of `free`.

    Choice map: hash output bits [0, part_bits) must all be zero to
    participate (probability 2^-part_bits); the next ceil(log2 F_v) bits
    index the free list, indices >= F_v abstain.  The estimator
      sum_v [participates and index valid]
        - sum_{(u,v) edge} sum_{c common} [c_u = c] * [c_v = c] * 2
    lower-bounds the colored count pointwise; every term is affine.
    """
    active = free.vertices
    fs = free.sizes
    if (fs == 0).any():
        raise ParameterViolation("active vertex with empty free palette")
    bvs = _bit_length(fs - 1)
    beta = part_bits + int(bvs.max(initial=0))
    gamma = max(1, (max(2, graph.n) - 1).bit_length())
    family = HashFamily(gamma, beta, 2)
    masks = family.bit_masks_vec(active.astype(np.uint64))
    # single terms: one dyadic block [prefix, prefix + 2^t) of the index
    # range [0, F_v) per set bit t of F_v; the system is v's participation
    # rows plus its index rows t..bv-1, pinned to the prefix's bits
    li, t = np.nonzero((fs[:, None] >> np.arange(beta - part_bits + 1)) & 1)
    prefix = (fs[li] >> (t + 1)) << (t + 1)
    singles = (_rows_block(masks, li, part_bits + t, part_bits + bvs[li],
                           head=part_bits),
               np.arange(len(li)), active[li],
               np.ones(len(li), dtype=np.int64), prefix << part_bits)
    # pair terms: one system per edge (u's rows, then v's at bit beta),
    # one term per common color and endpoint
    iu, iv = np.searchsorted(active, edges).T
    e, ku, kv = _common_colors(free, iu, iv)
    sys_e, system = np.unique(e, return_inverse=True)
    su, sv = iu[sys_e], iv[sys_e]
    zero = np.zeros(len(sys_e), dtype=np.int64)
    rhs = (ku << part_bits) | (kv << (part_bits + beta))
    pairs = (np.concatenate([_rows_block(masks, s, zero, part_bits + bvs[s])
                             for s in (su, sv)], axis=1),
             np.concatenate([system, system]),
             np.concatenate([active[iu[e]], active[iv[e]]]),
             np.full(2 * len(e), -1), np.concatenate([rhs, rhs]))
    ys, exp0, obj = _seed_round(sim, family, active, [singles, pairs],
                                stage, instance_id)
    bound = _ceil_div_pow2(exp0, obj.denom_log2)
    # apply the agreed seed
    valid, idx = _hash_choices(ys, fs, part_bits)
    colored = _commit_picks(coloring, free, valid, idx, iu, iv)
    # winners announce their color along graph edges
    _announce(sim, edges)
    sim.log.require("seed-round-dominance", colored >= bound,
                    colored=colored, bound=bound, terms=obj.n_terms)
    return RoundOutcome(colored)


# ===================================================================== #
# list coloring for degrees up to sqrt(c_fit * n)
# ===================================================================== #

def det_list_color_sqrt(sim: Simulator, graph: Graph, palettes: Palettes,
                        coloring: np.ndarray,
                        vertices: np.ndarray | None = None,
                        instance_id: int = 0,
                        deg: np.ndarray | None = None) -> int:
    """Derandomized list coloring for Delta <= sqrt(c_fit * n), in place
    in `coloring`; `deg` as in _list_scope, `instance_id` its seed instance.

    Every phase colors at least ceil(uncolored / 4) vertices: the seed
    round guarantees its exact estimator expectation, and a charged
    central top-up covers any shortfall against the quarter bound.
    Returns the number of phases.
    """
    scope, scope_deg, dmax = _list_scope(graph, palettes, vertices, deg)
    if not sim.config.fits_sqrt(dmax, sim.n):
        raise DegreeTooLarge(f"Delta={dmax} too large for sqrt regime")
    if len(scope) == 0:
        return 0

    def phase(edges, free):
        active = free.vertices
        pal_sizes = np.zeros(graph.n, dtype=np.int64)
        pal_sizes[active] = palettes.sizes(active)
        if _estimate_terms(pal_sizes, edges, len(active)) > \
                sim.config.term_budget:
            return "host-budget", "sqrt"
        # palette exchange: every active vertex ships its free list to its
        # active neighbors
        sizes = np.zeros(graph.n, dtype=np.int64)
        sizes[active] = free.sizes
        _charge_edge_words(sim, "sqrt:palettes", edges, sizes)
        return derand_color_round(sim, graph, coloring, free, edges,
                                  part_bits=1, instance_id=instance_id,
                                  stage="sqrt:seed").colored

    return _list_color_phases(sim, graph, palettes, coloring, scope,
                              scope_deg, "sqrt", "sqrt", phase)


# ===================================================================== #
# quadratic-palette coloring
# ===================================================================== #

def det_delta_sq(sim: Simulator, graph: Graph, coloring: np.ndarray) -> None:
    """Deterministic coloring with at most max(Delta, 2)^2 colors, in
    place in `coloring`; logs a `detsq-info` note.

    When Delta^2 >= n, node ids are already a valid coloring (zero
    rounds).  Otherwise one hash-seeded pick-a-color round is
    derandomized by minimizing the exact expected conflict count,
    repeated on the shrinking conflict set until at most n/Delta vertices
    remain, which are then solved centrally.
    """
    n = graph.n
    delta = graph.max_degree
    de = max(2, delta)
    budget = de * de
    palettes = Palettes.uniform_range(n, 1, budget)
    allowed = n // de  # uncolored-after-seed must not exceed n/Delta
    active = np.arange(0)  # only the seeded regime runs seed rounds
    rounds = 0
    if budget >= n:
        coloring[:] = np.arange(1, n + 1)
    elif delta <= 4:
        # tiny-degree regime: the dyadic color space cannot certify the
        # n/Delta remainder bound, so solve centrally (zero left uncolored)
        _central_phase(sim, graph, palettes, coloring, np.arange(n),
                       "deltasq:tiny")
    else:
        active = np.arange(n)
        beta = int(math.floor(math.log2(budget)))
        family = HashFamily(max(1, (n - 1).bit_length()), beta, 2)
    while len(active) > allowed:
        rounds += 1
        edges = graph.edges_within(active)
        groups = []
        if len(edges):
            # h(u) xor h(v) = c1 * (u xor v): an edge conflicts iff the low
            # beta bits of that product are zero, a parity system on c1
            xors = (edges[:, 0] ^ edges[:, 1]).astype(np.uint64)
            ws, counts = np.unique(xors, return_counts=True)
            wmasks = column_masks_vec(ws, family.k)[:, :beta] \
                << np.uint64(family.k)
            groups.append((wmasks, np.arange(len(ws)),
                           (ws % np.uint64(n)).astype(np.int64), 2 * counts,
                           np.zeros(len(ws), dtype=np.uint64)))
        if rounds > 1:
            # taken colors: one term per (active vertex, neighbor color)
            at, nbr = graph.edges_into(active, graph.pack_vertex_mask(
                np.flatnonzero(coloring != UNCOLORED)))
            span = int(coloring.max()) + 1
            pairs = np.unique(at * span + coloring[nbr])
            owner, taken = pairs // span, pairs % span
            rows, system = np.unique(owner, return_inverse=True)
            amask = family.bit_masks_vec(active[rows].astype(np.uint64))
            groups.append((amask, system, active[owner],
                           np.ones(len(pairs), dtype=np.int64),
                           (taken - 1) & ((1 << beta) - 1)))
        ys, exp0, obj = _seed_round(sim, family, active, groups,
                                    "deltasq:seed", minimize=True)
        bad = np.zeros(len(active), dtype=bool)
        ends = np.searchsorted(active, edges)
        bad[ends[ys[ends[:, 0]] == ys[ends[:, 1]]].ravel()] = True
        if rounds > 1:
            bad[at[coloring[nbr] == ys[at].astype(np.int64) + 1]] = True
        coloring[active[~bad]] = ys[~bad].astype(np.int64) + 1
        _announce(sim, edges)
        remaining = active[bad]
        x_bound = exp0 >> obj.denom_log2  # floor of the minimized estimator
        sim.log.require("deltasq-dominance",
                        len(remaining) <= max(x_bound, 0), round=rounds,
                        remaining=len(remaining), bound=x_bound)
        active = remaining
    sim.log.require("deltasq-remainder", len(active) <= allowed,
                    uncolored=len(active), allowed=allowed)
    _central_phase(sim, graph, palettes, coloring, active,
                   "deltasq:remainder")
    sim.log.note("detsq-info", budget=budget,
                 uncolored_after_seed=len(active), seed_rounds=rounds)


# ===================================================================== #
# bin-based list coloring for degrees up to (c_fit * n)^(3/4)
# ===================================================================== #

@dataclass
class BinLayout:
    n_bins: int
    width: int
    small_cap: float  # bins at or below this size are "small"
    base: int = 1     # first color of the palette span

    def bin_of(self, colors: np.ndarray) -> np.ndarray:
        return (colors - self.base) // self.width


def bin_layout(delta: int, span_lo: int = 1,
               span_hi: int | None = None) -> BinLayout:
    """Delta^(1/3) bins of width ceil((Delta+1)/Delta^(1/3)), anchored at
    the palette span (extra bins cover wider list-palette spans)."""
    de = max(1, delta)
    base_bins = max(1, math.ceil(de ** (1.0 / 3.0)))
    width = -(-(de + 1) // base_bins)
    span_hi = span_lo + de if span_hi is None else span_hi
    n_bins = max(base_bins, -(-(span_hi - span_lo + 1) // width))
    return BinLayout(n_bins, width, de ** (1.0 / 12.0), span_lo)


def required_independence(mu: float, bin_size: float, n: int,
                          max_c: int = 64) -> int:
    """Smallest even moment order c with ((c*mu+c^2)/B^2)^c <= n^-10."""
    target = -10.0 * math.log(max(2, n))
    for c in range(2, max_c + 1, 2):
        val = (c * mu + c * c) / max(bin_size * bin_size, 1e-300)
        if val < 1 and c * math.log(val) <= target:
            return c
    return max_c


@dataclass
class PhaseState:
    branch: str                      # "A0" or "A1"
    a0: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    aprime: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    s_sets: FreeSets | None = None   # candidate sets S(u) of aprime


def classify_and_bin(sim: Simulator, graph: Graph, free: FreeSets,
                     layout: BinLayout, edges: np.ndarray,
                     instance_id: int = 0) -> PhaseState | None:
    """Phase step 1: pick candidate color sets S(u) for the vertices of
    `free`.

    Nodes with a tenth of their free mass in small bins take the union of
    their small bins deterministically; otherwise a bin choice is
    derandomized to maximize a pessimistic happy count (few same-bin
    competitors).  Returns None when the estimator would exceed the term
    budget (caller completes the phase centrally).
    """
    active = free.vertices
    owner = free.owner
    color_bin = layout.bin_of(free.colors)
    sizes = np.bincount(owner * layout.n_bins + color_bin,
                        minlength=len(active) * layout.n_bins) \
        .reshape(len(active), layout.n_bins)
    fs = free.sizes
    small = sizes <= layout.small_cap
    in_a0 = 10 * (sizes * small).sum(axis=1) >= fs
    a0, a1 = active[in_a0], active[~in_a0]

    if len(a0) >= len(a1):
        return PhaseState("A0", a0=a0, aprime=a0,
                          s_sets=free.select(small[owner, color_bin],
                                             keep_rows=in_a0))

    # A1 branch: derandomized bin choice.  Each bin gets one power-of-two
    # cell of the hash value's low bits (roughly half its ideal mass), so
    # every bin-choice event is a single aligned block and pair events
    # stay one term per (edge, bin).
    sizes, fs = sizes[~in_a0], fs[~in_a0]
    e_a1 = edges[np.isin(edges, a1).all(axis=1)]
    iu, iv = np.searchsorted(a1, e_a1).T
    bb = np.maximum(1, _bit_length(fs - 1))
    maxbb = int(bb.max(initial=1))
    scale = 12
    # cell_t: per-bin log2 cell width (-1 for no cell, which implies an
    # empty bin); cells are laid out widest first (stable), so each
    # offset is aligned to its width
    ideal = (sizes << bb[:, None]) // fs[:, None]
    cell_t = np.where(ideal >= 1, _bit_length(ideal) - 1, -1)
    widths = np.where(cell_t >= 0, 1 << np.maximum(cell_t, 0), 0)
    order = np.argsort(-cell_t, axis=1, kind="stable")
    placed = np.take_along_axis(widths, order, axis=1)
    cell_off = np.empty_like(widths)
    np.put_along_axis(cell_off, order, np.cumsum(placed, axis=1) - placed,
                      axis=1)
    wmat = widths << (maxbb - bb)[:, None]
    mu_mat = np.zeros_like(wmat)
    np.add.at(mu_mat, iu, wmat[iv])
    np.add.at(mu_mat, iv, wmat[iu])
    nzb = wmat > 0
    est_terms = int(nzb.sum()) + 2 * int((nzb[iu] & nzb[iv]).sum())
    if est_terms > sim.config.term_budget:
        return None

    gamma = max(1, (graph.n - 1).bit_length())
    family = HashFamily(gamma, maxbb, D_INDEPENDENCE)
    if family.seed_len > 64:
        return None
    masks = family.bit_masks_vec(a1.astype(np.uint64))

    def cells(li, bins):
        """Mask systems and packed rhs of the cell events [y in the
        cell of bin bins[j]] of vertex li[j]: hash bits t..bb-1 equal the
        cell offset's."""
        t = cell_t[li, bins]
        return (_rows_block(masks, li, t, bb[li]),
                cell_off[li, bins] & ((1 << bb[li]) - (1 << t)))

    # single terms: large bins with few expected competitors
    li, bins = np.nonzero((cell_t >= 0) & (sizes > layout.small_cap)
                          & (10 * sizes * (1 << maxbb) > mu_mat))
    system_masks, rhs = cells(li, bins)
    singles = (system_masks, np.arange(len(li)), a1[li],
               np.full(len(li), 1 << scale), rhs)
    # pair terms: both endpoints of an edge pick the same bin; one system
    # per (edge, cell widths), u's rows then v's at bit maxbb
    pe, bins = np.nonzero((cell_t[iu] >= 0) & (cell_t[iv] >= 0))
    mu, rhs_u = cells(iu[pe], bins)
    mv, rhs_v = cells(iv[pe], bins)
    key = (pe * (maxbb + 1) + cell_t[iu[pe], bins]) * (maxbb + 1) \
        + cell_t[iv[pe], bins]
    _, first, system = np.unique(key, return_index=True,
                                 return_inverse=True)
    rhs = rhs_u | (rhs_v << maxbb)
    cu = -(-(1 << scale) // (10 * sizes[iu[pe], bins]))
    cv = -(-(1 << scale) // (10 * sizes[iv[pe], bins]))
    pairs = (np.concatenate([mu, mv], axis=1)[first],
             np.concatenate([system, system]),
             np.concatenate([a1[iu[pe]], a1[iv[pe]]]),
             np.concatenate([-cu, -cv]), np.concatenate([rhs, rhs]))
    ys, exp0, obj = _seed_round(sim, family, a1, [singles, pairs],
                                "n34:bins", instance_id)
    happy_bound = _ceil_div_pow2(exp0, obj.denom_log2 + scale)
    y = (ys.astype(np.int64) & ((1 << bb) - 1))[:, None]
    hit = (cell_t >= 0) & (cell_off <= y) & (y < cell_off + widths)
    chosen = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    # competitor counts per chosen bin
    same = (chosen[iu] >= 0) & (chosen[iu] == chosen[iv])
    r = np.bincount(np.concatenate([iu[same], iv[same]]),
                    minlength=len(a1))
    size_chosen = np.where(chosen >= 0,
                           sizes[np.arange(len(a1)), chosen], 0)
    happy = (chosen >= 0) & (size_chosen > 0) & (r <= 11 * size_chosen)
    n_happy = int(happy.sum())
    sim.log.require("bin-happy-dominance", n_happy >= happy_bound,
                    happy=n_happy, bound=happy_bound)
    sim.log.record("bin-happy-half", 2 * n_happy >= len(a1),
                   happy=n_happy, a1=len(a1))
    # S(u) of a happy vertex: its free colors in the chosen bin
    pick = np.full(len(active), -1)
    pick[~in_a0] = np.where(happy, chosen, -1)
    return PhaseState("A1", a0=a0, aprime=a1[happy],
                      s_sets=free.select(color_bin == pick[owner],
                                         keep_rows=pick >= 0))


def det_list_color_n34(sim: Simulator, graph: Graph, palettes: Palettes,
                       coloring: np.ndarray,
                       vertices: np.ndarray | None = None,
                       instance_id: int = 0,
                       deg: np.ndarray | None = None) -> int:
    """Bin-based deterministic list coloring for Delta <= (c_fit n)^(3/4),
    in place in `coloring`; `deg` as in _list_scope.

    Each phase narrows palettes to candidate sets S(u) (classify_and_bin)
    and derandomizes one low-participation pick round on them; phases that
    exceed the estimator budget complete centrally, and a charged central
    top-up keeps every seeded phase at a quarter of its vertices.
    Returns the number of phases.
    """
    n, log = graph.n, sim.log
    scope, scope_deg, dmax = _list_scope(graph, palettes, vertices, deg)
    if not sim.config.fits_n34(dmax, sim.n):
        raise DegreeTooLarge(f"Delta={dmax} too large for n^(3/4) regime")
    if len(scope) == 0:
        return 0
    layout = bin_layout(dmax, *palettes.span(scope))
    need_c = required_independence(dmax / max(1, layout.n_bins),
                                   max(layout.small_cap, 1.0), n)
    if need_c > D_INDEPENDENCE:
        log.note("independence-order", required=need_c,
                 configured=D_INDEPENDENCE)

    def phase(edges, free):
        # bin statistics exchange: n_bins words per neighbor
        _charge_edge_words(sim, "n34:stats", edges,
                           np.full(n, layout.n_bins))
        state = classify_and_bin(sim, graph, free, layout, edges,
                                 instance_id=instance_id)
        if state is None:
            return "host-budget", "n34"
        s_len = state.s_sets.sizes
        if state.branch == "A0":
            g_a0 = graph.degrees_among(state.a0)[state.aprime]
            for v, s, g in zip(state.aprime.tolist(), s_len.tolist(),
                               g_a0.tolist()):
                log.require("a0-small-bin-mass", 10 * s >= g,
                            vertex=v, s=s, nbrs=g)
        sfree = state.s_sets.select(keep_rows=s_len > 0)
        sel = sfree.vertices
        if len(sel) == 0:
            return "no-candidates", "n34"
        both = edges[np.isin(edges, sel).all(axis=1)]
        # relevant edges: endpoints share a candidate color
        shared, _, _ = _common_colors(sfree, *np.searchsorted(sel, both).T)
        rel_edges = both[np.unique(shared)]
        # ship S(u) to relevant neighbors
        s_sizes = np.zeros(n, dtype=np.int64)
        s_sizes[sel] = sfree.sizes
        _charge_edge_words(sim, "n34:ssets", rel_edges, s_sizes)
        if _estimate_terms(s_sizes, rel_edges, len(sel)) > \
                sim.config.term_budget:
            return "host-budget", "n34-step2"
        return derand_color_round(sim, graph, coloring, sfree, rel_edges,
                                  part_bits=5, instance_id=instance_id,
                                  stage="n34:seed").colored

    return _list_color_phases(sim, graph, palettes, coloring, scope,
                              scope_deg, "n34", "n34-scale", phase)


# ===================================================================== #
# general-case partition and the regime dispatch
# ===================================================================== #

@dataclass
class GeneralPartitionPlan:
    ell: int
    q: float
    p_i: float
    cap_parts: int        # per-part degree cap floor(Delta^{3/4}), exact
    cap_star: float       # left-over degree target Delta^{11/16}

    @staticmethod
    def from_delta(delta: int) -> "GeneralPartitionPlan":
        ell = max(2, math.ceil(delta ** 0.25))
        q = 2.0 * delta ** (-5.0 / 16.0)
        return GeneralPartitionPlan(ell, q, (1.0 - q) / ell,
                                    math.isqrt(math.isqrt(delta ** 3)),
                                    delta ** (11.0 / 16.0))


def _capacity_split(sim: Simulator, graph: Graph, ell: int,
                    cap_sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic partition with per-part degree caps.

    cap_sizes[i] colors are reserved for part i with sum(cap_sizes) =
    Delta+1, so part i must satisfy deg_i(v) <= cap_sizes[i]-1.  Local
    moves that strictly decrease sum_v deg_part(v)/cap_sizes[part] always
    exist while violations remain, so the repair loop terminates.  Charges
    one routing call of deg(v) words per vertex under `partition:split`
    and logs a `capacity-split` note.  Returns (part, d) as int64: row
    d[i] is every vertex's degree into part i, which the repair loop keeps
    exact.

    The loop moves the first vertex with negative slack (its cap minus
    its degree into its own part) to the part of least degree/cap_size,
    the first on a tie.  Each move costs a few numpy calls on narrow
    arrays: d and slack are int32, and member[k] is part k's membership
    as int8 0/1, so moving v from i to j adds (member[i] - member[j]) *
    row(v) to slack.
    """
    n = graph.n
    caps = cap_sizes - 1
    part = np.arange(n, dtype=np.int64) % ell
    d = np.zeros((ell, n), dtype=np.int32)
    for i in range(ell):
        d[i] = graph.degrees_within(
            graph.pack_vertex_mask(np.nonzero(part == i)[0]))
    slack = (caps[part] - d[part, np.arange(n)]).astype(np.int32)
    member = (part == np.arange(ell)[:, None]).astype(np.int8)
    weights = (1.0 / cap_sizes.astype(np.float64)).tolist()
    caps = caps.tolist()
    limit = 50 * graph.n_edges + 10 * n + 100
    neg = np.empty(n, dtype=bool)
    shift = np.empty(n, dtype=np.int8)
    moves = 0
    while True:
        np.less(slack, 0, out=neg)
        v = int(neg.argmax())
        if not neg[v]:
            break
        scores = [x * w for x, w in zip(d[:, v].tolist(), weights)]
        j = scores.index(min(scores))
        i = int(part[v])
        if scores[j] >= scores[i]:
            raise AssertionError("capacity split: no improving move")
        row = graph.row_bool(v).view(np.int8)
        d[i] -= row
        d[j] += row
        np.subtract(member[i], member[j], out=shift)
        shift *= row
        slack += shift
        member[i, v], member[j, v] = 0, 1
        part[v] = j
        slack[v] = caps[j] - d[j, v]
        moves += 1
        if moves > limit:
            raise AssertionError("capacity split did not converge")
    sim.log.note("capacity-split", moves=moves)
    with sim.stage("partition:split"):
        sim.charge_route_counts(graph.degrees, graph.degrees)
    return part, d.astype(np.int64)


def det_partition_general(sim: Simulator, graph: Graph,
                          plan: GeneralPartitionPlan):
    """Partition a high-degree graph by `plan` into ell parts plus a
    left-over, all within per-part degree caps, consuming at most Delta+1
    colors total.

    The seeded route requires the expected number of cap violations under
    the hash family to be below one (then some seed is violation-free and
    a bounded deterministic scan finds it).  At desk scale that premise
    fails, raising NoZeroViolationSeed; the caller falls back to the
    capacity split.  Each trial charges one `partition:probe` block (the
    seed broadcast and one routing call).  Returns (part array with ell =
    G*, palette size per part index, degs): degs[i] is part i's degree
    array and degs[ell] the left-over's, each indexed by vertex id.
    """
    n = graph.n
    delta = graph.max_degree
    if sim.config.fits_n34(delta, n):
        raise ParameterViolation("partition reserved for Delta > (c n)^3/4")
    if plan.p_i <= 0 or plan.q >= 0.5:
        raise NoZeroViolationSeed(
            f"degenerate plan (q={plan.q:.3f}) at Delta={delta}")
    # feasibility of the seeded route: pairwise-variance tail bound
    mu = graph.degrees.astype(np.float64) * plan.p_i
    t = plan.cap_parts - mu
    var = graph.degrees * plan.p_i * (1 - plan.p_i)
    with np.errstate(divide="ignore", invalid="ignore"):
        pbad = np.where(t > 0, np.minimum(1.0, var / np.maximum(t, 1e-12) ** 2), 1.0)
    expected_bad = float(pbad.sum()) * plan.ell
    if expected_bad < 1.0:
        bits_res = 16
        gamma = max(1, (n - 1).bit_length())
        family = HashFamily(gamma, bits_res, D_INDEPENDENCE)
        widths = np.full(plan.ell, int(plan.p_i * (1 << bits_res)),
                         dtype=np.int64)
        cum = np.concatenate([[0], np.cumsum(widths)])
        for trial in range(64):
            seed_bits = (trial * 0x9E3779B97F4A7C15) & \
                ((1 << family.seed_len) - 1)
            ys = family.eval_vec(seed_bits, np.arange(n, dtype=np.uint64))
            part = np.searchsorted(cum, ys.astype(np.int64),
                                   side="right") - 1
            part = np.minimum(part, plan.ell)  # tail cells -> G*
            part[part < 0] = plan.ell
            degs = [graph.degrees_among(np.nonzero(part == i)[0])
                    for i in range(plan.ell)]
            dmax = [int(d.max()) for d in degs]
            ok = max(dmax) <= plan.cap_parts
            if ok:  # the left-over is measured only when the parts pass
                degs.append(graph.degrees_among(
                    np.nonzero(part == plan.ell)[0]))
                ok = degs[-1].max() <= plan.cap_star
            with sim.stage("partition:probe"):
                sim.broadcast_seed(family.seed_len)
                sim.charge_route_counts(np.ones(n, dtype=np.int64),
                                        np.ones(n, dtype=np.int64))
            if ok:
                sim.log.note("partition-seeded", trial=trial)
                sizes = [d + 1 for d in dmax]
                sim.log.require("partition-budget", sum(sizes) <= delta + 1,
                                total=sum(sizes), parent=delta + 1)
                return part, sizes, degs
        raise NoZeroViolationSeed("no violation-free seed in scan budget")
    raise NoZeroViolationSeed(
        f"expected violations {expected_bad:.1f} >= 1 at this scale")


def det_list_color(sim: Simulator, graph: Graph, palettes: Palettes,
                   coloring: np.ndarray, vertices: np.ndarray | None = None,
                   deg: np.ndarray | None = None, instance_id: int = 0,
                   stage: str | None = None) -> tuple[str, int]:
    """List-color a scope in place by its degree regime: measured once
    (`deg` as in _list_scope), its degrees go to the sqrt colorer, the
    n^(3/4) colorer or one charged central gather under `fallback`, and
    with `stage` the colorer runs under `{stage}:{regime}`.  Logs nothing;
    a caller handing a scope on logs its `fallback` note.  Returns (regime,
    phases): sqrt, n34 or central (0 phases)."""
    scope, deg, dmax = _list_scope(graph, palettes, vertices, deg)
    if sim.config.fits_sqrt(dmax, sim.n):
        regime, colorer = "sqrt", det_list_color_sqrt
    elif sim.config.fits_n34(dmax, sim.n):
        regime, colorer = "n34", det_list_color_n34
    else:
        _central_phase(sim, graph, palettes, coloring, scope, "fallback",
                       deg)
        return "central", 0
    with sim.stage(f"{stage}:{regime}") if stage else nullcontext():
        return regime, colorer(sim, graph, palettes, coloring, vertices,
                               instance_id=instance_id, deg=deg)


def det_coloring(sim: Simulator, graph: Graph, coloring: np.ndarray) -> None:
    """Deterministic (Delta+1) coloring in place, then a `det-info` note:
    a graph within the n^(3/4) regime goes whole to det_list_color, one
    above it to the partition, which hands each part to det_list_color.

    Consumes no randomness; identical inputs give identical colorings and
    ledgers.
    """
    n = graph.n
    delta = graph.max_degree
    palettes = Palettes.uniform_range(n, 1, delta + 1)
    if sim.config.fits_n34(delta, n):
        regime, phases = det_list_color(sim, graph, palettes, coloring,
                                        stage="det")
    else:
        regime = "partition"
        phases = _partition_coloring(sim, graph, coloring, palettes)
    sim.log.note("det-info", budget=delta + 1, phases=phases, regime=regime)


def _partition_coloring(sim: Simulator, graph: Graph, coloring: np.ndarray,
                        palettes: Palettes) -> int:
    """Color a graph above the n^(3/4) regime by a degree-capped partition
    whose parts, simultaneous instances, and then the left-over part go
    through det_list_color with the degree arrays the partition measured;
    one above the n^(3/4) regime (c_fit < 1) is an `n34-bound` fallback.
    A part whose instance cannot own its leaders (derand.owns_leaders,
    n <= 3) runs after the simultaneous ones, in sequence, as instance 0.
    Returns the most phases any of them took."""
    n, log = graph.n, sim.log
    delta = graph.max_degree
    plan = GeneralPartitionPlan.from_delta(delta)
    try:
        part, sizes, degs = det_partition_general(sim, graph, plan)
    except NoZeroViolationSeed as exc:
        log.fallback("plan-rejected", n, cause=str(exc))
        sizes = np.full(plan.ell, (delta + 1) // plan.ell, dtype=np.int64)
        sizes[: (delta + 1) % plan.ell] += 1
        part, degs = _capacity_split(sim, graph, plan.ell, sizes)
    # verify caps; parts that own their leaders color simultaneously
    jobs = []
    for i, (lo, hi) in enumerate(palette_ranges(1, sizes)):
        members = np.nonzero(part == i)[0]
        if len(members) == 0:
            continue
        dmax = int(degs[i][members].max())
        log.require("partition-cap", dmax ** 4 <= delta ** 3,
                    part=i, deg=dmax)
        log.require("partition-palette", hi - lo + 1 >= dmax + 1, part=i)
        if not sim.config.fits_n34(dmax, n):
            log.fallback("n34-bound", len(members), part=i, deg=dmax)
        jobs.append((members, degs[i],
                     Palettes.uniform_range(n, lo, hi).restrict(members)))
    fit = sum(owns_leaders(n, j) for j in range(len(jobs)))
    max_phases = max(sim.run_parallel([
        lambda m=m, d=d, p=p, j=j: det_list_color(sim, graph, p, coloring,
                                                  m, d, j)[1]
        for j, (m, d, p) in enumerate(jobs[:fit])]), default=0)
    for m, d, p in jobs[fit:]:
        max_phases = max(max_phases, det_list_color(sim, graph, p, coloring,
                                                    m, d)[1])
    # left-over part (empty under the capacity split)
    star = np.nonzero(part == plan.ell)[0]
    if len(star):
        dstar = int(degs[-1][star].max())
        log.record("partition-star-cap", dstar <= plan.cap_star + 1,
                   deg=dstar, cap=plan.cap_star)
        if not sim.config.fits_n34(dstar, n):
            log.fallback("n34-bound", len(star), part="star", deg=dstar)
        star_pals = Palettes(n, sets=free_sets(graph, palettes, coloring,
                                               star))
        with sim.stage("det:star"):
            max_phases = max(max_phases, det_list_color(
                sim, graph, star_pals, coloring, star, degs[-1])[1])
    return max_phases
