"""d-wise independent hashing and method-of-conditional-expectations search.

The hash family is polynomial evaluation over GF(2^K), K = max(gamma,
beta): a seed of d*K bits is read as d coefficients (LSB-first within each
K-bit chunk, coefficient 0 first) of a degree-(d-1) polynomial, evaluated
at the gamma-bit input and truncated to the low beta output bits.  For any
d distinct inputs the outputs are exactly jointly uniform over a uniform
seed.

The seed search fixes the seed in chunks of z bits, greedily choosing
each chunk assignment to maximize (or minimize) the objective's exact
conditional expectation; ties break toward the smallest assignment value.
Its objective is an AffineObjective: a weighted sum of conjunctions of
parity constraints over seed bits.  Because a fixed input makes every hash
output bit a parity of seed bits, the success estimators used by the
deterministic coloring steps take this form, and conditioning on a bit
prefix reduces to echelon bookkeeping: rows whose pivot is below the
prefix are consistency checks, rows above it each halve the probability.

The search runs through the simulator (`distributed_seed_agreement`): per
stage every node ships its conditional value to one leader per chunk
assignment (one routing call), leaders aggregate, and the winning
assignment is broadcast.  The test suite holds the offline reference
search and an explicit value-table objective (tests/oracles.py); the
protocol returns bit-identical seeds to that search because both use the
same integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ChunkTooWide
from .gf2 import EchelonTemplate, column_masks_vec, gf_mul, gf_mul_vec


@dataclass(frozen=True)
class Seed:
    """A shared random seed: `bits` packed LSB-first into an int."""

    bits: int


class HashFamily:
    """d-wise independent functions {0,1}^gamma -> {0,1}^beta.  With
    seed_len <= 64 the vector forms gather rows of the family's cached,
    read-only `_mask_table`: output bit t is parity(mask[x, t] & seed)."""

    def __init__(self, gamma: int, beta: int, d: int):
        if gamma < 1 or beta < 1 or d < 1:
            raise ValueError("gamma, beta, d must be positive")
        self.gamma, self.beta, self.d = gamma, beta, d
        self.k = max(gamma, beta)
        self.seed_len = d * self.k

    def coefficients(self, seed_bits: int) -> list[int]:
        mask = (1 << self.k) - 1
        return [(seed_bits >> (c * self.k)) & mask for c in range(self.d)]

    def eval(self, seed_bits: int, x: int) -> int:
        """Evaluate one input (Horner over the field, truncated)."""
        if not (0 <= x < (1 << self.gamma)):
            raise ValueError("input outside gamma bits")
        coeffs = self.coefficients(seed_bits)
        acc = coeffs[-1]
        for c in range(self.d - 2, -1, -1):
            acc = gf_mul(acc, x, self.k) ^ coeffs[c]
        return acc & ((1 << self.beta) - 1)

    def _ids(self, xs) -> np.ndarray:
        xs = np.asarray(xs)
        if xs.size and (int(xs.min()) < 0 or int(xs.max()) >> self.gamma):
            raise ValueError("input outside gamma bits")
        return xs.astype(np.uint64)

    def eval_vec(self, seed_bits: int, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation for many inputs."""
        xs = self._ids(xs)
        if 2 * self.k > 63:
            return np.array([self.eval(seed_bits, int(x)) for x in xs],
                            dtype=np.uint64)
        if self.seed_len <= 64:
            masks = _mask_table(self.gamma, self.beta, self.d)[xs]
            seed = np.uint64(seed_bits & ((1 << self.seed_len) - 1))
            odd = np.bitwise_count(masks & seed) & np.uint64(1)
            return odd @ (np.uint64(1) << np.arange(self.beta,
                                                    dtype=np.uint64))
        coeffs = self.coefficients(seed_bits)
        acc = np.full(len(xs), np.uint64(coeffs[-1]), dtype=np.uint64)
        for c in range(self.d - 2, -1, -1):
            acc = gf_mul_vec(acc, xs, self.k) ^ np.uint64(coeffs[c])
        return acc & np.uint64((1 << self.beta) - 1)

    def bit_masks_vec(self, xs: np.ndarray) -> np.ndarray:
        """(len(xs), beta) uint64 seed-bit parity masks: masks[v, t] has
        seed bit j set iff output bit t of h(xs[v]) depends on seed bit j.
        Needs seed_len <= 64."""
        if self.seed_len > 64:
            raise ValueError("affine masks require seed_len <= 64")
        return _mask_table(self.gamma, self.beta, self.d)[self._ids(xs)]


@lru_cache(maxsize=16)
def _mask_table(gamma: int, beta: int, d: int) -> np.ndarray:
    """bit_masks_vec of HashFamily(gamma, beta, d) over all 2^gamma
    inputs, read-only: seed chunk c enters through multiplication by x^c."""
    k = max(gamma, beta)
    xs = np.arange(1 << gamma, dtype=np.uint64)
    out = np.zeros((len(xs), beta), dtype=np.uint64)
    power = np.ones(len(xs), dtype=np.uint64)
    for c in range(d):
        cols = column_masks_vec(power, k)  # (2^gamma, k)
        out ^= cols[:, :beta] << np.uint64(c * k)
        if c + 1 < d:
            power = gf_mul_vec(power, xs, k)
    out.flags.writeable = False
    return out


# --------------------------------------------------------------------- #
# objectives
# --------------------------------------------------------------------- #

class AffineObjective:
    """Sum of coef * [conjunction of seed-bit parities] terms.

    Terms arrive in bulk (`add_terms`): each names a node, a coefficient,
    one mask system of an EchelonTemplate and the rhs bits of that
    system's rows.  The template's batched echelonization gives every term
    its echelon rows (distinct highest-bit pivots), exactly the rows
    `solve_parity_rows` would return; contradictory terms have probability
    zero and are dropped, and rank-0 terms are constants.  `freeze`
    concatenates the blocks into flat row arrays sorted by pivot.

    Conditional expectations are exact dyadic rationals returned as int64
    numerators at a fixed power-of-two scale (`denom_log2`).
    """

    def __init__(self, seed_len: int):
        if seed_len > 64:
            raise ValueError("affine objectives support seed_len <= 64")
        self.seed_len = seed_len
        self._blocks = []   # (nodes, coefs, nrows, masks, pivots, rhs)
        self._consts = []   # (nodes, coefs) of rank-0 terms

    def add_terms(self, template: EchelonTemplate, systems, nodes, coefs,
                  rhs_bits) -> None:
        """Add coefs[b] * [system systems[b] holds with rhs rhs_bits[b]]
        for every b; rhs_bits packs the input-row rhs values (bit i = row
        i of the system)."""
        systems = np.asarray(systems, dtype=np.int64)
        nodes = np.asarray(nodes, dtype=np.int64)
        coefs = np.asarray(coefs, dtype=np.int64)
        ok, row_of, out_rhs = template.reduce_rhs(systems, rhs_bits)
        nrows = template.rank[systems]
        const = ok & (nrows == 0)
        self._consts.append((nodes[const], coefs[const]))
        live = ok & (nrows > 0)
        rows = np.repeat(live, nrows)
        row_of = row_of[rows]
        self._blocks.append((nodes[live], coefs[live], nrows[live],
                             template.out_masks[row_of],
                             template.out_pivots[row_of], out_rhs[rows]))

    def freeze(self) -> None:
        empty = (np.zeros(0, dtype=np.int64),) * 3 + (
            np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.uint8))
        nodes, coefs, nrows, masks, pivots, rhs = (
            np.concatenate(col) for col in zip(empty, *self._blocks))
        T = len(nodes)
        self.n_terms = T
        self.term_node, self.term_coef = nodes, coefs
        self.n_rows_per_term = nrows
        order = np.argsort(pivots.astype(np.uint8), kind="stable")
        self.row_mask = masks[order]
        self.row_rhs = rhs[order]
        self.row_term = np.repeat(np.arange(T, dtype=np.int64), nrows)[order]
        self.row_pivot = pivots[order]
        self.const_node, self.const_coef = (np.concatenate(col) for col in zip(
            (np.zeros(0, dtype=np.int64),) * 2, *self._consts))
        self.const_total = int(self.const_coef.sum())
        self.max_rank = int(nrows.max()) if T else 0
        coef_bits = int(np.abs(coefs).max()) if T else 1
        total_bits = (self.max_rank + max(1, coef_bits).bit_length()
                      + max(1, T).bit_length())
        if total_bits > 62:
            raise ValueError("objective magnitude overflows exact int64")
        self.denom_log2 = self.max_rank
        self.committed = 0
        self.k = 0
        self.alive = np.ones(T, dtype=bool)
        self._below = np.zeros(T, dtype=np.int64)
        i64, u64 = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint64)
        self._no_rows = _Stage(0, i64, i64, i64, i64, u64,
                               np.zeros(0, dtype=np.uint8))
        self._blocks = None
        self._consts = None
        self._last = None

    # -- evaluation -------------------------------------------------- #
    #
    # Only a term with a row pivoting inside the chunk [k, k+width) can
    # fail for some chunk assignment; every other alive term keeps its
    # (rescaled) weight whatever the chunk is.  A stage therefore works on
    # those rows alone, as O(rows) arrays grouped by term (`_Stage`): a
    # row breaks under chunk assignment b when parity(chunk & b) ^ flip
    # is 1, where chunk is the row's mask inside the chunk and flip its
    # rhs plus the parity the committed prefix contributes.  `commit`
    # reads the terms the chosen assignment breaks from these rows, and
    # adds the stage's row counts to `_below`, each alive term's rows
    # pivoting below k.
    #
    # `_eval` builds each term's failure set over the 2^width assignments
    # a block of terms at a time, never more than _EVAL_BLOCK_CELLS
    # (term, assignment) cells, and subtracts its weight from every
    # assignment in it.  A failure set wider than one 64-bit word is
    # weighed per weight class: the stage's terms are put in weight order
    # and each run of one weight subtracts weight x (its int64 column sum
    # of 0/1 bits), so no int64 (term, assignment) matrix is formed; a
    # wide stage has a handful of distinct weights.  A set of one word
    # (width <= 6) is weighed as one weights @ bits product, the fewest
    # numpy calls for the many small stages; its int64 copy of the bits
    # takes 8 bytes a cell, so its blocks hold 1/8 of the cells.

    def contributing_nodes(self) -> np.ndarray:
        """Sorted ids of the nodes that own a term or a constant."""
        return np.unique(np.concatenate([self.term_node, self.const_node]))

    def _weights(self, stage: _Stage) -> np.ndarray:
        """Each alive term's conditional value once the stage's chunk is
        fixed and its rows below the chunk's end hold, coef * 2^-(rows at
        or above k + width) scaled, and 0 for a dead term.  `_below`
        counts an alive term's rows below k; the stage adds its own."""
        r = self.n_rows_per_term - self._below
        r[stage.terms] -= stage.counts
        return (self.term_coef << (self.denom_log2 - r)) * self.alive

    def _stage(self, width: int) -> _Stage:
        """The alive terms' rows pivoting in [k, k+width), grouped by
        term."""
        lo, hi = np.searchsorted(self.row_pivot, (self.k, self.k + width))
        live = lo + self.alive[self.row_term[lo:hi]].nonzero()[0]
        if not len(live):
            return self._no_rows._replace(width=width)
        order = live[np.argsort(self.row_term[live], kind="stable")]
        row_term = self.row_term[order]
        masks = self.row_mask[order]
        flip = (np.bitwise_count(masks & np.uint64(self.committed))
                & np.uint8(1)) ^ self.row_rhs[order]
        chunk = (masks >> np.uint64(self.k)) & np.uint64((1 << width) - 1)
        bounds = np.concatenate(
            ([True], row_term[1:] != row_term[:-1], [True])).nonzero()[0]
        starts = bounds[:-1]
        return _Stage(width, row_term[starts], starts, bounds[1:] - starts,
                      row_term, chunk, flip)

    def _failure_blocks(self, stage: _Stage, cells: int):
        """Yield (g, h, bits): the failure sets of the stage's terms g..h-1
        as a (h - g, 2^width) uint8 0/1 matrix, in blocks of at most
        `cells` cells and as many rows (a term with more rows than that
        gets a block of its own)."""
        step = max(1, cells >> stage.width)
        ends = stage.starts + stage.counts
        g = 0
        while g < len(stage.terms):
            r0 = stage.starts[g]
            h = max(g + 1, int(np.searchsorted(ends, r0 + step, "right")))
            fail = _packed_failures(stage.chunk[r0:ends[h - 1]],
                                    stage.flip[r0:ends[h - 1]], stage.width)
            fail = np.bitwise_or.reduceat(fail, stage.starts[g:h] - r0,
                                          axis=0)
            yield g, h, _unpack_bits(fail, 1 << stage.width)
            g = h

    def _eval(self, width: int):
        """Conditional sums per chunk assignment, plus the stage kept for
        commit: vals[b] = all alive weight - weight of terms b breaks."""
        stage = self._stage(width)
        w = self._weights(stage)
        vals = np.full(1 << width, (self.const_total << self.denom_log2)
                       + int(w.sum()), dtype=np.int64)
        if width <= 6:
            for g, h, bits in self._failure_blocks(
                    stage, _EVAL_BLOCK_CELLS >> 3):
                vals -= w[stage.terms[g:h]] @ bits
            return vals, stage
        wt = w[stage.terms]
        order = np.argsort(wt, kind="stable")
        wt = wt[order]
        for g, h, bits in self._failure_blocks(stage.regroup(order),
                                               _EVAL_BLOCK_CELLS):
            cuts = np.append((wt[g + 1:h] != wt[g:h - 1]).nonzero()[0] + 1,
                             h - g)
            for a, b in zip(np.append(0, cuts[:-1]), cuts):
                vals -= wt[g + a] * bits[a:b].sum(axis=0, dtype=np.int64)
        return vals, stage

    def eval_block(self, width: int) -> np.ndarray:
        vals, self._last = self._eval(width)
        return vals

    def node_eval_block(self, width: int):
        """Per-node split of eval_block(width): row i is the value
        contributing_nodes()[i] sends to each of the 2^width leaders, and
        the rows sum to eval_block(width).  The searches route only the
        counts of these values and never build the matrix."""
        _, stage = self._eval(width)
        self._last = stage
        w = self._weights(stage)
        nodes = self.contributing_nodes()
        out = np.zeros((len(nodes), 1 << width), dtype=np.int64)
        np.add.at(out, np.searchsorted(nodes, self.term_node), w[:, None])
        at = np.searchsorted(nodes, self.term_node[stage.terms])
        for g, h, bits in self._failure_blocks(stage,
                                               _EVAL_BLOCK_CELLS >> 3):
            np.subtract.at(out, at[g:h],
                           w[stage.terms[g:h]][:, None] * bits)
        np.add.at(out, np.searchsorted(nodes, self.const_node),
                  (self.const_coef << self.denom_log2)[:, None])
        return nodes, out

    def commit(self, assignment: int, width: int) -> None:
        stage = self._last
        if stage is None or stage.width != width:
            stage = self._stage(width)
        broken = (np.bitwise_count(stage.chunk & np.uint64(assignment))
                  & np.uint8(1)) ^ stage.flip
        self.alive[stage.row_term[broken.view(bool)]] = False
        self._below[stage.terms] += stage.counts
        self.committed |= assignment << self.k
        self.k += width
        self._last = None

    def expectation_num(self) -> int:
        """Current conditional expectation numerator (denom 2^denom_log2):
        every alive term at its weight given the committed prefix."""
        return ((self.const_total << self.denom_log2)
                + int(self._weights(self._no_rows).sum()))


class _Stage(NamedTuple):
    """One chunk stage's alive rows, grouped by term: terms[i] owns rows
    starts[i] .. starts[i] + counts[i] - 1 of the per-row arrays
    (row_term, chunk = uint64 mask bits inside the chunk, flip = uint8
    rhs ^ the committed prefix's parity)."""

    width: int
    terms: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    row_term: np.ndarray
    chunk: np.ndarray
    flip: np.ndarray

    def regroup(self, order: np.ndarray) -> _Stage:
        """The same stage with its terms in `order`."""
        counts = self.counts[order]
        starts = np.cumsum(counts) - counts
        rows = np.repeat(self.starts[order] - starts, counts) \
            + np.arange(len(self.row_term))
        return _Stage(self.width, self.terms[order], starts, counts,
                      self.row_term[rows], self.chunk[rows], self.flip[rows])


def _packed_failures(chunk: np.ndarray, flip: np.ndarray,
                     width: int) -> np.ndarray:
    """(rows, max(1, 2^width / 64)) uint64: the assignments b that break
    each row, parity(chunk & b) ^ flip = 1, packed as bit b & 63 of word
    b >> 6.  Chunk bits 0..5 pick the pattern within a word, bits 6..
    whether a whole word flips: parity(chunk >> 6 & word index)."""
    fail = _IN_WORD_PARITY[chunk & np.uint64(63)] ^ (np.uint64(0) - flip)
    words = max(1, (1 << width) >> 6)
    if words == 1:
        return fail[:, None]
    high = np.bitwise_count((chunk >> np.uint64(6))[:, None]
                            & np.arange(words, dtype=np.uint64))
    return fail[:, None] ^ (np.uint64(0) - (high & np.uint8(1)))


def _in_word_parity() -> np.ndarray:
    """Entry c has bit i set iff parity(c & i) = 1, for c, i < 64: the
    assignments within one 64-bit word that chunk bits 0..5 = c flip."""
    i = np.arange(64, dtype=np.uint64)
    odd = np.bitwise_count(i[:, None] & i[None, :]).astype(np.uint64) \
        & np.uint64(1)
    return np.bitwise_or.reduce(odd << i[None, :], axis=1)


_IN_WORD_PARITY = _in_word_parity()

# the most (term, assignment) cells one block of AffineObjective's
# failure sets holds: 16 MB as 0/1 bytes, 2 MB packed.  Blocks of one-word
# failure sets hold an eighth of it, so their int64 copy is 16 MB too
_EVAL_BLOCK_CELLS = 1 << 24


def _unpack_bits(words: np.ndarray, count: int) -> np.ndarray:
    """(rows, count) uint8 0/1 matrix of the first `count` bits of each
    row of packed uint64 words (bit b in word b >> 6, position b & 63)."""
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=count, bitorder="little")


# --------------------------------------------------------------------- #
# searches
# --------------------------------------------------------------------- #

def chunk_bits(n: int, seed_len: int, instance_id: int = 0) -> int:
    """Seed bits one agreement stage fixes: one leader per assignment, so
    min(floor(log2 n), seed_len, 20).  An instance other than 0 runs
    beside others and gets floor(log2 n) / 2 bits at most."""
    logn = max(2, n).bit_length() - 1
    cap = logn if instance_id == 0 else max(1, logn // 2)
    return max(1, min(cap, seed_len, 20))


def owns_leaders(n: int, instance_id: int) -> bool:
    """Whether seed instance `instance_id` owns its own leaders at the
    widest chunk chunk_bits gives it: (instance_id + 1) * 2^width <= n."""
    return (instance_id + 1) << chunk_bits(n, 64, instance_id) <= n


def _pick(vals: np.ndarray, minimize: bool) -> int:
    return int(np.argmin(vals)) if minimize else int(np.argmax(vals))


def distributed_seed_agreement(sim, objective, seed_len: int, z: int,
                               minimize: bool = False, instance_id: int = 0,
                               stage_name: str = "seed-agreement") -> Seed:
    """Leader-based chunked seed agreement over the simulator.

    Per stage: every contributing node sends its conditional value to the
    leader of each chunk assignment (one routing call), each leader sums
    its column, leaders forward sums to the arbiter (1 round), and the
    winning assignment is broadcast (1 round).  Chooses the same seed as
    the offline reference search in tests/oracles.py (cond_exp_search) for
    the same objective and chunk size.
    """
    if z < 1:
        raise ValueError("chunk size must be >= 1")
    if (instance_id + 1) * (1 << min(z, seed_len)) > sim.n:
        raise ChunkTooWide(
            f"2^{z} leaders (instance {instance_id}) exceed n={sim.n}")
    nodes = objective.contributing_nodes()
    k = 0
    bits = 0
    with sim.stage(stage_name):
        while k < seed_len:
            width = min(z, seed_len - k)
            B = 1 << width
            leaders = instance_id * B + np.arange(B)
            # nodes -> leaders (one value per assignment per node)
            out_counts = np.zeros(sim.n, dtype=np.int64)
            in_counts = np.zeros(sim.n, dtype=np.int64)
            if len(nodes):
                out_counts[nodes] = B
                in_counts[leaders] = len(nodes)
            sim.charge_route_counts(out_counts, in_counts)
            # each leader sums its column (the objective's conditional sum
            # for its assignment) and forwards it to the arbiter
            totals = objective.eval_block(width)
            sim.ledger.advance(1, B)
            b = _pick(totals, minimize)
            # arbiter broadcasts the winning assignment to all nodes
            sim.ledger.advance(1, sim.n)
            objective.commit(b, width)
            bits |= b << k
            k += width
    return Seed(bits)
