"""d-wise independent hashing and method-of-conditional-expectations search.

The hash family is polynomial evaluation over GF(2^K), K = max(gamma,
beta): a seed of d*K bits is read as d coefficients (LSB-first within each
K-bit chunk, coefficient 0 first) of a degree-(d-1) polynomial, evaluated
at the gamma-bit input and truncated to the low beta output bits.  For any
d distinct inputs the outputs are exactly jointly uniform over a uniform
seed.

Seed searches fix the seed in chunks of z bits, greedily choosing each
chunk assignment to maximize (or minimize) the objective's exact
conditional expectation; ties break toward the smallest assignment value.
Two objective shapes are provided:

* TableObjective - an explicit value table over all seeds (tiny scales,
  oracle tests).
* AffineObjective - a weighted sum of conjunctions of parity constraints
  over seed bits.  Because a fixed input makes every hash output bit a
  parity of seed bits, the success estimators used by the deterministic
  coloring steps take this form, and conditioning on a bit prefix reduces
  to echelon bookkeeping: rows whose pivot is below the prefix are
  consistency checks, rows above it each halve the probability.

The distributed variant runs the same search through the simulator: per
stage every node ships its conditional value to one leader per chunk
assignment (one routing call), leaders aggregate, and the winning
assignment is broadcast.  It returns bit-identical seeds to the offline
search because both use the same integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChunkTooWide, SeedLengthMismatch
from .gf2 import (EchelonTemplate, column_masks_vec, gf_mul, gf_mul_vec,
                  irreducible_poly)


@dataclass(frozen=True)
class Seed:
    """A shared random seed: `bits` packed LSB-first into an int."""

    bits: int
    length: int
    fixed_prefix_len: int = 0

    def bit(self, i: int) -> int:
        return (self.bits >> i) & 1


class HashFamily:
    """d-wise independent functions {0,1}^gamma -> {0,1}^beta."""

    def __init__(self, gamma: int, beta: int, d: int):
        if gamma < 1 or beta < 1 or d < 1:
            raise ValueError("gamma, beta, d must be positive")
        self.gamma, self.beta, self.d = gamma, beta, d
        self.k = max(gamma, beta)
        self.seed_len = d * self.k
        self.poly = irreducible_poly(self.k)

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

    def eval_vec(self, seed_bits: int, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation for many inputs (requires k <= 31)."""
        if 2 * self.k > 63:
            return np.array([self.eval(seed_bits, int(x)) for x in xs],
                            dtype=np.uint64)
        xs = np.asarray(xs, dtype=np.uint64)
        coeffs = self.coefficients(seed_bits)
        acc = np.full(len(xs), np.uint64(coeffs[-1]), dtype=np.uint64)
        for c in range(self.d - 2, -1, -1):
            acc = gf_mul_vec(acc, xs, self.k) ^ np.uint64(coeffs[c])
        return acc & np.uint64((1 << self.beta) - 1)

    def bit_masks_vec(self, xs: np.ndarray) -> np.ndarray:
        """Seed-bit parity masks of every output bit, per input.

        Returns (len(xs), beta) uint64; masks[v, t] has seed-bit j set iff
        output bit t of h(xs[v]) depends on seed bit j.  Needs seed_len
        <= 64.
        """
        if self.seed_len > 64:
            raise ValueError("affine masks require seed_len <= 64")
        xs = np.asarray(xs, dtype=np.uint64)
        out = np.zeros((len(xs), self.beta), dtype=np.uint64)
        power = np.ones(len(xs), dtype=np.uint64)
        for c in range(self.d):
            cols = column_masks_vec(power, self.k)  # (n, k)
            out ^= cols[:, : self.beta] << np.uint64(c * self.k)
            if c + 1 < self.d:
                power = gf_mul_vec(power, xs, self.k)
        return out


def hash_eval(family: HashFamily, seed: Seed, x: int) -> int:
    """Spec-level wrapper: evaluate with a full-length seed."""
    if seed.length != family.seed_len:
        raise SeedLengthMismatch(
            f"need {family.seed_len} seed bits, got {seed.length}")
    return family.eval(seed.bits, x)


# --------------------------------------------------------------------- #
# objectives
# --------------------------------------------------------------------- #

class TableObjective:
    """Exact objective given by a value table over all 2^L seeds.

    Per-node decomposition is a list of tables that sum to the total;
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

    def reset(self):
        self.committed, self.k = 0, 0

    def _sums(self, table: np.ndarray, width: int) -> np.ndarray:
        k1 = self.k + width
        folded = table.reshape(-1, 1 << k1).sum(axis=0)
        idx = self.committed + (np.arange(1 << width) << self.k)
        return folded[idx]

    def eval_block(self, width: int) -> np.ndarray:
        """Conditional sums (exact, common denominator) per assignment."""
        return self._sums(self.total, width)

    def contributing_nodes(self) -> np.ndarray:
        """Sorted ids of the nodes that own a table."""
        return np.array(sorted(self.node_tables), dtype=np.int64)

    def commit(self, assignment: int, width: int) -> None:
        self.committed |= assignment << self.k
        self.k += width

    def exhaustive_mean_num_denom(self):
        return int(self.total.sum()), 1 << self.seed_len

    def value_of(self, seed_bits: int) -> int:
        return int(self.total[seed_bits])


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

    def add_term(self, node: int, coef: int, rows) -> None:
        """Add coef * [all rows hold]; rows are (mask, rhs) parities."""
        masks = np.array([[int(m) for m, _ in rows]], dtype=np.uint64)
        rhs = sum((int(r) & 1) << i for i, (_, r) in enumerate(rows))
        self.add_terms(EchelonTemplate(masks), [0], [node], [coef],
                       np.array([rhs], dtype=np.uint64))

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
        self._blocks = None
        self._consts = None
        self._last = None

    def reset(self):
        self.committed, self.k = 0, 0
        self.alive[:] = True
        self._last = None

    # -- evaluation -------------------------------------------------- #
    #
    # Only a term with a row pivoting inside the chunk [k, k+width) can
    # fail for some chunk assignment; every other alive term keeps its
    # (rescaled) weight whatever the chunk is.  A stage therefore works on
    # those rows alone, and keeps each term's failure set over the 2^width
    # assignments as a bitset packed into uint64 words: bit b of word
    # b >> 6, position b & 63, is set when assignment b breaks the term.

    def contributing_nodes(self) -> np.ndarray:
        """Sorted ids of the nodes that own a term or a constant."""
        return np.unique(np.concatenate([self.term_node, self.const_node]))

    def _weights(self, k1: int) -> np.ndarray:
        """Each term's conditional value once bits [0, k1) are fixed and
        its rows below k1 hold: coef * 2^-(rows at or above k1), scaled."""
        below = np.bincount(
            self.row_term[: np.searchsorted(self.row_pivot, k1)],
            minlength=self.n_terms)
        r = self.n_rows_per_term - below
        return self.term_coef << (self.denom_log2 - r)

    def _stage(self, width: int):
        """Alive terms with a row pivoting in [k, k+width), sorted, and
        their packed failure sets, shape (terms, max(1, 2^width / 64))."""
        lo = int(np.searchsorted(self.row_pivot, self.k))
        hi = int(np.searchsorted(self.row_pivot, self.k + width))
        terms = self.row_term[lo:hi]
        keep = self.alive[terms]
        terms = terms[keep]
        words = max(1, (1 << width) >> 6)
        if not len(terms):
            return terms, np.zeros((0, words), dtype=np.uint64)
        masks = self.row_mask[lo:hi][keep]
        # a row breaks when parity(mask & seed) != rhs; the committed
        # prefix contributes a fixed parity, the chunk bits a pattern
        flip = (np.bitwise_count(masks & np.uint64(self.committed))
                .astype(np.uint64) & np.uint64(1)) \
            ^ self.row_rhs[lo:hi][keep].astype(np.uint64)
        chunk = (masks >> np.uint64(self.k)) \
            & np.uint64((1 << width) - 1)
        # chunk bits 6.. select whole words: parity(chunk_hi & word index)
        high = np.bitwise_count((chunk >> np.uint64(6))[:, None]
                                & np.arange(words, dtype=np.uint64))
        fail = (_IN_WORD_PARITY[(chunk & np.uint64(63)).astype(np.intp)]
                [:, None]
                ^ (np.uint64(0) - (high.astype(np.uint64) & np.uint64(1)))
                ^ (np.uint64(0) - flip)[:, None])
        order = np.argsort(terms, kind="stable")
        terms = terms[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], terms[1:] != terms[:-1])))
        return terms[starts], np.bitwise_or.reduceat(fail[order], starts,
                                                     axis=0)

    def _eval(self, width: int):
        """Conditional sums per chunk assignment, plus the stage kept for
        commit: vals[b] = all alive weight - weight of terms b breaks."""
        terms, fail = self._stage(width)
        w = self._weights(self.k + width)
        vals = np.full(1 << width, (self.const_total << self.denom_log2)
                       + int(w[self.alive].sum()), dtype=np.int64)
        if len(terms):
            vals -= (w[terms][:, None]
                     * _unpack_bits(fail, 1 << width)).sum(axis=0)
        return vals, (width, terms, fail)

    def eval_block(self, width: int) -> np.ndarray:
        vals, self._last = self._eval(width)
        return vals

    def node_eval_block(self, width: int):
        """Per-node split of eval_block(width): row i is the value
        contributing_nodes()[i] sends to each of the 2^width leaders, and
        the rows sum to eval_block(width).  The searches route only the
        counts of these values and never build the matrix."""
        _, self._last = self._eval(width)
        _, terms, fail = self._last
        w = self._weights(self.k + width)
        nodes = self.contributing_nodes()
        out = np.zeros((len(nodes), 1 << width), dtype=np.int64)
        np.add.at(out, np.searchsorted(nodes, self.term_node[self.alive]),
                  w[self.alive][:, None])
        np.subtract.at(out, np.searchsorted(nodes, self.term_node[terms]),
                       w[terms][:, None] * _unpack_bits(fail, 1 << width))
        np.add.at(out, np.searchsorted(nodes, self.const_node),
                  (self.const_coef << self.denom_log2)[:, None])
        return nodes, out

    def commit(self, assignment: int, width: int) -> None:
        if self._last is None or self._last[0] != width:
            self.eval_block(width)
        _, terms, fail = self._last
        broken = (fail[:, assignment >> 6]
                  >> np.uint64(assignment & 63)) & np.uint64(1)
        self.alive[terms[broken.astype(bool)]] = False
        self.committed |= assignment << self.k
        self.k += width
        self._last = None

    def expectation_num(self) -> int:
        """Current conditional expectation numerator (denom 2^denom_log2)."""
        vals, _ = self._eval(0)
        return int(vals[0])


def _in_word_parity() -> np.ndarray:
    """Entry c has bit i set iff parity(c & i) = 1, for c, i < 64: the
    assignments within one 64-bit word that chunk bits 0..5 = c flip."""
    i = np.arange(64, dtype=np.uint64)
    odd = np.bitwise_count(i[:, None] & i[None, :]).astype(np.uint64) \
        & np.uint64(1)
    return np.bitwise_or.reduce(odd << i[None, :], axis=1)


_IN_WORD_PARITY = _in_word_parity()


def _unpack_bits(words: np.ndarray, count: int) -> np.ndarray:
    """(rows, count) uint8 0/1 matrix of the first `count` bits of each
    row of packed uint64 words (bit b in word b >> 6, position b & 63)."""
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=count, bitorder="little")


# --------------------------------------------------------------------- #
# searches
# --------------------------------------------------------------------- #

def default_chunk_bits(n: int) -> int:
    return max(1, int(np.log2(max(2, n))))


def auto_chunk_bits(n: int, seed_len: int, n_terms: int, n_rows: int,
                    eval_budget: int, cap: int | None = None) -> int:
    """Largest chunk width z whose total search cost fits the budget."""
    zmax = min(default_chunk_bits(n), seed_len, 20)
    if cap is not None:
        zmax = min(zmax, cap)
    work_unit = max(1, n_terms + n_rows)
    for z in range(zmax, 1, -1):
        stages = -(-seed_len // z)
        if stages * work_unit * (1 << z) <= eval_budget:
            return z
    return 1


def _pick(vals: np.ndarray, minimize: bool) -> int:
    return int(np.argmin(vals)) if minimize else int(np.argmax(vals))


def cond_exp_search(objective, seed_len: int, z: int,
                    minimize: bool = False) -> Seed:
    """Greedy chunked seed fixing; the result's objective value meets or
    beats the average over all seeds (exact conditional expectations)."""
    if z < 1:
        raise ValueError("chunk size must be >= 1")
    k = 0
    bits = 0
    while k < seed_len:
        width = min(z, seed_len - k)
        vals = objective.eval_block(width)
        b = _pick(vals, minimize)
        objective.commit(b, width)
        bits |= b << k
        k += width
    return Seed(bits, seed_len, seed_len)


def distributed_seed_agreement(sim, objective, seed_len: int, z: int,
                               minimize: bool = False, instance_id: int = 0,
                               stage_name: str = "seed-agreement") -> Seed:
    """Leader-based chunked seed agreement over the simulator.

    Per stage: every contributing node sends its conditional value to the
    leader of each chunk assignment (one routing call), each leader sums
    its column, leaders forward sums to the arbiter (1 round), and the
    winning assignment is broadcast (1 round).  Chooses the same seed as
    cond_exp_search for the same objective and chunk size.
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
            if leaders[-1] >= sim.n:
                raise ChunkTooWide(
                    f"leader {int(leaders[-1])} out of range n={sim.n}")
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
            sim.ledger.messages_total += B
            sim.ledger.advance(1)
            b = _pick(totals, minimize)
            # arbiter broadcasts the winning assignment to all nodes
            sim.ledger.messages_total += sim.n
            sim.ledger.advance(1)
            objective.commit(b, width)
            bits |= b << k
            k += width
    return Seed(bits, seed_len, seed_len)
