"""Binary-field arithmetic and GF(2) linear-form utilities.

Field GF(2^K) elements are ints whose bit j is the coefficient of x^j.
The modulus for each width K is the *smallest integer* f >= 2^K whose bit
pattern is an irreducible polynomial of degree K (checked with Rabin's
test); the rule, rather than a hard-coded table, keeps seeds reproducible
across implementations.

Multiplication by a fixed element m is linear over GF(2) in the other
operand's bits, which is what lets seed-search objectives express hash
output bits as parities of seed bits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _poly_mul_mod(a: int, b: int, f: int, k: int) -> int:
    """Carryless multiply of a, b modulo polynomial f of degree k."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> k & 1:
            a ^= f
    return r


def _poly_pow_x(exp_log2: int, f: int, k: int) -> int:
    """x^(2^exp_log2) mod f via repeated squaring."""
    r = 2  # the polynomial "x"
    for _ in range(exp_log2):
        r = _poly_mul_mod(r, r, f, k)
    return r


def _poly_gcd(a: int, b: int) -> int:
    while b:
        if a.bit_length() < b.bit_length():
            a, b = b, a
        while a.bit_length() >= b.bit_length() and a:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _prime_factors(k: int) -> list[int]:
    out, d = [], 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def _is_irreducible(f: int, k: int) -> bool:
    if _poly_pow_x(k, f, k) != 2:  # x^(2^k) == x (mod f)
        return False
    for p in _prime_factors(k):
        h = _poly_pow_x(k // p, f, k) ^ 2
        if _poly_gcd(f, h) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def irreducible_poly(k: int) -> int:
    """Smallest f >= 2^k (with the x^k bit set) irreducible of degree k."""
    if k < 1:
        raise ValueError("field width must be >= 1")
    if k == 1:
        return 0b10  # the polynomial x; GF(2) itself
    base = 1 << k
    for low in range(1, 1 << k, 2):  # constant term must be 1
        f = base | low
        if _is_irreducible(f, k):
            return f
    raise RuntimeError(f"no irreducible polynomial found for k={k}")


def gf_mul(a: int, b: int, k: int) -> int:
    """Product in GF(2^k)."""
    return _poly_mul_mod(a, b, irreducible_poly(k), k)


def _mul_x(vec: np.ndarray, f: np.uint64, k: int) -> np.ndarray:
    """vec * x in GF(2^k) for reduced uint64 elements: one shift and one
    conditional reduction by the modulus f."""
    r = vec << np.uint64(1)
    return r ^ (((r >> np.uint64(k)) & np.uint64(1)) * f)


def gf_mul_vec(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Elementwise product a * b in GF(2^k) of two equal-shape arrays.

    Carryless shift-and-add, then reduction of degrees 2k-2 .. k; requires
    2k <= 63 so the unreduced product fits in uint64.
    """
    if 2 * k > 63:
        raise ValueError("vectorized field ops support k <= 31")
    f = np.uint64(irreducible_poly(k))
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    r = np.zeros_like(a)
    for j in range(k):
        r ^= ((b >> np.uint64(j)) & np.uint64(1)) * (a << np.uint64(j))
    for t in range(2 * k - 2, k - 1, -1):
        r ^= ((r >> np.uint64(t)) & np.uint64(1)) * (f << np.uint64(t - k))
    return r


def column_masks_vec(m_vec: np.ndarray, k: int) -> np.ndarray:
    """Linear forms of multiplication by each m in m_vec.

    Returns masks of shape (len(m_vec), k): masks[v, t] has bit j set iff
    output bit t of (a * m_vec[v]) depends on bit j of a.  Column j is
    m * x^j, built from column j-1 with one multiply-by-x step.
    """
    if 2 * k > 63:
        raise ValueError("vectorized field ops support k <= 31")
    f = np.uint64(irreducible_poly(k))
    col = np.asarray(m_vec, dtype=np.uint64)
    bits = np.arange(k, dtype=np.uint64)
    masks = np.zeros((len(col), k), dtype=np.uint64)
    for j in range(k):
        masks |= ((col[:, None] >> bits) & np.uint64(1)) << np.uint64(j)
        col = _mul_x(col, f, k)
    return masks


class EchelonTemplate:
    """Batched echelonization of S mask systems of R rows each, replayable
    over any number of rhs vectors per system.

    masks[s] is system s's row list; zero masks are allowed (a zero row
    with rhs 0 constrains nothing, so narrower systems pad with zero
    columns and share one template).  The elimination runs by pivot
    column, on live bits only: while some row is nonzero, take the
    highest bit p set in any remaining row; the first row of each system
    (in insertion order) that still has bit p becomes pivot p and is XORed
    into every other row that has it.  Each step clears bit p from every
    row and leaves no higher bit, so the steps visit the live bits high
    to low and stop once every row is zero.  A row only ever XORs pivots
    of earlier rows, and pivot p is the first row whose reduction lands
    on p, so each system's echelon rows, pivots and satisfiability equal
    `solve_parity_rows` on its row list, bit for bit.

    The reduction depends only on the masks.  Every output row records
    which input rows XOR into it (a combo bitmask), so a term's rhs,
    packed as an int over input rows, reduces with one popcount per row.
    Rows reduced to zero leave consistency checks: a term whose rhs has
    odd parity on one of their combos has probability zero.

    Output rows are flat, grouped by system (`row_start`) in descending
    pivot order, as `solve_parity_rows` returns them.
    """

    def __init__(self, masks: np.ndarray):
        masks = np.asarray(masks, dtype=np.uint64)
        if masks.ndim != 2:
            raise ValueError("masks must have shape (systems, rows)")
        n_sys, n_in = masks.shape
        if n_in > 64:
            raise ValueError("template supports at most 64 input rows")
        m = masks.copy()
        c = np.tile(np.uint64(1) << np.arange(n_in, dtype=np.uint64),
                    (n_sys, 1))
        row0 = np.arange(n_sys) * n_in
        bits, piv_m, piv_c = [], [], []
        one = np.uint64(1)
        union = int(np.bitwise_or.reduce(m, axis=None))
        while union:
            # the first row with bit p is pivot p; XOR it into every row
            # with bit p, itself included, so it drops out with a zero mask
            # and combo.  A system with no such row records a row without
            # bit p and XORs nothing
            p = np.uint64(union.bit_length() - 1)
            has = (m >> p) & one
            first = row0 + has.argmax(axis=1)
            pm, pc = m.take(first), c.take(first)
            m ^= has * pm[:, None]
            c ^= has * pc[:, None]
            bits.append(p)
            piv_m.append(pm)
            piv_c.append(pc)
            union = int(np.bitwise_or.reduce(m, axis=None))
        out_m = np.array(piv_m, dtype=np.uint64).reshape(len(bits), n_sys).T
        out_c = np.array(piv_c, dtype=np.uint64).reshape(len(bits), n_sys).T
        bits = np.array(bits, dtype=np.uint64)
        s_idx, col = np.nonzero((out_m >> bits) & one)
        self.rank = np.bincount(s_idx, minlength=n_sys).astype(np.int64)
        self.row_start = np.concatenate(([0], np.cumsum(self.rank)))
        self.out_masks = out_m[s_idx, col]
        self.out_pivots = bits[col].astype(np.int64)
        self._combos = out_c[s_idx, col]
        # only the columns where some system has a row reduced to zero
        self._zero_combos = c[:, c.any(axis=0)]

    def reduce_rhs(self, systems: np.ndarray, rhs_bits: np.ndarray):
        """Reduce one rhs per term; term b uses system systems[b], with
        rhs_bits[b] packing its input-row rhs values (bit i = row i).

        Returns (ok, row_of, out_rhs): ok[b] is False when a zero row
        contradicts; the terms' echelon rows are out_masks[row_of] (term b
        owns rank[systems[b]] consecutive entries), with rhs out_rhs.
        """
        systems = np.asarray(systems, dtype=np.int64)
        rhs = np.asarray(rhs_bits, dtype=np.uint64)
        bad = (np.bitwise_count(self._zero_combos[systems] & rhs[:, None])
               & np.uint8(1)).any(axis=1)
        nrows = self.rank[systems]
        first = np.repeat(self.row_start[systems] - np.cumsum(nrows)
                          + nrows, nrows)
        row_of = first + np.arange(int(nrows.sum()), dtype=np.int64)
        out = (np.bitwise_count(self._combos[row_of]
                                & np.repeat(rhs, nrows))
               & np.uint8(1))
        return ~bad, row_of, out


def solve_parity_rows(rows: list[tuple[int, int]]):
    """Echelonize parity constraints (mask, rhs) by highest pivot bit.

    Returns (echelon_rows, satisfiable) where echelon_rows have distinct
    pivots (highest set bit); an inconsistent 0 = 1 row makes the system
    unsatisfiable.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in rows:
        mask, rhs = int(mask), int(rhs) & 1
        while mask:
            p = mask.bit_length() - 1
            if p not in pivots:
                pivots[p] = (mask, rhs)
                break
            pm, pr = pivots[p]
            mask ^= pm
            rhs ^= pr
        else:
            if rhs:
                return [], False
    out = [pivots[p] for p in sorted(pivots, reverse=True)]
    return out, True
