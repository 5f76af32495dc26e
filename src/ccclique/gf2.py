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


def gf_mul_vec(vec: np.ndarray, shift: int, k: int) -> np.ndarray:
    """(vec << shift) reduced in GF(2^k), i.e. vec * x^shift, vectorized.

    Requires 2k <= 63 so intermediate degrees fit in uint64.
    """
    if 2 * k > 63:
        raise ValueError("vectorized field ops support k <= 31")
    f = np.uint64(irreducible_poly(k))
    r = vec.astype(np.uint64) << np.uint64(shift)
    for t in range(k - 1 + shift, k - 1, -1):
        hit = (r >> np.uint64(t)) & np.uint64(1)
        r ^= hit * (f << np.uint64(t - k))
    return r


def column_masks_vec(m_vec: np.ndarray, k: int) -> np.ndarray:
    """Linear forms of multiplication by each m in m_vec.

    Returns masks of shape (len(m_vec), k): masks[v, t] has bit j set iff
    output bit t of (a * m_vec[v]) depends on bit j of a.
    """
    n = len(m_vec)
    masks = np.zeros((n, k), dtype=np.uint64)
    for j in range(k):
        col = gf_mul_vec(np.asarray(m_vec, dtype=np.uint64), j, k)
        bit_j = np.uint64(1) << np.uint64(j)
        for t in range(k):
            hit = (col >> np.uint64(t)) & np.uint64(1)
            masks[:, t] |= hit * bit_j
    return masks


class EchelonTemplate:
    """Echelonization of a fixed mask list, replayable over many rhs
    vectors.

    The reduction sequence depends only on the masks, so it is computed
    once; each output row records which input rows XOR into it (a combo
    bitmask), letting batched rhs vectors be reduced with one mod-2
    matrix product.  Zero-mask output rows are consistency checks: a term
    whose reduced rhs there is 1 has probability zero.
    """

    def __init__(self, masks: list[int]):
        if len(masks) > 63:
            raise ValueError("template supports at most 63 input rows")
        self.n_in = len(masks)
        pivots: dict[int, tuple[int, int]] = {}
        zero_combos: list[int] = []
        for i, mask in enumerate(masks):
            mask = int(mask)
            combo = 1 << i
            while mask:
                p = mask.bit_length() - 1
                if p not in pivots:
                    pivots[p] = (mask, combo)
                    break
                pm, pc = pivots[p]
                mask ^= pm
                combo ^= pc
            else:
                zero_combos.append(combo)
        order = sorted(pivots, reverse=True)
        self.out_masks = np.array([pivots[p][0] for p in order],
                                  dtype=np.uint64)
        self.out_pivots = np.array(order, dtype=np.int64)
        self._combos = np.array([pivots[p][1] for p in order],
                                dtype=np.uint64)
        self._zero_combos = np.array(zero_combos, dtype=np.uint64)

    def reduce_rhs(self, rhs_bits: np.ndarray):
        """Reduce a batch of rhs bit-vectors (given as ints over input-row
        bits).  Returns (out_rhs (B, n_out) uint8, ok (B,) bool), where ok
        is False when a zero-mask row contradicts."""
        rhs = np.asarray(rhs_bits, dtype=np.uint64)
        out = (np.bitwise_count(self._combos[None, :] & rhs[:, None])
               & np.uint64(1)).astype(np.uint8)
        if len(self._zero_combos):
            bad = (np.bitwise_count(self._zero_combos[None, :]
                                    & rhs[:, None]) & np.uint64(1))
            ok = ~(bad.astype(bool).any(axis=1))
        else:
            ok = np.ones(len(rhs), dtype=bool)
        return out, ok


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
