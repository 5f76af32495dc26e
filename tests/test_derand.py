"""Hash family and conditional-expectation search: exhaustive oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccclique.config import Config
from ccclique.derand import (AffineObjective, HashFamily, Seed,
                             TableObjective, auto_chunk_bits,
                             cond_exp_search, default_chunk_bits,
                             distributed_seed_agreement, hash_eval)
from ccclique.errors import ChunkTooWide, SeedLengthMismatch
from ccclique.gf2 import (EchelonTemplate, column_masks_vec, gf_mul,
                          gf_mul_vec, irreducible_poly, solve_parity_rows)
from ccclique.selftest import make_corpus
from ccclique.sim import Simulator


def value_rows(bit_masks: np.ndarray, bits: list[int], value: int):
    """Parity rows pinning the listed output bits of one node to `value`:
    `bit_masks` is that node's (beta,) mask row, and bit t of `value`
    corresponds to bits[t]."""
    return [(int(bit_masks[t]), (value >> i) & 1)
            for i, t in enumerate(bits)]


def test_irreducible_polys_have_degree_bit():
    for k in (1, 2, 3, 4, 8, 14, 17, 27, 31, 40):
        f = irreducible_poly(k)
        assert f >> k == 1


def test_field_axioms_small():
    k = 4
    for a in range(16):
        assert gf_mul(a, 1, k) == a
        for b in range(16):
            assert gf_mul(a, b, k) == gf_mul(b, a, k)


def test_vector_field_ops_match_scalar():
    rng = np.random.default_rng(5)
    for k in range(1, 32):
        a = rng.integers(0, 1 << k, size=12, dtype=np.uint64)
        b = rng.integers(0, 1 << k, size=12, dtype=np.uint64)
        assert gf_mul_vec(a, b, k).tolist() == \
            [gf_mul(int(x), int(y), k) for x, y in zip(a, b)]
        masks = column_masks_vec(a, k)
        for v, m in enumerate(a):
            for j in range(k):
                col = gf_mul(int(m), 1 << j, k)  # image of input bit j
                assert [int(masks[v, t]) >> j & 1 for t in range(k)] == \
                    [col >> t & 1 for t in range(k)]


def test_hash_zero_seed_is_zero():
    for d in (1, 2, 3):
        fam = HashFamily(3, 3, d)
        for x in range(8):
            assert fam.eval(0, x) == 0


def test_hash_d1_is_constant():
    fam = HashFamily(3, 2, 1)
    seed = 0b101
    vals = {fam.eval(seed, x) for x in range(8)}
    assert vals == {seed & 0b11}


def test_hash_eval_wrapper_checks_length():
    fam = HashFamily(3, 3, 2)
    with pytest.raises(SeedLengthMismatch):
        hash_eval(fam, Seed(0, 5, 5), 1)
    assert hash_eval(fam, Seed(0, fam.seed_len, fam.seed_len), 3) == 0


def test_pairwise_exact_uniformity():
    fam = HashFamily(3, 3, 2)
    for x, y in ((0, 1), (2, 5), (3, 7)):
        counts = {}
        for s in range(1 << fam.seed_len):
            key = (fam.eval(s, x), fam.eval(s, y))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 64
        assert set(counts.values()) == {(1 << fam.seed_len) // 64}


def test_eval_vec_matches_scalar():
    fam = HashFamily(5, 4, 3)
    xs = np.arange(32)
    rng = np.random.default_rng(0)
    for s in map(int, rng.integers(0, 1 << fam.seed_len, size=5)):
        v = fam.eval_vec(s, xs)
        assert all(int(v[i]) == fam.eval(s, i) for i in range(32))


def test_bit_masks_reproduce_output_bits():
    fam = HashFamily(4, 3, 2)
    xs = np.arange(16)
    bm = fam.bit_masks_vec(xs)
    rng = np.random.default_rng(1)
    for s in map(int, rng.integers(0, 1 << fam.seed_len, size=10)):
        for x in (0, 3, 9, 15):
            y = fam.eval(s, x)
            for t in range(fam.beta):
                par = bin(int(bm[x, t]) & s).count("1") & 1
                assert par == (y >> t) & 1


def test_cond_exp_constant_objective():
    obj = TableObjective({0: np.ones(4, dtype=np.int64)}, 2)
    seed = cond_exp_search(obj, 2, 1)
    assert obj.value_of(seed.bits) == 1


def test_cond_exp_two_bit_table():
    # values {00:0, 01:1, 10:2, 11:3} by seed integer; greedy lands on 3
    obj = TableObjective({0: np.array([0, 1, 2, 3])}, 2)
    seed = cond_exp_search(obj, 2, 1)
    assert seed.bits == 0b11
    assert obj.value_of(seed.bits) == 3  # >= mean 1.5


def test_cond_exp_dominance_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(20):
        length = int(rng.integers(2, 17))
        z = int(rng.integers(1, 5))
        table = rng.integers(0, 100, size=1 << length).astype(np.int64)
        obj = TableObjective({0: table}, length)
        seed = cond_exp_search(obj, length, z)
        got = obj.value_of(seed.bits)
        num, den = obj.exhaustive_mean_num_denom()
        assert Fraction(got) >= Fraction(num, den)


def test_distributed_equals_offline_on_corpus():
    for tables, length, z in make_corpus(12, rng_seed=77):
        off = cond_exp_search(TableObjective(tables, length), length, z)
        sim = Simulator(max(16, 1 << z), Config())
        dist = distributed_seed_agreement(
            sim, TableObjective(tables, length), length, z)
        assert off.bits == dist.bits


def test_distributed_stage_round_cost():
    # seed_len=10 with z=5 -> 2 stages, each lenzen(2) + aggregate(1) +
    # broadcast(1); mirrors the ceiling arithmetic of seed_len=40, z=20
    obj = TableObjective({0: np.zeros(2 ** 10, dtype=np.int64)}, 10)
    sim = Simulator(2 ** 20, Config())
    distributed_seed_agreement(sim, obj, 10, 5)
    assert sim.ledger.rounds_total == 2 * (2 + 1 + 1)


def test_chunk_too_wide():
    tables = {0: np.zeros(2 ** 5, dtype=np.int64)}
    sim = Simulator(15, Config())
    with pytest.raises(ChunkTooWide):
        distributed_seed_agreement(sim, TableObjective(tables, 5), 5, 4)


def test_instance_leader_disjointness():
    # instance_id * 2^z + assignment must stay below n
    tables = {0: np.zeros(2 ** 4, dtype=np.int64)}
    sim = Simulator(16, Config())
    # instance 3 with z=2 uses leaders 12..15: legal at n=16
    distributed_seed_agreement(sim, TableObjective(tables, 4), 4, 2,
                               instance_id=3)
    with pytest.raises(ChunkTooWide):
        distributed_seed_agreement(sim, TableObjective(tables, 4), 4, 2,
                                   instance_id=4)  # leader 16 out of range


def test_auto_chunk_bounds():
    for n in (4, 100, 5000):
        z = auto_chunk_bits(n, 30, 1000, 5000, 10 ** 8)
        assert 1 <= z <= default_chunk_bits(n)
        assert (1 << z) <= max(2, n)


class TestAffineObjective:
    def _brute_conditional(self, fam, events, prefix, k):
        total = Fraction(0)
        cnt = 1 << (fam.seed_len - k)
        for suf in range(cnt):
            s = prefix | (suf << k)
            val = 0
            for node, coef, want, nb in events:
                if fam.eval(s, node) & ((1 << nb) - 1) == want:
                    val += coef
            total += val
        return Fraction(total, cnt)

    def test_conditionals_exact_vs_enumeration(self):
        fam = HashFamily(3, 3, 2)
        bm = fam.bit_masks_vec(np.arange(8))
        rng = np.random.default_rng(9)
        for _ in range(15):
            obj = AffineObjective(fam.seed_len)
            events = []
            for _ in range(5):
                node = int(rng.integers(0, 8))
                coef = int(rng.integers(-3, 4))
                nb = int(rng.integers(1, 4))
                want = int(rng.integers(0, 1 << nb))
                obj.add_term(node, coef,
                             value_rows(bm[node], list(range(nb)), want))
                events.append((node, coef, want, nb))
            obj.freeze()
            for _ in range(4):
                k = int(rng.integers(0, fam.seed_len + 1))
                prefix = int(rng.integers(0, 1 << max(1, k))) & \
                    ((1 << k) - 1)
                obj.reset()
                if k:
                    obj.eval_block(k)
                    obj.commit(prefix, k)
                got = Fraction(obj.expectation_num(), 1 << obj.denom_log2)
                want = self._brute_conditional(fam, events, prefix, k)
                assert got == want

    def test_template_terms_match_plain(self):
        fam = HashFamily(3, 3, 2)
        bm = fam.bit_masks_vec(np.arange(8))
        u, v, nbits = 2, 5, 2
        masks = [int(bm[u, t]) for t in range(nbits)] + \
                [int(bm[v, t]) for t in range(nbits)]
        template = EchelonTemplate(np.array([masks], dtype=np.uint64))
        pairs = [(0, 1), (3, 2), (1, 1)]
        obj_a = AffineObjective(fam.seed_len)
        obj_b = AffineObjective(fam.seed_len)
        rhs = []
        for ku, kv in pairs:
            rows = value_rows(bm[u], list(range(nbits)), ku) + \
                value_rows(bm[v], list(range(nbits)), kv)
            obj_a.add_term(u, -1, rows)
            rhs.append(ku | (kv << nbits))
        obj_b.add_terms(template, [0] * len(pairs), [u] * len(pairs),
                        [-1] * len(pairs), np.array(rhs, dtype=np.uint64))
        obj_a.freeze()
        obj_b.freeze()
        for k in range(fam.seed_len + 1):
            for prefix in (0, (1 << k) - 1):
                for o in (obj_a, obj_b):
                    o.reset()
                    if k:
                        o.eval_block(k)
                        o.commit(prefix & ((1 << k) - 1), k)
                va = Fraction(obj_a.expectation_num(),
                              1 << obj_a.denom_log2)
                vb = Fraction(obj_b.expectation_num(),
                              1 << obj_b.denom_log2)
                assert va == vb

    def test_search_dominance_exact(self):
        fam = HashFamily(3, 3, 2)
        bm = fam.bit_masks_vec(np.arange(8))
        rng = np.random.default_rng(11)
        for _ in range(8):
            obj = AffineObjective(fam.seed_len)
            events = []
            for _ in range(7):
                node = int(rng.integers(0, 8))
                coef = int(rng.integers(-2, 5))
                nb = int(rng.integers(1, 4))
                want = int(rng.integers(0, 1 << nb))
                obj.add_term(node, coef,
                             value_rows(bm[node], list(range(nb)), want))
                events.append((node, coef, want, nb))
            obj.freeze()
            seed = cond_exp_search(obj, fam.seed_len, 2)

            def value_of(s):
                return sum(c for node, c, want, nb in events
                           if fam.eval(s, node) & ((1 << nb) - 1) == want)
            vals = [value_of(s) for s in range(1 << fam.seed_len)]
            assert Fraction(value_of(seed.bits)) >= \
                Fraction(sum(vals), len(vals))


class TestPackedEvaluation:
    """eval_block, commit and the searches against brute-force enumeration
    over all 2^12 seeds; chunks of 1..10 bits cover one-word bitsets
    (under 64 assignments) and multi-word ones."""

    fam = HashFamily(4, 4, 3)

    def _objective(self, rng_seed, n_terms=40):
        rng = np.random.default_rng(rng_seed)
        bm = self.fam.bit_masks_vec(np.arange(16))
        obj = AffineObjective(self.fam.seed_len)
        terms = []
        for _ in range(n_terms):
            node = int(rng.integers(0, 16))
            coef = int(rng.integers(-3, 4))
            rows = []
            for v in rng.choice(16, size=int(rng.integers(1, 3)),
                                replace=False):
                nb = int(rng.integers(1, 5))
                rows += value_rows(bm[v], list(range(nb)),
                                   int(rng.integers(0, 1 << nb)))
            obj.add_term(node, coef, rows)
            terms.append((node, coef, rows))
        obj.freeze()
        return obj, terms

    def _values(self, terms, node=None):
        """Objective value of every seed, from the raw parity rows."""
        seeds = np.arange(1 << self.fam.seed_len, dtype=np.uint64)
        f = np.zeros(len(seeds), dtype=np.int64)
        for v, coef, rows in terms:
            if node is not None and v != node:
                continue
            holds = np.ones(len(seeds), dtype=bool)
            for mask, rhs in rows:
                holds &= (np.bitwise_count(seeds & np.uint64(mask))
                          & 1) == rhs
            f += coef * holds
        return f

    def _scaled(self, obj, f, k1):
        """Brute-force conditional sums over seeds sharing their low k1
        bits, at the objective's scale: (sum over 2^(L-k1) seeds) *
        2^denom_log2, to compare with numerator * 2^(L-k1)."""
        sums = f.reshape(-1, 1 << k1).sum(axis=0)
        return [int(x) << obj.denom_log2 for x in sums]

    def _conditioned(self, obj, prefix, k):
        obj.reset()
        if k:
            obj.eval_block(k)
            obj.commit(prefix, k)

    def test_eval_block_and_commit_match_enumeration(self):
        L = self.fam.seed_len
        rng = np.random.default_rng(3)
        for trial in range(4):
            obj, terms = self._objective(100 + trial)
            f = self._values(terms)
            for width in range(1, 11):
                k = int(rng.integers(0, L - width + 1))
                prefix = int(rng.integers(0, 1 << k)) if k else 0
                k1 = k + width
                want = self._scaled(obj, f, k1)
                scale = 1 << (L - k1)
                self._conditioned(obj, prefix, k)
                vals = obj.eval_block(width)
                assert [int(x) * scale for x in vals] == \
                    [want[prefix | (b << k)] for b in range(1 << width)]
                nodes, per_node = obj.node_eval_block(width)
                assert np.array_equal(per_node.sum(axis=0), vals)
                for i, v in enumerate(nodes):
                    mine = self._scaled(obj, self._values(terms, v), k1)
                    assert [int(x) * scale for x in per_node[i]] == \
                        [mine[prefix | (b << k)] for b in range(1 << width)]
                b = int(rng.integers(0, 1 << width))
                obj.commit(b, width)
                assert obj.expectation_num() * scale == \
                    want[prefix | (b << k)]

    def test_distributed_equals_offline_affine(self):
        L = self.fam.seed_len
        for z in (1, 3, 5, 6, 7, 10):
            for minimize in (False, True):
                off_obj, terms = self._objective(z)
                dist_obj, _ = self._objective(z)
                off = cond_exp_search(off_obj, L, z, minimize=minimize)
                dist = distributed_seed_agreement(
                    Simulator(1024, Config()), dist_obj, L, z,
                    minimize=minimize)
                assert off.bits == dist.bits
                f = self._values(terms)
                mean = Fraction(int(f.sum()), len(f))
                got = Fraction(int(f[off.bits]))
                assert got <= mean if minimize else got >= mean


_MASKS = st.one_of(st.just(0), st.integers(0, 63).map(lambda b: 1 << b),
                  st.integers(1 << 53, (1 << 64) - 1),
                  st.integers(0, (1 << 64) - 1))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_template_matches_solve_parity_rows(data):
    """The batched kernel against the scalar reduction, system by system:
    echelon rows, pivots, reduced rhs and satisfiability, from no systems
    up to 64 rows each.  Rows come from a small pool (zero rows,
    duplicates, masks above 2^53 and at bit 63) or XOR earlier rows, so
    dependent rows with odd rhs contradict."""
    n_rows = data.draw(st.one_of(st.integers(0, 12), st.integers(13, 64)))
    pool = data.draw(st.lists(_MASKS, min_size=1, max_size=5)) + \
        [data.draw(st.integers(1 << 53, (1 << 64) - 1))]
    systems = []
    for _ in range(data.draw(st.integers(0, 5))):
        rows = []
        for _ in range(n_rows):
            if rows and data.draw(st.booleans()):
                rows.append(data.draw(st.sampled_from(rows))
                            ^ data.draw(st.sampled_from(rows)))
            else:
                rows.append(data.draw(st.sampled_from(pool)))
        systems.append(rows)
    template = EchelonTemplate(
        np.array(systems, dtype=np.uint64).reshape(len(systems), n_rows))
    assert len(template.rank) == len(systems)
    which = data.draw(st.lists(st.integers(0, len(systems) - 1),
                               min_size=1, max_size=8)) if systems else []
    rhs = [data.draw(st.integers(0, (1 << n_rows) - 1)) for _ in which]
    ok, row_of, out_rhs = template.reduce_rhs(
        np.array(which), np.array(rhs, dtype=np.uint64))
    at = 0
    for b, s in enumerate(which):
        rows = [(m, rhs[b] >> i & 1) for i, m in enumerate(systems[s])]
        want, sat = solve_parity_rows(rows)
        plain, _ = solve_parity_rows([(m, 0) for m in systems[s]])
        mine = slice(at, at + int(template.rank[s]))
        at = mine.stop
        assert [int(m) for m in template.out_masks[row_of[mine]]] == \
            [m for m, _ in plain]
        assert template.out_pivots[row_of[mine]].tolist() == \
            [m.bit_length() - 1 for m, _ in plain]
        assert bool(ok[b]) == sat
        if sat:
            assert [(int(template.out_masks[r]), int(v)) for r, v in
                    zip(row_of[mine], out_rhs[mine])] == want


def test_template_rejects_65_rows():
    with pytest.raises(ValueError):
        EchelonTemplate(np.ones((2, 65), dtype=np.uint64))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_template_zero_padding_invariant(data):
    """Zero columns on the right change no echelon row, pivot, verdict or
    reduced rhs: the property that lets systems of different widths
    share one template."""
    n_rows = data.draw(st.integers(0, 20))
    pad = data.draw(st.integers(0, 64 - n_rows))
    n_sys = data.draw(st.integers(0, 5))
    masks = np.array([[data.draw(_MASKS) for _ in range(n_rows)]
                      for _ in range(n_sys)],
                     dtype=np.uint64).reshape(n_sys, n_rows)
    rhs = np.array([data.draw(st.integers(0, (1 << n_rows) - 1))
                    for _ in range(n_sys)], dtype=np.uint64)
    systems = np.arange(n_sys)
    base = EchelonTemplate(masks)
    padded = EchelonTemplate(np.pad(masks, ((0, 0), (0, pad))))
    assert np.array_equal(base.rank, padded.rank)
    assert np.array_equal(base.out_masks, padded.out_masks)
    assert np.array_equal(base.out_pivots, padded.out_pivots)
    for a, b in zip(base.reduce_rhs(systems, rhs),
                    padded.reduce_rhs(systems, rhs)):
        assert np.array_equal(a, b)


def test_solve_parity_rows_consistency():
    rows, sat = solve_parity_rows([(0b11, 1), (0b01, 0), (0b10, 1)])
    assert sat and len(rows) == 2
    _, sat2 = solve_parity_rows([(0b11, 1), (0b01, 0), (0b10, 0)])
    assert not sat2  # 0 = 1 contradiction
