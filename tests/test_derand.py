"""Hash family and conditional-expectation search: exhaustive oracles."""

import copy
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccclique import derand
from ccclique.config import Config
from ccclique.derand import (AffineObjective, HashFamily, _mask_table,
                             chunk_bits, distributed_seed_agreement,
                             owns_leaders)
from ccclique.errors import ChunkTooWide
from ccclique.gf2 import (EchelonTemplate, column_masks_vec, gf_mul,
                          gf_mul_vec, irreducible_poly, solve_parity_rows)
from ccclique.sim import Simulator
from oracles import TableObjective, cond_exp_search, make_corpus


def value_rows(bit_masks: np.ndarray, bits: list[int], value: int):
    """Parity rows pinning the listed output bits of one node to `value`:
    `bit_masks` is that node's (beta,) mask row, and bit t of `value`
    corresponds to bits[t]."""
    return [(int(bit_masks[t]), (value >> i) & 1)
            for i, t in enumerate(bits)]


def conditioned(obj: AffineObjective, prefix: int, k: int):
    """A copy of the frozen `obj` with its low k seed bits fixed to
    `prefix`; `obj` itself stays unconditioned."""
    out = copy.deepcopy(obj)
    if k:
        out.eval_block(k)
        out.commit(prefix, k)
    return out


def add_term(obj: AffineObjective, node: int, coef: int, rows) -> None:
    """Add coef * [all rows hold] to `obj`, one term through its own
    template; rows are (mask, rhs) parities."""
    masks = np.array([[int(m) for m, _ in rows]], dtype=np.uint64)
    rhs = sum((int(r) & 1) << i for i, (_, r) in enumerate(rows))
    obj.add_terms(EchelonTemplate(masks), [0], [node], [coef],
                  np.array([rhs], dtype=np.uint64))


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


@given(st.integers(1, 8), st.integers(1, 16), st.integers(1, 6),
       st.integers(0, 2 ** 96 - 1))
@example(4, 16, 4, 2 ** 64 - 1)  # seed_len = 64
@example(3, 9, 2, 0x2ABCD)       # beta > gamma, so k = beta
@example(5, 2, 1, 0b10111)       # d = 1: a constant function
@example(4, 16, 5, 2 ** 80 - 3)  # seed_len 80: Horner, no masks
@settings(max_examples=60, deadline=None)
def test_vector_forms_match_scalar_eval(gamma, beta, d, seed):
    fam = HashFamily(gamma, beta, d)
    xs = np.arange(1 << gamma)
    want = [fam.eval(seed, x) for x in range(1 << gamma)]
    assert fam.eval_vec(seed, xs).tolist() == want
    if fam.seed_len > 64:
        with pytest.raises(ValueError):
            fam.bit_masks_vec(xs)
        return
    odd = np.bitwise_count(fam.bit_masks_vec(xs)
                           & np.uint64(seed & ((1 << fam.seed_len) - 1))) & 1
    assert (odd.astype(np.int64) << np.arange(beta)).sum(axis=1).tolist() \
        == want


@pytest.mark.parametrize("fam", [HashFamily(3, 3, 2), HashFamily(3, 17, 4)],
                         ids=["table", "horner"])
@pytest.mark.parametrize("xs", [[9, 12], [8], [-1], [3, -2]])
def test_vector_forms_reject_ids_outside_gamma_bits(fam, xs):
    with pytest.raises(ValueError, match="outside gamma bits"):
        fam.eval_vec(0b101011, xs)
    if fam.seed_len <= 64:
        with pytest.raises(ValueError, match="outside gamma bits"):
            fam.bit_masks_vec(xs)


def test_mask_table_is_read_only():
    fam = HashFamily(3, 3, 2)
    table = _mask_table(3, 3, 2)
    assert table.shape == (8, 3) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    # gathered rows are copies: writing them leaves later reads intact
    masks = fam.bit_masks_vec(np.arange(8))
    want = masks.copy()
    masks[:] = 0
    assert np.array_equal(fam.bit_masks_vec(np.arange(8)), want)


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
        assert obj.value_of(seed.bits) >= obj.exhaustive_mean()


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


def test_owns_leaders_matches_agreement():
    # an instance owns its leaders exactly when the agreement at the
    # widest chunk chunk_bits gives it raises no ChunkTooWide; instance 1
    # does not at n <= 3
    tables = {0: np.zeros(2 ** 8, dtype=np.int64)}
    for n in range(2, 41):
        for i in range(6):
            try:
                distributed_seed_agreement(
                    Simulator(n, Config()), TableObjective(tables, 8), 8,
                    chunk_bits(n, 8, i), instance_id=i)
                ok = True
            except ChunkTooWide:
                ok = False
            assert owns_leaders(n, i) == ok, (n, i)
    assert not owns_leaders(3, 1) and owns_leaders(4, 1)


def test_chunk_bits_bounds():
    # instance 0: floor(log2 n), capped by the seed length and at 20
    for n, seed_len, z in ((1, 30, 1), (2, 30, 1), (4, 30, 2), (100, 30, 6),
                           (5000, 30, 12), (16384, 30, 14), (16384, 9, 9),
                           (1 << 24, 64, 20), (1024, 1, 1)):
        assert chunk_bits(n, seed_len) == z
        assert (1 << z) <= max(2, n)
    # other instances run beside instance 0: half the width, at least 1
    for n, seed_len, z in ((2, 30, 1), (4, 30, 1), (100, 30, 3),
                           (5000, 30, 6), (16384, 30, 7), (16384, 5, 5),
                           (1 << 24, 64, 12)):
        for instance_id in (1, 7):
            assert chunk_bits(n, seed_len, instance_id) == z


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
                add_term(obj, node, coef,
                         value_rows(bm[node], list(range(nb)), want))
                events.append((node, coef, want, nb))
            obj.freeze()
            for _ in range(4):
                k = int(rng.integers(0, fam.seed_len + 1))
                prefix = int(rng.integers(0, 1 << max(1, k))) & \
                    ((1 << k) - 1)
                c = conditioned(obj, prefix, k)
                got = Fraction(c.expectation_num(), 1 << c.denom_log2)
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
            add_term(obj_a, u, -1, rows)
            rhs.append(ku | (kv << nbits))
        obj_b.add_terms(template, [0] * len(pairs), [u] * len(pairs),
                        [-1] * len(pairs), np.array(rhs, dtype=np.uint64))
        obj_a.freeze()
        obj_b.freeze()
        for k in range(fam.seed_len + 1):
            for prefix in (0, (1 << k) - 1):
                a, b = (conditioned(o, prefix & ((1 << k) - 1), k)
                        for o in (obj_a, obj_b))
                va = Fraction(a.expectation_num(), 1 << a.denom_log2)
                vb = Fraction(b.expectation_num(), 1 << b.denom_log2)
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
                add_term(obj, node, coef,
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
            add_term(obj, node, coef, rows)
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
                c = conditioned(obj, prefix, k)
                vals = c.eval_block(width)
                assert [int(x) * scale for x in vals] == \
                    [want[prefix | (b << k)] for b in range(1 << width)]
                nodes, per_node = c.node_eval_block(width)
                assert np.array_equal(per_node.sum(axis=0), vals)
                for i, v in enumerate(nodes):
                    mine = self._scaled(obj, self._values(terms, v), k1)
                    assert [int(x) * scale for x in per_node[i]] == \
                        [mine[prefix | (b << k)] for b in range(1 << width)]
                b = int(rng.integers(0, 1 << width))
                c.commit(b, width)
                assert c.expectation_num() * scale == \
                    want[prefix | (b << k)]

    def test_blocked_eval_matches_enumeration(self, monkeypatch):
        # 64 cells per block, 8 for one-word failure sets: a chunk of 3
        # or more bits weighs one term per block, so those widths span
        # as many blocks as stage terms
        monkeypatch.setattr(derand, "_EVAL_BLOCK_CELLS", 64)
        self.test_eval_block_and_commit_match_enumeration()
        self.test_distributed_equals_offline_affine()

    def test_weight_classes_spanning_blocks_match_enumeration(
            self, monkeypatch):
        # single-row terms with coefficients 1, 2 and 3 pinning one hash
        # bit each: the 8-bit chunk [4, 12) holds three weight classes,
        # each larger than the 3 terms a 3 * 2^8-cell block holds, so
        # every class is weighed across block boundaries
        monkeypatch.setattr(derand, "_EVAL_BLOCK_CELLS", 3 << 8)
        L, k, width = self.fam.seed_len, 4, 8
        rng = np.random.default_rng(7)
        bm = self.fam.bit_masks_vec(np.arange(16))
        obj = AffineObjective(L)
        terms = []
        for i in range(60):
            node, t = int(rng.integers(0, 16)), int(rng.integers(0, 4))
            rows = value_rows(bm[node], [t], int(rng.integers(0, 2)))
            add_term(obj, node, 1 + i % 3, rows)
            terms.append((node, 1 + i % 3, rows))
        obj.freeze()
        f = self._values(terms)
        want = self._scaled(obj, f, k + width)
        for prefix in (0, 5, 15):
            c = conditioned(obj, prefix, k)
            stage = c._stage(width)
            _, sizes = np.unique(c._weights(stage)[stage.terms],
                                 return_counts=True)
            assert (sizes > 3).sum() >= 3
            vals = c.eval_block(width)
            assert [int(x) for x in vals] == \
                [want[prefix | (b << k)] for b in range(1 << width)]
            nodes, per_node = c.node_eval_block(width)
            for i, v in enumerate(nodes):
                mine = self._scaled(obj, self._values(terms, v), k + width)
                assert [int(x) for x in per_node[i]] == \
                    [mine[prefix | (b << k)] for b in range(1 << width)]
            b = int(rng.integers(0, 1 << width))
            c.commit(b, width)
            assert c.expectation_num() == want[prefix | (b << k)]

    def test_wide_eval_memory_grows_with_rows_not_cells(self, monkeypatch):
        """One eval_block at width 12 with 8x the stage terms: the traced
        peak may grow by O(rows) arrays, not by a packed failure row per
        term (2^12 / 8 = 512 bytes), and stays within the block bound plus
        a few 2^12-entry int64 vectors plus 128 bytes per stage row."""
        cells = 1 << 14
        monkeypatch.setattr(derand, "_EVAL_BLOCK_CELLS", cells)
        L = width = 12

        def peak(n_terms):
            rng = np.random.default_rng(5)
            obj = AffineObjective(L)
            obj.add_terms(
                EchelonTemplate(rng.integers(1, 1 << L, size=(n_terms, 2),
                                             dtype=np.uint64)),
                np.arange(n_terms), rng.integers(0, 64, n_terms),
                rng.choice([1, 2, 5], n_terms),
                rng.integers(0, 4, n_terms, dtype=np.uint64))
            obj.freeze()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                obj.eval_block(width)
                used = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            return used, len(obj.row_term)

        small, rows_small = peak(256)
        big, rows_big = peak(8 * 256)
        assert rows_big > 7 * rows_small
        assert big - small <= 128 * (rows_big - rows_small)
        assert big <= 4 * cells + 4 * 8 * (1 << width) + 128 * rows_big

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
