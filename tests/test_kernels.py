"""Kernel checks: the bit-parallel edit distance, fresh or resumed after a
prefix, and its per-prefix columns equal the former loop and a full-matrix
DP, the E-steps match the former per-pair kernels kept in tests/oracles.py,
and dense ranks equal a sorted-set reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ettmt import _kernels

# pattern lengths on both sides of the 64- and 128-bit word sizes
WORD_EDGES = [1, 2, 63, 64, 65, 127, 128, 129, 150]


def random_id_lists(rnd, max_len=40, vocab=6):
    a = rnd.integers(0, vocab, size=rnd.integers(0, max_len + 1)).tolist()
    b = rnd.integers(0, vocab, size=rnd.integers(0, max_len + 1)).tolist()
    return a, b


def as_int32(seq):
    return np.asarray(seq, dtype=np.int32)


class TestLevenshtein:
    def test_known_values(self):
        cases = [
            ([], [], 0),
            ([], [1, 2], 2),
            ([1, 2, 3], [], 3),
            ([1, 2, 3], [1, 2, 3], 0),
            ([1, 2, 3], [1, 9, 3], 1),
            ([1, 2], [2, 1], 2),
            ([1, 2, 3, 4], [3, 4, 1, 2], 4),
            ([7] * 70, [], 70),
            (list(range(130)), list(range(1, 131)), 2),
            (list(range(129)), list(range(129))[::-1], 128),
            ([1] * 65, [1] * 64 + [2], 1),
        ]
        for a, b, want in cases:
            got = _kernels.levenshtein(a, b)
            assert got == want and type(got) is int
            assert _kernels.levenshtein(as_int32(a), as_int32(b)) == want
            assert _kernels.levenshtein(tuple(map(str, a)), tuple(map(str, b))) == want
            assert oracles.levenshtein_loop(as_int32(a), as_int32(b)) == want
            assert oracles._edit_trace(a, b)[0] == want

    def test_backends_agree_randomized(self):
        """Lists and int32 arrays give the distance of the former loop and
        of the full-matrix DP, also past 64 and 128 reference words."""
        rnd = np.random.default_rng(0)
        for _ in range(300):
            a, b = random_id_lists(rnd, max_len=30, vocab=int(rnd.integers(1, 12)))
            want = oracles.levenshtein_loop(as_int32(a), as_int32(b))
            assert _kernels.levenshtein(a, b) == want
            assert _kernels.levenshtein(as_int32(a), as_int32(b)) == want
        for _ in range(200):
            n, m = (int(rnd.choice(WORD_EDGES)) + int(rnd.integers(-1, 2)) for _ in range(2))
            vocab = int(rnd.integers(1, 40))
            a = rnd.integers(0, vocab, size=max(n, 0)).tolist()
            b = rnd.integers(0, vocab, size=max(m, 0)).tolist()
            want = oracles._edit_trace(a, b)[0]
            assert _kernels.levenshtein(a, b) == want
            assert _kernels.levenshtein(as_int32(a), as_int32(b)) == want

    def test_symmetry(self):
        rnd = np.random.default_rng(1)
        for _ in range(100):
            a, b = random_id_lists(rnd, max_len=int(rnd.choice(WORD_EDGES)))
            assert _kernels.levenshtein(a, b) == _kernels.levenshtein(b, a)

    def test_resume_from_every_prefix(self):
        """Resuming after b[:p] with the column ``columns`` gave for b, for
        any tail after it, equals a fresh distance, also past 64 and 128 words."""
        rnd = np.random.default_rng(2)
        for k in range(60):
            a, b = random_id_lists(rnd, max_len=int(rnd.choice(WORD_EDGES)), vocab=int(rnd.integers(1, 6)))
            if not a:
                continue
            peq = _kernels.bitmasks(a)
            pv, mv, _ = _kernels.columns(peq, len(a), b)
            for p in range(len(b) + 1):
                moved = b[:p] + rnd.permutation(b[p:]).tolist()[: int(rnd.integers(0, len(b) - p + 2))]
                want = _kernels.levenshtein(a, moved)
                assert _kernels.levenshtein(a, moved, (p, peq, pv[p], mv[p])) == want
                if k < 15:
                    assert want == oracles.levenshtein_loop(as_int32(a), as_int32(moved))

    def test_columns_hold_every_prefix(self):
        """Each prefix's distance comes from its column's bits, and bit j of
        ``mh[k]`` marks D[k][j] = D[k - 1][j] - 1, checked against the full DP."""
        rnd = np.random.default_rng(3)
        for _ in range(150):
            a, b = random_id_lists(rnd, max_len=12, vocab=int(rnd.integers(1, 4)))
            if not a:
                continue
            pv, mv, mh = _kernels.columns(_kernels.bitmasks(a), len(a), b)
            assert len(pv) == len(mv) == len(mh) == len(b) + 1
            dp = [[oracles._edit_trace(b[:k], a[:j])[0] for j in range(len(a) + 1)] for k in range(len(b) + 1)]
            for k in range(len(b) + 1):
                assert dp[k][-1] == k + pv[k].bit_count() - mv[k].bit_count()
                for j in range(1, len(a) + 1):
                    assert (pv[k] >> (j - 1) & 1, mv[k] >> (j - 1) & 1) == (
                        dp[k][j] - dp[k][j - 1] == 1, dp[k][j] - dp[k][j - 1] == -1)
                    if k:
                        assert bool(mh[k] >> j & 1) == (dp[k][j] - dp[k - 1][j] == -1)


def _random_em_problem(rnd, n_pairs=6, src_vocab=5, tgt_vocab=7, max_src=4, max_tgt=4):
    src_flat, tgt_flat = [], []
    src_indptr = np.zeros(n_pairs + 1, dtype=np.int64)
    tgt_indptr = np.zeros(n_pairs + 1, dtype=np.int64)
    cooc = [set() for _ in range(src_vocab + 1)]
    pairs = []
    for p in range(n_pairs):
        f = [0] + list(rnd.integers(1, src_vocab + 1, size=rnd.integers(1, max_src + 1)))
        e = list(rnd.integers(0, tgt_vocab, size=rnd.integers(1, max_tgt + 1)))
        pairs.append((f, e))
        src_flat.extend(f)
        tgt_flat.extend(e)
        src_indptr[p + 1] = len(src_flat)
        tgt_indptr[p + 1] = len(tgt_flat)
        for fi in f:
            cooc[fi].update(e)
    indptr = np.zeros(src_vocab + 2, dtype=np.int64)
    cols = []
    for fi, row in enumerate(cooc):
        ordered = sorted(row)
        indptr[fi + 1] = indptr[fi] + len(ordered)
        cols.extend(ordered)
    cols = np.asarray(cols, dtype=np.int32)
    vals = rnd.uniform(0.1, 1.0, size=len(cols))
    for fi in range(src_vocab + 1):
        lo, hi = indptr[fi], indptr[fi + 1]
        if hi > lo:
            vals[lo:hi] /= vals[lo:hi].sum()
    return (
        np.asarray(src_flat, dtype=np.int32),
        src_indptr,
        np.asarray(tgt_flat, dtype=np.int32),
        tgt_indptr,
        indptr,
        cols,
        vals,
        pairs,
    )


def _align_bases(rnd, pairs):
    """Random position-table values laid out one block per (l_e, l_f + 1)."""
    offsets = {}
    size = 0
    for f, e in pairs:
        shape = (len(e), len(f))
        if shape not in offsets:
            offsets[shape] = size
            size += shape[0] * shape[1]
    bases = np.array([offsets[(len(e), len(f))] for f, e in pairs], dtype=np.int64)
    return bases, rnd.uniform(0.1, 1.0, size=size)


def _links(problem, bases=None):
    src_flat, src_indptr, tgt_flat, tgt_indptr, indptr, cols, _, _ = problem
    t_indptr, t_cols, links = _kernels.build_links(
        src_flat, src_indptr, tgt_flat, tgt_indptr, len(indptr) - 1, bases
    )
    assert np.array_equal(t_indptr, indptr)
    assert np.array_equal(t_cols, cols)
    return links


class TestEstepBackends:
    """The link-array E-steps against the former per-pair loops.

    The loops add in another order than numpy does, hence the tolerances.
    """

    def test_ibm1_agreement(self):
        rnd = np.random.default_rng(7)
        for _ in range(20):
            problem = _random_em_problem(rnd)
            src_flat, src_indptr, tgt_flat, tgt_indptr, indptr, cols, vals, _ = problem
            c1 = np.zeros_like(vals)
            r1 = np.zeros(len(src_flat))
            ll1 = _kernels.ibm1_estep(_links(problem), vals, c1, r1)
            c2 = np.zeros_like(vals)
            r2 = np.zeros(len(src_flat))
            ll2 = oracles.ibm1_estep_loop(src_flat, src_indptr, tgt_flat, tgt_indptr, indptr, cols, vals, c2, r2)
            assert ll1 == pytest.approx(ll2, abs=1e-9)
            np.testing.assert_allclose(c1, c2, atol=1e-12)
            np.testing.assert_allclose(r1, r2, atol=1e-12)

    def test_ibm2_agreement(self):
        rnd = np.random.default_rng(11)
        for _ in range(20):
            problem = _random_em_problem(rnd)
            src_flat, src_indptr, tgt_flat, tgt_indptr, indptr, cols, vals, pairs = problem
            bases, a_vals = _align_bases(rnd, pairs)
            c1 = np.zeros_like(vals)
            a1 = np.zeros_like(a_vals)
            r1 = np.zeros(len(src_flat))
            ll1 = _kernels.ibm2_estep(_links(problem, bases), vals, a_vals, c1, a1, r1)
            c2 = np.zeros_like(vals)
            a2 = np.zeros_like(a_vals)
            r2 = np.zeros(len(src_flat))
            ll2 = oracles.ibm2_estep_loop(
                src_flat, src_indptr, tgt_flat, tgt_indptr, bases, indptr, cols, vals, a_vals, c2, a2, r2
            )
            assert ll1 == pytest.approx(ll2, abs=1e-9)
            np.testing.assert_allclose(c1, c2, atol=1e-12)
            np.testing.assert_allclose(a1, a2, atol=1e-12)
            np.testing.assert_allclose(r1, r2, atol=1e-12)

    @pytest.mark.parametrize("n_pairs", [1, 50, 4096])
    def test_equal_to_numpy_oracle_exactly(self, n_pairs):
        """Sentences of up to 20 words reach numpy's pairwise sums; no tolerance.

        One pair, a few dozen and a few thousand pairs in one flat link array.
        """
        rnd = np.random.default_rng(13)
        for _ in range(max(1, 300 // n_pairs)):
            problem = _random_em_problem(rnd, n_pairs=n_pairs, src_vocab=8, tgt_vocab=9, max_src=20, max_tgt=20)
            src_flat, src_indptr, tgt_flat, tgt_indptr, indptr, cols, vals, pairs = problem
            bases, a_vals = _align_bases(rnd, pairs)
            layout = (src_flat, src_indptr, tgt_flat, tgt_indptr)
            links = _links(problem, bases)
            got = [np.zeros_like(vals), np.zeros(len(src_flat))]
            want = [np.zeros_like(vals), np.zeros(len(src_flat))]
            assert _kernels.ibm1_estep(links, vals, *got) == oracles.ibm1_estep_np(*layout, indptr, cols, vals, *want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            got = [np.zeros_like(vals), np.zeros_like(a_vals), np.zeros(len(src_flat))]
            want = [np.zeros_like(vals), np.zeros_like(a_vals), np.zeros(len(src_flat))]
            ll = _kernels.ibm2_estep(links, vals, a_vals, *got)
            assert ll == oracles.ibm2_estep_np(*layout, bases, indptr, cols, vals, a_vals, *want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestSegments:
    def test_equal_to_one_dimensional_sums(self):
        rnd = np.random.default_rng(5)
        values = rnd.uniform(0.0, 1.0, 5000) * 10.0 ** rnd.integers(-6, 3, 5000)
        lengths = rnd.choice([0, 1, 2, 7, 8, 9, 15, 16, 17, 128, 129, 300], size=200)
        starts = rnd.integers(0, len(values) - 300, size=200)
        want = [values[s : s + n].sum() for s, n in zip(starts, lengths)]
        assert _kernels.Segments(starts, lengths).sums(values).tolist() == want

    def test_no_segments(self):
        empty = np.zeros(0, dtype=np.int64)
        assert len(_kernels.Segments(empty, empty).sums(np.ones(3))) == 0


class TestDenseRank:
    """`dense_rank` against `oracles.oracle_dense_rank`, compared with ==, for the int64
    n-gram keys of BLEU / chr-F and the float64 scores of a naive-Bayes cost row."""

    @staticmethod
    def _assert_oracle(keys):
        ranks, kinds = _kernels.dense_rank(keys)
        assert ranks.dtype == np.int64
        assert (ranks.tolist(), kinds) == oracles.oracle_dense_rank(keys.tolist())

    @pytest.mark.parametrize("size", [1, 2, 7, 16, 17, 100, 2048, 2333, 5000])
    @pytest.mark.parametrize("distinct", [1, 3, 83, 10**6])
    def test_int64_keys_with_ties(self, size, distinct):
        rnd = np.random.default_rng(size * 7 + distinct)
        self._assert_oracle(rnd.integers(-distinct, distinct, size=size, dtype=np.int64))

    @pytest.mark.parametrize("size", [1, 2, 7, 16, 17, 100, 2048, 2333, 5000])
    def test_float64_scores_with_ties_and_minus_inf(self, size):
        # as in a cost row: shifted log scores <= 0 with few distinct values, some -inf, one 0.0
        rnd = np.random.default_rng(size)
        keys = -rnd.choice(rnd.exponential(20.0, size=83), size=size)
        keys[rnd.random(size) < 0.1] = -math.inf
        keys[rnd.integers(size)] = 0.0
        self._assert_oracle(keys)

    def test_single_key(self):
        for keys in (np.array([5], dtype=np.int64), np.array([-math.inf]), np.array([0.0])):
            ranks, kinds = _kernels.dense_rank(keys)
            assert ranks.tolist() == [0] and kinds == 1

    def test_all_equal_and_all_distinct(self):
        self._assert_oracle(np.full(5000, -math.inf))
        self._assert_oracle(np.full(5000, 7, dtype=np.int64))
        self._assert_oracle(np.arange(5000, 0, -1, dtype=np.int64))

    def test_signed_zeros_share_a_rank(self):
        ranks, kinds = _kernels.dense_rank(np.array([0.0, -0.0, -1.0, -0.0, 0.0]))
        assert ranks.tolist() == [1, 1, 0, 1, 1] and kinds == 2

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.one_of(
        st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=300),
        st.lists(st.integers(-3, 3), min_size=1, max_size=300),
        st.lists(st.floats(allow_nan=False, allow_infinity=True), min_size=1, max_size=300),
        st.lists(st.sampled_from([-math.inf, -1.5, -0.0, 0.0, -1e-300]), min_size=1, max_size=300),
    ))
    def test_equal_to_oracle(self, keys):
        self._assert_oracle(np.array(keys, dtype=np.float64 if isinstance(keys[0], float) else np.int64))
