"""Exact resonance-polynomial algebra and factorization enumeration."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from kdvlab import resonance
from kdvlab.resonance import (
    FreqTuple,
    ResonantTupleError,
    alpha_n,
    p_n,
    prefactor,
    q_n,
    verify_factorization,
)


class TestPn:
    def test_classical_identity_j1(self):
        # x^3 + y^3 + z^3 = 3xyz on the zero-sum plane
        assert p_n((1, 2, -3), 1) == -18
        assert p_n((1, 2, -3), 1) == 3 * 1 * 2 * (-3)

    def test_direct_evaluation_j2(self):
        assert p_n((1, 1, -2), 2) == 1 + 1 - 2**5

    def test_pairwise_cancellation(self):
        assert p_n((1, -1, 2, -2), 3) == 0

    def test_rational_entries(self):
        value = p_n((Fraction(1, 2), Fraction(1, 2), -1), 1)
        assert value == Fraction(1, 8) + Fraction(1, 8) - 1

    def test_permutation_invariance(self):
        for j in (1, 2, 3):
            assert p_n((3, -5, 2), j) == p_n((2, 3, -5), j) == p_n((-5, 2, 3), j)

    def test_scaling_homogeneity(self):
        lam = Fraction(3, 7)
        base = p_n((1, 2, -3), 2)
        scaled = p_n((lam, 2 * lam, -3 * lam), 2)
        assert scaled == lam**5 * base

    def test_rejects_off_hyperplane(self):
        with pytest.raises(ValueError):
            p_n((1, 2, 3), 1)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            p_n((1.0, 2.0, -3.0), 1)

    def test_rejects_zero_entry_without_flag(self):
        with pytest.raises(ValueError):
            p_n((0, 1, -1), 1)
        assert p_n((0, 1, -1), 1, allow_zero=True) == 0


class TestQn:
    def test_q3_j1_constant(self):
        assert q_n((1, 2, -3), 1) == 3

    def test_q3_j2_value(self):
        assert q_n((1, 1, -2), 2) == Fraction(-30, -2)

    def test_q4_j1_value(self):
        # P4 = -180, prefactor (x+y)(x+z)(x+w) = 3*4*(-5)
        assert p_n((1, 2, 3, -6), 1) == -180
        assert prefactor((1, 2, 3, -6), 1) == -60
        assert q_n((1, 2, 3, -6), 1) == 3

    def test_resonant_prefactor_signalled(self):
        with pytest.raises(ResonantTupleError):
            q_n((2, -2, 5, -5), 1)


class TestAlpha:
    def test_purely_imaginary(self):
        a = alpha_n((1, 2, -3), 1)
        assert a.real == 0.0 and a.imag == -18.0

    def test_resonant_pairs_vanish(self):
        for j in (1, 2, 3):
            assert alpha_n((4, -4, 7, -7), j) == 0

    def test_j2_value(self):
        assert alpha_n((1, 1, -2), 2) == -30j


class TestFreqTuple:
    def test_valid(self):
        t = FreqTuple((1, 2, -3), j=1)
        assert t.n == 3 and p_n(t) == -18

    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            FreqTuple((1, 1, 1), j=1)

    def test_degenerate_probe_flag(self):
        t = FreqTuple((0, 3, -3), j=2, allow_zero=True)
        assert p_n(t) == 0


class TestVerifyFactorization:
    def test_j1_gamma3_ratio_is_three(self):
        rep = verify_factorization(1, 64, arity=3)
        assert rep.ok
        assert rep.min_ratio == rep.max_ratio == 3

    def test_j1_gamma4_ratio_is_three(self):
        rep = verify_factorization(1, 12, arity=4)
        assert rep.ok
        assert rep.min_ratio == rep.max_ratio == 3

    def test_j2_exhaustive(self):
        rep = verify_factorization(2, 24, arity=3)
        assert rep.ok and rep.count > 0
        assert rep.min_ratio > 0 and rep.max_ratio < Fraction(10**9)

    def test_j3_gamma4(self):
        rep = verify_factorization(3, 8, arity=4)
        assert rep.ok
        assert rep.min_ratio > 0

    def test_small_K_rejected(self):
        with pytest.raises(ValueError):
            verify_factorization(1, 1)

    @pytest.mark.parametrize("j", [0, -1])
    def test_small_j_rejected(self, j):
        with pytest.raises(ValueError, match=f"j must be >= 1, got {j}"):
            verify_factorization(j, 4)


def scalar_rows(j, K, arity):
    """Reference rows from nested loops and the scalar Fraction API."""
    rng = [k for k in range(-K, K + 1) if k != 0]
    rows = []
    for free in product(rng, repeat=arity - 1):
        t = free + (-sum(free),)
        if t[-1] == 0 or abs(t[-1]) > K or prefactor(t, j) == 0:
            continue
        q = q_n(t, j)
        ratio = abs(q) / Fraction(max(abs(e) for e in t)) ** (2 * j - 2)
        rows.append((t, p_n(t, j), q, ratio))
    return rows


class TestVerifierRows:
    @pytest.mark.parametrize(
        "j, K, arity",
        [(1, 7, 3), (2, 7, 3), (3, 7, 3), (1, 5, 4), (2, 5, 4), (3, 5, 4),
         (9, 12, 3), (9, 6, 4), (5, 25, 3), (5, 26, 3)],
    )
    def test_rows_match_scalar_api(self, j, K, arity):
        rep = verify_factorization(j, K, arity=arity)
        ref = scalar_rows(j, K, arity)
        assert rep.ok and rep.count == len(ref) == len(rep.ratio)
        got = zip(rep.tuples.tolist(), rep.p.tolist(), rep.q.tolist(), rep.ratio.tolist())
        for (t, p, q, ratio), (t_ref, p_ref, q_ref, ratio_ref) in zip(got, ref):
            assert tuple(t) == t_ref and p == p_ref and q == q_ref
            assert type(p) is int and type(q) is int
            assert ratio == float(ratio_ref)
        exact = [r[3] for r in ref]
        assert rep.min_ratio == min(exact) and rep.max_ratio == max(exact)

    def test_dtype_switch_at_2_53(self):
        # 3 * 25^11 < 2^53 <= 3 * 26^11: int64 below, Python ints above
        assert verify_factorization(5, 25).p.dtype == np.int64
        assert verify_factorization(5, 26).p.dtype == object
        assert verify_factorization(9, 12).p.dtype == object

    def test_indivisible_tuples_fail(self, monkeypatch):
        # Off-hyperplane probes: (1, 2, 4) has P = 73, prefactor 8
        fake = (np.array([1, 1]), np.array([2, 1]), np.array([4, 1]))
        monkeypatch.setattr(resonance, "_hyperplane_tuples", lambda n, K: fake)
        rep = verify_factorization(1, 4)
        assert not rep.ok and rep.count == 2
        assert rep.failures == [((1, 2, 4), 73, 8)]
        assert rep.tuples.tolist() == [[1, 1, 1]] and rep.q.tolist() == [3]


# (n, j, K) with n * K^(2j+1) just below 2^53, so K + 1 is just above it
@pytest.mark.parametrize("n, j, K", [(3, 5, 25), (4, 5, 24), (5, 9, 6)])
def test_pn_int_equals_scalar_p_n_across_the_switch(n, j, K):
    for K_side, dtype in ((K, np.int64), (K + 1, object)):
        idx = resonance._hyperplane_tuples(n, K_side)
        # a spread of tuples, always including one that reaches K_side
        sel = np.unique(np.r_[np.arange(0, idx[0].size, 37), np.argmax(np.abs(idx[0]))])
        cols = [a[sel] for a in idx]
        p = resonance._pn_int(cols, j)
        assert p.dtype == dtype
        expected = [p_n(tuple(row), j) for row in np.stack(cols, axis=1).tolist()]
        assert [int(v) for v in p] == expected

