"""Exact resonance-polynomial algebra and factorization enumeration."""

import inspect
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from kdvlab import imethod, resonance
from kdvlab.imethod import IMultiplier
from kdvlab.resonance import _pn_int, verify_factorization
from kdvlab.spectral import make_grid
from lattice_reference import hyperplane, nested_loop_rows


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


def walked(*args):
    """verify_factorization(*args)'s report, and the pieces it passed to its sink."""
    pieces = []
    return verify_factorization(*args, sink=pieces.append), pieces


def joined(pieces):
    """Pieces joined: their rows' tuples, P_n, Q_n and ratios."""
    return tuple(np.concatenate(cols) for cols in zip(*pieces))


# hand-computed P_n and prefactors, x*y*z on Gamma_3 and (x+y)(x+z)(x+w) on
# Gamma_4 (0: a resonant tuple, which the report drops), on the path the lab
# runs: _pn_int, and Q_n = P_n / prefactor from the verifier's rows at K=6,
# the same at every permutation of the tuple
@pytest.mark.parametrize("t, j, p, pref", [
    ((1, 2, -3), 1, -18, -6),  # x^3 + y^3 + z^3 = 3xyz
    ((1, 1, -2), 2, -30, -2),
    ((1, -1, 2, -2), 3, 0, 0),  # cancelling pairs
    ((1, 2, 3, -6), 1, -180, -60),  # Q_4 = 3
    ((3, -5, 2), 3, -75810, -30),
], ids=["3xyz", "p3-j2", "cancelling-pairs", "q4-is-3", "permutations"])
def test_hand_computed_identities(t, j, p, pref):
    perms = sorted(set(permutations(t)))
    assert _pn_int(np.array(perms).T, j).tolist() == [p] * len(perms)
    tuples, ps, qs, _ = joined(walked(j, 6, len(t))[1])
    rows = {tuple(r): (pv, qv) for r, pv, qv in zip(tuples.tolist(), ps.tolist(), qs.tolist())}
    expected = {} if pref == 0 else {u: (p, p // pref) for u in perms}
    assert {u: rows[u] for u in perms if u in rows} == expected


class TestVerifierRows:
    @pytest.mark.parametrize(
        "j, K, arity",
        [(1, 7, 3), (2, 7, 3), (3, 7, 3), (1, 5, 4), (2, 5, 4), (3, 5, 4),
         (9, 12, 3), (9, 6, 4), (5, 25, 3), (5, 26, 3)],
    )
    def test_rows_match_nested_loops(self, j, K, arity):
        rep, pieces = walked(j, K, arity)
        ref = list(nested_loop_rows(j, K, arity))
        tuples, p, q, ratio = joined(pieces)
        assert rep.ok and rep.count == len(ref) == len(ratio)
        got = zip(tuples.tolist(), p.tolist(), q.tolist(), ratio.tolist())
        for (t, p, q, ratio), (t_ref, p_ref, q_ref, ratio_ref) in zip(got, ref):
            assert tuple(t) == t_ref and p == p_ref and q == q_ref
            assert type(p) is int and type(q) is int
            assert ratio == float(ratio_ref)
        exact = [r[3] for r in ref]
        assert rep.min_ratio == min(exact) and rep.max_ratio == max(exact)

    def test_dtype_switch_at_2_53(self):
        # 3 * 25^11 < 2^53 <= 3 * 26^11: int64 below, Python ints above, in
        # every piece, whatever the largest entry of the piece
        def dtypes(*args):
            return {p.dtype for _, p, _, _ in walked(*args)[1]}

        assert dtypes(5, 25) == {np.dtype(np.int64)}
        assert dtypes(5, 26) == {np.dtype(object)}
        assert dtypes(9, 12) == {np.dtype(object)}

    def test_indivisible_tuples_fail(self, monkeypatch):
        # Off-hyperplane probes: (1, 2, 4) has P = 73, prefactor 8
        fake = (np.array([1, 1]), np.array([2, 1]), np.array([4, 1]))
        monkeypatch.setattr(resonance, "_hyperplane_chunks", lambda n, K: iter([fake]))
        rep, pieces = walked(1, 4)
        assert not rep.ok and rep.count == 2
        assert rep.failures == [((1, 2, 4), 73, 8)]
        tuples, _, q, _ = joined(pieces)
        assert tuples.tolist() == [[1, 1, 1]] and q.tolist() == [3]


class TestVerifierPieces:
    @pytest.mark.parametrize("arity, K", [(3, 9), (4, 5)])
    def test_pieces_are_the_walks(self, monkeypatch, arity, K):
        # the sink gets the walk's pieces of 7 tuples, less the rows it
        # drops, and joined they are the rows of one piece for all
        whole = joined(walked(2, K, arity)[1])
        monkeypatch.setattr(resonance, "PIECE_TUPLES", 7)
        _, pieces = walked(2, K, arity)
        assert len(pieces) > 1 and all(0 < len(t) <= 7 for t, *_ in pieces)
        for a, b in zip(joined(pieces), whole):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("j, K, arity", [(2, 48, 4), (2, 256, 3)])
    def test_peak_is_one_piece(self, j, K, arity):
        # the verifier holds one piece, not the rows it has verified: it
        # peaked at 32.4 MiB (Gamma4, K=48) and 11.3 MiB (Gamma3, K=256)
        # when it kept them as its report, and with a sink it peaks at 3.76
        # and 2.83 MiB, of which the walk alone takes 2.08 and 1.43 MiB
        # (tracemalloc)
        tracemalloc.start()
        try:
            rep = verify_factorization(j, K, arity, sink=lambda piece: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok and peak < 4 * 2**20

    @pytest.mark.parametrize("arity, K", [(3, 64), (4, 12)])
    def test_one_fraction_per_distinct_extreme(self, monkeypatch, arity, K):
        # at j=1 every ratio is exactly 3, so every row is extreme: the
        # extremes are built from the distinct (|Q_n|, denominator) pairs,
        # not one Fraction per row
        built = []

        class Counted(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return Fraction(*args)

        monkeypatch.setattr(resonance, "Fraction", Counted)
        rep, pieces = walked(1, K, arity)
        assert rep.min_ratio == rep.max_ratio == 3
        assert 0 < len(built) <= 2 * len(pieces)


# (n, j, K) with n * K^(2j+1) just below 2^53, so K + 1 is just above it
@pytest.mark.parametrize("n, j, K", [(3, 5, 25), (4, 5, 24), (5, 9, 6)])
def test_pn_int_equals_python_ints_across_the_switch(n, j, K):
    for K_side, dtype in ((K, np.int64), (K + 1, object)):
        idx = hyperplane(n, K_side)
        # a spread of tuples, always including one that reaches K_side
        sel = np.unique(np.r_[np.arange(0, idx[0].size, 37), np.argmax(np.abs(idx[0]))])
        cols = [a[sel] for a in idx]
        p = resonance._pn_int(cols, j)
        assert p.dtype == dtype
        expected = [sum(v ** (2 * j + 1) for v in row) for row in np.stack(cols, axis=1).tolist()]
        assert [int(v) for v in p] == expected


def meshgrid_tuples(n, K):
    """Gamma_n by the dense (2K)^(n-1) grid of the free slots, filtered on
    the last: the reference order of the tuple enumerator."""
    vals = np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)]).astype(np.int64)
    if n == 2:
        return (vals.copy(), -vals)
    free = [g.reshape(-1) for g in np.meshgrid(*([vals] * (n - 1)), indexing="ij")]
    last = -sum(free)
    mask = (last != 0) & (np.abs(last) <= K)
    return tuple(a[mask] for a in free) + (last[mask],)


class TestHyperplaneTuples:
    @pytest.mark.parametrize(
        "n, K",
        [(2, 1), (2, 7), (3, 1), (3, 2), (3, 9), (4, 1), (4, 3), (4, 8), (4, 24),
         (5, 1), (5, 2), (5, 6), (5, 11)],
    )
    def test_equals_the_meshgrid_enumeration(self, n, K):
        got, ref = hyperplane(n, K), meshgrid_tuples(n, K)
        assert len(got) == n
        for a, b in zip(got, ref):
            assert a.dtype == np.int64 and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("piece", [1, 7, 100, 10**6])
    @pytest.mark.parametrize("n, K", [(2, 3), (3, 5), (4, 4), (5, 3)])
    def test_pieces_are_cut_at_the_piece_size(self, monkeypatch, n, K, piece):
        # joined, the pieces are the meshgrid enumeration; a piece is cut
        # at the piece size, not at a head's end: it holds at most the
        # piece size of tuples, and every orbit piece but the last holds
        # exactly the piece size of orbits
        monkeypatch.setattr(resonance, "PIECE_TUPLES", piece)
        pieces = list(resonance._hyperplane_chunks(n, K))
        for a, b in zip(zip(*pieces), meshgrid_tuples(n, K)):
            assert np.concatenate(a).tobytes() == b.tobytes()
        assert all(len(p[0]) <= piece for p in pieces)
        orbits = [
            len(np.unique(np.sort(np.stack(t, axis=1), axis=1), axis=0))
            for t, _ in resonance._orbit_chunks(n, K)
        ]
        assert orbits and all(c == piece for c in orbits[:-1]) and orbits[-1] <= piece

    def test_memory_peak_below_the_dense_grid(self):
        # the dense grid of the four free slots peaked at 63.8 MiB (tracemalloc)
        tracemalloc.start()
        try:
            for _ in resonance._hyperplane_chunks(5, 16):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 63.8 * 2**20

    def test_both_outputs_come_from_the_one_walk(self, monkeypatch):
        # the verifier, the orbits and a pair-term table all walk Gamma_n
        # through _hyperplane_chunks, and no other function of the module
        # computes a run of entries
        walk, calls = resonance._hyperplane_chunks, []

        def counted(n, K, orbits=False):
            calls.append((n, K, orbits))
            return walk(n, K, orbits)

        monkeypatch.setattr(resonance, "_hyperplane_chunks", counted)
        verify_factorization(2, 3, 4)
        list(resonance._orbit_chunks(5, 3))
        imethod._pair_terms(3, IMultiplier(s=-0.5, N=2.0), make_grid(2, 4), 4, None, None)
        assert calls == [(4, 3, False), (5, 3, True), (3, 4, False)]
        src = inspect.getsource(resonance)
        assert src.count("searchsorted") == inspect.getsource(walk).count("searchsorted") > 0
