"""Exact arithmetic for resonance polynomials on frequency hyperplanes.

P_n(t) is the sum of (2j+1)-th powers of n frequencies summing to zero.
On Gamma_3 it factors as x*y*z*Q_3 and on Gamma_4 as
(x+y)(x+z)(x+w)*Q_4, with |Q_n| comparable to max|entry|^(2j-2). This
module evaluates the polynomials and cofactors in exact integer
arithmetic (k^(2j+1) overflows fixed-width types quickly, so Python ints
take over beyond int64), owns the one walk of
the zero-sum tuples (every tuple, or the sorted ones, one per permutation
orbit) and the one array evaluator of P_n, and verifies the factorization
and comparability claims over the tuples as exact integer array
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .spectral import _check_bytes

__all__ = [
    "FactorizationReport",
    "verify_factorization",
]


@dataclass
class FactorizationReport:
    """Outcome of exhaustive factorization/comparability enumeration.

    count is the number of non-resonant tuples walked, the failures
    included, each recorded as (tuple, P_n, prefactor); min_ratio and
    max_ratio are the exact extremes of |Q_n| / max|entry|^(2j-2) over the
    rest. The rows themselves are not kept: verify_factorization passes
    them to its sink a piece at a time.
    """

    j: int
    K: int
    arity: int
    count: int
    min_ratio: Fraction | None
    max_ratio: Fraction | None
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and self.count > 0


# Tuples per piece of Gamma_n. Verifying a piece of Gamma_4 takes about
# 1.6 MiB of temporaries beyond the walk's own arrays, and writing its CSV
# rows 2.1 MiB (tracemalloc, j=2, K=24: 3.2 MiB for the verification).
PIECE_TUPLES = 1 << 14


def _hyperplane_chunks(n: int, K: int, orbits: bool = False):
    """Integer index tuples on Gamma_n with nonzero entries, |index| <= K,
    in pieces; with orbits, only the sorted ones k_1 <= .. <= k_n, one
    representative for each permutation orbit.

    Each piece is one int64 array per slot, the tuples in nested-loop order
    (first slot outermost). The heads k_1..k_(n-2) are built slot by slot:
    with r entries left after a sum g, the next entry v runs over the
    values with |g + v| <= (r-1) K, after which the rest can still
    complete the sum, and for sorted tuples also from the last entry on up
    to -g/r, as the rest are no smaller: one contiguous run of the sorted
    values. Each head's k_(n-1) are its run, taken PIECE_TUPLES rows a
    piece, and k_n = -(g + k_(n-1)); the one row with k_n = 0 is dropped
    (sorted, k_n is the largest entry of a zero sum, so it never is 0). An
    empty Gamma_n yields no piece. The heads are formed when the walk is
    made, and the values, and each level of heads, are refused then, before
    they are formed, if their arrays exceed spectral.BUDGET_BYTES.
    """
    # the 2K values, int64, and the two ranges they are joined from
    _check_bytes(32 * K, f"K={K} needs Gamma_{n} values")
    vals = np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)]).astype(np.int64)

    def place(start, stop):
        # rows start..stop of the runs of this slot: each row's head, and
        # its place in vals (its head's first, plus its rank in the run)
        h0, h1 = np.searchsorted(ends, [start, stop - 1], side="right") + [0, 1]
        part = np.minimum(ends[h0:h1], stop) - np.maximum(ends[h0:h1] - cnt[h0:h1], start)
        h = np.repeat(np.arange(h0, h1), part)
        return h, first[h] + np.arange(start, stop)

    heads, at, g = [], np.zeros(1, np.int64), np.zeros(1, np.int64)
    for r in range(n, 1, -1):
        lo = np.searchsorted(vals, -g - (r - 1) * K)
        hi = np.searchsorted(vals, (r - 1) * K - g, side="right")
        if orbits:
            lo, hi = np.maximum(lo, at), np.searchsorted(vals, -g // r, side="right")
        cnt = np.maximum(hi - lo, 0)
        ends, total = np.cumsum(cnt), int(cnt.sum())
        first = lo - (ends - cnt)
        if r > 2:
            # int64 arrays of total entries: the level's n-r+1 heads, g, h and
            # at, then the next level's lo, hi, cnt, ends, first and two temporaries
            _check_bytes(8 * total * (n - r + 10), f"K={K} needs Gamma_{n} heads")
            h, at = place(0, total)
            heads, g = [a[h] for a in heads] + [vals[at]], g[h] + vals[at]

    def piece(start):
        h, at = place(start, min(start + PIECE_TUPLES, total))
        nxt = vals[at]
        last = -(g[h] + nxt)
        keep = last != 0
        h = h[keep]
        return tuple(a[h] for a in heads) + (nxt[keep], last[keep])

    return (piece(start) for start in range(0, total, PIECE_TUPLES))


def _orbit_chunks(n: int, K: int):
    """The permutation orbits of Gamma_n (nonzero entries, |index| <= K) as
    their sorted representatives from _hyperplane_chunks, in its pieces of
    PIECE_TUPLES orbits.

    Yields (one int64 array per slot, each orbit's size n!/prod c_v!, c_v
    the count of each value). Of an orbit and its negation, one is written
    in descending order instead, as the other's representative negated
    entry by entry, and an orbit that is its own negation is written both
    ways, each with half its size. A weight that negating its arguments
    conjugates then gives terms on real fields that are exact conjugates
    in pairs, as on the whole lattice, bit for bit.
    """
    for t in _hyperplane_chunks(n, K, orbits=True):
        # prod c_v! as the product of each entry's rank in its run of equal values
        rank, den = np.ones(len(t[0]), np.int64), np.ones(len(t[0]), np.int64)
        for a, b in zip(t, t[1:]):
            rank = np.where(a == b, rank + 1, 1)
            den *= rank
        mult = math.factorial(n) // den
        # of an orbit and its negation, the one whose first nonzero
        # k_i + k_(n+1-i) is positive is written as the other's
        # representative negated (its own reversed); one that is its own
        # negation is written both ways, with half its size each
        side = np.zeros(len(t[0]), np.int64)
        for a, b in reversed(list(zip(t, t[::-1]))[: n // 2]):
            side = np.where(a + b != 0, np.sign(a + b), side)
        t = [np.where(side > 0, b, a) for a, b in zip(t, t[::-1])]
        both = side == 0
        if both.any():
            t = [np.concatenate([a, b[both]]) for a, b in zip(t, t[::-1])]
            mult = np.concatenate([np.where(both, mult // 2, mult), mult[both] // 2])
        yield t, mult


def _exact_dtype(n: int, max_abs: int, j: int):
    """int64 while n * max_abs^(2j+1) < 2^53, so every P_n is exact in int64
    and float64; Python ints (object) beyond."""
    return np.int64 if n * max_abs ** (2 * j + 1) < 2**53 else object


def _pn_int(cols: Sequence[np.ndarray], j: int) -> np.ndarray:
    """Exact P_n of integer index columns: the sum of their (2j+1)-th powers.

    int64 below the _exact_dtype bound, Python ints above it.
    """
    mx = max((int(np.max(np.abs(c))) for c in cols if c.size), default=0)
    dtype = _exact_dtype(len(cols), mx, j)
    return sum(c.astype(dtype) ** (2 * j + 1) for c in cols)


def verify_factorization(j: int, K: int, arity: int = 3, sink=None) -> FactorizationReport:
    """Check P_n = prefactor * Q_n exactly on the full lattice.

    Walks the nonzero-entry, nonzero-prefactor tuples on Gamma_n with
    |entries| <= K a piece of _hyperplane_chunks at a time, and checks that
    the prefactor divides P_n in the integers. Each piece's verified rows,
    in nested-loop order, go to sink as (tuples (rows x arity), P_n, Q_n,
    |Q_n| / max|entry|^(2j-2) correctly rounded), unless none is left, and
    are dropped before the next piece is walked. The integer columns are
    int64 while n*K^(2j+1) < 2^53, where every integer and ratio operand is
    exact in int64 and float64; beyond, the same expressions run on Python
    ints. min/max of the ratio are exact Fractions, taken among each piece's
    tuples of extreme rounded ratio (a correctly rounded division is
    monotone). They are reported, not asserted: the claim hides its constants.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    if arity not in (3, 4):
        raise ValueError(f"arity must be 3 or 4, got {arity}")
    dtype = _exact_dtype(arity, K, j)
    count, failures, lows, highs = 0, [], set(), set()
    for cols in _hyperplane_chunks(arity, K):
        t = np.stack(cols, axis=1).astype(dtype)
        x = t.T
        if arity == 3:
            pref = x[0] * x[1] * x[2]
        else:
            pref = (x[0] + x[1]) * (x[0] + x[2]) * (x[0] + x[3])
        t, pref = t[pref != 0], pref[pref != 0]
        count += len(t)
        p = _pn_int(t.T, j).astype(dtype, copy=False)
        q, rem = p // pref, p % pref
        ok = rem == 0
        failures += [
            (tuple(row), pv, dv)
            for row, pv, dv in zip(t[~ok].tolist(), p[~ok].tolist(), pref[~ok].tolist())
        ]
        t, p, q = t[ok], p[ok], q[ok]
        num, den = np.abs(q), np.max(np.abs(t), axis=1) ** (2 * j - 2)
        ratio = (num / den).astype(np.float64, copy=False)
        if ratio.size:
            # the piece's exact extremes, one Fraction per distinct (num, den)
            for ex, sel in ((lows, ratio == ratio.min()), (highs, ratio == ratio.max())):
                ex |= {Fraction(a, b) for a, b in set(zip(num[sel].tolist(), den[sel].tolist()))}
            if sink is not None:
                sink((t, p, q, ratio))
        # dropped before the walk forms the next piece
        del x, t, pref, p, q, rem, ok, num, den, ratio
    return FactorizationReport(
        j=j, K=K, arity=arity, count=count,
        min_ratio=min(lows, default=None), max_ratio=max(highs, default=None),
        failures=failures,
    )
