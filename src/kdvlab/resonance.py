"""Exact arithmetic for resonance polynomials on frequency hyperplanes.

P_n(t) is the sum of (2j+1)-th powers of n frequencies summing to zero.
On Gamma_3 it factors as x*y*z*Q_3 and on Gamma_4 as
(x+y)(x+z)(x+w)*Q_4, with |Q_n| comparable to max|entry|^(2j-2). This
module evaluates the polynomials and cofactors in exact integer/rational
arithmetic (floats are deliberately rejected: the identities are exact,
and k^(2j+1) overflows fixed-width types quickly), owns the one lattice
enumerator of the zero-sum tuples, the one array evaluator of P_n and the
package's one bounded cache, and verifies the factorization and
comparability claims over the tuples as exact integer array arithmetic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

__all__ = [
    "FreqTuple",
    "p_n",
    "q_n",
    "alpha_n",
    "prefactor",
    "ResonantTupleError",
    "FactorizationReport",
    "verify_factorization",
]


class ResonantTupleError(ValueError):
    """Raised when a cofactor is requested at a zero-prefactor tuple."""


def _as_exact(value) -> Fraction | int:
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(
        f"exact rational required, got {type(value).__name__} (floats are not allowed here)"
    )


def _validated(entries: Sequence, j: int, allow_zero: bool = False):
    ent = tuple(_as_exact(e) for e in entries)
    if len(ent) not in (3, 4, 5):
        raise ValueError(f"tuple arity must be 3, 4 or 5, got {len(ent)}")
    if sum(ent) != 0:
        raise ValueError(f"entries {ent} do not lie on the zero-sum hyperplane")
    if not allow_zero and any(e == 0 for e in ent):
        raise ValueError(f"entries {ent} contain 0 (pass allow_zero for degenerate probes)")
    if j < 1:
        raise ValueError(f"dispersion order j must be >= 1, got {j}")
    return ent


@dataclass(frozen=True)
class FreqTuple:
    """n lattice frequencies on the zero-sum hyperplane Gamma_n."""

    entries: tuple
    j: int
    allow_zero: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "entries", _validated(self.entries, self.j, self.allow_zero)
        )

    @property
    def n(self) -> int:
        return len(self.entries)


def _unpack(t, j=None, allow_zero=False):
    if isinstance(t, FreqTuple):
        return t.entries, t.j
    if j is None:
        raise TypeError("j is required when passing raw entries")
    return _validated(t, j, allow_zero), j


def p_n(t, j: int | None = None, allow_zero: bool = False):
    """Sum of (2j+1)-th powers; exact integer for integer entries."""
    ent, j = _unpack(t, j, allow_zero)
    e = 2 * j + 1
    return sum(x**e for x in ent)


def prefactor(t, j: int | None = None, allow_zero: bool = False):
    """x*y*z on Gamma_3; (x+y)(x+z)(x+w) on Gamma_4."""
    ent, j = _unpack(t, j, allow_zero)
    if len(ent) == 3:
        x, y, z = ent
        return x * y * z
    if len(ent) == 4:
        x, y, z, w = ent
        return (x + y) * (x + z) * (x + w)
    raise ValueError(f"prefactor defined for arity 3 or 4, got {len(ent)}")


def q_n(t, j: int | None = None, allow_zero: bool = False) -> Fraction:
    """Exact cofactor Q_n = P_n / prefactor."""
    ent, j = _unpack(t, j, allow_zero)
    pref = prefactor(ent, j, allow_zero=True)
    if pref == 0:
        raise ResonantTupleError(f"tuple {ent} is resonant (zero prefactor)")
    return Fraction(p_n(ent, j, allow_zero=True)) / Fraction(pref)


def alpha_n(t, j: int | None = None, allow_zero: bool = False) -> complex:
    """alpha_n = i * P_n; purely imaginary by construction."""
    ent, j = _unpack(t, j, allow_zero)
    return 1j * float(p_n(ent, j, allow_zero=True))


@dataclass
class FactorizationReport:
    """Outcome of exhaustive factorization/comparability enumeration.

    One row per non-resonant tuple whose prefactor divides P_n, in
    nested-loop order: tuples (rows x arity), p (P_n), q (Q_n) and ratio
    (|Q_n| / max|entry|^(2j-2), correctly rounded). The integer columns are
    int64 while n*K^(2j+1) < 2^53 and Python ints beyond. count includes
    the failures, each recorded as (tuple, P_n, prefactor).
    """

    j: int
    K: int
    arity: int
    count: int
    min_ratio: Fraction | None
    max_ratio: Fraction | None
    tuples: np.ndarray
    p: np.ndarray
    q: np.ndarray
    ratio: np.ndarray
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and self.count > 0


CACHE_ENTRIES = 32
# The package's one cache: lattice tuples, form weights and sigma tables
# share it, least recently used out first, so one bound caps their memory.
_CACHE: OrderedDict = OrderedDict()


def _cached(key, build):
    """The value stored under key; build() computes and stores it on a miss."""
    if key in _CACHE:
        _CACHE.move_to_end(key)
        return _CACHE[key]
    value = _CACHE[key] = build()
    if len(_CACHE) > CACHE_ENTRIES:
        _CACHE.popitem(last=False)
    return value


def _hyperplane_tuples(n: int, K: int) -> tuple:
    """Integer index tuples on Gamma_n with nonzero entries, |index| <= K.

    One read-only int64 array per slot, in nested-loop order (first slot
    outermost).
    """

    def build():
        vals = np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)]).astype(np.int64)
        if n == 2:
            out = (vals.copy(), -vals)
        else:
            grids = np.meshgrid(*([vals] * (n - 1)), indexing="ij")
            free = [g.reshape(-1) for g in grids]
            last = -sum(free)
            mask = (last != 0) & (np.abs(last) <= K)
            out = tuple(a[mask] for a in free) + (last[mask],)
        for a in out:
            a.flags.writeable = False
        return out

    return _cached(("tuples", n, K), build)


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


def verify_factorization(j: int, K: int, arity: int = 3) -> FactorizationReport:
    """Check P_n = prefactor * Q_n exactly on the full lattice.

    Enumerates all nonzero-entry, nonzero-prefactor tuples on Gamma_n with
    |entries| <= K and checks that the prefactor divides P_n in the
    integers. Below n*K^(2j+1) < 2^53 every integer, and both operands of
    the ratio, are exact in int64 and float64; beyond, the same expressions
    run on Python ints. min/max of |Q_n| / max|entry|^(2j-2) are exact
    Fractions, taken among the tuples whose rounded ratio is extreme (a
    correctly rounded division is monotone). The comparability constants
    are reported, not asserted: the underlying claim hides its constants.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    if arity not in (3, 4):
        raise ValueError(f"arity must be 3 or 4, got {arity}")
    t = np.stack(_hyperplane_tuples(arity, K), axis=1).astype(_exact_dtype(arity, K, j))
    x = t.T
    if arity == 3:
        pref = x[0] * x[1] * x[2]
    else:
        pref = (x[0] + x[1]) * (x[0] + x[2]) * (x[0] + x[3])
    keep = pref != 0
    t, pref = t[keep], pref[keep]
    p = _pn_int(t.T, j)
    q, rem = p // pref, p % pref
    ok = rem == 0
    failures = [
        (tuple(row), pv, dv)
        for row, pv, dv in zip(t[~ok].tolist(), p[~ok].tolist(), pref[~ok].tolist())
    ]
    t, p, q = t[ok], p[ok], q[ok]
    num = np.abs(q)
    den = np.max(np.abs(t), axis=1) ** (2 * j - 2)
    ratio = (num / den).astype(np.float64)

    def exact(sel) -> set:
        return {Fraction(a, b) for a, b in zip(num[sel].tolist(), den[sel].tolist())}

    extremes = (None, None)
    if ratio.size:
        extremes = (min(exact(ratio == ratio.min())), max(exact(ratio == ratio.max())))
    return FactorizationReport(
        j=j, K=K, arity=arity, count=len(t) + len(failures),
        min_ratio=extremes[0], max_ratio=extremes[1],
        tuples=t, p=p, q=q, ratio=ratio, failures=failures,
    )
