"""Reference lattices for the tests: Gamma_n by the one walk, joined, and
the factorization rows by nested loops in plain Python ints and Fractions."""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from kdvlab import resonance


def hyperplane(n, K):
    """Gamma_n (nonzero entries, |index| <= K): the pieces of
    resonance._hyperplane_chunks joined, one int64 array per slot."""
    empty = [np.zeros(0, np.int64)] * n
    return tuple(np.concatenate(cols) for cols in zip(empty, *resonance._hyperplane_chunks(n, K)))


def nested_loop_rows(j, K, arity):
    """Each non-resonant tuple of Gamma_3 or Gamma_4, in nested-loop order,
    as (t, P_n, Q_n, |Q_n| / max|entry|^(2j-2)): P_n an int, Q_n = P_n over
    x*y*z or (x+y)(x+z)(x+w) and the ratio exact Fractions."""
    rng = [k for k in range(-K, K + 1) if k != 0]
    for free in product(rng, repeat=arity - 1):
        t = free + (-sum(free),)
        x = t[0]
        pref = math.prod(t) if arity == 3 else math.prod(x + y for y in t[1:])
        if t[-1] == 0 or abs(t[-1]) > K or pref == 0:
            continue
        p = sum(v ** (2 * j + 1) for v in t)
        q = Fraction(p, pref)
        yield t, p, q, abs(q) / Fraction(max(map(abs, t))) ** (2 * j - 2)
