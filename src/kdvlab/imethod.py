"""I-method machinery: multiplier, multilinear forms and modified energies.

The operator I rescales high frequencies by an even weight m that is 1
below a threshold N and decays like N^(-s) |xi|^s above 2N. Modified
energies are built from n-linear lattice sums

    Lambda_n(w; u_1..u_n)
        = (2*pi*mu)^(1-n) * sum over Gamma_n of w(k_1..k_n) prod u_hat(k_i)

restricted to nonzero entries with |index| <= K; with this normalization
Lambda_3(1) equals the integral of u^3. Every form is symmetric under
permutations of its arguments: the lab builds each one so, and the
evaluator checks it and refuses a form that is not. One evaluator computes
Lambda_n for a whole stack of samples. It weighs each permutation orbit of
Gamma_n once, at one representative, walked in pieces, and adds the
orbit's coefficient products by gathers, multiplies and row sums (see
_lambda_with_scale); no BLAS call, so no BLAS kernel moves a bit. The
modified energies are one hierarchy, E3 = E2 + Lambda_3(sigma3) and
E4 = E3 + Lambda_4(sigma4), taken in one pass that evaluates each
correction once per stack. The correction multipliers follow the cascade

    d/dt E2 = Lambda_3(M3),   sigma3 = -M3/alpha3,
    d/dt E3 = Lambda_4(M4),   sigma4 = -M4/alpha4,
    d/dt E4 = Lambda_5(M5),

with the closed form M3 = (i/3) sum_i m^2(x_i) x_i on the hyperplane at
its base. Every later multiplier comes from one step, the pair reduction
of a symmetrization:

    M_n = -(i/n) sum over pairs {a,b} of sigma_(n-1)(rest, x_a+x_b) (x_a+x_b),

so M4 = -(3i/2) [sigma3(x1,x2,x3+x4) (x3+x4)]_sym and
M5 = -2i [sigma4(x1,x2,x3,x4+x5) (x4+x5)]_sym, with [.]_sym the mean over
all argument permutations; on sigma2 = m(x1) m(x2) the same step gives M3.
Each level has one table: on Gamma_n the rest of a pair fixes its sum, so
the step reads each pair term sigma_(n-1)(rest, p) p from a pair-term
table of sigma_(n-1), filled piece by piece from Gamma_(n-1) (sigma_(n-1)
itself is never stored). One walk of the lattice, resonance's
_hyperplane_chunks, gives both the pieces of Gamma_(n-1) that fill a
table and, sorted, the orbit representatives that Lambda_n weighs. A term
whose pair sum vanishes contributes exactly 0, and sigma4 is defined as
0 on resonant tuples (alpha4 = 0), where a runtime check confirms M4
vanishes there. A form's weights are never stored: each piece of orbits
is weighed and contracted before the next is formed. A run builds one
hierarchy with _hierarchy, the one constructor of the cascade forms, and
each of its pair-term tables once, in one chain (see _cascade); the forms
of that hierarchy that read a table hold it, and nothing else keeps it.
spectral.BUDGET_BYTES bounds each table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import factorial, prod
from typing import Callable, Sequence

import numpy as np

from .flow import _band_mask, _rhs_function
from . import resonance
from .resonance import _pn_int
from .spectral import FourierField, GridSpec, _check_bytes, _check_same_grid

__all__ = [
    "IMultiplier",
    "MultilinearForm",
    "eval_m",
    "apply_I",
    "lambda_n",
    "constant_form",
    "big_m3",
    "big_m5",
    "modified_energy",
    "DriftReport",
    "drift_oracle",
]

IMAG_RESIDUE_TOL = 1e-10
RESONANT_M4_TOL = 1e-10

_M_SHAPES = ("clipped_power", "smooth_log")


def _check_table(n: int, K: int, bound: int | None = None) -> None:
    """Refuse a table over the first n-1 entries of Gamma_n at the lattice bound
    (K unless given) whose dense size, never below its own, exceeds the budget."""
    _check_bytes(16 * (2 * (K if bound is None else bound) + 1) ** (n - 1),
                 f"K={K} needs a Gamma_{n} table")


@dataclass(frozen=True)
class IMultiplier:
    """Fourier weight m(xi) parameterized by (s, N, shape).

    m = 1 for |xi| <= N and m = N^(-s) |xi|^s for |xi| >= 2N. The default
    clipped_power shape uses min(1, (|xi|/N)^s) everywhere, which matches
    both mandated regions and is continuous; smooth_log interpolates
    monotonically in log|xi| on [N, 2N] instead.
    """

    s: float
    N: float
    shape: str = "clipped_power"

    def __post_init__(self):
        if not self.N > 0:
            raise ValueError(f"threshold N must be positive, got {self.N}")
        if not self.s <= 0:
            raise ValueError(f"Sobolev index s must be <= 0, got {self.s}")
        if self.shape not in _M_SHAPES:
            raise ValueError(f"unknown multiplier shape {self.shape!r}")


def _m_array(mult: IMultiplier, k: np.ndarray) -> np.ndarray:
    a = np.abs(np.asarray(k, dtype=np.float64)) / mult.N
    if mult.s == 0.0:
        return np.ones_like(a)
    if mult.shape == "clipped_power":
        return np.where(a <= 1.0, 1.0, np.where(a > 0, a, 1.0) ** mult.s)
    # smooth_log: smoothstep in t = log2(|xi|/N) on [0, 1]
    t = np.log2(np.clip(a, 1.0, 2.0))
    h = 3.0 * t * t - 2.0 * t**3
    mid = 2.0 ** (mult.s * h)
    return np.where(a <= 1.0, 1.0, np.where(a >= 2.0, np.where(a > 0, a, 1.0) ** mult.s, mid))


def eval_m(mult: IMultiplier, k) -> float | np.ndarray:
    """Multiplier value at frequency k (scalar or array)."""
    out = _m_array(mult, np.asarray(k, dtype=np.float64))
    if np.isscalar(k) or np.ndim(k) == 0:
        return float(out)
    return out


def apply_I(u: FourierField, mult: IMultiplier) -> FourierField:
    """Scale every coefficient by m(k); identity on spectra inside [-N, N]."""
    return FourierField(u.grid, u.coeffs * _m_array(mult, u.grid.frequencies))


@dataclass(frozen=True)
class MultilinearForm:
    """n-point frequency multiplier evaluated over the hyperplane Gamma_n.

    weight maps n integer-index arrays (frequencies are index/mu) to a
    complex array, entry by entry. It must be symmetric: the same at every
    permutation of its arguments. Lambda_n weighs each permutation orbit
    once and refuses a weight that moves when its arguments are permuted.
    """

    n: int
    weight: Callable[..., np.ndarray]
    tag: str = "custom"


def constant_form(n: int, value: complex = 1.0) -> MultilinearForm:
    def w(*idx):
        return np.full(idx[0].shape, value, dtype=np.complex128)

    return MultilinearForm(n=n, weight=w, tag="constant")


def _flat(cols: Sequence[np.ndarray], K: int) -> np.ndarray:
    """Flat index of m >= 1 index columns in the dense block [-K, K]^m,
    first column outermost; the offset K of each column is added once, as
    one constant."""
    w = 2 * K + 1
    flat = cols[0]
    for a in cols[1:]:
        flat = flat * w + a
    return flat + K * sum(w**i for i in range(len(cols)))


def _coeff_table(coeffs: np.ndarray) -> np.ndarray:
    """Lookup tables over signed indices: table[..., idx + K] = u_hat(idx/mu)."""
    K = coeffs.shape[-1]
    table = np.zeros(coeffs.shape[:-1] + (2 * K + 1,), dtype=np.complex128)
    table[..., K + 1 :] = coeffs
    table[..., :K] = np.conj(coeffs[..., ::-1])
    return table


def _orbit_weights(form: MultilinearForm, t: list) -> tuple[np.ndarray, float]:
    """form.weight at a piece of orbit representatives, and the most it
    moves there under one transposition and one cyclic shift of them."""
    w = form.weight(*t)
    n = form.n
    perms = dict.fromkeys([(1, 0, *range(2, n)), (*range(1, n), 0)])
    return w, max(np.max(np.abs(form.weight(*[t[i] for i in p]) - w)) for p in perms)


def _assigned(tables: Sequence[np.ndarray], at: list, assignments: list) -> np.ndarray:
    """Per sample of the (S, 2K+1) tables, the sum over the assignments a of
    the product over positions of tables[a[pos]] read at at[pos], taken
    left to right."""
    total = None
    for a in assignments:
        term = tables[a[0]].take(at[0], axis=1)
        for pos in range(1, len(a)):
            np.multiply(term, tables[a[pos]].take(at[pos], axis=1), out=term)
        total = term if total is None else np.add(total, term, out=total)
    return total


def _lambda_with_scale(
    form: MultilinearForm,
    grid: GridSpec,
    stacks: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Lambda_n(form; slots) and its term scale sum |terms|, per sample.

    stacks holds one coefficient array of shape (S, K) per slot; sample s
    reads row s of each. The form is symmetric, so the tuples of one
    permutation orbit of Gamma_n share its weight, and the walk visits each
    orbit once, at a representative t with its size mult (sorted, or its
    negation's negated; see resonance._orbit_chunks). The slots that hold
    one stack are a group, of g_j slots; the orbit adds w(t) mult
    prod_j g_j!/n! times the sum over the n!/prod g_j! assignments of t's
    positions to groups of prod_pos u_group(t_pos): one assignment for
    [u]*n, n for [F]+[u]*(n-1). The scale is the same sum on |w| and
    |coefficients|. A piece's weights are evaluated once, and the form is
    refused if they move when its arguments are permuted (see
    _orbit_weights) by more than IMAG_RESIDUE_TOL x the largest |w|, or x
    the largest frequency K/mu where that is larger. A piece's samples are
    taken in passes of max(1, resonance.PIECE_TUPLES // its orbits), by
    gathers, multiplies and one row-wise sum per pass, so a sample's value
    has the same bits in any stack, and no BLAS kernel moves them.
    """
    n = form.n
    if len(stacks) != n:
        raise ValueError(f"form arity {n} != {len(stacks)} fields")
    S = len(stacks[0])
    for c in stacks:
        if np.shape(c) != (S, grid.K):
            raise ValueError(f"coefficient stack shape {np.shape(c)} != ({S}, {grid.K})")
    # the slots that hold one stack are a group; labels[pos] is its group
    distinct = list({id(c): c for c in stacks}.values())
    labels = [next(i for i, d in enumerate(distinct) if d is c) for c in stacks]
    assignments = sorted(set(permutations(labels)))
    within = prod(factorial(labels.count(i)) for i in range(len(distinct)))
    tables = [_coeff_table(c) for c in distinct]
    moduli = [np.abs(t) for t in tables]
    value, scale = np.zeros(S, dtype=np.complex128), np.zeros(S)
    moved = largest = 0.0
    for t, mult in resonance._orbit_chunks(n, grid.K):
        w, piece_moved = _orbit_weights(form, t)
        modulus = np.abs(w)
        moved, largest = max(moved, piece_moved), max(largest, modulus.max())
        size = mult * within / factorial(n)
        w, modulus = w * size, np.multiply(modulus, size, out=modulus)
        parts = ((value, tables, w), (scale, moduli, modulus))
        # a table index is entry + K: non-negative, take's fast path
        at = [a + grid.K for a in t]
        chunk = max(1, resonance.PIECE_TUPLES // len(w))
        for i in range(0, S, chunk):
            for acc, tabs, weights in parts:
                terms = _assigned([tab[i : i + chunk] for tab in tabs], at, assignments)
                acc[i : i + chunk] += np.add.reduce(np.multiply(terms, weights, out=terms), axis=1)
    # a lab weight that cancels to 0 (m = 1 on the whole lattice at mu != 1)
    # moves by the round-off of a sum of frequencies: floor at the largest
    largest = max(largest, grid.band)
    if moved > IMAG_RESIDUE_TOL * largest:
        raise ValueError(
            f"form {form.tag!r} is not permutation-symmetric: its weight moves by "
            f"{moved:.3e} when its arguments are permuted, over {IMAG_RESIDUE_TOL:.0e} "
            f"x {largest:.3e}, its largest or the largest frequency"
        )
    norm = (2.0 * np.pi * grid.mu) ** (1 - n)
    return norm * value, norm * scale


def lambda_n(form: MultilinearForm, fields: Sequence[FourierField]) -> complex:
    """Evaluate Lambda_n(form; fields) over the truncated hyperplane lattice."""
    grid = fields[0].grid
    for f in fields[1:]:
        _check_same_grid(f.grid, grid)
    # one stack per distinct field, so that a repeated field is one group
    rows = {id(f): f.coeffs[None] for f in fields}
    value, _ = _lambda_with_scale(form, grid, [rows[id(f)] for f in fields])
    return complex(value[0])


def _real_part(value: np.ndarray, scale: np.ndarray, what: str) -> np.ndarray:
    """value.real, after checking every sample's imaginary residue against its scale."""
    bad = np.abs(value.imag) > IMAG_RESIDUE_TOL * np.maximum(scale, 1e-300)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ArithmeticError(
            f"{what}: imaginary residue {value.imag[i]:.3e} exceeds "
            f"{IMAG_RESIDUE_TOL:.0e} x term scale {scale[i]:.3e} (symmetrization bug?)"
        )
    return value.real


def _real_lambda(
    form: MultilinearForm, grid: GridSpec, coeffs: np.ndarray, what: str
) -> np.ndarray:
    """Lambda_n(form; u,..,u) at each sample of a coefficient stack (S, K),
    as its real part once every sample's imaginary residue is checked."""
    return _real_part(*_lambda_with_scale(form, grid, [coeffs] * form.n), what)


# ---------------------------------------------------------------------------
# Correction multipliers
# ---------------------------------------------------------------------------


def _m2k_sum(mult: IMultiplier, mu: float, idx: tuple) -> np.ndarray:
    """sum_i m^2(k_i) k_i at index tuples (k_i = idx_i/mu), summed left to right:
    the numerator of the closed forms M3 and sigma3."""
    acc = np.zeros(idx[0].shape, dtype=np.float64)
    for a in idx:
        k = a / mu
        acc = acc + _m_array(mult, k) ** 2 * k
    return acc


def big_m3(mult: IMultiplier, grid: GridSpec) -> MultilinearForm:
    """Closed form M3 = (i/3) (m^2(k1) k1 + m^2(k2) k2 + m^2(k3) k3)."""
    mu = grid.mu

    def w(*idx):
        return (1j / 3.0) * _m2k_sum(mult, mu, idx)

    return MultilinearForm(3, w, tag="M3")


def _sigma_values(
    n: int, mult: IMultiplier, grid: GridSpec, idx: tuple, step: Callable | None
) -> np.ndarray:
    """sigma_n at Gamma_n index tuples; from n = 4 on, step is the cascade
    step at Gamma_n, its level of _cascade, that gives M_n there.

    sigma2 = m(k1) m(k2) seeds the cascade. sigma3 = -M3/alpha3 is the
    real closed form: alpha3 = i mu^-(2j+1) P3 never vanishes on nonzero
    entries, by the exact factorization, so a vanishing P3 raises. From
    n = 4 on, sigma_n = -M_n/alpha_n off the resonant set and 0 on it
    (alpha_n = 0, exact integer test), where the pointwise envelope forces
    M_n = 0; that is asserted at RESONANT_M4_TOL relative to the largest
    pair term, and a failure names the tuple where M_n is furthest over it.
    """
    mu = grid.mu
    if n == 2:
        return _m_array(mult, idx[0] / mu) * _m_array(mult, idx[1] / mu)
    pn = _pn_int(idx, grid.j)
    pn_freq = pn.astype(np.float64) * mu ** (-(2 * grid.j + 1))
    if n == 3:
        if np.any(pn == 0):
            raise ArithmeticError(
                "alpha3 = 0 on a nonzero-entry lattice tuple: contradicts the "
                "exact factorization of the resonance polynomial"
            )
        return -(_m2k_sum(mult, mu, idx) / 3.0) / pn_freq
    resonant = pn == 0
    m, scale = step(idx)
    on = np.flatnonzero(resonant)
    excess = np.abs(m[on]) / np.maximum(scale[on], 1e-300)
    if np.any(excess > RESONANT_M4_TOL):
        i, worst = on[np.argmax(excess)], np.max(excess)
        raise ArithmeticError(
            f"M{n} does not vanish on a resonant tuple: |M{n}| = {abs(m[i]):.3e}, "
            f"{worst:.3e} x its largest pair term, at {tuple(int(a[i]) for a in idx)}; "
            "contradicts the resonant-set envelope"
        )
    alpha = 1j * np.where(resonant, 1.0, pn_freq)
    return np.where(resonant, 0.0, -m / alpha)


def _pair_terms(
    n: int, mult: IMultiplier, grid: GridSpec, B: int, cutoff: int | None, step: Callable | None
) -> np.ndarray:
    """sigma_n(rest, p) p/mu on Gamma_n with |entries| <= B and |p| <= cutoff,
    p the last entry, as a flat table dense over the rest (the first n-1
    entries, offset by B, first outermost); 0 off that set. On Gamma_(n+1)
    the rest of a pair fixes its sum p, so each pair term of the cascade
    step is one entry here. Gamma_n is read piece by piece off the one
    lattice walk, resonance._hyperplane_chunks; from n = 4 on, every piece
    takes sigma_n from step, the cascade step at Gamma_n."""
    # sigma2 and sigma3 are real
    table = np.zeros((2 * B + 1) ** (n - 1), dtype=np.float64 if n < 4 else np.complex128)
    for idx in resonance._hyperplane_chunks(n, B):
        if cutoff is not None:
            keep = np.abs(idx[-1]) <= cutoff
            idx = tuple(a[keep] for a in idx)
        values = _sigma_values(n, mult, grid, idx, step)
        table[_flat(idx[:-1], B)] = values * (idx[-1] / grid.mu)
    return table


def _cascade(
    n: int, mult: IMultiplier, grid: GridSpec, cutoff: int | None, bound: int | None = None
) -> dict:
    """The cascade steps at Gamma_n and each level below it down to Gamma_4
    (Gamma_3's alone at n = 3), by level: step(idx) gives (M_n, max |pair
    term|) at index tuples with entries within bound (K at the top; below
    it, the bound of the table the level above reads).

    M_n = -(i/n) sum over pairs {a,b} of sigma_(n-1)(rest, k_a+k_b) (k_a+k_b),
    the pair reduction of the mean over all argument permutations. On
    Gamma_n the rest fixes the pair sum, so each pair term is one read of
    the pair-term table of sigma_(n-1) (see _pair_terms), built once, on
    Gamma_(n-1), through the step below, and held by the step; the chain's
    tables are checked against the budget before the lowest is built. A
    vanishing pair sum contributes exactly 0, and so, with a lattice
    cutoff, does one above it: a mode absent from the K-truncated Galerkin
    system whose energy derivative M_n represents. The table is sized from
    the lattice bound, so every piece of one lattice reads the one table,
    and an entry beyond the bound is refused. Each term is the product the
    indexed read sigma_(n-1)[rest] * ((k_a+k_b)/mu) gives, bit for bit; the
    term scale is read only by sigma_n's resonant-set check."""
    E = grid.K if bound is None else bound
    # rest entries reach E and pair sums 2E, but none above the cutoff counts
    B = 2 * E if cutoff is None else max(E, min(2 * E, cutoff))
    _check_table(n - 1, grid.K, B)
    steps = _cascade(n - 1, mult, grid, cutoff, B) if n > 4 else {}
    terms = _pair_terms(n - 1, mult, grid, B, cutoff, steps.get(n - 1))

    def step(idx):
        if any(a.size and (a.max() > E or a.min() < -E) for a in idx):
            raise ValueError(f"index tuples reach beyond the lattice bound {E}")
        scale = np.zeros(idx[0].shape, dtype=np.float64)
        acc = np.zeros(idx[0].shape, dtype=terms.dtype)
        for a, b in combinations(range(n), 2):
            term = terms.take(_flat([idx[x] for x in range(n) if x not in (a, b)], B))
            acc += term
            np.maximum(scale, np.abs(term), out=scale)
        return (-1j / n) * acc, scale

    return {**steps, n: step}


def big_m5(
    mult: IMultiplier, grid: GridSpec, lattice_cutoff: int | None = None
) -> MultilinearForm:
    """M5 = -2i [sigma4(k1,k2,k3,k4+k5) (k4+k5)]_sym, M_top of _hierarchy at top 5."""
    return _hierarchy(mult, grid, 5, lattice_cutoff)[1]


def _hierarchy(
    mult: IMultiplier, grid: GridSpec, top: int, cutoff: int | None
) -> tuple[list, MultilinearForm]:
    """sigma3..sigma_top and M_top = d/dt E^(top-1), the closed form at top
    3, over one chain of _cascade, whose tables they hold: the one
    constructor of the cascade forms. cutoff (index units) restricts the
    pair sums to the stored lattice, as every run does at grid.K; None
    gives the continuum multipliers."""
    steps = _cascade(top, mult, grid, cutoff) if top > 3 else {}

    def sigma(n, step):
        def w(*idx):
            return _sigma_values(n, mult, grid, idx, step).astype(np.complex128)

        return MultilinearForm(n, w, tag=f"sigma{n}")

    sigmas = [sigma(n, steps.get(n)) for n in range(3, top + 1)]
    if not steps:
        return sigmas, big_m3(mult, grid)
    return sigmas, MultilinearForm(top, lambda *idx: steps[top](idx)[0], tag=f"M{top}")


# ---------------------------------------------------------------------------
# Modified energies and the drift oracle
# ---------------------------------------------------------------------------


def _check_order(order: int) -> None:
    """Refuse an energy order the lab does not verify."""
    if order not in (2, 3, 4):
        raise ValueError(f"order must be 2, 3 or 4, got {order}")


def _modified_energies(
    grid: GridSpec, coeffs: np.ndarray, mult: IMultiplier, corrections: Sequence
) -> np.ndarray:
    """E2 up to E^n at each sample of a coefficient stack (S, K), with the
    corrections sigma3..sigma_n, as rows of an (n - 1, S) array; each row
    is the one before it plus its correction. See modified_energy."""
    m = _m_array(mult, grid.frequencies)
    rows = [2.0 * np.sum(m * m * np.abs(coeffs) ** 2, axis=-1) / (2.0 * np.pi * grid.mu)]
    for form in corrections:
        rows.append(rows[-1] + _real_lambda(form, grid, coeffs, f"Lambda_{form.n} correction"))
    return np.array(rows)


def modified_energy(u: FourierField, mult: IMultiplier, order: int) -> float:
    """E2 = ||Iu||_{L2}^2; E3 = E2 + Lambda_3(sigma3); E4 = E3 + Lambda_4(sigma4).

    The quartic correction uses the K-lattice-consistent sigma4 so the
    derivative identities hold exactly for the integrated Galerkin system.
    """
    _check_order(order)
    sigmas, _ = _hierarchy(mult, u.grid, max(order, 3), u.grid.K)
    return float(_modified_energies(u.grid, u.coeffs[None], mult, sigmas[: order - 2])[-1, 0])


def _energy_rates(
    grid: GridSpec, coeffs: np.ndarray, nl: np.ndarray, mult: IMultiplier, corrections: Sequence
) -> tuple[np.ndarray, np.ndarray]:
    """(exact dE^n/dt, term scale) at each sample of a coefficient stack
    (S, K) along u_t = i k^(2j+1) u_hat + nl, nl of the same shape.

    The derivative DE^n(u)[F] is taken by polarization with the
    corrections sigma3..sigma_n of E^n: the symmetric corrections give
    d/dt Lambda_n(w; u,..,u) = n Lambda_n(w; F, u,..,u). In the E2 term
    the linear part m^2 conj(u_hat) i k^(2j+1) u_hat is purely imaginary,
    so its real part is exactly 0; it is left out rather than evaluated
    to round-off.
    """
    norm = 2.0 * np.pi * grid.mu
    m2 = _m_array(mult, grid.frequencies) ** 2
    value = 4.0 * np.sum(m2 * (np.conj(coeffs) * nl).real, axis=-1) / norm
    scale = 4.0 * np.sum(m2 * np.abs(coeffs) * np.abs(nl), axis=-1) / norm
    F = 1j * grid.frequencies ** (2 * grid.j + 1) * coeffs + nl
    for form in corrections:
        corr, sc = _lambda_with_scale(form, grid, [F] + [coeffs] * (form.n - 1))
        value = value + form.n * _real_part(corr, sc, f"polarized Lambda_{form.n} correction")
        scale = scale + form.n * sc
    return value, scale


def _discrepancy(
    values: np.ndarray, reference: np.ndarray, floor: float
) -> tuple[float, float, float]:
    """(max abs, max rel, reference scale) of values against a Lambda series.

    Relative discrepancy is measured against max |reference|. When the
    reference vanishes identically, values within the round-off floor
    count as zero discrepancy (the identity is 0 = 0); anything above
    that floor reports as infinite.
    """
    diff = np.abs(values - reference)
    max_abs = float(np.max(diff)) if diff.size else 0.0
    ref = float(np.max(np.abs(reference)))
    if ref > 0:
        max_rel = max_abs / ref
    elif max_abs <= floor:
        max_rel = 0.0
    else:
        max_rel = np.inf
    return max_abs, max_rel, ref


@dataclass
class DriftReport:
    """d/dt of a modified energy, two ways, against its Lambda form.

    The finite-difference fields (times, fd, direct, max_abs_discrepancy,
    max_rel_discrepancy, reference_scale) live on the interior samples:
    fd is the centered difference of E^order, direct is
    Lambda_(order+1)(M_(order+1)) there. The exact fields live on every
    trajectory sample: exact is the step-free derivative DE^order(u)[F(u)]
    along the trajectory's own Galerkin vector field F, direct_all the
    Lambda series at the same samples (direct is direct_all[1:-1]).
    """

    order: int
    times: np.ndarray
    fd: np.ndarray
    direct: np.ndarray
    max_abs_discrepancy: float
    max_rel_discrepancy: float
    reference_scale: float
    exact: np.ndarray
    direct_all: np.ndarray
    exact_max_abs_discrepancy: float
    exact_max_rel_discrepancy: float
    exact_reference_scale: float


def drift_oracle(traj, mult: IMultiplier, order: int) -> DriftReport:
    """Check d/dt E^order = Lambda_(order+1)(M) along a trajectory, two ways.

    The derivative identity holds exactly for the K-mode Galerkin system,
    so the trajectory must come from the full flavor (or a truncated one
    with N >= K). Two derivatives are compared with the Lambda series:

    * a centered difference of E^order over the samples. Its step h damps
      each oscillatory term of the Lambda series by about 1 - sinc(P_n h),
      so it is only as good as h resolves the resonance phases P_n;
    * the exact, step-free DE^order(u)[F(u)], by polarization, with
      F = i k^(2j+1) u_hat + N_hat(u) the vector field of traj.spec (its
      nonlinear switch, flavor and N). N_hat is the stepper's own RHS
      kernel, run once over all samples. It is limited only by round-off.

    Relative discrepancies are measured against max |Lambda| over the
    samples each derivative covers; see _discrepancy for the vanishing
    case.
    """
    _check_order(order)
    spec = traj.spec
    if isinstance(spec.N, tuple) or traj.coeffs.ndim != 2:
        raise ValueError(
            f"drift oracle needs a single-field trajectory, got N={spec.N} "
            f"and samples of shape {traj.coeffs.shape[1:]}"
        )
    if len(traj.coeffs) < 3:
        raise ValueError("drift oracle needs at least 3 trajectory samples")
    mask = _band_mask(spec.grid, spec.flavor, spec.N)
    if mask is not None:
        raise ValueError(
            "drift oracle requires the full Galerkin flow: the derivative "
            "identity holds for the K-mode system, not the N-truncated one"
        )
    t = np.asarray(traj.times)
    steps = np.diff(t)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-15):
        raise ValueError("drift oracle needs uniform sample spacing")

    c = traj.coeffs
    nl = np.zeros_like(c)
    if spec.nonlinear:
        _rhs_function(spec.grid, mask, c.shape)(c, nl)
    sigmas, form = _hierarchy(mult, spec.grid, order + 1, spec.grid.K)
    energies = _modified_energies(spec.grid, c, mult, sigmas[:-1])[-1]
    direct_all = _real_lambda(form, spec.grid, c, f"Lambda_{form.n}({form.tag})")
    exact, scales = _energy_rates(spec.grid, c, nl, mult, sigmas[:-1])
    exact_scale = float(np.max(scales))
    direct = direct_all[1:-1]
    fd = (energies[2:] - energies[:-2]) / (t[2:] - t[:-2])

    eps = np.finfo(float).eps
    window = float(t[2] - t[0])
    fd_floor = 64.0 * eps * float(np.max(np.abs(energies))) / window
    max_abs, max_rel, ref = _discrepancy(fd, direct, fd_floor)
    ex_abs, ex_rel, ex_ref = _discrepancy(exact, direct_all, 64.0 * eps * exact_scale)
    return DriftReport(
        order=order,
        times=t[1:-1],
        fd=fd,
        direct=direct,
        max_abs_discrepancy=max_abs,
        max_rel_discrepancy=max_rel,
        reference_scale=ref,
        exact=exact,
        direct_all=direct_all,
        exact_max_abs_discrepancy=ex_abs,
        exact_max_rel_discrepancy=ex_rel,
        exact_reference_scale=ex_ref,
    )
