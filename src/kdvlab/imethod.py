"""I-method machinery: multiplier, multilinear forms and modified energies.

The operator I rescales high frequencies by an even weight m that is 1
below a threshold N and decays like N^(-s) |xi|^s above 2N. Modified
energies are built from n-linear lattice sums

    Lambda_n(w; u_1..u_n)
        = (2*pi*mu)^(1-n) * sum over Gamma_n of w(k_1..k_n) prod u_hat(k_i)

restricted to nonzero entries with |index| <= K; with this normalization
Lambda_3(1) equals the integral of u^3. The correction multipliers follow
the cascade

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
sigma_(n-1) is evaluated once per lattice, as a table on Gamma_(n-1) that
the step reads. A term whose pair sum vanishes contributes exactly 0, and
sigma4 is defined as 0 on resonant tuples (alpha4 = 0), where a runtime
check confirms M4 vanishes there. Tuples, form weights and sigma tables
share the one bounded cache of the resonance module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .flow import _rhs_function
from .resonance import _cached, _hyperplane_tuples, _pn_int
from .spectral import FourierField, GridSpec, _check_same_grid

__all__ = [
    "IMultiplier",
    "MultilinearForm",
    "eval_m",
    "apply_I",
    "lambda_n",
    "constant_form",
    "big_m3",
    "big_m3_symmetrized",
    "sigma3",
    "big_m4",
    "sigma4",
    "big_m5",
    "modified_energy",
    "DriftReport",
    "drift_oracle",
]

QUINTIC_K_CAP = 16
IMAG_RESIDUE_TOL = 1e-10
RESONANT_M4_TOL = 1e-10

_M_SHAPES = ("clipped_power", "smooth_log")


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
        if self.s > 0:
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
    complex array. cache_key, when set, lets evaluators reuse weight
    tables across calls on the same lattice.
    """

    n: int
    weight: Callable[..., np.ndarray]
    tag: str = "custom"
    cache_key: tuple | None = None


def constant_form(n: int, value: complex = 1.0) -> MultilinearForm:
    def w(*idx):
        return np.full(idx[0].shape, value, dtype=np.complex128)

    return MultilinearForm(n=n, weight=w, tag="constant", cache_key=("const", n, value))


def _form_weights(form: MultilinearForm, K: int) -> np.ndarray:
    idx = _hyperplane_tuples(form.n, K)
    if form.cache_key is None:
        return form.weight(*idx)
    return _cached(("weights", form.cache_key, form.n, K), lambda: form.weight(*idx))


def _coeff_table(u: FourierField) -> np.ndarray:
    """Lookup table over signed indices: table[idx + K] = u_hat(idx/mu)."""
    K = u.grid.K
    table = np.zeros(2 * K + 1, dtype=np.complex128)
    table[K + 1 :] = u.coeffs
    table[:K] = np.conj(u.coeffs[::-1])
    return table


def _lambda_with_scale(
    form: MultilinearForm, fields: Sequence[FourierField]
) -> tuple[complex, float]:
    if len(fields) != form.n:
        raise ValueError(f"form arity {form.n} != {len(fields)} fields")
    grid = fields[0].grid
    for f in fields[1:]:
        _check_same_grid(f.grid, grid)
    if form.n >= 5 and grid.K > QUINTIC_K_CAP:
        raise ValueError(
            f"quintic hyperplane sums are capped at K={QUINTIC_K_CAP}, got K={grid.K}"
        )
    idx = _hyperplane_tuples(form.n, grid.K)
    w = _form_weights(form, grid.K)
    prod = np.ones(idx[0].shape, dtype=np.complex128)
    for a, f in zip(idx, fields):
        prod = prod * _coeff_table(f)[a + grid.K]
    norm = (2.0 * np.pi * grid.mu) ** (1 - form.n)
    terms = w * prod
    return norm * complex(np.sum(terms)), norm * float(np.sum(np.abs(terms)))


def lambda_n(form: MultilinearForm, fields: Sequence[FourierField]) -> complex:
    """Evaluate Lambda_n(form; fields) over the truncated hyperplane lattice."""
    value, _ = _lambda_with_scale(form, fields)
    return value


def _real_part(value: complex, scale: float, what: str) -> float:
    if abs(value.imag) > IMAG_RESIDUE_TOL * max(scale, 1e-300):
        raise ArithmeticError(
            f"{what}: imaginary residue {value.imag:.3e} exceeds "
            f"{IMAG_RESIDUE_TOL:.0e} x term scale {scale:.3e} (symmetrization bug?)"
        )
    return value.real


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

    return MultilinearForm(3, w, tag="M3", cache_key=("M3", mult, grid.j, mu))


def _sigma_values(
    n: int, mult: IMultiplier, grid: GridSpec, idx: tuple, cutoff: int | None = None
) -> np.ndarray:
    """sigma_n at Gamma_n index tuples.

    sigma2 = m(k1) m(k2) seeds the cascade. sigma3 = -M3/alpha3 is the
    real closed form: alpha3 = i mu^-(2j+1) P3 never vanishes on nonzero
    entries, by the exact factorization, so a vanishing P3 raises. From
    n = 4 on, sigma_n = -M_n/alpha_n off the resonant set and 0 on it
    (alpha_n = 0, exact integer test), where the pointwise envelope forces
    M_n = 0; that is asserted at RESONANT_M4_TOL relative to the largest
    pair term.
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
    m, scale = _m_values(n, mult, grid, idx, cutoff)
    if np.any(np.abs(m[resonant]) > RESONANT_M4_TOL * np.maximum(scale[resonant], 1e-300)):
        worst = float(np.max(np.abs(m[resonant])))
        raise ArithmeticError(
            f"M{n} does not vanish on a resonant tuple (|M{n}| up to {worst:.3e}); "
            "contradicts the resonant-set envelope"
        )
    alpha = 1j * np.where(resonant, 1.0, pn_freq)
    return np.where(resonant, 0.0, -m / alpha)


def _sigma_table(
    n: int, mult: IMultiplier, grid: GridSpec, B: int, cutoff: int | None
) -> np.ndarray:
    """sigma_n on Gamma_n with |entries| <= B and |last| <= cutoff, dense
    over the first n-1 entries (offset by B); 0 off that set."""

    def build():
        idx = _hyperplane_tuples(n, B)
        if cutoff is not None:
            keep = np.abs(idx[-1]) <= cutoff
            idx = tuple(a[keep] for a in idx)
        values = _sigma_values(n, mult, grid, idx, cutoff)
        table = np.zeros((2 * B + 1,) * (n - 1), dtype=values.dtype)
        table[tuple(a + B for a in idx[:-1])] = values
        return table

    return _cached(("sigma", n, mult, grid.j, grid.mu, B, cutoff), build)


def _m_values(
    n: int,
    mult: IMultiplier,
    grid: GridSpec,
    idx: tuple,
    cutoff: int | None = None,
    with_scale: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(M_n, max |pair term|) at Gamma_n index tuples: the one cascade step.

    M_n = -(i/n) sum over pairs {a,b} of sigma_(n-1)(rest, k_a+k_b) (k_a+k_b),
    the pair reduction of the mean over all argument permutations. On
    Gamma_n the rest fixes the pair sum, so sigma_(n-1) is read from its
    table on Gamma_(n-1), which covers every entry and pair sum here. A
    vanishing pair sum contributes exactly 0, and so, with a lattice
    cutoff, does one above it: it is a mode absent from the K-truncated
    Galerkin system whose energy derivative this multiplier represents.

    The term scale is read only by sigma_n's resonant-set check; with
    with_scale false it is not accumulated and None stands in its place.
    """
    # rest entries reach E and pair sums 2E, but none above the cutoff counts
    E = max((int(np.max(np.abs(a))) for a in idx if a.size), default=1)
    B = 2 * E if cutoff is None else max(E, min(2 * E, cutoff))
    table = _sigma_table(n - 1, mult, grid, B, cutoff)
    acc = np.zeros(idx[0].shape, dtype=table.dtype)
    scale = np.zeros(idx[0].shape, dtype=np.float64) if with_scale else None
    for a, b in combinations(range(n), 2):
        rest = tuple(idx[x] + B for x in range(n) if x not in (a, b))
        term = table[rest] * ((idx[a] + idx[b]) / grid.mu)
        acc = acc + term
        if with_scale:
            scale = np.maximum(scale, np.abs(term))
    return (-1j / n) * acc, scale


def _cascade_form(
    kind: str,
    n: int,
    mult: IMultiplier,
    grid: GridSpec,
    cutoff: int | None = None,
    tag: str | None = None,
) -> MultilinearForm:
    """M_n (kind "M") or sigma_n (kind "sigma") of the cascade as a form."""

    def w(*idx):
        if kind == "M":
            return _m_values(n, mult, grid, idx, cutoff, with_scale=False)[0]
        return _sigma_values(n, mult, grid, idx, cutoff).astype(np.complex128)

    tag = tag or f"{kind}{n}"
    return MultilinearForm(n, w, tag=tag, cache_key=(tag, mult, grid.j, grid.mu, cutoff))


def big_m3_symmetrized(mult: IMultiplier, grid: GridSpec) -> MultilinearForm:
    """M3 as the cascade step on sigma2 = m(k1) m(k2): -i [m(k1) m(k2+k3) (k2+k3)]_sym."""
    return _cascade_form("M", 3, mult, grid, tag="M3sym")


def sigma3(mult: IMultiplier, grid: GridSpec) -> MultilinearForm:
    """sigma3 = -M3/alpha3; real, even, permutation-symmetric."""
    return _cascade_form("sigma", 3, mult, grid)


def big_m4(
    mult: IMultiplier, grid: GridSpec, lattice_cutoff: int | None = None
) -> MultilinearForm:
    """M4 = -(3i/2) [sigma3(k1,k2,k3+k4) (k3+k4)]_sym.

    lattice_cutoff (index units) restricts symmetrization pair sums to the
    stored lattice; None gives the continuum multiplier.
    """
    return _cascade_form("M", 4, mult, grid, lattice_cutoff)


def sigma4(
    mult: IMultiplier, grid: GridSpec, lattice_cutoff: int | None = None
) -> MultilinearForm:
    """sigma4 = -M4/alpha4 with the resonant-set zero convention."""
    return _cascade_form("sigma", 4, mult, grid, lattice_cutoff)


def big_m5(
    mult: IMultiplier, grid: GridSpec, lattice_cutoff: int | None = None
) -> MultilinearForm:
    """M5 = -2i [sigma4(k1,k2,k3,k4+k5) (k4+k5)]_sym."""
    return _cascade_form("M", 5, mult, grid, lattice_cutoff)


def _successor_form(order: int, mult: IMultiplier, grid: GridSpec) -> MultilinearForm:
    """Multiplier of Lambda_(order+1) equal to d/dt E^order on the K-lattice."""
    if order == 2:
        return big_m3(mult, grid)
    if order == 3:
        return big_m4(mult, grid, lattice_cutoff=grid.K)
    return big_m5(mult, grid, lattice_cutoff=grid.K)


# ---------------------------------------------------------------------------
# Modified energies and the drift oracle
# ---------------------------------------------------------------------------


def _corrections(mult: IMultiplier, grid: GridSpec, order: int) -> list:
    """The correction forms of E^order: sigma3 from order 3, then sigma4 on the K-lattice."""
    return [sigma3(mult, grid), sigma4(mult, grid, lattice_cutoff=grid.K)][: order - 2]


def modified_energy(u: FourierField, mult: IMultiplier, order: int) -> float:
    """E2 = ||Iu||_{L2}^2; E3 = E2 + Lambda_3(sigma3); E4 = E3 + Lambda_4(sigma4).

    The quartic correction uses the K-lattice-consistent sigma4 so the
    derivative identities hold exactly for the integrated Galerkin system.
    """
    if order not in (2, 3, 4):
        raise ValueError(f"order must be 2, 3 or 4, got {order}")
    m = _m_array(mult, u.grid.frequencies)
    value = 2.0 * np.sum(m * m * np.abs(u.coeffs) ** 2) / (2.0 * np.pi * u.grid.mu)
    for form in _corrections(mult, u.grid, order):
        corr, scale = _lambda_with_scale(form, [u] * form.n)
        value += _real_part(corr, scale, f"Lambda_{form.n} correction")
    return float(value)


def _energy_rate(
    u: FourierField, nl: FourierField, mult: IMultiplier, order: int
) -> tuple[float, float]:
    """(exact dE^order/dt, term scale) at u along u_t = i k^(2j+1) u_hat + nl.

    The derivative DE^order(u)[F] is taken by polarization with the same
    forms modified_energy uses: the symmetric corrections give
    d/dt Lambda_n(w; u,..,u) = n Lambda_n(w; F, u,..,u). In the E2 term
    the linear part m^2 conj(u_hat) i k^(2j+1) u_hat is purely imaginary,
    so its real part is exactly 0; it is left out rather than evaluated
    to round-off.
    """
    grid = u.grid
    norm = 2.0 * np.pi * grid.mu
    m2 = _m_array(mult, grid.frequencies) ** 2
    value = 4.0 * float(np.sum(m2 * (np.conj(u.coeffs) * nl.coeffs).real)) / norm
    scale = 4.0 * float(np.sum(m2 * np.abs(u.coeffs) * np.abs(nl.coeffs))) / norm
    F = FourierField(grid, 1j * grid.frequencies ** (2 * grid.j + 1) * u.coeffs + nl.coeffs)
    for form in _corrections(mult, grid, order):
        corr, sc = _lambda_with_scale(form, [F] + [u] * (form.n - 1))
        value += form.n * _real_part(corr, sc, f"polarized Lambda_{form.n} correction")
        scale += form.n * sc
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
    if order not in (2, 3, 4):
        raise ValueError(f"order must be 2, 3 or 4, got {order}")
    fields = traj.fields
    if len(fields) < 3:
        raise ValueError("drift oracle needs at least 3 trajectory samples")
    spec = traj.spec
    if spec.flavor == "truncated" and spec.N < spec.grid.band:
        raise ValueError(
            "drift oracle requires the full Galerkin flow: the derivative "
            "identity holds for the K-mode system, not the N-truncated one"
        )
    t = np.asarray(traj.times)
    steps = np.diff(t)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-15):
        raise ValueError("drift oracle needs uniform sample spacing")

    nl = np.zeros_like(traj.coeffs)
    if spec.nonlinear:
        _rhs_function(spec.grid, spec.flavor, spec.N, traj.coeffs.shape)(traj.coeffs, nl)
    energies = np.array([modified_energy(u, mult, order) for u in fields])
    form = _successor_form(order, mult, spec.grid)
    direct_all = np.empty(len(fields))
    exact = np.empty(len(fields))
    exact_scale = 0.0
    for i, u in enumerate(fields):
        val, scale = _lambda_with_scale(form, [u] * form.n)
        direct_all[i] = _real_part(val, scale, f"Lambda_{form.n}({form.tag})")
        exact[i], scale = _energy_rate(u, FourierField(spec.grid, nl[i]), mult, order)
        exact_scale = max(exact_scale, scale)
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
