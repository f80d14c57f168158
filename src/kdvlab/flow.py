"""Time integration of the full and frequency-truncated Galerkin flows.

The evolution in coefficient space is

    d/dt u_hat(k) = i k^(2j+1) u_hat(k) + N_hat(k),
    N = -(1/2) d_x Pi(u^2),

with Pi the sharp projection to |k| <= K (full flavor) or |k| <= N
(truncated flavor, the finite-dimensional Hamiltonian flow). The stiff
linear phase exp(i k^(2j+1) t) is always applied exactly through
multipliers; only the nonlinearity is stepped. The default scheme is
ETDRK4 with contour-integral evaluation of the phi-function coefficients
(cancellation-safe for small k); lawson_rk4 is an integrating-factor
alternative of the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .spectral import FourierField, GridSpec, _check_same_grid, conserved_quantities
from .spectral import symplectic_form  # noqa: F401  (perfbench/tracing.py wraps it here)

__all__ = [
    "FlowSpec",
    "Trajectory",
    "FlowBlowupError",
    "linear_propagate",
    "nonlinear_rhs",
    "integrate",
    "conservation_report",
    "flow_jacobian",
    "check_symplectic",
]

_SCHEMES = ("etdrk4", "lawson_rk4")
_CONTOUR_POINTS = 32
JACOBIAN_DIM_CAP = 64


class FlowBlowupError(RuntimeError):
    """Raised when a coefficient magnitude crosses the blow-up guard."""


@dataclass(frozen=True)
class FlowSpec:
    """Integration configuration.

    flavor "full" projects the nonlinearity to |k| <= K, "truncated" to
    |k| <= N (requires N <= K). T may be negative (backward integration);
    dt is a positive target step, adjusted to land exactly on T.
    """

    grid: GridSpec
    dt: float
    T: float
    flavor: str = "full"
    N: float | None = None
    scheme: str = "etdrk4"
    nonlinear: bool = True
    sample_stride: int = 1
    blowup_threshold: float = 1e12

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"time step dt must be positive, got {self.dt}")
        if self.flavor not in ("full", "truncated"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.flavor == "truncated":
            if self.N is None:
                raise ValueError("truncated flavor requires N")
            if self.N > self.grid.band:
                raise ValueError(
                    f"truncated N={self.N} exceeds the grid band K/mu={self.grid.band:g}"
                )
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass
class Trajectory:
    """Time-stamped coefficient snapshots plus integrator metadata.

    coeffs holds every sample in one array: shape (samples, K) for a single
    field, (samples, members, K) for an ensemble. stats["steps"] counts
    one field advanced by one step, so an ensemble reports steps x members.
    """

    times: np.ndarray
    coeffs: np.ndarray
    spec: FlowSpec
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.times) == 0) and len(self.times) > 1:
            raise ValueError("trajectory timestamps must be strictly monotone")

    @property
    def fields(self) -> list:
        """The samples of a single-field trajectory, built on demand."""
        return [FourierField(self.spec.grid, c) for c in self.coeffs]


def _phases(grid: GridSpec) -> np.ndarray:
    k = grid.frequencies
    return 1j * k ** (2 * grid.j + 1)


def linear_propagate(u: FourierField, t: float) -> FourierField:
    """Exact free evolution u_hat(k) -> exp(i k^(2j+1) t) u_hat(k)."""
    return FourierField(u.grid, u.coeffs * np.exp(_phases(u.grid) * t))


def _full(table: np.ndarray, shape: tuple) -> np.ndarray:
    """A per-mode table repeated along the leading axes of shape.

    Operands of equal shape take numpy's contiguous loops, where a
    broadcast operand would take its buffered iterator, which allocates.
    """
    full = np.empty(shape, dtype=table.dtype)
    full[...] = table
    return full


def _rhs_function(
    grid: GridSpec, flavor: str, N: float | None, shape: tuple
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Vectorized nonlinearity -(1/2) d_x Pi(u^2) on coefficient arrays of one shape.

    rhs(c, out) writes the tendency of c into out and returns out; c is not
    changed. The zero-padded half spectrum, the physical samples and the
    spectrum of their square are held between calls, so a call creates no
    arrays. Entries outside the band, a suffix, are set to +0.0.

    The transforms call the pocketfft gufuncs behind numpy.fft's irfft and
    rfft directly, with the factors numpy.fft passes for norm="backward"
    (1/P inverse, 1 forward), so the output bits are numpy.fft's without
    its per-call argument handling. The core axis is the last one.
    """
    P = grid.physical_points
    K = grid.K
    if flavor not in ("full", "truncated") or (flavor == "truncated" and N is None):
        raise ValueError(f"unknown flavor {flavor!r} (truncated requires N)")
    in_band = K if flavor == "full" else grid.modes_upto(N)
    minus_half_ik = _full(-0.5 * (1j * grid.frequencies), shape)
    phys_scale = P / (2.0 * np.pi * grid.mu)
    spec_scale = 2.0 * np.pi * grid.mu / P
    inv_P = np.reciprocal(P, dtype=np.float64)
    irfft = _pocketfft.irfft
    rfft = _pocketfft.rfft_n_even if P % 2 == 0 else _pocketfft.rfft_n_odd
    lead = shape[:-1]
    half = np.zeros(lead + (P // 2 + 1,), dtype=np.complex128)
    w = np.empty(lead + (P,))
    sp = np.empty(lead + (P // 2 + 1,), dtype=np.complex128)
    half_modes, sp_modes = half[..., 1 : K + 1], sp[..., 1 : K + 1]
    truncates = in_band < K

    def rhs(c: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(c, phys_scale, out=half_modes)
        irfft(half, inv_P, out=w)
        rfft(np.multiply(w, w, out=w), 1, out=sp)
        np.multiply(minus_half_ik, np.multiply(sp_modes, spec_scale, out=out), out=out)
        if truncates:
            out[..., in_band:] = 0.0
        return out

    return rhs


def nonlinear_rhs(u: FourierField, flavor: str = "full", N: float | None = None) -> FourierField:
    """Nonlinear tendency -(1/2) d_x Pi(u^2) as a field (alias-free)."""
    rhs = _rhs_function(u.grid, flavor, N, u.coeffs.shape)
    return FourierField(u.grid, rhs(u.coeffs, np.empty(u.coeffs.shape, dtype=np.complex128)))


def _etdrk4_tables(lin: np.ndarray, h: float) -> dict:
    """Cox-Matthews coefficients via contour averaging around each h*L.

    The mean of an entire function over a unit circle centered at z equals
    its value at z to spectral accuracy, so the phi-function combinations
    are evaluated without subtractive cancellation even when |h*L| is tiny.
    """
    hl = h * lin
    theta = np.exp(1j * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5) / _CONTOUR_POINTS * 2.0)
    z = hl[:, None] + theta[None, :]
    ez = np.exp(z)
    q = h * np.mean((np.exp(z / 2.0) - 1.0) / z, axis=1)
    f1 = h * np.mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z**3, axis=1)
    two_f2 = 2.0 * (h * np.mean((2.0 + z + ez * (z - 2.0)) / z**3, axis=1))
    f3 = h * np.mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z**3, axis=1)
    return {
        "e_full": np.exp(hl),
        "e_half": np.exp(hl / 2.0),
        "q": q,
        "f1": f1,
        "two_f2": two_f2,
        "f3": f3,
    }


class _Stepper:
    """One-step integrator with precomputed exponential tables.

    Advances a coefficient array of one shape, (K,) or (members, K), in
    place; the tables are repeated along the leading axis and the FFTs run
    along the last. The eight stage arrays are held between steps, so a step
    creates no arrays. Each stage evaluates the expression in its comment
    with the same operands in the same order, so the result does not depend
    on the shape: an ensemble member equals its own solve bit for bit.
    """

    def __init__(self, spec: FlowSpec, h: float, shape: tuple):
        self.spec = spec
        self.h = h
        lin = _phases(spec.grid)
        if spec.nonlinear:
            self.rhs = _rhs_function(spec.grid, spec.flavor, spec.N, shape)
        else:
            self.rhs = None
        if spec.scheme == "etdrk4" and self.rhs is not None:
            tab = _etdrk4_tables(lin, h)
        else:
            e_half = np.exp(h * lin / 2.0)
            tab = {
                "e_full": np.exp(h * lin),
                "e_half": e_half,
                "h_e_half": h * e_half,
                "two_e_half": 2.0 * e_half,
            }
        self.tab = {name: _full(t, shape) for name, t in tab.items()}
        self.buf = [np.empty(shape, dtype=np.complex128) for _ in range(8)]

    def step(self, c: np.ndarray) -> None:
        """Advance c by one step of length h, in place."""
        t = self.tab
        mul, add = np.multiply, np.add
        if self.rhs is None:
            mul(t["e_full"], c, out=c)
            return
        rhs = self.rhs
        n0, na, nb, nc, a, b, ec, s = self.buf
        if self.spec.scheme == "etdrk4":
            e_half, q = t["e_half"], t["q"]
            mul(e_half, c, out=ec)
            rhs(c, n0)
            rhs(add(ec, mul(q, n0, out=a), out=a), na)  # a = e_half*c + q*n0
            rhs(add(ec, mul(q, na, out=b), out=b), nb)  # b = e_half*c + q*na
            np.subtract(mul(2.0, nb, out=s), n0, out=s)
            rhs(add(mul(e_half, a, out=b), mul(q, s, out=s), out=b), nc)  # e_half*a + q*(2nb - n0)
            # c = e_full*c + f1*n0 + (2 f2)*(na + nb) + f3*nc, summed left to right
            mul(t["e_full"], c, out=s)
            add(s, mul(t["f1"], n0, out=a), out=s)
            add(s, mul(t["two_f2"], add(na, nb, out=a), out=a), out=s)
            add(s, mul(t["f3"], nc, out=a), out=c)
        else:  # lawson_rk4
            e_full, e_half, half_h = t["e_full"], t["e_half"], 0.5 * self.h
            rhs(c, n0)
            # na = rhs(e_half*(c + (h/2)*n0)), nb = rhs(e_half*c + (h/2)*na)
            rhs(mul(e_half, add(c, mul(half_h, n0, out=s), out=s), out=a), na)
            rhs(add(mul(e_half, c, out=b), mul(half_h, na, out=s), out=b), nb)
            mul(e_full, c, out=ec)
            rhs(add(ec, mul(t["h_e_half"], nb, out=s), out=b), nc)  # e_full*c + (h e_half)*nb
            # c = e_full*c + (h/6)*(e_full*n0 + (2 e_half)*(na + nb) + nc)
            add(mul(e_full, n0, out=a), mul(t["two_e_half"], add(na, nb, out=s), out=s), out=a)
            add(ec, mul(self.h / 6.0, add(a, nc, out=a), out=a), out=c)


def _step_count(spec: FlowSpec) -> int:
    return max(1, round(abs(spec.T) / spec.dt))


def integrate(u0: FourierField | Sequence[FourierField], spec: FlowSpec) -> Trajectory:
    """Run the flow from u0 over [0, T]; samples every sample_stride steps.

    u0 is one field or a sequence of fields (an ensemble), all advanced in
    one loop; each member's samples equal those of its own solve bit for
    bit. Truncated-flavor data is projected onto |k| <= N rather than
    rejected. The requested dt is adjusted to the nearest step count
    landing exactly on T. The blow-up guard runs after every step, sampled
    or not: a coefficient magnitude above its threshold, or a NaN, aborts,
    and for an ensemble the error names the member.
    """
    g = spec.grid
    ensemble = not isinstance(u0, FourierField)
    members = list(u0) if ensemble else [u0]
    if not members:
        raise ValueError("integrate needs at least one initial field")
    for u in members:
        _check_same_grid(u.grid, g)
    c = np.array([u.coeffs for u in members]) if ensemble else u0.coeffs.copy()
    if spec.flavor == "truncated":
        c[..., g.modes_upto(spec.N) :] = 0.0

    if spec.T == 0.0:
        return Trajectory(times=np.array([0.0]), coeffs=c[None], spec=spec, stats={"steps": 0})

    n_steps = _step_count(spec)
    h = spec.T / n_steps
    stepper = _Stepper(spec, h, c.shape)

    stride = spec.sample_stride
    sampled = list(range(stride, n_steps + 1, stride))
    if sampled[-1:] != [n_steps]:
        sampled.append(n_steps)
    times = np.array([0.0] + [s * h for s in sampled])
    samples = np.empty((len(times),) + c.shape, dtype=np.complex128)
    samples[0] = c
    n_done = 1
    mags = np.empty(c.shape)
    for step in range(1, n_steps + 1):
        stepper.step(c)
        peak = np.abs(c, out=mags).max()
        if not peak <= spec.blowup_threshold:  # also trips on NaN
            where = ""
            if ensemble:
                peaks = np.max(np.abs(c), axis=-1)
                bad = ~(peaks <= spec.blowup_threshold)
                where = f" in member {int(np.argmax(bad))}"
                peak = float(peaks[bad][0])
            raise FlowBlowupError(
                f"blow-up guard tripped{where} at t={step * h:.6g}: max |coeff| = "
                f"{peak:.3e} > {spec.blowup_threshold:.1e}"
            )
        if step % stride == 0 or step == n_steps:
            samples[n_done] = c
            n_done += 1
    return Trajectory(
        times=times, coeffs=samples, spec=spec, stats={"steps": n_steps * len(members)}
    )


def conservation_report(traj: Trajectory) -> tuple[list, dict]:
    """Per-sample conserved quantities plus maximal drifts.

    The reported Hamiltonian uses the full cubic term also for truncated
    trajectories: projection does not change the integral of u^3 when the
    field itself is band-limited, so H remains the invariant.
    """
    reports = [
        conserved_quantities(u, timestamp=t) for t, u in zip(traj.times, traj.fields)
    ]
    e0 = reports[0].l2_energy
    h0 = reports[0].hamiltonian
    drifts = {
        "mass": max(abs(r.mass) for r in reports),
        "l2_energy": max(abs(r.l2_energy - e0) for r in reports)
        / max(abs(e0), 1e-300),
        "hamiltonian": max(abs(r.hamiltonian - h0) for r in reports)
        / max(abs(h0), 1e-300),
    }
    return reports, drifts


def _coords_of(c: np.ndarray, n_modes: int) -> np.ndarray:
    out = np.empty(c.shape[:-1] + (2 * n_modes,))
    out[..., 0::2] = c[..., :n_modes].real
    out[..., 1::2] = c[..., :n_modes].imag
    return out


def _field_of(x: np.ndarray, grid: GridSpec, n_modes: int) -> FourierField:
    c = np.zeros(grid.K, dtype=np.complex128)
    c[:n_modes] = x[0::2] + 1j * x[1::2]
    return FourierField(grid, c)


def flow_jacobian(u0: FourierField, spec: FlowSpec, h: float) -> np.ndarray:
    """Central-difference Jacobian of u0 -> S(T) u0 in real coordinates.

    Coordinates are (Re u_hat(k), Im u_hat(k)) for 0 < k <= N of a
    truncated flow, the grid's modes_upto(N) modes; the dimension is capped
    for cost. All 2·dim perturbed data are advanced as one ensemble that
    keeps only its endpoint.
    """
    if spec.flavor != "truncated":
        raise ValueError("flow_jacobian is defined for the truncated flavor")
    n_modes = spec.grid.modes_upto(spec.N)
    dim = 2 * n_modes
    if dim > JACOBIAN_DIM_CAP:
        raise ValueError(f"jacobian dimension {dim} exceeds cap {JACOBIAN_DIM_CAP}")
    if not h > 0:
        raise ValueError("finite-difference step must be positive")

    x0 = _coords_of(u0.coeffs, n_modes)
    probes = []
    for i in range(dim):
        for sgn in (1.0, -1.0):
            x = x0.copy()
            x[i] += sgn * h
            probes.append(_field_of(x, spec.grid, n_modes))
    ends = integrate(probes, replace(spec, sample_stride=_step_count(spec))).coeffs[-1]
    y = _coords_of(ends, n_modes)
    return np.ascontiguousarray(((y[0::2] - y[1::2]) / (2.0 * h)).T)


def symplectic_matrix(grid: GridSpec, N: float) -> np.ndarray:
    """Matrix of spectral.symplectic_form on the (Re, Im) coordinate basis.

    Block-diagonal with antisymmetric 2x2 blocks: the form pairs Re u_hat(k)
    with Im u_hat(k) at weight 1/(pi mu k), the antiderivative's 1/k.
    """
    n_modes = grid.modes_upto(N)
    w = (1.0 / grid.frequencies[:n_modes]) / (np.pi * grid.mu)
    i = np.arange(n_modes)
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    omega[2 * i, 2 * i + 1] = w
    omega[2 * i + 1, 2 * i] = -w
    return omega


def check_symplectic(J: np.ndarray, grid: GridSpec, N: float) -> float:
    """Defect max |J^T Omega J - Omega| of a flow-map Jacobian."""
    J = np.asarray(J, dtype=np.float64)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError("jacobian must be square")
    if J.shape[0] % 2 != 0:
        raise ValueError("jacobian dimension must be even")
    omega = symplectic_matrix(grid, N)
    if omega.shape != J.shape:
        raise ValueError(
            f"jacobian dimension {J.shape[0]} does not match 2N={omega.shape[0]}"
        )
    return float(np.max(np.abs(J.T @ omega @ J - omega)))
