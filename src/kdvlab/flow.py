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

from .spectral import FourierField, GridSpec, conserved_quantities
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
            if self.N > self.grid.K / self.grid.mu:
                raise ValueError(
                    f"truncated N={self.N} exceeds the grid band "
                    f"K/mu={self.grid.K / self.grid.mu:g}"
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


def _band_mask(grid: GridSpec, flavor: str, N: float | None) -> np.ndarray:
    if flavor == "full":
        return np.ones(grid.K, dtype=bool)
    if flavor == "truncated" and N is not None:
        return grid.frequencies <= N
    raise ValueError(f"unknown flavor {flavor!r} (truncated requires N)")


def _rhs_function(
    grid: GridSpec, flavor: str, N: float | None
) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized nonlinearity on coefficient arrays: -(1/2) d_x Pi(u^2)."""
    P = grid.physical_points
    mask = _band_mask(grid, flavor, N)
    ik = 1j * grid.frequencies
    phys_scale = P / (2.0 * np.pi * grid.mu)
    spec_scale = 2.0 * np.pi * grid.mu / P
    half_len = P // 2 + 1

    def rhs(c: np.ndarray) -> np.ndarray:
        half = np.zeros(c.shape[:-1] + (half_len,), dtype=np.complex128)
        half[..., 1 : grid.K + 1] = c * phys_scale
        w = np.fft.irfft(half, n=P)
        sq = np.fft.rfft(w * w)[..., 1 : grid.K + 1] * spec_scale
        return np.where(mask, -0.5 * ik * sq, 0.0)

    return rhs


def nonlinear_rhs(u: FourierField, flavor: str = "full", N: float | None = None) -> FourierField:
    """Nonlinear tendency -(1/2) d_x Pi(u^2) as a field (alias-free)."""
    return FourierField(u.grid, _rhs_function(u.grid, flavor, N)(u.coeffs.copy()))


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
    f2 = h * np.mean((2.0 + z + ez * (z - 2.0)) / z**3, axis=1)
    f3 = h * np.mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z**3, axis=1)
    return {
        "e_full": np.exp(hl),
        "e_half": np.exp(hl / 2.0),
        "q": q,
        "f1": f1,
        "f2": f2,
        "f3": f3,
    }


class _Stepper:
    """One-step integrator with precomputed exponential tables.

    Steps a coefficient array of shape (K,) or (members, K); the tables
    broadcast along the leading axis and the FFTs run along the last.
    """

    def __init__(self, spec: FlowSpec, h: float):
        self.spec = spec
        self.h = h
        lin = _phases(spec.grid)
        if spec.nonlinear:
            self.rhs = _rhs_function(spec.grid, spec.flavor, spec.N)
        else:
            self.rhs = None
        if spec.scheme == "etdrk4" and self.rhs is not None:
            self.tab = _etdrk4_tables(lin, h)
        else:
            self.tab = {"e_full": np.exp(h * lin), "e_half": np.exp(h * lin / 2.0)}

    def step(self, c: np.ndarray) -> np.ndarray:
        t = self.tab
        if self.rhs is None:
            return t["e_full"] * c
        if self.spec.scheme == "etdrk4":
            n0 = self.rhs(c)
            a = t["e_half"] * c + t["q"] * n0
            na = self.rhs(a)
            b = t["e_half"] * c + t["q"] * na
            nb = self.rhs(b)
            cc = t["e_half"] * a + t["q"] * (2.0 * nb - n0)
            nc = self.rhs(cc)
            return t["e_full"] * c + t["f1"] * n0 + 2.0 * t["f2"] * (na + nb) + t["f3"] * nc
        else:  # lawson_rk4
            h = self.h
            e1, e2 = t["e_full"], t["e_half"]
            n0 = self.rhs(c)
            na = self.rhs(e2 * (c + 0.5 * h * n0))
            nb = self.rhs(e2 * c + 0.5 * h * na)
            nc = self.rhs(e1 * c + h * e2 * nb)
        return e1 * c + (h / 6.0) * (e1 * n0 + 2.0 * e2 * (na + nb) + nc)


def _step_count(spec: FlowSpec) -> int:
    return max(1, round(abs(spec.T) / spec.dt))


def integrate(u0: FourierField | Sequence[FourierField], spec: FlowSpec) -> Trajectory:
    """Run the flow from u0 over [0, T]; samples every sample_stride steps.

    u0 is one field or a sequence of fields (an ensemble), all advanced in
    one loop; each member's samples equal those of its own solve bit for
    bit. Truncated-flavor data is projected onto |k| <= N rather than
    rejected. The requested dt is adjusted to the nearest step count
    landing exactly on T. A coefficient magnitude above the blow-up
    threshold aborts; for an ensemble the error names the member.
    """
    g = spec.grid
    ensemble = not isinstance(u0, FourierField)
    members = list(u0) if ensemble else [u0]
    if not members:
        raise ValueError("integrate needs at least one initial field")
    for u in members:
        if (u.grid.j, u.grid.K, u.grid.mu) != (g.j, g.K, g.mu):
            raise ValueError("initial data grid does not match flow grid")
    c = np.array([u.coeffs for u in members]) if ensemble else u0.coeffs.copy()
    if spec.flavor == "truncated":
        c = np.where(_band_mask(g, "truncated", spec.N), c, 0.0)

    if spec.T == 0.0:
        return Trajectory(times=np.array([0.0]), coeffs=c[None], spec=spec, stats={"steps": 0})

    n_steps = _step_count(spec)
    h = spec.T / n_steps
    stepper = _Stepper(spec, h)

    stride = spec.sample_stride
    sampled = list(range(stride, n_steps + 1, stride))
    if sampled[-1:] != [n_steps]:
        sampled.append(n_steps)
    times = np.array([0.0] + [s * h for s in sampled])
    samples = np.empty((len(times),) + c.shape, dtype=np.complex128)
    samples[0] = c
    n_done = 1
    for step in range(1, n_steps + 1):
        c = stepper.step(c)
        peak = float(np.max(np.abs(c)))
        if not np.isfinite(peak) or peak > spec.blowup_threshold:
            where = ""
            if ensemble:
                peaks = np.max(np.abs(c), axis=-1)
                bad = ~np.isfinite(peaks) | (peaks > spec.blowup_threshold)
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
    truncated flow; dimension 2N is capped for cost. All 2·dim perturbed
    data are advanced as one ensemble that keeps only its endpoint.
    """
    if spec.flavor != "truncated":
        raise ValueError("flow_jacobian is defined for the truncated flavor")
    n_modes = int(spec.N * spec.grid.mu)
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
    n_modes = int(N * grid.mu)
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
