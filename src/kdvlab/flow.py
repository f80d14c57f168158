"""Time integration of the full and frequency-truncated Galerkin flows.

The evolution in coefficient space is

    d/dt u_hat(k) = i k^(2j+1) u_hat(k) + N_hat(k),
    N = -(1/2) d_x Pi(u^2),

with Pi the sharp projection to |k| <= K (full flavor) or |k| <= N
(truncated flavor, the finite-dimensional Hamiltonian flow). An ensemble
may give each member its own N; the truncation is one mask of the
entries above each member's threshold. The stiff linear phase
exp(i k^(2j+1) t) is always applied exactly through multipliers; only
the nonlinearity is stepped, by ETDRK4 (Cox-Matthews) with the
phi-function coefficients evaluated by contour averaging
(Kassam-Trefethen), which is cancellation-safe for small k.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .spectral import FourierField, GridSpec, _check_bytes, _check_same_grid, conserved_quantities
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

_CONTOUR_POINTS = 32
# a coefficient magnitude above this, or a NaN, aborts a run (see integrate)
BLOWUP_THRESHOLD = 1e12


class FlowBlowupError(RuntimeError):
    """Raised when a coefficient magnitude crosses the blow-up guard."""


@dataclass(frozen=True)
class FlowSpec:
    """Integration configuration.

    flavor "full" projects the nonlinearity to |k| <= K and takes no N,
    "truncated" to |k| <= N (requires N <= K/mu). N is one frequency
    threshold, or a tuple with one threshold per member of the ensemble it
    is integrated with. T is finite and may be negative (backward integration);
    dt is a positive target step, adjusted to land exactly on T.
    """

    grid: GridSpec
    dt: float
    T: float
    flavor: str = "full"
    N: float | tuple | None = None
    nonlinear: bool = True
    sample_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"time step dt must be positive, got {self.dt}")
        if not np.isfinite(self.T):
            raise ValueError(f"final time T must be finite, got {self.T}")
        _check_band(self.grid, self.flavor, self.N)
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
        if len(self.times) != len(self.coeffs):
            raise ValueError(f"trajectory has {len(self.times)} times for {len(self.coeffs)} samples")
        # neighbours compared, one flag array at a time: a byte a sample (_run_bytes)
        t = self.times
        if np.isnan(t).any() or not ((t[1:] > t[:-1]).all() or (t[1:] < t[:-1]).all()):
            raise ValueError("trajectory timestamps must be strictly monotone, with no NaN")

    @property
    def fields(self) -> list:
        """The samples of a single-field trajectory, built on demand."""
        if self.coeffs.ndim == 3:
            raise ValueError(f"fields takes a single-field trajectory; this one holds "
                             f"{self.coeffs.shape[1]} members (coeffs shape {self.coeffs.shape})")
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


def _check_band(grid: GridSpec, flavor: str, N: float | tuple | None) -> None:
    """Refuse an unknown flavor, a full flow given a threshold N it would
    ignore, and a truncated flow without N or with an N not in (0, K/mu]."""
    if flavor == "full":
        if N is not None:
            raise ValueError(f"the full flavor takes no threshold N, got N={N}")
        return
    if flavor != "truncated" or N is None:
        raise ValueError(f"unknown flavor {flavor!r} (truncated requires N)")
    for n in N if isinstance(N, tuple) else (N,):
        if not 0 < n <= grid.band:  # also refuses NaN
            raise ValueError(
                f"truncated N={n} exceeds the grid band K/mu={grid.band:g}" if n > grid.band
                else f"truncated N={n} is not > 0" if n <= 0
                else f"truncated N={n} is not a number"
            )


def _band_mask(grid: GridSpec, flavor: str, N: float | tuple | None) -> np.ndarray | None:
    """The entries a flow zeroes: those above N, per member for a tuple N.

    Shape (K,) for one threshold, (len(N), K) for a tuple; None when no
    entry is zeroed, as in the full flavor or at N >= K/mu.
    """
    _check_band(grid, flavor, N)
    if flavor == "full":
        return None
    in_band = [grid.modes_upto(n) for n in N] if isinstance(N, tuple) else grid.modes_upto(N)
    mask = np.arange(grid.K) >= np.array(in_band)[..., None]
    return mask if mask.any() else None


def _rhs_function(
    grid: GridSpec, mask: np.ndarray | None, shape: tuple
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Vectorized nonlinearity -(1/2) d_x Pi(u^2) on coefficient arrays of one shape.

    rhs(c, out) writes the tendency of c into out and returns out; c is not
    changed. The zero-padded half spectrum, the physical samples and the
    spectrum of their square are held between calls, so a call creates no
    arrays. Entries where the band mask (see _band_mask; broadcast to
    shape) is True are set to +0.0.

    The transforms call the pocketfft gufuncs behind numpy.fft's irfft and
    rfft directly, with the factors numpy.fft passes for norm="backward"
    (1/P inverse, 1 forward), so the output bits are numpy.fft's without
    its per-call argument handling. The core axis is the last one. Every
    operand is an array of its loop's dtype and every output is passed
    positionally, so no call converts a Python scalar or parses a keyword.
    """
    P = grid.physical_points
    K = grid.K
    minus_half_ik = _full(-0.5 * (1j * grid.frequencies), shape)
    phys_scale = np.array(P / (2.0 * np.pi * grid.mu), dtype=np.complex128)
    spec_scale = np.array(2.0 * np.pi * grid.mu / P, dtype=np.complex128)
    inv_P, one = np.array(1.0 / P), np.array(1.0)
    irfft = _pocketfft.irfft
    rfft = _pocketfft.rfft_n_even if P % 2 == 0 else _pocketfft.rfft_n_odd
    lead = shape[:-1]
    half = np.zeros(lead + (P // 2 + 1,), dtype=np.complex128)
    w = np.empty(lead + (P,))
    sp = np.empty(lead + (P // 2 + 1,), dtype=np.complex128)
    half_modes, sp_modes = half[..., 1 : K + 1], sp[..., 1 : K + 1]
    # A ufunc on a strided view of a 2-D array takes numpy's buffered
    # iterator, which allocates; a copy does not. So an ensemble scales its
    # modes in a held contiguous array, copied into and out of the views. A
    # single field's views are contiguous and are scaled directly.
    copies = len(shape) > 1
    if copies:
        modes_in = modes_out = np.empty(shape, dtype=np.complex128)
    else:
        modes_in, modes_out = half_modes, sp_modes
    zero = np.zeros((), dtype=np.complex128)

    def rhs(c: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(c, phys_scale, modes_in)
        if copies:
            np.copyto(half_modes, modes_in)
        irfft(half, inv_P, w)
        rfft(np.multiply(w, w, w), one, sp)
        if copies:
            np.copyto(modes_out, sp_modes)
        np.multiply(minus_half_ik, np.multiply(modes_out, spec_scale, out), out)
        if mask is not None:
            np.copyto(out, zero, where=mask)
        return out

    return rhs


def _check_thresholds(N: float | tuple | None, members: int | None) -> None:
    """Refuse a tuple N unless it holds one threshold per member of an
    ensemble of that many; members None stands for a single field."""
    if isinstance(N, tuple) and len(N) != members:
        size = "a single field" if members is None else f"an ensemble of {members}"
        raise ValueError(f"N has {len(N)} per-member thresholds for {size}")


def nonlinear_rhs(u: FourierField, flavor: str = "full", N: float | None = None) -> FourierField:
    """Nonlinear tendency -(1/2) d_x Pi(u^2) as a field (alias-free)."""
    _check_thresholds(N, None)
    rhs = _rhs_function(u.grid, _band_mask(u.grid, flavor, N), u.coeffs.shape)
    return FourierField(u.grid, rhs(u.coeffs, np.empty(u.coeffs.shape, dtype=np.complex128)))


def _etdrk4_tables(lin: np.ndarray, h: float) -> tuple:
    """Cox-Matthews coefficients e_full, e_half, q, f1, 2 f2, f3 via contour
    averaging around each h*L.

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
    return np.exp(hl), np.exp(hl / 2.0), q, f1, two_f2, f3


def _step_function(
    grid: GridSpec, h: float, mask: np.ndarray | None, shape: tuple, nonlinear: bool
) -> Callable[[np.ndarray], None]:
    """One ETDRK4 step of length h on coefficient arrays of one shape.

    step(c) advances c, of shape (K,) or (members, K), in place; the tables
    are repeated along the leading axis and the FFTs run along the last.
    The eight stage arrays are held between steps, so a step creates no
    arrays. Each stage evaluates the expression in its comment with the
    same operands in the same order, so the result does not depend on the
    shape: an ensemble member equals its own solve bit for bit. Without
    the nonlinearity a step is the exact phase exp(h L). As in the RHS,
    every operand is a complex128 array and every output is positional.
    """
    lin = _phases(grid)
    mul, add = np.multiply, np.add
    if not nonlinear:
        e_full = _full(np.exp(h * lin), shape)

        def linear_step(c: np.ndarray) -> None:
            mul(e_full, c, c)

        return linear_step

    e_full, e_half, q, f1, two_f2, f3 = (_full(t, shape) for t in _etdrk4_tables(lin, h))
    rhs = _rhs_function(grid, mask, shape)
    n0, na, nb, nc, a, b, ec, s = (np.empty(shape, dtype=np.complex128) for _ in range(8))
    two = np.array(2.0, dtype=np.complex128)

    def step(c: np.ndarray) -> None:
        mul(e_half, c, ec)
        rhs(c, n0)
        rhs(add(ec, mul(q, n0, a), a), na)  # a = e_half*c + q*n0
        rhs(add(ec, mul(q, na, b), b), nb)  # b = e_half*c + q*na
        np.subtract(mul(two, nb, s), n0, s)
        rhs(add(mul(e_half, a, b), mul(q, s, s), b), nc)  # e_half*a + q*(2nb - n0)
        # c = e_full*c + f1*n0 + (2 f2)*(na + nb) + f3*nc, summed left to right
        mul(e_full, c, s)
        add(s, mul(f1, n0, a), s)
        add(s, mul(two_f2, add(na, nb, a), a), s)
        add(s, mul(f3, nc, a), c)

    return step


def _step_count(spec: FlowSpec) -> int:
    return max(1, round(abs(spec.T) / spec.dt))


def _run_bytes(grid: GridSpec, shape: tuple, n_samples: int, nonlinear: bool) -> int:
    """Bytes of the arrays integrate holds at its peak for a run of
    n_samples on coefficient arrays of shape (K,) or (members, K).

    The working copy and band mask are held throughout. With the
    nonlinearity the tables are formed first, holding the phases L and h*L,
    the six per-mode tables and at most six (K, 32) complex arrays of the
    contour averaging; all are freed before the run holds its step's six
    tables and eight stage arrays, the RHS's half spectrum, physical
    samples, squared spectrum, -ik/2 table and, for an ensemble, mode copy,
    its samples, times and magnitudes, the Trajectory check's flags, and,
    while the step is formed, L and the per-mode tables. The count is the
    larger phase, each summed, plus 16 KiB for the Python objects around
    the arrays (up to 10 KB measured at K=8), so it bounds the peak. A
    linear run has one phase.
    """
    K, P = grid.K, grid.physical_points
    size = int(np.prod(shape))
    objects = 16384
    # samples and working copy, band mask, times, magnitudes, the time check
    held = 16 * size * (n_samples + 1) + size + 8 * n_samples + 8 * size + n_samples
    if not nonlinear:
        return held + 16 * size + 3 * 16 * K + objects
    # working copy and band mask; L, h*L, the six per-mode tables; the contour workspace
    tables = 16 * size + size + 8 * 16 * K + 6 * 16 * _CONTOUR_POINTS * K
    # -ik/2 and an ensemble's mode copy; per member two half spectra and P samples
    rhs = 16 * size * (1 + (len(shape) > 1)) + size // K * (2 * 16 * (P // 2 + 1) + 8 * P)
    return max(tables, held + 16 * size * (6 + 8) + rhs + 7 * 16 * K) + objects


def integrate(u0: FourierField | Sequence[FourierField], spec: FlowSpec) -> Trajectory:
    """Run the flow from u0 over [0, T]; samples every sample_stride steps.

    u0 is one field or a sequence of fields (an ensemble), all advanced in
    one loop; each member's samples equal those of its own solve bit for
    bit. A tuple N gives each member of an ensemble its own threshold;
    each member's samples equal those of its solve with that one N.
    Truncated-flavor data is projected onto |k| <= N rather than rejected.
    The requested dt is adjusted to the nearest step count landing exactly
    on T. The blow-up guard runs after every step, sampled or not: a
    coefficient magnitude above BLOWUP_THRESHOLD, or a NaN, aborts, and
    for an ensemble the error names the member. A run whose arrays (see
    _run_bytes) exceed spectral.BUDGET_BYTES is refused before any exists.
    """
    g = spec.grid
    ensemble = not isinstance(u0, FourierField)
    members = list(u0) if ensemble else [u0]
    if not members:
        raise ValueError("integrate needs at least one initial field")
    for u in members:
        _check_same_grid(u.grid, g)
    _check_thresholds(spec.N, len(members) if ensemble else None)
    mask = _band_mask(g, spec.flavor, spec.N)
    # every stride-th step and the last are sampled, after the datum
    n_steps, stride = (_step_count(spec) if spec.T else 0), spec.sample_stride
    n_samples = 1 + -(-n_steps // stride)
    shape = (len(members), g.K) if ensemble else (g.K,)
    _check_bytes(_run_bytes(g, shape, n_samples, spec.nonlinear),
                 f"K={g.K} in {n_samples} samples of {len(members)} members needs a run")
    c = np.array([u.coeffs for u in members]) if ensemble else u0.coeffs.copy()
    if mask is not None:
        np.copyto(c, 0.0, where=mask)

    if spec.T == 0.0:
        return Trajectory(times=np.array([0.0]), coeffs=c[None], spec=spec, stats={"steps": 0})

    h = spec.T / n_steps
    advance = _step_function(g, h, mask, c.shape, spec.nonlinear)

    times = np.zeros(n_samples)
    times[1:n_samples - 1] = np.arange(stride, n_steps, stride) * h
    times[-1] = n_steps * h
    samples = np.empty((n_samples,) + c.shape, dtype=np.complex128)
    samples[0] = c
    n_done = 1
    mags = np.empty(c.shape)
    threshold = BLOWUP_THRESHOLD
    for step in range(1, n_steps + 1):
        advance(c)
        # the ufunc reduction itself: ndarray.max goes through a Python wrapper
        peak = np.maximum.reduce(np.absolute(c, mags), None)
        if not peak <= threshold:  # also trips on NaN
            where = ""
            if ensemble:
                peaks = np.max(np.abs(c), axis=-1)
                bad = ~(peaks <= threshold)
                where = f" in member {int(np.argmax(bad))}"
                peak = float(peaks[bad][0])
            raise FlowBlowupError(
                f"blow-up guard tripped{where} at t={step * h:.6g}: max |coeff| = "
                f"{peak:.3e} > {threshold:.1e}"
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
    reports = [conserved_quantities(u) for u in traj.fields]
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
    truncated flow, the grid's modes_upto(N) modes. All 2·dim perturbed
    data are advanced as one ensemble that keeps only its endpoint; it is
    refused, before a probe is built, if the probes and their run (see
    _run_bytes) exceed spectral.BUDGET_BYTES.
    """
    if spec.flavor != "truncated":
        raise ValueError("flow_jacobian is defined for the truncated flavor")
    if isinstance(spec.N, tuple):
        raise ValueError(f"flow_jacobian takes one threshold N, got one per member: {spec.N}")
    n_modes = spec.grid.modes_upto(spec.N)
    dim = 2 * n_modes
    K = spec.grid.K
    _check_bytes(16 * 2 * dim * K + _run_bytes(spec.grid, (2 * dim, K), 2, spec.nonlinear),
                 f"N={spec.N} needs {2 * dim} Jacobian probes at K={K} and their run")
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
