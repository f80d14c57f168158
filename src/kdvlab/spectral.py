"""Fourier representation of mean-zero real fields on the torus.

Fields live on a circle of circumference 2*pi*mu with frequency lattice
Z_mu = {n/mu : n integer}. A field is stored through its Fourier
coefficients u_hat(k) = integral over the torus of exp(-i*k*x) u(x) dx,
kept only for the positive half of the lattice (0 < n <= K); the negative
half is implied by conjugate symmetry and the zero mode is absent, which
enforces real-valued, mean-zero fields structurally.

Sobolev norms use the convention

    ||u||_{H^s}^2 = (2*pi*mu)^{-1} * sum_k w(k)^{2s} |u_hat(k)|^2

with weight w(k) = (1 + k^2)^{1/2} by default, or |k| for the homogeneous
variant used by exact scaling identities on mean-zero fields.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "FourierField",
    "ConservedReport",
    "make_grid",
    "transform",
    "inverse",
    "project",
    "derivative",
    "sobolev_norm",
    "symplectic_form",
    "conserved_quantities",
    "harmonic",
    "random_smooth_field",
    "save_snapshot",
    "load_snapshot",
]

SNAPSHOT_SCHEMA_VERSION = 1


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (fast FFT size)."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@dataclass(frozen=True)
class GridSpec:
    """Model and grid parameters.

    j : dispersion order; the linear operator is d_x^(2j+1).
    K : largest retained mode index; frequencies are n/mu, 0 < n <= K.
    mu : period parameter; the torus has circumference 2*pi*mu.
    physical_points : collocation points for transforms, >= 3K+1 so that
        quadratic products of band-limited fields are alias-free.
    """

    j: int
    K: int
    mu: float = 1.0
    physical_points: int = 0

    def __post_init__(self):
        if self.j < 1:
            raise ValueError(f"dispersion order j must be >= 1, got {self.j}")
        if self.K < 1:
            raise ValueError(f"mode cutoff K must be >= 1, got {self.K}")
        if not self.mu > 0:
            raise ValueError(f"period parameter mu must be positive, got {self.mu}")
        if self.physical_points < 3 * self.K + 1:
            raise ValueError(
                f"physical_points={self.physical_points} < 3K+1={3 * self.K + 1}"
            )

    @property
    def circumference(self) -> float:
        return 2.0 * np.pi * self.mu

    @property
    def modes(self) -> np.ndarray:
        """Positive mode indices 1..K."""
        return np.arange(1, self.K + 1)

    @property
    def frequencies(self) -> np.ndarray:
        """Positive lattice frequencies n/mu for n = 1..K."""
        return self.modes / self.mu

    @property
    def band(self) -> float:
        """K/mu, the largest stored frequency."""
        return self.K / self.mu

    def modes_upto(self, N: float) -> int:
        """Number of stored modes with frequency <= N, the prefix 1..modes_upto(N)."""
        return int(np.count_nonzero(self.frequencies <= N))

    @property
    def cubic_points(self) -> int:
        """Transform size making cubic integrands alias-free (>= 4K+1)."""
        return _next_fast_len(4 * self.K + 1)


def make_grid(j: int, K: int, mu: float = 1.0) -> GridSpec:
    """Validated grid on the smallest fast transform size >= 3K+1."""
    return GridSpec(j=j, K=K, mu=float(mu), physical_points=_next_fast_len(3 * K + 1))


@dataclass(frozen=True)
class FourierField:
    """Mean-zero real field stored as positive-half Fourier coefficients.

    coeffs[n-1] is u_hat(n/mu) for n = 1..K; u_hat(-k) = conj(u_hat(k)) is
    implied and never stored, so conjugate symmetry (realness) and the
    absent zero mode (mean zero) hold by construction.
    """

    grid: GridSpec
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.K,):
            raise ValueError(f"coeffs shape {c.shape} != ({self.grid.K},)")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, grid: GridSpec) -> "FourierField":
        return cls(grid, np.zeros(grid.K, dtype=np.complex128))

    @classmethod
    def from_modes(cls, grid: GridSpec, modes: dict) -> "FourierField":
        """Field from {positive mode index: coefficient}."""
        c = np.zeros(grid.K, dtype=np.complex128)
        for n, v in modes.items():
            n = int(n)
            if not 1 <= n <= grid.K:
                raise ValueError(f"mode index {n} outside 1..{grid.K}")
            c[n - 1] = v
        return cls(grid, c)

    def mode(self, n: int) -> complex:
        """Coefficient at signed mode index n (conjugate for n < 0)."""
        if n == 0:
            return 0.0 + 0.0j
        if abs(n) > self.grid.K:
            return 0.0 + 0.0j
        if n > 0:
            return complex(self.coeffs[n - 1])
        return complex(np.conj(self.coeffs[-n - 1]))

    def __add__(self, other: "FourierField") -> "FourierField":
        _check_same_grid(self.grid, other.grid)
        return FourierField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "FourierField") -> "FourierField":
        _check_same_grid(self.grid, other.grid)
        return FourierField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "FourierField":
        return FourierField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _check_same_grid(a: GridSpec, b: GridSpec) -> None:
    """Refuse two grids of different model or lattice (j, K, mu)."""
    if (a.j, a.K, a.mu) != (b.j, b.K, b.mu):
        raise ValueError(
            f"grid (j={a.j}, K={a.K}, mu={a.mu}) does not match (j={b.j}, K={b.K}, mu={b.mu})"
        )


def _to_physical(u: FourierField, npoints: int) -> np.ndarray:
    """Real samples on npoints uniform collocation points."""
    if npoints < 2 * u.grid.K + 1:
        raise ValueError(f"{npoints} points under-resolve K={u.grid.K}")
    half = np.zeros(npoints // 2 + 1, dtype=np.complex128)
    half[1 : u.grid.K + 1] = u.coeffs
    scale = npoints / (2.0 * np.pi * u.grid.mu)
    return np.fft.irfft(half * scale, n=npoints)


def _from_physical(samples: np.ndarray, grid: GridSpec) -> FourierField:
    """Projection of real samples onto modes 1..K; mean and tail discarded."""
    samples = np.asarray(samples, dtype=np.float64)
    spec = np.fft.rfft(samples)
    scale = 2.0 * np.pi * grid.mu / samples.size
    kmax = min(grid.K, spec.size - 1)
    c = np.zeros(grid.K, dtype=np.complex128)
    c[:kmax] = spec[1 : kmax + 1] * scale
    return FourierField(grid, c)


def transform(u: FourierField) -> np.ndarray:
    """Physical samples at the grid's collocation points."""
    return _to_physical(u, u.grid.physical_points)


def inverse(samples: np.ndarray, grid: GridSpec) -> FourierField:
    """Field from physical samples; inverse of ``transform``."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (grid.physical_points,):
        raise ValueError(
            f"expected {grid.physical_points} samples, got {samples.shape}"
        )
    return _from_physical(samples, grid)


def project(u: FourierField, band: str, N: float) -> FourierField:
    """Sharp Fourier projection.

    band: "le" keeps |k| <= N, "gt" keeps |k| > N, "dyadic" keeps
    N <= |k| < 2N. Frequencies are n/mu.
    """
    if not N > 0:
        raise ValueError(f"band threshold N must be positive, got {N}")
    k = u.grid.frequencies
    if band == "le":
        mask = k <= N
    elif band == "gt":
        mask = k > N
    elif band == "dyadic":
        mask = (k >= N) & (k < 2 * N)
    else:
        raise ValueError(f"unknown band {band!r}")
    return FourierField(u.grid, np.where(mask, u.coeffs, 0.0))


def derivative(u: FourierField, m: int) -> FourierField:
    """m-th spatial derivative; m = -1 is the mean-zero antiderivative."""
    if m < -1:
        raise ValueError(f"derivative order must be >= -1, got {m}")
    ik = 1j * u.grid.frequencies
    return FourierField(u.grid, u.coeffs * ik**m)


def sobolev_norm(u: FourierField, s: float, weight: str = "bessel") -> float:
    """H^s norm; weight "bessel" uses <k>^s, "homogeneous" uses |k|^s."""
    k = u.grid.frequencies
    if weight == "bessel":
        w = (1.0 + k * k) ** s
    elif weight == "homogeneous":
        w = np.abs(k) ** (2.0 * s)
    else:
        raise ValueError(f"unknown weight {weight!r}")
    total = 2.0 * np.sum(w * np.abs(u.coeffs) ** 2)
    return float(np.sqrt(total / (2.0 * np.pi * u.grid.mu)))


def symplectic_form(u: FourierField, v: FourierField) -> float:
    """omega(u, v) = integral of u * d_x^{-1} v over the torus.

    Bilinear and antisymmetric; the pairing behind the Hamiltonian
    structure on mean-zero H^{-1/2}.
    """
    _check_same_grid(u.grid, v.grid)
    k = u.grid.frequencies
    s = np.sum(np.imag(u.coeffs * np.conj(v.coeffs)) / k)
    return float(-s / (np.pi * u.grid.mu))


@dataclass(frozen=True)
class ConservedReport:
    """Mass, L^2 energy and Hamiltonian of one field at one instant."""

    mass: float
    l2_energy: float
    hamiltonian: float
    timestamp: float = 0.0


def conserved_quantities(u: FourierField, timestamp: float = 0.0) -> ConservedReport:
    """M, E, H with dealiased cubic quadrature for the u^3 term.

    M is exactly 0 by construction. E = int u^2. H = int (1/2)(d_x^j u)^2
    - (1/6) u^3, the cubic evaluated on a >= 4K+1 point grid so the
    quadrature is exact for band-limited fields.
    """
    g = u.grid
    inv2pimu = 1.0 / (2.0 * np.pi * g.mu)
    energy = 2.0 * np.sum(np.abs(u.coeffs) ** 2) * inv2pimu
    k = g.frequencies
    quad = np.sum(k ** (2 * g.j) * np.abs(u.coeffs) ** 2) * inv2pimu
    w = _to_physical(u, g.cubic_points)
    cubic = np.sum(w**3) * (g.circumference / g.cubic_points)
    return ConservedReport(
        mass=0.0,
        l2_energy=float(energy),
        hamiltonian=float(quad - cubic / 6.0),
        timestamp=timestamp,
    )


def harmonic(grid: GridSpec, n: int, amplitude: float = 1.0, phase: float = 0.0) -> FourierField:
    """amplitude * cos(k x + phase) for mode index n (k = n/mu)."""
    return FourierField.from_modes(
        grid, {n: amplitude * np.pi * grid.mu * np.exp(1j * phase)}
    )


def random_smooth_field(
    grid: GridSpec,
    rng: np.random.Generator,
    decay: float = 1.0,
    norm_s: float = 0.0,
    norm_value: float = 1.0,
    kmax: int | None = None,
) -> FourierField:
    """Random field with exponentially decaying spectrum, normalized in H^s.

    Modes above kmax (index units) are zeroed after the draw, so the draws
    do not depend on kmax.
    """
    n = grid.modes
    z = rng.standard_normal(grid.K) + 1j * rng.standard_normal(grid.K)
    c = z * np.exp(-decay * n)
    if kmax is not None:
        c = np.where(n <= kmax, c, 0.0)
    u = FourierField(grid, c)
    cur = sobolev_norm(u, norm_s)
    if cur == 0.0:
        raise ValueError("degenerate random field")
    return u * (norm_value / cur)


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file renamed over it."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_snapshot(u: FourierField, path: str) -> None:
    """Write a field snapshot (JSON, positive modes only) atomically."""
    payload = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "j": u.grid.j,
        "mu": u.grid.mu,
        "K": u.grid.K,
        "coeffs": [
            [int(n), float(c.real), float(c.imag)]
            for n, c in zip(u.grid.modes, u.coeffs)
            if c != 0
        ],
    }
    _write_atomic(path, json.dumps(payload, indent=1) + "\n")


def load_snapshot(path: str) -> FourierField:
    """Read a snapshot; rejects malformed files.

    Rejected: k_index 0 or negative (would break the positive-half storage
    that guarantees conjugate symmetry), duplicates, indices above K,
    non-finite values, unknown schema version.
    """
    with open(path) as fh:
        payload = json.load(fh)
    for key in ("schema_version", "j", "mu", "K", "coeffs"):
        if key not in payload:
            raise ValueError(f"snapshot missing key {key!r}")
    if payload["schema_version"] != SNAPSHOT_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {payload['schema_version']}")
    grid = make_grid(int(payload["j"]), int(payload["K"]), float(payload["mu"]))
    c = np.zeros(grid.K, dtype=np.complex128)
    seen = set()
    for entry in payload["coeffs"]:
        if len(entry) != 3:
            raise ValueError(f"malformed coeff entry {entry!r}")
        n, re, im = entry
        n = int(n)
        if n <= 0:
            raise ValueError(f"snapshot contains k_index {n} <= 0")
        if n > grid.K:
            raise ValueError(f"snapshot k_index {n} exceeds K={grid.K}")
        if n in seen:
            raise ValueError(f"duplicate k_index {n}")
        if not (np.isfinite(re) and np.isfinite(im)):
            raise ValueError(f"non-finite coefficient at k_index {n}")
        seen.add(n)
        c[n - 1] = complex(re, im)
    return FourierField(grid, c)
