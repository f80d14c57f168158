"""Numerical experiments on the truncated-flow approximation and invariants.

Four families: truncation-approximation and high-frequency-insensitivity
sweeps (difference between the full and modified flows measured below a
moving frequency cut), almost-conservation sweeps of the modified
energies, a nonsqueezing witness search on the truncated flow, and the
scaling-identity check across period parameters.

Conventions pinned here so results are reproducible:

* "sup over t <= T" is discretized at 32 uniform intervals plus both
  endpoints (33 sample times).
* Sweep errors are measured with the Bessel-weight H^(-1/2) norm; the
  scaling identity uses the homogeneous weight, for which the mean-zero
  rescaling ratio mu^(-2j-s+1/2) is an exact identity.
* The nonsqueezing ball lives in the symplectic H^(-1/2) metric
  ||w||^2 = sum_{k>0} |w_hat(k)|^2 / k, the unique one coherent with the
  cylinder coordinate c(u) = |k0|^(-1/2) |u_hat(k0) - z|: a field
  concentrated in the k0 pair has c equal to its distance from center,
  so at T = 0 the supremum of c over the radius-R sphere is exactly R.
* Per-task RNG streams derive from (seed, task index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .flow import FlowSpec, Trajectory, integrate
from .imethod import IMultiplier, _check_table, _hierarchy, _modified_energies
from .imethod import modified_energy  # noqa: F401  (perfbench/tracing.py wraps it here)
from .spectral import (
    FourierField,
    GridSpec,
    make_grid,
    project,
    random_smooth_field,
    sobolev_norm,
)

__all__ = [
    "ExperimentConfig",
    "SweepResult",
    "WitnessResult",
    "approx_truncated_sweep",
    "high_freq_insensitivity",
    "almost_conservation_sweep",
    "squeeze_witness",
    "scaling_check",
    "ball_norm",
    "cylinder_coordinate",
]

SUP_INTERVALS = 32
FIT_RESIDUAL_THRESHOLD = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for all experiment kinds.

    Every field but j and K has a reproducible default, and these defaults
    are the ones the CLI gives the same keys. The grid, the flow settings,
    N_list, data_kmax, amplitude, tail_size, the ball data and k0 != 0 are
    validated here, the rest by the experiment that reads them. K and
    k0 are mode indices; N_list and data_kmax are frequencies
    (grid.modes_upto converts). z = z_re + i z_im is the cylinder center,
    (radius, center) the ball data.
    """

    j: int
    K: int
    mu: float = 1.0
    dt: float = 1e-3
    T: float = 1.0
    s: float = -0.5
    N_list: tuple = ()
    samples: int = 64
    seed: int = 0
    radius: float = 1.0
    k0: int = 1
    z_re: float = 0.0
    z_im: float = 0.0
    decay: float = 1.5
    amplitude: float = 1.0
    data_kmax: float | None = None
    tail_size: float = 1.0
    n_ascent: int = 200

    def __post_init__(self):
        grid = self.grid
        FlowSpec(grid=grid, dt=self.dt, T=self.T)
        for key, least in (("samples", 1), ("seed", 0), ("n_ascent", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if self.N_list and list(self.N_list) != sorted(set(self.N_list)):
            raise ValueError(f"N_list must be strictly increasing, got {self.N_list}")
        if self.N_list and not min(self.N_list) > 0:
            raise ValueError(f"N_list entries must be positive, got {self.N_list}")
        if self.data_kmax is not None and grid.modes_upto(self.data_kmax) == 0:
            raise ValueError(
                f"data_kmax={self.data_kmax} is below the first stored frequency "
                f"1/mu={1 / self.mu:g}"
            )
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        for key in ("amplitude", "tail_size"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        if self.k0 == 0:
            raise ValueError("cylinder mode k0 must be nonzero")

    @property
    def grid(self) -> GridSpec:
        """The validated grid of (j, K, mu)."""
        return make_grid(self.j, self.K, self.mu)

    @property
    def N(self) -> float:
        """Frequency threshold of the witness search: max(N_list), else the band K/mu."""
        return float(max(self.N_list)) if self.N_list else self.grid.band

    @property
    def z(self) -> complex:
        return complex(self.z_re, self.z_im)


@dataclass
class SweepResult:
    """Rows of (parameter, measurements) plus a log-log exponent fit."""

    kind: str
    columns: tuple
    rows: list
    fitted_exponent: float | None
    fit_residual: float | None
    diagnostics: dict = field(default_factory=dict)


def _rng_stream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _fit_loglog(params: Sequence[float], values: Sequence[float]):
    """Least-squares slope of log(value) vs log(param); (slope, residual, flagged)."""
    x = np.log(np.asarray(params, dtype=float))
    y = np.asarray(values, dtype=float)
    if len(x) < 3 or np.any(y <= 0):
        return None, None, True
    ly = np.log(y)
    coef = np.polyfit(x, ly, 1)
    resid = float(np.sqrt(np.mean((np.polyval(coef, x) - ly) ** 2)))
    return float(coef[0]), resid, resid > FIT_RESIDUAL_THRESHOLD


def _sampled_solve(
    u0: FourierField | Sequence[FourierField],
    grid: GridSpec,
    cfg: ExperimentConfig,
    flavor: str = "full",
    N: float | tuple | None = None,
    T: float | None = None,
    dt: float | None = None,
) -> Trajectory:
    """Integrate a field or an ensemble with SUP_INTERVALS+1 uniform samples on [0, T].

    At T = 0 the trajectory is the one sample of the (projected) data.
    """
    T = cfg.T if T is None else T
    dt = cfg.dt if dt is None else dt
    per = max(1, round(abs(T) / (SUP_INTERVALS * dt)))
    steps = per * SUP_INTERVALS
    spec = FlowSpec(
        grid=grid, dt=abs(T) / steps if T else dt, T=T, flavor=flavor, N=N, sample_stride=per
    )
    return integrate(u0, spec)


# ---------------------------------------------------------------------------
# Sweeps over the frequency threshold N
# ---------------------------------------------------------------------------


def _sweep_start(cfg: ExperimentConfig) -> tuple[GridSpec, FourierField]:
    """The grid and a datum band-limited to frequency min(N_list) >= 1/mu, refused
    unless the reference band K/mu is at least 4 max(N_list)."""
    if not cfg.N_list:
        raise ValueError("the sweep needs N_list")
    grid = cfg.grid
    if grid.band < 4 * max(cfg.N_list):
        raise ValueError(
            f"reference band K/mu={grid.band:g} under-resolved: need K/mu >= "
            f"4 max(N_list)={4 * max(cfg.N_list):g}"
        )
    kmax = grid.modes_upto(min(cfg.N_list))
    if kmax == 0:
        raise ValueError(f"min(N_list)={min(cfg.N_list):g} is below the first stored "
                         f"frequency 1/mu={1 / cfg.mu:g}")
    return grid, random_smooth_field(grid, _rng_stream(cfg.seed, 0), cfg.decay, kmax=kmax,
                                     norm_s=-0.5, norm_value=cfg.amplitude)


def _low_errors(grid: GridSpec, a: np.ndarray, b: np.ndarray, cut: float) -> list:
    """Per-sample ||P_{<=cut}(a - b)||_{H^{-1/2}} of two coefficient series."""
    return [
        sobolev_norm(project(FourierField(grid, x - y), "le", cut), -0.5)
        for x, y in zip(a, b)
    ]


def first_rise(rows: list) -> int | None:
    """Index i of the first rows (N, value, ...) i, i + 1 whose value does not
    strictly fall (a NaN never falls); None when the values strictly decrease."""
    return next((i for i in range(len(rows) - 1) if not rows[i + 1][1] < rows[i][1]), None)


def _sweep_result(kind: str, columns: tuple, rows: list, **extra) -> SweepResult:
    """Rows (N, value, ...) with the log-log fit of value against N."""
    slope, resid, flagged = _fit_loglog([row[0] for row in rows], [row[1] for row in rows])
    diagnostics = {"fit_flagged": flagged, "monotone": first_rise(rows) is None, **extra}
    return SweepResult(kind, columns, rows, slope, resid, diagnostics)


def approx_truncated_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Error of the truncated flow below the sqrt(N) cut, over dyadic N.

    For each N, measures sup over sample times of
    || P_{<= sqrt(N)} (S(t) u0 - S^N(t) u0) ||_{H^{-1/2}} against the
    full flow at reference resolution K, and fits error ~ N^(-sigma).
    The reference and every truncated flow are solved as one ensemble,
    with one threshold per member: the reference's is the band K/mu, at
    which the truncated flow is the full flow bit for bit.
    """
    grid, u0 = _sweep_start(cfg)
    N_list = [float(N) for N in cfg.N_list]
    c = _sampled_solve(
        [u0] * (1 + len(N_list)), grid, cfg, flavor="truncated", N=(grid.band, *N_list)
    ).coeffs
    envelopes = {}
    for i, N in enumerate(N_list, start=1):
        errs = _low_errors(grid, c[:, 0], c[:, i], float(np.sqrt(N)))
        envelopes[N] = np.maximum.accumulate(errs).tolist()
    rows = [(N, env[-1]) for N, env in envelopes.items()]
    return _sweep_result("approx-sweep", ("N", "error"), rows, envelopes=envelopes)


def high_freq_insensitivity(cfg: ExperimentConfig) -> SweepResult:
    """Effect below frequency N of a data perturbation above frequency 2N.

    The tail perturbation is the |k| > 2N part of a fixed random profile,
    renormalized to tail_size in H^{-1/2}; rejected if its support is
    empty (the perturbation must live strictly above 2N). The datum and
    every perturbed datum are solved as one ensemble.
    """
    grid, u0 = _sweep_start(cfg)
    profile = random_smooth_field(grid, _rng_stream(cfg.seed, 1), 0.05, norm_s=-0.5)
    perturbed = []
    for N in cfg.N_list:
        tail = project(profile, "gt", 2.0 * float(N))
        size = sobolev_norm(tail, -0.5)
        if size == 0:
            raise ValueError(f"tail support above 2N={2 * N:g} is empty at K={cfg.K}")
        perturbed.append(u0 + tail * (cfg.tail_size / size))
    c = _sampled_solve([u0] + perturbed, grid, cfg).coeffs
    rows = [
        (float(N), float(np.max(_low_errors(grid, c[:, 0], c[:, i], float(N)))))
        for i, N in enumerate(cfg.N_list, start=1)
    ]
    return _sweep_result("tail-sweep", ("N", "error"), rows)


def almost_conservation_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Drift of the quartic modified energy over one full-flow trajectory.

    For each multiplier threshold N records sup_t |E4(t) - E4(0)| and the
    bare sup_t |E2(t) - E2(0)| for comparison, then fits the E4 drift
    against N in log-log. Refused before the flow without N_list, with a
    rejected s or an oversize sigma3 table.
    """
    if not cfg.N_list:
        raise ValueError("the sweep needs N_list")
    mults = [IMultiplier(s=cfg.s, N=float(N)) for N in cfg.N_list]
    _check_table(3, cfg.K)
    grid = cfg.grid
    u0 = random_smooth_field(
        grid, _rng_stream(cfg.seed, 0), cfg.decay,
        kmax=None if cfg.data_kmax is None else grid.modes_upto(cfg.data_kmax),
        norm_s=0.0, norm_value=cfg.amplitude,
    )
    c = _sampled_solve(u0, grid, cfg).coeffs
    rows = []
    for mult in mults:
        e2, _, e4 = _modified_energies(grid, c, mult, _hierarchy(mult, grid, 4, grid.K)[0])
        rows.append(
            (mult.N, float(np.max(np.abs(e4 - e4[0]))), float(np.max(np.abs(e2 - e2[0]))))
        )
    return _sweep_result("almost-cons", ("N", "e4_drift", "e2_drift"), rows)


# ---------------------------------------------------------------------------
# Nonsqueezing witness search
# ---------------------------------------------------------------------------


def ball_norm(w: FourierField, n_modes: int | None = None) -> float:
    """Symplectic H^{-1/2} metric: (sum_{k>0} |w_hat(k)|^2 / k)^(1/2)."""
    k = w.grid.frequencies
    c = w.coeffs
    if n_modes is not None:
        k, c = k[:n_modes], c[:n_modes]
    return float(np.sqrt(np.sum(np.abs(c) ** 2 / k)))


def cylinder_coordinate(u: FourierField, k0: int, z: complex) -> float:
    """|k0|^(-1/2) |u_hat(k0) - z| (k0 in index units, frequency k0/mu)."""
    freq = abs(k0) / u.grid.mu
    return float(abs(u.mode(k0) - z) / np.sqrt(freq))


@dataclass
class WitnessResult:
    """Best squeeze witness found on the ball sphere."""

    u0: FourierField
    value: float
    start_values: list
    improvements: int
    diagnostics: dict = field(default_factory=dict)


def _sphere_point(
    rng: np.random.Generator, grid: GridSpec, n_modes: int, radius: float
) -> np.ndarray:
    """Random direction weighted by <k>^(1/2) per mode, scaled to the sphere."""
    k = grid.frequencies[:n_modes]
    z = (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)) * (
        1.0 + k * k
    ) ** 0.25
    w = np.zeros(grid.K, dtype=np.complex128)
    w[:n_modes] = z
    f = FourierField(grid, w)
    return w * (radius / ball_norm(f, n_modes))


def squeeze_witness(cfg: ExperimentConfig) -> WitnessResult:
    """Search the ball boundary for a large cylinder coordinate after flow.

    Seeded random sphere samples (plus one phase-aligned single-mode ray,
    exact at T = 0) are refined by projected coordinate ascent with a
    shrinking step, one ensemble per window of up to 2·n_modes iterations.
    The reported value is a fresh re-evaluation of the returned initial
    datum, never a stale search value. Diagnostics count the ascent probes
    solved (probes_solved) and those the sequential order examines
    (probes_reached); the rest is speculative work. A cylinder mode k0
    beyond the band N is refused before anything is drawn or solved.
    """
    grid = cfg.grid
    N = cfg.N
    n_modes = grid.modes_upto(N)
    if abs(cfg.k0) > n_modes:
        raise ValueError(f"cylinder mode |k0|={abs(cfg.k0)} exceeds N={N}")
    center = project(
        random_smooth_field(grid, _rng_stream(cfg.seed, 10_000), cfg.decay, norm_s=-0.5),
        "le",
        N,
    )
    R = cfg.radius
    z = cfg.z

    def flow_map(us: list) -> list:
        """Truncated flow of every field in us, solved as one ensemble."""
        ends = _sampled_solve(us, grid, cfg, flavor="truncated", N=N).coeffs[-1]
        return [FourierField(grid, c) for c in ends]

    def coords(ws: list) -> list:
        us = flow_map([center + FourierField(grid, w) for w in ws])
        return [cylinder_coordinate(u, cfg.k0, z) for u in us]

    # Phase-aligned ray: under the linear phase, mass R placed in the k0
    # pair lands on the outward cylinder direction; exact optimum at T=0.
    v_center = flow_map([center])[0]
    direction = v_center.mode(cfg.k0) - z
    direction = direction / abs(direction) if abs(direction) > 0 else 1.0 + 0.0j
    freq0 = abs(cfg.k0) / grid.mu
    phase = np.exp(-1j * (cfg.k0 / grid.mu) ** (2 * grid.j + 1) * cfg.T)
    ray = np.zeros(grid.K, dtype=np.complex128)
    ray[abs(cfg.k0) - 1] = R * np.sqrt(freq0) * direction * phase
    if cfg.k0 < 0:
        ray[abs(cfg.k0) - 1] = np.conj(ray[abs(cfg.k0) - 1])

    starts = [ray] + [
        _sphere_point(_rng_stream(cfg.seed, i), grid, n_modes, R)
        for i in range(cfg.samples)
    ]
    values = coords(starts)
    best_idx = int(np.argmax(values))
    w_best = starts[best_idx].copy()
    v_best = values[best_idx]

    # Projected coordinate ascent. Each iteration tries +step then -step
    # along one coordinate and accepts the first improvement; after dim
    # iterations without one the step halves. So each window of dim
    # iterations runs at one step: its probes are one ensemble, and the
    # first to beat v_best is exactly the sequential search's acceptance.
    improvements = 0
    step = 0.5
    dim = 2 * n_modes
    it = 0
    probes_solved = probes_reached = 0
    while it < cfg.n_ascent:
        tries, owners = [], []
        for probe_it in range(it, min(it + dim, cfg.n_ascent)):
            mode_i, is_imag = divmod(probe_it % dim, 2)
            for sgn in (1.0, -1.0):
                w_try = w_best.copy()
                w_try[mode_i] += sgn * step * R * (1j if is_imag else 1.0)
                nrm = ball_norm(FourierField(grid, w_try), n_modes)
                if nrm != 0:
                    tries.append(w_try * (R / nrm))
                    owners.append(probe_it)
        tried = coords(tries)
        probes_solved += len(tries)
        hit = next((i for i, v in enumerate(tried) if v > v_best), None)
        if hit is None:
            probes_reached += len(tries)
            it += dim
            step = max(step * 0.5, 1e-4)
        else:
            probes_reached += hit + 1
            w_best, v_best = tries[hit], tried[hit]
            improvements += 1
            it = owners[hit] + 1

    u_best = center + FourierField(grid, w_best)
    final = cylinder_coordinate(flow_map([u_best])[0], cfg.k0, z)
    return WitnessResult(
        u0=u_best,
        value=final,
        start_values=[float(v) for v in values],
        improvements=improvements,
        diagnostics={
            "radius": R,
            "N": N,
            "k0": cfg.k0,
            "center_coord": cylinder_coordinate(v_center, cfg.k0, z),
            "probes_solved": probes_solved,
            "probes_reached": probes_reached,
        },
    )


# ---------------------------------------------------------------------------
# Scaling identity
# ---------------------------------------------------------------------------


def scaling_check(cfg: ExperimentConfig) -> SweepResult:
    """Compare the mu-rescaled solve against the reference solve.

    u_mu(t, x) = mu^(-2j) u(mu^(-2j-1) t, x/mu) maps solutions to
    solutions; with matched steps the two discrete systems coincide up to
    round-off. Also checks the homogeneous-norm rescaling ratio
    mu^(-2j-s+1/2), exact on mean-zero fields.
    """
    mu = cfg.mu
    grid1 = make_grid(cfg.j, cfg.K, 1.0)
    gridm = cfg.grid
    u0 = random_smooth_field(
        grid1, _rng_stream(cfg.seed, 0), cfg.decay, norm_s=0.0, norm_value=cfg.amplitude
    )
    scale_pow = 2 * cfg.j + 1

    u0m = FourierField(gridm, u0.coeffs * mu ** (1 - 2 * cfg.j))
    ratio = sobolev_norm(u0m, cfg.s, weight="homogeneous") / sobolev_norm(
        u0, cfg.s, weight="homogeneous"
    )
    ratio_expected = mu ** (-2 * cfg.j - cfg.s + 0.5)
    ratio_err = abs(ratio / ratio_expected - 1.0)

    ref = _sampled_solve(u0, grid1, cfg)
    resc = _sampled_solve(
        u0m, gridm, cfg, T=cfg.T * mu**scale_pow, dt=cfg.dt * mu**scale_pow
    )
    rows = []
    mismatches = []
    for t, a, b in zip(ref.times, ref.fields, resc.fields):
        back = FourierField(grid1, b.coeffs * mu ** (2 * cfg.j - 1))
        mism = sobolev_norm(back - a, 0.0)
        rows.append((float(t), float(mism)))
        mismatches.append(mism)
    return SweepResult(
        kind="scaling-check",
        columns=("t", "l2_mismatch"),
        rows=rows,
        fitted_exponent=None,
        fit_residual=None,
        diagnostics={
            "max_mismatch": float(np.max(mismatches)),
            "norm_ratio": float(ratio),
            "norm_ratio_expected": float(ratio_expected),
            "norm_ratio_rel_error": float(ratio_err),
        },
    )
