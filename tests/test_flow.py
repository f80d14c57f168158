"""Integrators, conservation, Jacobians and symplecticity checks."""

import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import kdvlab.flow as flow_module
from kdvlab import spectral
from kdvlab.flow import (
    FlowBlowupError,
    FlowSpec,
    Trajectory,
    check_symplectic,
    conservation_report,
    flow_jacobian,
    integrate,
    linear_propagate,
    nonlinear_rhs,
    symplectic_matrix,
    _band_mask,
    _rhs_function,
    _step_function,
)
from kdvlab.spectral import (
    FourierField,
    harmonic,
    make_grid,
    random_smooth_field,
    sobolev_norm,
    symplectic_form,
)


def band_limited_field(grid, seed, kmax, norm=1.0, decay=1.0):
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.K, dtype=complex)
    z = rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)
    c[:kmax] = z * np.exp(-decay * np.arange(1, kmax + 1))
    u = FourierField(grid, c)
    return u * (norm / sobolev_norm(u, 0.0))


class TestLinearPropagate:
    def test_cos_translates(self):
        for j in (1, 2, 3):
            g = make_grid(j, 4)
            t = 0.618
            out = linear_propagate(harmonic(g, 1), t)
            ref = harmonic(g, 1, 1.0, t)  # cos(x + t)
            assert np.max(np.abs(out.coeffs - ref.coeffs)) <= 1e-13 * np.pi

    def test_mode2_j2_phase(self):
        g = make_grid(2, 4)
        t = 0.25
        out = linear_propagate(harmonic(g, 2), t)
        ref = harmonic(g, 2, 1.0, 32 * t)  # k^(2j+1) = 2^5
        assert np.max(np.abs(out.coeffs - ref.coeffs)) <= 1e-13 * np.pi

    def test_zero_time_identity(self):
        g = make_grid(3, 8)
        u = random_smooth_field(g, np.random.default_rng(0), decay=0.3)
        assert np.array_equal(linear_propagate(u, 0.0).coeffs, u.coeffs)

    def test_unitary_on_sobolev_norms(self):
        g = make_grid(2, 16)
        u = random_smooth_field(g, np.random.default_rng(1), decay=0.3)
        v = linear_propagate(u, 1.7)
        for s in (-1.5, -0.5, 0.0, 2.0):
            assert sobolev_norm(v, s) == pytest.approx(sobolev_norm(u, s), rel=1e-13)


class TestNonlinearRhs:
    def test_cos_squared(self):
        g = make_grid(1, 8)
        out = nonlinear_rhs(harmonic(g, 1))
        # -(1/2) d_x cos^2 = (1/2) sin 2x
        ref = harmonic(g, 2, 0.5, -np.pi / 2)
        assert np.max(np.abs(out.coeffs - ref.coeffs)) < 1e-14

    def test_truncation_kills_everything(self):
        g = make_grid(1, 8)
        out = nonlinear_rhs(harmonic(g, 1), "truncated", 1.0)
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_zero_field(self):
        g = make_grid(1, 8)
        out = nonlinear_rhs(FourierField.zero(g))
        assert np.all(out.coeffs == 0.0)

    def test_bad_flavor_rejected(self):
        u = harmonic(make_grid(1, 8), 1)
        for flavor, N in (("bogus", None), ("truncated", None)):
            with pytest.raises(ValueError, match="flavor"):
                nonlinear_rhs(u, flavor, N)

    def test_per_member_thresholds_refused_by_name(self):
        u = harmonic(make_grid(1, 8), 1)
        with pytest.raises(ValueError, match="N has 2 per-member thresholds for a single field"):
            nonlinear_rhs(u, "truncated", (4.0, 8.0))


class TestIntegrate:
    def test_linear_only_matches_propagator(self):
        g = make_grid(2, 8)
        u0 = random_smooth_field(g, np.random.default_rng(2), decay=0.6)
        traj = integrate(u0, FlowSpec(grid=g, dt=1e-2, T=1.0, nonlinear=False))
        ref = linear_propagate(u0, 1.0)
        err = np.max(np.abs(traj.fields[-1].coeffs - ref.coeffs))
        assert err <= 1e-12 * np.max(np.abs(u0.coeffs))

    def test_fourth_order_self_convergence(self):
        g = make_grid(1, 4)
        u0 = band_limited_field(g, 3, 4, decay=0.5)
        finals = {}
        for dt in (2e-2, 1e-2, 5e-3):
            spec = FlowSpec(grid=g, dt=dt, T=1.0, sample_stride=10**9)
            finals[dt] = integrate(u0, spec).fields[-1]
        e1 = np.linalg.norm(finals[2e-2].coeffs - finals[1e-2].coeffs)
        e2 = np.linalg.norm(finals[1e-2].coeffs - finals[5e-3].coeffs)
        assert np.log2(e1 / e2) == pytest.approx(4.0, abs=0.4)

    def test_truncated_single_mode_is_pure_phase(self):
        g = make_grid(1, 8)
        u0 = harmonic(g, 1, 0.01)
        traj = integrate(u0, FlowSpec(grid=g, dt=1e-3, T=0.5, flavor="truncated", N=1.0))
        mags = [abs(u.mode(1)) for u in traj.fields]
        assert max(mags) - min(mags) <= 1e-13 * abs(u0.mode(1))
        ref = linear_propagate(u0, 0.5)
        assert abs(traj.fields[-1].mode(1) - ref.mode(1)) <= 1e-12 * abs(u0.mode(1))

    def test_truncated_band_invariant(self):
        g = make_grid(2, 16)
        u0 = random_smooth_field(g, np.random.default_rng(4), decay=0.4)
        traj = integrate(u0, FlowSpec(grid=g, dt=1e-3, T=0.2, flavor="truncated", N=6.0))
        for u in traj.fields:
            assert np.all(u.coeffs[6:] == 0.0)

    def test_time_reversibility(self):
        g = make_grid(2, 16)
        u0 = band_limited_field(g, 5, 2)
        fwd = integrate(u0, FlowSpec(grid=g, dt=1e-3, T=0.5, sample_stride=10**9))
        back = integrate(
            fwd.fields[-1], FlowSpec(grid=g, dt=1e-3, T=-0.5, sample_stride=10**9)
        )
        # one-way error estimate from a half-step solve
        half = integrate(u0, FlowSpec(grid=g, dt=5e-4, T=0.5, sample_stride=10**9))
        one_way = max(np.linalg.norm(half.fields[-1].coeffs - fwd.fields[-1].coeffs), 1e-15)
        round_trip = np.linalg.norm(back.fields[-1].coeffs - u0.coeffs)
        assert round_trip <= 10 * max(one_way, 1e-12)

    def test_zero_horizon(self):
        g = make_grid(1, 4)
        u0 = harmonic(g, 1)
        traj = integrate(u0, FlowSpec(grid=g, dt=1e-3, T=0.0))
        assert len(traj.fields) == 1 and traj.times[0] == 0.0

    @pytest.mark.parametrize("T, dt, stride", [
        (0.05, 1e-3, 1), (0.05, 1e-3, 7), (0.05, 1e-3, 10), (-0.05, 1e-3, 7), (0.05, 1e-3, 99),
        (1e-3, 1e-3, 1), (0.3, 7e-3, 5),
    ])
    def test_times_are_every_stride_and_the_last(self, T, dt, stride):
        # t = 0, then s h at every stride-th step s and at the last step,
        # each the product of the step count and h, with the bits of that
        # product in Python
        g = make_grid(1, 4)
        spec = FlowSpec(grid=g, dt=dt, T=T, nonlinear=False, sample_stride=stride)
        n = max(1, round(abs(T) / dt))
        steps = sorted(set(range(stride, n + 1, stride)) | {n})
        expected = np.array([0.0] + [s * (T / n) for s in steps])
        traj = integrate(harmonic(g, 1), spec)
        assert traj.times.tobytes() == expected.tobytes() and len(traj.coeffs) == len(expected)

    @pytest.mark.parametrize("members", [None, 3])
    def test_trajectory_over_the_budget_refused_before_allocating(self, monkeypatch, members):
        # a run of 1,000,001 samples of K=8 modes takes 137,020,153 bytes for
        # one field and 393,026,265 for three members (flow._run_bytes):
        # refused under a 1 MiB budget before the samples or their times exist
        g = make_grid(2, 8)
        u0 = band_limited_field(g, 3, 4)
        spec = FlowSpec(grid=g, dt=1e-9, T=1e-3)
        monkeypatch.setattr(spectral, "BUDGET_BYTES", 2**20)
        size = {None: 137_020_153, 3: 393_026_265}[members]
        what = f"K=8 in 1000001 samples of {members or 1} members needs a run of {size}"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=what):
                integrate(u0 if members is None else [u0] * members, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize("members, K, flavor, N, nonlinear, samples", [
        pytest.param(16, 1024, "full", None, True, 3, id="16-1024-full-None-True"),
        pytest.param(None, 1024, "full", None, True, 3, id="None-1024-full-None-True"),
        pytest.param(3, 64, "truncated", (4.0, 8.0, 16.0), True, 3, id="3-64-truncated-N2-True"),
        pytest.param(2, 256, "full", None, False, 3, id="2-256-full-None-False"),
        pytest.param(4, 4096, "full", None, True, 3, id="4-4096-full-None-True"),
        # a long run sampled at every step, and the witness search's ensemble
        (None, 16, "full", None, True, 10_001),
        (16, 8, "truncated", 4.0, True, 33),
    ])
    def test_admitted_run_peaks_within_its_count(
        self, monkeypatch, members, K, flavor, N, nonlinear, samples
    ):
        # a run admitted under a budget of exactly its counted bytes holds at
        # most that many (16 members at K=1024 peaked at about 6.59 MB of
        # 6,721,715 counted, where the trajectory alone is 786,432; one field
        # at K=1024 and 4 members at K=4096 peak while the tables are formed;
        # a long run's trajectory check forms 1 byte a sample, and at K=8 the
        # Python objects around the arrays are most of the 16 KiB allowance),
        # and one byte less refuses it
        g = make_grid(2, K)
        u0 = band_limited_field(g, 5, 4, norm=0.1)
        spec = FlowSpec(grid=g, dt=1e-3, T=(samples - 1) * 1e-3, flavor=flavor, N=N,
                        nonlinear=nonlinear)
        shape = (K,) if members is None else (members, K)
        size = flow_module._run_bytes(g, shape, samples, nonlinear)
        data = u0 if members is None else [u0] * members
        monkeypatch.setattr(spectral, "BUDGET_BYTES", size)
        tracemalloc.start()
        try:
            traj = integrate(data, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.coeffs.shape == (samples, *shape) and peak <= size
        monkeypatch.setattr(spectral, "BUDGET_BYTES", size - 1)
        with pytest.raises(ValueError, match=f"needs a run of {size} bytes"):
            integrate(data, spec)

    def test_blowup_guard(self, monkeypatch):
        g = make_grid(1, 8)
        u0 = harmonic(g, 1, 1.0)
        spec = FlowSpec(grid=g, dt=1e-3, T=1.0)
        monkeypatch.setattr(flow_module, "BLOWUP_THRESHOLD", 1e-6)
        with pytest.raises(FlowBlowupError):
            integrate(u0, spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("threshold", [1e12, np.inf])
    def test_blowup_guard_trips_on_nonfinite_data(self, monkeypatch, bad, threshold):
        g = make_grid(2, 16)
        c = band_limited_field(g, 41, 4).coeffs.copy()
        c[2] = bad
        spec = FlowSpec(grid=g, dt=1e-3, T=0.01)
        monkeypatch.setattr(flow_module, "BLOWUP_THRESHOLD", threshold)
        with np.errstate(invalid="ignore"), pytest.raises(FlowBlowupError, match=r"t=0\.001: "):
            integrate(FourierField(g, c), spec)

    def test_grid_mismatch(self):
        g = make_grid(1, 8)
        u0 = harmonic(make_grid(1, 9), 1)
        with pytest.raises(ValueError):
            integrate(u0, FlowSpec(grid=g, dt=1e-3, T=0.1))

    def test_spec_validation(self):
        g = make_grid(1, 8)
        with pytest.raises(ValueError):
            FlowSpec(grid=g, dt=-1e-3, T=0.1)
        with pytest.raises(ValueError):
            FlowSpec(grid=g, dt=1e-3, T=0.1, flavor="truncated")  # N missing
        with pytest.raises(ValueError):
            FlowSpec(grid=g, dt=1e-3, T=0.1, flavor="truncated", N=9.0)

    @pytest.mark.parametrize("T", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_final_time_refused(self, T):
        # an infinite T ended in an OverflowError from the step count, a nan
        # one in a ValueError that did not name T
        with pytest.raises(ValueError, match=f"final time T must be finite, got {T}"):
            FlowSpec(grid=make_grid(2, 8), dt=1e-3, T=T)

    @pytest.mark.parametrize("N", [float("nan"), (4.0, float("nan"))])
    def test_nan_threshold_refused(self, N):
        # nan > band is False: without the refusal the solve zeroes every mode
        with pytest.raises(ValueError, match="N=nan is not a number"):
            FlowSpec(grid=make_grid(2, 8), dt=1e-3, T=1e-3, flavor="truncated", N=N)

    @pytest.mark.parametrize("N, shown", [(0.0, "0.0"), (-1.0, "-1.0"), ((8.0, 0.0), "0.0")])
    def test_nonpositive_threshold_refused(self, N, shown):
        # a truncated flow at N <= 0 keeps no mode: it would run on a zero field
        with pytest.raises(ValueError, match=f"truncated N={shown} is not > 0"):
            FlowSpec(grid=make_grid(2, 8), dt=1e-3, T=1e-3, flavor="truncated", N=N)

    # The full flow has no threshold, so an N given with it is refused, not ignored.
    @pytest.mark.parametrize("call", [
        lambda u: FlowSpec(grid=u.grid, dt=1e-3, T=0.05, N=4.0),
        lambda u: nonlinear_rhs(u, "full", 4.0),
        lambda u: _band_mask(u.grid, "full", (4.0, 8.0)),
    ], ids=["FlowSpec", "nonlinear_rhs", "ensemble"])
    def test_threshold_refused_under_full_flavor(self, call):
        u = band_limited_field(make_grid(2, 16), 1, 8)
        with pytest.raises(ValueError, match=r"full flavor takes no threshold N, got N=\(?4\.0"):
            call(u)


def step_params(cases):
    """The rows as parameters whose ids name the step they check: etdrk4-<row>."""
    return [pytest.param(*case, id="-".join(map(str, ("etdrk4",) + case))) for case in cases]


ENSEMBLE_CASES = step_params([
    # flavor, j, mu, K, T
    ("full", 1, 1.0, 8, 0.05),
    ("full", 2, 1.0, 8, 0.05),
    ("truncated", 3, 1.0, 8, 0.01),
    ("truncated", 1, 1.0, 8, 0.05),
    ("full", 2, 2.0, 8, 0.05),
    ("truncated", 2, 2.0, 8, 0.05),
    ("truncated", 2, 1.0, 8, -0.05),
    ("full", 3, 1.0, 8, -0.01),
    ("full", 2, 1.0, 256, 0.002),
    ("truncated", 2, 1.0, 256, 0.002),
])


class TestEnsemble:
    @pytest.mark.parametrize("flavor, j, mu, K, T", ENSEMBLE_CASES)
    def test_members_match_single_solves(self, flavor, j, mu, K, T):
        g = make_grid(j, K, mu)
        N = K / (2 * mu) if flavor == "truncated" else None
        spec = FlowSpec(
            grid=g, dt=1e-3 if K == 8 else 2e-4, T=T, flavor=flavor, N=N, sample_stride=3
        )
        members = [band_limited_field(g, 100 + i, min(K, 6), norm=0.5 + i) for i in range(4)]
        batch = integrate(members, spec)
        n_steps = max(1, round(abs(T) / spec.dt))
        assert batch.stats["steps"] == n_steps * len(members)
        assert batch.coeffs.shape == (len(batch.times), len(members), K)
        for b, u in enumerate(members):
            single = integrate(u, spec)
            assert single.stats["steps"] == n_steps
            assert np.array_equal(single.times, batch.times)
            assert np.array_equal(single.coeffs, batch.coeffs[:, b])

    def test_linear_and_zero_horizon_ensembles(self):
        g = make_grid(2, 8)
        members = [band_limited_field(g, 110 + i, 4) for i in range(3)]
        for spec in (
            FlowSpec(grid=g, dt=1e-3, T=0.05, nonlinear=False),
            FlowSpec(grid=g, dt=1e-3, T=0.0, flavor="truncated", N=2.0),
        ):
            batch = integrate(members, spec)
            for b, u in enumerate(members):
                assert np.array_equal(integrate(u, spec).coeffs, batch.coeffs[:, b])
        with pytest.raises(ValueError, match="shape"):
            batch.fields

    def test_blowup_names_member(self, monkeypatch):
        g = make_grid(1, 8)
        members = [harmonic(g, 1, a) for a in (0.1, 0.2, 50.0, 0.3)]
        spec = FlowSpec(grid=g, dt=1e-3, T=0.1)
        monkeypatch.setattr(flow_module, "BLOWUP_THRESHOLD", 10.0)
        with pytest.raises(FlowBlowupError, match="member 2 at"):
            integrate(members, spec)
        monkeypatch.setattr(flow_module, "BLOWUP_THRESHOLD", 1e3)
        assert integrate(members, spec).stats["steps"] == 400

    def test_blowup_names_nan_member(self, monkeypatch):
        g = make_grid(2, 16)
        members = [band_limited_field(g, 50 + i, 4).coeffs.copy() for i in range(4)]
        members[1][5] = np.nan
        spec = FlowSpec(grid=g, dt=1e-3, T=0.01)
        monkeypatch.setattr(flow_module, "BLOWUP_THRESHOLD", np.inf)
        with pytest.raises(FlowBlowupError, match=r"member 1 at t=0\.001: max \|coeff\| = nan"):
            integrate([FourierField(g, c) for c in members], spec)


def allocating_rhs(grid, flavor, N):
    """The RHS as it was before the in-place kernel: a new array per operation."""
    P = grid.physical_points
    mask = np.ones(grid.K, dtype=bool) if flavor == "full" else grid.frequencies <= N
    ik = 1j * grid.frequencies
    phys_scale = P / (2.0 * np.pi * grid.mu)
    spec_scale = 2.0 * np.pi * grid.mu / P

    def rhs(c):
        half = np.zeros(c.shape[:-1] + (P // 2 + 1,), dtype=np.complex128)
        half[..., 1 : grid.K + 1] = c * phys_scale
        w = np.fft.irfft(half, n=P)
        sq = np.fft.rfft(w * w)[..., 1 : grid.K + 1] * spec_scale
        return np.where(mask, -0.5 * ik * sq, 0.0)

    return rhs


def allocating_step(spec, h):
    """The ETDRK4 step as it was before the in-place kernel."""
    lin = 1j * spec.grid.frequencies ** (2 * spec.grid.j + 1)
    rhs = allocating_rhs(spec.grid, spec.flavor, spec.N)
    e1, e2 = np.exp(h * lin), np.exp(h * lin / 2.0)
    hl = h * lin
    theta = np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32 * 2.0)
    z = hl[:, None] + theta[None, :]
    ez = np.exp(z)
    q = h * np.mean((np.exp(z / 2.0) - 1.0) / z, axis=1)
    f1 = h * np.mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z**3, axis=1)
    f2 = h * np.mean((2.0 + z + ez * (z - 2.0)) / z**3, axis=1)
    f3 = h * np.mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z**3, axis=1)

    def step(c):
        n0 = rhs(c)
        a = e2 * c + q * n0
        na = rhs(a)
        b = e2 * c + q * na
        nb = rhs(b)
        cc = e2 * a + q * (2.0 * nb - n0)
        nc = rhs(cc)
        return e1 * c + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc

    return step


def same_bits(a, b):
    """Equal shape and equal bytes: also tells +0.0 from -0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def allocating_samples(c, spec):
    """integrate's samples, computed with the allocating step."""
    if spec.flavor == "truncated":
        c = np.where(spec.grid.frequencies <= spec.N, c, 0.0)
    n_steps = max(1, round(abs(spec.T) / spec.dt))
    step = allocating_step(spec, spec.T / n_steps)
    samples = [c]
    for i in range(1, n_steps + 1):
        c = step(c)
        if i % spec.sample_stride == 0 or i == n_steps:
            samples.append(c)
    return np.array(samples)


STEP_CASES = step_params([
    # flavor, j, mu, K, T in steps of dt: K alternates 8/16, each forward and backward
    (flavor, j, mu, (8, 16)[i % 2], n_steps)
    for i, (flavor, j, mu) in enumerate(product(("full", "truncated"), (1, 2, 3), (0.5, 1.0, 2.0)))
    for n_steps in (12, -12)
] + [(flavor, 2, 1.0, 256, 6) for flavor in ("full", "truncated")])


RHS_CASES = [
    # grid, flavor, N, members (0: one field through nonlinear_rhs)
    pytest.param(make_grid(2, 16), "full", None, 0, id="full-None"),
    pytest.param(make_grid(2, 16), "truncated", 3.0, 0, id="truncated-3.0"),
] + [
    # transform lengths P = 4, 24, 25, 54, 200: even and odd 5-smooth
    pytest.param(g, flavor, g.band / 2 if flavor == "truncated" else None, 0,
                 id=f"K{g.K}-P{g.physical_points}-{flavor}")
    for g in (make_grid(2, K) for K in (1, 7, 8, 17, 64))
    for flavor in ("full", "truncated")
] + [
    pytest.param(make_grid(3, 16, 1.4), "full", None, 0, id="mu1.4-full"),
    pytest.param(make_grid(3, 16, 1.4), "truncated", 5.0, 0, id="mu1.4-truncated"),
    # (3, K) ensembles through the held RHS
    pytest.param(make_grid(2, 16), "full", None, 3, id="3xK16-full"),
    pytest.param(make_grid(2, 16), "truncated", 3.0, 3, id="3xK16-truncated"),
    pytest.param(make_grid(1, 8, 0.5), "truncated", 9.0, 3, id="3xK8-P25-mu0.5-truncated"),
]


class TestInPlaceStep:
    @pytest.mark.parametrize("flavor, j, mu, K, n_steps", STEP_CASES)
    def test_samples_equal_allocating_step(self, flavor, j, mu, K, n_steps):
        g = make_grid(j, K, mu)
        dt = 1e-3 if K == 8 else 1e-4 if K == 16 else 2e-5
        spec = FlowSpec(
            grid=g, dt=dt, T=n_steps * dt, flavor=flavor,
            N=K / (2 * mu) if flavor == "truncated" else None, sample_stride=5,
        )
        members = [band_limited_field(g, 200 + i, min(K, 6), norm=0.5 + i) for i in range(3)]
        single = integrate(members[0], spec).coeffs
        assert same_bits(single, allocating_samples(members[0].coeffs, spec))
        batch = integrate(members, spec).coeffs
        ref = allocating_samples(np.array([u.coeffs for u in members]), spec)
        assert same_bits(batch, ref)

    def test_step_cases_hold_an_odd_transform_length(self):
        # the derived transform sizes of the step cases include K=8's odd
        # P=25, so pocketfft's odd-length rfft path is compared too
        cases = [case.values for case in STEP_CASES]
        assert 25 in {make_grid(j, K, mu).physical_points for _, j, mu, K, _ in cases}

    def test_guard_trips_at_the_first_crossing_step(self, monkeypatch):
        g = make_grid(2, 16)
        u0 = band_limited_field(g, 21, 4, norm=3.0)
        spec = FlowSpec(grid=g, dt=1e-3, T=0.06)
        peaks = np.abs(integrate(u0, spec).coeffs).max(axis=-1)
        stride = 7
        # a step between samples whose peak exceeds every earlier checked peak
        crossing = next(
            s for s in range(2, len(peaks) - 1)
            if s % stride and peaks[s] > peaks[1:s].max()
        )
        threshold = 0.5 * (peaks[1:crossing].max() + peaks[crossing])
        h = spec.T / (len(peaks) - 1)
        monkeypatch.setattr(flow_module, "BLOWUP_THRESHOLD", threshold)
        with pytest.raises(FlowBlowupError, match=f"at t={crossing * h:.6g}: "):
            integrate(u0, replace(spec, sample_stride=stride))

    def test_later_solves_leave_earlier_trajectories_unchanged(self):
        g = make_grid(2, 8)
        u, v = band_limited_field(g, 30, 4), band_limited_field(g, 31, 4, norm=2.0)
        spec = FlowSpec(grid=g, dt=1e-3, T=0.02, sample_stride=4)
        zero = FlowSpec(grid=g, dt=1e-3, T=0.0)
        earlier = [integrate(u, spec), integrate([u, v], spec), integrate(u, zero)]
        kept = [t.coeffs.copy() for t in earlier]
        for data, s in ((v, spec), ([v, u], spec), (u, spec), (v, zero)):
            integrate(data, s)
        for t, c in zip(earlier, kept):
            assert np.array_equal(t.coeffs, c)

    @pytest.mark.parametrize("grid, flavor, N, members", RHS_CASES)
    def test_nonlinear_rhs_leaves_its_input(self, grid, flavor, N, members):
        rng = np.random.default_rng(40)
        fields = [random_smooth_field(grid, rng, decay=0.3) for _ in range(members or 1)]
        if not members:
            u = fields[0]
            kept = u.coeffs.copy()
            out = nonlinear_rhs(u, flavor, N)
            assert np.array_equal(u.coeffs, kept)
            assert same_bits(out.coeffs, allocating_rhs(grid, flavor, N)(kept))
            return
        # the held RHS of one (members, K) shape, called on two data in turn
        rhs = _rhs_function(grid, _band_mask(grid, flavor, N), (members, grid.K))
        data = np.array([u.coeffs for u in fields])
        for c in (data, data[::-1].copy()):
            kept = c.copy()
            out = rhs(c, np.empty_like(c))
            assert np.array_equal(c, kept)
            assert same_bits(out, allocating_rhs(grid, flavor, N)(kept))

    @pytest.mark.parametrize("members", [0, 3], ids=["field", "3xK"])
    @pytest.mark.parametrize("flavor, N", [("full", None), ("truncated", 5.0)])
    def test_no_python_scalar_reaches_the_step(self, monkeypatch, flavor, N, members):
        # numpy converts a Python scalar operand again on every call, and
        # parses every keyword; the step passes arrays, outputs positionally
        calls = []

        def recorder(name, f):
            def call(*args, **kwargs):
                calls.append((name, args, kwargs))
                return f(*args, **kwargs)
            return call

        for name in ("multiply", "add", "subtract", "copyto"):
            monkeypatch.setattr(np, name, recorder(name, getattr(np, name)))
        fft = flow_module._pocketfft
        fft_recorders = type("Recorders", (), {
            name: staticmethod(recorder(name, getattr(fft, name)))
            for name in ("irfft", "rfft_n_even", "rfft_n_odd")
        })
        monkeypatch.setattr(flow_module, "_pocketfft", fft_recorders)
        g = make_grid(3, 16)
        shape = (members, g.K) if members else (g.K,)
        step = _step_function(g, 1e-4, _band_mask(g, flavor, N), shape, True)
        c = np.random.default_rng(42).standard_normal(shape) * (1e-2 + 0j)
        calls.clear()
        step(c)
        names = {name for name, _, _ in calls}
        assert {"multiply", "add", "subtract", "irfft", "rfft_n_even"} <= names
        for name, args, kwargs in calls:
            assert all(isinstance(a, np.ndarray) for a in args), (name, args)
            assert set(kwargs) <= {"where"}, (name, kwargs)


def step_peak_bytes(spec, shape, steps=10):
    """tracemalloc peak over steps in-place steps of one held step function."""
    rng = np.random.default_rng(41)
    c = 1e-2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    mask = _band_mask(spec.grid, spec.flavor, spec.N)
    step = _step_function(spec.grid, spec.dt, mask, shape, spec.nonlinear)
    step(c)
    tracemalloc.start()
    try:
        for _ in range(steps):
            step(c)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEnsembleAllocation:
    # The approx and tail sweeps step (members, 256) arrays. A ufunc through
    # a strided view of one would allocate numpy's iterator buffers, 17.6 kB.
    @pytest.mark.parametrize(
        "flavor, N", [("full", None), ("truncated", (256.0, 16.0, 32.0, 64.0))]
    )
    def test_ensemble_step_allocates_as_little_as_one_field(self, flavor, N):
        g = make_grid(2, 256)
        spec = FlowSpec(grid=g, dt=1e-5, T=1e-4, flavor=flavor, N=N)
        single = step_peak_bytes(replace(spec, flavor="full", N=None), (g.K,))
        assert step_peak_bytes(spec, (4, g.K)) <= single + 2048


class TestPerMemberN:
    def test_members_equal_their_own_solves(self):
        g = make_grid(2, 16)
        members = [band_limited_field(g, 50 + i, 8, norm=1.0 + i) for i in range(3)]
        spec = FlowSpec(grid=g, dt=1e-3, T=0.02, sample_stride=4)
        batch = integrate(
            members, replace(spec, flavor="truncated", N=(g.band, 2.0, 5.0))
        ).coeffs
        assert same_bits(batch[:, 0], integrate(members[0], spec).coeffs)
        for i, N in ((1, 2.0), (2, 5.0)):
            own = integrate(members[i], replace(spec, flavor="truncated", N=N)).coeffs
            assert same_bits(batch[:, i], own)

    def test_out_of_band_entries_are_plus_zero(self):
        g = make_grid(2, 16)
        rng = np.random.default_rng(52)
        members = [random_smooth_field(g, rng, decay=0.3) for _ in range(2)]
        assert np.any(np.signbit(members[1].coeffs[g.modes_upto(3.0) :].real))
        traj = integrate(
            members, FlowSpec(grid=g, dt=1e-3, T=0.01, flavor="truncated", N=(g.band, 3.0))
        )
        outside = traj.coeffs[:, 1, g.modes_upto(3.0) :]
        assert np.all(outside == 0)
        assert not np.any(np.signbit(outside.real)) and not np.any(np.signbit(outside.imag))

    def test_refused_where_it_does_not_apply(self):
        g = make_grid(2, 8)
        u, v = band_limited_field(g, 53, 4), band_limited_field(g, 54, 4)
        spec = FlowSpec(grid=g, dt=1e-3, T=0.01, flavor="truncated", N=(8.0, 4.0))
        with pytest.raises(ValueError, match="N=9.0 exceeds"):
            replace(spec, N=(4.0, 9.0))
        with pytest.raises(ValueError, match="N has 2 per-member thresholds for an ensemble of 3"):
            integrate([u, v, u], spec)
        with pytest.raises(ValueError, match="N has 2 per-member thresholds for a single field"):
            integrate(u, spec)
        with pytest.raises(ValueError, match="one threshold N"):
            flow_jacobian(u, spec, h=1e-6)


class TestTrajectory:
    SPEC = FlowSpec(grid=make_grid(2, 8), dt=1e-3, T=1e-3)

    @pytest.mark.parametrize("times, samples, match", [
        ([0.0, 1.0, 0.5], 3, "strictly monotone"),
        ([0.0, -1.0, -0.5], 3, "strictly monotone"),
        ([0.0, 1.0, 1.0], 3, "strictly monotone"),
        ([0.0, np.nan, 2.0], 3, "strictly monotone"),
        ([np.nan], 1, "strictly monotone"),
        ([0.0, 1.0], 5, "2 times for 5 samples"),
        ([0.0, 1.0, 2.0], 2, "3 times for 2 samples"),
    ], ids=["back-step", "forward-step", "repeat", "nan", "lone-nan", "short", "long"])
    def test_refuses_bad_times(self, times, samples, match):
        coeffs = np.zeros((samples, 8), dtype=np.complex128)
        with pytest.raises(ValueError, match=match):
            Trajectory(times=np.array(times), coeffs=coeffs, spec=self.SPEC)

    def test_time_check_forms_a_byte_a_sample(self):
        # the check compares neighbouring times, a flag a sample: at 10,001
        # samples it peaks at 11.4 KB, where the time differences and their
        # flags took 9 bytes a sample, 91.6 KB (tracemalloc)
        n = 10_001
        times, coeffs = np.linspace(0.0, 1.0, n), np.zeros((n, 8), dtype=np.complex128)
        tracemalloc.start()
        try:
            Trajectory(times=times, coeffs=coeffs, spec=self.SPEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n

    @pytest.mark.parametrize("T", [0.01, -0.01, 0.0])
    def test_integrated_times_are_accepted(self, T):
        u0 = band_limited_field(self.SPEC.grid, 3, 4)
        traj = integrate(u0, replace(self.SPEC, T=T, sample_stride=3))
        assert len(traj.times) == len(traj.coeffs) == len(traj.fields)

    def test_fields_of_an_ensemble_names_its_members(self):
        members = [band_limited_field(self.SPEC.grid, 60 + i, 4) for i in range(3)]
        traj = integrate(members, self.SPEC)
        for call in (lambda: traj.fields, lambda: conservation_report(traj)):
            with pytest.raises(ValueError, match=r"holds 3 members \(coeffs shape \(2, 3, 8\)\)"):
                call()


class TestConservation:
    def test_mass_exactly_zero(self):
        g = make_grid(2, 16)
        u0 = band_limited_field(g, 6, 2)
        traj = integrate(u0, FlowSpec(grid=g, dt=1e-3, T=0.3, sample_stride=30))
        reports, drifts = conservation_report(traj)
        assert drifts["mass"] == 0.0

    def test_full_flow_drifts_small(self):
        g = make_grid(2, 16)
        u0 = band_limited_field(g, 6, 2)
        traj = integrate(u0, FlowSpec(grid=g, dt=1e-3, T=0.5, sample_stride=50))
        _, drifts = conservation_report(traj)
        assert drifts["l2_energy"] <= 1e-7
        assert drifts["hamiltonian"] <= 1e-7

    def test_truncated_flow_drifts_small(self):
        g = make_grid(2, 16)
        u0 = band_limited_field(g, 7, 2)
        traj = integrate(
            u0, FlowSpec(grid=g, dt=1e-3, T=0.5, flavor="truncated", N=8.0, sample_stride=50)
        )
        _, drifts = conservation_report(traj)
        assert drifts["l2_energy"] <= 1e-7
        assert drifts["hamiltonian"] <= 1e-7


class TestJacobian:
    def test_zero_horizon_gives_identity(self):
        g = make_grid(2, 8)
        u0 = band_limited_field(g, 8, 4)
        spec = FlowSpec(grid=g, dt=1e-3, T=0.0, flavor="truncated", N=4.0)
        J = flow_jacobian(u0, spec, h=1e-6)
        assert np.max(np.abs(J - np.eye(8))) < 1e-9

    def test_linear_flow_rotation_blocks(self):
        g = make_grid(2, 8)
        u0 = band_limited_field(g, 9, 4)
        T = 0.2
        spec = FlowSpec(grid=g, dt=1e-3, T=T, flavor="truncated", N=4.0, nonlinear=False)
        J = flow_jacobian(u0, spec, h=1e-6)
        expected = np.zeros((8, 8))
        for n in range(1, 5):
            th = n**5 * T
            b = 2 * (n - 1)
            # u_hat -> e^{i th} u_hat in (Re, Im) coordinates
            expected[b, b] = np.cos(th)
            expected[b, b + 1] = -np.sin(th)
            expected[b + 1, b] = np.sin(th)
            expected[b + 1, b + 1] = np.cos(th)
        assert np.max(np.abs(J - expected)) < 1e-8

    @pytest.mark.parametrize("mu, T", [(1.0, 0.05), (2.0, -0.05)])
    def test_matches_column_by_column_solves(self, mu, T):
        g = make_grid(2, 8, mu)
        N = 4.0 / mu
        u0 = band_limited_field(g, 13, 4, norm=1.5)
        spec = FlowSpec(grid=g, dt=1e-3, T=T, flavor="truncated", N=N)
        n_modes = int(N * mu)
        dim = 2 * n_modes

        def coords(c):
            return np.ravel(np.column_stack([c[:n_modes].real, c[:n_modes].imag]))

        def field(x):
            c = np.zeros(g.K, dtype=np.complex128)
            c[:n_modes] = x[0::2] + 1j * x[1::2]
            return FourierField(g, c)

        h = 1e-5
        x0 = coords(u0.coeffs)
        ref = np.empty((dim, dim))
        for i in range(dim):
            xp = x0.copy()
            xp[i] += h
            xm = x0.copy()
            xm[i] -= h
            fp = integrate(field(xp), spec).fields[-1]
            fm = integrate(field(xm), spec).fields[-1]
            ref[:, i] = (coords(fp.coeffs) - coords(fm.coeffs)) / (2.0 * h)
        J = flow_jacobian(u0, spec, h=h)
        assert J.flags.c_contiguous
        assert np.array_equal(J, ref)

    # 21/1.4 = 15.000000000000002 > 15 and 29/1.16 <= 25 < 30/1.16: the
    # coordinates are the modes the truncated flow keeps, not int(N*mu)
    @pytest.mark.parametrize("mu, N", [(1.4, 15.0), (1.16, 25.0)])
    def test_coordinates_are_the_band_modes(self, mu, N):
        g = make_grid(1, 32, mu)
        u0 = band_limited_field(g, 14, 32, norm=0.5, decay=0.3)
        defects = {}
        for n in (N - 1.0, N):
            spec = FlowSpec(grid=g, dt=1e-3, T=0.05, flavor="truncated", N=n)
            J = flow_jacobian(u0, spec, h=1e-5)
            assert J.shape[0] == 2 * g.modes_upto(n) == 2 * np.count_nonzero(g.frequencies <= n)
            assert np.all(np.any(J != 0, axis=0))
            defects[n] = check_symplectic(J, g, n)
        assert defects[N] <= 10 * defects[N - 1.0]

    def test_over_the_budget_refused(self, monkeypatch):
        # dimension 80 (160 probes of K=64 modes and their run at 2 samples)
        # computes in a budget of exactly its probes' and run's bytes, and
        # one byte under it is refused before a probe is built
        g = make_grid(1, 64)
        u0 = band_limited_field(g, 10, 4)
        spec = FlowSpec(grid=g, dt=1e-3, T=0.1, flavor="truncated", N=40.0)
        size = 4_165_650
        monkeypatch.setattr(spectral, "BUDGET_BYTES", size)
        J = flow_jacobian(u0, spec, h=1e-6)
        assert J.shape == (80, 80) and np.all(np.isfinite(J))
        monkeypatch.setattr(spectral, "BUDGET_BYTES", size - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"N=40.0 needs 160 Jacobian probes at K=64 "
                                                 f"and their run of {size} bytes"):
                flow_jacobian(u0, spec, h=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size // 10


class TestSymplectic:
    def test_omega_blocks(self):
        g = make_grid(2, 8)
        omega = symplectic_matrix(g, 4.0)
        for n in range(1, 5):
            b = 2 * (n - 1)
            assert omega[b, b + 1] == pytest.approx(1.0 / (np.pi * n), rel=1e-12)
            assert omega[b + 1, b] == pytest.approx(-1.0 / (np.pi * n), rel=1e-12)
        off = omega.copy()
        for n in range(1, 5):
            b = 2 * (n - 1)
            off[b : b + 2, b : b + 2] = 0.0
        assert np.max(np.abs(off)) < 1e-14

    @pytest.mark.parametrize("mu, K, N", [(1.0, 8, 4), (2.0, 8, 2), (0.5, 16, 16), (1.0, 64, 32)])
    def test_omega_is_the_form_on_basis_fields(self, mu, K, N):
        g = make_grid(2, K, mu)
        n_modes = int(N * mu)
        basis = []
        for i in range(2 * n_modes):
            c = np.zeros(K, dtype=complex)
            c[i // 2] = 1j if i % 2 else 1.0
            basis.append(FourierField(g, c))
        expected = np.array([[symplectic_form(a, b) for b in basis] for a in basis])
        assert np.array_equal(symplectic_matrix(g, N), expected)

    def test_identity_has_zero_defect(self):
        g = make_grid(2, 8)
        assert check_symplectic(np.eye(8), g, 4.0) == 0.0

    def test_rotation_blocks_are_symplectic(self):
        g = make_grid(2, 8)
        J = np.zeros((8, 8))
        for n in range(1, 5):
            th = n**5 * 0.2
            b = 2 * (n - 1)
            J[b, b] = np.cos(th)
            J[b, b + 1] = -np.sin(th)
            J[b + 1, b] = np.sin(th)
            J[b + 1, b + 1] = np.cos(th)
        assert check_symplectic(J, g, 4.0) <= 1e-12

    def test_random_matrix_fails(self):
        g = make_grid(2, 8)
        J = np.random.default_rng(11).standard_normal((8, 8))
        assert check_symplectic(J, g, 4.0) > 1e-3

    def test_flow_map_symplectic(self):
        g = make_grid(2, 8)
        u0 = band_limited_field(g, 12, 4, norm=1.5)
        spec = FlowSpec(grid=g, dt=1e-3, T=0.2, flavor="truncated", N=4.0)
        J = flow_jacobian(u0, spec, h=1e-5)
        assert check_symplectic(J, g, 4.0) <= 1e-5

    def test_odd_dimension_rejected(self):
        g = make_grid(2, 8)
        with pytest.raises(ValueError):
            check_symplectic(np.eye(7), g, 4.0)
