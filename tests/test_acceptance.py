"""Acceptance criteria: one test and one printed verdict line each.

Every criterion runs at its stated tolerance; nothing is deferred to
later calibration. Data profiles that the criteria leave open (random
smooth fields) are frozen here with explicit seeds and spectral shapes so
the numbers are reproducible. Criterion 6 asserts the drift oracle's
exact, step-free derivative series, which has no finite-difference
floor. Criteria 8 and 9 measure quantities that sit at documented floors
of the configured measurement (see the class docstrings and the failing
assertions' messages); they are asserted as stated and report honestly.
"""

import numpy as np
import pytest

from kdvlab.experiments import (
    ExperimentConfig,
    almost_conservation_sweep,
    approx_truncated_sweep,
    high_freq_insensitivity,
    scaling_check,
    squeeze_witness,
    _rng_stream,
)
from kdvlab.flow import (
    FlowSpec,
    check_symplectic,
    conservation_report,
    flow_jacobian,
    integrate,
    linear_propagate,
)
from kdvlab.imethod import (
    IMultiplier,
    _cascade,
    drift_oracle,
)
from kdvlab.resonance import _pn_int, verify_factorization
from kdvlab.spectral import (
    FourierField,
    harmonic,
    make_grid,
    project,
    random_smooth_field,
    sobolev_norm,
)
from lattice_reference import hyperplane


def verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def modes12_field(grid, seed, norm=1.0):
    """Smooth random data on modes {1, 2}, normalized in L^2 (frozen profile)."""
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.K, dtype=complex)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c[:2] = z * np.exp(-np.arange(1, 3))
    u = FourierField(grid, c)
    return u * (norm / sobolev_norm(u, 0.0))


@pytest.fixture(scope="module")
def factorization_reports():
    """Gamma_3 at K=64 and Gamma_4 at K=24 for j = 1, 2, 3 (criteria 1 and 2)."""
    return {
        j: (verify_factorization(j, 64, arity=3), verify_factorization(j, 24, arity=4))
        for j in (1, 2, 3)
    }


class TestCriterion01ResonanceExactness:
    def test_factorization_exact(self, factorization_reports):
        details = []
        ok = True
        for j, (r3, r4) in factorization_reports.items():
            ok &= r3.ok and r4.ok
            if j == 1:
                ok &= r3.min_ratio == r3.max_ratio == 3
                ok &= r4.min_ratio == r4.max_ratio == 3
            details.append(f"j={j}: {r3.count + r4.count} tuples, 0 failures")
        line = verdict(1, "resonance-exactness", ok, "; ".join(details))
        assert ok, line


class TestCriterion02Comparability:
    def test_ratio_bounds(self, factorization_reports):
        details = []
        ok = True
        for j, (r3, r4) in factorization_reports.items():
            for r in (r3, r4):
                ok &= r.min_ratio is not None and r.min_ratio > 0
                ok &= r.max_ratio is not None and np.isfinite(float(r.max_ratio))
            details.append(
                f"j={j}: Q3/max^(2j-2) in [{float(r3.min_ratio):.4g}, {float(r3.max_ratio):.4g}], "
                f"Q4 in [{float(r4.min_ratio):.4g}, {float(r4.max_ratio):.4g}]"
            )
        line = verdict(2, "comparability", ok, "; ".join(details))
        assert ok, line


class TestCriterion03LinearExactness:
    def test_single_mode_solutions(self):
        worst = 0.0
        for j in (1, 2, 3):
            g = make_grid(j, 8)
            for k in range(1, 9):
                for t in (0.1, 0.5, 1.0):
                    out = linear_propagate(harmonic(g, k), t)
                    ref = harmonic(g, k, 1.0, k ** (2 * j + 1) * t)
                    err = np.max(np.abs(out.coeffs - ref.coeffs)) / np.pi
                    worst = max(worst, err)
        ok = worst <= 1e-12
        line = verdict(3, "linear-exactness", ok, f"max relative error {worst:.2e} <= 1e-12")
        assert ok, line


@pytest.fixture(scope="module")
def conservation_runs():
    g = make_grid(2, 32)
    u0 = modes12_field(g, seed=11, norm=1.0)
    full = integrate(u0, FlowSpec(grid=g, dt=1e-3, T=1.0, sample_stride=100))
    trunc = integrate(
        project(u0, "le", 16.0),
        FlowSpec(grid=g, dt=1e-3, T=1.0, flavor="truncated", N=16.0, sample_stride=100),
    )
    return g, u0, full, trunc


class TestCriterion04Conservation:
    def test_drifts(self, conservation_runs):
        _, _, full, trunc = conservation_runs
        _, drift_full = conservation_report(full)
        _, drift_trunc = conservation_report(trunc)
        ok = (
            drift_full["mass"] <= 1e-14
            and drift_trunc["mass"] <= 1e-14
            and drift_full["l2_energy"] <= 1e-7
            and drift_full["hamiltonian"] <= 1e-7
            and drift_trunc["l2_energy"] <= 1e-7
            and drift_trunc["hamiltonian"] <= 1e-7
        )
        line = verdict(
            4,
            "conservation",
            ok,
            f"full: mass={drift_full['mass']:.1e}, E={drift_full['l2_energy']:.2e}, "
            f"H={drift_full['hamiltonian']:.2e}; truncated: E={drift_trunc['l2_energy']:.2e}, "
            f"H={drift_trunc['hamiltonian']:.2e}; bounds 1e-14/1e-7",
        )
        assert ok, line


class TestCriterion05IntegratorOrder:
    def test_richardson_slope(self, conservation_runs):
        g, u0, _, _ = conservation_runs
        finals = {}
        for dt in (1e-3, 5e-4, 2.5e-4):
            spec = FlowSpec(grid=g, dt=dt, T=1.0, sample_stride=10**9)
            finals[dt] = integrate(u0, spec).fields[-1]
        e1 = np.linalg.norm(finals[1e-3].coeffs - finals[5e-4].coeffs)
        e2 = np.linalg.norm(finals[5e-4].coeffs - finals[2.5e-4].coeffs)
        slope = float(np.log2(e1 / e2))
        ok = 3.7 <= slope <= 4.3
        line = verdict(
            5, "integrator-order", ok, f"Richardson slope {slope:.3f} in [3.7, 4.3]"
        )
        assert ok, line


class TestCriterion06DerivativeIdentities:
    """d/dt E2 vs Lambda3(M3) and d/dt E4 vs Lambda5(M5) on an h = 1e-4 run.

    The derivative asserted is the drift oracle's exact series
    DE^n(u)[F(u)], taken by polarization along the trajectory's own
    Galerkin vector field at every sample. It has no step, so it measures
    the identities themselves, down to round-off (measured: order 2
    5.2e-11, order 4 4.7e-6, absolute 6e-17).

    The centered difference of E^n over the same samples is printed
    alongside but cannot carry the tolerances: at h = 1e-4 it damps each
    oscillatory component of the Lambda series by 1 - sinc(P_n h); the
    slowest nonzero-weight interaction at (j=2, N=4) is (5,-1,-4) with
    |P_3| = 2100, giving a floor of about (0.21)^2/6 = 7e-3 (measured:
    order 2 1.1e-2, order 4 1.6), four orders above the order-2
    tolerance.
    """

    def test_fd_vs_lambda(self):
        g = make_grid(2, 12)
        u0 = random_smooth_field(g, _rng_stream(7, 0), 2.0, norm_s=0.0, norm_value=1.0)
        h = 1e-4
        traj = integrate(u0, FlowSpec(grid=g, dt=h, T=60 * h))
        mult = IMultiplier(s=-0.5, N=4.0)
        rep2 = drift_oracle(traj, mult, 2)
        rep4 = drift_oracle(traj, mult, 4)
        ok2 = rep2.exact_max_rel_discrepancy <= 1e-6
        ok4 = rep4.exact_max_rel_discrepancy <= 1e-4
        line = verdict(
            6,
            "derivative-identities",
            ok2 and ok4,
            f"exact: order2 rel={rep2.exact_max_rel_discrepancy:.2e} (<=1e-6), "
            f"order4 rel={rep4.exact_max_rel_discrepancy:.2e} (<=1e-4) on the "
            f"h=1e-4 trajectory; FD at step 1e-4: order2 rel="
            f"{rep2.max_rel_discrepancy:.2e}, order4 rel={rep4.max_rel_discrepancy:.2e} "
            f"(frequency-response floor ~7e-3)",
        )
        assert ok2 and ok4, line


class TestCriterion07ResonantSetVanishing:
    def test_m4_vanishes_on_resonant_set(self):
        g = make_grid(2, 16)
        idx = hyperplane(4, 16)
        resonant = _pn_int(idx, g.j) == 0
        assert int(resonant.sum()) > 0
        worst = 0.0
        for s in (-0.5, -1.0):
            for N in (4.0, 8.0):
                m4, scale = _cascade(4, IMultiplier(s=s, N=N), g, None)[4](idx)
                ratio = np.abs(m4[resonant]) / np.maximum(scale[resonant], 1e-300)
                worst = max(worst, float(np.max(ratio)))
        ok = worst <= 1e-10
        line = verdict(
            7,
            "resonant-set-vanishing",
            ok,
            f"{int(resonant.sum())} resonant tuples, max |M4|/scale = {worst:.2e} <= 1e-10",
        )
        assert ok, line


class TestCriterion08AlmostConservation:
    """E4 drift over N in {4,8,16} at j=3, s=-3/2, K=16.

    The quartic correction cancels the measured E2 drift by 5+ orders of
    magnitude at N=4 (the genuine hierarchy at work). What the rows then
    read is the integrator's L2 non-conservation, not the E4 drift:

    * At N = 16 = K, m = 1 on every stored mode, so E4 is ||u||^2, an
      exact invariant of the Galerkin flow. The measured E4 drifts
      (2.37e-9, 5.20e-9, 5.20e-9) equal the E2 drifts at N = 8 and at
      N = 16, so both rows read the L2 drift of the integrator.
    * That floor is at least partly rounding. On this data over T = 0.02,
      an implicit-midpoint Lawson step, which conserves L2 in exact
      arithmetic, drifts by 1.0e-10, 7.4e-11 and 6.5e-10 at
      h = 1e-6, 5e-7 and 2.5e-7 (ETDRK4: 1.2e-8, 6.6e-10, 1.4e-9): it
      reaches ETDRK4's level and does not fall as h falls. One candidate
      is the reused phase factor exp(i h k^7), whose modulus is off from 1
      by up to 2.2e-16 on some modes; the full attribution is not settled.

    The rows therefore cannot decrease strictly in N at this step.
    Asserted as stated; reports every measured drift.
    """

    def test_drift_decay(self):
        cfg = ExperimentConfig(
            j=3, K=16, s=-1.5, N_list=(4, 8, 16),
            dt=5e-7, T=1.0, seed=2, decay=0.6, amplitude=10.0, data_kmax=8,
        )
        res = almost_conservation_sweep(cfg)
        drifts = [row[1] for row in res.rows]
        e2 = [row[2] for row in res.rows]
        strict = all(b < a for a, b in zip(drifts, drifts[1:]))
        expo = res.fitted_exponent
        ok = strict and expo is not None and expo <= -1.0
        line = verdict(
            8,
            "almost-conservation",
            ok,
            f"E4 drifts {[f'{d:.2e}' for d in drifts]} (E2: {[f'{d:.2e}' for d in e2]}), "
            f"strictly decreasing: {strict}, fitted exponent "
            f"{'n/a' if expo is None else f'{expo:.2f}'} (<= -1); "
            f"E2->E4 cancellation at N=4: {e2[0] / max(drifts[0], 1e-300):.1e}x",
        )
        assert ok, line


class TestCriterion09TruncationApproximation:
    """Both sweeps at j=2, K=256, N in {16,32,64}, T=0.5, unit H^{-1/2} data.

    Approx half: each cascade rung above the data band costs ~1e-5 in
    amplitude at j=2 (resonance-function suppression ~ k^5). The errors
    (8.25e-7, 4.59e-16, 0.0) do decrease, but at N=64 the truncated and
    full flows agree bit for bit below sqrt(N). The log-log fit
    (_fit_loglog) returns no slope when a value is <= 0, so sigma reads
    n/a.

    Tail half: the rows are step error, not the tail's influence below N.
    They move with dt by up to 6x (N=16: 3.5e-2, 6.1e-3, 4.2e-3, 1.4e-3
    at dt = 2e-4, 1e-4, 5e-5, 2.5e-5) and do not converge at N=32 and
    N=64 (1.0e-2 to 3.9e-2 over the same steps). Asserted as stated;
    reports the measured rows.
    """

    def test_sweeps(self):
        cfg_a = ExperimentConfig(
            j=2, K=256, N_list=(16, 32, 64),
            dt=2e-4, T=0.5, seed=4, decay=-0.3,
        )
        res_a = approx_truncated_sweep(cfg_a)
        errs_a = [row[1] for row in res_a.rows]
        dec_a = all(b < a for a, b in zip(errs_a, errs_a[1:]))
        sigma_a = None if res_a.fitted_exponent is None else -res_a.fitted_exponent

        cfg_t = ExperimentConfig(
            j=2, K=256, N_list=(16, 32, 64),
            dt=2e-4, T=0.5, seed=4, decay=0.4, tail_size=1.0,
        )
        res_t = high_freq_insensitivity(cfg_t)
        errs_t = [row[1] for row in res_t.rows]
        dec_t = all(b < a for a, b in zip(errs_t, errs_t[1:]))
        sigma_t = None if res_t.fitted_exponent is None else -res_t.fitted_exponent

        ok = (
            dec_a and dec_t
            and sigma_a is not None and sigma_a >= 0.5
            and sigma_t is not None and sigma_t >= 0.5
        )
        line = verdict(
            9,
            "truncation-approximation",
            ok,
            f"approx errors {[f'{e:.2e}' for e in errs_a]} decreasing={dec_a} "
            f"sigma={'n/a' if sigma_a is None else f'{sigma_a:.2f}'}; "
            f"tail errors {[f'{e:.2e}' for e in errs_t]} decreasing={dec_t} "
            f"sigma={'n/a' if sigma_t is None else f'{sigma_t:.2f}'}; need sigma >= 0.5",
        )
        assert ok, line


class TestCriterion10Symplecticity:
    def test_defect_and_refinement(self):
        g = make_grid(2, 8)
        rng = np.random.default_rng(9)
        c = np.zeros(8, dtype=complex)
        c[:4] = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * np.exp(
            -0.5 * np.arange(1, 5)
        )
        u0 = FourierField(g, c)
        u0 = u0 * (2.0 / sobolev_norm(u0, 0.0))
        defects = {}
        for dt in (1e-3, 5e-4, 2.5e-4):
            spec = FlowSpec(grid=g, dt=dt, T=0.2, flavor="truncated", N=4.0)
            defects[dt] = check_symplectic(flow_jacobian(u0, spec, h=1e-5), g, 4.0)
        ok = defects[1e-3] <= 1e-5 and defects[2.5e-4] <= defects[1e-3] / 8.0
        line = verdict(
            10,
            "symplecticity",
            ok,
            f"defect {defects[1e-3]:.2e} <= 1e-5 at dt=1e-3; two halvings give "
            f"{defects[2.5e-4]:.2e} ({defects[1e-3] / max(defects[2.5e-4], 1e-300):.0f}x decrease, need >= 8x)",
        )
        assert ok, line


class TestCriterion11NonsqueezingWitness:
    def test_t0_exact(self):
        grid = make_grid(2, 8)
        seeded = random_smooth_field(grid, _rng_stream(5, 10_000), 1.5, norm_s=-0.5)
        center = project(seeded, "le", 8.0)
        z = center.mode(3)
        cfg = ExperimentConfig(
            j=2, K=8, N_list=(8,), T=0.0, k0=3,
            z_re=z.real, z_im=z.imag, radius=0.7, samples=16, n_ascent=50, seed=5,
        )
        res = squeeze_witness(cfg)
        err = abs(res.value - 0.7)
        ok = err <= 1e-10
        line = verdict(
            11, "nonsqueezing-witness-T0", ok, f"T=0 witness {res.value:.12f} vs R=0.7, |err|={err:.1e} <= 1e-10"
        )
        assert ok, line

    def test_flowed_witnesses(self):
        R = 0.8
        rng = np.random.default_rng(2026)
        values = []
        ok = True
        for _ in range(5):
            k0 = int(rng.integers(1, 9)) * (1 if rng.random() < 0.5 else -1)
            z = complex(rng.normal(), rng.normal())
            seed = int(rng.integers(0, 2**31))
            cfg = ExperimentConfig(
                j=2, K=8, N_list=(8,), T=0.1, dt=1e-3, k0=k0,
                z_re=z.real, z_im=z.imag, radius=R, samples=64, n_ascent=200, seed=seed,
            )
            res = squeeze_witness(cfg)
            values.append(res.value)
            ok &= res.value >= 0.9 * R
        line = verdict(
            11,
            "nonsqueezing-witness-flow",
            ok,
            f"5 witnesses {[f'{v:.3f}' for v in values]} all >= 0.9R = {0.9 * R:.2f}",
        )
        assert ok, line


class TestCriterion12ScalingIdentity:
    def test_rescaled_solve_and_norm_ratio(self):
        cfg = ExperimentConfig(
            j=2, K=16, mu=2.0, dt=1e-3, T=0.2,
            s=-1.5, seed=3, decay=1.0,
        )
        res = scaling_check(cfg)
        mism = res.diagnostics["max_mismatch"]
        ratio_err = res.diagnostics["norm_ratio_rel_error"]
        ok = mism <= 1e-6 and ratio_err <= 1e-12
        line = verdict(
            12,
            "scaling-identity",
            ok,
            f"field mismatch {mism:.2e} <= 1e-6; norm ratio error {ratio_err:.2e} <= 1e-12",
        )
        assert ok, line
