"""Multiplier, multilinear forms, modified energies and drift identities.

The correction-multiplier cascade is validated against its defining
property: the time derivative of each modified energy along a trajectory
must match the next Lambda form. The drift oracle takes that derivative
two ways, as a centered difference along a finely-stepped trajectory and
exactly, by polarization along the Galerkin vector field; the exact
series holds to round-off at any step. Both pin every constant (in
particular the 1/n! in the symmetrizations).
"""

from itertools import combinations

import numpy as np
import pytest

from kdvlab import imethod, resonance
from kdvlab.flow import FlowSpec, integrate, nonlinear_rhs
from kdvlab.imethod import (
    IMultiplier,
    MultilinearForm,
    apply_I,
    big_m3,
    big_m3_symmetrized,
    big_m4,
    big_m5,
    constant_form,
    drift_oracle,
    eval_m,
    lambda_n,
    modified_energy,
    sigma3,
    sigma4,
)
from kdvlab.imethod import _energy_rate, _hyperplane_tuples, _m_values
from kdvlab.resonance import _pn_int
from kdvlab.spectral import (
    FourierField,
    harmonic,
    make_grid,
    random_smooth_field,
    sobolev_norm,
    transform,
)


def smooth_field(grid, seed, decay=0.7, norm=1.0):
    return random_smooth_field(grid, np.random.default_rng(seed), decay=decay, norm_value=norm)


class TestMultiplier:
    def test_identity_region(self):
        for shape in ("clipped_power", "smooth_log"):
            m = IMultiplier(s=-0.5, N=16.0, shape=shape)
            assert eval_m(m, 8.0) == 1.0
            assert eval_m(m, -8.0) == 1.0

    def test_power_region(self):
        for shape in ("clipped_power", "smooth_log"):
            m = IMultiplier(s=-0.5, N=16.0, shape=shape)
            assert eval_m(m, 64.0) == pytest.approx(0.5, rel=1e-14)

    def test_clipped_power_at_seam(self):
        m = IMultiplier(s=-0.5, N=16.0)
        assert eval_m(m, 32.0) == pytest.approx(2**-0.5, rel=1e-14)

    def test_smooth_log_seam_endpoints(self):
        m = IMultiplier(s=-0.5, N=16.0, shape="smooth_log")
        assert eval_m(m, 16.0) == pytest.approx(1.0, rel=1e-14)
        assert eval_m(m, 32.0) == pytest.approx(2**-0.5, rel=1e-14)

    @pytest.mark.parametrize("shape", ["clipped_power", "smooth_log"])
    def test_monotone_and_bounded(self, shape):
        m = IMultiplier(s=-1.5, N=4.0, shape=shape)
        k = np.linspace(0.0, 64.0, 4097)
        values = eval_m(m, k)
        assert np.all(np.diff(values) <= 1e-15)
        assert np.all(values > 0) and np.all(values <= 1.0)

    def test_even(self):
        m = IMultiplier(s=-1.0, N=5.0)
        k = np.linspace(0.5, 40.0, 101)
        assert np.array_equal(eval_m(m, k), eval_m(m, -k))

    def test_s_zero_is_identity(self):
        m = IMultiplier(s=0.0, N=4.0)
        assert np.all(eval_m(m, np.arange(1.0, 100.0)) == 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            IMultiplier(s=-0.5, N=0.0)
        with pytest.raises(ValueError):
            IMultiplier(s=0.5, N=4.0)
        with pytest.raises(ValueError):
            IMultiplier(s=-0.5, N=4.0, shape="cosine")


class TestApplyI:
    def test_identity_below_threshold(self):
        g = make_grid(1, 8)
        u = smooth_field(g, 0)
        out = apply_I(u, IMultiplier(s=-0.5, N=8.0))
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_zero_field(self):
        g = make_grid(1, 8)
        out = apply_I(FourierField.zero(g), IMultiplier(s=-0.5, N=2.0))
        assert np.all(out.coeffs == 0.0)

    def test_amplitude_halved_above_2N(self):
        g = make_grid(1, 64)
        u = harmonic(g, 64)
        out = apply_I(u, IMultiplier(s=-0.5, N=16.0))
        assert out.mode(64) == pytest.approx(0.5 * np.pi, rel=1e-14)


class TestLambdaN:
    def test_cubic_integral_of_cos_vanishes(self):
        g = make_grid(1, 8)
        value = lambda_n(constant_form(3), [harmonic(g, 1)] * 3)
        assert abs(value) < 1e-14

    def test_cubic_integral_two_modes(self):
        g = make_grid(1, 8)
        u = harmonic(g, 1) + harmonic(g, 2)
        # oracle: dealiased quadrature of u^3 over the torus
        w = transform(u)
        quad = np.sum(w**3) * (2 * np.pi / g.physical_points)
        value = lambda_n(constant_form(3), [u] * 3)
        assert value.imag == pytest.approx(0.0, abs=1e-12)
        assert value.real == pytest.approx(3 * np.pi / 2, rel=1e-12)
        assert value.real == pytest.approx(quad, rel=1e-10)

    def test_quadratic_parseval_below_threshold(self):
        g = make_grid(1, 8)
        u = smooth_field(g, 1)
        mult = IMultiplier(s=-0.5, N=8.0)

        def w(i1, i2):
            from kdvlab.imethod import _m_array

            return (_m_array(mult, i1 / g.mu) * _m_array(mult, i2 / g.mu)).astype(complex)

        from kdvlab.imethod import MultilinearForm

        value = lambda_n(MultilinearForm(2, w), [u, u])
        assert value.real == pytest.approx(sobolev_norm(u, 0.0) ** 2, rel=1e-12)

    def test_arity_and_grid_checks(self):
        g = make_grid(1, 8)
        u = harmonic(g, 1)
        with pytest.raises(ValueError):
            lambda_n(constant_form(3), [u, u])
        with pytest.raises(ValueError):
            lambda_n(constant_form(2), [u, harmonic(make_grid(1, 9), 1)])

    def test_quintic_cap(self):
        g = make_grid(1, 17)
        with pytest.raises(ValueError, match="capped"):
            lambda_n(constant_form(5), [harmonic(g, 1)] * 5)


class TestM3:
    def test_vanishes_below_threshold(self):
        g = make_grid(2, 8)
        form = big_m3(IMultiplier(s=-0.5, N=8.0), g)
        i1 = np.array([1, 2, 3])
        i2 = np.array([2, -5, 1])
        i3 = -(i1 + i2)
        assert np.all(np.abs(form.weight(i1, i2, i3)) < 1e-15)

    def test_pinned_value(self):
        # closed form (i/3)(m^2(k1) k1 + m^2(k2) k2 + m^2(k3) k3) at
        # (32,-16,-16) with s=-1/2, N=16: (i/3)(16 - 32) = -16i/3
        g = make_grid(2, 32)
        form = big_m3(IMultiplier(s=-0.5, N=16.0), g)
        value = form.weight(np.array([32]), np.array([-16]), np.array([-16]))[0]
        assert value == pytest.approx(-16j / 3, rel=1e-14)

    def test_closed_equals_symmetrized(self):
        g = make_grid(2, 24)
        mult = IMultiplier(s=-0.5, N=4.0)
        closed = big_m3(mult, g)
        sym = big_m3_symmetrized(mult, g)
        idx = _hyperplane_tuples(3, 24)
        a = closed.weight(*idx)
        b = sym.weight(*idx)
        assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(np.abs(a)))

    def test_permutation_invariance(self):
        g = make_grid(2, 32)
        form = big_m3(IMultiplier(s=-0.5, N=4.0), g)
        tuples = [(32, -16, -16), (-16, 32, -16), (-16, -16, 32)]
        values = [
            form.weight(np.array([a]), np.array([b]), np.array([c]))[0]
            for a, b, c in tuples
        ]
        assert values[0] == values[1] == values[2]


class TestSigma3:
    def test_zero_when_m_identity(self):
        g = make_grid(2, 8)
        form = sigma3(IMultiplier(s=-0.5, N=8.0), g)
        idx = _hyperplane_tuples(3, 8)
        assert np.all(form.weight(*idx) == 0.0)

    def test_pinned_value(self):
        # -M3/alpha3 at (32,-16,-16), j=2: (16i/3) / (i * 31457280)
        g = make_grid(2, 32)
        form = sigma3(IMultiplier(s=-0.5, N=16.0), g)
        value = form.weight(np.array([32]), np.array([-16]), np.array([-16]))[0]
        assert value.real == pytest.approx(16.0 / (3 * 31457280), rel=1e-13)
        assert value.imag == 0.0

    def test_symmetric_and_even(self):
        g = make_grid(1, 16)
        form = sigma3(IMultiplier(s=-1.0, N=3.0), g)
        v1 = form.weight(np.array([9]), np.array([-4]), np.array([-5]))[0]
        v2 = form.weight(np.array([-4]), np.array([-5]), np.array([9]))[0]
        v3 = form.weight(np.array([-9]), np.array([4]), np.array([5]))[0]
        assert v1 == v2 == v3


class TestM4Cascade:
    def test_all_vanish_when_m_identity(self):
        # the continuum multipliers see pair-sum arguments up to 3K, so
        # "m = 1 everywhere reachable" means N >= 3K there; the
        # K-lattice-consistent variants only ever see the stored band
        g = make_grid(2, 6)
        wide = IMultiplier(s=-0.5, N=18.0)
        idx4 = _hyperplane_tuples(4, 6)
        assert np.all(big_m4(wide, g).weight(*idx4) == 0.0)
        assert np.all(sigma4(wide, g).weight(*idx4) == 0.0)
        idx5 = _hyperplane_tuples(5, 6)
        assert np.all(big_m5(wide, g).weight(*idx5) == 0.0)

        grid_mult = IMultiplier(s=-0.5, N=6.0)
        assert np.all(big_m4(grid_mult, g, lattice_cutoff=6).weight(*idx4) == 0.0)
        assert np.all(sigma4(grid_mult, g, lattice_cutoff=6).weight(*idx4) == 0.0)
        assert np.all(big_m5(grid_mult, g, lattice_cutoff=6).weight(*idx5) == 0.0)

    def test_resonant_tuples_vanish(self):
        g = make_grid(2, 16)
        mult = IMultiplier(s=-0.5, N=4.0)
        idx = _hyperplane_tuples(4, 16)
        p4 = _pn_int(idx, g.j)
        resonant = p4 == 0
        assert np.any(resonant)
        m4, scale = _m_values(4, mult, g, idx)
        ratio = np.abs(m4[resonant]) / np.maximum(scale[resonant], 1e-300)
        assert float(np.max(ratio)) <= 1e-10

    def test_low_tuples_vanish(self):
        g = make_grid(2, 16)
        form = big_m4(IMultiplier(s=-0.5, N=40.0), g)
        i1 = np.array([1, 2])
        i2 = np.array([1, -1])
        i3 = np.array([-1, 2])
        i4 = -(i1 + i2 + i3)
        assert np.all(np.abs(form.weight(i1, i2, i3, i4)) < 1e-15)

    def test_m4_odd_sigma4_even(self):
        g = make_grid(2, 12)
        mult = IMultiplier(s=-0.5, N=3.0)
        m4 = big_m4(mult, g)
        s4 = sigma4(mult, g)
        t = (np.array([7]), np.array([-2]), np.array([-4]), np.array([-1]))
        tn = tuple(-a for a in t)
        assert m4.weight(*t)[0] == pytest.approx(-m4.weight(*tn)[0], rel=1e-13)
        assert s4.weight(*t)[0] == pytest.approx(s4.weight(*tn)[0], rel=1e-13)


# Test-local copy of the hand-written cascade that the one step replaced:
# every order recomputed sigma_(n-1) on each lane, with active-lane masks
# and substitute pair sums.
def _ref_pn(idx, j):
    acc = np.zeros(idx[0].shape, dtype=np.int64)
    for a in idx:
        acc = acc + a.astype(np.int64) ** (2 * j + 1)
    return acc


def _ref_sigma3(mult, grid, i1, i2, i3, active):
    p3 = _ref_pn((i1, i2, i3), grid.j)
    num = np.zeros(i1.shape, dtype=np.float64)
    for a in (i1, i2, i3):
        k = a / grid.mu
        num = num + imethod._m_array(mult, k) ** 2 * k
    p3_freq = p3.astype(np.float64) * grid.mu ** (-(2 * grid.j + 1))
    return np.where(active, -(num / 3.0) / np.where(active, p3_freq, 1.0), 0.0)


def _ref_lane(pair, cutoff):
    lane = pair != 0
    if cutoff is not None:
        lane &= np.abs(pair) <= cutoff
    return lane


def _ref_m4(mult, grid, idx, active, cutoff):
    acc = np.zeros(idx[0].shape, dtype=np.float64)
    scale = np.zeros(idx[0].shape, dtype=np.float64)
    for a, b in combinations(range(4), 2):
        c, d = (x for x in range(4) if x not in (a, b))
        pair = idx[a] + idx[b]
        lane = active & _ref_lane(pair, cutoff)
        s3 = _ref_sigma3(mult, grid, idx[c], idx[d], np.where(lane, pair, 1), lane)
        term = s3 * (pair / grid.mu)
        acc = acc + term
        scale = np.maximum(scale, np.abs(term))
    return (-0.25j) * acc, scale


def _ref_sigma4(mult, grid, idx, active, cutoff):
    p4 = _ref_pn(idx, grid.j)
    lane = active & (p4 != 0)
    m4, _ = _ref_m4(mult, grid, idx, active, cutoff)
    p4_freq = p4.astype(np.float64) * grid.mu ** (-(2 * grid.j + 1))
    return np.where(lane, -m4 / (1j * np.where(lane, p4_freq, 1.0)), 0.0)


def _ref_m5(mult, grid, idx, cutoff):
    acc = np.zeros(idx[0].shape, dtype=np.complex128)
    for a, b in combinations(range(5), 2):
        rest = [idx[x] for x in range(5) if x not in (a, b)]
        pair = idx[a] + idx[b]
        lane = _ref_lane(pair, cutoff)
        s4 = _ref_sigma4(mult, grid, (*rest, np.where(lane, pair, 1)), lane, cutoff)
        acc = acc + s4 * np.where(lane, pair / grid.mu, 0.0)
    return (-1j / 5.0) * acc


class TestCascadeStep:
    @pytest.mark.parametrize("shape", ["clipped_power", "smooth_log"])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_bit_identical_to_per_lane_cascade(self, j, mu, shape):
        K = 6
        g = make_grid(j, K, mu)
        mult = IMultiplier(s=-1.0, N=2.0 / mu, shape=shape)
        idx4 = _hyperplane_tuples(4, K)
        idx5 = _hyperplane_tuples(5, K)
        all4 = np.ones(idx4[0].shape, dtype=bool)
        for cutoff in (None, K, K - 2):
            m4, scale = _m_values(4, mult, g, idx4, cutoff)
            ref_m4, ref_scale = _ref_m4(mult, g, idx4, all4, cutoff)
            assert np.array_equal(m4, ref_m4) and np.array_equal(scale, ref_scale)
            assert np.array_equal(big_m4(mult, g, cutoff).weight(*idx4), ref_m4)
            assert np.array_equal(
                sigma4(mult, g, cutoff).weight(*idx4), _ref_sigma4(mult, g, idx4, all4, cutoff)
            )
            assert np.array_equal(
                big_m5(mult, g, cutoff).weight(*idx5), _ref_m5(mult, g, idx5, cutoff)
            )

    def test_cache_stays_at_its_bound(self):
        resonance._CACHE.clear()
        g = make_grid(1, 6)
        u = smooth_field(g, 3)
        tuples = _hyperplane_tuples(4, 6)
        for i in range(40):
            lambda_n(sigma4(IMultiplier(s=-0.5, N=1.0 + 0.1 * i), g, 6), [u] * 4)
            assert len(resonance._CACHE) <= resonance.CACHE_ENTRIES
        assert len(resonance._CACHE) == resonance.CACHE_ENTRIES
        # least recently used out first: the tuples every form reads stay
        assert _hyperplane_tuples(4, 6) is tuples

    def test_odd_multiplier_breaks_the_resonant_set_check(self, monkeypatch):
        # an m that is not even: M4 no longer cancels on the resonant tuples
        # (a, -a, b, -b), so sigma4, and M5 through its sigma4 table, refuse
        true_m = imethod._m_array
        monkeypatch.setattr(
            imethod, "_m_array", lambda mult, k: true_m(mult, k) * (1.0 + 0.25 * (k > 0))
        )
        g = make_grid(2, 6)
        mult = IMultiplier(s=-0.5, N=2.0)
        resonance._CACHE.clear()
        try:
            with pytest.raises(ArithmeticError, match="M4 does not vanish on a resonant tuple"):
                sigma4(mult, g, 6).weight(*_hyperplane_tuples(4, 6))
            with pytest.raises(ArithmeticError, match="M4 does not vanish on a resonant tuple"):
                big_m5(mult, g, 6).weight(*_hyperplane_tuples(5, 6))
        finally:
            resonance._CACHE.clear()


class TestModifiedEnergy:
    def test_reduces_to_l2_below_threshold(self):
        g = make_grid(2, 8)
        u = smooth_field(g, 2)
        mult = IMultiplier(s=-0.5, N=8.0)
        l2sq = sobolev_norm(u, 0.0) ** 2
        for order in (2, 3, 4):
            assert modified_energy(u, mult, order) == pytest.approx(l2sq, rel=1e-12)

    def test_zero_field(self):
        g = make_grid(1, 6)
        mult = IMultiplier(s=-0.5, N=2.0)
        for order in (2, 3, 4):
            assert modified_energy(FourierField.zero(g), mult, order) == 0.0

    def test_order_validation(self):
        g = make_grid(1, 6)
        with pytest.raises(ValueError):
            modified_energy(harmonic(g, 1), IMultiplier(s=-0.5, N=2.0), 5)

    def test_comparability_constant_reported(self):
        # |E4 - E2| <= C (||Iu||^3 + ||Iu||^4); fit C over random fields
        g = make_grid(2, 12)
        mult = IMultiplier(s=-0.5, N=4.0)
        worst = 0.0
        for seed in range(8):
            u = smooth_field(g, 100 + seed, decay=0.4, norm=1.0 + 0.3 * seed)
            e2 = modified_energy(u, mult, 2)
            e4 = modified_energy(u, mult, 4)
            iu = np.sqrt(e2)
            worst = max(worst, abs(e4 - e2) / (iu**3 + iu**4))
        print(f"comparability constant C = {worst:.4g}")
        assert np.isfinite(worst) and worst < 10.0


@pytest.fixture(scope="module")
def fine_trajectory():
    g = make_grid(2, 6)
    u0 = smooth_field(g, 7)
    h = 1e-6
    return integrate(u0, FlowSpec(grid=g, dt=h, T=20 * h))


class TestDriftIdentities:
    """d/dt E^n = Lambda_(n+1)(M_(n+1)) along true trajectories.

    At a tiny step the centered difference isolates the identity itself;
    these tolerances are far below what any misplaced constant (3x, 3/2x,
    2x) would produce.
    """

    def test_order2(self, fine_trajectory):
        rep = drift_oracle(fine_trajectory, IMultiplier(s=-0.5, N=2.0), 2)
        assert rep.max_rel_discrepancy <= 1e-4

    def test_order3(self, fine_trajectory):
        rep = drift_oracle(fine_trajectory, IMultiplier(s=-0.5, N=2.0), 3)
        assert rep.max_rel_discrepancy <= 1e-3

    def test_order4(self, fine_trajectory):
        rep = drift_oracle(fine_trajectory, IMultiplier(s=-0.5, N=2.0), 4)
        assert rep.max_rel_discrepancy <= 2e-2

    def test_linear_flow_zero_discrepancy(self):
        # nonlinearity off and m = 1 on the grid: both sides identically 0
        g = make_grid(2, 6)
        u0 = smooth_field(g, 8)
        traj = integrate(u0, FlowSpec(grid=g, dt=1e-3, T=2e-2, nonlinear=False))
        rep = drift_oracle(traj, IMultiplier(s=-0.5, N=6.0), 2)
        assert rep.max_rel_discrepancy == 0.0
        assert rep.reference_scale == 0.0
        assert np.all(rep.exact == 0.0)
        assert rep.exact_max_abs_discrepancy == 0.0
        assert rep.exact_max_rel_discrepancy == 0.0
        assert rep.exact_reference_scale == 0.0

    def test_requires_full_flavor(self):
        g = make_grid(2, 6)
        u0 = smooth_field(g, 9)
        traj = integrate(u0, FlowSpec(grid=g, dt=1e-3, T=5e-3, flavor="truncated", N=3.0))
        with pytest.raises(ValueError, match="full"):
            drift_oracle(traj, IMultiplier(s=-0.5, N=2.0), 2)

    def test_needs_three_samples(self):
        g = make_grid(2, 6)
        u0 = smooth_field(g, 10)
        traj = integrate(u0, FlowSpec(grid=g, dt=1e-3, T=1e-3))
        with pytest.raises(ValueError, match="3"):
            drift_oracle(traj, IMultiplier(s=-0.5, N=2.0), 2)


def short_trajectory(j, mu, seed):
    """Three samples of a K=6 flow; the exact oracle needs no fine step."""
    g = make_grid(j, 6, mu)
    u0 = smooth_field(g, seed, decay=0.3, norm=4.0)
    return integrate(u0, FlowSpec(grid=g, dt=1e-7, T=2e-7))


class TestExactDriftSeries:
    """d/dt E^n = Lambda_(n+1)(M_(n+1)) to round-off, with no step at all.

    The threshold N = K/(3 mu) leaves m = 1 on a third of the band, and
    unit-scale data of L2 norm 4 keeps every Lambda reference far above
    the ~1e-14 absolute round-off of the polarized derivative. The
    tolerances sit 5x or more above the worst measured case (j=3, mu=1/2:
    1.4e-11 at order 3, 2.1e-6 at order 4, where the E2 and E3 rates cancel
    down to the small Lambda_5 reference).
    """

    @pytest.mark.parametrize("order,tol", [(2, 1e-12), (3, 1e-9), (4, 1e-5)])
    @pytest.mark.parametrize("mu,s", [(0.5, -0.5), (2.0, -1.5)])
    @pytest.mark.parametrize("shape", ["clipped_power", "smooth_log"])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_round_off_agreement(self, j, shape, mu, s, order, tol):
        traj = short_trajectory(j, mu, seed=10 * j + int(mu))
        mult = IMultiplier(s=s, N=2.0 / mu, shape=shape)
        rep = drift_oracle(traj, mult, order)
        assert rep.exact.shape == rep.direct_all.shape == (len(traj.fields),)
        assert np.array_equal(rep.direct_all[1:-1], rep.direct)
        assert rep.exact_reference_scale > 0.0
        assert rep.exact_max_rel_discrepancy <= tol

    # The oracle evaluates the vector field once over all samples with the
    # stepper's kernel; every rate must equal the one taken from a
    # single-field nonlinear_rhs, bit for bit.
    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("flow", ["full", "truncated", "linear"])
    def test_exact_is_the_per_sample_rate(self, flow, order):
        g = make_grid(2, 6, 1.4)
        kwargs = {"truncated": {"flavor": "truncated", "N": g.band},
                  "linear": {"nonlinear": False}}.get(flow, {})
        traj = integrate(
            smooth_field(g, 31, decay=0.3, norm=4.0),
            FlowSpec(grid=g, dt=1e-7, T=3e-7, **kwargs),
        )
        spec, mult = traj.spec, IMultiplier(s=-0.5, N=1.5)
        expected = [
            _energy_rate(
                u,
                nonlinear_rhs(u, spec.flavor, spec.N) if spec.nonlinear else FourierField.zero(g),
                mult,
                order,
            )[0]
            for u in traj.fields
        ]
        exact = drift_oracle(traj, mult, order).exact
        assert exact.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_misscaled_multiplier_flagged(self, monkeypatch, order):
        # 1.5 M in place of M: the exact series stays at d/dt E^n, so the
        # discrepancy is |1 - 1.5| / 1.5 = 1/3 of the reference
        true_form = imethod._successor_form

        def misscaled(order, mult, grid):
            form = true_form(order, mult, grid)
            return MultilinearForm(
                form.n, lambda *idx: 1.5 * form.weight(*idx), tag=f"1.5{form.tag}"
            )

        monkeypatch.setattr(imethod, "_successor_form", misscaled)
        traj = short_trajectory(2, 1.0, seed=21)
        rep = drift_oracle(traj, IMultiplier(s=-0.5, N=2.0), order)
        assert rep.exact_max_rel_discrepancy == pytest.approx(1.0 / 3.0, rel=1e-3)
