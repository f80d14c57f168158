"""Multiplier, multilinear forms, modified energies and drift identities.

The correction-multiplier cascade is validated against its defining
property: the time derivative of each modified energy along a trajectory
must match the next Lambda form. The drift oracle takes that derivative
two ways, as a centered difference along a finely-stepped trajectory and
exactly, by polarization along the Galerkin vector field; the exact
series holds to round-off at any step. Both pin every constant (in
particular the 1/n! in the symmetrizations).
"""

import re
import tracemalloc
from functools import partial
from itertools import combinations, permutations

import numpy as np
import pytest

from kdvlab import cli, imethod, resonance
from kdvlab.experiments import ExperimentConfig, almost_conservation_sweep
from kdvlab.flow import FlowSpec, integrate, nonlinear_rhs
from kdvlab.imethod import (
    IMultiplier,
    MultilinearForm,
    apply_I,
    big_m3,
    big_m5,
    constant_form,
    drift_oracle,
    eval_m,
    lambda_n,
    modified_energy,
)
from kdvlab.imethod import (
    _energy_rates,
    _lambda_with_scale,
    _modified_energies,
)
from kdvlab.resonance import _pn_int
from kdvlab.spectral import (
    FourierField,
    harmonic,
    make_grid,
    random_smooth_field,
    sobolev_norm,
    transform,
)
from lattice_reference import hyperplane


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

    def test_nan_s_refused(self):
        # nan > 0 is False: without the refusal eval_m returns nan
        with pytest.raises(ValueError, match="Sobolev index s must be <= 0, got nan"):
            IMultiplier(s=float("nan"), N=4.0)


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

    def test_table_byte_bound(self):
        # a pair-term table over Gamma_n at K takes at most 16 (2K+1)^(n-1)
        # bytes; under 1 GiB sigma4's fits up to K=202 and sigma3's to 4095
        for n, K in ((4, 202), (3, 4095)):
            imethod._check_table(n, K)
            with pytest.raises(ValueError, match=f"K={K + 1} needs a Gamma_{n} table"):
                imethod._check_table(n, K + 1)

    def test_sextic_form_at_20(self, monkeypatch):
        # Lambda_6(M6) holds sigma5's pair-term table, 16 * 41^4 bytes, and
        # no Gamma_6 table (the dense size 16 * 41^5 is over 1 GiB); it is
        # dE5/dt, the E4 rate plus 5 Lambda_5(sigma5; F, u, u, u, u), to
        # round-off of the rate's term scale. The hierarchy to M6 builds the
        # sigma3, sigma4 and sigma5 tables at bound 20, bottom up, once each.
        g = make_grid(2, 20)
        mult = IMultiplier(s=-1.0, N=4.0)
        rng = np.random.default_rng(5)
        c = np.array([random_smooth_field(g, rng, 0.4).coeffs for _ in range(3)])
        builds = recorded_builds(monkeypatch)
        sigmas, m6 = imethod._hierarchy(mult, g, 6, 20)
        assert builds == [(3, 20, 20), (4, 20, 20), (5, 20, 20)]
        direct = imethod._real_lambda(m6, g, c, "Lambda_6(M6)")
        nl = np.array([nonlinear_rhs(FourierField(g, row)).coeffs for row in c])
        rate, scale = _energy_rates(g, c, nl, mult, sigmas[:-1])
        assert np.all(np.isfinite(direct)) and np.all(direct != 0.0)
        assert np.all(np.abs(direct - rate) <= 2 * np.finfo(float).eps * scale)

    def test_resonant_set_failure_names_its_tuple(self):
        # at j=1, K=24 the lattice M5 does not vanish on two resonant orbits of
        # Gamma_5: sigma5 refuses, naming the worst, (-22, -6, -5, 12, 21)
        g = make_grid(1, 24)
        mult = IMultiplier(s=-0.5, N=2.0)
        with pytest.raises(ArithmeticError, match="M5 does not vanish") as err:
            lambda_n(sigma(mult, g, 5, 24), [harmonic(g, 1)] * 5)
        named = [int(a) for a in re.search(r"at \(([-\d, ]+)\)", str(err.value))[1].split(",")]
        idx = tuple(np.array([a]) for a in named)
        m, scale = imethod._cascade(5, mult, g, 24)[5](idx)
        assert sum(named) == 0 and _pn_int(idx, 1)[0] == 0
        assert abs(m[0]) > imethod.RESONANT_M4_TOL * scale[0]
        assert sorted(named) == [-22, -6, -5, 12, 21]


def tuple_sum(form, grid, stacks):
    """The per-tuple reference: per sample, (sum, sum of |terms|) over all of
    Gamma_n of w(k) prod_i u_i(k_i), u_i read from row s of stacks[i]; the
    weight is evaluated once, at every tuple."""
    idx = hyperplane(form.n, grid.K)
    weights = form.weight(*idx)
    norm = (2.0 * np.pi * grid.mu) ** (1 - form.n)
    out = []
    for rows in zip(*stacks):
        terms = weights
        for a, c in zip(idx, rows):
            table = np.concatenate([np.conj(c[::-1]), [0.0], c])
            terms = terms * table[a + grid.K]
        out.append((norm * np.sum(terms), norm * np.sum(np.abs(terms))))
    return np.array(out).T


def skew_form(n):
    """A complex weight that tells every slot apart: not a symmetric form."""

    def w(*idx):
        phase = sum((i + 1) * a for i, a in enumerate(idx))
        return np.exp(0.3j * phase) / (1.0 + sum(a * a for a in idx[:-1]))

    return MultilinearForm(n, w, tag="skew")


def sigma(mult, grid, n, cutoff):
    """sigma_n, the top correction of the hierarchy to n (see imethod._hierarchy)."""
    return imethod._hierarchy(mult, grid, n, cutoff)[0][-1]


def big_m(mult, grid, n, cutoff):
    """M_n, the rate form of the hierarchy to n (see imethod._hierarchy)."""
    return imethod._hierarchy(mult, grid, n, cutoff)[1]


def m3_symmetrized(mult, grid):
    """M3 as the cascade step on sigma2 = m(k1) m(k2), -i [m(k1) m(k2+k3) (k2+k3)]_sym."""
    step = imethod._cascade(3, mult, grid, None)[3]
    return MultilinearForm(3, lambda *idx: step(idx)[0], tag="M3sym")


def lab_makers(grid, mult):
    """A maker of every form of the lab at grid's lattice: M3, M3sym, sigma3,
    M4 and sigma4 and M5 on the lattice and in the continuum, and a constant."""
    K = grid.K
    return [
        partial(big_m3, mult, grid), partial(m3_symmetrized, mult, grid),
        partial(sigma, mult, grid, 3, None),
        partial(big_m, mult, grid, 4, K), partial(big_m, mult, grid, 4, None),
        partial(sigma, mult, grid, 4, K), partial(sigma, mult, grid, 4, None),
        partial(big_m, mult, grid, 5, K), partial(big_m, mult, grid, 5, None),
        partial(constant_form, 4, 0.5 - 0.25j),
    ]


def lab_forms(grid, mult):
    """Every form of the lab at grid's lattice (see lab_makers)."""
    return [make() for make in lab_makers(grid, mult)]


def slot_patterns(grid, n, samples, rng):
    """Stacks of the three slot patterns: [u]*n, [F]+[u]*(n-1) and a field
    of its own per slot."""
    u, F, *own = (
        np.array([random_smooth_field(grid, rng, 0.4).coeffs for _ in range(samples)])
        for _ in range(n + 2)
    )
    return {"[u]*n": [u] * n, "[F]+[u]*(n-1)": [F] + [u] * (n - 1), "distinct": own}


def assert_near(got, ref, what, scale_eps=8):
    """value within 8 eps x the reference's scale, and scale within scale_eps
    eps relative."""
    eps = np.finfo(float).eps
    assert np.all(ref[1] > 0.0), what
    assert np.all(np.abs(got[0] - ref[0]) <= 8 * eps * ref[1].real), what
    assert np.all(np.abs(got[1] - ref[1].real) <= scale_eps * eps * ref[1].real), what


class TestStackedEvaluator:
    """_lambda_with_scale, the one Lambda_n evaluator, against the per-tuple sum.

    Every lab form, at each slot pattern: all slots one field (the
    energies), one polarized slot (the energy rates) and a field of its own
    per slot, so that a slot, a conjugate or an orbit's count out of place
    shows. The worst measured errors are 1.3 eps x scale for the value and
    3.9 eps relative for the scale; both bounds are 8 eps.
    """

    @pytest.mark.parametrize("mu", [1.0, 1.4])
    def test_matches_the_tuple_sum(self, mu):
        g = make_grid(2, 6, mu)
        rng = np.random.default_rng(61)
        for form in lab_forms(g, IMultiplier(s=-0.7, N=1.5 / mu)):
            for pattern, stacks in slot_patterns(g, form.n, 3, rng).items():
                got = _lambda_with_scale(form, g, stacks)
                assert got[0].shape == got[1].shape == (3,)
                assert_near(got, tuple_sum(form, g, stacks), (form.tag, pattern))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_a_form_that_is_not_symmetric_is_refused(self, n):
        g = make_grid(2, 4)
        c = np.array([random_smooth_field(g, np.random.default_rng(n), 0.4).coeffs])
        with pytest.raises(ValueError, match="form 'skew' is not permutation-symmetric"):
            _lambda_with_scale(skew_form(n), g, [c] * n)

    @pytest.mark.parametrize("mu", [0.7, 1.4, 2.3])
    def test_cancelling_forms_are_evaluated(self, mu):
        # with m = 1 on the whole lattice every lab weight cancels to 0 and
        # holds round-off only, which moves when the arguments are permuted:
        # no form is refused, and every series passes its imaginary residue
        # check (the orbit of -t is weighed at -t's entries, negated in place)
        g = make_grid(2, 8, mu)
        mult = IMultiplier(s=-0.5, N=100.0)
        c = slot_stacks(g, 1, 4, 66)[0]
        energies = _modified_energies(g, c, mult, imethod._hierarchy(mult, g, 4, 8)[0])
        assert np.all(np.abs(energies - energies[0]) <= 1e-12 * energies[0])
        for form in lab_forms(g, mult)[:-1]:
            assert np.all(np.isfinite(imethod._real_lambda(form, g, c, form.tag)))

    def test_no_blas_call(self, monkeypatch):
        # the contraction is gathers, multiplies and row sums: no matmul,
        # dot or einsum, so its bits do not depend on the BLAS kernel
        def refuse(*args, **kwargs):
            raise AssertionError("BLAS call in Lambda_n")

        g = make_grid(2, 6)
        mult = IMultiplier(s=-0.5, N=2.0)
        rng = np.random.default_rng(65)
        for name in ("matmul", "dot", "einsum"):
            monkeypatch.setattr(np, name, refuse)
        for form in lab_forms(g, mult):
            for stacks in slot_patterns(g, form.n, 2, rng).values():
                _lambda_with_scale(form, g, stacks)

    def test_same_bits_in_every_stack(self, monkeypatch):
        # at K=16 the 6340 orbits of Gamma_5 are one piece, taken 2 samples a
        # pass, so stacks of 1 and 2 split the passes of the 35 differently
        g = make_grid(2, 16)
        rng = np.random.default_rng(62)
        c = np.array([random_smooth_field(g, rng, 0.5).coeffs for _ in range(35)])
        form = big_m5(IMultiplier(s=-0.5, N=4.0), g, 16)
        value, scale = _lambda_with_scale(form, g, [c] * 5)
        for size in (1, 2):
            for s in range(0, 35 - size + 1, 3):
                part = c[s : s + size].copy()
                v, sc = _lambda_with_scale(form, g, [part] * 5)
                assert v.tobytes() == value[s : s + size].tobytes()
                assert sc.tobytes() == scale[s : s + size].tobytes()
        # pieces three times as large leave the one piece as it is, taken
        # 3 samples a pass
        monkeypatch.setattr(resonance, "PIECE_TUPLES", 3 * 6340)
        v, sc = _lambda_with_scale(form, g, [c] * 5)
        assert v.tobytes() == value.tobytes() and sc.tobytes() == scale.tobytes()

    def test_each_orbit_weighed_once_in_passes(self, monkeypatch):
        # the 472 orbits of Gamma_5 at K=8 in pieces of 400 and 72, taken 1
        # and 5 samples a pass, so 10 samples take 10 and 2 passes, and
        # still each piece is weighed once at its representatives, one per
        # orbit (and once at each of two permutations of them); each sample
        # alone, one pass a piece, has the same bits
        g = make_grid(2, 8)
        form, records = weighed(big_m5(IMultiplier(s=-0.5, N=2.0), g, 8))
        stacks = slot_stacks(g, 5, 10, 64)
        monkeypatch.setattr(resonance, "PIECE_TUPLES", 400)
        alone = [_lambda_with_scale(form, g, [c[s : s + 1] for c in stacks]) for s in range(10)]
        records.clear()
        whole = _lambda_with_scale(form, g, stacks)
        assert_same_bits(whole, [np.concatenate(part) for part in zip(*alone)], "passes")
        got = np.sort(np.concatenate(records[::3], axis=1).T, axis=1)
        ref = np.unique(np.sort(np.stack(hyperplane(5, 8), axis=1), axis=1), axis=0)
        assert len(records) == 3 * -(-len(ref) // 400)
        assert len(got) == len(ref) and np.array_equal(np.unique(got, axis=0), ref)

    def test_energies_of_a_stack_are_the_per_sample_energies(self):
        g = make_grid(2, 8, 1.4)
        rng = np.random.default_rng(63)
        c = np.array([random_smooth_field(g, rng, 0.3, norm_value=3.0).coeffs for _ in range(5)])
        mult = IMultiplier(s=-0.5, N=2.0)
        sigmas = imethod._hierarchy(mult, g, 4, 8)[0]
        stack = _modified_energies(g, c, mult, sigmas)
        assert stack.shape == (3, len(c))
        for order, row in zip((2, 3, 4), stack):
            expected = [modified_energy(FourierField(g, u), mult, order) for u in c]
            assert row.tobytes() == np.array(expected).tobytes()
        # a lower order's stack is the head of the order-4 one, bit for bit
        for order in (2, 3):
            got = _modified_energies(g, c, mult, sigmas[: order - 2])
            assert got.tobytes() == stack[: order - 1].tobytes()

    def test_stack_shapes_checked(self):
        g = make_grid(1, 6)
        c = np.zeros((2, 6), dtype=complex)
        with pytest.raises(ValueError, match="shape"):
            _lambda_with_scale(constant_form(3), g, [c, c, c[:1]])


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
        idx = hyperplane(3, 24)
        a = closed.weight(*idx)
        b = imethod._cascade(3, mult, g, None)[3](idx)[0]
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
        form = sigma(IMultiplier(s=-0.5, N=8.0), g, 3, None)
        idx = hyperplane(3, 8)
        assert np.all(form.weight(*idx) == 0.0)

    def test_pinned_value(self):
        # -M3/alpha3 at (32,-16,-16), j=2: (16i/3) / (i * 31457280)
        g = make_grid(2, 32)
        form = sigma(IMultiplier(s=-0.5, N=16.0), g, 3, None)
        value = form.weight(np.array([32]), np.array([-16]), np.array([-16]))[0]
        assert value.real == pytest.approx(16.0 / (3 * 31457280), rel=1e-13)
        assert value.imag == 0.0

    def test_symmetric_and_even(self):
        g = make_grid(1, 16)
        form = sigma(IMultiplier(s=-1.0, N=3.0), g, 3, None)
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
        idx4 = hyperplane(4, 6)
        assert np.all(big_m(wide, g, 4, None).weight(*idx4) == 0.0)
        assert np.all(sigma(wide, g, 4, None).weight(*idx4) == 0.0)
        idx5 = hyperplane(5, 6)
        assert np.all(big_m5(wide, g).weight(*idx5) == 0.0)

        grid_mult = IMultiplier(s=-0.5, N=6.0)
        assert np.all(big_m(grid_mult, g, 4, 6).weight(*idx4) == 0.0)
        assert np.all(sigma(grid_mult, g, 4, 6).weight(*idx4) == 0.0)
        assert np.all(big_m5(grid_mult, g, lattice_cutoff=6).weight(*idx5) == 0.0)

    def test_resonant_tuples_vanish(self):
        g = make_grid(2, 16)
        mult = IMultiplier(s=-0.5, N=4.0)
        idx = hyperplane(4, 16)
        p4 = _pn_int(idx, g.j)
        resonant = p4 == 0
        assert np.any(resonant)
        m4, scale = imethod._cascade(4, mult, g, None)[4](idx)
        ratio = np.abs(m4[resonant]) / np.maximum(scale[resonant], 1e-300)
        assert float(np.max(ratio)) <= 1e-10

    def test_low_tuples_vanish(self):
        g = make_grid(2, 16)
        form = big_m(IMultiplier(s=-0.5, N=40.0), g, 4, None)
        i1 = np.array([1, 2])
        i2 = np.array([1, -1])
        i3 = np.array([-1, 2])
        i4 = -(i1 + i2 + i3)
        assert np.all(np.abs(form.weight(i1, i2, i3, i4)) < 1e-15)

    def test_m4_odd_sigma4_even(self):
        g = make_grid(2, 12)
        mult = IMultiplier(s=-0.5, N=3.0)
        m4 = big_m(mult, g, 4, None)
        s4 = sigma(mult, g, 4, None)
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


def recorded_builds(monkeypatch):
    """(arity, bound, cutoff) of each pair-term table imethod builds, as it happens."""
    builds = []
    true_pair_terms = imethod._pair_terms

    def counted(n, mult, grid, B, cutoff, step):
        builds.append((n, B, cutoff))
        return true_pair_terms(n, mult, grid, B, cutoff, step)

    monkeypatch.setattr(imethod, "_pair_terms", counted)
    return builds


class TestCascadeStep:
    @pytest.mark.parametrize("shape", ["clipped_power", "smooth_log"])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_bit_identical_to_per_lane_cascade(self, j, mu, shape):
        K = 6
        g = make_grid(j, K, mu)
        mult = IMultiplier(s=-1.0, N=2.0 / mu, shape=shape)
        idx4 = hyperplane(4, K)
        idx5 = hyperplane(5, K)
        all4 = np.ones(idx4[0].shape, dtype=bool)
        for cutoff in (None, K, K - 2):
            m4, scale = imethod._cascade(4, mult, g, cutoff)[4](idx4)
            ref_m4, ref_scale = _ref_m4(mult, g, idx4, all4, cutoff)
            assert np.array_equal(m4, ref_m4) and np.array_equal(scale, ref_scale)
            assert np.array_equal(big_m(mult, g, 4, cutoff).weight(*idx4), ref_m4)
            assert np.array_equal(
                sigma(mult, g, 4, cutoff).weight(*idx4), _ref_sigma4(mult, g, idx4, all4, cutoff)
            )
            assert np.array_equal(
                big_m5(mult, g, cutoff).weight(*idx5), _ref_m5(mult, g, idx5, cutoff)
            )

    @pytest.mark.parametrize("n, K, cutoff", [(3, 6, None), (4, 6, None), (4, 6, 4), (5, 8, 8)])
    def test_flat_read_is_the_indexed_read(self, n, K, cutoff):
        # the cascade step reads each pair term through one flat index of its
        # pair-term table; sigma_(n-1) scattered from the whole lattice at
        # once, indexed with the rest columns, gives the same bits
        g = make_grid(2, K)
        mult = IMultiplier(s=-0.5, N=2.0)
        idx = hyperplane(n, K)
        m, scale = imethod._cascade(n, mult, g, cutoff)[n](idx)
        E = int(np.max(np.abs(idx[0])))
        B = 2 * E if cutoff is None else max(E, min(2 * E, cutoff))
        lattice = hyperplane(n - 1, B)
        if cutoff is not None:
            keep = np.abs(lattice[-1]) <= cutoff
            lattice = tuple(a[keep] for a in lattice)
        step = imethod._cascade(n, mult, g, cutoff).get(n - 1)
        values = imethod._sigma_values(n - 1, mult, g, lattice, step)
        table = np.zeros((2 * B + 1,) * (n - 2), dtype=values.dtype)
        table[tuple(a + B for a in lattice[:-1])] = values
        acc = np.zeros(idx[0].shape, dtype=table.dtype)
        ref_scale = np.zeros(idx[0].shape)
        for a, b in combinations(range(n), 2):
            rest = tuple(idx[x] + B for x in range(n) if x not in (a, b))
            term = table[rest] * ((idx[a] + idx[b]) / g.mu)
            acc = acc + term
            ref_scale = np.maximum(ref_scale, np.abs(term))
        assert ((-1j / n) * acc).tobytes() == m.tobytes()
        assert ref_scale.tobytes() == scale.tobytes()

    @pytest.mark.parametrize("cutoff", [None, 4])
    def test_same_bits_in_every_slice(self, monkeypatch, cutoff):
        # the pair loop and the pair-term tables run over pieces of
        # PIECE_TUPLES tuples; one tuple per piece, 7, and one piece for all
        # give M4, M5 and their scales bit for bit, and each step builds
        # each table it reads once, bottom up (without a cutoff M5 reads
        # sigma4 on a wider lattice, and sigma4 sigma3 on a wider one still)
        g = make_grid(2, 4, 1.4)
        mult = IMultiplier(s=-0.6, N=1.5)
        idx = {n: hyperplane(n, 4) for n in (4, 5)}
        bounds = {4: [(3, 8)], 5: [(3, 16), (4, 8)]} if cutoff is None else {
            4: [(3, 4)], 5: [(3, 4), (4, 4)]}
        builds = recorded_builds(monkeypatch)
        results = []
        for size in (idx[5][0].size + 1, 1, 7):
            monkeypatch.setattr(resonance, "PIECE_TUPLES", size)
            got = []
            for n in (4, 5):
                builds.clear()
                got += [part.tobytes() for part in imethod._cascade(n, mult, g, cutoff)[n](idx[n])]
                assert builds == [(m, B, cutoff) for m, B in bounds[n]]
            results.append(got)
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("piece", [1, 7, None])
    @pytest.mark.parametrize("cutoff", [None, 4])
    def test_one_pair_term_table_per_sigma_table(self, monkeypatch, cutoff, piece):
        # M3sym, M4 and M5, twice, with pieces of 1 and 7 tuples and one
        # piece for all (None): sigma_n has one table, its pair-term table;
        # each step builds the one it reads once, at the bound the lattice
        # and the cutoff give, and M5's sigma3's once, bottom up, before
        # sigma4's, which it builds through
        g = make_grid(2, 4, 1.4)
        mult = IMultiplier(s=-0.6, N=1.5)
        idx = {n: hyperplane(n, 4) for n in (3, 4, 5)}
        monkeypatch.setattr(resonance, "PIECE_TUPLES", piece or idx[5][0].size + 1)
        bounds = {3: [(2, 8)], 4: [(3, 8)], 5: [(3, 16), (4, 8)]} if cutoff is None else {
            3: [(2, 4)], 4: [(3, 4)], 5: [(3, 4), (4, 4)]}
        builds = recorded_builds(monkeypatch)
        for _ in range(2):
            for n in (3, 4, 5):
                builds.clear()
                imethod._cascade(n, mult, g, cutoff)[n](idx[n])
                assert builds == [(m, B, cutoff) for m, B in bounds[n]]

    def test_one_hierarchy_per_run(self, monkeypatch, tmp_path):
        # a run builds one hierarchy per multiplier, and so each pair-term
        # table of it once: the drift oracle none at order 2, sigma3's at
        # order 3, and sigma3's and sigma4's at order 4; energies sigma3's
        # and sigma4's; almost-cons sigma3's for each N
        builds = recorded_builds(monkeypatch)
        g = make_grid(3, 16)
        traj = integrate(smooth_field(g, 7), FlowSpec(grid=g, dt=1e-7, T=2e-7))
        for order, tables in ((2, []), (3, [(3, 16, 16)]), (4, [(3, 16, 16), (4, 16, 16)])):
            builds.clear()
            drift_oracle(traj, IMultiplier(s=-1.5, N=4.0), order)
            assert builds == tables, order
        builds.clear()
        argv = ["energies", "--j", "2", "--K", "8", "--s", "-0.5", "--N", "4",
                "--dt", "1e-3", "--T", "0.01", "--samples", "2", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert builds == [(3, 8, 8), (4, 8, 8)]
        builds.clear()
        cfg = ExperimentConfig(j=2, K=8, s=-0.5, N_list=(1, 2, 4), dt=1e-3, T=0.01, samples=2)
        almost_conservation_sweep(cfg)
        assert builds == [(3, 8, 8)] * 3

    def test_no_table_outlives_its_form(self):
        # Lambda_5(M5) at K=16 reads sigma4's pair-term table (574,992 bytes),
        # built with sigma3's; once the form is dropped, or the hierarchy to
        # M5, whose sigma4, sigma5 and M5 hold them, neither is held
        g = make_grid(2, 16)
        u = smooth_field(g, 4)
        mult = IMultiplier(s=-0.5, N=4.0)
        runs = (
            lambda: lambda_n(big_m5(mult, g, lattice_cutoff=16), [u] * 5),
            lambda: imethod._hierarchy(mult, g, 5, 16),
        )
        for i, run in enumerate(runs):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run()
                held = tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()
            assert held < 16 * 2**10, i

    def test_pair_terms_refuse_an_oversize_table_before_allocating(self):
        # the sigma4 pair-term table at bound 203 would take 16 * 407^3 bytes,
        # just over 1 GiB, and at bound 204, M5's in the continuum at K=102,
        # more: refused when M5's form is made, before the chain builds its
        # lowest table, sigma3's (1.3 MB at bound 203, 5.3 MB at 408)
        mult = IMultiplier(s=-0.5, N=2.0)
        calls = {
            "K=203 needs a Gamma_4 table of 1078706288": lambda: big_m5(
                mult, make_grid(2, 203), lattice_cutoff=203),
            "K=102 needs a Gamma_4 table of 1094686864": lambda: big_m5(
                mult, make_grid(2, 102)),
        }
        for match, call in calls.items():
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=match):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, match

    def test_odd_multiplier_breaks_the_resonant_set_check(self, monkeypatch):
        # an m that is not even: M4 no longer cancels on the resonant tuples
        # (a, -a, b, -b), so sigma4, and M5 through its sigma4 table, refuse
        true_m = imethod._m_array
        monkeypatch.setattr(
            imethod, "_m_array", lambda mult, k: true_m(mult, k) * (1.0 + 0.25 * (k > 0))
        )
        g = make_grid(2, 6)
        mult = IMultiplier(s=-0.5, N=2.0)
        with pytest.raises(ArithmeticError, match="M4 does not vanish on a resonant tuple"):
            sigma(mult, g, 4, 6).weight(*hyperplane(4, 6))
        with pytest.raises(ArithmeticError, match="M4 does not vanish on a resonant tuple"):
            big_m5(mult, g, 6)


def slot_stacks(grid, n, samples, seed):
    """One stack of smooth coefficient rows per slot, each slot its own fields."""
    rng = np.random.default_rng(seed)
    return [
        np.array([random_smooth_field(grid, rng, 0.5).coeffs for _ in range(samples)])
        for _ in range(n)
    ]


def assert_same_bits(got, ref, what):
    assert got[0].tobytes() == ref[0].tobytes(), what
    assert got[1].tobytes() == ref[1].tobytes(), what


def weighed(form):
    """The form with its weight wrapped to record each index tuple it is
    given; returns (form, records), one (n, count) array per call."""
    records = []

    def w(*idx):
        records.append(np.stack(idx))
        return form.weight(*idx)

    return MultilinearForm(form.n, w, form.tag), records


def orbit_pieces(n, K):
    """(representatives as rows, multiplicities, rows per piece, orbits per
    piece) of the orbit walk."""
    pieces = [np.stack(t, axis=1) for t, _ in resonance._orbit_chunks(n, K)]
    reps = np.concatenate(pieces or [np.zeros((0, n), int)])
    mult = np.concatenate([m for _, m in resonance._orbit_chunks(n, K)] or [np.zeros(0, int)])
    orbits = [len(np.unique(np.sort(p, axis=1), axis=0)) for p in pieces]
    return reps, mult, [len(p) for p in pieces], orbits


class TestWeightTable:
    """The weights W: no table of them is held. Lambda_n walks the
    permutation orbits of Gamma_n, once each, at their sorted
    representatives, and weighs and contracts each piece of them before it
    forms the next."""

    @pytest.mark.parametrize("K", [1, 2, 3, 6, 9])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orbit_walk_counts_gamma_n(self, monkeypatch, n, K):
        # in pieces of 7 orbits and in one piece: the multiplicities count
        # Gamma_n; each orbit is written once, sorted, or in descending order
        # as the negation of its negation's representative, or, when it is its
        # own negation, both ways with half its size each; their
        # permutations are Gamma_n; and the weight is read at the
        # representatives (then at a transposition and, from n = 3, a
        # cyclic shift of them), a piece a call
        lattice = np.stack(hyperplane(n, K), axis=1)
        for piece in (7, 2**40):
            monkeypatch.setattr(resonance, "PIECE_TUPLES", piece)
            reps, mult, sizes, orbits = orbit_pieces(n, K)
            assert mult.sum() == len(lattice)
            assert all(count == piece for count in orbits[:-1])
            rows = {tuple(row) for row in reps.tolist()}
            assert len(rows) == len(reps)
            for row, m in zip(reps.tolist(), mult):
                up, own = sorted(row), sorted(-a for a in row) == sorted(row)
                assert row == up or (row == up[::-1] and tuple(-a for a in row) in rows)
                assert m * (2 if own else 1) == len(set(permutations(row)))
            perms = np.concatenate([reps[:, p] for p in permutations(range(n))])
            assert np.array_equal(np.unique(perms, axis=0), np.unique(lattice, axis=0))
            form, records = weighed(constant_form(n))
            _lambda_with_scale(form, make_grid(1, K), [np.ones((1, K), dtype=complex)] * n)
            got = [r.T for r in records[:: 2 if n == 2 else 3]]
            assert np.array_equal(np.concatenate(got or [np.zeros((0, n), int)]), reps)
            assert [len(r) for r in got] == sizes

    def test_gamma3_at_1_is_empty(self):
        # three entries of +-1 never sum to 0: no orbit, and Lambda_3 is exactly 0
        g = make_grid(1, 1)
        assert orbit_pieces(3, 1)[2] == []
        value, scale = _lambda_with_scale(constant_form(3), g, [np.ones((2, 1), complex)] * 3)
        assert value.tobytes() == np.zeros(2, complex).tobytes() and np.all(scale == 0.0)

    @pytest.mark.parametrize("n, K", [(3, 6), (4, 6), (5, 8)])
    def test_pieces_do_not_depend_on_the_stack(self, monkeypatch, n, K):
        # the weight calls, and so the pieces, are the same for 1 sample and 7
        g = make_grid(2, K)
        mult = IMultiplier(s=-0.5, N=2.0)
        sigmas, m5 = imethod._hierarchy(mult, g, n, K)
        form, records = weighed(m5 if n == 5 else sigmas[-1])
        monkeypatch.setattr(resonance, "PIECE_TUPLES", 7)
        calls = []
        for samples in (1, 7):
            records.clear()
            _lambda_with_scale(form, g, slot_stacks(g, n, samples, 75))
            calls.append([r.tobytes() for r in records])
        assert len(calls[0]) > 3 and calls[0] == calls[1]

    @pytest.mark.parametrize("mu", [1.0, 1.5])
    @pytest.mark.parametrize("shape", ["clipped_power", "smooth_log"])
    @pytest.mark.parametrize("K", [3, 6])
    def test_walk_equals_the_tuple_sum(self, monkeypatch, K, shape, mu):
        # the tuple sum weighs the whole lattice at once; the walk, in pieces
        # of one orbit, of 7 orbits and in one piece, agrees with it. Each
        # form is made again at each piece size, so its pair-term tables are
        # filled in those pieces too.
        g = make_grid(2, K, mu)
        mult = IMultiplier(s=-0.7, N=1.0, shape=shape)
        for make in lab_makers(g, mult):
            monkeypatch.undo()
            form = make()
            stacks = slot_stacks(g, form.n, 3, 71)
            ref = tuple_sum(form, g, stacks)
            for piece in (1, 7, 2**40):
                monkeypatch.setattr(resonance, "PIECE_TUPLES", piece)
                assert_near(_lambda_with_scale(make(), g, stacks), ref, (form.tag, piece))

    def test_quintic_orbits_at_16(self):
        g = make_grid(2, 16)
        form = big_m5(IMultiplier(s=-0.5, N=4.0), g, 16)
        stacks = [slot_stacks(g, 1, 33, 72)[0]] * 5
        assert_near(_lambda_with_scale(form, g, stacks), tuple_sum(form, g, stacks), "M5")

    @pytest.mark.parametrize("piece", [1, 7, None])
    def test_one_sigma_table_at_every_piece_size(self, monkeypatch, piece):
        # a piece of one orbit, of 7 orbits, and one piece for all (None):
        # every value is near the tuple sum, and each form builds each
        # pair-term table it reads, keyed by its arity and bound, once, when
        # it is made, bottom up. Each side rounds a term's modulus through
        # n + 1 products (of complex factors in the tuple sum, of moduli in
        # the walk), so the scales drift apart with n: Lambda_6(M6)'s were
        # measured 18.2 eps apart, and are held to 32 eps. A piece of one
        # tuple costs some 250 us, and the continuum top-6 chain fills its
        # tables from Gamma_3 at 8K up (9 s at K=4), so in pieces of one the
        # forms take K=3, and that chain K=2, where M6 is nonzero on 284 of
        # Gamma_6's 430 tuples
        K, K6 = (3, 2) if piece == 1 else (4, 4)
        g, g6 = make_grid(2, K, 1.5), make_grid(2, K6, 1.5)
        mult = IMultiplier(s=-0.6, N=1.0)
        cases = [
            (g, partial(big_m, mult, g, 4, K), [(3, K)]),
            (g, partial(big_m, mult, g, 4, None), [(3, 2 * K)]),
            (g, partial(sigma, mult, g, 4, K), [(3, K)]),
            (g, partial(sigma, mult, g, 4, None), [(3, 2 * K)]),
            (g, partial(big_m, mult, g, 5, K), [(3, K), (4, K)]),
            (g, partial(big_m, mult, g, 5, None), [(3, 4 * K), (4, 2 * K)]),
            (g, partial(big_m, mult, g, 6, K), [(3, K), (4, K), (5, K)]),
            (g6, partial(big_m, mult, g6, 6, None), [(3, 8 * K6), (4, 4 * K6), (5, 2 * K6)]),
        ]
        stacks = {(grid.K, n): slot_stacks(grid, n, 2, 73) for grid in (g, g6) for n in (4, 5, 6)}
        forms = [make() for _, make, _ in cases]
        refs = [tuple_sum(f, grid, stacks[grid.K, f.n]) for (grid, _, _), f in zip(cases, forms)]
        monkeypatch.setattr(resonance, "PIECE_TUPLES", piece or 2**40)
        builds = recorded_builds(monkeypatch)
        for (grid, make, tables), ref in zip(cases, refs):
            builds.clear()
            form = make()
            got = _lambda_with_scale(form, grid, stacks[grid.K, form.n])
            assert_near(got, ref, form.tag, 32 if form.n == 6 else 8)
            assert [(n, B) for n, B, _ in builds] == tables, form.tag

    @staticmethod
    def quintic_peak(K):
        """(tracemalloc peak, bytes held after) of a cold Lambda_5(M5) on 33
        samples; the form, made before, holds the sigma4 pair-term table."""
        g = make_grid(2, K)
        form = big_m5(IMultiplier(s=-0.5, N=4.0), g, K)
        stacks = [slot_stacks(g, 1, 33, 74)[0]] * 5
        tracemalloc.start()
        try:
            _lambda_with_scale(form, g, stacks)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, held

    def test_quintic_peak_at_16(self):
        # the dense block walk peaked at 2.4 MiB; the orbit walk at 1.3 MiB
        peak, held = self.quintic_peak(16)
        assert peak <= 2.4 * 2**20 and held < 2**16

    def test_quintic_peak_at_32(self):
        # the dense block walk peaked at 8.2 MiB; the orbit walk at 4.8 MiB
        peak, held = self.quintic_peak(32)
        assert peak <= 8.2 * 2**20 and held < 2**16

    def test_entries_beyond_the_lattice_bound_refused(self):
        g = make_grid(2, 6)
        idx = hyperplane(4, 8)
        with pytest.raises(ValueError, match="beyond the lattice bound 6"):
            big_m(IMultiplier(s=-0.5, N=2.0), g, 4, 6).weight(*idx)


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

    @pytest.mark.parametrize("order", [1, 5])
    def test_rate_order_validation(self, order):
        # order 1 must be refused, not run as order 2: below top 3 the
        # hierarchy is top 3's
        traj = short_trajectory(1, 1.0, seed=1)
        with pytest.raises(ValueError, match=f"order must be 2, 3 or 4, got {order}"):
            drift_oracle(traj, IMultiplier(s=-0.5, N=2.0), order)

    def test_order_refused_before_any_work(self, monkeypatch):
        # the order is checked before the samples' RHS is formed or run
        traj = short_trajectory(1, 1.0, seed=1)

        def refuse(*args):
            raise AssertionError("the RHS was formed before the order was checked")

        monkeypatch.setattr(imethod, "_rhs_function", refuse)
        with pytest.raises(ValueError, match="order must be 2, 3 or 4, got 5"):
            drift_oracle(traj, IMultiplier(s=-0.5, N=2.0), 5)

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

    def test_refuses_per_member_thresholds(self):
        g = make_grid(2, 6)
        us = [smooth_field(g, 11), smooth_field(g, 12)]
        spec = FlowSpec(grid=g, dt=1e-3, T=5e-3, flavor="truncated", N=(g.band, g.band))
        with pytest.raises(ValueError, match="single-field trajectory, got N="):
            drift_oracle(integrate(us, spec), IMultiplier(s=-0.5, N=2.0), 2)

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
        corrections = imethod._hierarchy(mult, g, order + 1, g.K)[0][:-1]
        expected = [
            _energy_rates(
                g,
                u.coeffs[None],
                (nonlinear_rhs(u, spec.flavor, spec.N) if spec.nonlinear
                 else FourierField.zero(g)).coeffs[None],
                mult,
                corrections,
            )[0][0]
            for u in traj.fields
        ]
        exact = drift_oracle(traj, mult, order).exact
        assert exact.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_misscaled_multiplier_flagged(self, monkeypatch, order):
        # 1.5 M in place of M: the exact series stays at d/dt E^n, so the
        # discrepancy is |1 - 1.5| / 1.5 = 1/3 of the reference
        true_hierarchy = imethod._hierarchy

        def misscaled(mult, grid, top, cutoff):
            sigmas, form = true_hierarchy(mult, grid, top, cutoff)
            return sigmas, MultilinearForm(
                form.n, lambda *idx: 1.5 * form.weight(*idx), tag=f"1.5{form.tag}"
            )

        monkeypatch.setattr(imethod, "_hierarchy", misscaled)
        traj = short_trajectory(2, 1.0, seed=21)
        rep = drift_oracle(traj, IMultiplier(s=-0.5, N=2.0), order)
        assert rep.exact_max_rel_discrepancy == pytest.approx(1.0 / 3.0, rel=1e-3)
