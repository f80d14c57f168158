"""Multiplier, multilinear forms, modified energies and drift identities.

The correction-multiplier cascade is validated against its defining
property: the time derivative of each modified energy along a trajectory
must match the next Lambda form. The drift oracle takes that derivative
two ways, as a centered difference along a finely-stepped trajectory and
exactly, by polarization along the Galerkin vector field; the exact
series holds to round-off at any step. Both pin every constant (in
particular the 1/n! in the symmetrizations).
"""

import tracemalloc
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
from kdvlab.imethod import (
    _energy_rates,
    _lambda_with_scale,
    _m_values,
    _modified_energies,
)
from kdvlab.resonance import _hyperplane_tuples, _pn_int
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

    def test_table_byte_bound(self):
        # a table over Gamma_n at K takes at most 16 (2K+1)^(n-1) bytes; under
        # 1 GiB the M5 table fits up to K=44, sigma4's to 202 and sigma3's to 4095
        for n, K in ((5, 44), (4, 202), (3, 4095)):
            imethod._check_table(n, K)
            with pytest.raises(ValueError, match=f"K={K + 1} needs a Gamma_{n} table"):
                imethod._check_table(n, K + 1)
        # refused before its block layout or weight table is built
        g = make_grid(1, 45)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="K=45 needs a Gamma_5 table of 1097199376"):
                lambda_n(constant_form(5), [harmonic(g, 1)] * 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and not imethod._CACHE


def tuple_sum(form, grid, coeffs):
    """The per-tuple reference: (sum, sum of |terms|) over Gamma_n of
    w(k) prod_i u_i(k_i), u_i the field of coefficients coeffs[i]."""
    idx = _hyperplane_tuples(form.n, grid.K)
    terms = form.weight(*idx)
    for a, c in zip(idx, coeffs):
        table = np.concatenate([np.conj(c[::-1]), [0.0], c])
        terms = terms * table[a + grid.K]
    norm = (2.0 * np.pi * grid.mu) ** (1 - form.n)
    return norm * np.sum(terms), norm * np.sum(np.abs(terms))


def skew_form(n):
    """An uncached complex weight that tells every slot apart."""

    def w(*idx):
        phase = sum((i + 1) * a for i, a in enumerate(idx))
        return np.exp(0.3j * phase) / (1.0 + sum(a * a for a in idx[:-1]))

    return MultilinearForm(n, w)


def evaluator_forms(grid):
    mult = IMultiplier(s=-0.7, N=1.5 / grid.mu)
    K = grid.K
    return [
        skew_form(2), skew_form(3), big_m3(mult, grid), sigma3(mult, grid), skew_form(4),
        big_m4(mult, grid, K), sigma4(mult, grid, K), skew_form(5), big_m5(mult, grid, K),
    ]


class TestStackedEvaluator:
    """_lambda_with_scale, the one Lambda_n evaluator, against the per-tuple sum.

    Each slot reads its own field (the polarized case), so a slot or a
    conjugate out of place shows. The worst measured errors are 1.4 eps x
    scale for the value and 2 eps relative for the scale; both bounds are
    8 eps.
    """

    @pytest.mark.parametrize("mu", [1.0, 1.4])
    def test_matches_the_tuple_sum(self, mu):
        g = make_grid(2, 6, mu)
        rng = np.random.default_rng(61)
        eps = np.finfo(float).eps
        for form in evaluator_forms(g):
            stacks = [
                np.array([random_smooth_field(g, rng, 0.4).coeffs for _ in range(3)])
                for _ in range(form.n)
            ]
            value, scale = _lambda_with_scale(form, g, stacks)
            assert value.shape == scale.shape == (3,)
            for s in range(3):
                ref, ref_scale = tuple_sum(form, g, [c[s] for c in stacks])
                assert ref_scale > 0.0
                assert abs(value[s] - ref) <= 8 * eps * ref_scale, form.tag
                assert scale[s] == pytest.approx(ref_scale, rel=8 * eps), form.tag

    def test_same_bits_in_every_stack(self, monkeypatch):
        # at K=16 the quintic contraction's temporaries are large enough that
        # numpy computes a * b in place in b, with the operands swapped
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
        # 2178 head and rest entries: chunks of 4 samples
        monkeypatch.setattr(imethod, "STACK_BYTES", 4 * 32 * 2178)
        v, sc = _lambda_with_scale(form, g, [c] * 5)
        assert v.tobytes() == value.tobytes() and sc.tobytes() == scale.tobytes()

    def test_each_tuple_weighed_once_in_chunks(self, monkeypatch):
        # 578 head and rest entries at K=8: chunks of 4 samples, so 10
        # samples take 3 chunks, and still every tuple of Gamma_5 is
        # weighed once in the call
        g = make_grid(2, 8)
        form, records = weighed(big_m5(IMultiplier(s=-0.5, N=2.0), g, 8))
        stacks = slot_stacks(g, 5, 10, 64)
        whole = _lambda_with_scale(form, g, stacks)
        records.clear()
        monkeypatch.setattr(imethod, "STACK_BYTES", 4 * 32 * 578)
        assert_same_bits(_lambda_with_scale(form, g, stacks), whole, "chunks")
        got = np.concatenate(records, axis=1).T
        ref = np.stack(_hyperplane_tuples(5, 8), axis=1)
        assert len(records) > 1 and got.shape == ref.shape
        assert np.array_equal(got[np.lexsort(got.T)], ref[np.lexsort(ref.T)])

    def test_energies_of_a_stack_are_the_per_sample_energies(self):
        g = make_grid(2, 8, 1.4)
        rng = np.random.default_rng(63)
        c = np.array([random_smooth_field(g, rng, 0.3, norm_value=3.0).coeffs for _ in range(5)])
        mult = IMultiplier(s=-0.5, N=2.0)
        stack = _modified_energies(g, c, mult, 4)
        assert stack.shape == (3, len(c))
        for order, row in zip((2, 3, 4), stack):
            expected = [modified_energy(FourierField(g, u), mult, order) for u in c]
            assert row.tobytes() == np.array(expected).tobytes()
        # a lower order's stack is the head of the order-4 one, bit for bit
        for order in (2, 3):
            assert _modified_energies(g, c, mult, order).tobytes() == stack[: order - 1].tobytes()

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


def recorded_builds(monkeypatch):
    """The keys under which imethod builds a table (a cache miss), as they happen."""
    builds = []
    true_cached = imethod._cached
    monkeypatch.setattr(
        imethod, "_cached", lambda key, build: true_cached(key, lambda: builds.append(key) or build())
    )
    return builds


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

    @pytest.mark.parametrize("n, K, cutoff", [(3, 6, None), (4, 6, None), (4, 6, 4), (5, 8, 8)])
    def test_flat_read_is_the_indexed_read(self, n, K, cutoff):
        # _m_values reads each pair term through one flat index of its
        # pair-term table; sigma_(n-1) scattered from the whole lattice at
        # once, indexed with the rest columns, gives the same bits
        g = make_grid(2, K)
        mult = IMultiplier(s=-0.5, N=2.0)
        idx = _hyperplane_tuples(n, K)
        m, scale = _m_values(n, mult, g, idx, cutoff)
        E = int(np.max(np.abs(idx[0])))
        B = 2 * E if cutoff is None else max(E, min(2 * E, cutoff))
        lattice = _hyperplane_tuples(n - 1, B)
        if cutoff is not None:
            keep = np.abs(lattice[-1]) <= cutoff
            lattice = tuple(a[keep] for a in lattice)
        values = imethod._sigma_values(n - 1, mult, g, lattice, cutoff, B)
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
        # give M4, M5 and their scales bit for bit, and each pair-term table
        # is still built once (without a cutoff M5 reads sigma4 on a wider
        # lattice, so two sigma3 tables)
        g = make_grid(2, 4, 1.4)
        mult = IMultiplier(s=-0.6, N=1.5)
        idx = {n: _hyperplane_tuples(n, 4) for n in (4, 5)}
        builds = recorded_builds(monkeypatch)
        results = []
        for size in (idx[5][0].size + 1, 1, 7):
            monkeypatch.setattr(resonance, "PIECE_TUPLES", size)
            imethod._CACHE.clear()
            builds.clear()
            got = [part.tobytes() for n in (4, 5) for part in _m_values(n, mult, g, idx[n], cutoff)]
            # one build per table: as many as the cache holds
            assert {key[1] for key in builds} == {3, 4}
            assert sorted(builds, key=repr) == sorted(imethod._CACHE, key=repr)
            results.append(got)
        imethod._CACHE.clear()
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("piece", [1, 7, None])
    @pytest.mark.parametrize("cutoff", [None, 4])
    def test_one_pair_term_table_per_sigma_table(self, monkeypatch, cutoff, piece):
        # M3sym, M4 and M5, twice, with pieces of 1 and 7 tuples and one
        # piece for all (None): sigma_n has one table, its pair-term table,
        # built once per (n, mult, j, mu, B, cutoff) at the bounds the
        # lattice and the cutoff give (M5 reads sigma3 through sigma4)
        g = make_grid(2, 4, 1.4)
        mult = IMultiplier(s=-0.6, N=1.5)
        idx = {n: _hyperplane_tuples(n, 4) for n in (3, 4, 5)}
        monkeypatch.setattr(resonance, "PIECE_TUPLES", piece or idx[5][0].size + 1)
        builds = recorded_builds(monkeypatch)
        imethod._CACHE.clear()
        try:
            for _ in range(2):
                for n in (3, 4, 5):
                    _m_values(n, mult, g, idx[n], cutoff)
        finally:
            imethod._CACHE.clear()
        assert all(key[0] == "pairs" for key in builds)
        pairs = [key[1:] for key in builds]
        assert len(set(pairs)) == len(pairs)
        assert all(key[1:4] == (mult, 2, 1.4) and key[5] == cutoff for key in pairs)
        bounds = {(2, 8), (3, 8), (4, 8), (3, 16)} if cutoff is None else {(2, 4), (3, 4), (4, 4)}
        assert {(key[0], key[4]) for key in pairs} == bounds

    def test_cache_holds_imethod_tables_only(self, monkeypatch):
        # the energy hierarchy, the drift oracle with its quintic M5 at
        # K=16, M3sym and the continuum M4 and sigma4 read no whole lattice,
        # and the cache holds block layouts and pair-term tables only: no
        # weights
        def refuse(n, K):
            raise AssertionError(f"whole Gamma_{n} read at K={K}")

        monkeypatch.setattr(resonance, "_hyperplane_tuples", refuse)
        g = make_grid(2, 16)
        mult = IMultiplier(s=-0.5, N=4.0)
        u = smooth_field(g, 4)
        traj = integrate(u, FlowSpec(grid=g, dt=1e-4, T=3e-4))
        imethod._CACHE.clear()
        try:
            _modified_energies(g, traj.coeffs, mult, 4)
            drift_oracle(traj, mult, 4)
            for form in (big_m3_symmetrized(mult, g), big_m4(mult, g), sigma4(mult, g)):
                lambda_n(form, [u] * form.n)
            kinds = {key[0] for key in imethod._CACHE}
        finally:
            imethod._CACHE.clear()
        assert kinds == {"blocks", "pairs"}

    def test_cache_stays_at_its_bound(self, monkeypatch):
        # 40 quintic evaluations at K=6, each with its own multiplier and so
        # its own sigma4 and sigma3 pair-term tables, under the least bound
        # that admits the quintic lattice, about a dozen sigma4 tables: after
        # every call the arrays the cache holds take at most TABLE_BYTES
        def held():
            # a pair-term table, or a layout: head and rest columns, bounds, lasts
            return sum(
                v.nbytes if isinstance(v, np.ndarray)
                else sum(a.nbytes for a in (*v[0], *v[1], v[2], *v[3]))
                for v in imethod._CACHE.values()
            )

        def pairs(mult):
            return ("pairs", 4, mult, 1, 1.0, 6, 6)

        monkeypatch.setattr(imethod, "TABLE_BYTES", 16 * 13**4)
        g = make_grid(1, 6)
        u = smooth_field(g, 3)
        layout = imethod._block_layout(5, 6)
        mults = [IMultiplier(s=-0.5, N=1.0 + 0.1 * i) for i in range(40)]
        for mult in mults:
            lambda_n(big_m5(mult, g, 6), [u] * 5)
            assert pairs(mult) in imethod._CACHE and held() <= imethod.TABLE_BYTES
        assert pairs(mults[0]) not in imethod._CACHE
        # least recently used out first: the block layout every evaluation reads stays
        assert imethod._block_layout(5, 6) is layout

    def test_pair_terms_refuse_an_oversize_table_before_allocating(self):
        # the sigma4 pair-term table at bound 203 would take 16 * 407^3 bytes,
        # just over 1 GiB: refused before np.zeros, and nothing is cached
        g = make_grid(2, 8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="K=8 needs a Gamma_4 table of 1078706288"):
                imethod._pair_terms(4, IMultiplier(s=-0.5, N=2.0), g, 203, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and not imethod._CACHE

    def test_odd_multiplier_breaks_the_resonant_set_check(self, monkeypatch):
        # an m that is not even: M4 no longer cancels on the resonant tuples
        # (a, -a, b, -b), so sigma4, and M5 through its sigma4 table, refuse
        true_m = imethod._m_array
        monkeypatch.setattr(
            imethod, "_m_array", lambda mult, k: true_m(mult, k) * (1.0 + 0.25 * (k > 0))
        )
        g = make_grid(2, 6)
        mult = IMultiplier(s=-0.5, N=2.0)
        imethod._CACHE.clear()
        try:
            with pytest.raises(ArithmeticError, match="M4 does not vanish on a resonant tuple"):
                sigma4(mult, g, 6).weight(*_hyperplane_tuples(4, 6))
            with pytest.raises(ArithmeticError, match="M4 does not vanish on a resonant tuple"):
                big_m5(mult, g, 6).weight(*_hyperplane_tuples(5, 6))
        finally:
            imethod._CACHE.clear()


def layout_orders(n, K):
    """(row order, column order, blocks) of the block layout: each row's
    and column's flat index in the dense block over its entries."""
    head, rest, bounds, _ = imethod._block_layout(n, K)
    flat = [imethod._flat([d - K for d in part], K)[0] for part in (head, rest)]
    return flat[0], flat[1], bounds


def reference_table(form, K):
    """The weight table as one scatter of the whole lattice: the weight
    at every tuple of Gamma_n at once, placed by the argsort ranks, the
    blocks of the layout one after the other."""
    n, h = form.n, (form.n - 1) // 2
    rows, cols, bounds = layout_orders(n, K)
    r0, r1, c0, c1 = bounds.T
    start = np.concatenate(([0], np.cumsum((r1 - r0) * (c1 - c0))))
    idx = _hyperplane_tuples(n, K)
    w = form.weight(*idx)
    head, gi = imethod._flat(idx[:h], K)
    gi += h * K
    pos = np.argsort(cols)[imethod._flat(idx[h:-1], K)[0]]
    pos += start[gi] - c0[gi]
    pos += (np.argsort(rows)[head] - r0[gi]) * (c1 - c0)[gi]
    table = np.zeros(start[-1], dtype=np.complex128)
    table[pos] = w
    return table


def reference_contract(tables, blocks, layout):
    """The whole-table contraction: per sample, the sum over head sums g of
    a[H_g] . (W_g @ (b * u_n)), the products a and b over every head row
    and rest column formed at once."""
    rows, cols, bounds, lasts, h = layout
    S = len(tables[0])

    def outer(parts, order):
        out = np.ones((S, 1))
        for t in parts:
            out = (out[:, :, None] * t[:, None, :]).reshape(S, -1)
        return out.take(order, axis=1)

    head, rest = outer(tables[:h], rows), outer(tables[h:-1], cols)
    acc = np.zeros(S, dtype=tables[0].dtype)
    for (r0, r1, c0, c1), last, w in zip(bounds, lasts, blocks):
        v = np.multiply(rest[:, c0:c1], tables[-1].take(last, axis=1))
        acc += np.matmul(head[:, None, r0:r1], np.matmul(w, v[:, :, None]))[:, 0, 0]
    return acc


def reference_lambda(form, grid, stacks):
    """(value, scale) of _lambda_with_scale from the whole weight table,
    contracted block by block in one pass for the value and one for the scale."""
    rows, cols, bounds = layout_orders(form.n, grid.K)
    lasts = imethod._block_layout(form.n, grid.K)[3]
    table = reference_table(form, grid.K)
    blocks, at = [], 0
    for r0, r1, c0, c1 in bounds.tolist():
        blocks.append(table[at : at + (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0))
        at += (r1 - r0) * (c1 - c0)
    layout = (rows, cols, bounds.tolist(), lasts, (form.n - 1) // 2)
    tables = [imethod._coeff_table(c) for c in stacks]
    norm = (2.0 * np.pi * grid.mu) ** (1 - form.n)
    value = norm * reference_contract(tables, blocks, layout)
    moduli = [np.abs(t) for t in tables]
    return value, norm * reference_contract(moduli, map(np.abs, blocks), layout)


def slot_stacks(grid, n, samples, seed):
    """One stack of smooth coefficient rows per slot, each slot its own fields."""
    rng = np.random.default_rng(seed)
    return [
        np.array([random_smooth_field(grid, rng, 0.5).coeffs for _ in range(samples)])
        for _ in range(n)
    ]


def streamed(form, grid, stacks):
    """_lambda_with_scale from a cleared cache."""
    imethod._CACHE.clear()
    try:
        return _lambda_with_scale(form, grid, stacks)
    finally:
        imethod._CACHE.clear()


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


class TestWeightTable:
    """The weights W, evaluated piece by piece off the block layout and
    contracted as each piece is formed, give the bits of the whole weight
    table scattered at once and contracted block by block."""

    @staticmethod
    def forms(mult, g):
        K = g.K
        return [
            big_m3(mult, g), big_m3_symmetrized(mult, g), sigma3(mult, g),
            big_m4(mult, g, K), big_m4(mult, g), sigma4(mult, g, K), sigma4(mult, g),
            big_m5(mult, g, K), big_m5(mult, g), skew_form(2), constant_form(4, 0.5 - 0.25j),
        ]

    @pytest.mark.parametrize("mu", [1.0, 1.5])
    @pytest.mark.parametrize("shape", ["clipped_power", "smooth_log"])
    @pytest.mark.parametrize("K", [3, 6])
    def test_equals_the_whole_lattice_scatter(self, monkeypatch, K, shape, mu):
        # pieces of one block, of at most 7 entries (or one block), and one
        # piece for the whole lattice
        g = make_grid(2, K, mu)
        mult = IMultiplier(s=-0.7, N=1.0, shape=shape)
        for form in self.forms(mult, g):
            stacks = slot_stacks(g, form.n, 3, 71)
            ref = reference_lambda(form, g, stacks)
            assert np.all(ref[1] > 0), form.tag
            for piece in (1, 7, 2**40):
                monkeypatch.setattr(resonance, "PIECE_TUPLES", piece)
                assert_same_bits(streamed(form, g, stacks), ref, (form.tag, piece))

    def test_quintic_table_at_16(self):
        g = make_grid(2, 16)
        form = big_m5(IMultiplier(s=-0.5, N=4.0), g, 16)
        stacks = [slot_stacks(g, 1, 33, 72)[0]] * 5
        assert_same_bits(streamed(form, g, stacks), reference_lambda(form, g, stacks), "M5")

    @pytest.mark.parametrize("piece", [1, 7, None])
    def test_one_sigma_table_at_every_piece_size(self, monkeypatch, piece):
        # a piece of one block, of 7 entries, and one piece for all (None):
        # every value keeps its bits and each pair-term table of sigma_n,
        # keyed by its arity and bound, is built once
        K = 4
        g = make_grid(2, K, 1.5)
        mult = IMultiplier(s=-0.6, N=1.0)
        cases = [
            (big_m4(mult, g, K), {(3, K)}), (big_m4(mult, g), {(3, 2 * K)}),
            (sigma4(mult, g, K), {(3, K)}), (sigma4(mult, g), {(3, 2 * K)}),
            (big_m5(mult, g, K), {(4, K), (3, K)}), (big_m5(mult, g), {(4, 2 * K), (3, 4 * K)}),
        ]
        stacks = {n: slot_stacks(g, n, 2, 73) for n in (4, 5)}
        refs = [reference_lambda(form, g, stacks[form.n]) for form, _ in cases]
        monkeypatch.setattr(resonance, "PIECE_TUPLES", piece or 2**40)
        builds = recorded_builds(monkeypatch)
        for (form, tables), ref in zip(cases, refs):
            builds.clear()
            assert_same_bits(streamed(form, g, stacks[form.n]), ref, form.tag)
            pairs = [(key[1], key[5]) for key in builds if key[0] == "pairs"]
            assert sorted(pairs) == sorted(tables), form.tag

    def test_quintic_build_holds_no_quintic_tuples(self):
        # with the sigma4 pair-term table and the layout warm, the whole
        # weight table (10.9 MiB) was scattered and held: the evaluation
        # peaked at 15.0 MiB (tracemalloc); walked piece by piece off the
        # layout it holds one piece's tuples and weights, and nothing after
        g = make_grid(2, 16)
        mult = IMultiplier(s=-0.5, N=4.0)
        form = big_m5(mult, g, 16)
        stacks = [slot_stacks(g, 1, 33, 74)[0]] * 5
        imethod._pair_terms(4, mult, g, 16, 16)
        imethod._block_layout(5, 16)
        warm = set(imethod._CACHE)
        tracemalloc.start()
        try:
            _lambda_with_scale(form, g, stacks)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert held < 2**16 and set(imethod._CACHE) == warm

    @pytest.mark.parametrize("K", [1, 2, 3, 6])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_tuples_read_off_the_layout(self, monkeypatch, n, K):
        # the nonzero-entry tuples of the layout's blocks are Gamma_n, each once
        g = make_grid(1, K)
        form, records = weighed(constant_form(n))
        monkeypatch.setattr(resonance, "PIECE_TUPLES", 7)
        streamed(form, g, [np.ones((1, K), dtype=complex)] * n)
        got = np.concatenate(records, axis=1).T
        ref = np.stack(_hyperplane_tuples(n, K), axis=1)
        assert got.shape == ref.shape
        assert np.array_equal(got[np.lexsort(got.T)], ref[np.lexsort(ref.T)])

    def test_entries_beyond_the_lattice_bound_refused(self):
        g = make_grid(2, 6)
        idx = _hyperplane_tuples(4, 8)
        with pytest.raises(ValueError, match="beyond the lattice bound 6"):
            big_m4(IMultiplier(s=-0.5, N=2.0), g, 6).weight(*idx)


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
        # order 1 must not slice the corrections down to a sigma3-polarized rate
        g = make_grid(1, 6)
        c = harmonic(g, 1).coeffs[None]
        with pytest.raises(ValueError, match=f"order must be 2, 3 or 4, got {order}"):
            _energy_rates(g, c, c, IMultiplier(s=-0.5, N=2.0), order)

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
        expected = [
            _energy_rates(
                g,
                u.coeffs[None],
                (nonlinear_rhs(u, spec.flavor, spec.N) if spec.nonlinear
                 else FourierField.zero(g)).coeffs[None],
                mult,
                order,
            )[0][0]
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
