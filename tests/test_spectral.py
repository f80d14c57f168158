"""Field representation, norms, symplectic form and conserved quantities.

Derived expected values are cross-checked against direct quadrature on a
fine physical grid, independent of the coefficient-space code paths.
"""

import os

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below is then skipped
    given = None

from kdvlab import spectral
from kdvlab.spectral import (
    FourierField,
    GridSpec,
    _next_fast_len,
    _write_atomic,
    conserved_quantities,
    derivative,
    harmonic,
    inverse,
    load_snapshot,
    make_grid,
    project,
    random_smooth_field,
    save_snapshot,
    sobolev_norm,
    symplectic_form,
    transform,
)

QUAD_POINTS = 4096


def quad_integral(f, mu=1.0):
    """Rectangle-rule integral over the torus; exact for trig polynomials."""
    x = np.arange(QUAD_POINTS) * (2 * np.pi * mu / QUAD_POINTS)
    return np.sum(f(x)) * (2 * np.pi * mu / QUAD_POINTS)


class TestGrid:
    def test_default_padding(self):
        g = make_grid(2, 32)
        assert g.physical_points >= 3 * 32 + 1

    def test_minimal_grid(self):
        g = make_grid(1, 1)
        assert g.K == 1 and g.physical_points >= 4

    @pytest.mark.parametrize("j,K,mu", [(0, 4, 1.0), (2, 0, 1.0), (1, 4, 0.0), (1, 4, -2.0)])
    def test_rejects_bad_parameters(self, j, K, mu):
        with pytest.raises(ValueError):
            make_grid(j, K, mu)

    def test_rejects_underpadded_points(self):
        with pytest.raises(ValueError):
            # direct construction bypassing the rule must still validate
            GridSpec(j=1, K=8, physical_points=16)

    def test_fast_len_is_the_integer_walk(self):
        def walk(n):
            while True:
                m = n
                for p in (2, 3, 5):
                    while m % p == 0:
                        m //= p
                if m == 1:
                    return n
                n += 1

        assert [_next_fast_len(n) for n in range(1, 20001)] == [walk(n) for n in range(1, 20001)]
        # the walk over powers of 5 and 3 returns at once where one integer
        # at a time would not
        assert _next_fast_len(3 * 10**21 + 1) == 3001892705939982420000

    def test_rejects_a_grid_over_the_budget(self):
        # 16 bytes a physical point: the budget's points are accepted, one more refused
        points = spectral.BUDGET_BYTES // 16
        GridSpec(j=1, K=points // 4, physical_points=points)
        with pytest.raises(ValueError, match=f"K={points // 3} needs {points + 1} physical"):
            GridSpec(j=1, K=points // 3, physical_points=points + 1)
        with pytest.raises(ValueError, match="K=10000000000000000000000 needs"):
            make_grid(2, 10**22)


class TestTransforms:
    def test_round_trip_cos(self):
        g = make_grid(1, 8)
        u = harmonic(g, 1)
        back = inverse(transform(u), g)
        assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-13 * np.pi

    def test_zero_field_transforms_to_zero(self):
        g = make_grid(1, 4)
        assert np.all(transform(FourierField.zero(g)) == 0.0)

    def test_mean_discarded(self):
        g = make_grid(1, 4)
        x = np.arange(g.physical_points) * (2 * np.pi / g.physical_points)
        u = inverse(np.cos(x) + 0.5, g)
        ref = harmonic(g, 1)
        assert np.max(np.abs(u.coeffs - ref.coeffs)) < 1e-12

    def test_round_trip_random_band_limited(self):
        g = make_grid(2, 16)
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = random_smooth_field(g, rng, decay=0.2)
            back = inverse(transform(u), g)
            rel = np.max(np.abs(back.coeffs - u.coeffs)) / np.max(np.abs(u.coeffs))
            assert rel <= 1e-12

    def test_length_mismatch_rejected(self):
        g = make_grid(1, 4)
        with pytest.raises(ValueError):
            inverse(np.zeros(g.physical_points + 1), g)

    def test_mu_round_trip(self):
        g = make_grid(1, 6, mu=2.5)
        u = harmonic(g, 3, 0.7, 0.4)
        back = inverse(transform(u), g)
        assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-12 * np.max(np.abs(u.coeffs))


class TestProjection:
    def test_low_pass_indicator(self):
        g = make_grid(1, 8)
        u = harmonic(g, 1) + harmonic(g, 2)
        assert np.allclose(project(u, "le", 1.0).coeffs, harmonic(g, 1).coeffs)

    def test_band_covering_support_is_identity(self):
        g = make_grid(1, 8)
        rng = np.random.default_rng(1)
        u = random_smooth_field(g, rng, decay=0.1)
        assert np.array_equal(project(u, "le", float(g.K)).coeffs, u.coeffs)

    def test_high_pass_kills_low_mode(self):
        g = make_grid(1, 8)
        assert np.all(project(harmonic(g, 1), "gt", 3.0).coeffs == 0.0)

    def test_partition_of_identity(self):
        g = make_grid(1, 12)
        u = random_smooth_field(g, np.random.default_rng(2), decay=0.1)
        total = project(u, "le", 5.0) + project(u, "gt", 5.0)
        assert np.array_equal(total.coeffs, u.coeffs)

    def test_idempotent_and_commutes_with_derivative(self):
        g = make_grid(1, 12)
        u = random_smooth_field(g, np.random.default_rng(3), decay=0.1)
        p = project(u, "dyadic", 3.0)
        assert np.array_equal(project(p, "dyadic", 3.0).coeffs, p.coeffs)
        a = derivative(project(u, "le", 4.0), 1)
        b = project(derivative(u, 1), "le", 4.0)
        assert np.allclose(a.coeffs, b.coeffs, rtol=0, atol=1e-15)


class TestDerivative:
    def test_first_derivative_of_cos(self):
        g = make_grid(1, 4)
        d = derivative(harmonic(g, 1), 1)
        # -sin x = cos(x + pi/2)
        ref = harmonic(g, 1, 1.0, np.pi / 2)
        assert np.max(np.abs(d.coeffs - ref.coeffs)) < 1e-14

    def test_antiderivative_of_sin(self):
        g = make_grid(1, 4)
        sin = harmonic(g, 1, 1.0, -np.pi / 2)
        anti = derivative(sin, -1)
        ref = harmonic(g, 1, -1.0)  # -cos x
        assert np.max(np.abs(anti.coeffs - ref.coeffs)) < 1e-14

    def test_inverse_pair(self):
        g = make_grid(1, 4)
        u = harmonic(g, 2)
        round_trip = derivative(derivative(u, -1), 1)
        assert np.max(np.abs(round_trip.coeffs - u.coeffs)) <= 1e-14 * np.pi

    def test_below_minus_one_rejected(self):
        g = make_grid(1, 4)
        with pytest.raises(ValueError):
            derivative(harmonic(g, 1), -2)


class TestSobolevNorm:
    def test_l2_of_cos(self):
        g = make_grid(1, 4)
        # oracle: integral of cos^2 over the torus is pi
        oracle = np.sqrt(quad_integral(lambda x: np.cos(x) ** 2))
        value = sobolev_norm(harmonic(g, 1), 0.0)
        assert value == pytest.approx(np.sqrt(np.pi), rel=1e-13)
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_h_minus_half_of_cos(self):
        g = make_grid(1, 4)
        value = sobolev_norm(harmonic(g, 1), -0.5)
        assert value == pytest.approx(2 ** -0.25 * np.sqrt(np.pi), rel=1e-13)

    def test_zero_field(self):
        g = make_grid(1, 4)
        assert sobolev_norm(FourierField.zero(g), -1.7) == 0.0

    def test_parseval_random(self):
        g = make_grid(1, 16)
        rng = np.random.default_rng(4)
        u = random_smooth_field(g, rng, decay=0.3)
        samples = u
        w = transform(samples)
        quad = np.sum(w**2) * (2 * np.pi / g.physical_points)
        assert sobolev_norm(u, 0.0) ** 2 == pytest.approx(quad, rel=1e-10)

    def test_homogeneous_weight(self):
        g = make_grid(1, 4)
        # |k| = 1 carries weight 1 at every s for the homogeneous norm
        for s in (-1.5, -0.5, 0.0):
            assert sobolev_norm(harmonic(g, 1), s, weight="homogeneous") == pytest.approx(
                np.sqrt(np.pi), rel=1e-13
            )


class TestSymplecticForm:
    def test_cos_sin_pairing(self):
        g = make_grid(1, 4)
        cos = harmonic(g, 1)
        sin = harmonic(g, 1, 1.0, -np.pi / 2)
        # oracle: d_x^{-1} sin = -cos, so the pairing integrates -cos^2
        oracle = quad_integral(lambda x: np.cos(x) * (-np.cos(x)))
        value = symplectic_form(cos, sin)
        assert value == pytest.approx(-np.pi, rel=1e-13)
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_mode_orthogonality(self):
        g = make_grid(1, 4)
        assert symplectic_form(harmonic(g, 1), harmonic(g, 2)) == pytest.approx(0.0, abs=1e-14)

    def test_antisymmetry_many_random_pairs(self):
        g = make_grid(1, 10)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            u = FourierField(g, rng.standard_normal(10) + 1j * rng.standard_normal(10))
            v = FourierField(g, rng.standard_normal(10) + 1j * rng.standard_normal(10))
            a = symplectic_form(u, v)
            b = symplectic_form(v, u)
            assert a == pytest.approx(-b, rel=1e-12, abs=1e-12)

    def test_self_pairing_vanishes(self):
        g = make_grid(1, 10)
        u = random_smooth_field(g, np.random.default_rng(6), decay=0.2)
        assert symplectic_form(u, u) == pytest.approx(0.0, abs=1e-13)

    def test_skew_adjoint_derivative(self):
        g = make_grid(1, 12)
        rng = np.random.default_rng(7)
        a = random_smooth_field(g, rng, decay=0.2)
        b = random_smooth_field(g, rng, decay=0.2)
        lhs = symplectic_form(derivative(a, 1), b)
        rhs = -symplectic_form(a, derivative(b, 1))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_grid_mismatch_rejected(self):
        u = harmonic(make_grid(1, 4), 1)
        v = harmonic(make_grid(1, 5), 1)
        with pytest.raises(ValueError):
            symplectic_form(u, v)


class TestConservedQuantities:
    def test_cos_field(self):
        for j in (1, 2, 3):
            g = make_grid(j, 4)
            rep = conserved_quantities(harmonic(g, 1))
            assert rep.mass == 0.0
            assert rep.l2_energy == pytest.approx(np.pi, rel=1e-13)
            # oracle: |d^j cos| has unit amplitude, cubic integral vanishes
            assert rep.hamiltonian == pytest.approx(np.pi / 2, rel=1e-12)

    def test_zero_field(self):
        rep = conserved_quantities(FourierField.zero(make_grid(1, 4)))
        assert (rep.mass, rep.l2_energy, rep.hamiltonian) == (0.0, 0.0, 0.0)

    def test_two_mode_hamiltonian(self):
        g = make_grid(1, 8)
        u = harmonic(g, 1) + harmonic(g, 2)
        # oracle by quadrature of the defining integrals
        grad = quad_integral(lambda x: (np.sin(x) + 2 * np.sin(2 * x)) ** 2)
        cubic = quad_integral(lambda x: (np.cos(x) + np.cos(2 * x)) ** 3)
        oracle = 0.5 * grad - cubic / 6.0
        rep = conserved_quantities(u)
        assert rep.hamiltonian == pytest.approx(5 * np.pi / 2 - np.pi / 4, rel=1e-12)
        assert rep.hamiltonian == pytest.approx(oracle, rel=1e-10)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        g = make_grid(2, 6, mu=1.5)
        u = random_smooth_field(g, np.random.default_rng(8), decay=0.4)
        path = tmp_path / "field.json"
        save_snapshot(u, str(path))
        back = load_snapshot(str(path))
        assert back.grid.j == 2 and back.grid.K == 6 and back.grid.mu == 1.5
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-15

    @pytest.mark.parametrize(
        "coeffs",
        [
            [[0, 1.0, 0.0]],          # zero mode forbidden
            [[-2, 1.0, 0.0]],         # negative index breaks the convention
            [[1, 1.0, 0.0], [1, 2.0, 0.0]],  # duplicate
            [[9, 1.0, 0.0]],          # above K
        ],
    )
    def test_rejects_malformed(self, tmp_path, coeffs):
        import json

        path = tmp_path / "bad.json"
        payload = {"schema_version": 1, "j": 1, "mu": 1.0, "K": 4, "coeffs": coeffs}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_snapshot(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            "7",                                   # not an object
            '{"schema_version": 1, "j": 1, "mu": 1.0, "K": 4, "coeffs": 5}',
            '{"schema_version": 1, "j": 1, "mu": 1.0, "K": 4, "coeffs": [1]}',
            '{"schema_version": 1, "j": 1, "mu": 1.0, "K": 4, "coeffs": [[1, "x", 0.0]]}',
            '{"schema_version": 1, "j": 1, "mu": 1.0, "K": 4, "coeffs": [[1, 0.5, null]]}',
            '{"schema_version": 1, "j": [1], "mu": 1.0, "K": 4, "coeffs": []}',
        ],
        ids=["int", "int-coeffs", "int-entry", "str-value", "null-value", "list-j"],
    )
    def test_rejects_malformed_payload(self, tmp_path, text):
        # each was a TypeError; a ValueError is what the CLI reports as a
        # configuration error
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="snapshot|coeff entry"):
            load_snapshot(str(path))

    def test_rejects_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "j": 1, "mu": 1.0, "coeffs": []}')
        with pytest.raises(ValueError, match="K"):
            load_snapshot(str(path))

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        # a write that raises after its first piece removes its temporary
        # file and leaves the snapshot it would have replaced as it was
        path = tmp_path / "field.json"
        save_snapshot(harmonic(make_grid(1, 4), 2), str(path))
        old = path.read_bytes()

        with pytest.raises(RuntimeError, match="second piece"):
            with _write_atomic(str(path)) as fh:
                fh.write(b"{")
                raise RuntimeError("second piece")
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["field.json"]


FINITE = st.floats(allow_nan=False, allow_infinity=False) if given else None


if given is None:

    @pytest.mark.skip(reason="needs hypothesis")
    def test_snapshot_round_trip_keeps_the_bytes():
        pass

else:

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3),
        st.floats(0.1, 10.0),
        st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=8),
    )
    def test_snapshot_round_trip_keeps_the_bytes(tmp_path_factory, j, mu, pairs):
        g = make_grid(j, len(pairs), mu)
        u = FourierField(g, [complex(re, im) for re, im in pairs])
        path = str(tmp_path_factory.mktemp("snap") / "field.json")
        save_snapshot(u, path)
        back = load_snapshot(path)
        assert back.grid == g
        # a coefficient equal to 0 is not written, so -0.0 reads back as +0.0
        expected = np.where(u.coeffs == 0, 0j, u.coeffs)
        assert back.coeffs.tobytes() == expected.tobytes()


class TestImmutability:
    def test_coeff_array_not_writable(self):
        u = harmonic(make_grid(1, 4), 1)
        with pytest.raises(ValueError):
            u.coeffs[0] = 0.0

    def test_signed_mode_lookup(self):
        g = make_grid(1, 4)
        u = FourierField.from_modes(g, {2: 1.0 + 2.0j})
        assert u.mode(2) == 1.0 + 2.0j
        assert u.mode(-2) == 1.0 - 2.0j
        assert u.mode(3) == 0.0
