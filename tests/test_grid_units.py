"""GridSpec's frequency-to-mode conversion agrees with every band it defines."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from kdvlab.flow import symplectic_matrix  # noqa: E402
from kdvlab.spectral import FourierField, make_grid, project  # noqa: E402


@st.composite
def grids_and_thresholds(draw):
    """A grid with mu in [0.05, 8], some of them ratios like 7/5, and a
    threshold N in (0, K/mu].

    Half of the thresholds are a lattice frequency n/mu, the float just
    below it, or the integer below it: there the float comparison decides
    on which side of the band a mode lands.
    """
    K = draw(st.integers(1, 48))
    ratio = st.builds(lambda p, q: p / q, st.integers(1, 40), st.integers(5, 20))
    mu = draw(st.one_of(st.floats(0.05, 8.0), ratio))  # ratios put n/mu near integers
    grid = make_grid(1, K, mu)
    lattice = draw(st.integers(1, K)) / mu
    N = draw(st.one_of(
        st.floats(0.0, grid.band, exclude_min=True),
        st.sampled_from([lattice, float(np.nextafter(lattice, 0.0)), float(int(lattice)) or lattice]),
    ))
    return grid, N


@settings(max_examples=150, deadline=None)
@given(grids_and_thresholds())
@example((make_grid(1, 32, 1.4), 15.0))  # 21/1.4 = 15.000000000000002 > 15, int(15*1.4) = 21
@example((make_grid(1, 32, 1.16), 25.0))  # 29/1.16 <= 25, int(25*1.16) = 28
def test_modes_upto_counts_the_projected_band(case):
    grid, N = case
    n_modes = grid.modes_upto(N)
    kept = project(FourierField(grid, np.ones(grid.K)), "le", N).coeffs != 0
    assert n_modes == np.count_nonzero(kept)
    assert np.all(kept[:n_modes]) and not np.any(kept[n_modes:])
    assert symplectic_matrix(grid, N).shape[0] // 2 == n_modes
