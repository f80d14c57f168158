"""Spectral lab for periodic higher-order KdV-type flows.

Pseudospectral integration of u_t + (-1)^(j+1) u_{(2j+1)x} + (u^2/2)_x = 0
on the torus, exact resonance-polynomial algebra, the I-method modified
energy hierarchy, and symplectic/nonsqueezing experiments on the
frequency-truncated flow.
"""

from .spectral import (
    ConservedReport,
    FourierField,
    GridSpec,
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
from .resonance import (
    FactorizationReport,
    verify_factorization,
)
from .imethod import (
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
from .flow import (
    FlowBlowupError,
    FlowSpec,
    Trajectory,
    check_symplectic,
    conservation_report,
    flow_jacobian,
    integrate,
    linear_propagate,
    nonlinear_rhs,
)

__version__ = "0.1.0"
