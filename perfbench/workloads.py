"""The four benchmark workloads: their inputs, their kdvlab runs, their checks.

Each workload is one fresh process running a fixed list of operations.
An operation is either one ``kdvlab`` command (run in-process through
``kdvlab.cli.main``) or, for the symplecticity check, a direct call of
``flow_jacobian`` and ``check_symplectic``. Shapes follow the mandated
acceptance configurations and the README examples; only the seeded
inputs (data seeds, cylinder mode and centre, Jacobian base field)
change with the benchmark seed.

The benchmark seed selects one of ``VARIANTS`` input sets (seed modulo
VARIANTS), so every input the benchmark can generate has a reference
output recorded in ``reference.json``.

This module imports numpy and kdvlab only inside ``build``: the parent
process reads the metadata without paying for either import.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

VARIANTS = 16

# Relative and absolute tolerance against the recorded reference. Default
# for every float output; operations whose outputs sit at a numerical
# floor override it (see ``Workload.op_tolerance``).
DEFAULT_TOLERANCE = (1e-6, 1e-12)


@dataclass(frozen=True)
class Workload:
    why: str
    # (j, K) of the workload's flow grid, for the nonlinear_rhs probe.
    probe: tuple
    # Tolerance overrides, keyed by operation name.
    op_tolerance: dict = field(default_factory=dict)


WORKLOADS = {
    "stiff-trajectory": Workload(
        why="one long serial j=3 K=16 almost-cons trajectory: flow per-step cost "
        "is nearly all wall time and there is nothing to batch",
        probe=(3, 16),
        # E4/E2 drifts sit at the integrator's stiff-regime floor, so their
        # round-off reproducibility is about 1e-3 relative.
        op_tolerance={"almost-cons": (1e-3, 1e-12)},
    ),
    "witness-ensemble": Workload(
        why="squeeze witness searches and finite-difference Jacobians: hundreds "
        "of short independent K=8 solves, so per-call overhead and batching show",
        probe=(2, 8),
        # Symplectic defects are finite-difference quantities near 1e-8..1e-10
        # whose last digits follow round-off.
        op_tolerance={"symplecticity": (1e-2, 1e-12)},
    ),
    "wide-sweep": Workload(
        why="approx and tail sweeps at K=256: the same flow layer at a large FFT "
        "size, where small-K tricks and threading regress",
        probe=(2, 256),
    ),
    "lattice-verify": Workload(
        why="exact resonance enumeration with the per-tuple CSV and the quintic "
        "Lambda_5(M5) energies: resonance, imethod and cli work, little flow",
        probe=(2, 16),
    ),
}


@dataclass
class Op:
    """One verification run: a kdvlab command or a Python-level check."""

    name: str
    argv: list | None = None
    params: dict | None = None
    tolerance: tuple = DEFAULT_TOLERANCE


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _rng(name: str, seed: int):
    import numpy as np

    tag = sorted(WORKLOADS).index(name)
    return np.random.default_rng([tag, variant_of(seed)])


def _draw_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _cli(name: str, command: str, out: str, **keys) -> Op:
    argv = [command, "--out", out]
    for key, value in keys.items():
        argv += [f"--{key}", value if isinstance(value, str) else repr(value)]
    return Op(name=name, argv=argv)


def build(name: str, seed: int, smoke: bool, work_dir: str) -> list:
    """Draw the workload's inputs from ``seed`` and return its operations.

    Writes any configuration file the operations read into ``work_dir``.
    ``smoke`` keeps every operation but shrinks it to minimal length; smoke
    outputs have no recorded reference.
    """
    rng = _rng(name, seed)
    out = functools.partial(os.path.join, work_dir)
    if name == "stiff-trajectory":
        # Criterion 8's shape; T is the benchmark's run length (criterion 8
        # itself integrates to T=1, 2M steps).
        ops = [
            _cli(
                "almost-cons", "almost-cons", out("ac"), j=3, K=16, s=-1.5,
                N_list="4,8,16", dt=5e-7, T=1.6e-5 if smoke else 0.005, decay=0.6,
                amplitude=10.0, data_kmax=8, seed=_draw_seed(rng),
            )
        ]
    elif name == "witness-ensemble":
        ops = []
        for i in range(2):
            # Criterion 11's draw: k0 in +-[1, 8], centre z ~ N(0, 1) + i N(0, 1).
            k0 = int(rng.integers(1, 9)) * (1 if rng.random() < 0.5 else -1)
            z = complex(rng.normal(), rng.normal())
            ops.append(
                _cli(
                    f"squeeze-{i}", "squeeze", out(f"sq{i}"), j=2, K=8, N_list="8",
                    T=0.01 if smoke else 0.1, dt=1e-3, radius=0.8,
                    samples=2 if smoke else 64, n_ascent=4 if smoke else 200,
                    k0=k0, z_re=z.real, z_im=z.imag, seed=_draw_seed(rng),
                )
            )
        # Criterion 10's shape: K=8, N=4, T=0.2, three step sizes, FD step 1e-5.
        coeffs = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * _decay(4)
        ops.append(
            Op(
                name="symplecticity",
                params={
                    "j": 2, "K": 8, "N": 4.0, "T": 0.01 if smoke else 0.2,
                    "dts": (1e-3, 5e-4, 2.5e-4), "h": 1e-5, "coeffs": coeffs,
                    "l2": 2.0,
                },
            )
        )
    elif name == "wide-sweep":
        # The README sweep.cfg shape, read from a config file as there; T is the
        # benchmark's run length (the README example integrates to T=0.5).
        cfg = os.path.join(work_dir, "sweep.cfg")
        with open(cfg, "w") as fh:
            fh.write(
                "j = 2\nK = 64\nN_list = 4,8,16\ndt = 2e-4\nT = 0.002\n" if smoke
                else "j = 2\nK = 256\nN_list = 16,32,64\ndt = 2e-4\nT = 0.2\n"
            )
            fh.write(f"seed = {_draw_seed(rng)}\n")
        ops = [
            _cli("approx-sweep", "approx-sweep", out("sw"), config=cfg),
            _cli("tail-sweep", "tail-sweep", out("tw"), config=cfg),
        ]
    elif name == "lattice-verify":
        ops = [
            _cli(
                "resonance-check", "resonance-check", out("rc"), j=2,
                K=8 if smoke else 64, K4=6 if smoke else 24, csv="tuples.csv",
            ),
            _cli(
                "energies", "energies", out("en"), j=2, K=8 if smoke else 16,
                s=-0.5, N=4, dt=1e-4, T=1e-3 if smoke else 0.05,
                seed=_draw_seed(rng),
            ),
        ]
    else:
        raise KeyError(f"unknown workload {name!r}")
    for op in ops:
        op.tolerance = WORKLOADS[name].op_tolerance.get(op.name, DEFAULT_TOLERANCE)
    return ops


def _decay(n: int):
    import numpy as np

    return np.exp(-0.5 * np.arange(1, n + 1))


def run_python_op(op: Op, kdvlab) -> str:
    """Run a non-CLI operation; returns its verdict line.

    ``symplecticity`` is criterion 10 on a seeded base field: Jacobian
    defects at three step sizes, the <= 1e-5 bound at the largest and the
    >= 8x decrease over two halvings.
    """
    import numpy as np

    p = op.params
    flow = kdvlab.flow
    grid = kdvlab.make_grid(p["j"], p["K"])
    c = np.zeros(p["K"], dtype=np.complex128)
    c[: len(p["coeffs"])] = p["coeffs"]
    u0 = kdvlab.FourierField(grid, c)
    u0 = u0 * (p["l2"] / kdvlab.sobolev_norm(u0, 0.0))
    defects = []
    for dt in p["dts"]:
        spec = flow.FlowSpec(grid=grid, dt=dt, T=p["T"], flavor="truncated", N=p["N"])
        defects.append(flow.check_symplectic(flow.flow_jacobian(u0, spec, h=p["h"]), grid, p["N"]))
    ok = defects[0] <= 1e-5 and defects[-1] <= defects[0] / 8.0
    return f"symplecticity: defects {' '.join(repr(d) for d in defects)} ok={ok}\n"
