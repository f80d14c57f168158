"""Command-line entry point: reproducible runs with manifests and CSVs.

Configuration is flat ``key = value`` text; command-line flags override
file values, unknown keys are rejected by name, and every run writes a
manifest (command, config hash, seed, version, timestamps) next to its
outputs. CSVs are written atomically (write-then-rename) and contain no
timestamps, so identical configurations reproduce byte-identical files.

Exit codes: 0 success, 1 assertion/acceptance failure, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .experiments import (
    ExperimentConfig,
    almost_conservation_sweep,
    approx_truncated_sweep,
    check_almost_cons,
    check_sweep_band,
    first_rise,
    high_freq_insensitivity,
    scaling_check,
    squeeze_witness,
)
from .flow import FlowSpec, _step_count, conservation_report, integrate
from .imethod import QUINTIC_K_CAP, IMultiplier, big_m5, lambda_n, modified_energy
from .resonance import verify_factorization
from .spectral import (
    _check_same_grid,
    _write_atomic,
    load_snapshot,
    make_grid,
    random_smooth_field,
    save_snapshot,
)

__all__ = ["main", "parse_config", "ConfigError", "RunCheckError"]

OUT_ENV_VAR = "KDVLAB_OUT"


class ConfigError(ValueError):
    """Configuration problem; maps to exit status 2."""


class RunCheckError(RuntimeError):
    """A run-level assertion failed; maps to exit status 1."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def _parse_float_list(text: str) -> tuple:
    return tuple(_parse_float(x) for x in text.replace(" ", "").split(",") if x)


_PARSERS = {
    "int": int,
    "float": _parse_float,
    "str": str,
    "bool": _parse_bool,
    "float_list": _parse_float_list,
}

# ExperimentConfig annotation -> CLI type name, where the two differ.
_TYPE_NAMES = {"tuple": "float_list", "float | None": "float"}
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _schema(command: str) -> dict:
    """The command's keys -> (type name, required, default).

    An ExperimentConfig field takes its type name and default from the
    dataclass; the CLI's own keys carry theirs in _COMMANDS.
    """
    schema = {}
    for key, spec in _COMMANDS[command][1].items():
        if isinstance(spec, bool):
            f = _FIELDS[key]
            spec = (_TYPE_NAMES.get(f.type, f.type), spec, None if spec else f.default)
        schema[key] = spec
    return schema


def parse_config(command: str, path: str | None, overrides: dict) -> dict:
    """Resolve file values, flag overrides and defaults against the schema.

    Unknown keys, type mismatches (a non-finite number among them) and
    missing required keys raise ConfigError naming the offending key.
    """
    schema = _schema(command)
    raw: dict = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in schema:
                    raise ConfigError(f"unknown configuration key {key!r}")
                raw[key] = value
    for key, value in overrides.items():
        if key not in schema:
            raise ConfigError(f"unknown configuration key {key!r}")
        if value is not None:
            raw[key] = value

    resolved: dict = {}
    for key, (typename, required, default) in schema.items():
        if key in raw:
            try:
                resolved[key] = _PARSERS[typename](raw[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"bad value for key {key!r}: {raw[key]!r} ({typename})"
                ) from exc
        elif required:
            raise ConfigError(f"missing required configuration key {key!r}")
        else:
            resolved[key] = default
    return resolved


def _config_hash(config: dict) -> str:
    canon = "\n".join(f"{k}={config[k]!r}" for k in sorted(config))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_csv(path: str, columns, rows) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    _write_atomic(path, buf.getvalue())


class _Manifest:
    def __init__(self, command: str, config: dict, out_dir: str):
        self.data = {
            "command": command,
            "config_hash": _config_hash(config),
            "config": {k: repr(v) for k, v in sorted(config.items())},
            "seed": config.get("seed", 0),
            "version": __version__,
            "started": datetime.now(timezone.utc).isoformat(),
            "finished": None,
        }
        self.path = os.path.join(out_dir, "manifest.json")

    def finish(self) -> None:
        self.data["finished"] = datetime.now(timezone.utc).isoformat()
        _write_atomic(self.path, json.dumps(self.data, indent=1) + "\n")


def _built(make, *args, **kwargs):
    """make(*args, **kwargs) on configuration values; a ValueError is a ConfigError.

    Each configuration object's error message names its offending key.
    """
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_at_least(cfg: dict, **least) -> None:
    """Refuse each given key whose value is set and below its least value."""
    for key, bound in least.items():
        if cfg[key] is not None and cfg[key] < bound:
            raise ConfigError(f"bad value for key {key!r}: {cfg[key]} (must be >= {bound})")


def _flow_spec(cfg: dict, grid, **kwargs) -> FlowSpec:
    """The run's FlowSpec, validated before its sample stride is derived from its steps."""
    spec = _built(FlowSpec, grid=grid, dt=cfg["dt"], T=cfg["T"], scheme=cfg["scheme"], **kwargs)
    _check_at_least(cfg, samples=1)
    return replace(spec, sample_stride=max(1, _step_count(spec) // cfg["samples"]))


def _initial_field(cfg: dict, grid):
    if cfg.get("input"):
        if not os.path.isfile(cfg["input"]):
            raise ConfigError(f"bad value for key 'input': no such file {cfg['input']!r}")
        try:
            u0 = load_snapshot(cfg["input"])
            _check_same_grid(u0.grid, grid)
        except ValueError as exc:
            raise ConfigError(f"bad value for key 'input': {exc}") from exc
        return u0
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg["seed"]))
    return random_smooth_field(grid, rng, decay=cfg["decay"], norm_value=1.0)


def _cmd_solve(cfg: dict, out_dir: str) -> None:
    grid = _built(make_grid, cfg["j"], cfg["K"], cfg["mu"])
    flavor = "truncated" if cfg["N"] is not None else "full"
    spec = _flow_spec(cfg, grid, flavor=flavor, N=cfg["N"], nonlinear=cfg["nonlinear"])
    u0 = _initial_field(cfg, grid)
    traj = integrate(u0, spec)
    prefix = os.path.join(out_dir, cfg["output"])
    for i, (t, u) in enumerate(zip(traj.times, traj.fields)):
        save_snapshot(u, f"{prefix}_{i:04d}.json")
    reports, drifts = conservation_report(traj)
    _write_csv(
        f"{prefix}_conserved.csv",
        ("t", "mass", "l2_energy", "hamiltonian"),
        [(r.timestamp, r.mass, r.l2_energy, r.hamiltonian) for r in reports],
    )
    print(
        f"solve: {traj.stats['steps']} steps, drifts E={drifts['l2_energy']:.3e} "
        f"H={drifts['hamiltonian']:.3e}"
    )


def _cmd_energies(cfg: dict, out_dir: str) -> None:
    grid = _built(make_grid, cfg["j"], cfg["K"], cfg["mu"])
    orders = sorted({int(o) for o in cfg["orders"].replace(" ", "").split(",") if o})
    if not orders or any(o not in (2, 3, 4) for o in orders):
        raise ConfigError(f"bad value for key 'orders': {cfg['orders']!r}")
    spec = _flow_spec(cfg, grid)
    mult = _built(IMultiplier, s=cfg["s"], N=cfg["N"])
    u0 = _initial_field(cfg, grid)
    traj = integrate(u0, spec)
    m5 = big_m5(mult, grid, lattice_cutoff=grid.K) if grid.K <= QUINTIC_K_CAP else None
    rows = []
    for t, u in zip(traj.times, traj.fields):
        row = [float(t)]
        for order in (2, 3, 4):
            row.append(modified_energy(u, mult, order) if order in orders else float("nan"))
        row.append(lambda_n(m5, [u] * 5).real if m5 is not None else float("nan"))
        rows.append(tuple(row))
    _write_csv(os.path.join(out_dir, "energies.csv"), ("t", "E2", "E3", "E4", "Lambda5M5"), rows)
    if m5 is None:
        print(f"energies: K={grid.K} > {QUINTIC_K_CAP}, Lambda5M5 column skipped (quintic cap)")


def _cmd_resonance(cfg: dict, out_dir: str) -> None:
    _check_at_least(cfg, j=1, K=2, K4=2)
    k4 = cfg["K4"] if cfg["K4"] is not None else cfg["K"]
    rep3 = verify_factorization(cfg["j"], cfg["K"], arity=3)
    rep4 = verify_factorization(cfg["j"], k4, arity=4)
    for rep in (rep3, rep4):
        if rep.failures:
            raise RunCheckError(
                f"factorization failed on Gamma_{rep.arity} at {rep.failures[0][0]}"
            )
    print(
        f"resonance-check j={cfg['j']}: Gamma3 K={cfg['K']} count={rep3.count} "
        f"ratio in [{float(rep3.min_ratio):.6g}, {float(rep3.max_ratio):.6g}]; "
        f"Gamma4 K={k4} count={rep4.count} "
        f"ratio in [{float(rep4.min_ratio):.6g}, {float(rep4.max_ratio):.6g}]; failures 0"
    )
    if cfg["csv"]:
        rows = [
            (" ".join(map(str, t)), p, q, ratio)
            for rep in (rep3, rep4)
            for t, p, q, ratio in zip(
                rep.tuples.tolist(), rep.p.tolist(), rep.q.tolist(), rep.ratio.tolist()
            )
        ]
        _write_csv(
            os.path.join(out_dir, cfg["csv"]), ("tuple", "P_n", "Q_n", "ratio"), rows
        )


def _experiment_config(cfg: dict) -> ExperimentConfig:
    """The experiment's configuration from the command's keys; it checks them itself."""
    return _built(ExperimentConfig, **{k: v for k, v in cfg.items() if k in _FIELDS})


def _cmd_sweep(check, sweep, cfg: dict, out_dir: str) -> None:
    """Check, then run the sweep; its CSV and its report take the sweep's kind as name."""
    ecfg = _experiment_config(cfg)
    _built(check, ecfg)
    result = sweep(ecfg)
    kind = result.kind
    _write_csv(os.path.join(out_dir, f"{kind}.csv"), result.columns, result.rows)
    print(
        f"{kind}: exponent={result.fitted_exponent} residual={result.fit_residual} "
        f"diagnostics={ {k: v for k, v in result.diagnostics.items() if k != 'envelopes'} }"
    )
    i = first_rise(result.rows)
    if i is not None:
        a, b = result.rows[i], result.rows[i + 1]
        raise RunCheckError(
            f"{kind} measured values not strictly decreasing: N={a[0]:g} gives {a[1]!r} "
            f"but N={b[0]:g} gives {b[1]!r}"
        )


def _cmd_squeeze(cfg: dict, out_dir: str) -> None:
    ecfg = _experiment_config(cfg)
    r = cfg["r"]
    result = squeeze_witness(ecfg)
    save_snapshot(result.u0, os.path.join(out_dir, "witness.json"))
    _write_csv(
        os.path.join(out_dir, "squeeze.csv"),
        ("k0", "radius", "witness_value", "threshold_r"),
        [(ecfg.k0, ecfg.radius, result.value, r)],
    )
    print(
        f"squeeze: witness value {result.value!r} (R={ecfg.radius}, r={r}, "
        f"{result.improvements} ascent improvements)"
    )
    if result.value <= r:
        raise RunCheckError(
            f"witness value {result.value!r} did not exceed cylinder radius r={r}"
        )


def _cmd_scaling(cfg: dict, out_dir: str) -> None:
    ecfg = _experiment_config(cfg)
    result = scaling_check(ecfg)
    _write_csv(os.path.join(out_dir, "scaling-check.csv"), result.columns, result.rows)
    d = result.diagnostics
    print(
        f"scaling-check: max mismatch {d['max_mismatch']:.3e}, norm ratio error "
        f"{d['norm_ratio_rel_error']:.3e}"
    )


# command -> (its run, its keys). An ExperimentConfig field's key maps to
# whether the command requires it, the CLI's own keys to (type name,
# required, default). A sweep is looked up by its name when it runs, so a
# wrapper installed on that name (perfbench/tracing.py) sees it.
_FLOW = {"j": True, "K": True, "mu": False, "dt": False, "T": False, "scheme": False,
         "seed": False, "decay": False}
_COMMANDS = {
    "solve": (_cmd_solve, {
        **_FLOW, "dt": True, "T": True, "N": ("float", False, None),
        "input": ("str", False, None), "output": ("str", False, "run"),
        "samples": ("int", False, 8), "nonlinear": ("bool", False, True),
    }),
    "energies": (_cmd_energies, {
        **_FLOW, "s": True, "N": ("float", True, None), "input": ("str", False, None),
        "orders": ("str", False, "2,3,4"), "samples": ("int", False, 32),
    }),
    "resonance-check": (_cmd_resonance, {
        "j": True, "K": True, "K4": ("int", False, None), "csv": ("str", False, None),
    }),
    "approx-sweep": (
        partial(_cmd_sweep, check_sweep_band, lambda e: approx_truncated_sweep(e)),
        {**_FLOW, "N_list": True},
    ),
    "tail-sweep": (
        partial(_cmd_sweep, check_sweep_band, lambda e: high_freq_insensitivity(e)),
        {**_FLOW, "N_list": True, "tail_size": False},
    ),
    "almost-cons": (
        partial(_cmd_sweep, check_almost_cons, lambda e: almost_conservation_sweep(e)),
        {**_FLOW, "N_list": True, "s": True, "amplitude": False, "data_kmax": False},
    ),
    "squeeze": (_cmd_squeeze, {
        **_FLOW, "N_list": True, "k0": True, "z_re": False, "z_im": False, "radius": True,
        "samples": False, "n_ascent": False, "r": ("float", False, 0.5),
    }),
    "scaling-check": (_cmd_scaling, {**_FLOW, "s": True}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdvlab",
        description="Spectral lab for periodic higher-order KdV-type flows",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument(
            "--out",
            default=None,
            help=f"output directory (default ${OUT_ENV_VAR} or '.')",
        )
        for key in keys:
            p.add_argument(f"--{key}", default=None, help=f"override config key {key}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    run, keys = _COMMANDS[command]
    try:
        config = parse_config(command, args.config, {key: getattr(args, key) for key in keys})
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or os.environ.get(OUT_ENV_VAR) or "."
    os.makedirs(out_dir, exist_ok=True)
    manifest = _Manifest(command, config, out_dir)
    status = 0
    try:
        run(config, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (RunCheckError, ArithmeticError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        status = 1
    manifest.finish()
    return status


if __name__ == "__main__":
    sys.exit(main())
