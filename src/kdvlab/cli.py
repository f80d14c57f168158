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
import os
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .experiments import (
    ExperimentConfig,
    almost_conservation_sweep,
    approx_truncated_sweep,
    check_almost_cons,
    check_sweep_band,
    high_freq_insensitivity,
    scaling_check,
    squeeze_witness,
)
from .flow import FlowSpec, conservation_report, integrate
from .imethod import QUINTIC_K_CAP, IMultiplier, big_m5, lambda_n, modified_energy
from .resonance import verify_factorization
from .spectral import (
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


def _parse_int_list(text: str) -> tuple:
    return tuple(int(x) for x in text.replace(" ", "").split(",") if x)


_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "int_list": _parse_int_list,
}

# key -> (type name, required, default); schemas drive both file parsing
# and the auto-generated override flags.
_COMMON_FLOW = {
    "j": ("int", True, None),
    "K": ("int", True, None),
    "mu": ("float", False, 1.0),
    "dt": ("float", False, 1e-3),
    "T": ("float", False, 1.0),
    "scheme": ("str", False, "etdrk4"),
    "seed": ("int", False, 0),
    "decay": ("float", False, 1.5),
}

_SCHEMAS = {
    "solve": {
        **_COMMON_FLOW,
        "dt": ("float", True, None),
        "T": ("float", True, None),
        "N": ("float", False, None),
        "input": ("str", False, None),
        "output": ("str", False, "run"),
        "samples": ("int", False, 8),
        "nonlinear": ("bool", False, True),
    },
    "energies": {
        **_COMMON_FLOW,
        "s": ("float", True, None),
        "N": ("float", True, None),
        "input": ("str", False, None),
        "orders": ("str", False, "2,3,4"),
        "samples": ("int", False, 32),
    },
    "resonance-check": {
        "j": ("int", True, None),
        "K": ("int", True, None),
        "K4": ("int", False, None),
        "csv": ("str", False, None),
    },
    "approx-sweep": {
        **_COMMON_FLOW,
        "N_list": ("int_list", True, None),
    },
    "tail-sweep": {
        **_COMMON_FLOW,
        "N_list": ("int_list", True, None),
        "tail_size": ("float", False, 1.0),
    },
    "almost-cons": {
        **_COMMON_FLOW,
        "N_list": ("int_list", True, None),
        "s": ("float", True, None),
        "amplitude": ("float", False, 1.0),
        "data_kmax": ("int", False, None),
    },
    "squeeze": {
        **_COMMON_FLOW,
        "N_list": ("int_list", True, None),
        "k0": ("int", True, None),
        "z_re": ("float", False, 0.0),
        "z_im": ("float", False, 0.0),
        "radius": ("float", True, None),
        "r": ("float", False, 0.5),
        "samples": ("int", False, 64),
        "n_ascent": ("int", False, 200),
    },
    "scaling-check": {
        **_COMMON_FLOW,
        "s": ("float", True, None),
    },
}


def parse_config(command: str, path: str | None, overrides: dict) -> dict:
    """Resolve file values, flag overrides and defaults against the schema.

    Unknown keys, type mismatches and missing required keys raise
    ConfigError naming the offending key.
    """
    schema = _SCHEMAS[command]
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


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


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


def _flow_spec(cfg: dict, grid, **kwargs) -> FlowSpec:
    """The run's FlowSpec, validated before its sample stride is derived from dt."""
    spec = _built(FlowSpec, grid=grid, dt=cfg["dt"], T=cfg["T"], scheme=cfg["scheme"], **kwargs)
    steps = max(1, round(abs(cfg["T"]) / cfg["dt"]))
    return replace(spec, sample_stride=max(1, steps // max(1, cfg["samples"])))


def _initial_field(cfg: dict, grid):
    if cfg.get("input"):
        if not os.path.isfile(cfg["input"]):
            raise ConfigError(f"bad value for key 'input': no such file {cfg['input']!r}")
        try:
            u0 = load_snapshot(cfg["input"])
        except ValueError as exc:
            raise ConfigError(f"bad value for key 'input': {exc}") from exc
        g = u0.grid
        if (g.j, g.K, g.mu) != (grid.j, grid.K, grid.mu):
            raise ConfigError(
                f"snapshot grid (j={g.j}, K={g.K}, mu={g.mu}) does not match "
                f"configuration (j={grid.j}, K={grid.K}, mu={grid.mu})"
            )
        return u0
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg["seed"]))
    return random_smooth_field(grid, rng, decay=cfg["decay"], norm_value=1.0)


def _cmd_solve(cfg: dict, out_dir: str) -> int:
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
    return 0


def _cmd_energies(cfg: dict, out_dir: str) -> int:
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
    return 0


def _cmd_resonance(cfg: dict, out_dir: str) -> int:
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
    return 0


def _experiment_config(cfg: dict) -> ExperimentConfig:
    """The experiment's configuration from the command's keys; it checks them itself."""
    names = (f.name for f in fields(ExperimentConfig))
    return _built(ExperimentConfig, **{k: cfg[k] for k in names if cfg.get(k) is not None})


def _check_monotone(result, what: str) -> None:
    values = [row[1] for row in result.rows]
    for i in range(len(values) - 1):
        if not values[i + 1] < values[i]:
            raise RunCheckError(
                f"{what} not strictly decreasing: N={result.rows[i][0]:g} gives "
                f"{values[i]!r} but N={result.rows[i + 1][0]:g} gives {values[i + 1]!r}"
            )


def _cmd_sweep(kind: str, cfg: dict, out_dir: str) -> int:
    ecfg = _experiment_config(cfg)
    _built(check_almost_cons if kind == "almost-cons" else check_sweep_band, ecfg)
    fn = {
        "approx-sweep": approx_truncated_sweep,
        "tail-sweep": high_freq_insensitivity,
        "almost-cons": almost_conservation_sweep,
    }[kind]
    result = fn(ecfg)
    _write_csv(os.path.join(out_dir, f"{kind}.csv"), result.columns, result.rows)
    print(
        f"{kind}: exponent={result.fitted_exponent} residual={result.fit_residual} "
        f"diagnostics={ {k: v for k, v in result.diagnostics.items() if k != 'envelopes'} }"
    )
    _check_monotone(result, f"{kind} measured values")
    return 0


def _cmd_squeeze(cfg: dict, out_dir: str) -> int:
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
    return 0


def _cmd_scaling(cfg: dict, out_dir: str) -> int:
    ecfg = _experiment_config(cfg)
    result = scaling_check(ecfg)
    _write_csv(os.path.join(out_dir, "scaling-check.csv"), result.columns, result.rows)
    d = result.diagnostics
    print(
        f"scaling-check: max mismatch {d['max_mismatch']:.3e}, norm ratio error "
        f"{d['norm_ratio_rel_error']:.3e}"
    )
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "energies": _cmd_energies,
    "resonance-check": _cmd_resonance,
    "approx-sweep": lambda cfg, out: _cmd_sweep("approx-sweep", cfg, out),
    "tail-sweep": lambda cfg, out: _cmd_sweep("tail-sweep", cfg, out),
    "almost-cons": lambda cfg, out: _cmd_sweep("almost-cons", cfg, out),
    "squeeze": _cmd_squeeze,
    "scaling-check": _cmd_scaling,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdvlab",
        description="Spectral lab for periodic higher-order KdV-type flows",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument(
            "--out",
            default=None,
            help=f"output directory (default ${OUT_ENV_VAR} or '.')",
        )
        for key in schema:
            p.add_argument(f"--{key}", default=None, help=f"override config key {key}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    overrides = {
        key: getattr(args, key) for key in _SCHEMAS[command] if hasattr(args, key)
    }
    try:
        config = parse_config(command, args.config, overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or os.environ.get(OUT_ENV_VAR) or "."
    os.makedirs(out_dir, exist_ok=True)
    manifest = _Manifest(command, config, out_dir)
    try:
        status = _DISPATCH[command](config, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (RunCheckError, ArithmeticError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        manifest.finish()
        return 1
    manifest.finish()
    return status


if __name__ == "__main__":
    sys.exit(main())
