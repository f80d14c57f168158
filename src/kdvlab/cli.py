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
import hashlib
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import fields, replace
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .experiments import (
    ExperimentConfig,
    almost_conservation_sweep,
    approx_truncated_sweep,
    first_rise,
    high_freq_insensitivity,
    scaling_check,
    squeeze_witness,
)
from .flow import FlowSpec, _step_count, conservation_report, integrate
from .imethod import IMultiplier, _hierarchy, _modified_energies, _real_lambda
# perfbench/tracing.py wraps big_m5, lambda_n and modified_energy here
from .imethod import big_m5, lambda_n, modified_energy  # noqa: F401
from .resonance import _hyperplane_chunks, verify_factorization
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


def _column_text(col) -> np.ndarray:
    """Each cell's str() as NUL-padded bytes, str() taken once per distinct value.

    Values are told apart by a key: a number's bits (so -0.0 keeps its
    sign), an object column's (Python ints') own values. The distinct keys
    are read back as values through the key view; bytes pass through as
    they are.
    """
    a = np.asarray(col)
    if a.dtype.kind == "S":
        return a
    keys = a if a.dtype == object else np.ascontiguousarray(a).view(f"u{a.itemsize}")
    distinct, inverse = np.unique(keys, return_inverse=True)
    text = [str(v).encode() for v in distinct.view(a.dtype).tolist()]
    return np.array(text, dtype=bytes)[inverse]


def _joined(cells, sep: bytes, end: bytes = b"") -> np.ndarray:
    """Text columns of equal length joined row by row, as one bytes column.

    The rows are one NUL-padded uint8 matrix: each column's bytes in its
    own width, a sep column between two columns and an end column after
    the last, viewed as one bytes cell a row. A row's text is its bytes
    other than NUL, which no cell's text holds.
    """
    n = len(cells[0])

    def block(text):
        if isinstance(text, bytes):
            return np.broadcast_to(np.frombuffer(text, np.uint8), (n, len(text)))
        return np.ascontiguousarray(text).view(np.uint8).reshape(n, text.itemsize)

    parts = [part for c in cells for part in (c, sep)][:-1] + [end]
    rows = np.concatenate([block(part) for part in parts], axis=1)
    return rows.view(f"S{rows.shape[1]}")[:, 0]


def _write_rows(fh, columns) -> None:
    """Write one piece of CSV rows to the open binary file fh. A piece is a
    sequence of equal-length columns: a cell is the str() of its value (a
    float's shortest round-trip repr), the text csv.writer writes, as no
    field here needs quoting. The piece's rows are one byte matrix (see
    _joined), cells joined by "," and ended by a newline, written as its
    bytes other than NUL."""
    cells = [_column_text(c) for c in columns]
    if len({len(c) for c in cells}) > 1:
        raise ValueError(f"columns of unequal length: {[len(c) for c in cells]}")
    rows = _joined(cells, b",", b"\n").view(np.uint8)
    del cells  # copied into rows: dropped before the compaction
    fh.write(rows[rows != 0])


def _write_csv(path: str, header, pieces) -> None:
    """Header, then the rows of each piece (see _write_rows), as CSV. Each
    piece is formatted and written before the next is taken from pieces, so
    a generator of pieces is held one at a time; a failure leaves no file
    (see _write_atomic)."""
    with _write_atomic(path) as fh:
        fh.write(",".join(header).encode() + b"\n")
        for columns in pieces:
            _write_rows(fh, columns)


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
        with _write_atomic(self.path) as fh:
            fh.write((json.dumps(self.data, indent=1) + "\n").encode())


def _built(make, *args, **kwargs):
    """make(*args, **kwargs) on configuration values; a ValueError is a ConfigError.

    Each configuration object's error message names its offending key, as
    does a flow's refusal of an array over spectral.BUDGET_BYTES.
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
    spec = _built(FlowSpec, grid=grid, dt=cfg["dt"], T=cfg["T"], **kwargs)
    _check_at_least(cfg, samples=1)
    return replace(spec, sample_stride=max(1, _step_count(spec) // cfg["samples"]))


def _output_path(cfg: dict, key: str, out_dir: str, prefix: bool = False) -> str:
    """out_dir joined with the key's value, refused unless its directory
    exists; a file path (not a prefix) is refused if it names a directory."""
    path = os.path.join(out_dir, cfg[key])
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"bad value for key {key!r}: no such directory {folder!r}")
    if not prefix and os.path.isdir(path):
        raise ConfigError(f"bad value for key {key!r}: directory {path!r} is not a file")
    return path


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
    _check_at_least(cfg, seed=0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg["seed"]))
    return _built(random_smooth_field, grid, rng, decay=cfg["decay"], norm_value=1.0)


def _cmd_solve(cfg: dict, out_dir: str) -> None:
    prefix = _output_path(cfg, "output", out_dir, prefix=True)
    grid = _built(make_grid, cfg["j"], cfg["K"], cfg["mu"])
    flavor = "truncated" if cfg["N"] is not None else "full"
    spec = _flow_spec(cfg, grid, flavor=flavor, N=cfg["N"], nonlinear=cfg["nonlinear"])
    u0 = _initial_field(cfg, grid)
    traj = _built(integrate, u0, spec)
    for i, (t, u) in enumerate(zip(traj.times, traj.fields)):
        save_snapshot(u, f"{prefix}_{i:04d}.json")
    reports, drifts = conservation_report(traj)
    _write_csv(
        f"{prefix}_conserved.csv",
        ("t", "mass", "l2_energy", "hamiltonian"),
        [zip(*[(r.timestamp, r.mass, r.l2_energy, r.hamiltonian) for r in reports])],
    )
    print(
        f"solve: {traj.stats['steps']} steps, drifts E={drifts['l2_energy']:.3e} "
        f"H={drifts['hamiltonian']:.3e}"
    )


def _cmd_energies(cfg: dict, out_dir: str) -> None:
    """t, E2, E3, E4 and Lambda_5(M5) at each sample of one trajectory, each
    form evaluated once over all samples, from one hierarchy built before
    the flow, and so refused before it if sigma4's table cannot fit."""
    grid = _built(make_grid, cfg["j"], cfg["K"], cfg["mu"])
    spec = _flow_spec(cfg, grid)
    mult = _built(IMultiplier, s=cfg["s"], N=cfg["N"])
    sigmas, m5 = _built(_hierarchy, mult, grid, 5, grid.K)
    u0 = _initial_field(cfg, grid)
    traj = _built(integrate, u0, spec)
    c = traj.coeffs
    energies = _modified_energies(grid, c, mult, sigmas[:-1])
    cols = (traj.times, *energies, _real_lambda(m5, grid, c, "Lambda5M5"))
    header = ("t", "E2", "E3", "E4", "Lambda5M5")
    _write_csv(os.path.join(out_dir, "energies.csv"), header, [cols])


def _cmd_resonance(cfg: dict, out_dir: str) -> None:
    """Exact factorization check on Gamma_3 and Gamma_4, with an optional
    per-tuple CSV; its tuple column is each entry's text joined by spaces.
    Each walk writes its rows as it verifies them, a piece at a time. Both
    walks are made and dropped, and so admitted by the budget, before the
    verifier makes its own and verifies a row: a refused walk names its
    key, and a refusal or a failed factorization leaves no CSV."""
    _check_at_least(cfg, j=1, K=2)
    # with every |k| <= 2, a zero-sum 4-tuple is two cancelling pairs, so
    # Gamma_4 has no non-resonant row: its bound is K4, or K when K4 is unset
    key4 = "K" if cfg["K4"] is None else "K4"
    k4 = cfg[key4]
    if k4 < 3:
        raise ConfigError(f"bad value for key {key4!r}: {k4} (must be >= 3 for Gamma_4)")
    path = _output_path(cfg, "csv", out_dir) if cfg["csv"] else None
    walks = ((3, "K", cfg["K"]), (4, key4, k4))
    for arity, key, K in walks:
        try:
            _hyperplane_chunks(arity, K)
        except ValueError as exc:
            raise ConfigError(f"bad value for key {key!r}: {exc}") from exc
    verdicts = []
    with _write_atomic(path) if path else nullcontext() as fh:
        if fh:
            fh.write(b"tuple,P_n,Q_n,ratio\n")

        def write(piece):
            t, p, q, ratio = piece
            _write_rows(fh, (_joined([_column_text(e) for e in t.T], b" "), p, q, ratio))

        for arity, _, K in walks:
            rep = verify_factorization(cfg["j"], K, arity, sink=write if fh else None)
            if rep.failures:
                raise RunCheckError(
                    f"factorization failed on Gamma_{arity} at {rep.failures[0][0]}"
                )
            verdicts.append(f"Gamma{arity} K={K} count={rep.count} ratio in "
                            f"[{float(rep.min_ratio):.6g}, {float(rep.max_ratio):.6g}]")
    print(f"resonance-check j={cfg['j']}: {'; '.join(verdicts)}; failures 0")


def _experiment_config(cfg: dict) -> ExperimentConfig:
    """The experiment's configuration from the command's keys; it checks them itself."""
    return _built(ExperimentConfig, **{k: v for k, v in cfg.items() if k in _FIELDS})


def _cmd_sweep(sweep, cfg: dict, out_dir: str) -> None:
    """Run the sweep (it refuses its own configuration); CSV and report take its kind as name."""
    ecfg = _experiment_config(cfg)
    result = _built(sweep, ecfg)
    kind = result.kind
    _write_csv(os.path.join(out_dir, f"{kind}.csv"), result.columns, [zip(*result.rows)])
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
    result = _built(squeeze_witness, ecfg)
    save_snapshot(result.u0, os.path.join(out_dir, "witness.json"))
    _write_csv(
        os.path.join(out_dir, "squeeze.csv"),
        ("k0", "radius", "witness_value", "threshold_r"),
        [([ecfg.k0], [ecfg.radius], [result.value], [r])],
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
    result = _built(scaling_check, ecfg)
    _write_csv(
        os.path.join(out_dir, "scaling-check.csv"), result.columns, [zip(*result.rows)]
    )
    d = result.diagnostics
    print(
        f"scaling-check: max mismatch {d['max_mismatch']:.3e}, norm ratio error "
        f"{d['norm_ratio_rel_error']:.3e}"
    )


# command -> (its run, its keys). An ExperimentConfig field's key maps to
# whether the command requires it, the CLI's own keys to (type name,
# required, default). A sweep is looked up by its name when it runs, so a
# wrapper installed on that name (perfbench/tracing.py) sees it.
_FLOW = {"j": True, "K": True, "mu": False, "dt": False, "T": False, "seed": False,
         "decay": False}
_COMMANDS = {
    "solve": (_cmd_solve, {
        **_FLOW, "dt": True, "T": True, "N": ("float", False, None),
        "input": ("str", False, None), "output": ("str", False, "run"),
        "samples": ("int", False, 8), "nonlinear": ("bool", False, True),
    }),
    "energies": (_cmd_energies, {
        **_FLOW, "s": True, "N": ("float", True, None), "input": ("str", False, None),
        "samples": ("int", False, 32),
    }),
    "resonance-check": (_cmd_resonance, {
        "j": True, "K": True, "K4": ("int", False, None), "csv": ("str", False, None),
    }),
    "approx-sweep": (
        partial(_cmd_sweep, lambda e: approx_truncated_sweep(e)),
        {**_FLOW, "N_list": True},
    ),
    "tail-sweep": (
        partial(_cmd_sweep, lambda e: high_freq_insensitivity(e)),
        {**_FLOW, "N_list": True, "tail_size": False},
    ),
    "almost-cons": (
        partial(_cmd_sweep, lambda e: almost_conservation_sweep(e)),
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
