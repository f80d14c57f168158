"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload in smoke mode (every operation at minimal length,
traced and untraced) and checks that each metric is present with its
unit and a finite value, that the exact counters repeat, that the output
check catches a wrong output, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

END_TO_END_PRINTED = ("setup_s", "wall_s", "steps_per_s", "tuples_per_s", "peak_rss_mb",
                      "failed_frac")
# Every per-layer metric the benchmark defines, including the layer-specific
# times that only the printed table carries.
PER_LAYER_PRINTED = (
    "flow.integrate.calls", "flow.integrate.busy_s", "flow.steps", "flow.us_per_step",
    "flow.integrate.p50_ms", "flow.integrate.p99_ms", "flow.rhs_us", "flow.fft_points",
    "flow.rhs_calls", "flow.bytes_per_step_computed", "flow.flow_jacobian.busy_s",
    "flow.check_symplectic.busy_s", "imethod.lambda_n.calls", "imethod.lambda_n.cold_s",
    "imethod.lambda_n.warm_s", "imethod.modified_energy.calls",
    "imethod.modified_energy.busy_s", "imethod.tuples",
    "resonance.verify_factorization.busy_s", "resonance.tuples", "resonance.tuples_per_s",
    "cli.main.self_s", "cli.bytes_written", "experiments.almost_conservation_sweep.self_s",
    "experiments.approx_truncated_sweep.self_s", "experiments.high_freq_insensitivity.self_s",
    "experiments.squeeze_witness.self_s", "experiments.ascent_accept_ratio",
    "spectral.sobolev_norm.busy_s", "spectral.project.busy_s", "spectral.save_snapshot.busy_s",
    "trace.wall_s", "trace.overhead_s",
)
EXACT_COUNTS = ("imethod.tuples", "resonance.tuples", "flow.steps", "flow.rhs_calls")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _tagged(stdout: str, tag: str) -> dict:
    line = next(ln for ln in stdout.splitlines() if ln.startswith(tag + " "))
    return json.loads(line[len(tag) + 1:])


@pytest.fixture(scope="module")
def smoke():
    """Per workload: one untraced and two traced smoke runs."""
    out = {}
    for name in workloads.WORKLOADS:
        runs = [_run("--workload", name, "--seed", "5", "--seconds", "0", "--trace", t,
                     "--smoke") for t in ("0", "1", "1")]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
        out[name] = runs
    return out


def _assert_metrics(metrics: dict, expected: dict) -> None:
    assert set(metrics) == set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, name
        assert math.isfinite(metrics[name]["value"]), name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_reports_every_metric(smoke, name, tmp_path):
    plain, traced, _ = smoke[name]
    n_ops = len(workloads.build(name, 5, True, str(tmp_path)))
    # A traced run also makes one untraced iteration, for the overhead.
    for proc, section, iterations in ((plain, "end_to_end", 1), (traced, "per_layer", 2)):
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] == iterations * n_ops
        _assert_metrics(result["metrics"], {m["name"]: m["unit"] for m in BENCHMARK[section]})
    e2e = _tagged(plain.stdout, "end-to-end-json")
    assert set(e2e) == set(END_TO_END_PRINTED)
    assert all(math.isfinite(v["value"]) and v["unit"] for v in e2e.values())
    layer = _tagged(traced.stdout, "layer-json")
    assert set(PER_LAYER_PRINTED) <= set(layer)
    assert all(math.isfinite(v["value"]) and v["unit"] for v in layer.values())
    # Layer self times partition the traced wall time of the root span.
    selfs = sum(v["value"] for k, v in layer.items() if k.startswith("layer."))
    assert selfs == pytest.approx(layer["trace.wall_s"]["value"], rel=1e-3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat(smoke, name):
    first, second = (_tagged(p.stdout, "layer-json") for p in smoke[name][1:])
    for count in EXACT_COUNTS:
        assert first[count]["value"] == second[count]["value"], count
    assert first["flow.rhs_calls"]["value"] == 4 * first["flow.steps"]["value"]


def test_benchmark_json_matches_harness():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        n: w.why for n, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert set(run.PER_LAYER) <= set(PER_LAYER_PRINTED) | {
        "flow.flow_jacobian.calls", "flow.check_symplectic.calls",
        "resonance.verify_factorization.calls", "cli.main.calls", "layer.bench.self_s"}


def test_reference_covers_every_variant():
    with open(run.REFERENCE) as fh:
        ref = json.load(fh)
    assert ref["variants"] == workloads.VARIANTS
    for name in workloads.WORKLOADS:
        assert sorted(ref["workloads"][name], key=int) == [
            str(v) for v in range(workloads.VARIANTS)]


def test_gamma_count_matches_enumeration():
    for n, K in ((2, 3), (3, 3), (4, 3), (5, 2)):
        vals = [k for k in range(-K, K + 1) if k]
        brute = sum(1 for t in itertools.product(vals, repeat=n) if sum(t) == 0)
        assert tracing.gamma_count(n, K) == brute


def test_check_flags_wrong_outputs():
    obs = {"op": "x", "exit": 1, "error": None, "tolerance": [1e-6, 1e-12],
           "text": "v=#\n", "numbers": [1.0],
           "files": {"a.csv": {"sha256": "s", "text": "#\n", "numbers": [2.0]},
                     "big.csv": {"sha256": "t"}}}
    ref = copy.deepcopy(obs)
    assert run.check(obs, ref) == []
    for path, value in ((("exit",), 0), (("numbers",), [1.001]),
                        (("files", "a.csv", "numbers"), [2.1]),
                        (("files", "big.csv", "sha256"), "u"), (("text",), "w=#\n"),
                        (("numbers",), [math.nan]), (("error",), "ValueError: boom")):
        bad = copy.deepcopy(obs)
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert run.check(bad, ref), path


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run("--workload", "wide-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
