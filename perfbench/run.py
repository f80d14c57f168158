"""kdvlab benchmark: four verification-run workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``). Each iteration of the workload is a fresh single-threaded
process (BLAS and OpenMP pinned to one thread) that imports kdvlab, draws
the workload's inputs from the seed and runs its verification runs, so it
pays what a command-line user pays: cold caches, import and output
writes. Iterations repeat until ``--seconds`` have passed; medians are
reported. A few set-up-only processes are started first, so ``setup_s``
is a median even when one iteration fills the run. Times and rates are
reported at the reference core speed (see CAL_REF_S in child.py); the
unscaled samples are printed as well.

Every operation's exit code, printed verdict numbers and output files are
checked against ``reference.json``, recorded at the seed commit for every
input the seed can select. Honest FAIL verdicts (exit 1) that the
reference records are expected outputs, not failures.

``--trace 0`` measures with spans off and prints the end-to-end metrics.
``--trace 1`` alternates traced and untraced iterations (at least one of
each), prints every per-layer metric, the self-time accounting and the
tracing overhead (traced minus untraced ``wall_s``), and writes the spans
to ``perfbench/.out/``. The last line of standard output is the result
as JSON.

Other modes: ``--smoke`` runs every operation at minimal length without
reference checks (for the benchmark's own tests); ``--record`` runs every
input variant of the named workloads once and rewrites ``reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from statistics import mean, median, median_low

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_RUNS = 3
RUN_DEADLINE_S = 175.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from child import CAL_REF_S  # noqa: E402

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}
# Per-layer metrics that are a count, or a time every workload exercises.
# The rest of the per-layer table (layer-specific times) is printed only.
PER_LAYER = (
    "flow.integrate.calls", "flow.integrate.busy_s", "flow.steps", "flow.us_per_step",
    "flow.integrate.p50_ms", "flow.integrate.p99_ms", "flow.rhs_us", "flow.fft_points",
    "flow.rhs_calls", "flow.bytes_per_step_computed", "flow.flow_jacobian.calls",
    "flow.check_symplectic.calls", "imethod.lambda_n.calls",
    "imethod.modified_energy.calls", "imethod.tuples",
    "resonance.verify_factorization.calls", "resonance.tuples", "cli.main.calls",
    "cli.main.self_s", "cli.bytes_written", "layer.bench.self_s", "trace.wall_s",
    "trace.overhead_s",
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child(request: dict, deadline: float) -> dict:
    # A fixed hash seed and no bytecode cache keep set-up the same in every
    # process and every checkout.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               **{k: "1" for k in THREAD_ENV})
    started = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(request)],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"iteration exceeded the run deadline: {exc}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"benchmark process failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end"] - started
    return result


def _close(a: float, b: float, tol) -> bool:
    if not math.isfinite(a):
        return False
    return math.isclose(a, b, rel_tol=tol[0], abs_tol=tol[1])


def _compare(got: dict, ref: dict, tol, where: str) -> list:
    problems = []
    if got["text"] != ref["text"]:
        problems.append(f"{where}: text differs")
    elif len(got["numbers"]) != len(ref["numbers"]):
        problems.append(f"{where}: number count differs")
    else:
        for i, (a, b) in enumerate(zip(got["numbers"], ref["numbers"])):
            if not _close(a, b, tol):
                problems.append(f"{where}: value {i} is {a!r}, reference {b!r}")
                break
    return problems


def check(obs: dict, ref: dict | None) -> list:
    """Problems with one operation's outputs; empty when it passed.

    Without a reference (smoke mode) only exceptions, unexpected exit
    codes and non-finite numbers count.
    """
    name = obs["op"]
    problems = []
    if obs["error"]:
        problems.append(f"{name}: exception {obs['error']}")
    if obs["exit"] not in (0, 1):
        problems.append(f"{name}: exit code {obs['exit']}")
    values = list(obs["numbers"])
    for f in obs["files"].values():
        values += f.get("numbers", [])
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{name}: non-finite output")
    if ref is None or problems:
        return problems
    tol = obs["tolerance"]
    if obs["exit"] != ref["exit"]:
        problems.append(f"{name}: exit {obs['exit']}, reference {ref['exit']}")
    problems += _compare(obs, ref, tol, f"{name} output")
    if sorted(obs["files"]) != sorted(ref["files"]):
        problems.append(f"{name}: files {sorted(obs['files'])}, reference {sorted(ref['files'])}")
        return problems
    for fname, f in obs["files"].items():
        r = ref["files"][fname]
        if "numbers" in r:
            problems += _compare(f, r, tol, f"{name} {fname}")
        elif f["sha256"] != r["sha256"]:
            problems.append(f"{name} {fname}: digest differs from the reference")
    return problems


def _digests_changed(observations: list, refs: list) -> int:
    return sum(
        f["sha256"] != r["files"].get(n, {}).get("sha256")
        for o, r in zip(observations, refs) for n, f in o["files"].items()
    )


def run_record(args, children: list) -> dict:
    """Git sha, source digest, versions and settings of this run."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "kdvlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha, "src_sha256": src.hexdigest(),
        "python": children[0]["python"], "numpy": children[0]["numpy"],
        "nproc": os.cpu_count(), "blas_threads": {k: "1" for k in THREAD_ENV},
        "workload": args.workload, "seed": args.seed,
        "input_variant": workloads.variant_of(args.seed), "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
    }


def _work_dir(workload: str) -> str:
    return os.path.join(OUT, f"work-{workload}-{os.getpid()}")


def _request(args, mode: str, trace: bool, index: int) -> dict:
    work = _work_dir(args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return {"root": ROOT, "workload": args.workload, "seed": args.seed,
            "smoke": args.smoke, "work_dir": work, "mode": mode, "trace": trace,
            "run_id": f"{args.workload}-s{args.seed}-i{index}"}


def measure(args, deadline: float) -> dict:
    """Set-up probes, then iterations until --seconds have passed."""
    start = time.monotonic()
    setups = [_child(_request(args, "setup", False, -1 - i), deadline)
              for i in range(SETUP_RUNS)]
    iterations = []
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 0
        iterations.append(_child(_request(args, "run", traced, len(iterations)), deadline))
        iterations[-1]["traced"] = traced
        done = time.monotonic() - start >= args.seconds
        kinds = {it["traced"] for it in iterations}
        if done and (not args.trace or kinds == {True, False}):
            break
    shutil.rmtree(_work_dir(args.workload), ignore_errors=True)
    return {"setups": setups, "iterations": iterations}


def load_reference(args) -> list | None:
    if args.smoke:
        return None
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    return ref["workloads"][args.workload][str(workloads.variant_of(args.seed))]


def report(args, data: dict, reference: list | None) -> dict:
    its = data["iterations"]
    plain = [it for it in its if not it["traced"]]
    traced = [it for it in its if it["traced"]]
    attempted = failed = changed = 0
    problems = []
    for it in its:
        for i, obs in enumerate(it["observations"]):
            found = check(obs, None if reference is None else reference[i])
            attempted += 1
            failed += bool(found)
            problems += found
        if reference is not None:
            changed += _digests_changed(it["observations"], reference)
    for p in sorted(set(problems)):
        print(f"FAILED {p}")

    record = run_record(args, data["setups"])
    print("run record:", json.dumps(record))
    setups = data["setups"] + its
    probes = [c for child in setups for c in child["cal_s"]]
    slowdown = mean(probes) / CAL_REF_S
    wall = median(it["wall_s"] for it in plain) / slowdown
    e2e = {
        "setup_s": median(c["setup_s"] for c in setups) / slowdown,
        "wall_s": wall,
        "steps_per_s": median(it["steps"] / it["wall_s"] for it in plain) * slowdown,
        "tuples_per_s": median(it["tuples"] / it["wall_s"] for it in plain) * slowdown,
        "peak_rss_mb": median(it["rss_mb"] for it in plain),
        "failed_frac": failed / attempted,
    }
    units = dict(END_TO_END, tuples_per_s="1/s", failed_frac="ratio")
    print(f"end-to-end {args.workload}: {len(plain)} untraced iterations, "
          f"{len(setups)} set-ups, {attempted} operations, {failed} failed, "
          f"{changed} output files whose digest differs from the reference")
    print(f"  host slowdown {slowdown:.4g}x from {len(probes)} speed probes; times below are "
          "medians divided by it, rates are multiplied by it")
    print("  unscaled wall_s samples:", " ".join(f"{it['wall_s']:.4f}" for it in plain))
    for name, value in e2e.items():
        print(f"  {name:<14} {value:.6g} {units[name]}")
    print("end-to-end-json", json.dumps({k: {"value": v, "unit": units[k]} for k, v in e2e.items()}))
    metrics = {k: e2e[k] for k in END_TO_END}
    units_out = END_TO_END
    if args.trace:
        # median_low keeps counts whole: it returns one of the samples.
        layer = {name: (median_low(it["metrics"][name][0] for it in traced), unit)
                 for name, (_, unit) in traced[0]["metrics"].items()}
        overhead = median(it["wall_s"] for it in traced) / slowdown - wall
        layer["trace.overhead_s"] = (overhead, "s")
        print(f"per-layer {args.workload}: {len(traced)} traced iterations")
        for name, (value, unit) in layer.items():
            print(f"  {name:<42} {value:.6g} {unit}")
        total = sum(v for k, (v, _) in layer.items() if k.startswith("layer."))
        print(f"self-time accounting: layers sum to {total:.6g} s of traced wall_s "
              f"{layer['trace.wall_s'][0]:.6g} s")
        print(f"tracing overhead: {overhead:.6g} s, {overhead / wall:+.2%} of untraced wall_s "
              f"{wall:.6g} s (both at the reference core speed)")
        print("layer-json", json.dumps({k: {"value": v, "unit": u} for k, (v, u) in layer.items()}))
        write_trace(args, record, traced)
        metrics = {k: layer[k][0] for k in PER_LAYER}
        units_out = {k: layer[k][1] for k in PER_LAYER}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_out[k]} for k, v in metrics.items()},
    }


def write_trace(args, record: dict, traced: list) -> None:
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"run_record": record}) + "\n")
        for it in traced:
            for span in it["spans"]:
                fh.write(json.dumps(span) + "\n")
    print(f"spans written to {os.path.relpath(path, ROOT)}")


def record_reference(names: list, deadline_s: float) -> None:
    """Run every input variant once and store its outputs as the reference."""
    try:
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {"variants": workloads.VARIANTS, "workloads": {}}
    for name in names:
        per = {}
        for v in range(workloads.VARIANTS):
            args = argparse.Namespace(workload=name, seed=v, smoke=False)
            it = _child(_request(args, "run", False, 0), time.monotonic() + deadline_s)
            for obs in it["observations"]:
                problems = check(obs, None)
                if problems:
                    raise BenchError(f"{name} variant {v}: {problems}")
                obs.pop("error")
                obs.pop("tolerance")
            per[str(v)] = it["observations"]
            print(f"recorded {name} variant {v}: exits "
                  f"{[o['exit'] for o in it['observations']]}", flush=True)
        ref["workloads"][name] = per
        shutil.rmtree(_work_dir(name), ignore_errors=True)
        with open(REFERENCE, "w") as fh:
            json.dump(ref, fh, indent=0, sort_keys=True)
            fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "kdvlab", "cli.py")):
            raise BenchError(f"no kdvlab sources under {os.path.join(ROOT, 'src')}")
        os.makedirs(OUT, exist_ok=True)
        if args.record:
            record_reference([args.workload] if args.workload else sorted(workloads.WORKLOADS),
                             RUN_DEADLINE_S)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        reference = load_reference(args)
        data = measure(args, time.monotonic() + RUN_DEADLINE_S)
        result = report(args, data, reference)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
