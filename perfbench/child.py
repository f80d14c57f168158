"""One workload iteration in a fresh process; started by run.py.

Usage: python3 child.py '<json request>'

Prints one JSON line: the wall-clock time at which set-up ended (import
of numpy and kdvlab, inputs drawn and written), and for a full iteration
the wall time of the verification runs, the exact counters, the peak
resident memory, and what each operation produced. With tracing on it
also returns every span and the per-layer metrics.

It also times a fixed speed probe (``calibrate``) after set-up and after
each verification run, outside the timed regions; run.py scales its
medians by the probe times (see CAL_REF_S).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time

# The speed probe's time on an idle core of the reference host (2-core
# Xeon at 2.1 GHz, Python 3.11, numpy 2.4). That host shares its cores with
# other tenants, whose load slows every process by up to 1.9x for seconds
# to minutes at a time. Each run divides its median times by the mean
# probe time over CAL_REF_S (its host slowdown), so that most of that drift
# cancels; on an idle core the reported times are close to the wall times.
CAL_REF_S = 0.18
CAL_REPEATS = 24000

# Files above this size are checked by digest only (the exact-arithmetic
# resonance CSV); smaller outputs are also compared number by number.
NUMBERS_MAX_BYTES = 64 * 1024
_NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?![\w.])"
    r"|(?<![\w.])[-+]?(?:nan|inf)(?![\w.])"
)


def digest_text(text: str) -> dict:
    """Text skeleton (numbers replaced by '#') and the numbers themselves."""
    numbers = [float(tok) for tok in _NUMBER.findall(text)]
    return {"text": _NUMBER.sub("#", text), "numbers": numbers}


def observe_dir(path: str) -> dict:
    """Digest of every output file of one run, except the timestamped manifest."""
    files = {}
    for name in sorted(os.listdir(path)):
        if name == "manifest.json":
            continue
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        entry = {"sha256": hashlib.sha256(data).hexdigest()}
        if len(data) <= NUMBERS_MAX_BYTES:
            entry.update(digest_text(data.decode()))
        files[name] = entry
    return files


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


def calibrate() -> float:
    """Seconds for a fixed small-array numpy loop that shares no state with kdvlab."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 64) + 1j * np.linspace(1.0, 0.0, 64)
    y = np.exp(1j * np.arange(64))
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(CAL_REPEATS):
        z = x * y + 0.5 * x
        acc += float(np.abs(np.where(z.real > 0.2, z, 0.0)).max())
    return time.perf_counter() - t0


def run_op(op, kdvlab, workloads) -> dict:
    """Run one operation with its printed output captured."""
    out, err = io.StringIO(), io.StringIO()
    exit_code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op.argv is not None:
                exit_code = kdvlab.cli.main(op.argv)
            else:
                print(workloads.run_python_op(op, kdvlab), end="")
                exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code
        except Exception as exc:  # a failed operation, recorded and reported
            error = f"{type(exc).__name__}: {exc}"
    return {"exit": exit_code, "error": error, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def main() -> int:
    req = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(req["root"], "src"))
    import numpy
    import kdvlab
    import kdvlab.cli
    import tracing
    import workloads

    ops = workloads.build(req["workload"], req["seed"], req["smoke"], req["work_dir"])
    result = {"setup_end": time.time(), "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    result["cal_s"] = [calibrate()]
    if req["mode"] == "setup":
        print(json.dumps(result))
        return 0

    tracer = tracing.Tracer(req["run_id"], spans=req["trace"])
    tracer.install()
    raw, op_s = [], []
    for op in ops:
        span = tracer.begin("bench.op") if req["trace"] else None
        t0 = time.perf_counter()
        raw.append(run_op(op, kdvlab, workloads))
        op_s.append(time.perf_counter() - t0)
        if span is not None:
            tracer.end(span)
        result["cal_s"].append(calibrate())
    wall_s = sum(op_s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    observations = []
    bytes_written = 0
    for op, r in zip(ops, raw):
        obs = {"op": op.name, "exit": r["exit"], "error": r["error"],
               "tolerance": list(op.tolerance),
               **digest_text(r["stdout"] + r["stderr"]), "files": {}}
        if op.argv is not None:
            out_dir = op.argv[op.argv.index("--out") + 1]
            if os.path.isdir(out_dir):
                obs["files"] = observe_dir(out_dir)
                bytes_written += _dir_bytes(out_dir)
        observations.append(obs)

    result.update(
        wall_s=wall_s, rss_mb=rss_mb, observations=observations,
        steps=tracer.counts["flow.steps"],
        tuples=tracer.counts["imethod.tuples"] + tracer.counts["resonance.tuples"],
    )
    if req["trace"]:
        metrics = tracer.metrics(wall_s)
        metrics["cli.bytes_written"] = (bytes_written, "B")
        metrics["flow.rhs_us"] = (rhs_probe(kdvlab, *workloads.WORKLOADS[req["workload"]].probe), "us")
        result.update(metrics=metrics, spans=tracer.span_records())
    print(json.dumps(result))
    return 0


def rhs_probe(kdvlab, j: int, K: int, repeats: int = 201) -> float:
    """Median microseconds of one public ``nonlinear_rhs`` call at (j, K)."""
    import numpy as np

    grid = kdvlab.make_grid(j, K)
    u = kdvlab.random_smooth_field(grid, np.random.default_rng(0))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kdvlab.flow.nonlinear_rhs(u)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2] * 1e6


if __name__ == "__main__":
    sys.exit(main())
