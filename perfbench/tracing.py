"""Spans and exact counters around kdvlab's public functions.

``Tracer.install`` replaces public functions of the six kdvlab modules in
the modules that call them (``kdvlab.cli`` calls the experiments, the
experiments call ``integrate``, ``flow_jacobian`` calls ``integrate``, and
so on), so no file of the package changes. Every wrapper keeps exact
counters; with spans enabled it also records one span per call (name,
start, end, parent, run id) in memory, written out when the run ends.

Functions called once per lattice tuple or per FFT (``p_n``, ``q_n``, the
RHS closure) are deliberately not wrapped: their cost stays in the
caller's self time, where it belongs for the layer accounting.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from functools import lru_cache
from statistics import median

LAYERS = ("cli", "experiments", "flow", "imethod", "resonance", "spectral")

# (module whose global the caller resolves, attribute, span name)
SITES = (
    ("kdvlab.cli", "main", "cli.main"),
    ("kdvlab.cli", "almost_conservation_sweep", "experiments.almost_conservation_sweep"),
    ("kdvlab.cli", "approx_truncated_sweep", "experiments.approx_truncated_sweep"),
    ("kdvlab.cli", "high_freq_insensitivity", "experiments.high_freq_insensitivity"),
    ("kdvlab.cli", "squeeze_witness", "experiments.squeeze_witness"),
    ("kdvlab.cli", "scaling_check", "experiments.scaling_check"),
    ("kdvlab.cli", "integrate", "flow.integrate"),
    ("kdvlab.experiments", "integrate", "flow.integrate"),
    ("kdvlab.flow", "integrate", "flow.integrate"),
    ("kdvlab.cli", "conservation_report", "flow.conservation_report"),
    ("kdvlab.flow", "flow_jacobian", "flow.flow_jacobian"),
    ("kdvlab.flow", "check_symplectic", "flow.check_symplectic"),
    ("kdvlab.cli", "lambda_n", "imethod.lambda_n"),
    ("kdvlab.cli", "modified_energy", "imethod.modified_energy"),
    ("kdvlab.experiments", "modified_energy", "imethod.modified_energy"),
    ("kdvlab.cli", "big_m5", "imethod.big_m5"),
    ("kdvlab.cli", "verify_factorization", "resonance.verify_factorization"),
    ("kdvlab.cli", "make_grid", "spectral.make_grid"),
    ("kdvlab.experiments", "make_grid", "spectral.make_grid"),
    ("kdvlab.cli", "random_smooth_field", "spectral.random_smooth_field"),
    ("kdvlab.cli", "save_snapshot", "spectral.save_snapshot"),
    ("kdvlab.cli", "load_snapshot", "spectral.load_snapshot"),
    ("kdvlab.experiments", "project", "spectral.project"),
    ("kdvlab.experiments", "sobolev_norm", "spectral.sobolev_norm"),
    ("kdvlab.flow", "symplectic_form", "spectral.symplectic_form"),
    ("kdvlab.flow", "conserved_quantities", "spectral.conserved_quantities"),
)

# ETDRK4 and Lawson-RK4 both evaluate the nonlinearity four times a step.
RHS_PER_STEP = 4


@lru_cache(maxsize=None)
def gamma_count(n: int, K: int) -> int:
    """|Gamma_n|: n-tuples of nonzero integers in [-K, K] summing to zero."""
    ways = {0: 1}
    for _ in range(n):
        nxt = defaultdict(int)
        for total, count in ways.items():
            for k in range(-K, K + 1):
                if k:
                    nxt[total + k] += count
        ways = nxt
    return ways.get(0, 0)


def bytes_per_step_computed(K: int, P: int) -> int:
    """Bytes one ETDRK4 step reads and writes, computed from array sizes.

    Per RHS: the zero-padded half spectrum (P//2+1 complex) is written,
    filled, inverse-transformed to P reals, squared and transformed back;
    the K-mode slice is scaled, differentiated and masked. Per step: four
    RHS plus 20 elementwise complex K-vector operations (two reads, one
    write each) for the stage combinations, and the blow-up scan of |c|.
    Ignores caches, so it is an upper bound on memory traffic.
    """
    H = P // 2 + 1
    rhs = 16 * H * 3 + 8 * P * 4 + 16 * K * 13 + K
    return RHS_PER_STEP * rhs + 20 * 48 * K + 32 * K


class Tracer:
    """Exact counters always; spans when ``spans`` is true."""

    def __init__(self, run_id: str, spans: bool):
        self.run_id = run_id
        self.spans_on = spans
        self.spans: list = []  # [id, name, start, end, parent]
        self._stack: list = []
        self.counts: dict = defaultdict(int)
        self.integrate_ms: list = []
        self.lambda_s: list = []
        self.fft_points = 0
        self.bytes_per_step = 0
        self.ascent_solves = 0
        self.ascent_accepted = 0

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> list:
        span = [len(self.spans), name, time.perf_counter(), None,
                self._stack[-1][0] if self._stack else None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            solves_before = self.counts["flow.integrate.calls"]
            span = self.begin(name) if self.spans_on else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                if span is not None:
                    self.end(span)
            if hook is not None:
                hook(args, kwargs, result, elapsed, solves_before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import importlib

        wrappers: dict = {}
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            key = id(getattr(fn, "__wrapped__", fn))
            if key not in wrappers:
                wrappers[key] = self.wrap(fn, name)
            setattr(module, attr, wrappers[key])

    # -- exact counters ------------------------------------------------
    def _on_flow_integrate(self, args, kwargs, traj, elapsed, _):
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        steps = int(traj.stats["steps"])
        self.counts["flow.steps"] += steps
        if spec.nonlinear:
            self.counts["flow.rhs_calls"] += RHS_PER_STEP * steps
        g = spec.grid
        if g.physical_points > self.fft_points:
            self.fft_points = g.physical_points
            self.bytes_per_step = bytes_per_step_computed(g.K, g.physical_points)
        self.integrate_ms.append(elapsed * 1e3)

    def _on_imethod_lambda_n(self, args, kwargs, value, elapsed, _):
        form, fields = args[0], args[1]
        self.counts["imethod.tuples"] += gamma_count(form.n, fields[0].grid.K)
        self.lambda_s.append(elapsed)

    def _on_imethod_modified_energy(self, args, kwargs, value, elapsed, _):
        u = args[0]
        order = args[2] if len(args) > 2 else kwargs["order"]
        K = u.grid.K
        self.counts["imethod.tuples"] += sum(gamma_count(n, K) for n in (3, 4) if order >= n)

    def _on_resonance_verify_factorization(self, args, kwargs, report, elapsed, _):
        self.counts["resonance.tuples"] += report.count

    def _on_experiments_squeeze_witness(self, args, kwargs, result, elapsed, solves_before):
        cfg = args[0]
        solves = self.counts["flow.integrate.calls"] - solves_before
        # Solves outside the ascent: the centre, the samples+1 starts, the final
        # re-evaluation (see experiments.squeeze_witness).
        self.ascent_solves += solves - (cfg.samples + 1) - 2
        self.ascent_accepted += result.improvements

    # -- derived metrics -----------------------------------------------
    def self_times(self) -> list:
        """Per span: duration minus the time its child spans cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        out = []
        for span in self.spans:
            covered, last = 0.0, span[2]
            for start, end in sorted(children[span[0]]):
                start = max(start, last)
                if end > start:
                    covered += end - start
                    last = end
            out.append(span[3] - span[2] - covered)
        return out

    def metrics(self, wall_s: float) -> dict:
        """Every per-layer metric as {name: (value, unit)}."""
        c = self.counts
        busy, self_s = defaultdict(float), defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            busy[span[1]] += span[3] - span[2]
            self_s[span[1]] += own
        steps = c["flow.steps"]
        lam = self.lambda_s
        m = {
            "flow.integrate.calls": (c["flow.integrate.calls"], "count"),
            "flow.integrate.busy_s": (busy["flow.integrate"], "s"),
            "flow.steps": (steps, "count"),
            "flow.us_per_step": (busy["flow.integrate"] / steps * 1e6 if steps else 0.0, "us"),
            "flow.integrate.p50_ms": (_quantile(self.integrate_ms, 0.5), "ms"),
            "flow.integrate.p99_ms": (_quantile(self.integrate_ms, 0.99), "ms"),
            "flow.fft_points": (self.fft_points, "count"),
            "flow.rhs_calls": (c["flow.rhs_calls"], "count"),
            "flow.bytes_per_step_computed": (self.bytes_per_step, "B"),
            "flow.flow_jacobian.calls": (c["flow.flow_jacobian.calls"], "count"),
            "flow.flow_jacobian.busy_s": (busy["flow.flow_jacobian"], "s"),
            "flow.check_symplectic.calls": (c["flow.check_symplectic.calls"], "count"),
            "flow.check_symplectic.busy_s": (busy["flow.check_symplectic"], "s"),
            "imethod.lambda_n.calls": (c["imethod.lambda_n.calls"], "count"),
            "imethod.lambda_n.cold_s": (lam[0] if lam else 0.0, "s"),
            "imethod.lambda_n.warm_s": (median(lam[1:]) if len(lam) > 1 else 0.0, "s"),
            "imethod.modified_energy.calls": (c["imethod.modified_energy.calls"], "count"),
            "imethod.modified_energy.busy_s": (busy["imethod.modified_energy"], "s"),
            "imethod.tuples": (c["imethod.tuples"], "count"),
            "resonance.verify_factorization.calls": (
                c["resonance.verify_factorization.calls"], "count"),
            "resonance.verify_factorization.busy_s": (
                busy["resonance.verify_factorization"], "s"),
            "resonance.tuples": (c["resonance.tuples"], "count"),
            "resonance.tuples_per_s": (
                c["resonance.tuples"] / busy["resonance.verify_factorization"]
                if c["resonance.tuples"] else 0.0, "1/s"),
            "cli.main.calls": (c["cli.main.calls"], "count"),
            "cli.main.self_s": (self_s["cli.main"], "s"),
            "experiments.ascent_accept_ratio": (
                self.ascent_accepted / self.ascent_solves if self.ascent_solves else 0.0,
                "ratio"),
        }
        for fn in ("almost_conservation_sweep", "approx_truncated_sweep",
                   "high_freq_insensitivity", "squeeze_witness"):
            m[f"experiments.{fn}.self_s"] = (self_s[f"experiments.{fn}"], "s")
        for fn in ("sobolev_norm", "project", "save_snapshot"):
            m[f"spectral.{fn}.busy_s"] = (busy[f"spectral.{fn}"], "s")
        # Self time by layer; with the benchmark's own spans ("bench") these
        # partition the traced wall time.
        for layer in LAYERS + ("bench",):
            m[f"layer.{layer}.self_s"] = (
                sum(v for k, v in self_s.items() if k.split(".")[0] == layer), "s")
        m["trace.wall_s"] = (wall_s, "s")
        m["trace.spans"] = (len(self.spans), "count")
        return m

    def span_records(self) -> list:
        return [
            {"run": self.run_id, "id": s[0], "name": s[1], "start": s[2], "end": s[3],
             "parent": s[4]}
            for s in self.spans
        ]


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile; the single value when there is one."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]
