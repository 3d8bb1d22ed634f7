"""Span tracing from outside the program, and the per-layer metrics derived from it.

The tracer replaces public functions of the ``jumpvol`` modules by module
attribute with timing wrappers.  A function is wrapped where its caller looks
it up: ``run_chain`` calls ``forward_filter`` through ``jumpvol.gibbs``, so the
wrapper goes on ``jumpvol.gibbs.forward_filter``.  Each call records a span
(name, start, end, parent) in memory; the spans are written out once, at the
end of the run.  Nothing inside the program is changed on disk.

A patch point whose attribute no longer exists is skipped.  A metric whose
spans all come from skipped patch points is reported as absent (null), so a
later change that removes or renames a function does not crash the run.
"""

from __future__ import annotations

import csv
import importlib
import os
from time import perf_counter_ns

# (module, attribute, span name).  The same span name on several patch points
# means one layer reached from several callers.
PATCH_POINTS = [
    ("jumpvol.gibbs", "run_chain", "gibbs.run_chain"),
    ("jumpvol.cli", "run_multi", "gibbs.run_multi"),
    ("jumpvol.gibbs", "sample_mu", "conditionals.sample_mu"),
    ("jumpvol.gibbs", "forward_filter", "volatility.forward_filter"),
    ("jumpvol.gibbs", "backward_sample", "volatility.backward_sample"),
    ("jumpvol.gibbs", "sample_mixture_path", "conditionals.mixture"),
    ("jumpvol.gibbs", "sample_jump_mean", "conditionals.jump_mean"),
    ("jumpvol.gibbs", "sample_jump_var", "conditionals.jump_var"),
    ("jumpvol.gibbs", "sample_jump_sizes", "conditionals.jump_sizes"),
    ("jumpvol.gibbs", "jump_indicator_probs", "conditionals.indicator_probs"),
    ("jumpvol.gibbs", "apply_jump_threshold", "conditionals.threshold"),
    ("jumpvol.gibbs", "sample_jump_prob", "conditionals.jump_prob"),
    ("jumpvol.gibbs", "conditional_log_lik", "diagnostics.log_lik"),
    ("jumpvol.diagnostics", "conditional_log_lik", "diagnostics.log_lik"),
    ("jumpvol.cli", "conditional_log_lik", "diagnostics.log_lik"),
    ("jumpvol.diagnostics", "build_report", "diagnostics.build_report"),
    ("jumpvol.cli", "build_report", "diagnostics.build_report"),
    ("jumpvol.gibbs", "sample_normal", "rng.normal"),
    ("jumpvol.gibbs", "sample_beta", "rng.beta"),
    ("jumpvol.gibbs", "sample_inverse_gamma", "rng.inverse_gamma"),
    ("jumpvol.volatility", "sample_gamma", "rng.gamma"),
    ("jumpvol.conditionals", "sample_gamma", "rng.gamma"),
    ("jumpvol.conditionals", "sample_normal", "rng.normal"),
    ("jumpvol.conditionals", "sample_beta", "rng.beta"),
    ("jumpvol.conditionals", "sample_inverse_gamma", "rng.inverse_gamma"),
    ("jumpvol.io", "ingest_csv", "io.ingest"),
    ("jumpvol.io", "write_draws_csv", "io.write"),
    ("jumpvol.io", "write_latent_csv", "io.write"),
    ("jumpvol.io", "write_report_json", "io.write"),
    ("jumpvol.io", "read_draws_csv", "io.read"),
    ("jumpvol.io", "read_latent_csv", "io.read"),
    ("jumpvol.io", "read_sim_csv", "io.read"),
    ("jumpvol.io", "read_report_json", "io.read"),
]

# Spans the benchmark records around its own calls into the CLI.
OWN_SPANS = ("cli.fit", "cli.diagnose", "cli.summarize")
RNG_SPANS = ("rng.gamma", "rng.normal", "rng.beta", "rng.inverse_gamma")
SCALAR_SPANS = (
    "conditionals.sample_mu", "conditionals.jump_mean",
    "conditionals.jump_var", "conditionals.jump_prob",
)
INDICATOR_SPANS = ("conditionals.indicator_probs", "conditionals.threshold")


class Tracer:
    """In-memory span recorder that wraps module attributes while installed."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start_ns, end_ns, parent_index]
        self._stack: list[int] = []
        self._saved: list = []
        self.present: set[str] = set(OWN_SPANS)
        self.missing: list[str] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name; used for the benchmark's own steps."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCH_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.present.add(name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total duration (s), total self time (s), call count."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total: dict[str, float] = {}
        self_t: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _), kids in zip(self.spans, child_ns):
            total[name] = total.get(name, 0.0) + (end - start) * 1e-9
            self_t[name] = self_t.get(name, 0.0) + (end - start - kids) * 1e-9
            calls[name] = calls.get(name, 0) + 1
        return total, self_t, calls

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["index", "name", "start_ns", "end_ns", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([i, name, start, end, parent])


def layer_metrics(tracer: Tracer, counts: dict) -> dict:
    """Per-layer metrics from the traced rounds.

    counts holds what the benchmark itself knows about the traced rounds:
    rounds, fits, sweeps, latent_matrix_bytes (largest per fit),
    bytes_written (per round).  Stage times are per Gibbs sweep.
    """
    total, self_t, calls = tracer.totals()
    sweeps = counts["sweeps"]
    rounds = counts["rounds"]

    def have(*names) -> bool:
        return any(n in tracer.present for n in names)

    def t(*names) -> float:
        return sum(total.get(n, 0.0) for n in names)

    def per_sweep_us(*names):
        return t(*names) / sweeps * 1e6 if have(*names) else None

    def per_call(name: str, scale: float):
        if not have(name):
            return None
        return t(name) / calls[name] * scale if calls.get(name) else 0.0

    def per_round(name: str, scale: float):
        return t(name) / rounds * scale if have(name) else None

    chain_total = t("gibbs.run_chain")
    chain_self = self_t.get("gibbs.run_chain", 0.0)
    backward_self = self_t.get("volatility.backward_sample", 0.0)
    return {
        "volatility.forward_filter_us": per_sweep_us("volatility.forward_filter"),
        "volatility.backward_sample_us": per_sweep_us("volatility.backward_sample"),
        "volatility.backward_sample_self_us": (
            backward_self / sweeps * 1e6 if have("volatility.backward_sample") else None
        ),
        "rng.gamma_us_per_sweep": per_sweep_us("rng.gamma"),
        "rng.normal_us_per_sweep": per_sweep_us("rng.normal"),
        "rng.calls_per_sweep": (
            sum(calls.get(n, 0) for n in RNG_SPANS) / sweeps if have(*RNG_SPANS) else None
        ),
        "conditionals.mixture_us": per_sweep_us("conditionals.mixture"),
        "conditionals.jump_sizes_us": per_sweep_us("conditionals.jump_sizes"),
        "conditionals.indicator_us": per_sweep_us(*INDICATOR_SPANS),
        "conditionals.scalar_us_per_sweep": per_sweep_us(*SCALAR_SPANS),
        "gibbs.sweep_us": per_sweep_us("gibbs.run_chain"),
        "gibbs.self_us_per_sweep": chain_self / sweeps * 1e6 if have("gibbs.run_chain") else None,
        "gibbs.stage_share_pct": (
            100.0 * (chain_total - chain_self) / chain_total if chain_total > 0 else None
        ),
        "gibbs.sweeps": sweeps,
        "gibbs.run_multi_s": per_call("gibbs.run_multi", 1.0),
        "gibbs.chains": (
            calls.get("gibbs.run_chain", 0) / counts["fits"] if have("gibbs.run_chain") else None
        ),
        "gibbs.latent_matrix_mb": counts["latent_matrix_bytes"] / 1e6,
        "diagnostics.build_report_ms": per_call("diagnostics.build_report", 1e3),
        "diagnostics.log_lik_us": per_call("diagnostics.log_lik", 1e6),
        "io.ingest_ms": per_call("io.ingest", 1e3),
        "io.write_ms": per_round("io.write", 1e3),
        "io.read_ms": per_round("io.read", 1e3),
        "io.bytes_written": counts["bytes_written"],
        "cli.fit_s": per_call("cli.fit", 1.0),
        "cli.diagnose_s": per_call("cli.diagnose", 1.0),
        "cli.summarize_s": per_call("cli.summarize", 1.0),
    }
