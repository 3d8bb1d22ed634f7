"""The benchmark's workloads: input generation, one timed round, correctness checks.

A round is a fixed list of operations; a run repeats whole rounds, so the
share of failed operations does not depend on the run length.  Every check
is made apart from the program (numpy arithmetic, files parsed with the csv
module, and the scipy recomputation in checks.py) or rests on a property of
the method (recovery bands, band coverage, model ranking, bit-for-bit
reproducibility given the seed).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

# Daily-scale series of acceptance criteria 1-4.  The series itself is fixed
# (data seed 8) because the criterion-1 bands were set for it: the posterior
# sd of mu is 0.013, so on other data seeds the posterior mean misses the
# +-0.011 band around the truth on about a third of series.  --seed is the
# chain seed.
DAILY_SIM = dict(n=5000, mu=0.05, jump_prob=0.015, jump_mean=-2.5, jump_sd=4.0,
                 nu=30.0, delta=1.0, theta=0.8, kappa=0.015, sigma_v=0.1, corr=0.4, seed=8)
DAILY_BANDS = {"mu": 0.011, "jump_prob": 0.0072}  # criterion 1, around the truth

# Intraday-scale series of acceptance criterion 8; --seed is the data seed.
INTRADAY_SIM = dict(n=6241, mu=0.0, jump_prob=0.0087, jump_mean=-0.02, jump_sd=0.05,
                    nu=30.0, theta=0.002, kappa=0.015, sigma_v=0.002, corr=0.4)

# One trading year of daily returns per series.  Jumps are denser and larger
# than in DAILY_SIM so that every series has a jump the model can find: with
# the daily-scale jump law a fifth of 252-point series hold no detectable
# jump, and BIC then rightly prefers the no-jump model.
SHORT_SIM = dict(n=252, jump_prob=0.04, jump_mean=-6.0, jump_sd=1.0)

K_JUMPS, K_NO_JUMPS = 8, 4  # BIC parameter counts documented in the README
COVERAGE_MIN = 0.90         # acceptance criterion 2

SIZES = {
    "full": {
        "daily_jump": dict(iterations=1500, burn_in=500, thin=5),
        "intraday_cli": dict(iterations=500, burn_in=150, thin=1, chains=3),
        "short_batch": dict(iterations=500, burn_in=150, thin=2, batch=4),
    },
    "smoke": {
        "daily_jump": dict(iterations=300, burn_in=100, thin=2),
        "intraday_cli": dict(iterations=120, burn_in=40, thin=1, chains=3),
        "short_batch": dict(iterations=200, burn_in=50, thin=2, batch=2),
    },
}


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    op_s: float = 0.0       # wall time of the timed operations, checks excluded
    sampler_s: float = 0.0  # wall time inside run_chain / run_multi
    sweeps: int = 0
    fits: int = 0
    bytes_written: int = 0
    latent_matrix_bytes: int = 0
    fingerprint: str = ""
    failures: list = field(default_factory=list)   # failed checks and operations
    reports: list = field(default_factory=list)    # inputs for checks.verify
    ess_per_s: dict = field(default_factory=dict)  # reference figure, not gated

    def check(self, name: str, ok: bool, detail) -> None:
        if not ok:
            self.failures.append(f"{name}: {detail}")


def call(tracer, name, fn, *args):
    """Call fn, inside a span of the benchmark's own when tracing."""
    return fn(*args) if tracer is None else tracer.span(name, fn, *args)


def coverage(true_var, lo, hi) -> float:
    return float(np.mean((np.asarray(lo) <= true_var) & (true_var <= np.asarray(hi))))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def read_columns(path) -> dict:
    """Columns of a header-led CSV, parsed with the csv module apart from jumpvol.io."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *body = list(csv.reader(fh))
    out = {}
    for i, name in enumerate(header):
        cells = [row[i] for row in body]
        try:
            out[name] = np.array([float(c) for c in cells])
        except ValueError:
            out[name] = cells
    return out


def report_record(label: str, y, chain, report, k: int) -> dict:
    latent = report.latent
    return {
        "label": label, "k": k, "y": y, "mu": chain.mu, "log_lik": chain.log_lik,
        "mean_jump": latent.mean_jump, "mean_precision": latent.mean_precision,
        "mean_mixture": latent.mean_mixture,
        "reported": {"report": {key: getattr(report, key)
                                for key in ("log_lik_at_mean", "bic", "dic", "p_d")}},
    }


def fit_and_report(jv, res: RoundResult, y, cfg, spec, calibrate):
    """One timed operation: run_chain then build_report, through module attributes."""
    start = time.perf_counter()
    chain = jv.gibbs.run_chain(y, cfg, spec)
    res.sampler_s += time.perf_counter() - start
    report = jv.diagnostics.build_report([chain], y)
    elapsed = time.perf_counter() - start
    res.op_s += elapsed
    calibrate(elapsed)
    res.sweeps += spec.iterations
    res.fits += 1
    res.latent_matrix_bytes = max(res.latent_matrix_bytes, chain.n_draws * len(y) * 4)
    res.check(f"{len(y)}-point fit draw count", chain.n_draws == spec.n_retained,
              f"{chain.n_draws} != {spec.n_retained}")
    res.check(f"{len(y)}-point fit latent length", len(report.latent.var_mean) == len(y),
              f"{len(report.latent.var_mean)} != {len(y)}")
    return chain, report


class DailyJump:
    """Single-chain fit + report of the jump model on the criterion 1-4 series."""

    def __init__(self, jv, seed: int, workdir: str, size: dict) -> None:
        self.jv = jv
        start = time.perf_counter()
        self.sim = jv.synthetic.simulate(jv.SimConfig(**DAILY_SIM))
        self.simulate_s = [time.perf_counter() - start]
        self.cfg = jv.ModelConfig(jump_threshold=0.5)
        self.spec = jv.RunSpec(iterations=size["iterations"], burn_in=size["burn_in"],
                               thin_lag=size["thin"], seed=seed)

    def run_round(self, tracer, calibrate) -> RoundResult:
        res = RoundResult(attempted=1)
        y = self.sim.returns.returns
        try:
            chain, report = fit_and_report(self.jv, res, y, self.cfg, self.spec, calibrate)
        except Exception as exc:  # a failed operation is counted, not fatal
            res.failed += 1
            res.failures.append(f"fit: {type(exc).__name__}: {exc}")
            return res
        res.fingerprint = digest(chain.mu, chain.log_lik, chain.latent.var_mean)
        res.ess_per_s = {p.name: p.ess / res.sampler_s for p in report.params}
        res.reports.append(report_record("jump fit", y, chain, report, K_JUMPS))
        cov = coverage(self.sim.true_variance, chain.latent.var_lo95, chain.latent.var_hi95)
        res.check("variance band coverage", cov >= COVERAGE_MIN, f"{cov:.4f} < {COVERAGE_MIN}")
        for name, band in DAILY_BANDS.items():
            est = float(np.mean(getattr(chain, name)))
            res.check(f"{name} recovery", abs(est - DAILY_SIM[name]) <= band,
                      f"posterior mean {est:.5f} not within {band} of {DAILY_SIM[name]}")
        return res


class IntradayCli:
    """The README's CLI pipeline: fit (3 chains, all draws kept), diagnose, summarize."""

    def __init__(self, jv, seed: int, workdir: str, size: dict) -> None:
        self.jv = jv
        self.size = size
        start = time.perf_counter()
        self.sim = jv.synthetic.simulate(jv.SimConfig(seed=seed, **INTRADAY_SIM))
        self.simulate_s = [time.perf_counter() - start]
        os.makedirs(workdir, exist_ok=True)
        path = lambda name: os.path.join(workdir, name)  # noqa: E731
        self.returns_csv, truth_csv, fit_dir = path("returns.csv"), path("sim.csv"), path("fit")
        self.outputs = [os.path.join(fit_dir, name)
                        for name in ("draws.csv", "latent_summary.csv", "report.json")]
        self.outputs += [path("diag.json"), path("summary.csv")]
        # 'summarize' reads the simulation CSV; 'fit' cannot, it needs
        # timestamp,log_return_pct, so the returns are written a second time.
        jv.io.write_sim_csv(truth_csv, self.sim)
        jv.io.write_sim_params(path("sim.params.json"), jv.SimConfig(seed=seed, **INTRADAY_SIM))
        with open(self.returns_csv, "w", encoding="utf-8", newline="") as fh:
            fh.write("timestamp,log_return_pct\n")
            fh.writelines(f"{t + 1},{v!r}\n" for t, v in enumerate(self.sim.returns.returns.tolist()))

        # The CLI times nothing it returns, so the sampler call is timed here.
        self.sampler_s = 0.0
        run_multi = jv.cli.run_multi

        def timed_run_multi(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_multi(*args, **kwargs)
            finally:
                self.sampler_s += time.perf_counter() - start

        jv.cli.run_multi = timed_run_multi
        self.n_retained = (size["iterations"] - size["burn_in"]) // size["thin"]
        self.commands = [
            ("cli.fit", ["fit", "--input", self.returns_csv,
                         "--iterations", str(size["iterations"]), "--burn-in", str(size["burn_in"]),
                         "--thin", str(size["thin"]), "--chains", str(size["chains"]),
                         "--seed", str(seed), "--output-dir", fit_dir]),
            ("cli.diagnose", ["diagnose", "--draws", self.outputs[0], "--input", self.returns_csv,
                              "--latent-summary", self.outputs[1], "--output", self.outputs[3]]),
            ("cli.summarize", ["summarize", "--truth", truth_csv, "--fit-dir", fit_dir,
                               "--output", self.outputs[4]]),
        ]

    def run_round(self, tracer, calibrate) -> RoundResult:
        res = RoundResult()
        for path in self.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        self.sampler_s = 0.0
        for name, argv in self.commands:
            res.attempted += 1
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = call(tracer, name, self.jv.cli.main, argv)
                except Exception as exc:  # a crash is a failed operation
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
            res.op_s += elapsed
            calibrate(elapsed)
            if code != 0:
                res.failed += 1
                res.failures.append(f"{name} exit {code}: {err.getvalue().strip()[-300:]}")
        if res.failed:
            return res
        chains = self.size["chains"]
        res.sampler_s = self.sampler_s
        res.sweeps = self.size["iterations"] * chains
        res.fits = 1
        res.latent_matrix_bytes = self.n_retained * len(self.sim.true_variance) * 4 * chains
        res.bytes_written = sum(os.path.getsize(p) for p in self.outputs)
        with open(self.outputs[0], "rb") as fh:
            res.fingerprint = hashlib.sha256(fh.read()).hexdigest()
        self.check(res, chains)
        return res

    def check(self, res: RoundResult, chains: int) -> None:
        y = read_columns(self.returns_csv)["log_return_pct"]
        draws = read_columns(self.outputs[0])
        latent = read_columns(self.outputs[1])
        with open(self.outputs[2], encoding="utf-8") as fh:
            report = json.load(fh)
        with open(self.outputs[3], encoding="utf-8") as fh:
            diag = json.load(fh)["diagnostics"]
        summary = read_columns(self.outputs[4])

        res.ess_per_s = {p["name"]: p["ess"] / res.sampler_s for p in report["params"]}
        rows = len(draws["mu"])
        res.check("draws.csv rows", rows == chains * self.n_retained,
                  f"{rows} != {chains} x {self.n_retained}")
        res.check("draws.csv chains", sorted(set(draws["chain"])) == list(range(chains)),
                  f"chain ids {sorted(set(draws['chain']))}")
        res.check("latent_summary.csv rows", len(latent["t"]) == INTRADAY_SIM["n"],
                  f"{len(latent['t'])} != {INTRADAY_SIM['n']}")
        res.check("returns.csv rows", len(y) == INTRADAY_SIM["n"], f"{len(y)}")
        res.reports.append({
            "label": "intraday fit", "k": K_JUMPS, "y": y, "mu": draws["mu"],
            "log_lik": draws["log_lik"], "mean_jump": latent["mean_jump"],
            "mean_precision": latent["mean_precision"], "mean_mixture": latent["mean_mixture"],
            "reported": {"report.json": report["diagnostics"], "diagnose": diag},
        })
        cov = coverage(self.sim.true_variance, latent["var_lo95"], latent["var_hi95"])
        res.check("variance band coverage", cov >= COVERAGE_MIN, f"{cov:.4f} < {COVERAGE_MIN}")
        row = summary["quantity"].index("volatility_coverage_95")
        reported = float(summary["mean"][row])
        res.check("summarize coverage", reported == cov, f"{reported!r} vs {cov!r}")


class ShortBatch:
    """Jump and no-jump fits, each with a report, on a batch of one-year series."""

    def __init__(self, jv, seed: int, workdir: str, size: dict) -> None:
        self.jv = jv
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(size["batch"])]
        self.sims, self.simulate_s = [], []
        for s in seeds:
            start = time.perf_counter()
            self.sims.append(jv.synthetic.simulate(jv.SimConfig(seed=s, **SHORT_SIM)))
            self.simulate_s.append(time.perf_counter() - start)
        self.specs = [jv.RunSpec(iterations=size["iterations"], burn_in=size["burn_in"],
                                 thin_lag=size["thin"], seed=s) for s in seeds]
        self.cfg_jump = jv.ModelConfig(jump_threshold=0.7)
        self.cfg_nojump = jv.ModelConfig(jump_threshold=0.7, jumps_enabled=False)

    def run_round(self, tracer, calibrate) -> RoundResult:
        res = RoundResult()
        prints = []
        for i, (sim, spec) in enumerate(zip(self.sims, self.specs)):
            y = sim.returns.returns
            fitted = {}
            for label, cfg, k in (("jump", self.cfg_jump, K_JUMPS),
                                  ("nojump", self.cfg_nojump, K_NO_JUMPS)):
                res.attempted += 1
                try:
                    chain, report = fit_and_report(self.jv, res, y, cfg, spec, calibrate)
                except Exception as exc:  # a failed operation is counted, not fatal
                    res.failed += 1
                    res.failures.append(f"series {i} {label} fit: {type(exc).__name__}: {exc}")
                    continue
                fitted[label] = (chain, report)
                prints.append(digest(chain.mu, chain.log_lik, chain.latent.var_mean))
                res.reports.append(report_record(f"series {i} {label}", y, chain, report, k))
            if len(fitted) < 2:
                continue
            (cj, rj), (cn, rn) = fitted["jump"], fitted["nojump"]
            var_j = float(np.mean(cj.latent.var_mean))
            var_n = float(np.mean(cn.latent.var_mean))
            res.check(f"series {i} volatility attenuation", var_j <= var_n,
                      f"mean variance {var_j:.5f} (jumps) > {var_n:.5f} (no jumps)")
            res.check(f"series {i} BIC ranking", rj.bic < rn.bic,
                      f"BIC {rj.bic:.2f} (jumps) >= {rn.bic:.2f} (no jumps)")
        res.fingerprint = hashlib.sha256("".join(prints).encode()).hexdigest()
        return res


WORKLOADS = {"daily_jump": DailyJump, "intraday_cli": IntradayCli, "short_batch": ShortBatch}
