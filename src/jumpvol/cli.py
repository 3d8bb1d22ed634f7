"""Command-line interface: fit, simulate, diagnose, summarize.

Settings resolve in deterministic precedence order: explicit flags override
config-file entries, which override built-in defaults.  Output files contain
no timestamps or timings, so a repeated invocation with the same seed is
byte-identical; wall-clock time goes to stderr.

Exit codes: 0 success, 2 usage/configuration error, 3 data error,
4 numerical abort mid-run.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import io as jio
from .diagnostics import (
    MIN_PSRF_DRAWS,
    DiagnosticsReport,
    build_report,
    coverage,
    score_draws,
    static_params,
)
from .errors import DataFormatError, JumpvolError, NumericalError, ParameterError, SizeError
from .gibbs import RunSpec, run_multi
from .model import ModelConfig, Priors
from .synthetic import SimConfig, simulate

__all__ = ["main", "build_parser", "run_fit", "FitResult"]

# Fit settings that set a dataclass field: config-file key (and flag dest)
# -> (class, field).  The field's default is the setting's default, and the
# default's type parses the config-file value.
_FIELD_SETTINGS = {
    "nu": (ModelConfig, "nu"),
    "omega": (ModelConfig, "omega"),
    "threshold": (ModelConfig, "jump_threshold"),
    "a0": (ModelConfig, "a0"),
    "b0": (ModelConfig, "b0"),
    "thin": (RunSpec, "thin_lag"),
    "chains": (RunSpec, "n_chains"),
    "seed": (RunSpec, "seed"),
    "mu_prior_mean": (Priors, "mu_mean"),
    "mu_prior_var": (Priors, "mu_var"),
    "jump_mean_prior_mean": (Priors, "jump_mean_mean"),
    "jump_mean_prior_var": (Priors, "jump_mean_var"),
    "jump_var_prior_shape": (Priors, "jump_var_shape"),
    "jump_var_prior_scale": (Priors, "jump_var_scale"),
    "jump_prob_prior_a": (Priors, "jump_prob_a"),
    "jump_prob_prior_b": (Priors, "jump_prob_b"),
}


def _coerce_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ParameterError(f"expected a boolean, got {value!r}")


# The fit command's own settings: key -> (parser, default).  The iteration
# plan defaults differ from RunSpec's on purpose.
_COMMAND_SETTINGS = {
    "mode": (str, "returns"),
    "iterations": (int, 10000),
    "burn_in": (int, 1000),
    "no_jumps": (_coerce_bool, False),
    "bic_k": (int, None),
    "output_dir": (str, "jumpvol_fit"),
}


def _resolve(key: str, flag_value, file_cfg: dict[str, str]):
    if key in _COMMAND_SETTINGS:
        parse, default = _COMMAND_SETTINGS[key]
    else:
        cls, name = _FIELD_SETTINGS[key]
        default = next(f.default for f in fields(cls) if f.name == name)
        parse = type(default)
    if flag_value is not None:
        return flag_value
    if key not in file_cfg:
        return default
    raw = file_cfg[key]
    try:
        return parse(raw)
    except ValueError:
        raise ParameterError(f"config key {key!r}: cannot parse {raw!r}") from None


def _display(x: float) -> str:
    return format(float(x), ".6g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpvol",
        description="Stochastic volatility with jumps in returns: fit, simulate, diagnose, summarize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the model to a returns or price CSV")
    fit.add_argument("--input", required=True, help="input CSV (timestamp,price or timestamp,log_return_pct)")
    fit.add_argument("--mode", choices=("prices", "returns"), default=None)
    fit.add_argument("--nu", type=float, default=None, help="mixture degrees of freedom")
    fit.add_argument("--omega", type=float, default=None, help="discount factor in (0,1]")
    fit.add_argument("--threshold", type=float, default=None, help="jump declaration cutoff in (0,1)")
    fit.add_argument("--iterations", type=int, default=None)
    fit.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    fit.add_argument("--thin", type=int, default=None)
    fit.add_argument("--chains", type=int, default=None)
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--no-jumps", dest="no_jumps", action="store_true", default=None,
                     help="fit the no-jump reduction")
    fit.add_argument("--bic-k", dest="bic_k", type=int, default=None,
                     help="parameter count for BIC (default 8 with jumps, 4 without)")
    fit.add_argument("--output-dir", dest="output_dir", default=None)
    fit.add_argument("--config", default=None, help="flat key = value file; flags override it")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="generate a synthetic realization with latent truth")
    for f in fields(SimConfig):
        sim.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=f.default,
                         type=int if isinstance(f.default, int) else float)
    sim.add_argument("--output", required=True, help="output CSV; parameters go to <stem>.params.json")
    sim.set_defaults(func=cmd_simulate)

    diag = sub.add_parser("diagnose", help="recompute chain diagnostics from draw files")
    diag.add_argument("--draws", action="append", required=True,
                      help="draws.csv file (repeat for multiple chains)")
    diag.add_argument("--n", type=int, default=None, help="sample size for BIC")
    diag.add_argument("--input", default=None, help="original data CSV (enables exact DIC)")
    diag.add_argument("--mode", choices=("prices", "returns"), default="returns")
    diag.add_argument("--latent-summary", dest="latent_summary", default=None,
                      help="latent_summary.csv from the fit (enables exact DIC)")
    diag.add_argument("--bic-k", dest="bic_k", type=int, default=None)
    diag.add_argument("--output", required=True, help="output report JSON")
    diag.set_defaults(func=cmd_diagnose)

    summ = sub.add_parser("summarize", help="score a fit against simulated truth")
    summ.add_argument("--truth", required=True, help="simulation CSV written by 'simulate'")
    summ.add_argument("--truth-params", dest="truth_params", default=None,
                      help="params JSON (default: <truth stem>.params.json)")
    summ.add_argument("--fit-dir", dest="fit_dir", required=True,
                      help="directory holding draws.csv and latent_summary.csv")
    summ.add_argument("--output", required=True, help="output summary CSV")
    summ.set_defaults(func=cmd_summarize)

    return parser


def cmd_fit(args) -> int:
    file_cfg = jio.read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - set(_FIELD_SETTINGS) - set(_COMMAND_SETTINGS))
    if unknown:
        raise ParameterError(f"{args.config}: unknown config keys: {', '.join(unknown)}")

    def get(key: str):
        return _resolve(key, getattr(args, key, None), file_cfg)

    kwargs: dict = {Priors: {}, ModelConfig: {}, RunSpec: {}}
    for key, (cls, name) in _FIELD_SETTINGS.items():
        kwargs[cls][name] = get(key)
    cfg = ModelConfig(
        **kwargs[ModelConfig], jumps_enabled=not get("no_jumps"), priors=Priors(**kwargs[Priors])
    )
    spec = RunSpec(iterations=get("iterations"), burn_in=get("burn_in"), **kwargs[RunSpec])
    bic_k = get("bic_k")

    series = jio.ingest_csv(args.input, get("mode"))
    stats = jio.describe(series)
    for key, limit in jio.DEGENERATE_LIMITS.items():
        if stats[key] > limit:
            raise DataFormatError(f"{args.input}: {key} {_display(stats[key])} exceeds {limit}: "
                                  "too many equal returns for a well-defined fit")
    print(
        "data: " + " ".join(f"{key}={_display(stats[key])}" for key in
                            ("n", "mean", "variance", "skewness", "kurtosis", "min", "max"))
    )

    result = run_fit(series, cfg, spec, Path(get("output_dir")), k=bic_k, data_stats=stats)

    report = result.report
    for p in report.params:
        print(f"param {p.name}: mean={_display(p.mean)} sd={_display(p.sd)} "
              f"ess={_display(p.ess)} psrf={_display(p.psrf)}")
    print(f"log_lik_max={_display(report.log_lik_max)} bic={_display(report.bic)} "
          f"dic={_display(report.dic)} p_d={_display(report.p_d)}")
    print(f"wrote: {result.draws_path} {result.latent_path} {result.report_path}")
    print(f"fit completed in {result.wall_seconds:.2f} s", file=sys.stderr)
    return 0


@dataclass
class FitResult:
    """In-memory record of one CLI fit.

    wall_seconds is reported on stderr only and never serialized, keeping
    output files identical across repeated seeded runs.
    """

    cfg: ModelConfig
    spec: RunSpec
    report: DiagnosticsReport
    draws_path: Path
    latent_path: Path
    report_path: Path
    wall_seconds: float


def run_fit(series, cfg, spec, out_dir: Path, k=None, data_stats=None) -> FitResult:
    """Run the chains and persist draws, latent summaries and the report.

    Returns the in-memory record of the fit; wall time lives only there and
    on stderr, never in the output files.  A spec that keeps too few draws
    per chain for the report is refused before anything runs.
    """
    if spec.n_retained < MIN_PSRF_DRAWS:
        raise ParameterError(
            f"the report needs at least {MIN_PSRF_DRAWS} retained draws per chain, "
            f"got {spec.n_retained}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    chains = run_multi(series, cfg, spec)
    wall = time.perf_counter() - start

    report = build_report(chains, series, k=k)
    draws_path = out_dir / "draws.csv"
    latent_path = out_dir / "latent_summary.csv"
    report_path = out_dir / "report.json"
    jio.write_draws_csv(draws_path, chains)
    jio.write_latent_csv(latent_path, report.latent)
    payload = jio.report_payload(
        report, cfg=cfg, spec=spec, data_stats=data_stats,
        files={"draws": draws_path.name, "latent_summary": latent_path.name},
    )
    jio.write_report_json(report_path, payload)
    return FitResult(
        cfg=cfg,
        spec=spec,
        report=report,
        draws_path=draws_path,
        latent_path=latent_path,
        report_path=report_path,
        wall_seconds=wall,
    )


def cmd_simulate(args) -> int:
    sc = SimConfig(**{f.name: getattr(args, f.name) for f in fields(SimConfig)})
    sim = simulate(sc)
    out = Path(args.output)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    params_path = out.with_suffix(".params.json")
    jio.write_sim_csv(out, sim)
    jio.write_sim_params(params_path, sc)
    print(f"wrote: {out} {params_path}")
    return 0


def cmd_diagnose(args) -> int:
    chains: list[dict] = []
    for path in args.draws:
        data = jio.read_draws_csv(path)
        ids = np.unique(data["chain"]) if "chain" in data else np.array([0])
        for cid in ids:
            mask = data["chain"] == cid if "chain" in data else slice(None)
            chain = {key: values[mask] for key, values in data.items()}
            if chain["mu"].size < MIN_PSRF_DRAWS:
                raise DataFormatError(
                    f"{path}: chain {cid} has {chain['mu'].size} draws, "
                    f"diagnostics need at least {MIN_PSRF_DRAWS}"
                )
            chains.append(chain)
    if not chains:
        raise DataFormatError("no chains found in the given draw files")

    series = jio.ingest_csv(args.input, args.mode) if args.input else None
    n_obs = args.n if args.n is not None else (len(series) if series is not None else None)
    with_plug_in = series is not None and args.latent_summary
    latent = jio.read_latent_csv(args.latent_summary) if with_plug_in else None
    diagnostics, params = score_draws(chains, args.bic_k, n_obs, series, latent)
    log_lik = np.concatenate([c["log_lik"] for c in chains])
    diagnostics["n_draws"] = int(log_lik.size)
    if latent is not None:
        diagnostics["pd_method"] = "plug_in_mean"
    else:
        # Draws-only fallback: half the deviance variance estimates the
        # effective parameter count.
        p_d = float(np.var(-2.0 * log_lik, ddof=1)) / 2.0 if log_lik.size > 1 else 0.0
        diagnostics.update(
            p_d=p_d, dic=diagnostics["mean_deviance"] + p_d, pd_method="half_variance"
        )

    jio.write_report_json(
        args.output, {"diagnostics": diagnostics, "params": [asdict(p) for p in params]}
    )
    print(f"wrote: {args.output}")
    return 0


def cmd_summarize(args) -> int:
    truth = jio.read_sim_csv(args.truth)
    params_path = args.truth_params or str(Path(args.truth).with_suffix(".params.json"))
    true_params = jio.read_report_json(params_path)
    fit_dir = Path(args.fit_dir)
    draws = jio.read_draws_csv(fit_dir / "draws.csv")
    latent = jio.read_latent_csv(fit_dir / "latent_summary.csv")
    # The truth gives the jump size's sd, so jump_var draws are scored as jump_sd.
    scored = {name: draws[name] for name in static_params([draws])[0]}
    if "jump_var" in scored:
        scored["jump_sd"] = np.sqrt(scored.pop("jump_var"))
    if not (isinstance(true_params, dict)
            and all(isinstance(true_params.get(key), (int, float)) for key in scored)):
        raise DataFormatError(
            f"{params_path}: expected a JSON object with numeric {', '.join(scored)}"
        )

    if len(latent) != truth["true_v"].size:
        raise SizeError(
            f"latent summary length {len(latent)} != truth length {truth['true_v'].size}"
        )

    def param_row(name: str, draws_arr: np.ndarray, true_value: float) -> list[str]:
        mean = float(np.mean(draws_arr))
        sd = float(np.std(draws_arr, ddof=1)) if draws_arr.size > 1 else 0.0
        rmse = float(np.sqrt(np.mean((draws_arr - true_value) ** 2)))
        return [name, jio.fmt17(mean), jio.fmt17(sd), jio.fmt17(rmse)]

    rows = [param_row(name, values, float(true_params[name])) for name, values in scored.items()]

    vol_rmse = float(np.sqrt(np.mean((latent.var_mean - truth["true_v"]) ** 2)))
    jump_rmse = float(np.sqrt(np.mean((latent.mean_jump - truth["true_jump"]) ** 2)))
    vol_cover = coverage(truth["true_v"], latent.var_lo95, latent.var_hi95)
    rows.append(["volatility_path", "", "", jio.fmt17(vol_rmse)])
    rows.append(["jump_path", "", "", jio.fmt17(jump_rmse)])
    rows.append(["volatility_coverage_95", jio.fmt17(vol_cover), "", ""])

    out = Path(args.output)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("quantity,mean,sd,rmse\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    print(f"wrote: {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except JumpvolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
