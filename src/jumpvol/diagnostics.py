"""Model comparison and chain-quality statistics.

Model fit is scored with the conditional likelihood

    log p(y | params) = sum_t log phi(y_t; mu + J_t, 1/(mixture_t * precision_t))

which conditions on the latent paths.  From the per-draw deviance
D = -2 log p(y | params) the report derives

    BIC = -2 log Lhat + k log n        (Lhat = best per-draw likelihood)
    pD  = mean(D) - D(at posterior mean)
    DIC = D(at posterior mean) + 2 pD

where "posterior mean" plugs in the element-wise posterior means of the
static parameters and latent paths.  Chain quality uses an
autocorrelation-based effective sample size (Geyer initial positive
sequence) and the split-chain potential scale reduction factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError, SizeError
from .model import (
    LATENT_FIELDS, STATIC_NAMES, ChainOutput, LatentSummary, aligned, returns_array,
)
from .rng import LOG_TWO_PI, _as_param

__all__ = [
    "conditional_log_lik",
    "compute_bic",
    "compute_dic",
    "coverage",
    "ess",
    "psrf",
    "ParamSummary",
    "summarize_param",
    "DiagnosticsReport",
    "merge_latent",
    "static_params",
    "score_draws",
    "build_report",
    "DEFAULT_K_JUMPS",
    "DEFAULT_K_NO_JUMPS",
    "MIN_PSRF_DRAWS",
]

# Parameter counts charged by the information criteria, configurable per call.
DEFAULT_K_JUMPS = 8
DEFAULT_K_NO_JUMPS = 4

# Shortest trace psrf accepts: each split half needs two draws for a variance.
MIN_PSRF_DRAWS = 4


def conditional_log_lik(y, mu: float, jumps, precision, mixture) -> float:
    """Log-likelihood of the returns given mean, jumps and both latent paths.

    y is a ReturnsSeries or a finite 1-D array; the paths share its shape.
    """
    y_arr, jumps_arr, prec_arr, mix_arr = aligned(
        returns_array(y, min_len=0), jumps=jumps, precision=precision, mixture=mixture
    )
    weights = mix_arr * prec_arr
    if not np.all(weights > 0):
        raise ParameterError("mixture * precision must be > 0 everywhere")
    _as_param("variance", 1.0 / weights, positive=True)
    return _conditional_log_lik(y_arr - jumps_arr, mu, weights, np.empty(y_arr.size))


def _conditional_log_lik(shifted, mu, weights, work):
    """Unchecked kernel of :func:`conditional_log_lik`, shifted = y - jumps and weights =
    mixture * precision: -(n log 2 pi + sum w (shifted - mu)^2 - sum log w) / 2.  The sums
    are np.add.reduce, not a BLAS dot, whose order may change with the CPUs it uses.

    The arrays are n-length with a float mu, giving a float, or (K, n) blocks of
    K draws with mu a (K, 1) column, giving the K log-likelihoods; each row sums
    as an n-length array does.  work is scratch and may be shifted.
    """
    np.subtract(shifted, mu, out=work)
    np.square(work, out=work)
    work *= weights
    quad = np.add.reduce(work, axis=-1)
    log_w = np.add.reduce(np.log(weights, out=work), axis=-1)
    log_lik = -0.5 * (shifted.shape[-1] * LOG_TWO_PI + quad - log_w)
    return log_lik if log_lik.ndim else float(log_lik)


def compute_bic(log_lik_hat: float, k: int, n: int) -> float:
    """-2 log Lhat + k log n."""
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ParameterError(f"k must be a positive integer, got {k}")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ParameterError(f"n must be a positive integer, got {n}")
    if not np.isfinite(log_lik_hat):
        raise ParameterError(f"log_lik_hat must be finite, got {log_lik_hat}")
    return -2.0 * log_lik_hat + k * math.log(n)


def compute_dic(deviance_draws, deviance_at_mean: float) -> tuple[float, float]:
    """Return (dic, p_d) from per-draw deviances and the plug-in deviance."""
    draws = np.asarray(deviance_draws, dtype=float)
    if draws.size == 0:
        raise SizeError("deviance_draws must be non-empty")
    if not np.isfinite(deviance_at_mean):
        raise ParameterError(f"deviance_at_mean must be finite, got {deviance_at_mean}")
    p_d = float(np.mean(draws)) - deviance_at_mean
    return deviance_at_mean + 2.0 * p_d, p_d


def coverage(true_path, lower, upper) -> float:
    """Fraction of points with lower[t] <= true[t] <= upper[t]."""
    true_arr = np.asarray(true_path, dtype=float)
    lo_arr = np.asarray(lower, dtype=float)
    hi_arr = np.asarray(upper, dtype=float)
    if not (true_arr.shape == lo_arr.shape == hi_arr.shape):
        raise SizeError("true, lower and upper must share one shape")
    if true_arr.size == 0:
        raise SizeError("coverage needs at least one point")
    inside = (lo_arr <= true_arr) & (true_arr <= hi_arr)
    return float(np.mean(inside))


def ess(trace) -> float:
    """Effective sample size via Geyer's initial positive sequence.

    Autocorrelations are estimated by FFT, summed in lag pairs while the
    pair sums stay positive.  An iid trace comes back near its length
    (sampling noise can push it slightly above); a constant trace returns
    its length by convention.
    """
    x = np.asarray(trace, dtype=float)
    if x.ndim != 1:
        raise SizeError(f"trace must be one-dimensional, got shape {x.shape}")
    n = x.size
    if n < 4 or np.all(x == x[0]):
        return float(n)
    x = x - np.mean(x)
    var0 = float(np.dot(x, x)) / n
    if var0 == 0.0:
        return float(n)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    rho = acov / acov[0]

    tau = 1.0  # rho_0
    for m in range(1, (n - 1) // 2 + 1):
        pair = rho[2 * m - 1] + rho[2 * m]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return n / tau


def psrf(traces: Sequence) -> float:
    """Split-chain potential scale reduction factor.

    Each trace is split into halves, giving 2m chains; values close to one
    indicate the chains sample the same distribution.
    """
    arrays = [np.asarray(t, dtype=float) for t in traces]
    if len(arrays) == 0:
        raise SizeError("psrf needs at least one trace")
    shortest = min(a.size for a in arrays)
    if shortest < MIN_PSRF_DRAWS:
        raise SizeError(f"psrf needs traces of length >= {MIN_PSRF_DRAWS}")
    half = shortest // 2
    chains = []
    for a in arrays:
        a = a[: 2 * half]
        chains.append(a[:half])
        chains.append(a[half:])
    stacked = np.stack(chains)
    m, length = stacked.shape
    within = float(np.mean(np.var(stacked, axis=1, ddof=1)))
    if within == 0.0:
        return 1.0
    between = length * float(np.var(np.mean(stacked, axis=1), ddof=1))
    pooled = (length - 1) / length * within + between / length
    return math.sqrt(pooled / within)


@dataclass
class ParamSummary:
    name: str
    mean: float
    sd: float
    mcse: float
    ess: float
    psrf: float


def summarize_param(name: str, traces: Sequence) -> ParamSummary:
    """Pooled mean/sd, summed per-chain ESS, MCSE and PSRF of one parameter.

    traces holds one draw array per chain.
    """
    pooled = np.concatenate(traces)
    sd = float(np.std(pooled, ddof=1)) if pooled.size > 1 else 0.0
    total_ess = float(sum(ess(t) for t in traces))
    return ParamSummary(
        name=name,
        mean=float(np.mean(pooled)),
        sd=sd,
        mcse=sd / math.sqrt(total_ess) if total_ess > 0 else 0.0,
        ess=total_ess,
        psrf=psrf(traces),
    )


@dataclass
class DiagnosticsReport:
    """Everything the comparison tables and per-series plots need."""

    n_obs: int
    k: int
    log_lik_at_mean: float
    log_lik_max: float
    mean_deviance: float
    deviance_at_mean: float
    p_d: float
    dic: float
    bic: float
    params: list[ParamSummary]
    latent: LatentSummary


def merge_latent(chains: Sequence[ChainOutput]) -> LatentSummary:
    """Average the per-t summaries across chains (equal draw counts)."""
    if len(chains) == 0:
        raise SizeError("merge_latent needs at least one chain")
    if len(chains) == 1:
        return chains[0].latent
    return LatentSummary(**{
        name: np.mean(np.stack([getattr(c.latent, name) for c in chains]), axis=0)
        for name in LATENT_FIELDS
    })


def static_params(tables: Sequence[dict], k: Optional[int] = None) -> tuple[list[str], int]:
    """The static-parameter names and BIC parameter count of chains' draws.

    tables holds one draws table per chain (ChainOutput.draws, or a chain
    read from draws.csv).  Its column names decide the model: every
    STATIC_NAMES column for the jump model, mu alone for the no-jump
    reduction.  k, when None, defaults to DEFAULT_K_JUMPS or
    DEFAULT_K_NO_JUMPS to match.  Chains whose columns name different
    static parameters are a ParameterError.
    """
    if len(tables) == 0:
        raise SizeError("diagnostics need at least one chain")
    names = [[name for name in STATIC_NAMES if name in table] for table in tables]
    for other in names[1:]:
        if other != names[0]:
            raise ParameterError(
                f"chains disagree on the model: static parameters {names[0]} and {other}"
            )
    if k is None:
        k = DEFAULT_K_JUMPS if len(names[0]) > 1 else DEFAULT_K_NO_JUMPS
    return names[0], k


def score_draws(tables: Sequence[dict], k: Optional[int] = None, n_obs: Optional[int] = None,
                y=None, latent: Optional[LatentSummary] = None) -> tuple[dict, list[ParamSummary]]:
    """Deviance scores and parameter summaries of chains' draws tables.

    tables holds one draws table per chain; static_params reads the
    parameter names and the default k from them.  The scores always give
    mean_deviance and log_lik_max.  With n_obs they add n_obs, k and bic.
    Given the returns y and the chains' latent summary, they add the
    plug-in log_lik_at_mean (pooled mean of mu, latent means),
    deviance_at_mean, p_d and dic.
    """
    names, k = static_params(tables, k)
    log_lik = np.concatenate([t["log_lik"] for t in tables])
    deviance = -2.0 * log_lik
    log_lik_max = float(np.max(log_lik))
    scores = {"mean_deviance": float(np.mean(deviance)), "log_lik_max": log_lik_max}
    if n_obs is not None:
        scores.update(n_obs=int(n_obs), k=int(k), bic=compute_bic(log_lik_max, k, n_obs))
    if y is not None and latent is not None:
        mu_bar = float(np.mean(np.concatenate([t["mu"] for t in tables])))
        log_lik_at_mean = conditional_log_lik(
            y, mu_bar, latent.mean_jump, latent.mean_precision, latent.mean_mixture
        )
        deviance_at_mean = -2.0 * log_lik_at_mean
        dic, p_d = compute_dic(deviance, deviance_at_mean)
        scores.update(log_lik_at_mean=log_lik_at_mean, deviance_at_mean=deviance_at_mean,
                      p_d=p_d, dic=dic)
    params = [summarize_param(name, [t[name] for t in tables]) for name in names]
    return scores, params


def build_report(chains: Sequence[ChainOutput], y, k: Optional[int] = None) -> DiagnosticsReport:
    """Assemble the full diagnostics report from one or more chains.

    All chains must come from the same data and model; score_draws reads
    the parameter names and the default k from their draws.
    """
    tables = [c.draws for c in chains]
    static_params(tables)  # no chains, or chains of two models, fail first
    n_obs = len(chains[0].latent)
    if any(len(c.latent) != n_obs for c in chains[1:]):
        raise ParameterError("chains disagree on data length")
    y_arr = returns_array(y)
    if y_arr.size != n_obs:
        raise SizeError(f"series length {y_arr.size} != chain data length {n_obs}")

    latent = merge_latent(chains)
    scores, params = score_draws(tables, k, n_obs, y_arr, latent)
    return DiagnosticsReport(**scores, params=params, latent=latent)
