"""One-shot draws from every closed-form full conditional posterior.

Each sampler is split into a pure ``*_posterior`` function returning the
posterior parameters and a thin ``sample_*`` wrapper that draws from them.
The parameter functions are what the brute-force conjugacy oracles check,
and they return the prior parameters exactly when there is nothing to
condition on.

Conventions:

* ``jumps`` is the realized jump path xi * N, aligned with y.
* ``precision`` and ``mixture`` are the lambda and gamma paths; the
  conditional variance of observation t is 1/(mixture_t * precision_t).
* Jump-size mean/variance updates condition only on the xi values at
  declared jump times; the caller passes that subset.
* The jump indicator is set by a deterministic threshold rule on the
  posterior jump probability (strict inequality: ties are non-jumps),
  replacing a Bernoulli draw inside the sweep.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, SizeError
from .model import ModelConfig, Priors
from .rng import RngStream, sample_beta, sample_inverse_gamma, sample_normal

__all__ = [
    "mu_posterior",
    "sample_mu",
    "mixture_posterior",
    "sample_mixture_path",
    "jump_mean_posterior",
    "sample_jump_mean",
    "jump_var_posterior",
    "sample_jump_var",
    "jump_size_posterior",
    "sample_jump_sizes",
    "jump_indicator_probs",
    "apply_jump_threshold",
    "jump_prob_posterior",
    "sample_jump_prob",
]


def _aligned(name_a: str, a, name_b: str, b) -> tuple[np.ndarray, np.ndarray]:
    arr_a = np.asarray(a, dtype=float)
    arr_b = np.asarray(b, dtype=float)
    if arr_a.shape != arr_b.shape:
        raise SizeError(f"{name_a} shape {arr_a.shape} != {name_b} shape {arr_b.shape}")
    return arr_a, arr_b


def mu_posterior(y, jumps, precision, mixture, priors: Priors) -> tuple[float, float]:
    """Normal posterior (mean, variance) for the equilibrium return mu.

    precision-weighted conjugate update; with no observations it is the
    prior exactly.
    """
    y_arr, jumps_arr = _aligned("y", y, "jumps", jumps)
    prec_arr, mix_arr = _aligned("precision", precision, "mixture", mixture)
    if prec_arr.shape != y_arr.shape:
        raise SizeError(f"precision shape {prec_arr.shape} != y shape {y_arr.shape}")
    if y_arr.size == 0:
        return priors.mu_mean, priors.mu_var
    weights = mix_arr * prec_arr
    post_var = 1.0 / (1.0 / priors.mu_var + float(np.sum(weights)))
    post_mean = post_var * (
        priors.mu_mean / priors.mu_var + float(np.sum(weights * (y_arr - jumps_arr)))
    )
    return post_mean, post_var


def sample_mu(y, jumps, precision, mixture, priors: Priors, rng: RngStream) -> float:
    mean, var = mu_posterior(y, jumps, precision, mixture, priors)
    return sample_normal(mean, var, rng)


def mixture_posterior(y, mu: float, jumps, precision, cfg: ModelConfig):
    """Gamma posterior (shape, rates) for the whole mixture path.

    Shape is common to all t; the rate picks up half the precision-weighted
    squared residual.
    """
    y_arr, jumps_arr = _aligned("y", y, "jumps", jumps)
    prec_arr = np.asarray(precision, dtype=float)
    if prec_arr.shape != y_arr.shape:
        raise SizeError(f"precision shape {prec_arr.shape} != y shape {y_arr.shape}")
    resid = y_arr - mu - jumps_arr
    shape = 0.5 * cfg.nu + 0.5
    rates = 0.5 * cfg.nu + 0.5 * prec_arr * resid * resid
    return shape, rates


def sample_mixture_path(y, mu, jumps, precision, cfg: ModelConfig, rng: RngStream) -> np.ndarray:
    shape, rates = mixture_posterior(y, mu, jumps, precision, cfg)
    return rng.generator.standard_gamma(shape, rates.shape) / rates


def jump_mean_posterior(jump_sizes_observed, jump_var: float, priors: Priors) -> tuple[float, float]:
    """Normal posterior (mean, variance) for the jump-size mean.

    Conditions only on sizes at declared jump times; zero observed jumps
    recover the prior exactly.
    """
    xi = np.asarray(jump_sizes_observed, dtype=float)
    if not (math.isfinite(jump_var) and jump_var > 0):
        raise ParameterError(f"jump_var must be finite and > 0, got {jump_var}")
    n = xi.size
    if n == 0:
        return priors.jump_mean_mean, priors.jump_mean_var
    m, v = priors.jump_mean_mean, priors.jump_mean_var
    xbar = float(np.sum(xi)) / n
    denom = jump_var + n * v
    return (m * jump_var + v * n * xbar) / denom, v * jump_var / denom


def sample_jump_mean(jump_sizes_observed, jump_var, priors: Priors, rng: RngStream) -> float:
    mean, var = jump_mean_posterior(jump_sizes_observed, jump_var, priors)
    return sample_normal(mean, var, rng)


def jump_var_posterior(jump_sizes_observed, jump_mean: float, priors: Priors) -> tuple[float, float]:
    """Inverse-gamma posterior (shape, scale) for the jump-size variance."""
    xi = np.asarray(jump_sizes_observed, dtype=float)
    if not math.isfinite(jump_mean):
        raise ParameterError(f"jump_mean must be finite, got {jump_mean}")
    n = xi.size
    if n == 0:
        return priors.jump_var_shape, priors.jump_var_scale
    rss = float(np.sum((xi - jump_mean) ** 2))
    return priors.jump_var_shape + 0.5 * n, priors.jump_var_scale + 0.5 * rss


def sample_jump_var(jump_sizes_observed, jump_mean, priors: Priors, rng: RngStream) -> float:
    shape, scale = jump_var_posterior(jump_sizes_observed, jump_mean, priors)
    return sample_inverse_gamma(shape, scale, rng)


def jump_size_posterior(y, mu: float, precision, mixture, jump_mean: float, jump_var: float):
    """Normal posterior (means, variances) for the full jump-size path.

    Precision-weighted average of the prior jump-size mean and the centered
    observation; as jump_var -> 0 the posterior collapses onto jump_mean.
    """
    y_arr = np.asarray(y, dtype=float)
    prec_arr, mix_arr = _aligned("precision", precision, "mixture", mixture)
    if prec_arr.shape != y_arr.shape:
        raise SizeError(f"precision shape {prec_arr.shape} != y shape {y_arr.shape}")
    if not (math.isfinite(jump_var) and jump_var >= 0):
        raise ParameterError(f"jump_var must be finite and >= 0, got {jump_var}")
    obs_var = 1.0 / (mix_arr * prec_arr)
    denom = jump_var + obs_var
    means = (jump_mean * obs_var + (y_arr - mu) * jump_var) / denom
    variances = jump_var * obs_var / denom
    return means, variances


def sample_jump_sizes(y, mu, precision, mixture, jump_mean, jump_var, rng: RngStream) -> np.ndarray:
    means, variances = jump_size_posterior(y, mu, precision, mixture, jump_mean, jump_var)
    return means + np.sqrt(variances) * rng.generator.standard_normal(means.shape)


def jump_indicator_probs(y, mu: float, precision, mixture, jump_sizes, jump_prob: float) -> np.ndarray:
    """Posterior probability that each observation is a jump.

    p_t = rho * phi(y_t; mu + xi_t, s_t) / (rho * phi(y_t; mu + xi_t, s_t)
          + (1 - rho) * phi(y_t; mu, s_t)) with s_t = 1/(mixture_t * precision_t).
    The log-odds are log(rho/(1-rho)) - ((y-mu-xi)^2 - (y-mu)^2)/(2 s); the
    log s terms of the two densities cancel.  rho <= 0 and rho >= 1
    short-circuit to hard zeros/ones.
    """
    y_arr = np.asarray(y, dtype=float)
    prec_arr, mix_arr = _aligned("precision", precision, "mixture", mixture)
    xi_arr = np.asarray(jump_sizes, dtype=float)
    if prec_arr.shape != y_arr.shape or xi_arr.shape != y_arr.shape:
        raise SizeError("y, precision, mixture and jump_sizes must share one shape")
    if not math.isfinite(jump_prob):
        raise ParameterError(f"jump_prob must be finite, got {jump_prob}")
    if jump_prob <= 0.0:
        return np.zeros_like(y_arr)
    if jump_prob >= 1.0:
        return np.ones_like(y_arr)
    centered = y_arr - mu
    # (c - xi)^2 - c^2 = xi (xi - 2c), without the cancellation.
    log_odds = (0.5 * mix_arr * prec_arr) * (xi_arr * (2.0 * centered - xi_arr))
    log_odds += math.log(jump_prob) - math.log1p(-jump_prob)
    return _logistic(log_odds)


def _logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) through exp(-|z|), which cannot overflow."""
    e = np.exp(-np.abs(z))
    r = 1.0 / (1.0 + e)
    return np.where(z >= 0.0, r, e * r)


def apply_jump_threshold(probs, threshold: float) -> np.ndarray:
    """Declare jumps where the posterior probability strictly exceeds the cutoff."""
    probs_arr = np.asarray(probs, dtype=float)
    if not math.isfinite(threshold):
        raise ParameterError(f"threshold must be finite, got {threshold}")
    return (probs_arr > threshold).astype(np.int64)


def jump_prob_posterior(jump_ind, priors: Priors) -> tuple[float, float]:
    """Beta posterior (a, b) for the jump probability."""
    ind = np.asarray(jump_ind)
    ones = int(np.count_nonzero(ind == 1))
    if ones + np.count_nonzero(ind == 0) != ind.size:
        raise ParameterError("jump_ind entries must be 0 or 1")
    total = float(ones)
    return priors.jump_prob_a + total, priors.jump_prob_b + ind.size - total


def sample_jump_prob(jump_ind, priors: Priors, rng: RngStream) -> float:
    a, b = jump_prob_posterior(jump_ind, priors)
    return sample_beta(a, b, rng)
