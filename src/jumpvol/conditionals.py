"""One-shot draws from every closed-form full conditional posterior.

Each sampler is split into a pure ``*_posterior`` function returning the
posterior parameters and a thin ``sample_*`` wrapper that draws from them.
The parameter functions are what the brute-force conjugacy oracles check,
and they return the prior parameters exactly when there is nothing to
condition on.

Every public function checks its inputs and then calls one private kernel
(``_name``) that holds the math and assumes aligned float arrays and finite
parameters.  The Gibbs sweep calls the kernels directly: its inputs are
checked once, when the fit starts, and every state it produces is valid by
construction.

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


def _check_mu_inputs(y, jumps, precision, mixture):
    y_arr, jumps_arr = _aligned("y", y, "jumps", jumps)
    prec_arr, mix_arr = _aligned("precision", precision, "mixture", mixture)
    if prec_arr.shape != y_arr.shape:
        raise SizeError(f"precision shape {prec_arr.shape} != y shape {y_arr.shape}")
    return y_arr, jumps_arr, prec_arr, mix_arr


def mu_posterior(y, jumps, precision, mixture, priors: Priors) -> tuple[float, float]:
    """Normal posterior (mean, variance) for the equilibrium return mu.

    precision-weighted conjugate update; with no observations it is the
    prior exactly.
    """
    return _mu_posterior(*_check_mu_inputs(y, jumps, precision, mixture), priors)


def _mu_posterior(y, jumps, precision, mixture, priors: Priors) -> tuple[float, float]:
    if y.size == 0:
        return priors.mu_mean, priors.mu_var
    weights = mixture * precision
    post_var = 1.0 / (1.0 / priors.mu_var + float(np.sum(weights)))
    post_mean = post_var * (
        priors.mu_mean / priors.mu_var + float(np.sum(weights * (y - jumps)))
    )
    return post_mean, post_var


def sample_mu(y, jumps, precision, mixture, priors: Priors, rng: RngStream) -> float:
    return _sample_mu(*_check_mu_inputs(y, jumps, precision, mixture), priors, rng)


def _sample_mu(y, jumps, precision, mixture, priors: Priors, rng: RngStream) -> float:
    mean, var = _mu_posterior(y, jumps, precision, mixture, priors)
    return sample_normal(mean, var, rng)


def _check_mixture_inputs(y, jumps, precision):
    y_arr, jumps_arr = _aligned("y", y, "jumps", jumps)
    prec_arr = np.asarray(precision, dtype=float)
    if prec_arr.shape != y_arr.shape:
        raise SizeError(f"precision shape {prec_arr.shape} != y shape {y_arr.shape}")
    return y_arr, jumps_arr, prec_arr


def mixture_posterior(y, mu: float, jumps, precision, cfg: ModelConfig):
    """Gamma posterior (shape, rates) for the whole mixture path.

    Shape is common to all t; the rate picks up half the precision-weighted
    squared residual.
    """
    y_arr, jumps_arr, prec_arr = _check_mixture_inputs(y, jumps, precision)
    return _mixture_posterior(y_arr, mu, jumps_arr, prec_arr, cfg)


def _mixture_posterior(y, mu: float, jumps, precision, cfg: ModelConfig):
    resid = y - mu - jumps
    shape = 0.5 * cfg.nu + 0.5
    rates = 0.5 * cfg.nu + 0.5 * precision * resid * resid
    return shape, rates


def sample_mixture_path(y, mu, jumps, precision, cfg: ModelConfig, rng: RngStream) -> np.ndarray:
    y_arr, jumps_arr, prec_arr = _check_mixture_inputs(y, jumps, precision)
    return _sample_mixture_path(y_arr, mu, jumps_arr, prec_arr, cfg, rng)


def _sample_mixture_path(y, mu, jumps, precision, cfg: ModelConfig, rng: RngStream) -> np.ndarray:
    shape, rates = _mixture_posterior(y, mu, jumps, precision, cfg)
    return rng.generator.standard_gamma(shape, rates.shape) / rates


def _check_jump_var(jump_var) -> None:
    if not (math.isfinite(jump_var) and jump_var > 0):
        raise ParameterError(f"jump_var must be finite and > 0, got {jump_var}")


def jump_mean_posterior(jump_sizes_observed, jump_var: float, priors: Priors) -> tuple[float, float]:
    """Normal posterior (mean, variance) for the jump-size mean.

    Conditions only on sizes at declared jump times; zero observed jumps
    recover the prior exactly.
    """
    xi = np.asarray(jump_sizes_observed, dtype=float)
    _check_jump_var(jump_var)
    return _jump_mean_posterior(xi, jump_var, priors)


def _jump_mean_posterior(xi, jump_var: float, priors: Priors) -> tuple[float, float]:
    n = xi.size
    if n == 0:
        return priors.jump_mean_mean, priors.jump_mean_var
    m, v = priors.jump_mean_mean, priors.jump_mean_var
    xbar = float(np.sum(xi)) / n
    denom = jump_var + n * v
    return (m * jump_var + v * n * xbar) / denom, v * jump_var / denom


def sample_jump_mean(jump_sizes_observed, jump_var, priors: Priors, rng: RngStream) -> float:
    xi = np.asarray(jump_sizes_observed, dtype=float)
    _check_jump_var(jump_var)
    return _sample_jump_mean(xi, jump_var, priors, rng)


def _sample_jump_mean(xi, jump_var, priors: Priors, rng: RngStream) -> float:
    mean, var = _jump_mean_posterior(xi, jump_var, priors)
    return sample_normal(mean, var, rng)


def _check_jump_mean(jump_mean) -> None:
    if not math.isfinite(jump_mean):
        raise ParameterError(f"jump_mean must be finite, got {jump_mean}")


def jump_var_posterior(jump_sizes_observed, jump_mean: float, priors: Priors) -> tuple[float, float]:
    """Inverse-gamma posterior (shape, scale) for the jump-size variance."""
    xi = np.asarray(jump_sizes_observed, dtype=float)
    _check_jump_mean(jump_mean)
    return _jump_var_posterior(xi, jump_mean, priors)


def _jump_var_posterior(xi, jump_mean: float, priors: Priors) -> tuple[float, float]:
    n = xi.size
    if n == 0:
        return priors.jump_var_shape, priors.jump_var_scale
    rss = float(np.sum((xi - jump_mean) ** 2))
    return priors.jump_var_shape + 0.5 * n, priors.jump_var_scale + 0.5 * rss


def sample_jump_var(jump_sizes_observed, jump_mean, priors: Priors, rng: RngStream) -> float:
    xi = np.asarray(jump_sizes_observed, dtype=float)
    _check_jump_mean(jump_mean)
    return _sample_jump_var(xi, jump_mean, priors, rng)


def _sample_jump_var(xi, jump_mean, priors: Priors, rng: RngStream) -> float:
    shape, scale = _jump_var_posterior(xi, jump_mean, priors)
    return sample_inverse_gamma(shape, scale, rng)


def _check_jump_size_inputs(y, precision, mixture, jump_var):
    y_arr = np.asarray(y, dtype=float)
    prec_arr, mix_arr = _aligned("precision", precision, "mixture", mixture)
    if prec_arr.shape != y_arr.shape:
        raise SizeError(f"precision shape {prec_arr.shape} != y shape {y_arr.shape}")
    if not (math.isfinite(jump_var) and jump_var >= 0):
        raise ParameterError(f"jump_var must be finite and >= 0, got {jump_var}")
    return y_arr, prec_arr, mix_arr


def jump_size_posterior(y, mu: float, precision, mixture, jump_mean: float, jump_var: float):
    """Normal posterior (means, variances) for the full jump-size path.

    Precision-weighted average of the prior jump-size mean and the centered
    observation; as jump_var -> 0 the posterior collapses onto jump_mean.
    """
    y_arr, prec_arr, mix_arr = _check_jump_size_inputs(y, precision, mixture, jump_var)
    return _jump_size_posterior(y_arr, mu, prec_arr, mix_arr, jump_mean, jump_var)


def _jump_size_posterior(y, mu: float, precision, mixture, jump_mean: float, jump_var: float):
    obs_var = 1.0 / (mixture * precision)
    denom = jump_var + obs_var
    means = (jump_mean * obs_var + (y - mu) * jump_var) / denom
    variances = jump_var * obs_var / denom
    return means, variances


def sample_jump_sizes(y, mu, precision, mixture, jump_mean, jump_var, rng: RngStream) -> np.ndarray:
    y_arr, prec_arr, mix_arr = _check_jump_size_inputs(y, precision, mixture, jump_var)
    return _sample_jump_sizes(y_arr, mu, prec_arr, mix_arr, jump_mean, jump_var, rng)


def _sample_jump_sizes(y, mu, precision, mixture, jump_mean, jump_var, rng: RngStream) -> np.ndarray:
    means, variances = _jump_size_posterior(y, mu, precision, mixture, jump_mean, jump_var)
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
    return _jump_indicator_probs(y_arr, mu, prec_arr, mix_arr, xi_arr, jump_prob)


def _jump_indicator_probs(y, mu: float, precision, mixture, jump_sizes, jump_prob: float) -> np.ndarray:
    if jump_prob <= 0.0:
        return np.zeros_like(y)
    if jump_prob >= 1.0:
        return np.ones_like(y)
    centered = y - mu
    # (c - xi)^2 - c^2 = xi (xi - 2c), without the cancellation.
    log_odds = (0.5 * mixture * precision) * (jump_sizes * (2.0 * centered - jump_sizes))
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
    return _apply_jump_threshold(probs_arr, threshold)


def _apply_jump_threshold(probs, threshold: float) -> np.ndarray:
    return (probs > threshold).astype(np.int64)


def _check_indicators(jump_ind) -> np.ndarray:
    ind = np.asarray(jump_ind)
    if np.count_nonzero(ind == 1) + np.count_nonzero(ind == 0) != ind.size:
        raise ParameterError("jump_ind entries must be 0 or 1")
    return ind


def jump_prob_posterior(jump_ind, priors: Priors) -> tuple[float, float]:
    """Beta posterior (a, b) for the jump probability."""
    return _jump_prob_posterior(_check_indicators(jump_ind), priors)


def _jump_prob_posterior(jump_ind, priors: Priors) -> tuple[float, float]:
    total = float(np.count_nonzero(jump_ind))
    return priors.jump_prob_a + total, priors.jump_prob_b + jump_ind.size - total


def sample_jump_prob(jump_ind, priors: Priors, rng: RngStream) -> float:
    return _sample_jump_prob(_check_indicators(jump_ind), priors, rng)


def _sample_jump_prob(jump_ind, priors: Priors, rng: RngStream) -> float:
    a, b = _jump_prob_posterior(jump_ind, priors)
    return sample_beta(a, b, rng)
