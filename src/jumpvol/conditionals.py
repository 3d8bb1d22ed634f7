"""One-shot draws from every closed-form full conditional posterior.

Each sampler is split into a pure ``*_posterior`` function returning the
posterior parameters and a thin ``sample_*`` wrapper that draws from them.
The parameter functions are what the brute-force conjugacy oracles check,
and they return the prior parameters exactly when there is nothing to
condition on.

Each public function checks its inputs once.  Paths go through
:func:`jumpvol.model.aligned`, which returns them as float arrays shaped
like y, and each scalar or indicator check lives in the one ``*_posterior``
(or :func:`apply_jump_threshold`) that owns it.  The public functions then
build the arrays their private kernel (``_name``) reads and call it; each
public scalar ``sample_*`` draws from its checked ``*_posterior`` through
:mod:`jumpvol.rng`.  The kernels hold the math, and the Gibbs sweep calls
them directly: its inputs are checked once, when the fit starts, and every
state it produces is valid by construction.  The sweep forms each array
that several stages read once (see :mod:`jumpvol.gibbs`), so the kernels
take them ready-made: ``weights`` = mixture * precision, ``shifted`` =
y - jumps, ``centered`` = y - mu, ``resid`` = y - mu - jumps and
``variance`` = 1 / weights.  The scalar kernels draw from ``rng.generator``
with the arguments the checked :mod:`jumpvol.rng` samplers pass it, so
both give the same stream.

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

from .errors import ParameterError
from .model import ModelConfig, Priors, aligned
from .rng import _GAMMA_FLOOR, RngStream, sample_beta, sample_inverse_gamma, sample_normal

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


def mu_posterior(y, jumps, precision, mixture, priors: Priors) -> tuple[float, float]:
    """Normal posterior (mean, variance) for the equilibrium return mu.

    precision-weighted conjugate update; with no observations it is the
    prior exactly.
    """
    y, jumps, precision, mixture = aligned(y, jumps=jumps, precision=precision, mixture=mixture)
    return _mu_posterior(mixture * precision, y - jumps, priors)


def _mu_posterior(weights, shifted, priors: Priors) -> tuple[float, float]:
    if weights.size == 0:
        return priors.mu_mean, priors.mu_var
    post_var = 1.0 / (1.0 / priors.mu_var + float(weights.sum()))
    post_mean = post_var * (priors.mu_mean / priors.mu_var + float((weights * shifted).sum()))
    return post_mean, post_var


def sample_mu(y, jumps, precision, mixture, priors: Priors, rng: RngStream) -> float:
    return sample_normal(*mu_posterior(y, jumps, precision, mixture, priors), rng)


def _sample_mu(weights, shifted, priors: Priors, rng: RngStream) -> float:
    mean, var = _mu_posterior(weights, shifted, priors)
    return rng.generator.normal(mean, math.sqrt(var))


def mixture_posterior(y, mu: float, jumps, precision, cfg: ModelConfig):
    """Gamma posterior (shape, rates) for the whole mixture path.

    Shape is common to all t; the rate picks up half the precision-weighted
    squared residual.
    """
    y, jumps, precision = aligned(y, jumps=jumps, precision=precision)
    return _mixture_posterior(y - mu - jumps, precision, cfg)


def _mixture_posterior(resid, precision, cfg: ModelConfig):
    shape = 0.5 * cfg.nu + 0.5
    rates = 0.5 * cfg.nu + 0.5 * precision * resid * resid
    return shape, rates


def sample_mixture_path(y, mu, jumps, precision, cfg: ModelConfig, rng: RngStream) -> np.ndarray:
    y, jumps, precision = aligned(y, jumps=jumps, precision=precision)
    return _sample_mixture_path(y - mu - jumps, precision, cfg, rng)


def _sample_mixture_path(resid, precision, cfg: ModelConfig, rng: RngStream) -> np.ndarray:
    shape, rates = _mixture_posterior(resid, precision, cfg)
    return rng.generator.standard_gamma(shape, rates.shape) / rates


def jump_mean_posterior(jump_sizes_observed, jump_var: float, priors: Priors) -> tuple[float, float]:
    """Normal posterior (mean, variance) for the jump-size mean.

    Conditions only on sizes at declared jump times; zero observed jumps
    recover the prior exactly.
    """
    if not (math.isfinite(jump_var) and jump_var > 0):
        raise ParameterError(f"jump_var must be finite and > 0, got {jump_var}")
    return _jump_mean_posterior(np.asarray(jump_sizes_observed, dtype=float), jump_var, priors)


def _jump_mean_posterior(xi, jump_var: float, priors: Priors) -> tuple[float, float]:
    n = xi.size
    if n == 0:
        return priors.jump_mean_mean, priors.jump_mean_var
    m, v = priors.jump_mean_mean, priors.jump_mean_var
    xbar = float(xi.sum()) / n
    denom = jump_var + n * v
    return (m * jump_var + v * n * xbar) / denom, v * jump_var / denom


def sample_jump_mean(jump_sizes_observed, jump_var, priors: Priors, rng: RngStream) -> float:
    return sample_normal(*jump_mean_posterior(jump_sizes_observed, jump_var, priors), rng)


def _sample_jump_mean(xi, jump_var, priors: Priors, rng: RngStream) -> float:
    mean, var = _jump_mean_posterior(xi, jump_var, priors)
    return rng.generator.normal(mean, math.sqrt(var))


def jump_var_posterior(jump_sizes_observed, jump_mean: float, priors: Priors) -> tuple[float, float]:
    """Inverse-gamma posterior (shape, scale) for the jump-size variance."""
    if not math.isfinite(jump_mean):
        raise ParameterError(f"jump_mean must be finite, got {jump_mean}")
    return _jump_var_posterior(np.asarray(jump_sizes_observed, dtype=float), jump_mean, priors)


def _jump_var_posterior(xi, jump_mean: float, priors: Priors) -> tuple[float, float]:
    n = xi.size
    if n == 0:
        return priors.jump_var_shape, priors.jump_var_scale
    rss = float(((xi - jump_mean) ** 2).sum())
    return priors.jump_var_shape + 0.5 * n, priors.jump_var_scale + 0.5 * rss


def sample_jump_var(jump_sizes_observed, jump_mean, priors: Priors, rng: RngStream) -> float:
    return sample_inverse_gamma(*jump_var_posterior(jump_sizes_observed, jump_mean, priors), rng)


def _sample_jump_var(xi, jump_mean, priors: Priors, rng: RngStream) -> float:
    shape, scale = _jump_var_posterior(xi, jump_mean, priors)
    return 1.0 / max(rng.generator.gamma(shape, 1.0 / scale), _GAMMA_FLOOR)


def jump_size_posterior(y, mu: float, precision, mixture, jump_mean: float, jump_var: float):
    """Normal posterior (means, variances) for the full jump-size path.

    Precision-weighted average of the prior jump-size mean and the centered
    observation; as jump_var -> 0 the posterior collapses onto jump_mean.
    """
    y, precision, mixture = aligned(y, precision=precision, mixture=mixture)
    if not (math.isfinite(jump_var) and jump_var >= 0):
        raise ParameterError(f"jump_var must be finite and >= 0, got {jump_var}")
    return _jump_size_posterior(y - mu, 1.0 / (mixture * precision), jump_mean, jump_var)


def _jump_size_posterior(centered, variance, jump_mean: float, jump_var: float):
    denom = jump_var + variance
    means = (jump_mean * variance + centered * jump_var) / denom
    variances = jump_var * variance / denom
    return means, variances


def sample_jump_sizes(y, mu, precision, mixture, jump_mean, jump_var, rng: RngStream) -> np.ndarray:
    return _normal_path(*jump_size_posterior(y, mu, precision, mixture, jump_mean, jump_var), rng)


def _sample_jump_sizes(centered, variance, jump_mean, jump_var, rng: RngStream) -> np.ndarray:
    return _normal_path(*_jump_size_posterior(centered, variance, jump_mean, jump_var), rng)


def _normal_path(means, variances, rng: RngStream) -> np.ndarray:
    return means + np.sqrt(variances) * rng.generator.standard_normal(means.shape)


def jump_indicator_probs(y, mu: float, precision, mixture, jump_sizes, jump_prob: float) -> np.ndarray:
    """Posterior probability that each observation is a jump.

    p_t = rho * phi(y_t; mu + xi_t, s_t) / (rho * phi(y_t; mu + xi_t, s_t)
          + (1 - rho) * phi(y_t; mu, s_t)) with s_t = 1/(mixture_t * precision_t).
    The log-odds are log(rho/(1-rho)) - ((y-mu-xi)^2 - (y-mu)^2)/(2 s); the
    log s terms of the two densities cancel.  rho <= 0 and rho >= 1
    short-circuit to hard zeros/ones.
    """
    y, precision, mixture, jump_sizes = aligned(
        y, precision=precision, mixture=mixture, jump_sizes=jump_sizes
    )
    if not math.isfinite(jump_prob):
        raise ParameterError(f"jump_prob must be finite, got {jump_prob}")
    return _jump_indicator_probs(y - mu, precision, mixture, jump_sizes, jump_prob)


def _jump_indicator_probs(centered, precision, mixture, jump_sizes, jump_prob: float) -> np.ndarray:
    if jump_prob <= 0.0:
        return np.zeros_like(centered)
    if jump_prob >= 1.0:
        return np.ones_like(centered)
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


def jump_prob_posterior(jump_ind, priors: Priors) -> tuple[float, float]:
    """Beta posterior (a, b) for the jump probability."""
    ind = np.asarray(jump_ind)
    if np.count_nonzero(ind == 1) + np.count_nonzero(ind == 0) != ind.size:
        raise ParameterError("jump_ind entries must be 0 or 1")
    return _jump_prob_posterior(ind, priors)


def _jump_prob_posterior(jump_ind, priors: Priors) -> tuple[float, float]:
    total = float(np.count_nonzero(jump_ind))
    return priors.jump_prob_a + total, priors.jump_prob_b + jump_ind.size - total


def sample_jump_prob(jump_ind, priors: Priors, rng: RngStream) -> float:
    return sample_beta(*jump_prob_posterior(jump_ind, priors), rng)


def _sample_jump_prob(jump_ind, priors: Priors, rng: RngStream) -> float:
    return rng.generator.beta(*_jump_prob_posterior(jump_ind, priors))
