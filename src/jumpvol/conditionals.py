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
public scalar ``sample_*`` makes, from its checked ``*_posterior``, the one
generator call that its kernel makes.  The kernels hold the math, and the
Gibbs sweep calls them directly: its inputs are checked once, when the fit
starts, and every state it produces is valid by construction.  The sweep
forms each array that several stages read once (see :mod:`jumpvol.gibbs`),
so the kernels take them ready-made: ``weights`` = mixture * precision,
the conditional precision of each observation, ``shifted`` = y - jumps,
``centered`` = y - mu and ``resid`` = y - mu - jumps.  No kernel reads the
variance 1 / weights, which saves the sweep a division pass.  The array
kernels write into the arrays they are given (``out`` for the result,
``work`` for scratch): the public functions allocate them on each call,
and the sweep passes its workspace.

The kernels of the two array samplers take their standard variates
(gammas at the mixture path's common shape, normals for the jump sizes) as
arrays, which the Gibbs sweep draws ahead of time; the public functions
draw them from the stream's child generators, ``mixture_gammas`` and
``normals`` (see :mod:`jumpvol.rng`).  The gammas are one scalar-shape
call, cheaper per draw than a call with an array of equal shapes.

Conventions:

* ``jumps`` is the realized jump path xi * N, aligned with y.
* ``precision`` and ``mixture`` are the lambda and gamma paths; the
  conditional variance of observation t is 1/(mixture_t * precision_t).
* Jump-size mean/variance updates condition only on the xi values at
  declared jump times; the caller passes that subset.
* The jump indicator is set by a deterministic threshold rule on the
  posterior jump probability (strict inequality: ties are non-jumps),
  replacing a Bernoulli draw inside the sweep.  The sweep applies it as
  z_t > logit(threshold) to the log-odds z_t and forms no probability
  from them.  A retained sweep reports :func:`jump_indicator_posterior`,
  the probability of a jump with xi_t integrated out.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .model import ModelConfig, Priors, aligned
from .rng import _GAMMA_FLOOR, RngStream

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
    "jump_indicator_posterior",
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
    return _mu_posterior(mixture * precision, y - jumps, priors, np.empty(y.size))


def _mu_posterior(weights, shifted, priors: Priors, work) -> tuple[float, float]:
    if weights.size == 0:
        return priors.mu_mean, priors.mu_var
    post_var = 1.0 / (1.0 / priors.mu_var + float(np.add.reduce(weights)))
    weighted = np.multiply(weights, shifted, out=work)
    post_mean = post_var * (priors.mu_mean / priors.mu_var + float(np.add.reduce(weighted)))
    return post_mean, post_var


def sample_mu(y, jumps, precision, mixture, priors: Priors, rng: RngStream) -> float:
    return _normal(*mu_posterior(y, jumps, precision, mixture, priors), rng)


def _sample_mu(weights, shifted, priors: Priors, work, rng: RngStream) -> float:
    return _normal(*_mu_posterior(weights, shifted, priors, work), rng)


def _normal(mean: float, var: float, rng: RngStream) -> float:
    return rng.generator.normal(mean, math.sqrt(var))


def mixture_posterior(y, mu: float, jumps, precision, cfg: ModelConfig):
    """Gamma posterior (shape, rates) for the whole mixture path.

    Shape is common to all t; the rate picks up half the precision-weighted
    squared residual.
    """
    y, jumps, precision = aligned(y, jumps=jumps, precision=precision)
    return _mixture_posterior(y - mu - jumps, precision, cfg, np.empty(y.size))


def _mixture_posterior(resid, precision, cfg: ModelConfig, out):
    np.multiply(0.5, precision, out=out)
    out *= resid
    out *= resid
    np.add(0.5 * cfg.nu, out, out=out)
    return _mixture_shape(cfg), out


def _mixture_shape(cfg: ModelConfig) -> float:
    return 0.5 * cfg.nu + 0.5


def sample_mixture_path(y, mu, jumps, precision, cfg: ModelConfig, rng: RngStream) -> np.ndarray:
    y, jumps, precision = aligned(y, jumps=jumps, precision=precision)
    variates = rng.mixture_gammas.standard_gamma(_mixture_shape(cfg), y.size)
    return _sample_mixture_path(y - mu - jumps, precision, cfg, variates, np.empty(y.size))


def _sample_mixture_path(resid, precision, cfg: ModelConfig, variates, out) -> np.ndarray:
    """variates: standard gammas at the common shape, one per observation."""
    _, rates = _mixture_posterior(resid, precision, cfg, out)
    return np.divide(variates, rates, out=out)


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
    xbar = float(np.add.reduce(xi)) / n
    denom = jump_var + n * v
    return (m * jump_var + v * n * xbar) / denom, v * jump_var / denom


def sample_jump_mean(jump_sizes_observed, jump_var, priors: Priors, rng: RngStream) -> float:
    return _normal(*jump_mean_posterior(jump_sizes_observed, jump_var, priors), rng)


def _sample_jump_mean(xi, jump_var, priors: Priors, rng: RngStream) -> float:
    return _normal(*_jump_mean_posterior(xi, jump_var, priors), rng)


def jump_var_posterior(jump_sizes_observed, jump_mean: float, priors: Priors) -> tuple[float, float]:
    """Inverse-gamma posterior (shape, scale) for the jump-size variance."""
    if not math.isfinite(jump_mean):
        raise ParameterError(f"jump_mean must be finite, got {jump_mean}")
    return _jump_var_posterior(np.asarray(jump_sizes_observed, dtype=float), jump_mean, priors)


def _jump_var_posterior(xi, jump_mean: float, priors: Priors) -> tuple[float, float]:
    n = xi.size
    if n == 0:
        return priors.jump_var_shape, priors.jump_var_scale
    dev = np.subtract(xi, jump_mean)
    rss = float(np.add.reduce(np.square(dev, out=dev)))
    return priors.jump_var_shape + 0.5 * n, priors.jump_var_scale + 0.5 * rss


def sample_jump_var(jump_sizes_observed, jump_mean, priors: Priors, rng: RngStream) -> float:
    return _inverse_gamma(*jump_var_posterior(jump_sizes_observed, jump_mean, priors), rng)


def _sample_jump_var(xi, jump_mean, priors: Priors, rng: RngStream) -> float:
    return _inverse_gamma(*_jump_var_posterior(xi, jump_mean, priors), rng)


def _inverse_gamma(shape: float, scale: float, rng: RngStream) -> float:
    return 1.0 / max(rng.generator.gamma(shape, 1.0 / scale), _GAMMA_FLOOR)


def jump_size_posterior(y, mu: float, precision, mixture, jump_mean: float, jump_var: float):
    """Normal posterior (means, variances) for the full jump-size path.

    Precision-weighted average of the prior jump-size mean and the centered
    observation c_t: with w_t = mixture_t * precision_t the means are
    (jump_mean + c_t jump_var w_t) / (1 + jump_var w_t) and the variances
    jump_var / (1 + jump_var w_t).  As jump_var -> 0 the posterior collapses
    onto jump_mean; at jump_var = 0 it is jump_mean and 0 exactly.
    """
    y, precision, mixture = aligned(y, precision=precision, mixture=mixture)
    if not (math.isfinite(jump_var) and jump_var >= 0):
        raise ParameterError(f"jump_var must be finite and >= 0, got {jump_var}")
    return _jump_size_posterior(y - mu, mixture * precision, jump_mean, jump_var,
                                np.empty(y.size), np.empty((2, y.size)))


def _jump_size_posterior(centered, weights, jump_mean: float, jump_var: float, out, work):
    """The means are written into out and the variances into work[1]."""
    denom, variances = work
    np.multiply(jump_var, weights, out=denom)
    denom += 1.0
    np.multiply(centered, weights, out=out)
    out *= jump_var
    out += jump_mean
    out /= denom
    np.divide(jump_var, denom, out=variances)
    return out, variances


def sample_jump_sizes(y, mu, precision, mixture, jump_mean, jump_var, rng: RngStream) -> np.ndarray:
    means, variances = jump_size_posterior(y, mu, precision, mixture, jump_mean, jump_var)
    return _normal_path(means, variances, rng.normals.standard_normal(means.shape))


def _sample_jump_sizes(centered, weights, jump_mean, jump_var, variates, out, work) -> np.ndarray:
    """variates: standard normals, one per observation."""
    return _normal_path(*_jump_size_posterior(centered, weights, jump_mean, jump_var, out, work),
                        variates)


def _normal_path(means, variances, variates) -> np.ndarray:
    """means + sqrt(variances) * variates, written into means."""
    np.sqrt(variances, out=variances)
    variances *= variates
    means += variances
    return means


def jump_indicator_probs(y, mu: float, precision, mixture, jump_sizes, jump_prob: float) -> np.ndarray:
    """Posterior probability that each observation is a jump, given its size.

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
    log_odds = _jump_indicator_probs(mixture * precision, y - mu, jump_sizes, jump_prob,
                                     np.empty((2, y.size)))
    return _probabilities(log_odds, jump_prob, np.empty(y.size))


def _jump_indicator_probs(weights, centered, jump_sizes, jump_prob: float, work):
    """Writes the log-odds z into work[0] (-inf or +inf for rho <= 0 or >= 1) and returns them."""
    log_odds, spread = work
    if jump_prob <= 0.0 or jump_prob >= 1.0:
        log_odds.fill(math.inf if jump_prob >= 1.0 else -math.inf)
        return log_odds
    # (c^2 - (c - xi)^2) w/2 = w xi (c - xi/2), without the cancellation.
    np.multiply(0.5, jump_sizes, out=spread)
    np.subtract(centered, spread, out=spread)
    spread *= jump_sizes
    np.multiply(weights, spread, out=log_odds)
    log_odds += _logit(jump_prob)
    return log_odds


def jump_indicator_posterior(y, mu: float, precision, mixture, jump_mean: float, jump_var: float,
                             jump_prob: float) -> np.ndarray:
    """P(N_t = 1 | mu, precision, mixture, rho, jump_mean, jump_var, y), xi_t integrated out.

    With c_t = y_t - mu, w_t = mixture_t * precision_t and r_t = 1 +
    jump_var w_t, a jump's c_t is N(jump_mean, jump_var + 1/w_t) and a
    non-jump's N(0, 1/w_t), so the log-odds are

        logit(rho) - log(r_t)/2 - w_t (c_t - jump_mean)^2 / (2 r_t) + w_t c_t^2 / 2.

    Averaged over kept draws this is the Rao-Blackwell estimate of the
    probability of a jump.  rho <= 0 and rho >= 1 give hard zeros/ones.
    """
    y, precision, mixture = aligned(y, precision=precision, mixture=mixture)
    for name, value in (("jump_mean", jump_mean), ("jump_prob", jump_prob)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    if not (math.isfinite(jump_var) and jump_var >= 0):
        raise ParameterError(f"jump_var must be finite and >= 0, got {jump_var}")
    return _jump_indicator_posterior(mixture * precision, y - mu, jump_mean, jump_var, jump_prob,
                                     np.empty(y.size), np.empty((2, y.size)))


def _jump_indicator_posterior(weights, centered, jump_mean, jump_var, jump_prob, out, work):
    """Writes the probabilities into out, which may be centered; work is two scratches like out.

    The arrays are n-length with float parameters, or (K, n) blocks of K draws
    with the parameters as (K, 1) columns.  With a = jump_var w the log-odds
    are logit(rho) - log1p(a)/2 + (w / r) (a c^2 + m (2c - m)) / 2: the
    w c^2 / 2 of the two densities cancel in the algebra, not in floating
    point.  A draw with rho <= 0 or rho >= 1 gets exact zeros or ones.
    """
    spread, log_odds = work
    np.multiply(jump_var, weights, out=spread)
    np.multiply(spread, centered, out=log_odds)
    log_odds *= centered
    np.subtract(centered, 0.5 * jump_mean, out=out)  # centered is not read after this
    out *= 2.0 * jump_mean
    log_odds += out
    log_odds *= weights
    np.add(spread, 1.0, out=out)
    log_odds /= out
    np.log1p(spread, out=spread)
    log_odds -= spread
    log_odds *= 0.5
    column = isinstance(jump_prob, np.ndarray)
    rhos = jump_prob[:, 0].tolist() if column else [jump_prob]
    logits = [_logit(p) if 0.0 < p < 1.0 else 0.0 for p in rhos]
    log_odds += np.array(logits)[:, None] if column else logits[0]
    _logistic(log_odds, out)
    for k, p in enumerate(rhos):
        if not 0.0 < p < 1.0:
            (out[k] if column else out).fill(float(p >= 1.0))
    return out


def _probabilities(log_odds, jump_prob: float, out) -> np.ndarray:
    """1 / (1 + exp(-z)) into out, or exact zeros/ones for rho <= 0 and rho >= 1."""
    if jump_prob <= 0.0 or jump_prob >= 1.0:
        out.fill(float(jump_prob >= 1.0))
        return out
    return _logistic(log_odds, out)


def _logit(p: float) -> float:
    return math.log(p) - math.log1p(-p)


def _logistic(z: np.ndarray, out) -> np.ndarray:
    """1 / (1 + exp(min(-z, 700))), written into out; z is kept.

    The exponent is capped where exp is still finite (e^700 ~ 1.0e304), so
    no z overflows or warns: for z <= -700, where 1 / (1 + e^-z) would
    underflow towards 0, p bottoms out at 1 / (1 + e^700) ~ 9.9e-305.
    """
    np.negative(z, out=out)
    np.minimum(out, 700.0, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def apply_jump_threshold(probs, threshold: float) -> np.ndarray:
    """Declare jumps where the posterior probability strictly exceeds the cutoff."""
    probs_arr = np.asarray(probs, dtype=float)
    if not math.isfinite(threshold):
        raise ParameterError(f"threshold must be finite, got {threshold}")
    return _apply_jump_threshold(probs_arr, threshold, np.empty(probs_arr.shape, dtype=np.int64))


def _apply_jump_threshold(scores, cutoff: float, out) -> np.ndarray:
    """out = 1{scores > cutoff}: probabilities and the threshold, or log-odds and its logit.

    out is int64 for the public function and the sweep's bool mask of declared jumps.
    """
    return np.greater(scores, cutoff, out=out)


def jump_prob_posterior(jump_ind, priors: Priors) -> tuple[float, float]:
    """Beta posterior (a, b) for the jump probability."""
    ind = np.asarray(jump_ind)
    if np.count_nonzero(ind == 1) + np.count_nonzero(ind == 0) != ind.size:
        raise ParameterError("jump_ind entries must be 0 or 1")
    return _jump_prob_posterior(np.count_nonzero(ind), ind.size, priors)


def _jump_prob_posterior(declared: int, n: int, priors: Priors) -> tuple[float, float]:
    return priors.jump_prob_a + declared, priors.jump_prob_b + n - declared


def sample_jump_prob(jump_ind, priors: Priors, rng: RngStream) -> float:
    return rng.generator.beta(*jump_prob_posterior(jump_ind, priors))


def _sample_jump_prob(declared: int, n: int, priors: Priors, rng: RngStream) -> float:
    return rng.generator.beta(*_jump_prob_posterior(declared, n, priors))
