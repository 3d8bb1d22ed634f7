"""Brute-force grid posteriors for validating the closed-form conditionals.

Each checker builds prior * likelihood pointwise on a dense grid, normalizes
it, and compares against the closed-form posterior the package reports,
returning the total variation distance between the two grid masses.  The
brute-force side never reuses the package's conjugate algebra.

jump_indicator_error integrates the jump size out numerically instead and
returns the largest absolute error of the closed-form jump probabilities.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

import jumpvol as jv
from jumpvol.conditionals import (
    jump_indicator_posterior,
    jump_mean_posterior,
    jump_prob_posterior,
    jump_size_posterior,
    jump_var_posterior,
    mixture_posterior,
    mu_posterior,
)

GRID_POINTS = 20001


def _tv_between(grid: np.ndarray, log_brute: np.ndarray, log_closed: np.ndarray) -> float:
    def normalize(logp):
        p = np.exp(logp - np.max(logp))
        return p / np.sum(p)

    return 0.5 * float(np.sum(np.abs(normalize(log_brute) - normalize(log_closed))))


def _grid_from(dist, lo=1e-7, hi=1 - 1e-7) -> np.ndarray:
    return np.linspace(dist.ppf(lo), dist.ppf(hi), GRID_POINTS)


def precision_update_tv(rng: np.random.Generator) -> float:
    """One-step precision filter update vs gamma-prior x normal-likelihood."""
    omega = rng.uniform(0.5, 0.99)
    a0 = rng.uniform(0.05, 4.0)
    b0 = rng.uniform(0.05, 4.0)
    gam = rng.uniform(0.3, 3.0)
    mu, jump = rng.normal(), rng.normal()
    y = mu + jump + rng.normal() * 2.0
    cfg = jv.ModelConfig(omega=omega, a0=a0, b0=b0)
    fs = jv.forward_filter(np.array([y]), mu, np.array([jump]), np.array([gam]), cfg)
    closed = stats.gamma(a=fs.a[1], scale=1.0 / fs.b[1])

    grid = _grid_from(closed)
    grid = grid[grid > 0]
    prior = stats.gamma(a=omega * a0, scale=1.0 / (omega * b0))
    log_brute = prior.logpdf(grid) + stats.norm.logpdf(y, mu + jump, np.sqrt(1.0 / (gam * grid)))
    return _tv_between(grid, log_brute, closed.logpdf(grid))


def mixture_update_tv(rng: np.random.Generator) -> float:
    nu = rng.uniform(4.0, 40.0)
    lam = rng.uniform(0.3, 3.0)
    mu, jump = rng.normal(), rng.normal()
    y = mu + jump + rng.normal() * 1.5
    cfg = jv.ModelConfig(nu=nu)
    shape, rates = mixture_posterior(np.array([y]), mu, np.array([jump]), np.array([lam]), cfg)
    closed = stats.gamma(a=shape, scale=1.0 / rates[0])

    grid = _grid_from(closed)
    grid = grid[grid > 0]
    prior = stats.gamma(a=nu / 2.0, scale=2.0 / nu)
    log_brute = prior.logpdf(grid) + stats.norm.logpdf(y, mu + jump, np.sqrt(1.0 / (grid * lam)))
    return _tv_between(grid, log_brute, closed.logpdf(grid))


def mu_update_tv(rng: np.random.Generator) -> float:
    n = rng.integers(2, 8)
    priors = jv.Priors(mu_mean=rng.normal(), mu_var=rng.uniform(0.5, 50.0))
    lam = rng.uniform(0.3, 3.0, n)
    gam = rng.uniform(0.3, 3.0, n)
    jumps = rng.normal(0.0, 2.0, n)
    y = jumps + rng.normal(0.0, 1.0, n)
    mean, var = mu_posterior(y, jumps, lam, gam, priors)
    closed = stats.norm(mean, np.sqrt(var))

    grid = _grid_from(closed)
    prior = stats.norm(priors.mu_mean, np.sqrt(priors.mu_var))
    log_brute = prior.logpdf(grid)
    for t in range(n):
        log_brute = log_brute + stats.norm.logpdf(
            y[t], grid + jumps[t], np.sqrt(1.0 / (gam[t] * lam[t]))
        )
    return _tv_between(grid, log_brute, closed.logpdf(grid))


def jump_mean_update_tv(rng: np.random.Generator) -> float:
    n = rng.integers(1, 6)
    priors = jv.Priors(jump_mean_mean=rng.normal(), jump_mean_var=rng.uniform(0.5, 30.0))
    jump_var = rng.uniform(0.5, 10.0)
    xi = rng.normal(-2.0, 2.0, n)
    mean, var = jump_mean_posterior(xi, jump_var, priors)
    closed = stats.norm(mean, np.sqrt(var))

    grid = _grid_from(closed)
    prior = stats.norm(priors.jump_mean_mean, np.sqrt(priors.jump_mean_var))
    log_brute = prior.logpdf(grid)
    for value in xi:
        log_brute = log_brute + stats.norm.logpdf(value, grid, np.sqrt(jump_var))
    return _tv_between(grid, log_brute, closed.logpdf(grid))


def jump_var_update_tv(rng: np.random.Generator) -> float:
    n = rng.integers(2, 7)
    priors = jv.Priors(jump_var_shape=rng.uniform(0.5, 4.0), jump_var_scale=rng.uniform(0.5, 4.0))
    jump_mean = rng.normal(-2.0, 1.0)
    xi = jump_mean + rng.normal(0.0, 2.0, n)
    shape, scale = jump_var_posterior(xi, jump_mean, priors)
    closed = stats.invgamma(a=shape, scale=scale)

    grid = _grid_from(closed)
    grid = grid[grid > 0]
    prior = stats.invgamma(a=priors.jump_var_shape, scale=priors.jump_var_scale)
    log_brute = prior.logpdf(grid)
    for value in xi:
        log_brute = log_brute + stats.norm.logpdf(value, jump_mean, np.sqrt(grid))
    return _tv_between(grid, log_brute, closed.logpdf(grid))


def jump_size_update_tv(rng: np.random.Generator) -> float:
    priors_mean = rng.normal(-2.0, 1.0)
    jump_var = rng.uniform(0.5, 20.0)
    lam = rng.uniform(0.3, 3.0)
    gam = rng.uniform(0.3, 3.0)
    mu = rng.normal()
    y = mu + rng.normal(0.0, 3.0)
    means, variances = jump_size_posterior(
        np.array([y]), mu, np.array([lam]), np.array([gam]), priors_mean, jump_var
    )
    closed = stats.norm(means[0], np.sqrt(variances[0]))

    grid = _grid_from(closed)
    prior = stats.norm(priors_mean, np.sqrt(jump_var))
    log_brute = prior.logpdf(grid) + stats.norm.logpdf(y, mu + grid, np.sqrt(1.0 / (gam * lam)))
    return _tv_between(grid, log_brute, closed.logpdf(grid))


def jump_prob_update_tv(rng: np.random.Generator) -> float:
    n = rng.integers(20, 200)
    priors = jv.Priors(jump_prob_a=rng.uniform(0.5, 5.0), jump_prob_b=rng.uniform(5.0, 60.0))
    ind = (rng.random(n) < 0.1).astype(np.int64)
    a, b = jump_prob_posterior(ind, priors)
    closed = stats.beta(a, b)

    grid = _grid_from(closed)
    grid = grid[(grid > 0) & (grid < 1)]
    total = float(ind.sum())
    prior = stats.beta(priors.jump_prob_a, priors.jump_prob_b)
    log_brute = prior.logpdf(grid) + total * np.log(grid) + (n - total) * np.log1p(-grid)
    return _tv_between(grid, log_brute, closed.logpdf(grid))


def jump_indicator_error(rng: np.random.Generator) -> float:
    """P(N_t = 1) with xi_t integrated out, against the trapezoid rule over xi.

    For each t the grid spans 40 standard deviations either side of the mode
    of phi(y; mu + xi, s) phi(xi; m, v) in xi, at 250 points per standard
    deviation, where the rule's error is far below rounding.  The odds are
    rho times that integral against (1 - rho) phi(y; mu, s).
    """
    n = 12
    mu = rng.normal()
    jump_mean, jump_var = rng.normal(-2.0, 1.0), rng.uniform(0.5, 20.0)
    lam, gam = rng.uniform(0.3, 3.0, n), rng.uniform(0.3, 3.0, n)
    rho = rng.uniform(0.005, 0.5)
    sd = 1.0 / np.sqrt(lam * gam)
    jumps = np.where(rng.random(n) < 0.5, rng.normal(jump_mean, np.sqrt(jump_var), n), 0.0)
    y = mu + jumps + sd * rng.normal(size=n)
    closed = jump_indicator_posterior(y, mu, lam, gam, jump_mean, jump_var, rho)

    worst = 0.0
    for t in range(n):
        curvature = 1.0 / sd[t] ** 2 + 1.0 / jump_var
        mode = ((y[t] - mu) / sd[t] ** 2 + jump_mean / jump_var) / curvature
        width = 40.0 / np.sqrt(curvature)
        grid, step = np.linspace(mode - width, mode + width, GRID_POINTS, retstep=True)
        log_f = (stats.norm.logpdf(y[t], mu + grid, sd[t])
                 + stats.norm.logpdf(grid, jump_mean, np.sqrt(jump_var)))
        top = np.max(log_f)
        mass = np.exp(log_f - top)
        log_integral = top + np.log(step * (np.sum(mass) - 0.5 * (mass[0] + mass[-1])))
        log_odds = (np.log(rho) - np.log1p(-rho) + log_integral
                    - stats.norm.logpdf(y[t], mu, sd[t]))
        worst = max(worst, abs(closed[t] - 1.0 / (1.0 + np.exp(-log_odds))))
    return worst


ALL_CHECKS = [
    ("precision_update", precision_update_tv),
    ("mixture_update", mixture_update_tv),
    ("mu_update", mu_update_tv),
    ("jump_mean_update", jump_mean_update_tv),
    ("jump_var_update", jump_var_update_tv),
    ("jump_size_update", jump_size_update_tv),
    ("jump_prob_update", jump_prob_update_tv),
]
