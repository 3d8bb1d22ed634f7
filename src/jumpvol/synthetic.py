"""Synthetic return generator for parameter-recovery studies.

Instantaneous variance follows an Euler-discretized square-root process

    v_t = v_{t-1} + kappa (theta - v_{t-1}) Delta
          + corr * sigma_v * sqrt(v_{t-1} Delta) * e1_t
          + sigma_v * sqrt((1 - corr^2) v_{t-1} Delta) * e2_t

with independent standard-normal shocks e1, e2, and returns are

    r_t ~ N(mu + N_t * xi_t, v_t / gamma_t)

with N_t ~ Bernoulli(jump_prob), xi_t ~ N(jump_mean, jump_sd^2) and
gamma_t ~ Gamma(nu/2, nu/2).  The discretized variance can go non-positive,
so it is floored at a tiny epsilon; with the default parameter scale the
floor is essentially never hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .model import ReturnsSeries
from .rng import RngStream, sample_bernoulli, sample_gamma, sample_normal

__all__ = ["SimConfig", "SimOutput", "simulate"]

_V_FLOOR = 1e-8


@dataclass(frozen=True)
class SimConfig:
    """Simulation design; defaults reproduce the daily-scale study setup."""

    n: int = 5000
    mu: float = 0.05
    jump_prob: float = 0.015
    jump_mean: float = -2.5
    jump_sd: float = 4.0
    nu: float = 30.0
    delta: float = 1.0
    theta: float = 0.8
    kappa: float = 0.015
    sigma_v: float = 0.1
    corr: float = 0.4
    v0: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ParameterError(f"n must be a positive integer, got {self.n}")
        if not (np.isfinite(self.jump_prob) and 0.0 < self.jump_prob < 1.0):
            raise ParameterError(f"jump_prob must lie in (0, 1), got {self.jump_prob}")
        for name in ("mu", "jump_mean"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        for name in ("jump_sd", "nu", "delta", "theta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be finite and > 0, got {value}")
        for name in ("kappa", "sigma_v"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ParameterError(f"{name} must be finite and >= 0, got {value}")
        if not (np.isfinite(self.corr) and -1.0 < self.corr < 1.0):
            raise ParameterError(f"corr must lie in (-1, 1), got {self.corr}")
        if self.v0 is not None and not (np.isfinite(self.v0) and self.v0 > 0):
            raise ParameterError(f"v0 must be finite and > 0, got {self.v0}")

    @property
    def start_variance(self) -> float:
        """Initial variance; defaults to the long-run level theta."""
        return self.theta if self.v0 is None else self.v0


@dataclass
class SimOutput:
    """Simulated returns plus the latent truth used to generate them."""

    returns: ReturnsSeries
    true_variance: np.ndarray
    true_jumps: np.ndarray
    true_jump_times: np.ndarray
    true_mixture: np.ndarray


def simulate(sc: SimConfig) -> SimOutput:
    """Generate one realization; bit-reproducible for a fixed seed."""
    rng = RngStream(sc.seed)
    n = sc.n

    e1 = sample_normal(np.zeros(n), np.ones(n), rng)
    e2 = sample_normal(np.zeros(n), np.ones(n), rng)
    path = []
    prev = sc.start_variance
    drift = sc.kappa * sc.delta
    load1 = sc.corr * sc.sigma_v * math.sqrt(sc.delta)
    load2 = sc.sigma_v * math.sqrt((1.0 - sc.corr**2) * sc.delta)
    # Python floats: the same double arithmetic as numpy scalars, without
    # indexing the arrays step by step.
    for z1, z2 in zip(e1.tolist(), e2.tolist()):
        root = math.sqrt(prev)
        prev = prev + drift * (sc.theta - prev) + root * (load1 * z1 + load2 * z2)
        if prev < _V_FLOOR:
            prev = _V_FLOOR
        path.append(prev)
    v = np.array(path, dtype=float)

    jump_times = np.atleast_1d(sample_bernoulli(np.full(n, sc.jump_prob), rng))
    jump_sizes = sample_normal(np.full(n, sc.jump_mean), np.full(n, sc.jump_sd**2), rng)
    mixture = sample_gamma(np.full(n, 0.5 * sc.nu), np.full(n, 0.5 * sc.nu), rng)
    jumps = jump_sizes * jump_times
    returns = sample_normal(sc.mu + jumps, v / mixture, rng)

    return SimOutput(
        returns=ReturnsSeries(returns),
        true_variance=v,
        true_jumps=jumps,
        true_jump_times=jump_times,
        true_mixture=mixture,
    )
