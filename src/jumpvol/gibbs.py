"""The MCMC orchestrator: initialization, sweep ordering, burn-in, thinning
and multi-chain execution.

Each iteration updates, in order:

    1. mu                  conjugate normal draw given jumps and both paths
    2. precision path      forward filter + backward block sample
    3. mixture path        independent gamma draws per observation
    4. jump-size mean      given sizes at the previous sweep's jump times
    5. jump-size variance  given sizes at the previous sweep's jump times
    6. jump sizes          normal draws for the whole path
    7. jump indicators     threshold rule on the posterior jump probability
    8. jump probability    beta draw given the new indicators

With jumps disabled, steps 4-8 are skipped and the jump path is identically
zero (the no-jump reduction of the model).

Retained draws are every thin_lag-th iteration after burn_in.  Each one
fills a row of the chain's draws table by column name: the chain id, the
sweep index, the static parameters the model has and the conditional
log-likelihood.  Per-t latent quantities are accumulated into running
summaries.  The credibility bands are empirical quantiles of a float32
matrix of variance-scale draws holding at most _LATENT_MATRIX_BUDGET
elements (400 MB): every retained draw when draws x n fits, else every
stride-th one.  Chains never share mutable state, so multi-chain runs are
trivially order-deterministic by chain id.

Inputs are validated once, at the boundary of a fit: run_chain checks the
series, the configuration and the run spec, and the StaticParams and
LatentPath constructors check the initial state.  Every state a sweep
produces is finite and positive by construction, so the stage names this
module calls (sample_mu, forward_filter, backward_sample, ...,
conditional_log_lik) are bound to the unchecked kernels behind the public
functions of the same names, with the same signatures.  The sweep keeps two
numerical guards: the finiteness of the filtered rates and of each retained
log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .conditionals import (
    _apply_jump_threshold as apply_jump_threshold,
    _jump_indicator_probs as jump_indicator_probs,
    _sample_jump_mean as sample_jump_mean,
    _sample_jump_prob as sample_jump_prob,
    _sample_jump_sizes as sample_jump_sizes,
    _sample_jump_var as sample_jump_var,
    _sample_mixture_path as sample_mixture_path,
    _sample_mu as sample_mu,
)
from .diagnostics import _conditional_log_lik as conditional_log_lik
from .errors import NumericalError, ParameterError, SizeError
from .model import (
    STATIC_NAMES,
    ChainOutput,
    LatentPath,
    LatentSummary,
    ModelConfig,
    StaticParams,
    returns_array,
)
from .rng import RngStream, sample_beta, sample_inverse_gamma, sample_normal
from .volatility import _backward_sample as backward_sample
from .volatility import _forward_filter as forward_filter

__all__ = ["RunSpec", "default_init", "run_chain", "run_multi"]

_MAX_UINT64 = 2**64
# Elements (retained draws x series length) of the float32 band matrix.
_LATENT_MATRIX_BUDGET = 100_000_000


@dataclass(frozen=True)
class RunSpec:
    """Iteration plan for one fit.

    keep_latent_draws retains every thinned LatentPath (memory heavy, meant
    for tests and small runs).
    """

    iterations: int
    burn_in: int = 0
    thin_lag: int = 1
    n_chains: int = 1
    seed: int = 0
    init: Optional[Sequence[tuple[StaticParams, LatentPath]]] = None
    keep_latent_draws: bool = False

    def __post_init__(self) -> None:
        for name in ("iterations", "burn_in", "thin_lag", "n_chains"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {type(value).__name__}")
        if self.iterations < 1:
            raise ParameterError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.burn_in < self.iterations:
            raise ParameterError(
                f"burn_in must satisfy 0 <= burn_in < iterations, got {self.burn_in}"
            )
        if self.thin_lag < 1:
            raise ParameterError(f"thin_lag must be >= 1, got {self.thin_lag}")
        if self.n_chains < 1:
            raise ParameterError(f"n_chains must be >= 1, got {self.n_chains}")
        if self.n_retained < 1:
            raise ParameterError(
                f"no draws retained: ({self.iterations} - {self.burn_in}) // {self.thin_lag} = 0"
            )
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < _MAX_UINT64):
            raise ParameterError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")

    @property
    def n_retained(self) -> int:
        return (self.iterations - self.burn_in) // self.thin_lag


def default_init(y, cfg: ModelConfig):
    """Data-driven starting point: mean return, pooled precision, no jumps.

    A zero-variance series falls back to unit precision.  The start is
    deterministic.
    """
    y_arr = returns_array(y, min_len=2)
    n = y_arr.size
    sample_var = float(np.var(y_arr, ddof=1))
    lam0 = 1.0 / sample_var if 1e-12 < sample_var < np.inf else 1.0
    priors = cfg.priors
    params = StaticParams(
        mu=float(np.mean(y_arr)),
        jump_prob=priors.jump_prob_a / (priors.jump_prob_a + priors.jump_prob_b),
        jump_mean=priors.jump_mean_mean,
        # Inverse-gamma mode: finite and positive for every shape/scale.
        jump_var=priors.jump_var_scale / (priors.jump_var_shape + 1.0),
    )
    path = LatentPath(
        precision=np.full(n, lam0),
        mixture=np.ones(n),
        jump_size=np.zeros(n),
        jump_ind=np.zeros(n, dtype=np.int64),
    )
    return params, path


def _dispersed_init(y: np.ndarray, cfg: ModelConfig, rng: RngStream):
    """Overdispersed start for secondary chains: prior draws around the default.

    Jump-block starts are clipped to a moderate range: a start with a large
    jump probability and a huge jump variance can put the deterministic
    indicator rule into a self-reinforcing everything-is-a-jump regime.
    """
    base_params, base_path = default_init(y, cfg)
    priors = cfg.priors
    sd_y = float(np.std(y, ddof=1))
    spread = max(sd_y, 0.1)
    mu0 = base_params.mu + spread * sample_normal(0.0, 1.0, rng)
    scale = float(np.exp(rng.generator.uniform(-np.log(10.0), np.log(10.0))))
    jump_prob0 = min(max(sample_beta(priors.jump_prob_a, priors.jump_prob_b, rng), 1e-4), 0.1)
    jump_mean0 = sample_normal(priors.jump_mean_mean, priors.jump_mean_var, rng)
    jump_var0 = min(max(sample_inverse_gamma(priors.jump_var_shape, priors.jump_var_scale, rng),
                        1e-3), 1e2)
    params = StaticParams(mu=mu0, jump_prob=jump_prob0, jump_mean=jump_mean0, jump_var=jump_var0)
    path = LatentPath(
        precision=base_path.precision * scale,
        mixture=base_path.mixture,
        jump_size=base_path.jump_size,
        jump_ind=base_path.jump_ind,
    )
    return params, path


class _LatentAccumulator:
    """Running per-t summaries of the latent paths over retained draws.

    Means use every draw.  The variance-scale draws for the bands fill a
    float32 matrix of at most max(1, _LATENT_MATRIX_BUDGET // n) rows: every
    stride-th retained draw, with stride 1 whenever all of them fit.
    """

    def __init__(self, n: int, n_draws: int) -> None:
        self.count = 0
        self.sum_precision = np.zeros(n)
        self.sum_mixture = np.zeros(n)
        self.sum_jump = np.zeros(n)
        self.sum_prob = np.zeros(n)
        self.sum_ind = np.zeros(n)
        self.sum_var = np.zeros(n)
        self.sum_sd = np.zeros(n)
        self.stride = -(-n_draws // max(1, _LATENT_MATRIX_BUDGET // n))
        self.matrix = np.empty((-(-n_draws // self.stride), n), dtype=np.float32)

    def add(self, precision, mixture, jumps, ind, probs) -> None:
        inv = 1.0 / precision
        self.sum_precision += precision
        self.sum_mixture += mixture
        self.sum_jump += jumps
        self.sum_prob += probs
        self.sum_ind += ind
        self.sum_var += inv
        self.sum_sd += np.sqrt(inv)
        if self.count % self.stride == 0:
            self.matrix[self.count // self.stride] = inv
        self.count += 1

    def summary(self) -> LatentSummary:
        m = self.count
        rows = -(-m // self.stride)
        # The matrix is private and read only here: partition it in place.
        quantiles = np.quantile(self.matrix[:rows], [0.025, 0.975], axis=0, overwrite_input=True)
        var_lo, var_hi = quantiles.astype(float)
        return LatentSummary(
            var_mean=self.sum_var / m,
            var_lo95=var_lo,
            var_hi95=var_hi,
            sd_mean=self.sum_sd / m,
            sd_lo95=np.sqrt(var_lo),
            sd_hi95=np.sqrt(var_hi),
            mean_jump=self.sum_jump / m,
            prob_jump=self.sum_prob / m,
            freq_jump=self.sum_ind / m,
            mean_precision=self.sum_precision / m,
            mean_mixture=self.sum_mixture / m,
        )


def _initial_state(y_arr, cfg, spec, chain_id, rng):
    if spec.init is not None and chain_id < len(spec.init):
        params, path = spec.init[chain_id]
        if len(path) != y_arr.size:
            raise SizeError(
                f"initial latent path length {len(path)} != series length {y_arr.size}"
            )
        return params, path
    if chain_id == 0:
        return default_init(y_arr, cfg)
    return _dispersed_init(y_arr, cfg, rng)


def run_chain(y, cfg: ModelConfig, spec: RunSpec, chain_id: int = 0) -> ChainOutput:
    """Run one chain and return its thinned draws.

    Fixed (spec.seed, chain_id) reproduce the output bit for bit.  A sampler
    failure mid-run surfaces as NumericalError tagged with the iteration.
    """
    y_arr = returns_array(y, min_len=2)
    n = y_arr.size
    if not isinstance(cfg, ModelConfig):
        raise ParameterError("cfg must be a ModelConfig")
    if not isinstance(spec, RunSpec):
        raise ParameterError("spec must be a RunSpec")
    if not (isinstance(chain_id, (int, np.integer)) and chain_id >= 0):
        raise ParameterError(f"chain_id must be a non-negative integer, got {chain_id}")

    rng = RngStream(spec.seed, stream_id=int(chain_id))
    params0, path0 = _initial_state(y_arr, cfg, spec, chain_id, rng)

    mu = params0.mu
    jump_prob = params0.jump_prob
    jump_mean = params0.jump_mean
    jump_var = params0.jump_var
    precision = np.array(path0.precision, dtype=float)
    mixture = np.array(path0.mixture, dtype=float)
    jump_size = np.array(path0.jump_size, dtype=float)
    jump_ind = np.array(path0.jump_ind, dtype=np.int64)
    jumps = jump_size * jump_ind
    zeros = np.zeros(n)
    priors = cfg.priors

    n_ret = spec.n_retained
    acc = _LatentAccumulator(n, n_ret)
    static = STATIC_NAMES if cfg.jumps_enabled else STATIC_NAMES[:1]
    draws = {
        "chain": np.empty(n_ret, dtype=np.int64),
        "iteration": np.empty(n_ret, dtype=np.int64),
        **{name: np.empty(n_ret) for name in (*static, "log_lik")},
    }
    kept_paths = [] if spec.keep_latent_draws else None

    probs = zeros
    idx = 0
    for j in range(1, spec.iterations + 1):
        try:
            mu = sample_mu(y_arr, jumps, precision, mixture, priors, rng)
            fs = forward_filter(y_arr, mu, jumps, mixture, cfg)
            precision = backward_sample(fs, cfg, rng)
            mixture = sample_mixture_path(y_arr, mu, jumps, precision, cfg, rng)
            if cfg.jumps_enabled:
                observed = jump_size[jump_ind == 1]
                jump_mean = sample_jump_mean(observed, jump_var, priors, rng)
                jump_var = sample_jump_var(observed, jump_mean, priors, rng)
                jump_size = sample_jump_sizes(
                    y_arr, mu, precision, mixture, jump_mean, jump_var, rng
                )
                probs = jump_indicator_probs(
                    y_arr, mu, precision, mixture, jump_size, jump_prob
                )
                jump_ind = apply_jump_threshold(probs, cfg.jump_threshold)
                jumps = jump_size * jump_ind
                jump_prob = sample_jump_prob(jump_ind, priors, rng)
        except (ParameterError, FloatingPointError, ZeroDivisionError) as exc:
            raise NumericalError(f"sampler failed at iteration {j}: {exc}") from exc

        if j > spec.burn_in and (j - spec.burn_in) % spec.thin_lag == 0:
            ll = conditional_log_lik(y_arr, mu, jumps, precision, mixture)
            if not np.isfinite(ll):
                raise NumericalError(f"non-finite log-likelihood at iteration {j}")
            row = dict(chain=chain_id, iteration=j, mu=mu, jump_prob=jump_prob,
                       jump_mean=jump_mean, jump_var=jump_var, log_lik=ll)
            for name, column in draws.items():
                column[idx] = row[name]
            acc.add(precision, mixture, jumps, jump_ind, probs)
            if kept_paths is not None:
                kept_paths.append(
                    LatentPath(
                        precision=precision.copy(),
                        mixture=mixture.copy(),
                        jump_size=jump_size.copy(),
                        jump_ind=jump_ind.copy(),
                    )
                )
            idx += 1

    return ChainOutput(draws=draws, latent=acc.summary(), latent_draws=kept_paths)


def run_multi(y, cfg: ModelConfig, spec: RunSpec) -> list[ChainOutput]:
    """Run spec.n_chains independent chains with distinct streams and starts.

    Chain 0 starts from the default initialization, later chains from
    overdispersed prior draws, so multi-chain convergence checks are
    meaningful.  Results are ordered by chain id.
    """
    return [run_chain(y, cfg, spec, chain_id=k) for k in range(spec.n_chains)]
