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
summaries.  The credibility bands equal numpy's linear 2.5% and 97.5%
quantiles of every float32 variance-scale draw, bit for bit.  Those
quantiles read only the k = 2.5% of draws (plus two) that are smallest and
largest at each t, so a chain keeps those in a buffer of at most
3k + 64 rows: 84 rows in place of 350 draws at n = 6,241.

Chains never share mutable state.  run_multi runs them on one thread per
usable CPU (the random draws release the interpreter lock).  Each chain's
output depends only on (seed, chain_id), so the result is the same for any
number of threads.

Inputs are validated once, at the boundary of a fit: run_chain checks the
series, the configuration and the run spec, and the StaticParams and
LatentPath constructors check the initial state.  Every state a sweep
produces is finite and positive by construction, so the stage names this
module calls (sample_mu, forward_filter, backward_sample, ...,
conditional_log_lik) are bound to the unchecked kernels behind the public
functions of the same names.  The sweep keeps two numerical guards: the
finiteness of the filtered rates and of each retained log-likelihood.

The kernels take the arrays that several stages share.  Each chain keeps
one workspace of them and fills it in place, once per sweep:

    array     value                formed after    read by
    centered  y - mu               the mu draw     jump sizes, indicators
    resid     centered - jumps     the mu draw     filter, mixture path
    weights   mixture * precision  mixture draw    the next mu draw
    variance  1 / weights          mixture draw    jump sizes, log-likelihood
    shifted   y - jumps            indicators      the next mu draw

Each is computed with the operations, in the order, that the public
function of its stage uses, so the sweep draws bit for bit what the public
functions draw when called in the order above.
"""

from __future__ import annotations

import os
import threading
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
_BAND_QUANTILES = np.array([0.025, 0.975])
# Fewest rows the band buffer takes between two trims.  A trim sorts the
# whole buffer, so batches of max(_BAND_BATCH, tail rows) keep the total
# sorting work linear in the number of draws.
_BAND_BATCH = 64


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


def _tail_rows(n_draws: int) -> int:
    """Rows per end that the linear 2.5% and 97.5% quantiles of n_draws values read.

    The virtual index of quantile q is h = (n_draws - 1) q, and the method
    reads the order statistics floor(h) and floor(h) + 1.
    """
    lo, hi = np.floor((n_draws - 1) * _BAND_QUANTILES)
    return int(max(lo + 2, n_draws - hi))


class _LatentAccumulator:
    """Running per-t summaries of the latent paths over n_draws retained draws.

    Means use every draw.  For the bands, a float32 buffer holds the
    variance-scale draws.  When it is full, each column is sorted and only
    its `keep` smallest and `keep` largest values stay: every order statistic
    the band quantiles read is among them.
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
        self.keep = _tail_rows(n_draws)
        rows = min(n_draws, 2 * self.keep + max(_BAND_BATCH, self.keep))
        self.tails = np.empty((rows, n), dtype=np.float32)
        self.fill = 0

    def add(self, precision, mixture, jumps, ind, probs) -> None:
        inv = 1.0 / precision
        self.sum_precision += precision
        self.sum_mixture += mixture
        self.sum_jump += jumps
        self.sum_prob += probs
        self.sum_ind += ind
        self.sum_var += inv
        self.sum_sd += np.sqrt(inv)
        if self.fill == len(self.tails):
            rows = self._sort_tails()
            rows[self.keep:2 * self.keep] = rows[-self.keep:]
            self.fill = 2 * self.keep
        self.tails[self.fill] = inv
        self.fill += 1
        self.count += 1

    def _sort_tails(self) -> np.ndarray:
        rows = self.tails[:self.fill]
        rows.sort(axis=0)
        return rows

    def _bands(self) -> np.ndarray:
        """np.quantile(draws, [0.025, 0.975], axis=0) of every float32 draw added.

        The buffer holds ranks 0..keep-1 at its top and ranks m-keep..m-1 at
        its bottom, so rank r sits at row r for the lower band and at row
        r - (m - fill) for the upper one.  The interpolation repeats numpy's
        lerp operation by operation: the difference in float32, float64
        weights, and the b - d (1 - g) form where g >= 0.5.
        """
        m = self.count
        rows = self._sort_tails()
        h = (m - 1) * _BAND_QUANTILES
        below = np.floor(h)
        shift = np.array([0, m - self.fill])
        ranks = below.astype(np.intp)
        lower = rows[ranks - shift]
        upper = rows[np.minimum(ranks + 1, m - 1) - shift]
        weight = (h - below)[:, None]
        diff = upper - lower
        bands = lower + diff * weight
        np.subtract(upper, diff * (1 - weight), out=bands, where=weight >= 0.5)
        return bands

    def summary(self) -> LatentSummary:
        m = self.count
        var_lo, var_hi = self._bands()
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


class _Stopped(Exception):
    """run_chain ended early because run_multi set its stop event."""


def run_chain(
    y, cfg: ModelConfig, spec: RunSpec, chain_id: int = 0, *,
    _stop: Optional[threading.Event] = None,
) -> ChainOutput:
    """Run one chain and return its thinned draws.

    Fixed (spec.seed, chain_id) reproduce the output bit for bit.  A sampler
    failure mid-run surfaces as NumericalError naming the chain and the
    iteration.  run_multi passes _stop, checked once per sweep: once it is
    set, the chain ends early by raising _Stopped.
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
    priors = cfg.priors
    centered, resid, variance = np.empty(n), np.empty(n), np.empty(n)
    weights = mixture * precision
    shifted = y_arr - jumps

    n_ret = spec.n_retained
    acc = _LatentAccumulator(n, n_ret)
    static = STATIC_NAMES if cfg.jumps_enabled else STATIC_NAMES[:1]
    draws = {
        "chain": np.empty(n_ret, dtype=np.int64),
        "iteration": np.empty(n_ret, dtype=np.int64),
        **{name: np.empty(n_ret) for name in (*static, "log_lik")},
    }
    kept_paths = [] if spec.keep_latent_draws else None

    probs = np.zeros(n)
    idx = 0
    for j in range(1, spec.iterations + 1):
        if _stop is not None and _stop.is_set():
            raise _Stopped
        try:
            mu = sample_mu(weights, shifted, priors, rng)
            np.subtract(y_arr, mu, out=centered)
            np.subtract(centered, jumps, out=resid)
            fs = forward_filter(resid, mixture, cfg)
            precision = backward_sample(fs, cfg, rng)
            mixture = sample_mixture_path(resid, precision, cfg, rng)
            np.multiply(mixture, precision, out=weights)
            np.divide(1.0, weights, out=variance)
            if cfg.jumps_enabled:
                observed = jump_size[jump_ind == 1]
                jump_mean = sample_jump_mean(observed, jump_var, priors, rng)
                jump_var = sample_jump_var(observed, jump_mean, priors, rng)
                jump_size = sample_jump_sizes(centered, variance, jump_mean, jump_var, rng)
                probs = jump_indicator_probs(centered, precision, mixture, jump_size, jump_prob)
                jump_ind = apply_jump_threshold(probs, cfg.jump_threshold)
                np.multiply(jump_size, jump_ind, out=jumps)
                np.subtract(y_arr, jumps, out=shifted)
                jump_prob = sample_jump_prob(jump_ind, priors, rng)
        except (ParameterError, FloatingPointError, ZeroDivisionError) as exc:
            raise NumericalError(
                f"chain {chain_id}: sampler failed at iteration {j}: {exc}"
            ) from exc

        if j > spec.burn_in and (j - spec.burn_in) % spec.thin_lag == 0:
            ll = conditional_log_lik(y_arr, mu, jumps, variance)
            if not np.isfinite(ll):
                raise NumericalError(
                    f"chain {chain_id}: non-finite log-likelihood at iteration {j}"
                )
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


def _worker_count(n_chains: int) -> int:
    """Threads for n_chains chains: one per chain, at most one per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(n_chains, cpus)


def run_multi(y, cfg: ModelConfig, spec: RunSpec) -> list[ChainOutput]:
    """Run spec.n_chains independent chains with distinct streams and starts.

    Chain 0 starts from the default initialization, later chains from
    overdispersed prior draws, so multi-chain convergence checks are
    meaningful.  Results are ordered by chain id.

    The chains run on min(n_chains, usable CPUs) threads; thread w runs
    chains w, w + workers, ... in order, so one thread runs them all one
    after another.  The output is the same for any number of threads.  When
    a chain fails, or the call is interrupted, the other chains stop at
    their next sweep, and the error of the lowest failing chain id is raised.
    """
    workers = _worker_count(spec.n_chains)
    chains: list = [None] * spec.n_chains
    failures: dict[int, BaseException] = {}
    stop = threading.Event()

    def work(first: int) -> None:
        try:
            for k in range(first, spec.n_chains, workers):
                chains[k] = run_chain(y, cfg, spec, chain_id=k, _stop=stop)
        except _Stopped:
            pass
        except BaseException as exc:  # raised again in the calling thread
            failures[k] = exc
            stop.set()

    threads = [threading.Thread(target=work, args=(w,), name=f"jumpvol-chains-{w}", daemon=True)
               for w in range(workers)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    except BaseException:
        stop.set()
        # A thread the interrupt caught in start() is not alive yet; it
        # finds stop set and ends before its first sweep.
        for thread in threads:
            if thread.is_alive():
                thread.join()
        raise
    if failures:
        raise failures[min(failures)]
    return chains
