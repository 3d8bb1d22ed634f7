"""The MCMC orchestrator: initialization, sweep ordering, burn-in, thinning
and multi-chain execution.

Each iteration updates, in order:

    1. mu                  conjugate normal draw given jumps and both paths
    2. precision path      forward filter + backward block sample
    3. mixture path        independent gamma draws per observation
    4. jump-size mean      given sizes at the previous sweep's jump times
    5. jump-size variance  given sizes at the previous sweep's jump times
    6. jump sizes          normal draws for the whole path (on long series,
                           for the candidates only)
    7. jump indicators     threshold rule on the posterior log-odds of a jump
    8. jump probability    beta draw given the new indicators

A retained sweep then forms the probability of a jump at each t with xi_t
integrated out (conditionals.jump_indicator_posterior) at its own state.

With jumps disabled, steps 4-8 are skipped and the jump path is identically
zero (the no-jump reduction of the model).

Retained draws are every thin_lag-th iteration after burn_in.  Each one
fills a row of the chain's draws table by column name: the chain id, the
sweep index, the static parameters the model has and the conditional
log-likelihood.  With RunSpec.keep_latent_draws it also fills the same row
of one (draws, n) array per latent path.  Per-t latent quantities are
accumulated into running summaries.  The jump sizes and indicators are
added only at the declared jumps, about 1% of t: the candidates' block of a
long fit has their times at hand.  Everywhere else both terms are zero, and
a sum that starts at +0.0 never holds -0.0, so adding a zero of either sign
would not change it: the sums equal those of the whole paths bit for bit.
The credibility bands equal numpy's linear 2.5% and 97.5% quantiles of
every float32 variance-scale draw, bit for bit.  Those quantiles read only
the k = 2.5% of draws (plus two) that are smallest and largest at each t,
so a chain keeps those in a buffer of at most 3k + 32 rows: 52 rows in
place of 350 draws at n = 6,241.  run_chain forms the summary only after
the sweeps (_run_sweeps) return and their workspace and variate slots are
freed, so the summary's arrays do not add to them at the chain's peak.

Chains never share mutable state; a chain's output depends only on (seed,
chain_id).  run_multi runs them one after another on the calling thread: a
sweep's short numpy calls take the interpreter lock back and ran 2.2-2.7
times slower beside a second chain thread.

The array draws of a sweep, the backward-sample innovations, the mixture
path and the jump sizes, scale standard variates whose parameters do not
depend on the chain's state.  Each chain draws those from the child
streams of its RngStream (see :mod:`jumpvol.rng`), a chunk of sweeps at a
time (_VariateRing).  A slot of the ring holds three arrays of `chunk`
rows, and sweep i of the chunk reads row i of each:

    array     columns          holds                          streams
    head      plan.head        standard gammas of the         gammas, exponentials
                               innovations' head
    mixture   n                standard gammas of the         mixture_gammas
                               mixture path
    normals   n - 1 - head     standard normals of the        normals
              (+ n, see below) innovations past the head,
                               then of the jump sizes

The head is drawn first (volatility.innovation_variates), with the
mixture array's first chunk * head entries as its exponentials' scratch,
and the mixture array is filled after it: the exponentials take no memory
of their own.  One call per stream fills a chunk.  With at least
_HELPER_MIN_N points and two usable CPUs, a helper thread fills the next
chunk while the sweeps read the current one, in chunks twice as long.
Each child stream fills its arrays chunk after chunk either way, so
neither the helper nor the chunk size changes the output.  The helper is
joined when run_chain returns or raises, or as soon as it stops paying:
when the chain's two threads together are busy for less than
_HELPER_MIN_BUSY times the wall time (a usable CPU may be busy with other
processes, or the host may grant the process less than the CPUs its
affinity lists).

The jump sizes' n normals are in the normals array only on series under
_SPARSE_MIN_N points.  On longer series a sweep does not need them.
With c_t = y_t - mu and w_t = mixture_t * precision_t, the log-odds of a
jump are logit(rho) + w_t xi_t (c_t - xi_t/2), and for any xi_t the
bracket is at most w_t c_t^2 / 2.  So only the candidates

    C = {t : w_t c_t^2 > 2 (logit(threshold) - logit(rho)) (1 - 1e-9)}

can be declared (every t when that gap is <= 0): about 1.3% of t per sweep
on the daily law at n = 5,000 and almost none on the intraday law.
logit(threshold) is a float, so rounding the sum cannot lift the log-odds
over it; the margin covers the few relative roundings of the products and
of the bound, some 1e-15.  Every sweep draws |C| standard normals, in
increasing t, from rng.jump_normals, runs the jump sizes, log-odds and
threshold on C alone, and writes N and the jumps xi N back (N = 0 outside
C).  No xi outside C is drawn: no stage reads it (the next jump mean and
variance read xi at declared jumps only, and the reported probabilities
integrate xi out).  Each entry at C is computed with the operations of the
short series' dense block, which declares nothing outside C, so the chain
draws what it would draw with every xi drawn.  Which block runs depends on
n alone, so a chain thinned by 3 keeps rows 3, 6, ... of the unthinned
chain.

Inputs are validated once, at the boundary of a fit: run_chain checks the
series, the configuration and the run spec, and the StaticParams and
LatentPath constructors check the initial state.  Every state a sweep
produces is finite and positive by construction, so the stage names this
module calls (sample_mu, forward_filter, backward_sample, ...,
conditional_log_lik) are bound to the unchecked kernels behind the public
functions of the same names.  The sweep keeps two numerical guards: the
finiteness of the filtered rates and of each retained log-likelihood.

The kernels take the arrays that several stages share and write into
arrays they are given.  Each chain allocates, once, a workspace of every
n-length array a sweep touches:

    array      holds                 written by            read by
    precision  lambda path           backward_sample       mixture path, weights
    mixture    gamma path            sample_mixture_path   filter, weights
    jump_size  xi path (short        sample_jump_sizes     jump mean/variance, indicators
               series only)
    declared   N path (bool)         apply_jump_threshold  jumps, next jump mean/var, jump_prob
    probs      P(N_t = 1), xi_t      jump_indicator_       the accumulator (retained sweeps)
               integrated out        posterior
    jumps      jump_size * declared  the indicators        resid, shifted, log-likelihood
    centered   y - mu                the mu draw           jump sizes, indicators, probs
    resid      centered - jumps      the mu draw           filter, mixture path
    weights    mixture * precision   the mixture draw      the next mu draw, jump sizes,
                                                           indicators, probs, log-likelihood
    shifted    y - jumps             the indicators        the next mu draw, log-likelihood
    rates      b, padded for a scan  forward_filter        backward_sample
    scan       padded scratch        forward_filter (its carries), backward_sample
    work       two float scratches   mu draw, jump sizes, indicators, probs, log-likelihood;
               work[0] also holds the indicators' log-odds for the threshold

The jump block of a long series keeps the candidates' entries at the
front of arrays that are free at that point: their scores and then their
c in resid (free after the mixture path), their mask and then their N in
declared (free until the threshold writes it), their w in rates (free
after backward_sample), their normals in jumps and their xi in shifted
(both written again at the end of the block).  mode="clip" keeps np.take
from buffering its output; the candidates are valid indices.

The threshold declares N_t = 1{z_t > logit(threshold)} on the log-odds
z_t, the rule p_t > threshold without a logistic (the two disagree only
where z_t lies within rounding of logit(threshold)).  Every scratch is
read only by the stage that wrote it.  A retained draw reads precision,
mixture, declared, probs and jumps (the kept jump_size rows are the jumps
xi N): the accumulator's jump counts and the kept jump_ind rows stay int64
and take declared as 0 and 1, and the accumulator keeps 1 / precision and
its square root in two arrays of its own.  Every array is computed with the
operations, in the order, that the public function of its stage uses, so
the sweep draws bit for bit what the public functions (which allocate
these arrays) draw when called in the order above.
"""

from __future__ import annotations

import math
import os
import queue
import threading
import time
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .conditionals import (
    _apply_jump_threshold as apply_jump_threshold,
    _jump_indicator_posterior as jump_indicator_posterior,
    _jump_indicator_probs as jump_indicator_probs,
    _logit,
    _mixture_shape,
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
from .volatility import DiscountPlan, discount_plan, innovation_variates

__all__ = ["RunSpec", "default_init", "run_chain", "run_multi"]

_MAX_UINT64 = 2**64
_BAND_QUANTILES = np.array([0.025, 0.975])
# Fewest rows the band buffer takes between two trims.  A trim sorts the
# whole buffer, so batches of max(_BAND_BATCH, tail rows) keep the total
# sorting work linear in the number of draws.  With 32, a 200-draw chain's
# buffer is 44 rows (0.88 MB at n = 5,000, against 76 rows with 64), and
# sorting takes 2-5 us more per kept draw at n = 5,000-6,241 (timeit).
_BAND_BATCH = 32
# Shortest series whose standard variates a helper thread draws (see
# _VariateRing).  The helper's memory (a second slot and the thread) does
# not shrink with n, but its gain does: forced on for the 252-point fits of
# short_batch it gained 4% in sweeps per second for 0.7 MB (1.7%) of peak
# memory, while at n = 1,000 it gained 19-25% (while a helper paid at all).
_HELPER_MIN_N = 1000
# Wall seconds between a chain's checks that its helper pays; the first
# window is a warm-up (a helper that later ran 1.5-1.8 times the busy CPU
# seconds per wall second read 1.07 over its first 50 ms).
_HELPER_WINDOW_S = 0.05
# CPU seconds per wall second that the sweeps' thread and the helper must
# use together for the helper to pay.  The helper's fills take 1.15-1.2
# times the CPU of the same fills in the sweeps' thread (n = 5,000, two
# cores), so at 1.0 the chain would run slower than with inline draws.
# A host may list two CPUs in the process's affinity and grant it about
# one for a while: on one 2-core host two CPU-bound processes once took
# 0.43 s side by side against 0.20 s alone, and a thread filling 1M
# normals beside a pure-Python thread 0.81 s against 0.73 s in turn,
# while at other times the two processes took as long side by side as
# alone.  While it grants one, the chain's threads read about 0.99 and the
# helper is dropped at its first check; only drawing less on the chain's
# thread (the sparse jump block) then makes a chain faster.
_HELPER_MIN_BUSY = 1.2
# Shortest series of a jump fit that draws the jump sizes' normals only where
# a jump can be declared (see the module notes).  Against drawing all n, a
# 1,500-sweep fit thinned by 5 on the daily law ran at 0.93-1.00 times the
# rate at n = 600, 0.99-1.04 at 1,200, 1.07-1.08 at 2,000 and 1.15-1.16 at
# 5,000 (medians of two sets of 10-12 alternating in-process pairs, helper
# off, 2-core host): the series where it stops losing.
_SPARSE_MIN_N = 1000
# The candidates' bound 2 (logit(threshold) - logit(rho)) is scaled by this,
# a margin far above the few relative roundings of the log-odds.
_CANDIDATE_MARGIN = 1.0 - 1e-9
# Standard variates a chunk of sweeps holds (at least one sweep's worth),
# twice as many with a helper.  A chunk is one numpy call per child stream
# and, with a helper, one handover: the helper takes the interpreter lock a
# few times per chunk, not per sweep.  A slot is 256 kB, 512 kB with a
# helper: with 256 kB slots (3 sweeps a chunk at n = 5,000) a daily_jump
# fit ran 5-13% slower than with 512 kB while the host granted two CPUs and
# the helper ran, probably because the helper then hands over and takes the
# lock twice as often.
_CHUNK_VARIATES = 2**15


@dataclass(frozen=True)
class RunSpec:
    """Iteration plan for one fit.

    keep_latent_draws fills ChainOutput.latent_draws with every retained
    latent path, one (n_retained, n) array per LatentPath field (memory
    heavy, meant for tests and small runs).
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
        if self.init is not None and not (isinstance(self.init, Sequence) and all(
                isinstance(entry, (tuple, list)) and len(entry) == 2
                and isinstance(entry[0], StaticParams) and isinstance(entry[1], LatentPath)
                for entry in self.init)):
            raise ParameterError("init must be a sequence of (StaticParams, LatentPath) pairs")

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
        self.sum_ind = np.zeros(n, dtype=np.int64)
        self.sum_var = np.zeros(n)
        self.sum_sd = np.zeros(n)
        self.inv, self.sd = np.empty(n), np.empty(n)
        self.keep = _tail_rows(n_draws)
        rows = min(n_draws, 2 * self.keep + max(_BAND_BATCH, self.keep))
        self.tails = np.empty((rows, n), dtype=np.float32)
        self.fill = 0

    def add(self, precision, mixture, at, sizes, probs) -> None:
        """Add one retained draw whose jumps are declared at the distinct times at, of sizes."""
        inv = np.divide(1.0, precision, out=self.inv)
        self.sum_precision += precision
        self.sum_mixture += mixture
        self.sum_jump[at] += sizes
        self.sum_prob += probs
        self.sum_ind[at] += 1
        self.sum_var += inv
        self.sum_sd += np.sqrt(inv, out=self.sd)
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
        if not cfg.jumps_enabled and path.jump_ind.any():
            raise ParameterError(f"chain {chain_id}: the initial path has jumps, but jumps are off")
        return params, path
    if chain_id == 0:
        return default_init(y_arr, cfg)
    return _dispersed_init(y_arr, cfg, rng)


class _VariateRing:
    """The standard variates of the sweeps' array draws, a chunk of sweeps per slot.

    A slot is three arrays of chunk rows (see the module notes): head, the
    innovations' standard gammas at plan.shapes[:head]
    (volatility.innovation_variates); mixture, standard gammas at
    mixture_shape, drawn from rng.mixture_gammas; and normals, n_normals
    standard normals, drawn from rng.normals.  Row i belongs to the chunk's
    i-th sweep.  take() returns the next chunk's slot, which the
    caller reads until its next take().  Without a helper, take() fills the
    one slot itself.  With one, a helper thread fills two slots in turn, one
    chunk ahead: take() waits for chunk c, then requests chunk c + 1 in the
    slot that held chunk c - 1.  Either way each child stream fills its
    arrays chunk after chunk, so the variates are the same.  A failure in
    the helper is raised by take(); close() joins the helper.  (Two queues,
    not a concurrent.futures executor: the executor's import and machinery
    cost 0.4 MB of peak memory at n = 5,000.)

    The helper pays only while it runs beside the sweeps, not in turn with
    them: it starts only when the process may use two CPUs.  A usable CPU
    may still be busy, so every _HELPER_WINDOW_S after the first, take()
    adds the CPU time that the sweeps' thread and the helper have used since
    the first window ended: if together they fall short of _HELPER_MIN_BUSY
    times the wall time (CPUs busy with other work, or slow to wake the
    helper), the helper is joined and take() fills the rest of the chunks
    itself.  The totals run from the first window, so that a short stall of
    the whole machine, which slows the inline draws as much, does not end a
    helper that has paid so far.
    """

    def __init__(self, rng: RngStream, plan: DiscountPlan, mixture_shape: float, n_normals: int,
                 chunk: int, chunks: int, helper_name: Optional[str]) -> None:
        self._rng = rng
        self._plan = plan
        self._mixture_shape = mixture_shape
        self._slots = [(np.empty((chunk, plan.head)), np.empty((chunk, plan.n)),
                        np.empty((chunk, n_normals))) for _ in range(2 if helper_name else 1)]
        self._chunks = chunks
        self._taken = 0
        self._thread = None
        if helper_name:
            self._requests, self._filled = queue.SimpleQueue(), queue.SimpleQueue()
            self._start = None
            self._next_check = time.perf_counter() + _HELPER_WINDOW_S
            self._helper_cpu = 0.0
            self._thread = threading.Thread(target=self._serve, name=helper_name, daemon=True)
            self._thread.start()
            self._requests.put(self._slots[0])

    def _fill(self, slot):
        head, mixture, normals = slot
        # The head's exponentials go into the mixture array, filled next.
        scratch = mixture.reshape(-1)[: head.size].reshape(head.shape)
        innovation_variates(self._plan, self._rng, head, scratch)
        self._rng.mixture_gammas.standard_gamma(self._mixture_shape, out=mixture)
        self._rng.normals.standard_normal(out=normals)
        return slot

    def _serve(self) -> None:
        for slot in iter(self._requests.get, None):
            try:
                start = time.thread_time()
                self._fill(slot)
                self._helper_cpu += time.thread_time() - start
            except BaseException as exc:  # raised again by take()
                slot = exc
            self._filled.put(slot)

    def take(self):
        self._taken += 1
        if self._thread is None:
            return self._fill(self._slots[0])
        slot = self._filled.get()  # the helper is idle until the next request
        if isinstance(slot, BaseException):
            raise slot
        if not self._helper_pays():
            self.close()
        elif self._taken < self._chunks:
            self._requests.put(self._slots[self._taken % 2])
        return slot

    def _helper_pays(self) -> bool:
        wall, cpu = time.perf_counter(), time.thread_time()
        if wall < self._next_check:
            return True
        self._next_check = wall + _HELPER_WINDOW_S
        if self._start is None:  # the first window warms up: count from its end
            self._start, self._helper_cpu = (wall, cpu), 0.0
            return True
        wall0, cpu0 = self._start
        return cpu - cpu0 + self._helper_cpu >= _HELPER_MIN_BUSY * (wall - wall0)

    def close(self) -> None:
        if self._thread is not None:
            self._requests.put(None)
            self._thread.join()
            self._thread = None


def run_chain(y, cfg: ModelConfig, spec: RunSpec, chain_id: int = 0) -> ChainOutput:
    """Run one chain and return its thinned draws.

    Fixed (spec.seed, chain_id) reproduce the output bit for bit.  A sampler
    failure mid-run surfaces as NumericalError naming the chain and the
    iteration.
    """
    y_arr = returns_array(y, min_len=2)
    n = y_arr.size
    if not isinstance(cfg, ModelConfig):
        raise ParameterError("cfg must be a ModelConfig")
    if not isinstance(spec, RunSpec):
        raise ParameterError("spec must be a RunSpec")
    if not (isinstance(chain_id, (int, np.integer)) and chain_id >= 0):
        raise ParameterError(f"chain_id must be a non-negative integer, got {chain_id}")

    n_ret = spec.n_retained
    acc = _LatentAccumulator(n, n_ret)
    static = STATIC_NAMES if cfg.jumps_enabled else STATIC_NAMES[:1]
    draws = {
        "chain": np.empty(n_ret, dtype=np.int64),
        "iteration": np.empty(n_ret, dtype=np.int64),
        **{name: np.empty(n_ret) for name in (*static, "log_lik")},
    }
    kept = {f.name: np.empty((n_ret, n), dtype=np.int64 if f.name == "jump_ind" else float)
            for f in fields(LatentPath)} if spec.keep_latent_draws else None

    _run_sweeps(y_arr, cfg, spec, chain_id, acc, draws, kept)
    return ChainOutput(draws=draws, latent=acc.summary(), latent_draws=kept)


def _run_sweeps(y_arr, cfg: ModelConfig, spec: RunSpec, chain_id: int, acc: _LatentAccumulator,
                draws: dict, kept: Optional[dict]) -> None:
    """Run every sweep of one chain, filling draws, acc and kept with the retained ones."""
    n = y_arr.size
    rng = RngStream(spec.seed, stream_id=int(chain_id))
    params0, path0 = _initial_state(y_arr, cfg, spec, chain_id, rng)

    mu = params0.mu
    jump_prob = params0.jump_prob
    jump_mean = params0.jump_mean
    jump_var = params0.jump_var
    priors = cfg.priors
    # The workspace: every n-length array a sweep touches (see the module notes).
    precision = np.array(path0.precision, dtype=float)
    mixture = np.array(path0.mixture, dtype=float)
    jump_size = np.array(path0.jump_size, dtype=float)
    declared = path0.jump_ind == 1
    jumps = jump_size * declared
    probs = np.zeros(n)
    centered, resid = np.empty(n), np.empty(n)
    weights = mixture * precision
    shifted = y_arr - jumps
    work = (np.empty(n), np.empty(n))
    observed = jump_size[declared]
    logit_c = _logit(cfg.jump_threshold)
    plan = discount_plan(cfg.omega, cfg.a0, n)
    rates, scan = np.empty(1 + plan.neg.size), np.empty(plan.neg.size)

    # Each sweep reads one row of each slot array (see the module notes):
    # the variates of the public stages.  On jump fits of _SPARSE_MIN_N
    # points or more, the jump sizes' normals come from rng.jump_normals at
    # the candidates instead.
    sparse = cfg.jumps_enabled and n >= _SPARSE_MIN_N
    tail = n - 1 - plan.head
    n_normals = tail + (n if cfg.jumps_enabled and not sparse else 0)
    helper = _helper_runs(n)
    chunk = max(1, min(spec.iterations, _CHUNK_VARIATES * (2 if helper else 1)
                       // (plan.head + n + n_normals)))
    ring = _VariateRing(rng, plan, _mixture_shape(cfg), n_normals, chunk,
                        -(-spec.iterations // chunk),
                        f"jumpvol-variates-{chain_id}" if helper else None)

    idx = 0
    try:
        for j in range(1, spec.iterations + 1):
            i = (j - 1) % chunk
            if i == 0:
                chunk_head, chunk_mixture, chunk_normals = ring.take()
            normals = chunk_normals[i]
            try:
                mu = sample_mu(weights, shifted, priors, work[0], rng)
                np.subtract(y_arr, mu, out=centered)
                np.subtract(centered, jumps, out=resid)
                b = forward_filter(resid, mixture, plan, cfg.b0, rates, scan)
                backward_sample(plan, b, rng, chunk_head[i], normals[:tail], precision, scan)
                sample_mixture_path(resid, precision, cfg, chunk_mixture[i], mixture)
                np.multiply(mixture, precision, out=weights)
                if cfg.jumps_enabled:
                    jump_mean = sample_jump_mean(observed, jump_var, priors, rng)
                    jump_var = sample_jump_var(observed, jump_mean, priors, rng)
                    if sparse:
                        # The stages on the candidates alone: nothing else can be declared.
                        found = _jump_candidates(weights, centered, jump_prob, logit_c, resid,
                                                 declared)
                        m = found.size
                        variates = rng.jump_normals.standard_normal(out=jumps[:m])
                        sub_centered = np.take(centered, found, out=resid[:m], mode="clip")
                        sub_weights = np.take(weights, found, out=rates[:m], mode="clip")
                        sub_work = (work[0][:m], work[1][:m])
                        sizes = sample_jump_sizes(sub_centered, sub_weights, jump_mean, jump_var,
                                                  variates, shifted[:m], sub_work)
                        jump_indicator_probs(sub_weights, sub_centered, sizes, jump_prob, sub_work)
                        hits = apply_jump_threshold(sub_work[0], logit_c, declared[:m])
                        observed = sizes[hits]
                        found_jumps = found[hits]
                        declared.fill(False)
                        declared[found_jumps] = True
                        jumps.fill(0.0)
                        jumps[found_jumps] = observed
                    else:
                        sample_jump_sizes(centered, weights, jump_mean, jump_var, normals[tail:],
                                          jump_size, work)
                        jump_indicator_probs(weights, centered, jump_size, jump_prob, work)
                        apply_jump_threshold(work[0], logit_c, declared)
                        np.copyto(jumps, declared)  # cast first: a mixed multiply buffers a path
                        jumps *= jump_size
                        observed = jump_size[declared]
                    np.subtract(y_arr, jumps, out=shifted)
                    jump_prob = sample_jump_prob(observed.size, n, priors, rng)
            except (ParameterError, FloatingPointError, ZeroDivisionError) as exc:
                raise NumericalError(
                    f"chain {chain_id}: sampler failed at iteration {j}: {exc}"
                ) from exc

            if j > spec.burn_in and (j - spec.burn_in) % spec.thin_lag == 0:
                if cfg.jumps_enabled:
                    jump_indicator_posterior(weights, centered, jump_mean, jump_var, jump_prob,
                                             probs, work)
                ll = conditional_log_lik(shifted, mu, weights, work[0])
                if not math.isfinite(ll):
                    raise NumericalError(
                        f"chain {chain_id}: non-finite log-likelihood at iteration {j}"
                    )
                row = dict(chain=chain_id, iteration=j, mu=mu, jump_prob=jump_prob,
                           jump_mean=jump_mean, jump_var=jump_var, log_lik=ll)
                for name, column in draws.items():
                    column[idx] = row[name]
                acc.add(precision, mixture, found_jumps if sparse else np.flatnonzero(declared),
                        observed, probs)
                if kept is not None:
                    path = dict(precision=precision, mixture=mixture, jump_size=jumps,
                                jump_ind=declared)
                    for name, rows in kept.items():
                        rows[idx] = path[name]
                idx += 1
    finally:
        ring.close()


def _jump_candidates(weights, centered, jump_prob: float, logit_c: float, score, mask):
    """The candidates C of a sweep's threshold rule, increasing t (see the module notes).

    score and mask are n-length float and bool scratch.
    """
    if jump_prob <= 0.0:
        bound = math.inf  # the log-odds are -inf: nothing is declared
    else:
        gap = logit_c - _logit(jump_prob) if jump_prob < 1.0 else -math.inf
        bound = 2.0 * gap * _CANDIDATE_MARGIN if gap > 0.0 else -math.inf
    np.multiply(weights, centered, out=score)
    score *= centered
    return np.flatnonzero(np.greater(score, bound, out=mask))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _helper_runs(n: int) -> bool:
    """Whether a chain on n points draws its variates on a helper thread."""
    return n >= _HELPER_MIN_N and _usable_cpus() >= 2


def run_multi(y, cfg: ModelConfig, spec: RunSpec) -> list[ChainOutput]:
    """Run spec.n_chains independent chains with distinct streams and starts.

    Chain 0 starts from the default initialization, later chains from
    overdispersed prior draws, so multi-chain convergence checks are
    meaningful.  Results are ordered by chain id.

    The chains run one after another on the calling thread.  When a chain
    fails, its error is raised and the later chains do not start.
    """
    y = returns_array(y, min_len=2)
    return [run_chain(y, cfg, spec, chain_id=k) for k in range(spec.n_chains)]
