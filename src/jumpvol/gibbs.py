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

On short series each numpy call costs about 1 us whatever its size, so
retained draws are summarized a block at a time (_RetainedBlock).  A block
holds K = _BLOCK_VALUES // (7 n) draws, at least 1 and at most the chain's
draws: 18 at n = 252, 4 at n = 1,000 and 1 from n = 2,341 up.  Its arrays
are the accumulator's five (K + 1, n) arrays, precision, mixture, prob,
var and sd, and the block's (K, n) arrays of weights and shifted paths:
seven rows a draw, so the block adds at most 7 (K - 1) n < _BLOCK_VALUES
values (256 kB) to the chain.  Row 0 of each of the five holds a running
sum.  The last rows are the sweep's workspace: precision, mixture, centered
(prob's), the two work scratches (var's and sd's), weights and shifted.  A
retained sweep records its scalars (iteration, mu, jump_prob, jump_mean,
jump_var) and its declared times and sizes, and copies its precision,
mixture, centered, weights and shifted paths into the block's next rows,
except into the last ones, which they already are: a block of one copies
nothing and runs the passes the sweep ran when it summarized each draw at
once.  When the block is full, and after the last sweep, flush() runs on
all its rows at once:

    1. the log-likelihoods (scratch: var's rows) and their finiteness check;
    2. P(N_t = 1) from the centered rows into prob's rows (scratch: var's
       and sd's rows); zeros on a no-jump fit;
    3. the accumulator: 1 / precision into var's rows and its root into
       sd's, then one np.add.reduce along the draws axis of the five
       arrays, which adds each array's rows to its row 0 one after another,
       as adding each draw in turn would; np.add.at adds the jump sums over
       the block's times in the order of its draws; the band buffer takes
       the rows by slice and trims wherever it fills;
    4. the draws table and the kept precision and mixture paths, by slice
       (the kept jump paths are written at each retained sweep).

The kernels take the block's (r, n) rows with a (r, 1) column per scalar;
a block of one row runs them on n-length rows with float scalars.  A sweep
that raises first flushes the pending block, so a retained sweep before it
whose log-likelihood is not finite is the failure reported, as when each
draw was summarized at once.

The credibility bands equal numpy's linear 2.5% and 97.5% quantiles of
every float32 variance-scale draw, bit for bit.  Those quantiles read only
the k = 2.5% of draws (plus two) that are smallest and largest at each t,
so a chain keeps those in a buffer of at most 3k + 16 rows: 36 rows in
place of 350 draws at n = 6,241.  A trim sorts each column on the int32
view of its float32 values, which are positive or +0 (+inf among them,
never NaN): their bit patterns order as int32 exactly as the values do.
run_chain forms the summary only after the sweeps (_run_sweeps) return and
their variate slots and the workspace arrays outside the block are freed,
so the summary's arrays do not add to them at the chain's peak.

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
neither the helper nor the chunk size changes the output.  A chain that
starts a helper keeps it from its first chunk to its last, and joins it
when run_chain returns or raises.

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
n-length array a sweep touches, and then lets go of its initial LatentPath:
the workspace holds the whole state.  The arrays marked * are the last rows
of the retained block's arrays.

    array      holds                 written by            read by
    precision* lambda path           backward_sample       mixture path, weights, the block
    mixture*   gamma path            sample_mixture_path   filter, weights, the block
    jump_size  xi path (jump fits    sample_jump_sizes     jump mean/variance, indicators
               under _SPARSE_MIN_N
               points only)
    declared   N path (bool)         apply_jump_threshold  jumps, next jump mean/var, jump_prob
    jumps      jump_size * declared  the indicators        resid, shifted, kept jump paths
    centered*  y - mu                the mu draw           jump sizes, indicators, the block
    resid      centered - jumps      the mu draw           filter, mixture path
    weights*   mixture * precision   the mixture draw      the next mu draw, jump sizes,
                                                           indicators, the block
    shifted*   y - jumps             the indicators        the next mu draw, the block
    rates      b, padded for a scan  forward_filter        backward_sample
    scan       padded scratch        forward_filter (its carries), backward_sample
    work*      two float scratches   mu draw, jump sizes, indicators, then the block's flush;
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
mixture, centered, shifted, declared and jumps (the kept jump_size rows are
the jumps xi N): the accumulator's jump counts and the kept jump_ind rows
stay int64 and take declared as 0 and 1.  Every array is computed with the
operations, in the order, that the public function of its stage uses, so
the sweep draws bit for bit what the public functions (which allocate
these arrays) draw when called in the order above.
"""

from __future__ import annotations

import math
import os
import queue
import threading
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
# sorting work linear in the number of draws.  With 16, a 200-draw chain's
# buffer is 28 rows (0.56 MB at n = 5,000, against 44 rows with 32 and 76
# with 64).  Sorting the int32 view took 267 us for those 28 rows against
# 576 us for 44 float32 rows (timeit), so trimming twice as often costs
# about the same per kept draw there (36 us); at n = 6,241 with 350 draws
# (36 rows against 52) a kept draw costs 6-10 us more.
_BAND_BATCH = 16
# Shortest series whose standard variates a helper thread draws (see
# _VariateRing).  The helper's memory (a second slot and the thread) does
# not shrink with n, but its gain does: forced on for the 252-point fits of
# short_batch it gained 4% in sweeps per second for 0.7 MB (1.7%) of peak
# memory, while at n = 1,000 it gained 19-25%.
_HELPER_MIN_N = 1000
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
# Float64 values of path rows that a chain's retained block adds to its
# workspace (see the module notes): 256 kB, like an inline variate slot.
_BLOCK_VALUES = 2**15
# Paths a retained block keeps per draw: precision, mixture, weights,
# centered and shifted, and two scratch rows.
_BLOCK_PATHS = 7


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


def _path_rows(shape: tuple, n: int, draws: int) -> np.ndarray:
    """Zeros of shape (*shape, n) for a retained block of `draws` draws, each row
    starting on a 64-byte boundary when the block holds one draw.

    Those rows are the long series' workspace, and the sweep's and the
    block's kernels ran 8-12% faster on 64-byte aligned rows than on rows 8
    or 16 bytes past a boundary at n = 5,000-6,241 (timeit).  A larger block
    keeps its rows contiguous instead, so one numpy call runs over all of
    them at once: padded rows took twice as long a call at n = 252.
    """
    width = -(-n // 8) * 8 if draws == 1 else n
    count = math.prod(shape)
    buf = np.zeros(count * width + 7)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + count * width].reshape(*shape, width)[..., :n]


def _block_rows(n: int, n_draws: int) -> int:
    """Draws a chain's retained block holds: at least one, and no more than its draws."""
    return max(1, min(n_draws, _BLOCK_VALUES // (_BLOCK_PATHS * n)))


class _LatentAccumulator:
    """Running per-t summaries of the latent paths over n_draws retained draws.

    Draws are added a block of up to `rows` at a time.  Five (rows + 1, n)
    arrays, precision, mixture, prob, var and sd, hold a running sum in row 0
    and the draws of a block in rows 1 to r: the caller writes the precision,
    mixture and prob rows (P(N_t = 1)), and add() writes 1 / precision into var
    and its root into sd.  The five are one array, so one np.add.reduce adds
    every block's rows to its row 0; it adds them one after another, so each
    sum equals the one that adds every draw in turn, bit for bit.

    Means use every draw.  For the bands, a float32 buffer holds the
    variance-scale draws.  When it is full, each column is sorted and only
    its `keep` smallest and `keep` largest values stay: every order statistic
    the band quantiles read is among them.
    """

    def __init__(self, n: int, n_draws: int, rows: int = 1) -> None:
        self.count = 0
        self._blocks = _path_rows((5, rows + 1), n, rows)
        self.precision, self.mixture, self.prob, self.var, self.sd = self._blocks
        self._sums, self._first = self._blocks[:, 0], self._blocks[:, 1]
        self.sum_jump = np.zeros(n)
        self.sum_ind = np.zeros(n, dtype=np.int64)
        self.keep = _tail_rows(n_draws)
        buffer_rows = min(n_draws, 2 * self.keep + max(_BAND_BATCH, self.keep))
        self.tails = np.empty((buffer_rows, n), dtype=np.float32)
        self.fill = 0

    def add(self, r: int, at, sizes) -> None:
        """Add the draws in rows 1..r, whose jumps are declared at the times at, of sizes.

        at holds each draw's distinct times in turn, so np.add.at adds the
        sizes at a time in the order of the draws.
        """
        inv = np.divide(1.0, self.precision[1:r + 1], out=self.var[1:r + 1])
        np.sqrt(inv, out=self.sd[1:r + 1])
        if r == 1:  # the same sums; a reduce of two rows took 3-4 times as long at n = 5,000
            np.add(self._sums, self._first, out=self._sums)
        else:
            np.add.reduce(self._blocks[:, :r + 1], axis=1, out=self._sums)
        if at.size:
            np.add.at(self.sum_jump, at, sizes)
            np.add.at(self.sum_ind, at, 1)
        added = 0
        while added < r:  # trimmed wherever the buffer fills, as draw by draw
            if self.fill == len(self.tails):
                kept = self._sort_tails()
                kept[self.keep:2 * self.keep] = kept[-self.keep:]
                self.fill = 2 * self.keep
            rows = inv[added:added + len(self.tails) - self.fill]
            self.tails[self.fill:self.fill + len(rows)] = rows
            self.fill += len(rows)
            added += len(rows)
        self.count += r

    def _sort_tails(self) -> np.ndarray:
        rows = self.tails[:self.fill]
        # Every value is positive or +0 (+inf among them, never NaN), and the
        # bit patterns of such float32 values order as int32 exactly as the
        # values do: the int32 sort puts the same bits where the float one would.
        rows.view(np.int32).sort(axis=0)
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
            var_mean=self.var[0] / m,
            var_lo95=var_lo,
            var_hi95=var_hi,
            sd_mean=self.sd[0] / m,
            sd_lo95=np.sqrt(var_lo),
            sd_hi95=np.sqrt(var_hi),
            mean_jump=self.sum_jump / m,
            prob_jump=self.prob[0] / m,
            freq_jump=self.sum_ind / m,
            mean_precision=self.precision[0] / m,
            mean_mixture=self.mixture[0] / m,
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
                self._fill(slot)
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
        if self._taken < self._chunks:
            self._requests.put(self._slots[self._taken % 2])
        return slot

    def close(self) -> None:
        if self._thread is not None:
            self._requests.put(None)
            self._thread.join()
            self._thread = None


class _RetainedBlock:
    """The retained sweeps of a chain that are not yet summarized, up to acc's rows.

    Draw r of a block (1 <= r <= rows) sits in row r of the accumulator's
    arrays and in row r - 1 of weights and shifted.  The last row of each
    array is the sweep's workspace (see the module notes), so keep() copies
    the paths of every draw but the last into its rows; a block of one row
    copies none.
    flush() forms the block's log-likelihoods and jump probabilities and adds
    the block to the accumulator, the draws table and the kept paths.
    """

    def __init__(self, acc: _LatentAccumulator, draws: dict, kept: Optional[dict],
                 chain_id: int, jumps_enabled: bool) -> None:
        self.rows, n = acc.precision.shape[0] - 1, acc.precision.shape[1]
        self.weights, self.shifted = _path_rows((2, self.rows), n, self.rows)
        self._acc, self._draws, self._kept = acc, draws, kept
        self._chain_id, self._jumps = chain_id, jumps_enabled
        self._scalars, self._at, self._sizes = [], [], []
        self._idx = 0  # the draws row of the block's first draw

    def keep(self, j: int, mu: float, jump_prob: float, jump_mean: float, jump_var: float,
             at, sizes, jumps, declared) -> None:
        """Keep sweep j, whose jumps are declared at the distinct times at, of sizes."""
        acc, r = self._acc, len(self._scalars) + 1
        if r < self.rows:
            for block in (acc.precision, acc.mixture, acc.prob):
                block[r] = block[-1]
            for block in (self.weights, self.shifted):
                block[r - 1] = block[-1]
        self._scalars.append((j, mu, jump_prob, jump_mean, jump_var))
        self._at.append(at)
        self._sizes.append(sizes)
        if self._kept is not None:
            # The short series' jumps hold -0.0 where a negative size is not
            # declared, so they are kept as they are, not rebuilt from at.
            self._kept["jump_size"][self._idx + r - 1] = jumps
            self._kept["jump_ind"][self._idx + r - 1] = declared
        if r == self.rows:
            self.flush()

    def flush(self) -> None:
        r = len(self._scalars)
        if not r:
            return
        # A block of one row runs the kernels on n-length rows with float
        # parameters: with a (1, n) block and (1, 1) columns its draw took
        # about 5 us more at n = 252 and 15 us more at n = 5,000 (timeit).
        if r == 1:
            rows, paths, values = 1, 0, self._scalars[0]
            mu, jump_prob, jump_mean, jump_var = values[1:]
        else:
            rows, paths, values = slice(1, r + 1), slice(0, r), np.array(self._scalars).T
            mu, jump_prob, jump_mean, jump_var = values[1:, :, None]
        at, sizes = np.concatenate(self._at), np.concatenate(self._sizes)
        self._scalars, self._at, self._sizes = [], [], []
        acc, first, weights = self._acc, self._idx, self.weights[paths]
        ll = conditional_log_lik(self.shifted[paths], mu, weights, acc.var[rows])
        finite = np.isfinite(ll)
        if not finite.all():
            raise NumericalError(f"chain {self._chain_id}: non-finite log-likelihood at "
                                 f"iteration {int(np.atleast_1d(values[0])[np.argmin(finite)])}")
        probs = acc.prob[rows]  # the block's centered paths, y - mu, until here
        if self._jumps:
            jump_indicator_posterior(weights, probs, jump_mean, jump_var, jump_prob, probs,
                                     (acc.var[rows], acc.sd[rows]))
        else:
            probs.fill(0.0)
        if self._kept is not None:
            self._kept["precision"][first:first + r] = acc.precision[rows]
            self._kept["mixture"][first:first + r] = acc.mixture[rows]
        acc.add(r, at, sizes)
        columns = dict(zip(("iteration", *STATIC_NAMES), values), chain=self._chain_id,
                       log_lik=ll)
        for name, column in self._draws.items():
            column[first:first + r] = columns[name]
        self._idx += r


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
    acc = _LatentAccumulator(n, n_ret, _block_rows(n, n_ret))
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
    # The workspace: every n-length array a sweep touches (see the module
    # notes), seven of them the last rows of the retained block's arrays.
    block = _RetainedBlock(acc, draws, kept, chain_id, cfg.jumps_enabled)
    sparse = cfg.jumps_enabled and n >= _SPARSE_MIN_N
    dense = cfg.jumps_enabled and not sparse
    precision, mixture, centered = acc.precision[-1], acc.mixture[-1], acc.prob[-1]
    work, weights, shifted = (acc.var[-1], acc.sd[-1]), block.weights[-1], block.shifted[-1]
    precision[:] = path0.precision
    mixture[:] = path0.mixture
    jump_size = np.array(path0.jump_size, dtype=float) if dense else None  # the dense block's xi
    declared = path0.jump_ind == 1
    jumps = path0.jump_size * declared
    observed = path0.jump_size[declared]
    found_jumps = np.flatnonzero(declared)
    del path0  # the workspace holds the whole state from here on
    resid = np.empty(n)
    np.multiply(mixture, precision, out=weights)
    np.subtract(y_arr, jumps, out=shifted)
    logit_c = _logit(cfg.jump_threshold)
    plan = discount_plan(cfg.omega, cfg.a0, n)
    rates, scan = np.empty(1 + plan.neg.size), np.empty(plan.neg.size)

    # Each sweep reads one row of each slot array (see the module notes):
    # the variates of the public stages.  On jump fits of _SPARSE_MIN_N
    # points or more, the jump sizes' normals come from rng.jump_normals at
    # the candidates instead.
    tail = n - 1 - plan.head
    n_normals = tail + (n if dense else 0)
    helper = _helper_runs(n)
    chunk = max(1, min(spec.iterations, _CHUNK_VARIATES * (2 if helper else 1)
                       // (plan.head + n + n_normals)))
    ring = _VariateRing(rng, plan, _mixture_shape(cfg), n_normals, chunk,
                        -(-spec.iterations // chunk),
                        f"jumpvol-variates-{chain_id}" if helper else None)

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
                block.keep(j, mu, jump_prob, jump_mean, jump_var,
                           np.flatnonzero(declared) if dense else found_jumps, observed,
                           jumps, declared)
        block.flush()
    except Exception:
        # A retained sweep still in the block may have failed first: report
        # its error, as a chain that summarized every draw at once would.
        try:
            block.flush()
        except Exception as first:
            raise first from None
        raise
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
