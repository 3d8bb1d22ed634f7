"""Exact block sampling of the return-precision path.

Conditional on the mean, jumps and mixture weights, the precision path
lambda_1..lambda_n is a conjugate gamma state-space process governed by a
discount factor omega.  Filtering updates the gamma parameters as

    a_t = omega * a_{t-1} + 1/2
    b_t = omega * b_{t-1} + mixture_t * (y_t - mu - J_t)^2 / 2

and an exact draw from the joint smoothed distribution is obtained backwards:
lambda_n ~ Gamma(a_n, b_n), then for t = n-1 .. 1

    lambda_t = omega * lambda_{t+1} + eta_t,   eta_t ~ Gamma((1-omega) a_t, b_t).

Everything that does not depend on the data is computed once per
(omega, a0, n) and cached in a :class:`DiscountPlan`:

* the shapes in closed form, a_t = a* + omega^t (a0 - a*) with
  a* = 1/(2(1-omega)), and a0 + t/2 when omega = 1;
* the innovation shapes (1-omega) a_t = 1/2 + omega^t ((1-omega) a0 - 1/2),
  which equal 1/2 exactly in floating point from an index ``head`` on.
  Past it the innovations are drawn as Z^2/(2 b_t), which is exactly
  Gamma(1/2, rate b_t) and much cheaper than a general gamma draw.  In
  the head the shapes lie below 1 (from 0.059 to 1/2 at the default
  omega = 0.9, a0 = 0.1), where numpy's gamma sampler runs a rejection
  loop around ``pow`` that is about three times slower than its sampler
  for shapes of at least 1.  So the head's standard gammas are drawn by
  the exact identity Gamma(alpha) = Gamma(alpha + 1) U^(1/alpha) of
  Marsaglia and Tsang (2000), with U uniform and independent: the plan
  keeps the lifted shapes alpha + 1 and the factors -1/alpha, and
  U^(1/alpha) = exp(-E/alpha) with E = -log(1 - U) a standard exponential
  (:func:`innovation_variates`);
* the weights of a blocked first-order scan (:func:`discount_scan`), which
  runs both the rate recursion and the backward recursion with cumulative
  sums, and those weights halved: the filter scans mixture_t * (y_t - mu -
  J_t)^2 with them, and as scaling by 1/2 is exact its rates are bit for
  bit those of halving the increments in a pass of their own.

:func:`forward_filter` takes y as a ReturnsSeries or a finite 1-D array and
aligns the other paths with it (:func:`jumpvol.model.returns_array` and
:func:`jumpvol.model.aligned`), and wraps the rates in a checked
:class:`FilterState`; :func:`backward_sample` checks that the filter state
matches cfg.  Both then call the unchecked kernels, which the Gibbs sweep
calls directly with the plan it holds for the fit:
``_forward_filter(resid, mixture, plan, b0, out, scratch)`` reads the residuals
y - mu - jumps that the sweep has already formed and returns the rates b,
and ``_backward_sample(plan, b, rng, gammas, normals, out, scan)`` reads
them.  The kernels write into the arrays they are given: the public
functions allocate them on each call, the sweep once per chain.
Each scan runs in a buffer of plan.neg.size entries (n padded to whole
blocks), and the filter's rates are written straight into its buffer.  A
scan of several blocks also writes each block's carry across the block in
a path-sized scratch, so that adding the carries is one same-shape pass:
the filter takes that scratch as an argument, and the backward sample uses
the innovations' memory, free once they are weighted into the scan.
The kernels keep one numerical guard: the filtered rates must be finite.
The increments and the scan weights are non-negative, so an inf or a NaN
at any t carries forward to b_n, and the filter checks b_n alone.

The innovations' standard variates (gammas at shapes[:head], normals past
it) do not depend on the data, so ``_backward_sample`` takes them as arrays
and the Gibbs sweep draws them ahead of time, a chunk of sweeps at a time.
Both it and :func:`backward_sample` draw the gammas with
:func:`innovation_variates` from the stream's ``gammas`` and
``exponentials`` children, and the normals from its ``normals`` child
(see :mod:`jumpvol.rng`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError
from .model import ModelConfig, aligned, returns_array
from .rng import RngStream, sample_gamma

__all__ = [
    "DiscountPlan",
    "discount_plan",
    "discount_scan",
    "FilterState",
    "forward_filter",
    "backward_sample",
]

# Rate floor: keeps Gamma rates positive when residuals vanish for long
# stretches and omega**t * b0 underflows.
_B_FLOOR = 1e-300

# Largest weight omega**-L inside one scan block.  Increments are scaled by
# it, so it bounds both the headroom lost to overflow and the dynamic range
# within a block.
_MAX_BLOCK_WEIGHT = 1e50


@dataclass(frozen=True, eq=False)
class DiscountPlan:
    """The data-free part of the precision filter for one (omega, a0, n).

    a       shapes a_0..a_n of the filtered gammas
    shapes  innovation shapes (1-omega) a_t for t = 1..n-1
    head    number of leading innovation shapes that are not exactly 1/2;
            shapes[head:] are all 1/2
    lift    shapes[:head] + 1, the shapes of the head's gamma draws
    decay   -1 / shapes[:head], the exponent per standard exponential
            (0 at omega = 1, where every innovation shape is 0)
    block   L, the length of a scan block
    pos     scan weights omega**(j+1) for j < L, tiled over ceil(n/L) blocks
    neg     scan weights omega**-(j+1), tiled like pos
    half    neg / 2, the weights of the filter's scan

    All arrays are read-only: one plan is shared by every sweep of a fit.
    """

    omega: float
    n: int
    a: np.ndarray
    shapes: np.ndarray
    head: int
    lift: np.ndarray
    decay: np.ndarray
    block: int
    pos: np.ndarray
    neg: np.ndarray
    half: np.ndarray


@functools.lru_cache(maxsize=16)
def discount_plan(omega: float, a0: float, n: int) -> DiscountPlan:
    """Build (or fetch from a small cache) the plan for a series of length n."""
    if n < 1:
        raise SizeError("filter state needs the initial entry plus at least one step")
    k = np.arange(n + 1, dtype=float)
    pw = np.power(omega, k)
    if omega == 1.0:
        a = a0 + 0.5 * k
        block = n
    else:
        # 1 - omega**t through expm1 keeps full precision when omega is near 1.
        a = pw * a0 + (0.5 / (1.0 - omega)) * -np.expm1(k * math.log(omega))
        block = int(min(n, max(1.0, math.log(_MAX_BLOCK_WEIGHT) / -math.log(omega))))
    # One rounding of 1/2 plus a vanishing term: exactly 1/2 from the point
    # where that term drops below half an ulp of 1/2.
    shapes = 0.5 + pw[1:n] * ((1.0 - omega) * a0 - 0.5)
    off_half = np.flatnonzero(shapes != 0.5)
    head = int(off_half[-1]) + 1 if off_half.size else 0
    lift = shapes[:head] + 1.0
    # Every shape is 0 at omega = 1, where the head draws nothing.
    decay = np.divide(-1.0, shapes[:head], out=np.zeros(head), where=shapes[:head] > 0.0)
    j = np.arange(1, block + 1, dtype=float)
    blocks = -(-n // block)
    pos = np.tile(np.power(omega, j), blocks)
    neg = np.tile(np.power(omega, -j), blocks)
    half = 0.5 * neg
    for arr in (a, shapes, lift, decay, pos, neg, half):
        arr.flags.writeable = False
    return DiscountPlan(omega=omega, n=n, a=a, shapes=shapes, head=head, lift=lift, decay=decay,
                        block=block, pos=pos, neg=neg, half=half)


def discount_scan(increments: np.ndarray, plan: DiscountPlan, start: float = 0.0) -> np.ndarray:
    """x_t = omega * x_{t-1} + increments_t with x_0 = start; returns x_1..x_m.

    m, the length of increments, may be at most plan.n.  Within a block of
    length L starting after x_s,
    x_{s+j} = omega**(j+1) * (x_s + sum_{i<=j} omega**-(i+1) u_{s+i}), so each
    block is one cumulative sum and only the block ends are carried in a
    Python loop.  Every term is non-negative for non-negative increments and
    start, and the result is then accurate to a few ulp; mixed signs could
    cancel, so callers pass only non-negative increments.
    """
    return _discount_scan(increments, plan, start, np.empty(plan.neg.size),
                          np.empty(len(increments)))


def _discount_scan(increments, plan: DiscountPlan, start: float, out: np.ndarray,
                   scratch: np.ndarray, neg=None) -> np.ndarray:
    """Kernel of :func:`discount_scan`: x_1..x_m are written into out[:m].

    out has plan.neg.size entries (plan.n padded to whole blocks), scratch
    past m; increments may be out[:m] itself.  scratch has at least m
    entries that are free once the increments are weighted (it may be the
    increments' own memory): the carries of several blocks are written into
    it.  neg weights the increments (plan.neg by default; plan.half scans
    increments / 2).
    """
    m = len(increments)
    block = plan.block
    x = out[:m]
    np.multiply(increments, plan.neg[:m] if neg is None else neg[:m], out=x)
    if m <= block:
        # One block: the same per-element operations without the padding,
        # the reshape and the carry loop.
        np.add.accumulate(x, out=x)
        x += start
        x *= plan.pos[:m]
        return x
    out[m:] = 0.0
    rows = out.reshape(-1, block)
    np.add.accumulate(rows, axis=1, out=rows)
    carries = []
    carry = float(start)
    last = float(plan.pos[block - 1])
    for row_sum in rows[:, -1].tolist():
        carries.append(carry)
        carry = last * (carry + row_sum)
    # Each block's carry is copied across its block in scratch, then added in
    # one same-shape pass: a broadcast add would buffer a path.
    whole = m - m % block
    scratch[:whole].reshape(-1, block)[...] = np.array(carries[: whole // block])[:, None]
    if whole < m:
        scratch[whole:m] = carries[whole // block]
    x += scratch[:m]
    out *= plan.pos  # the weights are tiled: one flat multiply, no broadcast
    return x


@dataclass
class FilterState:
    """Filtering parameters; index 0 of ``a`` and ``b`` holds the initial (a0, b0).

    The shapes come from the plan; the rates are the data-dependent part and
    are checked here, once per :func:`forward_filter` call.  The Gibbs sweep
    builds none: it hands the kernels the plan and the rates.
    """

    plan: DiscountPlan
    b: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.plan, DiscountPlan):
            raise ParameterError("plan must be a DiscountPlan")
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (self.plan.n + 1,):
            raise SizeError(f"b must have shape ({self.plan.n + 1},), got {self.b.shape}")
        if not np.all(np.isfinite(self.b)):
            raise ParameterError("filter parameters must be finite")
        if not np.all(self.b > 0):
            raise ParameterError("filter parameters must be > 0")

    @property
    def a(self) -> np.ndarray:
        return self.plan.a

    @property
    def n(self) -> int:
        return self.plan.n


def forward_filter(y, mu: float, jumps, mixture, cfg: ModelConfig) -> FilterState:
    """Run the precision filter over the whole series.

    Deterministic: identical inputs give an identical FilterState.
    """
    y_arr, jumps_arr, mix_arr = aligned(returns_array(y), jumps=jumps, mixture=mixture)
    if not math.isfinite(mu):
        raise ParameterError(f"mu must be finite, got {mu}")
    if not np.all(mix_arr > 0):
        raise ParameterError("mixture entries must be > 0")
    plan = discount_plan(cfg.omega, cfg.a0, y_arr.size)
    b = _forward_filter(y_arr - mu - jumps_arr, mix_arr, plan, cfg.b0,
                        np.empty(1 + plan.neg.size), np.empty(plan.n))
    return FilterState(plan, b)


def _forward_filter(resid, mixture, plan: DiscountPlan, b0: float, out: np.ndarray,
                    scratch: np.ndarray) -> np.ndarray:
    """Return the rates b, written into out[:n+1]; the scan runs in out[1:]
    with scratch (n entries) for its carries."""
    n = plan.n
    b = out[: n + 1]
    b[0] = b0
    increments = b[1:]
    np.multiply(mixture, resid, out=increments)
    increments *= resid
    _discount_scan(increments, plan, b0, out[1:], scratch, plan.half)
    np.maximum(b, _B_FLOOR, out=b)
    # After the floor every rate is positive unless it is inf or NaN, and
    # an inf or a NaN at any t reaches b_n (see the module notes).
    if not math.isfinite(b[n]):
        raise ParameterError("filter parameters must be finite")
    return b


def backward_sample(fs: FilterState, cfg: ModelConfig, rng: RngStream) -> np.ndarray:
    """Draw the full precision path from its joint smoothed distribution.

    The terminal point comes from Gamma(a_n, b_n); earlier points add
    independent Gamma((1-omega) a_t, b_t) innovations to the discounted
    successor.  With omega = 1 the innovation shapes are zero, the draws
    are exactly zero and the path is constant.
    """
    if cfg.omega != fs.plan.omega:
        raise ParameterError(
            f"filter state was built with omega={fs.plan.omega}, cfg has omega={cfg.omega}"
        )
    plan = fs.plan
    gammas = innovation_variates(plan, rng, np.empty(plan.head), np.empty(plan.head))
    normals = rng.normals.standard_normal(plan.n - 1 - plan.head)
    return _backward_sample(plan, fs.b, rng, gammas, normals, np.empty(plan.n),
                            np.empty(plan.neg.size))


def innovation_variates(plan: DiscountPlan, rng: RngStream, out: np.ndarray,
                        scratch: np.ndarray) -> np.ndarray:
    """Draw the standard gammas of the innovations' head into out and return it.

    out and scratch are C-contiguous, of shape (plan.head,) or (rows,
    plan.head); each row gets standard gammas at plan.shapes[:head], drawn
    as G exp(E decay) with G ~ Gamma(lift) from rng.gammas and E ~ Exp(1)
    from rng.exponentials (written into scratch), which is
    Gamma(alpha + 1) U^(1/alpha) ~ Gamma(alpha) (see the module notes).
    Each stream fills its array row after row, so one call for several rows
    draws what one call per row draws.  At omega = 1 every shape is 0
    (below 1 none is): the head is exactly 0 and nothing is drawn.  The
    remaining n - 1 - head innovations take standard normals from
    rng.normals.
    """
    if plan.omega == 1.0:
        out.fill(0.0)
        return out
    rng.gammas.standard_gamma(plan.lift, out=out)
    rng.exponentials.standard_exponential(out=scratch)
    scratch *= plan.decay
    np.exp(scratch, out=scratch)
    out *= scratch
    return out


def _backward_sample(plan: DiscountPlan, b: np.ndarray, rng: RngStream, gammas: np.ndarray,
                     normals: np.ndarray, out: np.ndarray, scan: np.ndarray) -> np.ndarray:
    """Kernel of :func:`backward_sample`: b are the rates of :func:`_forward_filter`.

    gammas are the head's standard gammas (:func:`innovation_variates`) and
    normals the n - 1 - head standard normals past it: eta_t = gamma/b_t in
    the head, Z^2/(2 b_t) past it.  The path is written into out; the scan
    runs in scan (plan.neg.size entries).
    """
    n = plan.n
    # The one checked scalar draw of a sweep: bench/tracing.py times the
    # rng layer through this call (rng.gamma).
    lam_n = sample_gamma(plan.a[n], b[n], rng)
    if lam_n <= 0.0:
        # Underflow guard for extreme shapes; keeps the path positive.
        lam_n = _B_FLOOR
    if n == 1:
        out[0] = lam_n
        return out

    head = plan.head
    eta = out[: n - 1]  # eta[t-1] = eta_t
    np.divide(gammas, b[1 : head + 1], out=eta[:head])
    if head < n - 1:
        twice_b = np.multiply(2.0, b[head + 1 : n], out=scan[: n - 1 - head])
        np.multiply(normals, normals, out=eta[head:])
        np.divide(eta[head:], twice_b, out=eta[head:])
    # lambda_t = omega * lambda_{t+1} + eta_t runs forward after reversal;
    # the scan weights the innovations into scan first, so their memory
    # holds its carries.
    out[: n - 1] = _discount_scan(eta[::-1], plan, lam_n, scan, eta)[::-1]
    out[n - 1] = lam_n
    np.maximum(out, _B_FLOOR, out=out)
    return out
