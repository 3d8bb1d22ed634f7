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
  Gamma(1/2, rate b_t) and much cheaper than a general gamma draw;
* the weights of a blocked first-order scan (:func:`discount_scan`), which
  runs both the rate recursion and the backward recursion with cumulative
  sums.

:func:`forward_filter` takes y as a ReturnsSeries or a finite 1-D array and
aligns the other paths with it (:func:`jumpvol.model.returns_array` and
:func:`jumpvol.model.aligned`); :func:`backward_sample` checks that the
filter state matches cfg.  Both then call the unchecked kernels
``_forward_filter``, which reads the residuals y - mu - jumps that the
Gibbs sweep has already formed, and ``_backward_sample``; the sweep calls
them directly.  The kernels keep one numerical guard: the filtered rates
must be finite.
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
    pos     scan weights omega**(j+1) for j < L, the block length
    neg     scan weights omega**-(j+1), tiled over ceil(n/L) blocks

    All arrays are read-only: one plan is shared by every sweep of a fit.
    """

    omega: float
    n: int
    a: np.ndarray
    shapes: np.ndarray
    head: int
    pos: np.ndarray
    neg: np.ndarray


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
    j = np.arange(1, block + 1, dtype=float)
    pos = np.power(omega, j)
    neg = np.tile(np.power(omega, -j), -(-n // block))
    for arr in (a, shapes, pos, neg):
        arr.flags.writeable = False
    return DiscountPlan(omega=omega, n=n, a=a, shapes=shapes, head=head, pos=pos, neg=neg)


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
    m = len(increments)
    block = plan.pos.size
    if m <= block:
        # One block: the same per-element operations without the padding,
        # the reshape and the carry loop.
        out = increments * plan.neg[:m]
        np.cumsum(out, out=out)
        out += start
        out *= plan.pos[:m]
        return out
    buf = np.zeros(-(-m // block) * block)
    np.multiply(increments, plan.neg[:m], out=buf[:m])
    rows = buf.reshape(-1, block)
    np.cumsum(rows, axis=1, out=rows)
    carries = []
    carry = float(start)
    last = float(plan.pos[-1])
    for row_sum in rows[:, -1].tolist():
        carries.append(carry)
        carry = last * (carry + row_sum)
    rows += np.array(carries)[:, None]
    rows *= plan.pos
    return buf[:m]


@dataclass
class FilterState:
    """Filtering parameters; index 0 of ``a`` and ``b`` holds the initial (a0, b0).

    The shapes come from the plan; the rates are the data-dependent part and
    are checked here, once per sweep.
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

    @classmethod
    def _trusted(cls, plan: DiscountPlan, b: np.ndarray) -> FilterState:
        """Wrap rates that :func:`_forward_filter` built and checked itself."""
        fs = object.__new__(cls)
        fs.plan = plan
        fs.b = b
        return fs

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
    return _forward_filter(y_arr - mu - jumps_arr, mix_arr, cfg)


def _forward_filter(resid, mixture, cfg: ModelConfig) -> FilterState:
    n = resid.size
    plan = discount_plan(cfg.omega, cfg.a0, n)
    b = np.empty(n + 1, dtype=float)
    b[0] = cfg.b0
    b[1:] = discount_scan(0.5 * mixture * resid * resid, plan, cfg.b0)
    np.maximum(b, _B_FLOOR, out=b)
    # After the floor every rate is positive unless it is inf or NaN, and
    # the maximum is non-finite exactly when some rate is.
    if not math.isfinite(b.max()):
        raise ParameterError("filter parameters must be finite")
    return FilterState._trusted(plan, b)


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
    return _backward_sample(fs, cfg, rng)


def _backward_sample(fs: FilterState, cfg: ModelConfig, rng: RngStream) -> np.ndarray:
    """Kernel of :func:`backward_sample`; cfg is unused once omega is checked."""
    plan = fs.plan
    n = plan.n
    b = fs.b
    # The one checked scalar draw of a sweep: bench/tracing.py times the
    # rng layer through this call (rng.gamma).
    lam_n = sample_gamma(plan.a[n], b[n], rng)
    if lam_n <= 0.0:
        # Underflow guard for extreme shapes; keeps the path positive.
        lam_n = _B_FLOOR
    if n == 1:
        return np.array([lam_n], dtype=float)

    head = plan.head
    gen = rng.generator
    eta = np.empty(n - 1, dtype=float)  # eta[t-1] = eta_t
    eta[:head] = gen.standard_gamma(plan.shapes[:head]) / b[1 : head + 1]
    z = gen.standard_normal(n - 1 - head)
    eta[head:] = z * z / (2.0 * b[head + 1 : n])
    lam = np.empty(n, dtype=float)
    # lambda_t = omega * lambda_{t+1} + eta_t runs forward after reversal.
    lam[: n - 1] = discount_scan(eta[::-1], plan, lam_n)[::-1]
    lam[n - 1] = lam_n
    np.maximum(lam, _B_FLOOR, out=lam)
    return lam
