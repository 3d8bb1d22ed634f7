"""Seedable random variate generation for every distribution the samplers need.

Conventions used everywhere in this package:

* Gamma draws are parameterized by shape and rate, so the mean is shape/rate.
  This matches the precision-scale algebra of the volatility filter, where the
  posterior mean of a precision is shape/rate.
* Inverse-gamma draws are shape and scale (mean = scale/(shape - 1)); the
  conversion happens inside :func:`sample_inverse_gamma`, never at call sites.
* A gamma shape of exactly zero denotes the point mass at zero, for which
  :func:`sample_gamma` returns 0.0.  The package draws at no such shape: its
  shapes are a_n >= a0 > 0 and nu/2, and at a discount factor of one
  :func:`jumpvol.volatility.innovation_variates` writes the zero
  innovations without a draw.

All functions accept scalars or arrays for the distribution parameters and
broadcast like numpy.  Given the same (seed, stream_id) and the same call
sequence, draws are reproducible bit for bit; distinct stream ids give
statistically independent streams.

An :class:`RngStream` holds six generators seeded from one SeedSequence:

* ``generator`` makes every scalar draw: the four static parameters of a
  Gibbs sweep, the terminal precision lambda_n, the dispersed starts of
  later chains and everything :mod:`jumpvol.synthetic` draws.
* Five child streams, ``SeedSequence(seed, spawn_key=(stream_id,))``'s
  children 0-4 (spawn keys ``(stream_id, 0)`` to ``(stream_id, 4)``), make
  the sweep's array draws, whose parameters do not depend on the chain's
  state:

      stream          spawn key  draws
      gammas          (k, 0)     the backward-sample innovations' head:
                                 gammas at the lifted shapes alpha + 1
      normals         (k, 1)     standard normals of the innovations past
                                 the head, then (series under
                                 gibbs._SPARSE_MIN_N points) of the jump sizes
      exponentials    (k, 2)     the head's standard exponentials, which
                                 turn Gamma(alpha + 1) into Gamma(alpha)
      mixture_gammas  (k, 3)     the mixture path's standard gammas, all
                                 at one shape
      jump_normals    (k, 4)     on longer series, standard normals of the
                                 jump sizes where a jump can be declared

  (k is the stream id; see :func:`jumpvol.volatility.innovation_variates`.)
  Each of the first four draws one kind of variate in a fixed order, so
  several sweeps' worth can be drawn in one call, ahead of the sweeps and
  on another thread, without changing any draw (see :mod:`jumpvol.gibbs`).
  ``jump_normals`` draws a number per sweep that depends on the state, in
  the sweep's own thread.

The child streams draw almost every variate of a long fit, on SFC64 bit
generators, which draw them 10-20% cheaper than PCG64; ``generator`` stays
PCG64, so the scalar draws and :mod:`jumpvol.synthetic` keep their stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = [
    "RngStream",
    "sample_gamma",
    "sample_normal",
    "sample_beta",
    "sample_inverse_gamma",
    "sample_bernoulli",
    "log_normal_density",
]

LOG_TWO_PI = math.log(2.0 * math.pi)

_MAX_UINT64 = 2**64

# Smallest positive gamma draw we accept before inverting; draws below this
# would overflow to inf on the inverse-gamma side.
_GAMMA_FLOOR = 1e-300


@dataclass
class RngStream:
    """One independently seeded stream of random draws (one per chain).

    Identical (seed, stream_id) always reproduce the same draw sequence.
    ``generator`` makes the scalar draws, and the five child streams
    ``gammas``, ``normals``, ``exponentials``, ``mixture_gammas`` and
    ``jump_normals`` (the children 0-4 of ``SeedSequence(seed,
    spawn_key=(stream_id,))``, in that order, on SFC64) the sweep's array
    draws (see the module notes).
    """

    seed: int
    stream_id: int = 0
    generator: np.random.Generator = field(init=False, repr=False, compare=False)
    gammas: np.random.Generator = field(init=False, repr=False, compare=False)
    normals: np.random.Generator = field(init=False, repr=False, compare=False)
    exponentials: np.random.Generator = field(init=False, repr=False, compare=False)
    mixture_gammas: np.random.Generator = field(init=False, repr=False, compare=False)
    jump_normals: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {type(value).__name__}")
            if not 0 <= int(value) < _MAX_UINT64:
                raise ParameterError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
        root = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),))
        self.generator = np.random.default_rng(root)
        (self.gammas, self.normals, self.exponentials, self.mixture_gammas,
         self.jump_normals) = (np.random.Generator(np.random.SFC64(child))
                               for child in root.spawn(5))


def _as_param(name: str, value, *, positive: bool = False, nonnegative: bool = False):
    """Validate a distribution parameter.

    Python scalars (and numpy float64, a float subclass) are checked with
    plain float arithmetic and returned as floats: the scalar draws of every
    sweep would otherwise spend most of their time in 0-d array checks.
    Anything else comes back as a float array.
    """
    if isinstance(value, (float, int)):
        checked = float(value)
        finite = math.isfinite(checked)
        bad_sign = (positive and not checked > 0.0) or (nonnegative and not checked >= 0.0)
    else:
        checked = np.asarray(value, dtype=float)
        finite = np.all(np.isfinite(checked))
        bad_sign = (positive and not np.all(checked > 0.0)) or (
            nonnegative and not np.all(checked >= 0.0)
        )
    if not finite:
        raise ParameterError(f"{name} must be finite")
    if bad_sign:
        raise ParameterError(f"{name} must be {'> 0' if positive else '>= 0'}")
    return checked


def _scalar(*params, size) -> bool:
    return size is None and all(isinstance(p, float) or p.ndim == 0 for p in params)


def sample_gamma(shape, rate, rng: RngStream, size=None):
    """Draw from Gamma(shape, rate); mean shape/rate.

    Shape may be exactly zero (point mass at zero, see module notes); any
    negative shape or non-positive rate raises :class:`ParameterError`.
    Valid for all positive shapes including shape < 1.
    """
    shape_arr = _as_param("shape", shape, nonnegative=True)
    rate_arr = _as_param("rate", rate, positive=True)
    if _scalar(shape_arr, rate_arr, size=size):
        if shape_arr == 0.0:
            return 0.0
        return float(rng.generator.gamma(float(shape_arr), 1.0 / float(rate_arr)))
    zero = shape_arr == 0.0
    draws = rng.generator.gamma(np.where(zero, 1.0, shape_arr), 1.0 / rate_arr, size=size)
    if np.any(zero):
        draws = np.where(zero, 0.0, draws)
    return draws


def sample_normal(mean, variance, rng: RngStream, size=None):
    """Draw from N(mean, variance); variance 0 returns the mean exactly."""
    mean_arr = _as_param("mean", mean)
    var_arr = _as_param("variance", variance, nonnegative=True)
    return rng.generator.normal(mean_arr, np.sqrt(var_arr), size=size)


def sample_beta(a, b, rng: RngStream, size=None):
    """Draw from Beta(a, b); mean a/(a+b)."""
    a_arr = _as_param("a", a, positive=True)
    b_arr = _as_param("b", b, positive=True)
    return rng.generator.beta(a_arr, b_arr, size=size)


def sample_inverse_gamma(shape, scale, rng: RngStream, size=None):
    """Draw from InverseGamma(shape, scale); mean scale/(shape - 1) for shape > 1."""
    shape_arr = _as_param("shape", shape, positive=True)
    scale_arr = _as_param("scale", scale, positive=True)
    if _scalar(shape_arr, scale_arr, size=size):
        g = rng.generator.gamma(float(shape_arr), 1.0 / float(scale_arr))
        return float(1.0 / max(g, _GAMMA_FLOOR))
    g = rng.generator.gamma(shape_arr, 1.0 / scale_arr, size=size)
    return 1.0 / np.maximum(g, _GAMMA_FLOOR)


def sample_bernoulli(p, rng: RngStream, size=None):
    """Draw 0/1 with success probability p; p=0 and p=1 are exact."""
    p_arr = _as_param("p", p)
    if np.any(p_arr < 0.0) or np.any(p_arr > 1.0):
        raise ParameterError("p must lie in [0, 1]")
    if _scalar(p_arr, size=size):
        return int(rng.generator.random() < float(p_arr))
    shape = size if size is not None else p_arr.shape
    u = rng.generator.random(shape)
    return (u < p_arr).astype(np.int64)


def log_normal_density(y, mean, variance):
    """Exact log of the N(mean, variance) density at y; variance must be > 0."""
    y_arr = np.asarray(y, dtype=float)
    mean_arr = np.asarray(mean, dtype=float)
    var_arr = _as_param("variance", variance, positive=True)
    out = -0.5 * ((LOG_TWO_PI + np.log(var_arr)) + np.square(y_arr - mean_arr) / var_arr)
    return float(out) if out.ndim == 0 else out
