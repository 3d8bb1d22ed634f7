"""Domain types for data, configuration, parameters and latent paths.

The observation model for a log-return series y_1..y_n (in percent, i.e.
100 * diff(log price)) is

    y_t = mu + J_t + e_t,        e_t | gamma_t, lambda_t ~ N(0, 1/(gamma_t * lambda_t))
    J_t = xi_t * N_t,            xi_t ~ N(jump_mean, jump_var),  P(N_t = 1) = jump_prob
    gamma_t ~ Gamma(nu/2, nu/2)  iid, making the innovations Student-t with nu dof

and lambda_t follows a discount-factor gamma-beta evolution controlled by
omega in (0, 1].  Volatility is stored internally on the precision scale
(lambda); everything reported to users is 1/lambda (variance scale) or
lambda**-0.5 (standard-deviation scale).

Jump size and indicator are stored at the same index as the return they
affect, so xi[t] * jump_ind[t] is the shock added to y[t].

A fitted chain is its draws table: ChainOutput.draws holds the chain's rows
of draws.csv column by column, so the column names alone say which static
parameters the fit has.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError, SizeError

__all__ = [
    "ReturnsSeries",
    "Priors",
    "ModelConfig",
    "StaticParams",
    "LatentPath",
    "LatentSummary",
    "LATENT_FIELDS",
    "STATIC_NAMES",
    "ChainOutput",
    "prices_to_returns",
    "returns_to_prices",
    "default_config",
]


def _finite_1d(name: str, values, min_len: int = 0) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise SizeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_len:
        raise SizeError(f"{name} needs at least {min_len} entries, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must contain only finite values")
    return arr


@dataclass
class ReturnsSeries:
    """Ordered log-returns (x100%) with optional per-observation labels.

    Fits require at least two observations; a single-return series can still
    be constructed so that price-to-return transforms of two prices work.
    """

    returns: np.ndarray
    timestamps: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        self.returns = _finite_1d("returns", self.returns, min_len=1)
        self.returns.flags.writeable = False
        if self.timestamps is not None:
            self.timestamps = list(self.timestamps)
            if len(self.timestamps) != self.returns.size:
                raise SizeError(
                    f"timestamps length {len(self.timestamps)} does not match "
                    f"returns length {self.returns.size}"
                )

    def __len__(self) -> int:
        return int(self.returns.size)


def returns_array(y, min_len: int = 1) -> np.ndarray:
    """The returns of a ReturnsSeries, or y checked as a finite 1-D array."""
    if not isinstance(y, ReturnsSeries):
        return _finite_1d("returns", y, min_len)
    if y.returns.size < min_len:
        raise SizeError(f"returns needs at least {min_len} entries, got {y.returns.size}")
    return y.returns


def aligned(y, **paths) -> tuple[np.ndarray, ...]:
    """y and each named path as float arrays; a path shaped unlike y is a SizeError."""
    y = np.asarray(y, dtype=float)
    arrays = [y]
    for name, values in paths.items():
        arr = np.asarray(values, dtype=float)
        if arr.shape != y.shape:
            raise SizeError(f"{name} shape {arr.shape} != y shape {y.shape}")
        arrays.append(arr)
    return tuple(arrays)


@dataclass(frozen=True)
class Priors:
    """Hyperparameters of every prior used by the samplers.

    mu ~ N(mu_mean, mu_var); jump_mean ~ N(jump_mean_mean, jump_mean_var);
    jump_var ~ InverseGamma(jump_var_shape, jump_var_scale);
    jump_prob ~ Beta(jump_prob_a, jump_prob_b).
    """

    mu_mean: float = 0.0
    mu_var: float = 100.0
    jump_mean_mean: float = 0.0
    jump_mean_var: float = 100.0
    jump_var_shape: float = 0.1
    jump_var_scale: float = 0.1
    jump_prob_a: float = 2.0
    jump_prob_b: float = 40.0

    def __post_init__(self) -> None:
        for name in ("mu_var", "jump_mean_var", "jump_var_shape", "jump_var_scale",
                     "jump_prob_a", "jump_prob_b"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ParameterError(f"prior field {name} must be finite and > 0, got {value}")
        for name in ("mu_mean", "jump_mean_mean"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"prior field {name} must be finite")


@dataclass(frozen=True)
class ModelConfig:
    """Fixed model constants plus all prior hyperparameters.

    nu             mixture degrees of freedom (innovations are t_nu)
    omega          discount factor in (0, 1] for the precision evolution
    jump_threshold posterior-probability cutoff above which an observation
                   is declared a jump (strict inequality)
    a0, b0         initial shape/rate of the precision filter
    jumps_enabled  True fits the jump model; False fits the no-jump reduction
    """

    nu: float = 30.0
    omega: float = 0.9
    jump_threshold: float = 0.7
    a0: float = 0.1
    b0: float = 0.1
    jumps_enabled: bool = True
    priors: Priors = field(default_factory=Priors)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ParameterError(f"nu must be finite and > 0, got {self.nu}")
        if not (np.isfinite(self.omega) and 0.0 < self.omega <= 1.0):
            raise ParameterError(f"omega must lie in (0, 1], got {self.omega}")
        if not (np.isfinite(self.jump_threshold) and 0.0 < self.jump_threshold < 1.0):
            raise ParameterError(f"jump_threshold must lie in (0, 1), got {self.jump_threshold}")
        for name in ("a0", "b0"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be finite and > 0, got {value}")
        if not isinstance(self.priors, Priors):
            raise ParameterError("priors must be a Priors instance")


def default_config() -> ModelConfig:
    """Configuration used for the reference daily equity-index fits.

    nu=30, omega=0.9, threshold 0.7, a0=b0=0.1, mu ~ N(0,100),
    jump_mean ~ N(0,100), jump_var ~ InverseGamma(0.1,0.1),
    jump_prob ~ Beta(2,40), jumps enabled.
    """
    return ModelConfig()


@dataclass(frozen=True)
class StaticParams:
    """One draw of the static parameters."""

    mu: float
    jump_prob: float
    jump_mean: float
    jump_var: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.mu):
            raise ParameterError(f"mu must be finite, got {self.mu}")
        if not (np.isfinite(self.jump_prob) and 0.0 < self.jump_prob < 1.0):
            raise ParameterError(f"jump_prob must lie in (0, 1), got {self.jump_prob}")
        if not np.isfinite(self.jump_mean):
            raise ParameterError(f"jump_mean must be finite, got {self.jump_mean}")
        if not (np.isfinite(self.jump_var) and self.jump_var > 0):
            raise ParameterError(f"jump_var must be finite and > 0, got {self.jump_var}")


@dataclass
class LatentPath:
    """Per-time-step draws of the latent quantities.

    precision = lambda path (inverse conditional variance scale),
    mixture = per-observation Student-t mixing weights,
    jump_size = xi path, jump_ind = 0/1 indicator path.
    The realized jump at t is jump_size[t] * jump_ind[t].
    """

    precision: np.ndarray
    mixture: np.ndarray
    jump_size: np.ndarray
    jump_ind: np.ndarray

    def __post_init__(self) -> None:
        self.precision = _finite_1d("precision", self.precision, min_len=1)
        self.mixture = _finite_1d("mixture", self.mixture, min_len=1)
        self.jump_size = _finite_1d("jump_size", self.jump_size, min_len=1)
        ind = np.array(self.jump_ind)
        if ind.ndim != 1:
            raise SizeError(f"jump_ind must be one-dimensional, got shape {ind.shape}")
        if not np.all((ind == 0) | (ind == 1)):
            raise ParameterError("jump_ind entries must be 0 or 1")
        self.jump_ind = ind.astype(np.int64)
        n = self.precision.size
        for name in ("mixture", "jump_size", "jump_ind"):
            if getattr(self, name).size != n:
                raise SizeError(f"{name} length {getattr(self, name).size} != precision length {n}")
        if not np.all(self.precision > 0):
            raise ParameterError("precision entries must be > 0")
        if not np.all(self.mixture > 0):
            raise ParameterError("mixture entries must be > 0")

    @property
    def jumps(self) -> np.ndarray:
        return self.jump_size * self.jump_ind

    def __len__(self) -> int:
        return int(self.precision.size)


@dataclass
class LatentSummary:
    """Per-time-step posterior summaries accumulated over retained draws.

    var_* columns summarize 1/lambda (variance scale), sd_* columns
    lambda**-0.5.  Interval columns are numpy's linear 2.5%/97.5% quantiles
    of every float32 variance-scale draw of one chain.  prob_jump is the
    mean over draws of P(N_t = 1) given the draw's mu, paths and jump
    parameters with the jump size integrated out (the Rao-Blackwell
    estimate); freq_jump is the share of draws that declare a jump.
    Summaries merged across chains average each chain's quantiles, which
    are not the quantiles of the pooled draws (ROADMAP item 1).
    """

    var_mean: np.ndarray
    var_lo95: np.ndarray
    var_hi95: np.ndarray
    sd_mean: np.ndarray
    sd_lo95: np.ndarray
    sd_hi95: np.ndarray
    mean_jump: np.ndarray
    prob_jump: np.ndarray
    freq_jump: np.ndarray
    mean_precision: np.ndarray
    mean_mixture: np.ndarray

    def __len__(self) -> int:
        return int(self.var_mean.size)


# The per-t array fields of LatentSummary, in file column order.
LATENT_FIELDS = tuple(f.name for f in fields(LatentSummary))

# Static parameters of the jump model; a no-jump fit has only the first.
STATIC_NAMES = ("mu", "jump_prob", "jump_mean", "jump_var")


@dataclass
class ChainOutput:
    """Thinned post-burn-in draws of one chain.

    draws holds the chain's rows of draws.csv, one array per column in file
    order: chain, iteration (the sweep index of each retained draw), the
    static parameters (mu alone for a no-jump fit, else STATIC_NAMES), then
    log_lik, the per-draw conditional log-likelihood.  Each column also
    reads as an attribute (chain.mu, chain.log_lik).

    latent_draws, kept only when the run requested them, holds the latent
    paths the same way: one (n_draws, n) array per LatentPath field, whose
    row i is the path at row i of draws (jump_ind int64, the rest float64).
    """

    draws: dict[str, np.ndarray]
    latent: LatentSummary
    latent_draws: Optional[dict[str, np.ndarray]] = None

    def __getattr__(self, name: str) -> np.ndarray:
        # Reached only for names that are not fields; reads __dict__ so a
        # half-built instance (copy, pickle) cannot recurse.
        draws = self.__dict__.get("draws", {})
        if name not in draws:
            raise AttributeError(f"{type(self).__name__} has no column {name!r}")
        return draws[name]

    @property
    def n_draws(self) -> int:
        return int(self.draws["mu"].size)


def prices_to_returns(prices, timestamps: Optional[Sequence[str]] = None) -> ReturnsSeries:
    """Convert a positive price series to log-returns x100%.

    returns[t] = 100 * (ln prices[t+1] - ln prices[t]); needs at least two
    prices.  When timestamps are given, each return keeps the label of the
    later of its two prices.
    """
    arr = _finite_1d("prices", prices, min_len=2)
    if not np.all(arr > 0):
        raise ParameterError("prices must all be > 0")
    rets = 100.0 * np.diff(np.log(arr))
    ts = None
    if timestamps is not None:
        ts = list(timestamps)
        if len(ts) != arr.size:
            raise SizeError(f"timestamps length {len(ts)} does not match prices length {arr.size}")
        ts = ts[1:]
    return ReturnsSeries(rets, ts)


def returns_to_prices(series, initial_price: float) -> np.ndarray:
    """Invert :func:`prices_to_returns` given the first price."""
    if not (np.isfinite(initial_price) and initial_price > 0):
        raise ParameterError(f"initial_price must be finite and > 0, got {initial_price}")
    rets = returns_array(series)
    prices = np.empty(rets.size + 1, dtype=float)
    prices[0] = initial_price
    prices[1:] = initial_price * np.exp(np.cumsum(rets) / 100.0)
    return prices
