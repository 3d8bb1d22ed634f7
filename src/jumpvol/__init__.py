"""Stochastic volatility with jumps in returns.

Gibbs-sampled Bayesian inference for a Student-t stochastic volatility
model whose return equation carries sparse additive jumps.  All full
conditionals are closed form: the precision path is drawn exactly in one
block by forward filtering / backward sampling, so no accept-reject steps
are needed anywhere.  Includes a synthetic-data generator for recovery
studies, BIC/DIC model comparison against the no-jump reduction, and a CLI.
"""

from .conditionals import (
    apply_jump_threshold,
    jump_indicator_probs,
    sample_jump_mean,
    sample_jump_prob,
    sample_jump_sizes,
    sample_jump_var,
    sample_mixture_path,
    sample_mu,
)
from .diagnostics import (
    DiagnosticsReport,
    ParamSummary,
    build_report,
    compute_bic,
    compute_dic,
    conditional_log_lik,
    coverage,
    ess,
    psrf,
)
from .errors import (
    DataFormatError,
    JumpvolError,
    NumericalError,
    ParameterError,
    SizeError,
)
from .gibbs import RunSpec, default_init, run_chain, run_multi
from .model import (
    ChainOutput,
    LatentPath,
    LatentSummary,
    ModelConfig,
    Priors,
    ReturnsSeries,
    StaticParams,
    default_config,
    prices_to_returns,
    returns_to_prices,
)
from .rng import (
    RngStream,
    log_normal_density,
    sample_bernoulli,
    sample_beta,
    sample_gamma,
    sample_inverse_gamma,
    sample_normal,
)
from .synthetic import SimConfig, SimOutput, simulate
from .volatility import FilterState, backward_sample, forward_filter

__version__ = "0.1.0"
