"""Weighted sum rate modeling, optimization, and validation for a two-user
energy-harvesting cooperative NOMA downlink."""

__version__ = "0.1.0"

from .analysis import (
    ErgodicReport,
    ergodic_rate_u1,
    ergodic_rate_u2,
    ergodic_weighted_sum,
    high_snr_u1,
    high_snr_u2,
)
from .errors import (
    CnomaError,
    ConfigError,
    DivisionDegenerate,
    DomainError,
    InfeasibleChannel,
    NonFiniteSample,
    NumericalFailure,
    ToleranceNotMet,
)
from .model import (
    ChannelRealization,
    DesignPoint,
    RateTriple,
    SystemParams,
    db_to_linear,
    rates,
    sinr_mrc_at_u2,
    sinr_x1_at_u1,
    sinr_x2_at_u1,
)
from .montecarlo import (
    Ordering,
    SamplerConfig,
    estimate_ergodic,
    estimate_optimized,
)
from .optimizer import (
    AlphaGridSpec,
    OptimizationOutcome,
    SolverBranch,
    f_objective,
    optimal_rho_for_alpha,
    rho_tilde,
    solve_1d,
    solve_2d_exhaustive,
)
from .specfun import (
    EULER_GAMMA,
    QuadratureSpec,
    bessel_k0,
    bessel_k1,
    gamma_upper_0_scaled,
    integrate,
    integrate_semi_infinite,
)
