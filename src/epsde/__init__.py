"""Posterior marginal inference for diffusions and jump processes.

The package approximates smoothed posterior marginals of partially
observed stochastic processes by expectation propagation in continuous
time, with an assumed-density filter as the single-sweep baseline and an
exact jump-process simulator for ground truth.  Building blocks beyond
the names exported here stay importable from their modules.
"""

from .errors import (
    ConfigError,
    DivergedMoments,
    DivergedPath,
    ImproperCavity,
    NegativeRate,
    NonPositiveDefinite,
    NotConverged,
    NumericalError,
    QuadratureUnderflow,
)
from .gaussian import GaussianMoments
from .processes import (
    MjpSpec,
    PolynomialMap,
    SdeSpec,
    cle_from_mjp,
    linear_sde,
    lotka_volterra,
)
from .likelihoods import (
    GaussianObs,
    LogNormalObs,
    Observation,
    QuadraticLoss,
    QuarticLoss,
)
from .filtering import MarginalPath, TimeGrid
from .simulate import euler_maruyama, gillespie, sample_observations
from .engine import EpConfig, EpResult, run_adf, run_ep
from .cli import (
    BenchmarkReport,
    ExperimentConfig,
    cmd_benchmark,
    cmd_infer,
    cmd_simulate,
    load_config,
    main,
    read_marginals,
    read_observations,
    read_trajectory,
    write_marginals,
    write_observations,
    write_trajectory,
)

__all__ = [
    "ConfigError", "DivergedMoments", "DivergedPath", "ImproperCavity",
    "NegativeRate", "NonPositiveDefinite", "NotConverged", "NumericalError",
    "QuadratureUnderflow",
    "MjpSpec", "PolynomialMap", "SdeSpec", "cle_from_mjp", "linear_sde",
    "lotka_volterra",
    "GaussianMoments",
    "GaussianObs", "LogNormalObs", "Observation", "QuadraticLoss",
    "QuarticLoss",
    "MarginalPath", "TimeGrid", "EpConfig", "EpResult", "run_adf", "run_ep",
    "euler_maruyama", "gillespie", "sample_observations",
    "BenchmarkReport", "ExperimentConfig", "cmd_benchmark", "cmd_infer",
    "cmd_simulate", "load_config", "main", "read_marginals",
    "read_observations", "read_trajectory", "write_marginals",
    "write_observations", "write_trajectory",
]
