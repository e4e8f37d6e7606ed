"""Exception types shared across the package.

Numerical failures derive from :class:`NumericalError` so callers can
distinguish "the solver broke down" (exit code 3 in the CLI) from
configuration mistakes (:class:`ConfigError`, exit code 2).
"""

from __future__ import annotations


class NumericalError(RuntimeError):
    """Base class for failures of the numerical machinery."""


class GridError(NumericalError):
    """A failure located at grid node ``time_index`` of a filtering or
    smoothing pass and, once the fixed-point loop attaches it, at
    iteration ``sweep``; the message names each that is set."""

    def __init__(self, msg: str, time_index: int | None = None):
        super().__init__(msg)
        self.msg = msg
        self.time_index = time_index
        self.sweep: int | None = None

    def __str__(self) -> str:
        where = [f"{name} {value}" for name, value in
                 (("grid node", self.time_index), ("sweep", self.sweep))
                 if value is not None]
        return self.msg + (f" ({', '.join(where)})" if where else "")


class NonPositiveDefinite(GridError):
    """A matrix required to be positive definite was not.

    Raised by Cholesky-based conversions instead of silently producing
    NaNs.
    """

    def __init__(self, what: str, time_index: int | None = None):
        super().__init__(f"matrix not positive definite: {what}", time_index)


class DivergedMoments(GridError):
    """Moment integration left the trust region (an entry above
    filtering.DIVERGE_THRESHOLD, or not finite)."""


class ImproperCavity(NumericalError):
    """A cavity distribution had non-positive-definite precision."""


class QuadratureUnderflow(NumericalError):
    """Every quadrature node carried zero likelihood mass."""


class NegativeRate(NumericalError):
    """A jump-process rate function evaluated to a negative value."""


class DivergedPath(NumericalError):
    """A simulated trajectory exploded or exceeded the jump budget."""


class NotConverged(RuntimeError):
    """Fixed-point iteration stopped at max_sweeps without converging.

    Only raised by callers that demand convergence; the solver itself
    returns the final state with ``converged=False``.
    """


class ConfigError(ValueError):
    """A configuration file or CLI argument is invalid."""
