"""Multivariate Gaussian exponential family in moment and canonical form.

Sufficient statistics are fixed to f(x) = (x, -x x^T / 2), so a canonical
parameter pair (h, J) has unnormalized log-density

    h . x - x . J x / 2,

i.e. J = Sigma^-1 and h = Sigma^-1 mu for a proper member.  Site
parameters live in the same coordinates but are differences of canonical
parameters, so their J part may be indefinite; only parameters that are
claimed to represent a distribution need J (or cov) positive definite.

All conversions go through Cholesky factorizations and raise
:class:`NonPositiveDefinite` instead of returning NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonPositiveDefinite

LOG_2PI = float(np.log(2.0 * np.pi))


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {v.shape}")
    return v


def _as_square(x, dim: int, name: str) -> np.ndarray:
    m = np.asarray(x, dtype=float)
    if m.shape != (dim, dim):
        raise ValueError(f"{name} must have shape ({dim}, {dim}), got {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class GaussianMoments:
    """Mean/covariance parameterization of a Gaussian. Treat as immutable."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _as_vector(self.mean, "mean")
        cov = _as_square(self.cov, mean.shape[0], "cov")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def validate(self, *, sym_tol: float = 1e-12) -> None:
        """Check symmetry and positive definiteness, raising on failure."""
        scale = max(1.0, float(np.max(np.abs(self.cov))))
        asym = float(np.max(np.abs(self.cov - self.cov.T)))
        if asym > sym_tol * scale:
            raise ValueError(f"covariance asymmetric: max |C - C^T| = {asym:g}")
        _chol(self.cov, "covariance")


@dataclass(frozen=True, eq=False)
class GaussianCanonical:
    """Canonical pair (h, J). Also used for sites, where J may be indefinite."""

    h: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        h = _as_vector(self.h, "h")
        J = _as_square(self.J, h.shape[0], "J")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", J)

    @property
    def dim(self) -> int:
        return self.h.shape[0]


class RepairCounter:
    """Mutable tally of eigenvalue clamps applied during a computation."""

    def __init__(self):
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n


def _chol(mat: np.ndarray, what: str, time_index: int | None = None) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NonPositiveDefinite(what, time_index) from None


def moments_to_canonical(m: GaussianMoments) -> GaussianCanonical:
    """Invert the covariance: J = cov^-1, h = J mean."""
    L = _chol(m.cov, "covariance")
    Linv = np.linalg.inv(L)
    J = Linv.T @ Linv
    J = 0.5 * (J + J.T)
    return GaussianCanonical(J @ m.mean, J)


def canonical_to_moments(c: GaussianCanonical) -> GaussianMoments:
    """Invert the precision: cov = J^-1, mean = J^-1 h."""
    L = _chol(c.J, "precision")
    Linv = np.linalg.inv(L)
    cov = Linv.T @ Linv
    cov = 0.5 * (cov + cov.T)
    return GaussianMoments(cov @ c.h, cov)


def log_partition(c: GaussianCanonical) -> float:
    """log integral of exp(h.x - x.Jx/2) over R^d.

    Equals h.J^-1 h / 2 - log det J / 2 + d log(2 pi) / 2.  The gradient
    with respect to (h, J) is the mean parameter (mean, -(cov + mean mean^T)/2),
    which is what makes moment matching a gradient identity.
    """
    L = _chol(c.J, "precision")
    z = np.linalg.solve(L, c.h)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return 0.5 * float(z @ z) - 0.5 * logdet + 0.5 * c.dim * LOG_2PI


def add_site(c: GaussianCanonical, site: GaussianCanonical,
             scale: float = 1.0) -> GaussianCanonical:
    """Return (h + scale * h_site, J + scale * J_site) without validation."""
    return GaussianCanonical(c.h + scale * site.h, c.J + scale * site.J)


def mean_params(m: GaussianMoments) -> tuple[np.ndarray, np.ndarray]:
    """Expected sufficient statistics (E[x], E[-x x^T / 2])."""
    second = m.cov + np.outer(m.mean, m.mean)
    return m.mean.copy(), -0.5 * second


@lru_cache(maxsize=None)
def _identity(d: int) -> np.ndarray:
    return np.identity(d)


def repair_psd(mean: np.ndarray, cov: np.ndarray, eps_psd: float = 1e-8,
               counter: RepairCounter | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Clamp covariance eigenvalues below eps_psd, counting the repair.

    Input is symmetrized first; the mean passes through untouched.  Used
    after integration steps and quadrature moment matching, where small
    eigenvalue undershoots are roundoff-level artifacts rather than
    genuine model failures.  A Cholesky factorization of cov - eps_psd I
    accepts the common healthy case without an eigendecomposition; it
    does not fail on NaN entries, which pass through uncounted for the
    callers' divergence guards to reject.
    """
    cov = 0.5 * (cov + cov.T)
    try:
        np.linalg.cholesky(cov - eps_psd * _identity(len(cov)))
        return mean, cov
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(cov)
    if w[0] >= eps_psd:
        return mean, cov
    w = np.maximum(w, eps_psd)
    if counter is not None:
        counter.add()
    cov = (V * w) @ V.T
    return mean, 0.5 * (cov + cov.T)
