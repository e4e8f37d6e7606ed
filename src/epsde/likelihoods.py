"""Observation models, continuous losses, and tilted moment matching.

Discrete-time observations enter inference only through moments of the
tilted density p(y | x) exp(eta . f(x)).  For the Gaussian model the
update is conjugate and exact; for the log-normal model moments are
computed by tensor-product Gauss-Hermite quadrature over the cavity,
whitened through its Cholesky factor.

Continuous-time losses U(x, t) enter through their Gaussian expectation
and through the site that matches the gradient of <U> with respect to
the mean parameters (E[x], E[-x x^T / 2]).  For the quadratic loss this
site is exactly conjugate; for the quartic loss it follows from

    <a (x - b)^4> = a ((m-b)^4 + 6 (m-b)^2 V + 3 V^2),  V = var(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ImproperCavity, NonPositiveDefinite, QuadratureUnderflow
from .gaussian import (
    LOG_2PI,
    GaussianCanonical,
    GaussianMoments,
    RepairCounter,
    _chol,
    add_site,
    canonical_to_moments,
    finite_array,
    log_partition,
    repair_psd,
    symmetric_pd,
)


@dataclass(frozen=True, eq=False)
class Observation:
    """A vector-valued observation at one time point."""

    time: float
    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "value",
                           np.atleast_1d(np.asarray(self.value, dtype=float)))


@dataclass(frozen=True, eq=False)
class GaussianObs:
    """y = x + noise with noise ~ N(0, R), R symmetric positive definite
    (a number stands for a 1x1 matrix)."""

    R: np.ndarray

    def __post_init__(self):
        R = finite_array(self.R, "R")
        R = R.reshape(1, 1) if R.ndim == 0 else R
        if not symmetric_pd(R):
            raise ValueError("R: must be a symmetric positive definite "
                             "matrix")
        object.__setattr__(self, "R", R)


@dataclass(frozen=True, eq=False)
class LogNormalObs:
    """Componentwise log-normal observation of a positive state.

    With the default "mean_variance" parameterization the log-normal for
    component x is chosen so that E[y | x] = x and Var[y | x] = variance:

        s2 = log(1 + variance / x^2),   location = log x - s2 / 2.

    The "multiplicative" alternative is y = x exp(eps), eps ~ N(0, variance).
    Both densities are zero for x <= 0.  The variance must be finite and
    positive.
    """

    variance: float
    parameterization: str = "mean_variance"

    def __post_init__(self):
        variance = float(finite_array(self.variance, "variance", ()))
        if variance <= 0:
            raise ValueError("variance: must be positive")
        if self.parameterization not in ("mean_variance", "multiplicative"):
            raise ValueError("parameterization: unknown parameterization "
                             f"{self.parameterization!r}")
        object.__setattr__(self, "variance", variance)


@dataclass(frozen=True, eq=False)
class QuadraticLoss:
    """U(x) = x . A x / 2 - c . x, active at all times; A is a symmetric
    d x d matrix for a d-vector c."""

    A: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = finite_array(self.A, "A")
        c = finite_array(self.c, "c")
        if c.ndim != 1:
            raise ValueError("c: expected a vector")
        if A.shape != (len(c), len(c)) or not np.array_equal(A, A.T):
            raise ValueError(f"A: expected a symmetric {len(c)}x{len(c)} "
                             "matrix")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True, eq=False)
class QuarticLoss:
    """U(x, t) = sum_i a_i (x_i - b_i)^4, each term inside its time window."""

    weight: np.ndarray    # a_i >= 0 per dimension
    center: np.ndarray    # b_i per dimension
    window: np.ndarray    # (d, 2) inclusive [t_lo, t_hi] per dimension

    def __post_init__(self):
        w = np.atleast_1d(finite_array(self.weight, "weight"))
        c = np.atleast_1d(finite_array(self.center, "center"))
        win = finite_array(self.window, "window")
        if w.ndim != 1 or (w < 0).any():
            raise ValueError("weight: expected non-negative numbers")
        if c.shape != w.shape:
            raise ValueError(f"center: expected length {len(w)}")
        if win.size != 2 * len(w):
            raise ValueError(f"window: expected {len(w)} [t_lo, t_hi] pairs")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "window", win.reshape(len(w), 2))

    def active(self, t) -> np.ndarray:
        """Per-dimension window flags at time t, (d,), or at times t (n,)
        as rows, (n, d)."""
        t = np.asarray(t, dtype=float)[..., None]
        return (self.window[:, 0] <= t) & (t <= self.window[:, 1])


# ---------------------------------------------------------------------------
# log-normal density


def log_normal_logpdf(y: np.ndarray, x: np.ndarray, model: LogNormalObs
                      ) -> np.ndarray:
    """Componentwise log-density summed over dimensions.

    x may be a batch (..., d); returns (...,) with -inf wherever any
    state component is non-positive.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    valid = np.all(x > 0.0, axis=-1)
    xs = np.where(x > 0.0, x, 1.0)
    if model.parameterization == "mean_variance":
        s2 = np.log1p(model.variance / xs ** 2)
        loc = np.log(xs) - 0.5 * s2
    else:
        s2 = np.full_like(xs, model.variance)
        loc = np.log(xs)
    z = np.log(y) - loc
    comp = -np.log(y) - 0.5 * np.log(s2) - 0.5 * LOG_2PI - 0.5 * z ** 2 / s2
    out = comp.sum(axis=-1)
    return np.where(valid, out, -np.inf)


# ---------------------------------------------------------------------------
# tilted moments


@lru_cache(maxsize=None)
def _gh_nodes(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Hermite rule for E_{N(0,I)}[g], in log weights."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=-1) * np.sqrt(2.0)
    logw_1d = np.log(weights) - 0.5 * np.log(np.pi)
    wgrids = np.meshgrid(*([logw_1d] * dim), indexing="ij")
    logw = sum(w.ravel() for w in wgrids)
    return z, logw


def tilted_moments(model, y, cavity: GaussianCanonical, *,
                   quad_order: int = 32,
                   counter: RepairCounter | None = None
                   ) -> tuple[GaussianMoments, float]:
    """Moments and log-partition of p(y | x) exp(cavity . f(x)).

    Returns the matched Gaussian and log of the tilted normalizer
    log int p(y | x) exp(cavity . f(x)) dx.  Raises ImproperCavity when
    the cavity precision is not positive definite and
    QuadratureUnderflow when the likelihood vanishes at every node.
    y may be a plain vector or an Observation.
    """
    if isinstance(y, Observation):
        y = y.value
    y = np.atleast_1d(np.asarray(y, dtype=float))
    try:
        cavity_m = canonical_to_moments(cavity)
    except NonPositiveDefinite:
        raise ImproperCavity(
            "cavity precision is not positive definite") from None

    if isinstance(model, GaussianObs):
        R = model.R
        LR = _chol(R, "observation noise")
        Rinv_y = np.linalg.solve(R, y)
        LRinv = np.linalg.inv(LR)
        Rinv = LRinv.T @ LRinv
        post = add_site(cavity, GaussianCanonical(Rinv_y, Rinv))
        moments = canonical_to_moments(post)
        logdet_R = 2.0 * float(np.sum(np.log(np.diag(LR))))
        log_z = (log_partition(post)
                 - 0.5 * float(y @ Rinv_y)
                 - 0.5 * logdet_R - 0.5 * len(y) * LOG_2PI)
        return moments, log_z

    if isinstance(model, LogNormalObs):
        d = cavity.dim
        L = _chol(cavity_m.cov, "cavity covariance")
        z, logw = _gh_nodes(quad_order, d)
        x = cavity_m.mean + z @ L.T
        a = logw + log_normal_logpdf(y, x, model)
        m = float(np.max(a))
        if not np.isfinite(m):
            raise QuadratureUnderflow(
                "likelihood vanished at every quadrature node")
        w = np.exp(a - m)
        s0 = float(w.sum())
        mean_t = (w @ x) / s0
        diffs = x - mean_t
        cov_t = (w[:, None] * diffs).T @ diffs / s0
        mean_t, cov_t = repair_psd(mean_t, cov_t, counter=counter)
        log_z = log_partition(cavity) + m + float(np.log(s0))
        return GaussianMoments(mean_t, cov_t), log_z

    raise TypeError(f"unknown observation model {type(model).__name__}")


# ---------------------------------------------------------------------------
# continuous losses


def _moment_arrays(m) -> tuple[np.ndarray, np.ndarray]:
    """(mean, cov) of one GaussianMoments, or the stacked means (n, d)
    and covs (n, d, d) of a MarginalPath."""
    if isinstance(m, GaussianMoments):
        return m.mean, m.cov
    return m.means, m.covs


def expected_loss(loss, m, t):
    """<U(x, t)> under N(mean, cov); zero when loss is None.

    m is one GaussianMoments at time t, giving a float, or a MarginalPath
    with its node times t, giving one value per node.
    """
    mean, cov = _moment_arrays(m)
    if loss is None:
        u = np.zeros(mean.shape[:-1])
    elif isinstance(loss, QuadraticLoss):
        # E[x x^T] = cov + mean mean^T, and <x.A x> = tr(A E[x x^T])
        second = (np.swapaxes(cov, -1, -2)
                  + mean[..., :, None] * mean[..., None, :])
        u = (0.5 * (loss.A * second).sum(axis=(-2, -1))
             - (loss.c * mean).sum(axis=-1))
    elif isinstance(loss, QuarticLoss):
        s = mean - loss.center
        v = cov.diagonal(0, -2, -1)
        per_dim = loss.weight * (s ** 4 + 6.0 * s ** 2 * v + 3.0 * v ** 2)
        u = np.where(loss.active(t), per_dim, 0.0).sum(axis=-1)
    else:
        raise TypeError(f"unknown loss {type(loss).__name__}")
    return float(u) if np.ndim(u) == 0 else u


def continuous_site_update(loss, m, t):
    """Site lambda_t = -d<U>/dmu at the current marginal's mean parameters.

    With mu = (E[x], E[-x x^T / 2]) and G = d<U>/dcov, the chain rule
    gives lambda_J = 2 G and lambda_h = -d<U>/dmean + 2 G mean.  For the
    quadratic loss this is the constant conjugate site (c, A).  m is one
    GaussianMoments at time t, giving a GaussianCanonical, or a
    MarginalPath with its node times t, giving the stacked (h, J) arrays.
    """
    mean, cov = _moment_arrays(m)
    if loss is None:
        h, J = np.zeros(mean.shape), np.zeros(cov.shape)
    elif isinstance(loss, QuadraticLoss):
        h = np.broadcast_to(loss.c, mean.shape).copy()
        J = np.broadcast_to(loss.A, cov.shape).copy()
    elif isinstance(loss, QuarticLoss):
        active = loss.active(t)
        s = mean - loss.center
        v = cov.diagonal(0, -2, -1)
        grad_mean = loss.weight * (4.0 * s ** 3 + 12.0 * s * v)
        g_diag = loss.weight * (6.0 * s ** 2 + 6.0 * v)
        grad_mean = np.where(active, grad_mean, 0.0)
        g_diag = np.where(active, g_diag, 0.0)
        d = mean.shape[-1]
        J = np.zeros(cov.shape)
        J.reshape(cov.shape[:-2] + (d * d,))[..., ::d + 1] = 2.0 * g_diag
        h = -grad_mean + 2.0 * g_diag * mean
    else:
        raise TypeError(f"unknown loss {type(loss).__name__}")
    return GaussianCanonical(h, J) if mean.ndim == 1 else (h, J)
