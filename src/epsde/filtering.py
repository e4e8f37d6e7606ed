"""Forward and backward marginal propagation on a fixed time grid.

The forward pass integrates the closed moment equations cell by cell
with classical fourth-order Runge-Kutta and applies site factors as
canonical-parameter updates at the nodes: the piecewise-constant
continuous site for cell k acts at the cell's right boundary with
weight dt, followed by the discrete site when the node carries an
observation.  Each update contributes its log-normalizer increment, so
with all sites zero the accumulated log normalizer is exactly zero.

The backward pass transports the smoothed marginal from t1 to t0.  The
smoothing equations need the forward marginal of the pure flow inside
each cell; it is reconstructed by cubic Hermite interpolation between
the node values using the flow derivatives at both ends, which keeps
the whole pass at the integrator's order.  Site factors never act on
the smoothed marginal directly: they are already absorbed in the
forward reference, and the smoothed path is continuous across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closure import closed_rhs
from .errors import DivergedMoments, NonPositiveDefinite
from .gaussian import (
    GaussianCanonical,
    GaussianMoments,
    RepairCounter,
    add_site,
    canonical_to_moments,
    log_partition,
    moments_to_canonical,
    repair_psd,
)
from .processes import SdeSpec


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform grid with n_steps cells on [t0, t1]."""

    t0: float
    t1: float
    n_steps: int

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be positive")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def snap_index(self, t: float) -> int:
        """Nearest node index; rejects times outside the horizon."""
        idx = int(round((t - self.t0) / self.dt))
        if idx < 0 or idx > self.n_steps:
            raise ValueError(f"time {t} lies outside [{self.t0}, {self.t1}]")
        return idx


@dataclass(eq=False)
class SiteSet:
    """Site parameters attached to a grid.

    Discrete sites live at the obs_idx nodes.  The continuous site field
    stores one (h, J) value per grid node; the field is piecewise
    constant on cells, cell k taking the value at its left node k, so
    the last node's value never enters the forward flow (it is kept so
    the field and the marginal path share indexing).
    """

    obs_idx: np.ndarray    # (n_obs,) strictly increasing node indices
    obs_h: np.ndarray      # (n_obs, d)
    obs_J: np.ndarray      # (n_obs, d, d)
    cont_h: np.ndarray     # (n_nodes, d)
    cont_J: np.ndarray     # (n_nodes, d, d)

    @classmethod
    def zeros(cls, grid: TimeGrid, dim: int, obs_idx) -> "SiteSet":
        obs_idx = np.asarray(obs_idx, dtype=np.int64)
        if len(obs_idx) and (np.diff(obs_idx) <= 0).any():
            raise ValueError("observation nodes must be strictly increasing")
        if len(obs_idx) and (obs_idx[0] < 0 or obs_idx[-1] > grid.n_steps):
            raise ValueError("observation node outside the grid")
        n = len(obs_idx)
        return cls(obs_idx,
                   np.zeros((n, dim)), np.zeros((n, dim, dim)),
                   np.zeros((grid.n_steps + 1, dim)),
                   np.zeros((grid.n_steps + 1, dim, dim)))

    def copy(self) -> "SiteSet":
        return SiteSet(self.obs_idx.copy(), self.obs_h.copy(),
                       self.obs_J.copy(), self.cont_h.copy(),
                       self.cont_J.copy())


@dataclass(frozen=True, eq=False)
class MarginalPath:
    """Gaussian marginals at every grid node."""

    times: np.ndarray
    means: np.ndarray    # (n_nodes, d)
    covs: np.ndarray     # (n_nodes, d, d)
    kind: str = "filtered"

    def node(self, k: int) -> GaussianMoments:
        return GaussianMoments(self.means[k], self.covs[k])


@dataclass(frozen=True, eq=False)
class ForwardPassResult:
    grid: TimeGrid
    flow_means: np.ndarray   # pure-flow arrival at each node
    flow_covs: np.ndarray
    pre_means: np.ndarray    # after the continuous site, before discrete
    pre_covs: np.ndarray
    post_means: np.ndarray   # after all sites at the node
    post_covs: np.ndarray
    log_norm: float          # accumulated site log-normalizer increments
    psd_repairs: int = 0     # eigenvalue clamps applied during the pass

    @property
    def filtered(self) -> MarginalPath:
        return MarginalPath(self.grid.times, self.post_means,
                            self.post_covs, kind="filtered")


def apply_canonical_site(mean: np.ndarray, cov: np.ndarray, h: np.ndarray,
                         J: np.ndarray, scale: float = 1.0
                         ) -> tuple[np.ndarray, np.ndarray, float]:
    """Multiply a Gaussian by exp(scale * (h.x - x.J x / 2)), renormalize.

    Returns the new (mean, cov) and the log-normalizer increment.
    """
    c = moments_to_canonical(GaussianMoments(mean, cov))
    lz0 = log_partition(c)
    c2 = add_site(c, GaussianCanonical(h, J), scale)
    lz1 = log_partition(c2)
    m2 = canonical_to_moments(c2)
    return m2.mean, m2.cov, lz1 - lz0


def _rk4(rhs, mean, cov, dt):
    k1m, k1c = rhs(mean, cov)
    k2m, k2c = rhs(mean + 0.5 * dt * k1m, cov + 0.5 * dt * k1c)
    k3m, k3c = rhs(mean + 0.5 * dt * k2m, cov + 0.5 * dt * k2c)
    k4m, k4c = rhs(mean + dt * k3m, cov + dt * k3c)
    return (mean + dt / 6.0 * (k1m + 2.0 * (k2m + k3m) + k4m),
            cov + dt / 6.0 * (k1c + 2.0 * (k2c + k3c) + k4c))


def _check_finite(mean, cov, k, threshold):
    # NaN compares false, so NaN and +-inf entries fail the finite bound
    if not (np.abs(mean).max() <= threshold
            and np.abs(cov).max() <= threshold):
        raise DivergedMoments(
            f"moments diverged at node {k}", time_index=k)


def forward_pass(spec: SdeSpec, sites: SiteSet, init: GaussianMoments,
                 grid: TimeGrid, *, eps_psd: float = 1e-8,
                 diverge_threshold: float = 1e12,
                 counter: RepairCounter | None = None) -> ForwardPassResult:
    """Propagate the initial marginal through flow and sites over the grid."""
    rhs = closed_rhs(spec)
    d = spec.dim
    N = grid.n_steps
    dt = grid.dt
    if counter is None:
        counter = RepairCounter()
    repairs_before = counter.count
    obs_slot = {int(i): k for k, i in enumerate(sites.obs_idx)}

    flow_m = np.empty((N + 1, d))
    flow_c = np.empty((N + 1, d, d))
    pre_m = np.empty((N + 1, d))
    pre_c = np.empty((N + 1, d, d))
    post_m = np.empty((N + 1, d))
    post_c = np.empty((N + 1, d, d))

    log_norm = 0.0
    mean = np.asarray(init.mean, dtype=float).copy()
    cov = np.asarray(init.cov, dtype=float).copy()

    def place(k, mean, cov):
        nonlocal log_norm
        flow_m[k], flow_c[k] = mean, cov
        kc = k - 1   # continuous site of the cell ending here
        if k > 0 and (sites.cont_h[kc].any() or sites.cont_J[kc].any()):
            try:
                mean, cov, dlz = apply_canonical_site(
                    mean, cov, sites.cont_h[kc], sites.cont_J[kc], dt)
            except NonPositiveDefinite as err:
                err.time_index = k
                raise
            log_norm += dlz
        pre_m[k], pre_c[k] = mean, cov
        if k in obs_slot:
            s = obs_slot[k]
            try:
                mean, cov, dlz = apply_canonical_site(
                    mean, cov, sites.obs_h[s], sites.obs_J[s])
            except NonPositiveDefinite as err:
                err.time_index = k
                raise
            log_norm += dlz
        post_m[k], post_c[k] = mean, cov
        _check_finite(mean, cov, k, diverge_threshold)
        return mean, cov

    mean, cov = place(0, mean, cov)
    for k in range(N):
        mean, cov = _rk4(rhs.forward, mean, cov, dt)
        mean, cov = repair_psd(mean, cov, eps_psd, counter)
        mean, cov = place(k + 1, mean, cov)

    return ForwardPassResult(grid, flow_m, flow_c, pre_m, pre_c,
                             post_m, post_c, log_norm,
                             counter.count - repairs_before)


def backward_pass(spec: SdeSpec, fwd: ForwardPassResult,
                  grid: TimeGrid | None = None, *,
                  eps_psd: float = 1e-8, diverge_threshold: float = 1e12,
                  counter: RepairCounter | None = None) -> MarginalPath:
    """Integrate the smoothing equations backward against a forward pass.

    The grid defaults to the one the forward pass ran on.
    """
    rhs = closed_rhs(spec)
    grid = fwd.grid if grid is None else grid
    N = grid.n_steps
    dt = grid.dt
    d = fwd.post_means.shape[1]

    # pure-flow reference inside cell k runs from post[k] to flow[k+1];
    # cubic Hermite in the node values and flow derivatives gives the
    # midpoint needed by the Runge-Kutta stages
    p0m, p0c = fwd.post_means[:-1], fwd.post_covs[:-1]
    p1m, p1c = fwd.flow_means[1:], fwd.flow_covs[1:]
    d0m, d0c = rhs.forward_batch(p0m, p0c)
    d1m, d1c = rhs.forward_batch(p1m, p1c)
    mid_m = 0.5 * (p0m + p1m) + dt * (d0m - d1m) / 8.0
    mid_c = 0.5 * (p0c + p1c) + dt * (d0c - d1c) / 8.0

    try:
        P_left = np.linalg.inv(p0c)
        P_mid = np.linalg.inv(mid_c)
        P_right = np.linalg.inv(p1c)
    except np.linalg.LinAlgError:
        raise NonPositiveDefinite("forward reference covariance is singular")

    # The backward gain scales with |E[b]| / |C_fw|, so cells whose
    # forward covariance collapses (near-exact observations) get too
    # stiff for one explicit step; those cells are split.  When the
    # covariance is small the forward covariance derivative is the
    # diffusion itself, which makes |dC_fw| a usable gain proxy.
    b_norms = np.maximum(np.linalg.norm(d0c, axis=(1, 2)),
                         np.linalg.norm(d1c, axis=(1, 2)))
    pin_norms = np.maximum(np.linalg.norm(P_left, axis=(1, 2)),
                           np.maximum(np.linalg.norm(P_mid, axis=(1, 2)),
                                      np.linalg.norm(P_right, axis=(1, 2))))
    n_subs = np.clip(np.ceil(dt * b_norms * pin_norms / 0.5),
                     1, 512).astype(np.int64)

    def hermite_ref(k: int, s: float) -> tuple[np.ndarray, np.ndarray]:
        s2, s3 = s * s, s * s * s
        h00, h01 = 2 * s3 - 3 * s2 + 1, -2 * s3 + 3 * s2
        h10, h11 = s3 - 2 * s2 + s, s3 - s2
        return (h00 * p0m[k] + h01 * p1m[k]
                + dt * (h10 * d0m[k] + h11 * d1m[k]),
                h00 * p0c[k] + h01 * p1c[k]
                + dt * (h10 * d0c[k] + h11 * d1c[k]))

    s_means = np.empty((N + 1, d))
    s_covs = np.empty((N + 1, d, d))
    mean = fwd.post_means[N].copy()
    cov = fwd.post_covs[N].copy()
    s_means[N], s_covs[N] = mean, cov

    for k in range(N - 1, -1, -1):
        n_sub = n_subs[k]
        if n_sub == 1:
            stages = [(p1m[k], P_right[k]), (mid_m[k], P_mid[k]),
                      (p0m[k], P_left[k])]
            h = -dt
            mean, cov = _rk4_stages(rhs, mean, cov, h, stages)
            mean, cov = repair_psd(mean, cov, eps_psd, counter)
        else:
            h = -dt / n_sub
            for j in range(n_sub - 1, -1, -1):
                pts = []
                for s in ((j + 1) / n_sub, (j + 0.5) / n_sub, j / n_sub):
                    rm, rc = hermite_ref(k, s)
                    try:
                        pts.append((rm, np.linalg.inv(rc)))
                    except np.linalg.LinAlgError:
                        raise NonPositiveDefinite(
                            "forward reference covariance is singular",
                            time_index=k)
                mean, cov = _rk4_stages(rhs, mean, cov, h, pts)
                mean, cov = repair_psd(mean, cov, eps_psd, counter)
        _check_finite(mean, cov, k, diverge_threshold)
        s_means[k], s_covs[k] = mean, cov

    return MarginalPath(grid.times, s_means, s_covs, kind="smoothed")


def _rk4_stages(rhs, mean, cov, h, refs):
    """One backward Runge-Kutta step; refs = [(m, C^-1)] at t+h, mid, t."""
    (m1, P1), (m2, P2), (m3, P3) = refs
    k1m, k1c = rhs.smoothing(mean, cov, m1, P1)
    k2m, k2c = rhs.smoothing(mean + 0.5 * h * k1m, cov + 0.5 * h * k1c,
                             m2, P2)
    k3m, k3c = rhs.smoothing(mean + 0.5 * h * k2m, cov + 0.5 * h * k2c,
                             m2, P2)
    k4m, k4c = rhs.smoothing(mean + h * k3m, cov + h * k3c, m3, P3)
    return (mean + h / 6.0 * (k1m + 2.0 * (k2m + k3m) + k4m),
            cov + h / 6.0 * (k1c + 2.0 * (k2c + k3c) + k4c))
