"""Forward and backward marginal propagation on a fixed time grid.

Both passes integrate each node's moments as one packed vector
y = (mean, cov upper triangle), the layout the compiled closure
right-hand sides take and return (closure.pack/unpack).  A Runge-Kutta
stage is one array update, the divergence guard one reduction, and the
covariance is unpacked only where a factorization needs it: site
updates, the PSD guard and the forward reference precisions.  Stored
rows are unpacked once per pass.

The forward pass integrates the closed moment equations cell by cell
with classical fourth-order Runge-Kutta and applies site factors as
canonical-parameter updates at the nodes: the piecewise-constant
continuous site for cell k acts at the cell's right boundary with
weight dt, followed by the discrete site when the node carries an
observation.  Each update contributes its log-normalizer increment, so
with all sites zero the accumulated log normalizer is exactly zero.  A
site hook may set each node's sites just before they act; assumed
density filtering is this pass with a hook that moment-matches them.

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

from .closure import closed_rhs, pack, smoothing_reference, unpack
from .errors import DivergedMoments, NonPositiveDefinite
from .gaussian import GaussianMoments, RepairCounter, _chol, repair_psd
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
                         J: np.ndarray, scale: float = 1.0,
                         time_index: int | None = None
                         ) -> tuple[np.ndarray, np.ndarray, float]:
    """Multiply a Gaussian by exp(scale * (h.x - x.J x / 2)), renormalize.

    Returns the new (mean, cov) and the log-normalizer increment
    log Z(h1, J1) - log Z(h0, J0), where (h0, J0) = (cov^-1 mean, cov^-1)
    and (h1, J1) adds the scaled site.  With log Z(h, J) = h.J^-1 h / 2 -
    log det J / 2 + const, it needs only the Cholesky factors of cov and
    of J1.  Raises NonPositiveDefinite, located at time_index, when either
    is not positive definite.
    """
    L0 = _chol(cov, "covariance", time_index)
    L0inv = np.linalg.inv(L0)
    J0 = L0inv.T @ L0inv
    h0 = J0 @ mean
    h1 = h0 + scale * h
    L1 = _chol(J0 + scale * J, "precision", time_index)
    L1inv = np.linalg.inv(L1)
    cov1 = L1inv.T @ L1inv
    cov1 = 0.5 * (cov1 + cov1.T)
    mean1 = cov1 @ h1
    # log det J0 = -2 sum log diag L0 and log det J1 = 2 sum log diag L1
    dlz = (0.5 * float(h1 @ mean1 - h0 @ mean)
           - float(np.log(L0.diagonal() * L1.diagonal()).sum()))
    return mean1, cov1, dlz


def _rk4(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def _rk4_stages(rhs, y, h, refs):
    """One backward Runge-Kutta step; refs = forward reference rows z
    (closure.smoothing_reference) at t+h, the midpoint and t."""
    z1, z2, z3 = refs
    k1 = rhs.smoothing(y, z1)
    k2 = rhs.smoothing(y + 0.5 * h * k1, z2)
    k3 = rhs.smoothing(y + 0.5 * h * k2, z2)
    k4 = rhs.smoothing(y + h * k3, z3)
    return y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def _repair(y, d, eps_psd, counter):
    """The PSD guard on a packed state.  An unpacked covariance is exactly
    symmetric, so unless the guard clamped (and counted), it returned
    the state unchanged."""
    repairs = counter.count
    mean, cov = repair_psd(*unpack(y, d), eps_psd, counter)
    return y if counter.count == repairs else pack(mean, cov)


def _check_finite(y, k, threshold):
    # NaN compares false, so NaN and +-inf entries fail the finite bound
    if not np.abs(y).max() <= threshold:
        raise DivergedMoments(
            f"moments diverged at node {k}", time_index=k)


def forward_pass(spec: SdeSpec, sites: SiteSet, init: GaussianMoments,
                 grid: TimeGrid, *, eps_psd: float = 1e-8,
                 diverge_threshold: float = 1e12,
                 counter: RepairCounter | None = None,
                 site_hook=None) -> ForwardPassResult:
    """Propagate the initial marginal through flow and sites over the grid.

    site_hook(k, mean, cov), when given, is called at every node k with
    the marginal after the continuous site and before the discrete one.
    It may set the node's discrete site and the continuous site of cell
    k (sites.cont_h[k], sites.cont_J[k]), which the pass then applies.
    """
    rhs = closed_rhs(spec)
    d = spec.dim
    N = grid.n_steps
    dt = grid.dt
    if counter is None:
        counter = RepairCounter()
    repairs_before = counter.count
    obs_slot = {int(i): k for k, i in enumerate(sites.obs_idx)}
    cont_on = (sites.cont_h.any(axis=1)
               | sites.cont_J.any(axis=(1, 2))).tolist()
    y = pack(init.mean, init.cov)
    flow, pre, post = np.empty((3, N + 1, len(y)))
    log_norm = 0.0

    def site(y, h, J, scale, k):
        nonlocal log_norm
        mean, cov, dlz = apply_canonical_site(*unpack(y, d), h, J, scale,
                                              time_index=k)
        log_norm += dlz
        return pack(mean, cov)

    for k in range(N + 1):
        if k > 0:
            y = _repair(_rk4(rhs.forward, y, dt), d, eps_psd, counter)
        flow[k] = y
        if k > 0 and cont_on[k - 1]:   # site of the cell ending here
            y = site(y, sites.cont_h[k - 1], sites.cont_J[k - 1], dt, k)
        pre[k] = y
        if site_hook is not None:
            site_hook(k, *unpack(y, d))
            cont_on[k] = bool(sites.cont_h[k].any() or sites.cont_J[k].any())
        s = obs_slot.get(k)
        if s is not None:
            y = site(y, sites.obs_h[s], sites.obs_J[s], 1.0, k)
        post[k] = y
        _check_finite(y, k, diverge_threshold)

    return ForwardPassResult(grid, *unpack(flow, d), *unpack(pre, d),
                             *unpack(post, d), log_norm,
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
    if counter is None:
        counter = RepairCounter()
    N = grid.n_steps
    dt = grid.dt
    d = fwd.post_means.shape[1]

    # pure-flow reference inside cell k runs from post[k] to flow[k+1];
    # cubic Hermite in the node values and flow derivatives gives the
    # midpoint needed by the Runge-Kutta stages
    y0 = pack(fwd.post_means[:-1], fwd.post_covs[:-1])
    y1 = pack(fwd.flow_means[1:], fwd.flow_covs[1:])
    dy0 = rhs.forward_batch(y0)
    dy1 = rhs.forward_batch(y1)
    mid = 0.5 * (y0 + y1) + dt * (dy0 - dy1) / 8.0

    # stage references of every cell at its right end, midpoint and left
    # end, in one batch
    ref_means, ref_covs = unpack(np.stack((y1, mid, y0)), d)
    try:
        ref_precs = np.linalg.inv(ref_covs)
    except np.linalg.LinAlgError:
        raise NonPositiveDefinite("forward reference covariance is singular")
    refs = smoothing_reference(ref_means, ref_precs).swapaxes(0, 1)

    # The backward gain scales with |E[b]| / |C_fw|, so cells whose
    # forward covariance collapses (near-exact observations) get too
    # stiff for one explicit step; those cells are split.  When the
    # covariance is small the forward covariance derivative is the
    # diffusion itself, which makes |dC_fw| a usable gain proxy.
    b_norms = np.linalg.norm(unpack(np.stack((dy0, dy1)), d)[1],
                             axis=(2, 3)).max(axis=0)
    pin_norms = np.linalg.norm(ref_precs, axis=(2, 3)).max(axis=0)
    n_subs = np.clip(np.ceil(dt * b_norms * pin_norms / 0.5),
                     1, 512).astype(np.int64).tolist()

    def hermite_refs(k: int, s: np.ndarray) -> np.ndarray:
        """Reference rows z of cell k at the cell fractions s."""
        s = s[:, None]
        s2, s3 = s * s, s * s * s
        h00, h01 = 2 * s3 - 3 * s2 + 1, -2 * s3 + 3 * s2
        h10, h11 = s3 - 2 * s2 + s, s3 - s2
        rm, rc = unpack(h00 * y0[k] + h01 * y1[k]
                        + dt * (h10 * dy0[k] + h11 * dy1[k]), d)
        try:
            prec = np.linalg.inv(rc)
        except np.linalg.LinAlgError:
            raise NonPositiveDefinite(
                "forward reference covariance is singular", time_index=k)
        return smoothing_reference(rm, prec)

    rows = np.empty((N + 1, y0.shape[1]))
    y = rows[N] = pack(fwd.post_means[N], fwd.post_covs[N])
    for k in range(N - 1, -1, -1):
        n_sub = n_subs[k]
        if n_sub == 1:
            y = _rk4_stages(rhs, y, -dt, refs[k])
            y = _repair(y, d, eps_psd, counter)
        else:
            h = -dt / n_sub
            for j in range(n_sub - 1, -1, -1):
                s = np.array([(j + 1) / n_sub, (j + 0.5) / n_sub, j / n_sub])
                y = _rk4_stages(rhs, y, h, hermite_refs(k, s))
                y = _repair(y, d, eps_psd, counter)
        _check_finite(y, k, diverge_threshold)
        rows[k] = y

    return MarginalPath(grid.times, *unpack(rows, d), kind="smoothed")
