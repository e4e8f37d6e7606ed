"""Posterior inference drivers: expectation propagation and assumed
density filtering.

Both methods approximate the posterior over latent paths by a Gaussian
process written as the prior diffusion tilted by site factors: one
canonical site per discrete observation and a piecewise-constant
canonical site field for the continuous loss.

run_ep iterates full parallel sweeps.  Each sweep runs one forward and
one backward pass at the current sites, reads the smoothed marginal at
every node, forms cavities for all sites from the same smoothed path,
moment-matches the tilted distributions, and applies the damped update
jointly.  The sweep loop stops when the largest applied parameter
change falls below the tolerance; a final forward/backward evaluation
at the fixed sites produces the returned marginals and the free-energy
estimate of the log evidence.

run_adf is one forward pass (filtering.forward_pass) with a site hook,
so ADF and EP run the same propagation kernel.  At each node the hook
sets the observation site that moves the marginal to the tilted one,
and the continuous site of the cell starting there from the filtered
moments.  With smoothing enabled a backward pass follows; the realized
sites make the result exactly one parallel EP step in the conjugate
case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergedMoments,
    ImproperCavity,
    NonPositiveDefinite,
    QuadratureUnderflow,
)
from .filtering import (
    MarginalPath,
    SiteSet,
    TimeGrid,
    backward_pass,
    forward_pass,
)
from .gaussian import (
    GaussianCanonical,
    GaussianMoments,
    RepairCounter,
    log_partition,
    moments_to_canonical,
)
# not called here; importable under these names because the benchmark's
# tracer (bench/tracer.py) wraps them in this module
from .filtering import apply_canonical_site  # noqa: F401
from .gaussian import repair_psd  # noqa: F401
from .likelihoods import (
    GaussianObs,
    LogNormalObs,
    Observation,
    QuadraticLoss,
    QuarticLoss,
    continuous_site_update,
    expected_loss,
    tilted_moments,
)
from .processes import SdeSpec


@dataclass(frozen=True)
class EpConfig:
    """Knobs for the sweep loop and the shared numerics.

    damping is the step size applied to every site update; tolerance is
    the convergence threshold on the largest applied parameter change;
    flat_init_scale is the precision of the flat base measure used to
    project likelihoods into initial sites.  init_mode "auto" warm
    starts conjugate factors only, "project" also moment matches
    non-conjugate factors against the flat base, and "zero" starts
    every site flat.
    """

    damping: float = 0.5
    tolerance: float = 0.01
    max_sweeps: int = 50
    flat_init_scale: float = 1e-6
    eps_psd: float = 1e-8
    quad_order: int = 32
    init_mode: str = "auto"
    diverge_threshold: float = 1e12

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.flat_init_scale <= 0.0:
            raise ValueError("flat_init_scale must be positive")
        if self.init_mode not in ("auto", "project", "zero"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        # NaN fails the comparison too
        if not 0.0 < self.diverge_threshold < np.inf:
            raise ValueError("diverge_threshold must be finite and positive")


@dataclass(eq=False)
class EpResult:
    """Outcome of an inference run.

    smoothed holds the marginals the method reports (for plain ADF that
    is the filtered path); converged is always checked against the
    applied site change, so a result with converged False is still a
    valid, fully evaluated state.
    """

    smoothed: MarginalPath
    filtered: MarginalPath
    sites: SiteSet
    log_evidence: float
    sweeps_run: int
    converged: bool
    max_site_delta_history: np.ndarray
    psd_repairs: int
    skipped_updates: int
    method: str


def _snap_observations(obs: list[Observation], grid: TimeGrid, dim: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Map observation times to grid nodes, one observation per node."""
    idx = np.empty(len(obs), dtype=np.int64)
    values = np.empty((len(obs), dim))
    for s, o in enumerate(obs):
        idx[s] = grid.snap_index(o.time)
        if o.value.shape != (dim,):
            raise ValueError(
                f"observation at t={o.time} has dimension {o.value.shape}, "
                f"expected ({dim},)")
        values[s] = o.value
    if len(idx) > 1 and (np.diff(idx) <= 0).any():
        raise ValueError("observations must map to distinct, increasing "
                         "grid nodes")
    return idx, values


# moment matching exp(-a s^4) against a flat measure: the matched
# variance is Gamma(3/4) / (Gamma(1/4) sqrt(a))
# A cavity that keeps almost none of the marginal curvature behaves
# like an improper one: the quadrature integrates over the huge implied
# covariance, meets the likelihood at a handful of isolated nodes, and
# returns noise that gets frozen into the site.  Healthy parallel
# sweeps on the jump-process benchmarks keep this eigenvalue ratio
# above 1/3, so a floor of a fifth only trips runaway sites.  Conjugate
# updates are exempt; they are exact for any proper cavity.
_CAVITY_EIG_FLOOR = 0.2


def _cavity_degenerate(cav_J: np.ndarray, marginal_J: np.ndarray) -> bool:
    return bool(np.linalg.eigvalsh(cav_J)[0]
                < _CAVITY_EIG_FLOOR * np.linalg.eigvalsh(marginal_J)[0])


_QUARTIC_PRECISION = math.gamma(0.25) / math.gamma(0.75)


def _init_sites(obs_model, values: np.ndarray, loss, grid: TimeGrid,
                dim: int, idx: np.ndarray, cfg: EpConfig) -> SiteSet:
    """Project each likelihood factor against a flat base measure.

    Conjugate factors get their exact canonical parameters.  Log-normal
    factors start at zero by default: their projection warm start (mode
    "project") moment matches each factor by quadrature over a
    deliberately flat Gaussian base that is then subtracted back out,
    but the strong initial sites destabilise sparse schedules, so the
    flat fallback is the default.  A factor whose projection fails
    starts at zero in every mode.
    """
    sites = SiteSet.zeros(grid, dim, idx)
    if cfg.init_mode == "zero":
        return sites
    if isinstance(obs_model, GaussianObs):
        r_inv = np.linalg.inv(obs_model.R)
        sites.obs_h[:] = values @ r_inv.T
        sites.obs_J[:] = r_inv
    elif isinstance(obs_model, LogNormalObs) and cfg.init_mode == "project":
        cov_cap = 1.0 / cfg.flat_init_scale
        for s, y in enumerate(values):
            # start wide against both the noise scale and the observed
            # magnitude, then refit the base to a flat multiple of the
            # matched moments so the quadrature resolves the factor's
            # bulk (the first pass can waste most nodes on x <= 0)
            mean = y.astype(float)
            base_cov = np.minimum(25.0 * obs_model.variance + y ** 2,
                                  cov_cap)
            for _ in range(3):
                base = moments_to_canonical(
                    GaussianMoments(mean, np.diag(base_cov)))
                try:
                    tilted, _ = tilted_moments(
                        obs_model, y, base, quad_order=cfg.quad_order,
                        eps_psd=cfg.eps_psd)
                except (ImproperCavity, QuadratureUnderflow):
                    break
                post = moments_to_canonical(tilted)
                sites.obs_h[s] = post.h - base.h
                sites.obs_J[s] = post.J - base.J
                mean = tilted.mean
                refit = np.minimum(25.0 * np.diag(tilted.cov), cov_cap)
                if np.all(refit > 0.2 * base_cov):
                    break
                base_cov = refit
    if isinstance(loss, QuadraticLoss):
        sites.cont_h[:] = loss.c
        sites.cont_J[:] = loss.A
    elif isinstance(loss, QuarticLoss):
        prec = _QUARTIC_PRECISION * np.sqrt(loss.weight)
        for k, t in enumerate(grid.times):
            gate = loss.active(t) & (loss.weight > 0.0)
            sites.cont_J[k][np.diag_indices(dim)] = np.where(gate, prec, 0.0)
            sites.cont_h[k] = np.where(gate, prec * loss.center, 0.0)
    return sites


def _site_field_dot_f(sites: SiteSet, means: np.ndarray, covs: np.ndarray
                      ) -> float:
    """Trapezoid of the site-field inner product with the sufficient
    statistics f = (x, -x x^T / 2), holding the field constant per cell."""
    lam_h = sites.cont_h[:-1]
    lam_J = sites.cont_J[:-1]

    def pair(m, c):
        return (np.einsum("kd,kd->k", lam_h, m)
                - 0.5 * (np.einsum("kij,kij->k", lam_J, c)
                         + np.einsum("ki,kij,kj->k", m, lam_J, m)))

    left = pair(means[:-1], covs[:-1])
    right = pair(means[1:], covs[1:])
    return 0.5 * float((left + right).sum())


def free_energy(fwd_log_norm: float, sites: SiteSet, smoothed: MarginalPath,
                tilted_log_partitions, grid: TimeGrid, loss) -> float:
    """Variational estimate of the log evidence.

    Combines the forward-pass log normalizer with the per-observation
    tilted corrections and subtracts the trapezoid integrals of the
    expected loss and of the site field against the smoothed moments.
    Raises NonPositiveDefinite when a smoothed node at an observation is
    degenerate, which signals an unconverged or diverging state.
    """
    total = float(fwd_log_norm)
    tilted = np.asarray(tilted_log_partitions, dtype=float)
    for s, k in enumerate(sites.obs_idx):
        nat = moments_to_canonical(smoothed.node(int(k)))
        total += tilted[s] - log_partition(nat)
    dt = grid.dt
    if loss is not None:
        u = expected_loss(loss, smoothed, grid.times)
        total -= dt * 0.5 * float((u[:-1] + u[1:]).sum())
    if sites.cont_h.any() or sites.cont_J.any():
        total -= dt * _site_field_dot_f(sites, smoothed.means, smoothed.covs)
    return total


def _final_log_partitions(obs_model, values, idx, sites, smoothed, cfg,
                          counter):
    """Tilted log partitions at the cavities of the current smoothed path.

    Returns None when any cavity is improper or underflows, in which
    case the free energy cannot be evaluated at this state.
    """
    quad_guard = not isinstance(obs_model, GaussianObs)
    tilted = np.empty(len(idx))
    for s, k in enumerate(idx):
        nat = moments_to_canonical(smoothed.node(int(k)))
        cavity = GaussianCanonical(nat.h - sites.obs_h[s],
                                   nat.J - sites.obs_J[s])
        if quad_guard and _cavity_degenerate(cavity.J, nat.J):
            return None
        try:
            _, tilted[s] = tilted_moments(
                obs_model, values[s], cavity, quad_order=cfg.quad_order,
                eps_psd=cfg.eps_psd, counter=counter)
        except (ImproperCavity, QuadratureUnderflow):
            return None
    return tilted


def run_ep(spec: SdeSpec, obs: list[Observation], obs_model, loss,
           init: GaussianMoments, grid: TimeGrid,
           cfg: EpConfig | None = None) -> EpResult:
    """Parallel expectation propagation over the whole grid.

    Never raises on non-convergence: the result carries converged=False
    and the per-sweep change history instead.  Numerical failures inside
    a sweep propagate with the sweep index attached.
    """
    cfg = EpConfig() if cfg is None else cfg
    dim = spec.dim
    idx, values = _snap_observations(obs, grid, dim)
    sites = _init_sites(obs_model, values, loss, grid, dim, idx, cfg)
    counter = RepairCounter()
    times = grid.times
    quad_guard = not isinstance(obs_model, GaussianObs)

    skipped = 0
    obs_updated = np.zeros(len(idx), dtype=bool)
    history = []
    converged = False
    sweeps_run = 0

    for sweep in range(1, cfg.max_sweeps + 1):
        try:
            fwd = forward_pass(spec, sites, init, grid, eps_psd=cfg.eps_psd,
                               diverge_threshold=cfg.diverge_threshold,
                               counter=counter)
            smoothed = backward_pass(spec, fwd, grid, eps_psd=cfg.eps_psd,
                                     diverge_threshold=cfg.diverge_threshold,
                                     counter=counter)

            prop_obs_h = sites.obs_h.copy()
            prop_obs_J = sites.obs_J.copy()
            for s, k in enumerate(idx):
                nat = moments_to_canonical(smoothed.node(int(k)))
                cavity = GaussianCanonical(nat.h - sites.obs_h[s],
                                           nat.J - sites.obs_J[s])
                # a site whose cavity is degenerate or whose quadrature
                # fails cannot be moment matched this sweep; a site that
                # has been matched before keeps its last good value,
                # while one still carrying pure warm-start residue is
                # walked back toward zero by the damped update
                if quad_guard and _cavity_degenerate(cavity.J, nat.J):
                    skipped += 1
                    if not obs_updated[s]:
                        prop_obs_h[s] = 0.0
                        prop_obs_J[s] = 0.0
                    continue
                try:
                    tm, _ = tilted_moments(
                        obs_model, values[s], cavity,
                        quad_order=cfg.quad_order, eps_psd=cfg.eps_psd,
                        counter=counter)
                except (ImproperCavity, QuadratureUnderflow):
                    skipped += 1
                    if not obs_updated[s]:
                        prop_obs_h[s] = 0.0
                        prop_obs_J[s] = 0.0
                    continue
                post = moments_to_canonical(tm)
                prop_obs_h[s] = post.h - cavity.h
                prop_obs_J[s] = post.J - cavity.J
                obs_updated[s] = True

            prop_cont_h = sites.cont_h
            prop_cont_J = sites.cont_J
            if loss is not None:
                prop_cont_h, prop_cont_J = continuous_site_update(
                    loss, smoothed, times)
        except (NonPositiveDefinite, DivergedMoments) as err:
            err.sweep = sweep
            raise

        eps = cfg.damping
        d_oh = eps * (prop_obs_h - sites.obs_h)
        d_oJ = eps * (prop_obs_J - sites.obs_J)
        d_ch = eps * (prop_cont_h - sites.cont_h)
        d_cJ = eps * (prop_cont_J - sites.cont_J)
        max_delta = 0.0
        for block in (d_oh, d_oJ, d_ch, d_cJ):
            if block.size:
                max_delta = max(max_delta, float(np.abs(block).max()))
        sites.obs_h += d_oh
        sites.obs_J += d_oJ
        sites.cont_h += d_ch
        sites.cont_J += d_cJ

        history.append(max_delta)
        sweeps_run = sweep
        if max_delta <= cfg.tolerance:
            converged = True
            break

    fwd = forward_pass(spec, sites, init, grid, eps_psd=cfg.eps_psd,
                       diverge_threshold=cfg.diverge_threshold,
                       counter=counter)
    smoothed = backward_pass(spec, fwd, grid, eps_psd=cfg.eps_psd,
                             diverge_threshold=cfg.diverge_threshold,
                             counter=counter)
    tilted = _final_log_partitions(obs_model, values, idx, sites, smoothed,
                                   cfg, counter)
    if tilted is None:
        log_evidence = float("nan")
    else:
        log_evidence = free_energy(fwd.log_norm, sites, smoothed, tilted,
                                   grid, loss)

    return EpResult(smoothed=smoothed, filtered=fwd.filtered, sites=sites,
                    log_evidence=log_evidence, sweeps_run=sweeps_run,
                    converged=converged,
                    max_site_delta_history=np.asarray(history),
                    psd_repairs=counter.count, skipped_updates=skipped,
                    method="ep")


def run_adf(spec: SdeSpec, obs: list[Observation], obs_model, loss,
            init: GaussianMoments, grid: TimeGrid, smoothing: bool = False,
            cfg: EpConfig | None = None) -> EpResult:
    """Single-sweep assumed density filtering, optionally smoothed.

    The forward pass runs with a hook that, at each observation node,
    sets the site moving the marginal to the tilted one and records it,
    and computes the continuous site of each cell from the filtered
    moments at its left node, so the sites and log normalizer feed the
    same free-energy evaluation EP uses.
    """
    cfg = EpConfig() if cfg is None else cfg
    dim = spec.dim
    idx, values = _snap_observations(obs, grid, dim)
    sites = SiteSet.zeros(grid, dim, idx)
    counter = RepairCounter()
    times = grid.times
    obs_slot = {int(i): s for s, i in enumerate(idx)}
    tilted = np.zeros(len(idx))
    skipped = 0

    def match_sites(k, mean, cov):
        nonlocal skipped
        s = obs_slot.get(k)
        if s is not None:
            eta = moments_to_canonical(GaussianMoments(mean, cov))
            try:
                tm, tilted[s] = tilted_moments(
                    obs_model, values[s], eta, quad_order=cfg.quad_order,
                    eps_psd=cfg.eps_psd, counter=counter)
            except QuadratureUnderflow:
                skipped += 1
            else:
                post = moments_to_canonical(tm)
                sites.obs_h[s] = post.h - eta.h
                sites.obs_J[s] = post.J - eta.J
                mean, cov = tm.mean, tm.cov
        if loss is not None:
            lam = continuous_site_update(loss, GaussianMoments(mean, cov),
                                         times[k])
            sites.cont_h[k] = lam.h
            sites.cont_J[k] = lam.J

    fwd = forward_pass(spec, sites, init, grid, eps_psd=cfg.eps_psd,
                       diverge_threshold=cfg.diverge_threshold,
                       counter=counter, site_hook=match_sites)
    filtered = fwd.filtered

    if smoothing:
        smoothed = backward_pass(spec, fwd, grid, eps_psd=cfg.eps_psd,
                                 diverge_threshold=cfg.diverge_threshold,
                                 counter=counter)
        final = _final_log_partitions(obs_model, values, idx, sites,
                                      smoothed, cfg, counter)
        path, method = smoothed, "adf-s"
        tilted = final if final is not None else None
    else:
        path, method = filtered, "adf"

    if tilted is None:
        log_evidence = float("nan")
    else:
        log_evidence = free_energy(fwd.log_norm, sites, path, tilted, grid,
                                   loss)

    return EpResult(smoothed=path, filtered=filtered, sites=sites,
                    log_evidence=log_evidence, sweeps_run=1, converged=True,
                    max_site_delta_history=np.zeros(0),
                    psd_repairs=counter.count, skipped_updates=skipped,
                    method=method)
