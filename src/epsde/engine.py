"""Posterior inference drivers: expectation propagation and assumed
density filtering.

Both methods approximate the posterior over latent paths by a Gaussian
process written as the prior diffusion tilted by site factors: one
canonical site per discrete observation and a piecewise-constant
canonical site field for the continuous loss.

run_ep iterates full parallel sweeps from a start path.  A run with
non-Gaussian observations and no continuous loss continues from ADF-S
(EP is ADF made iterative, with ADF as its first pass; Minka 2001): it
starts from ADF's sites and ADF-S's smoothed path, the one its own
passes at those sites would give, or from the ADF-S result its caller
hands in (the benchmark runs ADF-S anyway).  Every other run starts from
_init_sites and a forward and a backward pass there: Gaussian
observation sites are exact there already, and with a loss the
continuous site field, not the observation sites, sets the sweep count.
Each sweep matches every observation site at the current path
(_match_sites: cavities from the smoothed marginals, tilted moments),
applies the damped update jointly, and runs a forward and a backward
pass at the new sites.  Once the largest applied parameter change falls
below the tolerance, or the sweep budget is spent, the match at the
last path gives the free-energy estimate of the log evidence there.

run_adf is one forward pass (filtering.forward_pass) with a site hook,
so ADF and EP run the same propagation kernel and guard policy.  At
each observation node the hook sets the site that moves the marginal to
the tilted one (_match_site); with a loss it runs at every node and
also sets the continuous site of the cell starting there from the
filtered moments.  With smoothing enabled a backward pass follows; the
realized sites make the result exactly one parallel EP step in the
conjugate case.  Both methods report the free
energy at their returned path from one _match_sites there, the step
EP's sweeps take.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import GridError, ImproperCavity, QuadratureUnderflow
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
    """Knobs of EP's sweep loop; ADF has none.

    damping is the step size of every site update, tolerance the
    convergence threshold on the largest applied parameter change and
    max_sweeps the sweep budget.  The starting sites follow from the
    observation model and the loss (see run_ep).  The numerics EP
    shares with ADF are fixed: the PSD floor (gaussian.PSD_FLOOR) and
    the quadrature order (tilted_moments' default).  A ValueError's
    message starts with the field it names.
    """

    damping: float = 0.5
    tolerance: float = 0.01
    max_sweeps: int = 50

    def __post_init__(self):
        for name in ("damping", "tolerance", "max_sweeps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name}: expected a number, got {value!r}")
        # NaN fails every comparison below, so it is rejected too
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping: must lie in (0, 1]")
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError("tolerance: must be finite and positive")
        if not isinstance(self.max_sweeps, Integral) or self.max_sweeps < 1:
            raise ValueError("max_sweeps: must be an integer of at least 1")


@dataclass(eq=False)
class EpResult:
    """Outcome of an inference run.

    smoothed holds the marginals the method reports (for plain ADF that
    is the filtered path), and log_evidence the free energy there, NaN
    when some observation site cannot be matched there.  converged is
    always checked against the applied site change, so a result with
    converged False is still a valid, fully evaluated state.  EP's
    sweeps_run is the length of max_site_delta_history.  psd_repairs
    counts the run's PSD repairs, in its passes and in every site match,
    the evidence's included; ADF-S's count once for an EP run that
    continues from ADF-S (see run_ep).
    """

    smoothed: MarginalPath
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
    return idx, values


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


def _match_site(obs_model, y: np.ndarray, marginal: GaussianMoments,
                h, J, counter):
    """Moment-match the observation site (h, J) at a marginal; h = J = 0.0
    matches against the marginal itself.

    Returns the proposed site (h, J) that moves the cavity to the tilted
    moments, the tilted moments and the site's free-energy term (the
    tilted log partition minus the marginal's), or None when the site
    cannot be matched there: a degenerate or improper cavity, or
    quadrature underflow.
    """
    nat = moments_to_canonical(marginal)
    cavity = GaussianCanonical(nat.h - h, nat.J - J)
    if (not isinstance(obs_model, GaussianObs)
            and _cavity_degenerate(cavity.J, nat.J)):
        return None
    try:
        tilted, log_z = tilted_moments(obs_model, y, cavity, counter=counter)
    except (ImproperCavity, QuadratureUnderflow):
        return None
    post = moments_to_canonical(tilted)
    return (post.h - cavity.h, post.J - cavity.J, tilted,
            log_z - log_partition(nat))


def _match_sites(obs_model, values: np.ndarray, sites: SiteSet,
                 path: MarginalPath, counter):
    """Match every observation site at a path.

    Returns the proposed (h, J), where a site that cannot be matched
    keeps its value, the mask of those sites, and each site's
    free-energy term, NaN where it is unmatched.
    """
    prop_h = sites.obs_h.copy()
    prop_J = sites.obs_J.copy()
    unmatched = np.zeros(len(values), dtype=bool)
    terms = np.full(len(values), np.nan)
    for s, k in enumerate(sites.obs_idx):
        matched = _match_site(obs_model, values[s], path.node(int(k)),
                              sites.obs_h[s], sites.obs_J[s], counter)
        if matched is None:
            unmatched[s] = True
        else:
            prop_h[s], prop_J[s], _, terms[s] = matched
    return prop_h, prop_J, unmatched, terms


# moment matching exp(-a s^4) against a flat measure: the matched
# variance is Gamma(3/4) / (Gamma(1/4) sqrt(a))
_QUARTIC_PRECISION = math.gamma(0.25) / math.gamma(0.75)


def _init_sites(obs_model, values: np.ndarray, loss, grid: TimeGrid,
                dim: int, idx: np.ndarray) -> SiteSet:
    """Sites at the start of the sweeps, unless run_ep continues from
    ADF-S (non-Gaussian observations, no loss): Gaussian observations
    and the quadratic loss at their exact canonical parameters, the
    quartic loss at its moment match against a flat measure, every other
    site at zero.
    """
    sites = SiteSet.zeros(grid, dim, idx)
    if isinstance(obs_model, GaussianObs):
        r_inv = np.linalg.inv(obs_model.R)
        sites.obs_h[:] = values @ r_inv.T
        sites.obs_J[:] = r_inv
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


def free_energy(fwd_log_norm: float, site_terms, sites: SiteSet,
                smoothed: MarginalPath, grid: TimeGrid, loss) -> float:
    """Variational estimate of the log evidence.

    Adds to the forward-pass log normalizer the observation sites'
    free-energy terms (see _match_sites), in site order, and subtracts
    the trapezoid integrals of the expected loss and of the site field
    against the smoothed moments.  A NaN term, a site that cannot be
    matched, makes the estimate NaN.
    """
    total = float(fwd_log_norm)
    for term in site_terms:
        total += term
    dt = grid.dt
    if loss is not None:
        u = expected_loss(loss, smoothed, grid.times)
        total -= dt * 0.5 * float((u[:-1] + u[1:]).sum())
    if sites.cont_h.any() or sites.cont_J.any():
        total -= dt * _site_field_dot_f(sites, smoothed.means, smoothed.covs)
    return total


def run_ep(spec: SdeSpec, obs: list[Observation], obs_model, loss,
           init: GaussianMoments, grid: TimeGrid,
           cfg: EpConfig | None = None, *,
           adfs: EpResult | None = None) -> EpResult:
    """Parallel expectation propagation over the whole grid.

    Never raises on non-convergence: the result carries converged=False
    and the per-sweep change history instead.  Numerical failures
    propagate with the sweep index attached: one raised in the start
    (ADF-S, or the passes at _init_sites) carries sweep = 1, one raised
    in the passes after sweep s sweep = s + 1, so one raised in the
    final evaluation at the returned sites sweep = sweeps_run + 1.  A
    run that continues from ADF-S starts with its sites, so a site ADF
    could not match starts at zero; its skipped updates add to
    skipped_updates, and psd_repairs counts ADF-S's repairs once, then
    those of EP's own passes and matches.  A site that cannot be matched
    in a sweep keeps its value and counts as one skipped update.

    A caller that already holds this problem's ADF-S result,
    run_adf(..., smoothing=True) on the same arguments, hands it in as
    adfs, and the run continues from it instead of computing it again;
    the result is the same, bit for bit, and adfs is not modified.
    ValueError names adfs when the run does not continue from ADF-S (a
    loss, or Gaussian observations), when adfs is not an adf-s result,
    or when its observation nodes or grid differ from this run's.
    """
    cfg = EpConfig() if cfg is None else cfg
    dim = spec.dim
    idx, values = _snap_observations(obs, grid, dim)
    from_adfs = loss is None and not isinstance(obs_model, GaussianObs)
    if adfs is not None:
        if not from_adfs:
            raise ValueError("adfs: this run does not continue from ADF-S "
                             "(it has a loss or Gaussian observations)")
        if adfs.method != "adf-s":
            raise ValueError(f"adfs: expected an adf-s result, got "
                             f"{adfs.method!r}")
        if not (np.array_equal(adfs.sites.obs_idx, idx)
                and np.array_equal(adfs.smoothed.times, grid.times)):
            raise ValueError("adfs: observation nodes or grid differ from "
                             "this run's")
    counter = RepairCounter()
    history = []
    converged = False
    sweep = 1
    try:
        if from_adfs:
            if adfs is None:
                adfs = run_adf(spec, obs, obs_model, None, init, grid,
                               smoothing=True)
            # the sweeps update the sites in place
            sites, smoothed = copy.deepcopy(adfs.sites), adfs.smoothed
            counter.add(adfs.psd_repairs)
            skipped = adfs.skipped_updates
        else:
            sites = _init_sites(obs_model, values, loss, grid, dim, idx)
            fwd = forward_pass(spec, sites, init, grid, counter=counter)
            smoothed = backward_pass(spec, fwd, counter=counter)
            skipped = 0

        # the loop stops only at a path its own passes made, so fwd is
        # that path's forward pass
        while True:
            prop_obs_h, prop_obs_J, unmatched, terms = _match_sites(
                obs_model, values, sites, smoothed, counter)
            if converged or sweep > cfg.max_sweeps:
                break
            skipped += int(unmatched.sum())
            prop_cont_h, prop_cont_J = sites.cont_h, sites.cont_J
            if loss is not None:
                prop_cont_h, prop_cont_J = continuous_site_update(
                    loss, smoothed, grid.times)

            max_delta = 0.0
            for site, prop in ((sites.obs_h, prop_obs_h),
                               (sites.obs_J, prop_obs_J),
                               (sites.cont_h, prop_cont_h),
                               (sites.cont_J, prop_cont_J)):
                step = cfg.damping * (prop - site)
                if step.size:
                    max_delta = max(max_delta, float(np.abs(step).max()))
                site += step
            history.append(max_delta)
            converged = max_delta <= cfg.tolerance

            sweep += 1
            fwd = forward_pass(spec, sites, init, grid, counter=counter)
            smoothed = backward_pass(spec, fwd, counter=counter)
        log_evidence = free_energy(fwd.log_norm, terms, sites, smoothed, grid,
                                   loss)
    except GridError as err:
        err.sweep = sweep
        raise

    return EpResult(smoothed=smoothed, sites=sites,
                    log_evidence=log_evidence, sweeps_run=len(history),
                    converged=converged,
                    max_site_delta_history=np.asarray(history),
                    psd_repairs=counter.count, skipped_updates=skipped,
                    method="ep")


def run_adf(spec: SdeSpec, obs: list[Observation], obs_model, loss,
            init: GaussianMoments, grid: TimeGrid,
            smoothing: bool = False) -> EpResult:
    """Single-sweep assumed density filtering, optionally smoothed.

    The forward pass runs with a hook that, at each observation node,
    matches the site that moves the marginal to the tilted one (its
    cavity is the marginal itself, a zero site), and with a loss
    computes the continuous site of each cell from the moments at its
    left node.  A site that cannot be matched is left at zero and
    counted as skipped.  The hook reads only the marginal, so the pass
    may replay it (see filtering.forward_pass).  The log evidence is the free energy at
    the reported path: the smoothed one for adf-s, the filtered one for
    plain adf; it is NaN when a site cannot be matched there.
    """
    dim = spec.dim
    idx, values = _snap_observations(obs, grid, dim)
    sites = SiteSet.zeros(grid, dim, idx)
    counter = RepairCounter()
    times = grid.times
    obs_slot = {int(i): s for s, i in enumerate(idx)}
    unmatched = np.zeros(len(idx), dtype=bool)

    def set_sites(k, mean, cov):
        s = obs_slot.get(k)
        if s is not None:
            matched = _match_site(obs_model, values[s],
                                  GaussianMoments(mean, cov), 0.0, 0.0,
                                  counter)
            unmatched[s] = matched is None
            if matched is None:
                sites.obs_h[s] = 0.0
                sites.obs_J[s] = 0.0
            else:
                sites.obs_h[s], sites.obs_J[s], tm, _ = matched
                mean, cov = tm.mean, tm.cov
        if loss is None:
            return False
        lam = continuous_site_update(loss, GaussianMoments(mean, cov),
                                     times[k])
        sites.cont_h[k] = lam.h
        sites.cont_J[k] = lam.J
        return bool(lam.h.any() or lam.J.any())

    fwd = forward_pass(spec, sites, init, grid, counter=counter,
                       site_hook=set_sites, hook_every_node=loss is not None)
    path = fwd.filtered
    if smoothing:
        path = backward_pass(spec, fwd, counter=counter)
    terms = _match_sites(obs_model, values, sites, path, counter)[3]
    log_evidence = free_energy(fwd.log_norm, terms, sites, path, grid, loss)

    return EpResult(smoothed=path, sites=sites, log_evidence=log_evidence,
                    sweeps_run=1, converged=True,
                    max_site_delta_history=np.zeros(0),
                    psd_repairs=counter.count,
                    skipped_updates=int(unmatched.sum()),
                    method="adf-s" if smoothing else "adf")
