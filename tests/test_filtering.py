"""Forward/backward pass checks against exact linear-Gaussian references.

The oracle (tests/_oracles.py) builds exact discrete transitions by the
matrix-exponential block method and runs an independent Kalman filter
and RTS smoother on the grid, so every comparison here is against
closed-form linear-Gaussian results, not against the code under test.
"""

import warnings

import numpy as np
import pytest

import epsde.filtering as filtering
from _oracles import linear_gaussian_reference, ou_exact_moments
from epsde.closure import ClosedOdeRhs, pack
from epsde.engine import run_adf
from epsde.errors import DivergedMoments, NonPositiveDefinite
from epsde.filtering import (
    DIVERGE_THRESHOLD,
    ForwardPassResult,
    MarginalPath,
    SiteSet,
    TimeGrid,
    _check_finite,
    apply_canonical_site,
    backward_pass,
    forward_pass,
)
from epsde.gaussian import (
    GaussianCanonical,
    GaussianMoments,
    RepairCounter,
    add_site,
    canonical_to_moments,
    log_partition,
    moments_to_canonical,
)
from epsde.likelihoods import GaussianObs, Observation
from epsde.processes import linear_sde

A2 = np.array([[-1.0, 0.3], [-0.2, -1.4]])
B2 = np.array([[0.8, 0.2], [0.2, 1.1]])
PRIOR2 = GaussianMoments(np.array([1.0, -0.5]),
                         np.array([[0.5, 0.1], [0.1, 0.4]]))


def _gauss_sites(grid, obs_times, obs_values, R):
    d = len(R)
    sites = SiteSet.zeros(grid, d, grid.nodes(obs_times))
    Rinv = np.linalg.inv(R)
    for k, y in enumerate(obs_values):
        sites.obs_h[k] = Rinv @ y
        sites.obs_J[k] = Rinv
    return sites


def _obs_case(n_steps=500):
    grid = TimeGrid(0.0, 5.0, n_steps)
    obs_times = [1.0, 2.0, 3.0, 4.0, 5.0]
    rng = np.random.Generator(np.random.Philox(key=77))
    obs_values = [rng.normal(0.0, 1.0, 2) for _ in obs_times]
    R = np.array([[0.3, 0.05], [0.05, 0.2]])
    return grid, obs_times, obs_values, R


def test_grid_nodes_and_snapping():
    grid = TimeGrid(0.0, 2.0, 4)
    np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.nodes([1.0]).tolist() == [2]
    assert grid.nodes([1.2]).tolist() == [2]
    assert grid.nodes([0.0]).tolist() == [0]
    with pytest.raises(ValueError):
        grid.nodes([2.6])
    with pytest.raises(ValueError):
        grid.nodes([-0.4])
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)


def test_grid_nodes_place_observations_by_one_rule():
    grid = TimeGrid(0.0, 2.0, 4)   # dt = 0.5
    # exact endpoints, and half-way times rounding to the even node
    assert grid.nodes([0.0, 2.0]).tolist() == [0, 4]
    assert grid.nodes([0.25, 0.75, 1.75]).tolist() == [0, 2, 4]
    assert grid.nodes([1.25]).tolist() == [2]
    assert grid.nodes([]).tolist() == []
    # nearer to the last node than dt / 2, but past t1
    with pytest.raises(ValueError,
                       match=r"time 2\.2 lies outside \[0\.0, 2\.0\]"):
        grid.nodes([1.0, 2.2])
    with pytest.raises(ValueError, match="time -0.1 lies outside"):
        grid.nodes([-0.1])
    with pytest.raises(ValueError, match="time nan lies outside"):
        grid.nodes([0.5, np.nan])
    with pytest.raises(ValueError, match="must strictly increase, got 1.5 "
                                         "before 1.0"):
        grid.nodes([0.5, 1.5, 1.0])
    with pytest.raises(ValueError, match=r"times 1 and 1\.2 share grid node 2 "
                                         r"\(t = 1\); use a finer grid"):
        grid.nodes([0.5, 1.0, 1.2])


def test_forward_no_sites_matches_exact_moments():
    spec = linear_sde(A2, B2)
    grid = TimeGrid(0.0, 5.0, 500)
    sites = SiteSet.zeros(grid, 2, [])
    fwd = forward_pass(spec, sites, PRIOR2, grid)
    assert fwd.log_norm == 0.0
    for k in [0, 100, 250, 500]:
        m_ex, C_ex = ou_exact_moments(A2, B2, PRIOR2.mean, PRIOR2.cov,
                                      grid.times[k])
        np.testing.assert_allclose(fwd.post_means[k], m_ex, atol=1e-10)
        np.testing.assert_allclose(fwd.post_covs[k], C_ex, atol=1e-10)
    np.testing.assert_array_equal(fwd.flow_means, fwd.post_means)


def test_forward_integrator_is_fourth_order():
    spec = linear_sde(A2, B2)

    def err(n):
        grid = TimeGrid(0.0, 5.0, n)
        fwd = forward_pass(spec, SiteSet.zeros(grid, 2, []), PRIOR2, grid)
        m_ex, C_ex = ou_exact_moments(A2, B2, PRIOR2.mean, PRIOR2.cov, 5.0)
        return max(np.abs(fwd.post_means[-1] - m_ex).max(),
                   np.abs(fwd.post_covs[-1] - C_ex).max())

    ratio = err(16) / err(32)
    assert 12.0 < ratio < 20.0


def test_forward_matches_kalman_filter():
    spec = linear_sde(A2, B2)
    grid, obs_times, obs_values, R = _obs_case()
    sites = _gauss_sites(grid, obs_times, obs_values, R)
    fwd = forward_pass(spec, sites, PRIOR2, grid)
    ref = linear_gaussian_reference(A2, B2, PRIOR2.mean, PRIOR2.cov,
                                    0.0, 5.0, grid.n_steps, obs_times,
                                    obs_values, R)
    np.testing.assert_allclose(fwd.post_means, ref["filtered_means"],
                               atol=1e-9)
    np.testing.assert_allclose(fwd.post_covs, ref["filtered_covs"],
                               atol=1e-9)
    # no continuous site, so the flow arrival is the oracle's prediction
    np.testing.assert_allclose(fwd.flow_means, ref["pre_means"], atol=1e-9)
    np.testing.assert_allclose(fwd.flow_covs, ref["pre_covs"], atol=1e-9)


def test_forward_log_norm_recovers_log_likelihood():
    # each site update contributes log N(y; m_pre, C_pre + R)
    # + y.Rinv y / 2 + log det(2 pi R) / 2
    spec = linear_sde(A2, B2)
    grid, obs_times, obs_values, R = _obs_case()
    sites = _gauss_sites(grid, obs_times, obs_values, R)
    fwd = forward_pass(spec, sites, PRIOR2, grid)
    ref = linear_gaussian_reference(A2, B2, PRIOR2.mean, PRIOR2.cov,
                                    0.0, 5.0, grid.n_steps, obs_times,
                                    obs_values, R)
    Rinv = np.linalg.inv(R)
    correction = sum(0.5 * y @ Rinv @ y for y in obs_values)
    correction += len(obs_values) * 0.5 * np.log(np.linalg.det(2 * np.pi * R))
    assert fwd.log_norm - correction == pytest.approx(ref["loglik"],
                                                      abs=1e-9)


def test_backward_matches_rts_smoother():
    spec = linear_sde(A2, B2)
    grid, obs_times, obs_values, R = _obs_case()
    sites = _gauss_sites(grid, obs_times, obs_values, R)
    fwd = forward_pass(spec, sites, PRIOR2, grid)
    smoothed = backward_pass(spec, fwd)
    ref = linear_gaussian_reference(A2, B2, PRIOR2.mean, PRIOR2.cov,
                                    0.0, 5.0, grid.n_steps, obs_times,
                                    obs_values, R)
    np.testing.assert_allclose(smoothed.means, ref["smoothed_means"],
                               atol=1e-7)
    np.testing.assert_allclose(smoothed.covs, ref["smoothed_covs"],
                               atol=1e-7)


def test_backward_is_high_order():
    spec = linear_sde(A2, B2)
    _, obs_times, obs_values, R = _obs_case()

    def err(n):
        grid = TimeGrid(0.0, 5.0, n)
        sites = _gauss_sites(grid, obs_times, obs_values, R)
        fwd = forward_pass(spec, sites, PRIOR2, grid)
        smoothed = backward_pass(spec, fwd)
        ref = linear_gaussian_reference(A2, B2, PRIOR2.mean, PRIOR2.cov,
                                        0.0, 5.0, n, obs_times, obs_values,
                                        R)
        return max(np.abs(smoothed.means - ref["smoothed_means"]).max(),
                   np.abs(smoothed.covs - ref["smoothed_covs"]).max())

    # fourth-order stepping with fourth-order references: halving the
    # step should cut the error by far more than the second-order factor
    assert err(20) / err(40) > 8.0


def test_backward_without_observations_returns_forward_path():
    spec = linear_sde(A2, B2)
    grid = TimeGrid(0.0, 5.0, 400)
    fwd = forward_pass(spec, SiteSet.zeros(grid, 2, []), PRIOR2, grid)
    smoothed = backward_pass(spec, fwd)
    np.testing.assert_allclose(smoothed.means, fwd.post_means, atol=1e-9)
    np.testing.assert_allclose(smoothed.covs, fwd.post_covs, atol=1e-9)


def test_smoothing_never_inflates_covariance():
    spec = linear_sde(A2, B2)
    grid, obs_times, obs_values, R = _obs_case()
    sites = _gauss_sites(grid, obs_times, obs_values, R)
    fwd = forward_pass(spec, sites, PRIOR2, grid)
    smoothed = backward_pass(spec, fwd)
    for k in range(0, grid.n_steps + 1, 25):
        gap = fwd.post_covs[k] - smoothed.covs[k]
        assert np.linalg.eigvalsh(gap).min() > -1e-8


def test_continuous_sites_equal_dense_discrete_sites():
    # a constant continuous field must reproduce per-node discrete sites
    # of weight dt exactly, including the log normalizer
    spec = linear_sde(A2, B2)
    grid = TimeGrid(0.0, 2.0, 50)
    h_c = np.array([0.4, -0.2])
    J_c = np.array([[0.6, 0.1], [0.1, 0.5]])

    cont = SiteSet.zeros(grid, 2, [])
    cont.cont_h[:] = h_c
    cont.cont_J[:] = J_c

    disc = SiteSet.zeros(grid, 2, np.arange(1, grid.n_steps + 1))
    disc.obs_h[:] = grid.dt * h_c
    disc.obs_J[:] = grid.dt * J_c

    f1 = forward_pass(spec, cont, PRIOR2, grid)
    f2 = forward_pass(spec, disc, PRIOR2, grid)
    np.testing.assert_allclose(f1.post_means, f2.post_means, atol=1e-13)
    np.testing.assert_allclose(f1.post_covs, f2.post_covs, atol=1e-13)
    assert f1.log_norm == pytest.approx(f2.log_norm, abs=1e-12)


def test_apply_canonical_site_roundtrip():
    mean = np.array([2.0, -1.0])
    cov = np.array([[1.5, 0.4], [0.4, 0.9]])
    h = np.array([0.3, 0.2])
    J = np.array([[0.5, 0.0], [0.0, 0.25]])
    m1, c1, lz1 = apply_canonical_site(mean, cov, h, J)
    m2, c2, lz2 = apply_canonical_site(m1, c1, -h, -J)
    np.testing.assert_allclose(m2, mean, atol=1e-12)
    np.testing.assert_allclose(c2, cov, atol=1e-12)
    assert lz1 + lz2 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 6])
def test_apply_canonical_site_matches_composed_reference(d):
    rng = np.random.Generator(np.random.Philox(key=55 + d))
    for _ in range(5):
        M = rng.normal(size=(d, d))
        cov = M @ M.T + d * np.eye(d)
        mean = rng.normal(0.0, 2.0, d)
        scale = 0.7
        # J may be indefinite; its negative shift is half the prior's
        # least precision, so the posterior precision stays definite
        S = rng.normal(size=(d, d))
        floor = 0.5 / np.linalg.eigvalsh(cov)[-1] / scale
        h, J = rng.normal(size=d), S @ S.T / d - floor * np.eye(d)
        m1, c1, dlz = apply_canonical_site(mean, cov, h, J, scale)
        prior = moments_to_canonical(GaussianMoments(mean, cov))
        post = add_site(prior, GaussianCanonical(h, J), scale)
        ref = canonical_to_moments(post)
        np.testing.assert_allclose(m1, ref.mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(c1, ref.cov, rtol=1e-12, atol=1e-12)
        assert dlz == pytest.approx(log_partition(post)
                                    - log_partition(prior), rel=1e-12,
                                    abs=1e-12)


def test_apply_canonical_site_rejects_indefinite_posterior():
    mean, cov = np.zeros(2), np.eye(2)
    with pytest.raises(NonPositiveDefinite) as info:
        apply_canonical_site(mean, cov, np.zeros(2), np.diag([-2.0, 0.0]),
                             time_index=4)
    assert info.value.time_index == 4


def test_forward_diverges_on_explosive_drift():
    spec = linear_sde(np.array([[5.0]]), np.array([[0.1]]))
    grid = TimeGrid(0.0, 8.0, 200)
    prior = GaussianMoments(np.array([1.0]), np.array([[0.5]]))
    with pytest.raises(DivergedMoments) as info:
        forward_pass(spec, SiteSet.zeros(grid, 1, []), prior, grid)
    assert info.value.time_index is not None


@pytest.mark.parametrize("where", ["mean", "cov"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -2e12])
def test_divergence_guard_rejects_non_finite_and_huge_entries(where, bad):
    mean = np.array([1.0, -2.0])
    cov = np.array([[DIVERGE_THRESHOLD, 0.5], [0.5, 2.0]])  # at the bound
    _check_finite(pack(mean, cov), 7)
    target = mean if where == "mean" else cov
    target.flat[1] = bad
    with pytest.raises(DivergedMoments) as info:
        _check_finite(pack(mean, cov), 7)
    assert info.value.time_index == 7


def test_repair_counter_stays_zero_on_benign_problem():
    spec = linear_sde(A2, B2)
    grid = TimeGrid(0.0, 3.0, 200)
    counter = RepairCounter()
    fwd = forward_pass(spec, SiteSet.zeros(grid, 2, []), PRIOR2, grid,
                       counter=counter)
    backward_pass(spec, fwd, counter=counter)
    assert counter.count == 0


def test_forward_divergence_node_is_pinned():
    # the same setup as test_forward_diverges_on_explosive_drift
    spec = linear_sde(np.array([[5.0]]), np.array([[0.1]]))
    grid = TimeGrid(0.0, 8.0, 200)
    prior = GaussianMoments(np.array([1.0]), np.array([[0.5]]))
    with pytest.raises(DivergedMoments) as info:
        forward_pass(spec, SiteSet.zeros(grid, 1, []), prior, grid)
    assert info.value.time_index == 71


def test_overflowing_horizon_diverges_without_warning():
    # without per-step guards the pass would run on into overflow; the
    # guarded re-run stops at the first node past the bound, as before
    spec = linear_sde(np.array([[5.0]]), np.array([[0.1]]))
    grid = TimeGrid(0.0, 200.0, 200)
    prior = GaussianMoments(np.array([1.0]), np.array([[0.5]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergedMoments) as info:
            forward_pass(spec, SiteSet.zeros(grid, 1, []), prior, grid)
    assert info.value.time_index == 5


def test_site_past_the_bound_diverges_at_its_node():
    # at the last node no flow row follows, so only the post row shows it
    grid = TimeGrid(0.0, 1.0, 10)
    sites = _gauss_sites(grid, [1.0], [np.array([1e13, 0.0])],
                         1e-3 * np.eye(2))
    with pytest.raises(DivergedMoments) as info:
        forward_pass(linear_sde(A2, B2), sites, PRIOR2, grid)
    assert info.value.time_index == 10


def _run_passes(spec, sites, prior, grid):
    counter = RepairCounter()
    fwd = forward_pass(spec, sites, prior, grid, counter=counter)
    path = backward_pass(spec, fwd, counter=counter)
    rows = (fwd.flow_means, fwd.flow_covs, fwd.post_means, fwd.post_covs,
            path.means, path.covs)
    return rows, fwd.log_norm, counter.count


def _benign_case():
    grid, obs_times, obs_values, R = _obs_case(200)
    sites = _gauss_sites(grid, obs_times, obs_values, R)
    return _run_passes(linear_sde(A2, B2), sites, PRIOR2, grid)


def _clamping_case():
    # a rank-one diffusion along a nearly rank-one covariance: the guard
    # keeps clamping the other eigenvalue up to the PSD floor
    spec = linear_sde(np.zeros((2, 2)), np.ones((2, 2)))
    prior = GaussianMoments(np.zeros(2), np.ones((2, 2)) + 1e-9 * np.eye(2))
    grid = TimeGrid(0.0, 1.0, 4)
    return _run_passes(spec, SiteSet.zeros(grid, 2, []), prior, grid)


def _split_cells_case():
    # near-exact observations collapse the forward covariance at their
    # nodes, so the backward pass splits the cells next to them
    grid = TimeGrid(0.0, 2.0, 40)
    values = [np.array([0.5, -0.2]), np.array([0.1, 0.3])]
    sites = _gauss_sites(grid, [0.5, 1.5], values, 1e-6 * np.eye(2))
    return _run_passes(linear_sde(A2, B2), sites, PRIOR2, grid)


def _hooked_adf_case():
    grid, obs_times, obs_values, R = _obs_case(200)
    obs = [Observation(t, y) for t, y in zip(obs_times, obs_values)]
    res = run_adf(linear_sde(A2, B2), obs, GaussianObs(R), None, PRIOR2,
                  grid, smoothing=True)
    rows = (res.smoothed.means, res.smoothed.covs, res.sites.obs_h,
            res.sites.obs_J)
    return rows, res.log_evidence, res.psd_repairs


@pytest.mark.parametrize("case, repaired", [
    (_benign_case, False), (_clamping_case, True),
    (_split_cells_case, True), (_hooked_adf_case, False)],
    ids=["benign", "clamping", "split-cells", "hooked-adf"])
def test_guarded_rerun_is_bit_identical(case, repaired, monkeypatch):
    rows, log_norm, repairs = case()
    assert (repairs > 0) == repaired
    monkeypatch.setattr(filtering, "_accepted", lambda *args: False)
    guarded_rows, guarded_log_norm, guarded_repairs = case()
    for a, b in zip(rows, guarded_rows):
        assert a.tobytes() == b.tobytes()
    assert guarded_log_norm == log_norm
    assert guarded_repairs == repairs


def test_split_cells_case_splits_cells(monkeypatch):
    calls = []
    smoothing = ClosedOdeRhs.smoothing

    def counted(self, *args):
        calls.append(1)
        return smoothing(self, *args)

    monkeypatch.setattr(ClosedOdeRhs, "smoothing", counted)
    _split_cells_case()
    assert len(calls) > 4 * 40   # four stages per step, 40 cells


def test_accepted_pass_runs_no_per_step_guard(monkeypatch):
    def guard(*args):
        raise AssertionError("a per-step guard ran")

    monkeypatch.setattr(filtering, "_repair", guard)
    monkeypatch.setattr(filtering, "_check_finite", guard)
    _benign_case()
