"""Forward/backward pass checks against exact linear-Gaussian references.

The oracle (tests/_oracles.py) builds exact discrete transitions by the
matrix-exponential block method and runs an independent Kalman filter
and RTS smoother on the grid, so every comparison here is against
closed-form linear-Gaussian results, not against the code under test.
"""

import numpy as np
import pytest

from _oracles import linear_gaussian_reference, ou_exact_moments
from epsde.closure import pack
from epsde.errors import DivergedMoments, NonPositiveDefinite
from epsde.filtering import (
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
from epsde.processes import linear_sde

A2 = np.array([[-1.0, 0.3], [-0.2, -1.4]])
B2 = np.array([[0.8, 0.2], [0.2, 1.1]])
PRIOR2 = GaussianMoments(np.array([1.0, -0.5]),
                         np.array([[0.5, 0.1], [0.1, 0.4]]))


def _gauss_sites(grid, obs_times, obs_values, R):
    d = len(R)
    idx = [grid.snap_index(t) for t in obs_times]
    sites = SiteSet.zeros(grid, d, idx)
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
    assert grid.snap_index(1.0) == 2
    assert grid.snap_index(1.2) == 2
    assert grid.snap_index(0.0) == 0
    with pytest.raises(ValueError):
        grid.snap_index(2.6)
    with pytest.raises(ValueError):
        grid.snap_index(-0.4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)


def test_site_set_validation():
    grid = TimeGrid(0.0, 1.0, 10)
    SiteSet.zeros(grid, 2, [0, 3, 10])
    with pytest.raises(ValueError):
        SiteSet.zeros(grid, 2, [3, 3])
    with pytest.raises(ValueError):
        SiteSet.zeros(grid, 2, [4, 11])


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
    np.testing.assert_array_equal(fwd.pre_means, fwd.flow_means)
    np.testing.assert_array_equal(fwd.pre_means, fwd.post_means)


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
    np.testing.assert_allclose(fwd.pre_means, ref["pre_means"], atol=1e-9)
    np.testing.assert_allclose(fwd.pre_covs, ref["pre_covs"], atol=1e-9)


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
    assert smoothed.kind == "smoothed"
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
    cov = np.array([[1e12, 0.5], [0.5, 2.0]])   # at the bound: accepted
    _check_finite(pack(mean, cov), 7, 1e12)
    target = mean if where == "mean" else cov
    target.flat[1] = bad
    with pytest.raises(DivergedMoments) as info:
        _check_finite(pack(mean, cov), 7, 1e12)
    assert info.value.time_index == 7


def test_repair_counter_stays_zero_on_benign_problem():
    spec = linear_sde(A2, B2)
    grid = TimeGrid(0.0, 3.0, 200)
    counter = RepairCounter()
    fwd = forward_pass(spec, SiteSet.zeros(grid, 2, []), PRIOR2, grid,
                       counter=counter)
    backward_pass(spec, fwd, counter=counter)
    assert counter.count == 0
