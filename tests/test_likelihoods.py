"""Observation-model and loss checks.

Tilted moments are validated against a product Simpson rule on a dense
2-D grid, against the exact Gaussian marginal-likelihood identity, and
through the gradient property that moment matching equals differentiating
the tilted log-normalizer in the cavity parameters.  Loss expectations
are cross-checked by expanding each loss into a polynomial and reusing
the independently validated Gaussian expectation engine.
"""

import numpy as np
import pytest
from scipy.stats import lognorm, multivariate_normal

from epsde.errors import ImproperCavity, QuadratureUnderflow
from epsde.filtering import MarginalPath
from epsde.gaussian import (
    GaussianCanonical,
    GaussianMoments,
    log_partition,
    moments_to_canonical,
)
from epsde.likelihoods import (
    GaussianObs,
    LogNormalObs,
    Observation,
    QuadraticLoss,
    QuarticLoss,
    continuous_site_update,
    expected_loss,
    log_normal_logpdf,
    tilted_moments,
)
from epsde.processes import PolynomialMap

from _oracles import gaussian_expectation

CAV_MEAN = np.array([40.0, 80.0])
CAV_COV = np.array([[64.0, 20.0], [20.0, 144.0]])


def _cavity():
    return moments_to_canonical(GaussianMoments(CAV_MEAN, CAV_COV))


def _simpson_tilted(loglik, m, C, half=8.0, n=801):
    sd = np.sqrt(np.diag(C))
    axes = [np.linspace(m[k] - half * sd[k], m[k] + half * sd[k], n)
            for k in range(2)]
    X1, X2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    pts = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    P = np.linalg.inv(C)
    diff = pts - m
    logN = (-0.5 * np.einsum("ni,ij,nj->n", diff, P, diff)
            - 0.5 * np.log(np.linalg.det(2 * np.pi * C)))
    ll = loglik(pts)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4, 2
    W = np.outer(w * (axes[0][1] - axes[0][0]) / 3,
                 w * (axes[1][1] - axes[1][0]) / 3).ravel()
    f = np.where(np.isfinite(ll), np.exp(ll + logN), 0.0)
    Z = float((W * f).sum())
    mean = ((W * f)[:, None] * pts).sum(0) / Z
    d2 = pts - mean
    cov = ((W * f)[:, None] * d2).T @ d2 / Z
    return np.log(Z), mean, cov


def test_lognormal_logpdf_matches_scipy():
    mod = LogNormalObs(750.0)
    x = np.array([60.0, 110.0])
    y = np.array([55.0, 130.0])
    got = log_normal_logpdf(y, x, mod)
    want = 0.0
    for k in range(2):
        s2 = np.log1p(750.0 / x[k] ** 2)
        want += lognorm(s=np.sqrt(s2),
                        scale=np.exp(np.log(x[k]) - s2 / 2)).logpdf(y[k])
    assert got == pytest.approx(want, rel=1e-12)


def test_lognormal_logpdf_nonpositive_state():
    mod = LogNormalObs(10.0)
    y = np.array([5.0])
    assert log_normal_logpdf(y, np.array([0.0]), mod) == -np.inf
    assert log_normal_logpdf(y, np.array([-3.0]), mod) == -np.inf
    batch = log_normal_logpdf(y, np.array([[2.0], [-1.0], [4.0]]), mod)
    assert batch.shape == (3,)
    assert np.isfinite(batch[[0, 2]]).all() and batch[1] == -np.inf


def test_lognormal_mean_variance_moments():
    # parameterization fixes E[y | x] = x and Var[y | x] = v exactly
    mod = LogNormalObs(750.0)
    x = 85.0
    s2 = np.log1p(750.0 / x ** 2)
    dist = lognorm(s=np.sqrt(s2), scale=np.exp(np.log(x) - s2 / 2))
    assert dist.mean() == pytest.approx(x, rel=1e-12)
    assert dist.var() == pytest.approx(750.0, rel=1e-12)


def test_gaussian_tilted_matches_simpson():
    R = np.array([[100.0, 30.0], [30.0, 225.0]])
    y = np.array([47.0, 70.0])
    Pi = np.linalg.inv(R)
    ld = np.log(np.linalg.det(2 * np.pi * R))

    def ll(pts):
        d = pts - y
        return -0.5 * np.einsum("ni,ij,nj->n", d, Pi, d) - 0.5 * ld

    lz_s, mean_s, cov_s = _simpson_tilted(ll, CAV_MEAN, CAV_COV)
    cav = _cavity()
    mom, lz = tilted_moments(GaussianObs(R), y, cav)
    assert lz - log_partition(cav) == pytest.approx(lz_s, abs=1e-10)
    np.testing.assert_allclose(mom.mean, mean_s, atol=1e-8)
    np.testing.assert_allclose(mom.cov, cov_s, atol=1e-8)


def test_gaussian_tilted_marginal_likelihood_identity():
    # int N(y | x, R) N(x | m, C) dx = N(y | m, C + R)
    R = np.array([[100.0, 30.0], [30.0, 225.0]])
    y = np.array([47.0, 70.0])
    cav = _cavity()
    _, lz = tilted_moments(GaussianObs(R), y, cav)
    want = multivariate_normal(CAV_MEAN, CAV_COV + R).logpdf(y)
    assert lz - log_partition(cav) == pytest.approx(want, abs=1e-12)


def test_lognormal_tilted_matches_simpson():
    mod = LogNormalObs(750.0)
    y = np.array([47.0, 70.0])
    lz_s, mean_s, cov_s = _simpson_tilted(
        lambda pts: log_normal_logpdf(y, pts, mod), CAV_MEAN, CAV_COV)
    cav = _cavity()
    mom, lz = tilted_moments(mod, y, cav)
    assert lz - log_partition(cav) == pytest.approx(lz_s, abs=1e-8)
    np.testing.assert_allclose(mom.mean, mean_s, atol=1e-6)
    np.testing.assert_allclose(mom.cov, cov_s, atol=1e-5)


def test_lognormal_tilted_stable_in_quadrature_order():
    mod = LogNormalObs(500.0)
    y = np.array([52.0, 88.0])
    cav = _cavity()
    m32, lz32 = tilted_moments(mod, y, cav, quad_order=32)
    m64, lz64 = tilted_moments(mod, y, cav, quad_order=64)
    assert lz32 == pytest.approx(lz64, abs=1e-8)
    np.testing.assert_allclose(m32.mean, m64.mean, atol=1e-6)
    np.testing.assert_allclose(m32.cov, m64.cov, atol=1e-5)


@pytest.mark.parametrize("model", [
    GaussianObs(np.array([[100.0, 30.0], [30.0, 225.0]])),
    LogNormalObs(750.0),
])
def test_tilted_moments_are_log_partition_gradient(model):
    # d logZ_t / dh_i = E[x_i];  symmetric J bump gives -E[x_i x_j]
    y = np.array([47.0, 70.0])
    cav = _cavity()

    def lz(h, J):
        _, v = tilted_moments(model, y, GaussianCanonical(h, J),
                              quad_order=48)
        return v

    mom, _ = tilted_moments(model, y, cav, quad_order=48)
    second = mom.cov + np.outer(mom.mean, mom.mean)
    eps = 1e-5
    for i in range(2):
        dh = np.zeros(2)
        dh[i] = eps
        grad = (lz(cav.h + dh, cav.J) - lz(cav.h - dh, cav.J)) / (2 * eps)
        assert grad == pytest.approx(mom.mean[i], rel=1e-5, abs=1e-7)
    for i in range(2):
        for j in range(2):
            # bump S = E_ij + E_ji, so d logZ / deps = -tr(S M2) / 2
            # = -M2_ij whether or not i == j
            S = np.zeros((2, 2))
            S[i, j] += 1.0
            S[j, i] += 1.0
            grad = (lz(cav.h, cav.J + eps * S)
                    - lz(cav.h, cav.J - eps * S)) / (2 * eps)
            assert grad == pytest.approx(-second[i, j], rel=2e-4)


def test_improper_cavity_raises():
    bad = GaussianCanonical(np.zeros(2), np.diag([1.0, -0.5]))
    with pytest.raises(ImproperCavity):
        tilted_moments(LogNormalObs(100.0), np.array([5.0, 5.0]), bad)


def test_quadrature_underflow_raises():
    # cavity mass entirely in the negative orthant kills every node
    cav = moments_to_canonical(
        GaussianMoments(np.array([-50.0, -50.0]), np.eye(2)))
    with pytest.raises(QuadratureUnderflow):
        tilted_moments(LogNormalObs(100.0), np.array([5.0, 5.0]), cav)


def _loss_poly_quadratic(A, c):
    d = len(c)
    terms = []
    for i in range(d):
        for j in range(d):
            e = [0] * d
            e[i] += 1
            e[j] += 1
            terms.append((0.5 * A[i, j], e))
    for i in range(d):
        e = [0] * d
        e[i] = 1
        terms.append((-c[i], e))
    return PolynomialMap.from_terms(d, terms)


def _loss_poly_quartic_dim(d, i, a, b):
    # a (x_i - b)^4 expanded
    terms = []
    for k in range(5):
        e = [0] * d
        e[i] = k
        coeff = a * (-b) ** (4 - k) * {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}[k]
        terms.append((coeff, e))
    return PolynomialMap.from_terms(d, terms)


def test_expected_loss_quadratic_matches_polynomial_expectation():
    A = np.array([[2.0, 0.5], [0.5, 1.5]])
    c = np.array([0.7, -1.2])
    loss = QuadraticLoss(A, c)
    g = GaussianMoments(np.array([1.5, -0.3]),
                        np.array([[0.9, 0.2], [0.2, 1.4]]))
    want = gaussian_expectation(_loss_poly_quadratic(A, c), g)
    assert expected_loss(loss, g, 0.0) == pytest.approx(want, rel=1e-12)


def test_expected_loss_quartic_matches_polynomial_expectation():
    loss = QuarticLoss([0.02, 0.5], [5.0, -1.0],
                       [[0.0, 10.0], [0.0, 10.0]])
    g = GaussianMoments(np.array([6.0, -0.5]),
                        np.array([[0.8, -0.1], [-0.1, 0.6]]))
    want = (gaussian_expectation(_loss_poly_quartic_dim(2, 0, 0.02, 5.0), g)
            + gaussian_expectation(_loss_poly_quartic_dim(2, 1, 0.5, -1.0),
                                   g))
    assert expected_loss(loss, g, 3.0) == pytest.approx(want, rel=1e-12)


def test_quartic_window_gates_loss_and_site():
    loss = QuarticLoss([0.1], [2.0], [[1.0, 4.0]])
    g = GaussianMoments(np.array([3.0]), np.array([[0.5]]))
    assert expected_loss(loss, g, 0.5) == 0.0
    assert expected_loss(loss, g, 1.0) > 0.0
    assert expected_loss(loss, g, 4.0) > 0.0
    site_out = continuous_site_update(loss, g, 5.0)
    assert site_out.h[0] == 0.0 and site_out.J[0, 0] == 0.0
    site_in = continuous_site_update(loss, g, 2.0)
    assert site_in.J[0, 0] > 0.0


@pytest.mark.parametrize("loss,g", [
    (QuadraticLoss(np.array([[2.0, 0.5], [0.5, 1.5]]),
                   np.array([0.7, -1.2])),
     GaussianMoments(np.array([1.5, -0.3]),
                     np.array([[0.9, 0.2], [0.2, 1.4]]))),
    (QuarticLoss([0.02, 0.5], [5.0, -1.0], [[0.0, 10.0], [0.0, 10.0]]),
     GaussianMoments(np.array([6.0, -0.5]),
                     np.array([[0.8, -0.1], [-0.1, 0.6]]))),
])
def test_continuous_site_is_loss_gradient(loss, g):
    # lam_J = 2 d<U>/dC, lam_h = -d<U>/dmean + lam_J mean
    t = 1.0
    site = continuous_site_update(loss, g, t)
    d = g.dim
    eps = 1e-6
    grad_m = np.zeros(d)
    for i in range(d):
        dm = np.zeros(d)
        dm[i] = eps
        grad_m[i] = (expected_loss(loss, GaussianMoments(g.mean + dm, g.cov),
                                   t)
                     - expected_loss(loss,
                                     GaussianMoments(g.mean - dm, g.cov),
                                     t)) / (2 * eps)
    grad_C = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            S = np.zeros((d, d))
            S[i, j] += eps
            S[j, i] += eps
            up = expected_loss(loss, GaussianMoments(g.mean, g.cov + S), t)
            dn = expected_loss(loss, GaussianMoments(g.mean, g.cov - S), t)
            # with G defined by d<U> = tr(G dC), the bump gives 2 G_ij
            grad_C[i, j] = grad_C[j, i] = (up - dn) / (2 * eps) / 2.0
    np.testing.assert_allclose(site.J, 2.0 * grad_C, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(site.h, -grad_m + site.J @ g.mean,
                               rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("loss", [
    QuadraticLoss(np.array([[2.0, 0.5], [0.5, 1.5]]), np.array([0.7, -1.2])),
    # the window edges fall on nodes 2 and 6 of the grid below; the
    # second dimension's window covers no node at all
    QuarticLoss([0.02, 0.5], [5.0, -1.0], [[1.0, 3.0], [7.5, 7.8]]),
], ids=["quadratic", "quartic"])
def test_stacked_loss_equals_per_node(loss):
    rng = np.random.Generator(np.random.Philox(key=31))
    times = np.linspace(0.0, 4.0, 9)
    means = rng.normal(0.0, 3.0, (9, 2))
    M = rng.normal(size=(9, 2, 2))
    covs = M @ M.transpose(0, 2, 1) + np.eye(2)
    path = MarginalPath(times, means, covs)
    h, J = continuous_site_update(loss, path, times)
    u = expected_loss(loss, path, times)
    assert h.shape == (9, 2) and J.shape == (9, 2, 2) and u.shape == (9,)
    for k, t in enumerate(times):
        site = continuous_site_update(loss, path.node(k), t)
        assert np.array_equal(h[k], site.h) and np.array_equal(J[k], site.J)
        assert u[k] == expected_loss(loss, path.node(k), t)
    if isinstance(loss, QuarticLoss):
        # both sides of each window edge are exercised
        assert (J[:, 0, 0] == 0.0).any() and (J[:, 0, 0] > 0.0).any()
        assert (u == 0.0).any() and (u > 0.0).any()


def test_zero_loss_site_and_expectation():
    g = GaussianMoments(np.array([1.0, 2.0]), np.eye(2))
    assert expected_loss(None, g, 0.0) == 0.0
    site = continuous_site_update(None, g, 0.0)
    assert (site.h == 0).all() and (site.J == 0).all()


def test_observation_container():
    o = Observation(1.5, [2.0, 3.0])
    assert o.time == 1.5
    assert o.value.shape == (2,)
