"""Exponential-family parameter maps: conversions, partition, gradients."""

import numpy as np
import pytest

from epsde.errors import NonPositiveDefinite
from epsde.gaussian import (
    LOG_2PI,
    GaussianCanonical,
    GaussianMoments,
    RepairCounter,
    add_site,
    canonical_to_moments,
    log_partition,
    moments_to_canonical,
    repair_psd,
)

from _oracles import gauss_jordan_inverse, mean_params, validate_moments


def random_spd(rng, d, scale=1.0):
    M = rng.normal(size=(d, d))
    return scale * (M @ M.T + d * np.eye(d))


# ---------------------------------------------------------------------------
# conversions


def test_identity_roundtrip_exact():
    m = GaussianMoments(np.zeros(2), np.eye(2))
    c = moments_to_canonical(m)
    assert np.allclose(c.h, 0.0)
    assert np.allclose(c.J, np.eye(2))
    back = canonical_to_moments(c)
    assert np.allclose(back.mean, m.mean)
    assert np.allclose(back.cov, m.cov)


def test_canonical_matches_elimination_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        mean = rng.normal(size=d)
        cov = random_spd(rng, d)
        c = moments_to_canonical(GaussianMoments(mean, cov))
        J_ref = gauss_jordan_inverse(cov)
        assert np.max(np.abs(c.J - J_ref)) <= 1e-10 * np.max(np.abs(J_ref))
        assert np.max(np.abs(c.h - J_ref @ mean)) <= 1e-8


def test_roundtrip_many_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        mean = 10.0 * rng.normal(size=d)
        cov = random_spd(rng, d, scale=float(rng.uniform(0.01, 100.0)))
        m = GaussianMoments(mean, cov)
        back = canonical_to_moments(moments_to_canonical(m))
        assert np.max(np.abs(back.mean - mean)) <= 1e-10 * max(1.0, np.max(np.abs(mean)))
        assert np.max(np.abs(back.cov - cov)) <= 1e-10 * np.max(np.abs(cov))


def test_non_positive_definite_raises():
    bad = GaussianMoments(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NonPositiveDefinite):
        moments_to_canonical(bad)
    with pytest.raises(NonPositiveDefinite):
        canonical_to_moments(GaussianCanonical(np.zeros(2), np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# log partition function


def test_log_partition_standard_normal():
    c = GaussianCanonical(np.zeros(1), np.eye(1))
    assert log_partition(c) == pytest.approx(0.5 * LOG_2PI, abs=1e-14)


def test_log_partition_one_dimensional_closed_form():
    # exp(h x - j x^2 / 2) integrates to sqrt(2 pi / j) exp(h^2 / (2 j))
    h, j = 1.0, 2.0
    c = GaussianCanonical(np.array([h]), np.array([[j]]))
    expected = h ** 2 / (2 * j) - 0.5 * np.log(j) + 0.5 * LOG_2PI
    assert log_partition(c) == pytest.approx(expected, abs=1e-14)


def test_log_partition_gradient_is_moment_map():
    # d/dh log Z = mean, and for a symmetric step S in J the directional
    # derivative equals trace(G S) with G = -(cov + mean mean^T)/2.
    rng = np.random.default_rng(3)
    eps = 1e-6
    for _ in range(20):
        d = int(rng.integers(1, 4))
        cov = random_spd(rng, d)
        mean = rng.normal(size=d)
        c = moments_to_canonical(GaussianMoments(mean, cov))
        mu1, mu2 = mean_params(GaussianMoments(mean, cov))
        for i in range(d):
            dh = np.zeros(d)
            dh[i] = eps
            fd = (log_partition(GaussianCanonical(c.h + dh, c.J))
                  - log_partition(GaussianCanonical(c.h - dh, c.J))) / (2 * eps)
            assert fd == pytest.approx(mu1[i], rel=1e-5, abs=1e-7)
        for i in range(d):
            for j in range(i, d):
                S = np.zeros((d, d))
                S[i, j] += 1.0
                S[j, i] += 1.0
                fd = (log_partition(GaussianCanonical(c.h, c.J + eps * S))
                      - log_partition(GaussianCanonical(c.h, c.J - eps * S))
                      ) / (2 * eps)
                expected = float(np.sum(mu2 * S))
                assert fd == pytest.approx(expected, rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------------------
# site arithmetic


def test_add_site_zero_is_identity():
    rng = np.random.default_rng(5)
    cov = random_spd(rng, 2)
    c = moments_to_canonical(GaussianMoments(rng.normal(size=2), cov))
    zero = GaussianCanonical(np.zeros(2), np.zeros((2, 2)))
    out = add_site(c, zero)
    assert np.array_equal(out.h, c.h)
    assert np.array_equal(out.J, c.J)


def test_add_site_then_subtract_roundtrips():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        c = GaussianCanonical(rng.normal(size=d), random_spd(rng, d))
        site_J = rng.normal(size=(d, d))
        site_J = 0.5 * (site_J + site_J.T)
        site = GaussianCanonical(rng.normal(size=d), site_J)
        back = add_site(add_site(c, site), site, scale=-1.0)
        assert np.max(np.abs(back.h - c.h)) <= 1e-14 * max(1.0, np.max(np.abs(c.h)))
        assert np.max(np.abs(back.J - c.J)) <= 1e-13 * np.max(np.abs(c.J))


def test_add_site_commutes_and_associates():
    rng = np.random.default_rng(8)
    c = GaussianCanonical(rng.normal(size=3), random_spd(rng, 3))
    s1 = GaussianCanonical(rng.normal(size=3), rng.normal(size=(3, 3)))
    s2 = GaussianCanonical(rng.normal(size=3), rng.normal(size=(3, 3)))
    a = add_site(add_site(c, s1), s2)
    b = add_site(add_site(c, s2), s1)
    assert np.max(np.abs(a.h - b.h)) <= 1e-13
    assert np.max(np.abs(a.J - b.J)) <= 1e-13


# ---------------------------------------------------------------------------
# PSD repair


def test_repair_psd_leaves_good_matrices_alone():
    counter = RepairCounter()
    mean = np.array([1.0, 2.0])
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    m2, c2 = repair_psd(mean, cov, 1e-8, counter)
    assert counter.count == 0
    assert np.array_equal(c2, cov)


def test_repair_psd_clamps_negative_eigenvalue():
    counter = RepairCounter()
    cov = np.array([[1.0, 0.0], [0.0, -0.5]])
    _, c2 = repair_psd(np.zeros(2), cov, 1e-8, counter)
    assert counter.count == 1
    w = np.linalg.eigvalsh(c2)
    assert w[0] >= 1e-8 * (1 - 1e-12)
    # the healthy directions are untouched
    assert c2[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_repair_psd_accept_test_and_clamp_at_the_threshold():
    eps = 1e-8
    R = np.array([[0.6, -0.8], [0.8, 0.6]])   # a rotation
    counter = RepairCounter()
    healthy = R @ np.diag([2.0 * eps, 3.0]) @ R.T
    healthy = 0.5 * (healthy + healthy.T)
    _, c2 = repair_psd(np.zeros(2), healthy, eps, counter)
    assert counter.count == 0 and np.array_equal(c2, healthy)
    sick = R @ np.diag([-1e-6, 3.0]) @ R.T
    _, c2 = repair_psd(np.zeros(2), sick, eps, counter)
    assert counter.count == 1
    w = np.linalg.eigvalsh(c2)
    assert w[0] == pytest.approx(eps, rel=1e-6)
    assert w[1] == pytest.approx(3.0, rel=1e-12)


def test_repair_psd_symmetrizes():
    cov = np.array([[1.0, 0.2], [0.1, 1.0]])
    _, c2 = repair_psd(np.zeros(2), cov, 1e-8)
    assert np.max(np.abs(c2 - c2.T)) == 0.0


def test_moments_validate_flags_asymmetry():
    m = GaussianMoments(np.zeros(2), np.array([[1.0, 0.2], [0.1, 1.0]]))
    with pytest.raises(ValueError):
        validate_moments(m)
