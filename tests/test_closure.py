"""Moment-closure checks.

Layered oracles: Gaussian expectations are validated against hand-worked
Isserlis formulas and Monte Carlo; the compiled forward/smoothing
right-hand sides are validated against naive term-by-term expectation
sums, against the exact linear-Gaussian forms, and at known fixed
points.
"""

import numpy as np
import pytest

from epsde.closure import (
    MAX_DEGREE,
    closed_rhs,
    forward_rhs,
    gaussian_expectation,
    pack,
    smoothing_rhs,
    unpack,
)
from epsde.gaussian import GaussianMoments
from epsde.processes import (
    PolynomialMap,
    SdeSpec,
    cle_from_mjp,
    linear_sde,
    lotka_volterra,
)

# a stable d=6 OU process with a dense diffusion matrix
D6 = 6
A6 = -np.eye(D6) + 0.3 * (np.eye(D6, k=1) + np.eye(D6, k=-1))
B6 = 0.5 * np.eye(D6) + 0.1 * np.ones((D6, D6))


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _random_spd(rng, d, scale=1.0):
    M = rng.standard_normal((d, d))
    return scale * (M @ M.T + d * np.eye(d))


def _mono(d, expo, coeff=1.0):
    return PolynomialMap.from_terms(d, [(coeff, expo)])


def test_expectation_constant_and_linear():
    m = np.array([0.7, -1.3, 2.1])
    C = np.array([[1.0, 0.2, -0.1],
                  [0.2, 0.8, 0.3],
                  [-0.1, 0.3, 1.5]])
    g = GaussianMoments(m, C)
    assert gaussian_expectation(PolynomialMap.constant(3, 4.25), g) == 4.25
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        assert gaussian_expectation(_mono(3, e), g) == pytest.approx(m[i])
    for i in range(3):
        for j in range(3):
            e = [0, 0, 0]
            e[i] += 1
            e[j] += 1
            want = C[i, j] + m[i] * m[j]
            assert gaussian_expectation(_mono(3, e), g) == pytest.approx(want)


def test_expectation_matches_hand_isserlis():
    # E[x^2 y^2] and E[x^3 y] expanded by hand via the pairing rule
    rng = _rng(101)
    for _ in range(10):
        m1, m2 = rng.standard_normal(2)
        C = _random_spd(rng, 2, 0.5)
        c11, c12, c22 = C[0, 0], C[0, 1], C[1, 1]
        g = GaussianMoments(np.array([m1, m2]), C)

        want22 = (m1 ** 2 * m2 ** 2 + m1 ** 2 * c22 + m2 ** 2 * c11
                  + 4 * m1 * m2 * c12 + c11 * c22 + 2 * c12 ** 2)
        got22 = gaussian_expectation(_mono(2, [2, 2]), g)
        assert got22 == pytest.approx(want22, rel=1e-12)

        want31 = (m1 ** 3 * m2 + 3 * m1 ** 2 * c12 + 3 * m1 * m2 * c11
                  + 3 * c11 * c12)
        got31 = gaussian_expectation(_mono(2, [3, 1]), g)
        assert got31 == pytest.approx(want31, rel=1e-12)


def test_expectation_matches_monte_carlo():
    m = np.array([0.8, -0.5, 1.4])
    C = np.array([[1.3, 0.4, -0.2],
                  [0.4, 0.9, 0.25],
                  [-0.2, 0.25, 1.1]])
    p = PolynomialMap.from_terms(3, [
        (0.7, [1, 2, 1]),
        (1.3, [4, 0, 0]),
        (-2.0, [0, 0, 3]),
    ])
    want = gaussian_expectation(p, GaussianMoments(m, C))

    rng = _rng(202)
    L = np.linalg.cholesky(C)
    total = 0.0
    total_sq = 0.0
    n_chunks, chunk = 20, 500_000
    for _ in range(n_chunks):
        x = m + rng.standard_normal((chunk, 3)) @ L.T
        vals = (0.7 * x[:, 0] * x[:, 1] ** 2 * x[:, 2]
                + 1.3 * x[:, 0] ** 4 - 2.0 * x[:, 2] ** 3)
        total += vals.sum()
        total_sq += (vals ** 2).sum()
    n = n_chunks * chunk
    mc_mean = total / n
    mc_se = np.sqrt((total_sq / n - mc_mean ** 2) / n)
    assert abs(want - mc_mean) < 4.0 * mc_se


def test_expectation_degree_cap():
    g = GaussianMoments(np.zeros(1), np.eye(1))
    ok = _mono(1, [MAX_DEGREE])
    gaussian_expectation(ok, g)
    too_high = _mono(1, [MAX_DEGREE + 1])
    with pytest.raises(ValueError):
        gaussian_expectation(too_high, g)


def test_forward_rhs_exact_on_linear_sde():
    A = np.array([[-1.0, 0.4], [0.2, -1.5]])
    b = np.array([[0.9, 0.1], [0.1, 0.7]])
    spec = linear_sde(A, b)
    rng = _rng(303)
    for _ in range(5):
        m = rng.standard_normal(2)
        C = _random_spd(rng, 2)
        dm, dC = forward_rhs(spec, GaussianMoments(m, C))
        np.testing.assert_allclose(dm, A @ m, atol=1e-12)
        np.testing.assert_allclose(dC, A @ C + C @ A.T + b, atol=1e-12)


def _naive_forward(spec, g):
    # direct expectation of each defining term of the forward equations
    d = spec.dim
    m = g.mean

    def E(p):
        return gaussian_expectation(p, g)

    dm = np.array([E(spec.drift[i]) for i in range(d)])
    dC = np.array([[E(spec.drift[i].mul_monomial(j))
                    + E(spec.drift[j].mul_monomial(i))
                    - m[i] * E(spec.drift[j]) - m[j] * E(spec.drift[i])
                    + E(spec.diffusion[i][j])
                    for j in range(d)] for i in range(d)])
    return dm, dC


def test_forward_rhs_matches_naive_expectations():
    # compiled block vs direct expectation of each defining term
    spec = cle_from_mjp(lotka_volterra())
    m = np.array([80.0, 120.0])
    C = np.array([[90.0, -20.0], [-20.0, 160.0]])
    g = GaussianMoments(m, C)
    dm, dC = forward_rhs(spec, g)
    want_m, want_C = _naive_forward(spec, g)
    for i in range(2):
        assert dm[i] == pytest.approx(want_m[i], rel=1e-12)
    for i in range(2):
        for j in range(2):
            assert dC[i, j] == pytest.approx(want_C[i, j], rel=1e-10,
                                             abs=1e-8)


def test_smoothing_rhs_exact_on_linear_sde():
    # constant diffusion reduces to the continuous-time RTS form
    A = np.array([[-0.7, 0.3], [-0.1, -1.2]])
    b = np.array([[0.8, 0.2], [0.2, 1.1]])
    spec = linear_sde(A, b)
    rng = _rng(404)
    for _ in range(5):
        m_s = rng.standard_normal(2)
        C_s = _random_spd(rng, 2)
        m_f = rng.standard_normal(2)
        C_f = _random_spd(rng, 2)
        P = np.linalg.inv(C_f)
        dm, dC = smoothing_rhs(spec, GaussianMoments(m_s, C_s),
                               GaussianMoments(m_f, C_f))
        G = A + b @ P
        np.testing.assert_allclose(dm, A @ m_s + b @ P @ (m_s - m_f),
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(dC, G @ C_s + C_s @ G.T - b,
                                   rtol=1e-10, atol=1e-10)


def test_smoothing_rhs_zero_diffusion_matches_forward():
    A = np.array([[-0.5, 0.2], [0.1, -0.9]])
    spec = linear_sde(A, np.zeros((2, 2)))
    rng = _rng(505)
    m_s = rng.standard_normal(2)
    C_s = _random_spd(rng, 2)
    fw = GaussianMoments(rng.standard_normal(2), _random_spd(rng, 2))
    dm_f, dC_f = forward_rhs(spec, GaussianMoments(m_s, C_s))
    dm_s, dC_s = smoothing_rhs(spec, GaussianMoments(m_s, C_s), fw)
    np.testing.assert_allclose(dm_s, dm_f, atol=1e-12)
    np.testing.assert_allclose(dC_s, dC_f, atol=1e-12)


def test_smoothing_rhs_stationary_fixed_point():
    a, q = 0.8, 1.3
    spec = linear_sde([[-a]], [[q]])
    stat = GaussianMoments(np.zeros(1), np.array([[q / (2 * a)]]))
    dm_f, dC_f = forward_rhs(spec, stat)
    assert abs(dm_f[0]) < 1e-14 and abs(dC_f[0, 0]) < 1e-14
    dm_s, dC_s = smoothing_rhs(spec, stat, stat)
    assert abs(dm_s[0]) < 1e-14 and abs(dC_s[0, 0]) < 1e-13


def _naive_smoothing(spec, g_s, m_f, C_f):
    # direct transcription: d<f>/dt = sum_j <a_j d_j f>
    #   - sum_jk <d_j f d_k b_jk> - (1/2) sum_jk <b_jk d_jd_k f>
    #   - sum_jk <b_jk d_j f d_k log q_fw>,  built with single expectations
    d = spec.dim
    P = np.linalg.inv(C_f)
    w = P @ m_f
    m_s = g_s.mean

    def E(p):
        return gaussian_expectation(p, g_s)

    def E_gradlog(p, k):
        # <p(x) * d_k log q_fw(x)> = -sum_r P_kr <p x_r> + w_k <p>
        return -sum(P[k, r] * E(p.mul_monomial(r)) for r in range(d)) \
            + w[k] * E(p)

    div = []
    for i in range(d):
        s = PolynomialMap.zero(d)
        for k in range(d):
            s = s.add(spec.diffusion[i][k].derivative(k))
        div.append(s)

    dm = np.zeros(d)
    for i in range(d):
        dm[i] = E(spec.drift[i]) - E(div[i]) \
            - sum(E_gradlog(spec.diffusion[i][k], k) for k in range(d))

    dxx = np.zeros((d, d))
    for p_ in range(d):
        for q in range(d):
            val = (E(spec.drift[p_].mul_monomial(q))
                   + E(spec.drift[q].mul_monomial(p_))
                   - E(div[p_].mul_monomial(q))
                   - E(div[q].mul_monomial(p_))
                   - E(spec.diffusion[p_][q]))
            for k in range(d):
                val -= E_gradlog(spec.diffusion[p_][k].mul_monomial(q), k)
                val -= E_gradlog(spec.diffusion[q][k].mul_monomial(p_), k)
            dxx[p_, q] = val
    dC = dxx - np.outer(dm, m_s) - np.outer(m_s, dm)
    return dm, dC


def test_smoothing_rhs_matches_naive_on_state_dependent_diffusion():
    spec = cle_from_mjp(lotka_volterra())
    m_s = np.array([90.0, 110.0])
    C_s = np.array([[100.0, -25.0], [-25.0, 150.0]])
    m_f = np.array([105.0, 95.0])
    C_f = np.array([[130.0, 10.0], [10.0, 180.0]])
    g_s = GaussianMoments(m_s, C_s)
    dm, dC = smoothing_rhs(spec, g_s, GaussianMoments(m_f, C_f))
    dm_n, dC_n = _naive_smoothing(spec, g_s, m_f, C_f)
    np.testing.assert_allclose(dm, dm_n, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(dC, dC_n, rtol=1e-9, atol=1e-7)


def _assert_close_to_largest(got, want, rel):
    np.testing.assert_allclose(got, want, rtol=rel,
                               atol=rel * np.abs(want).max())


def test_rhs_matches_naive_on_d6_linear_sde():
    spec = linear_sde(A6, B6)
    rng = _rng(707)
    for _ in range(2):
        m_s = rng.standard_normal(D6)
        C_s = _random_spd(rng, D6, 0.3)
        m_f = rng.standard_normal(D6)
        C_f = _random_spd(rng, D6, 0.3)
        g_s = GaussianMoments(m_s, C_s)
        for got, want in zip(forward_rhs(spec, g_s),
                             _naive_forward(spec, g_s)):
            _assert_close_to_largest(got, want, 1e-12)
        got = smoothing_rhs(spec, g_s, GaussianMoments(m_f, C_f))
        for got_, want in zip(got, _naive_smoothing(spec, g_s, m_f, C_f)):
            _assert_close_to_largest(got_, want, 1e-12)


def _quadratic_diffusion_sde():
    # b(x) quadratic in x: the smoothing terms <b x x> reach degree 4, so
    # the compiled blocks raise means to powers of 3 and 4
    def poly(*terms):
        return PolynomialMap.from_terms(2, terms)

    drift = (poly((1.0, [1, 0]), (-0.3, [1, 1])),
             poly((0.2, [1, 1]), (-0.8, [0, 1]), (0.1, [0, 0])))
    b01 = poly((0.05, [1, 1]))
    diffusion = ((poly((0.3, [2, 0]), (0.2, [0, 0])), b01),
                 (b01, poly((0.4, [0, 2]), (0.1, [1, 0]))))
    return SdeSpec(2, drift, diffusion)


def test_rhs_matches_naive_on_quadratic_diffusion():
    spec = _quadratic_diffusion_sde()
    m_s = np.array([1.3, 0.7])
    C_s = np.array([[0.4, -0.1], [-0.1, 0.25]])
    m_f = np.array([1.1, 0.9])
    C_f = np.array([[0.5, 0.05], [0.05, 0.3]])
    g_s = GaussianMoments(m_s, C_s)
    for got, want in zip(forward_rhs(spec, g_s), _naive_forward(spec, g_s)):
        _assert_close_to_largest(got, want, 1e-12)
    got = smoothing_rhs(spec, g_s, GaussianMoments(m_f, C_f))
    for got_, want in zip(got, _naive_smoothing(spec, g_s, m_f, C_f)):
        _assert_close_to_largest(got_, want, 1e-12)


@pytest.mark.parametrize("spec", [cle_from_mjp(lotka_volterra()),
                                  linear_sde(A6, B6),
                                  _quadratic_diffusion_sde()],
                         ids=["lv", "linear-d6", "quadratic-diffusion"])
def test_forward_batch_rows_equal_single_points(spec):
    rhs = closed_rhs(spec)
    d = spec.dim
    rng = _rng(808)
    means = rng.uniform(0.5, 2.0, (7, d))
    covs = np.stack([_random_spd(rng, d, 0.1) for _ in range(7)])
    dms, dCs = unpack(rhs.forward_batch(pack(means, covs)), d)
    assert dms.shape == (7, d) and dCs.shape == (7, d, d)
    for i in range(7):
        dm, dC = unpack(rhs.forward(pack(means[i], covs[i])), d)
        assert np.array_equal(dms[i], dm) and np.array_equal(dCs[i], dC)


@pytest.mark.parametrize("d", [1, 2, 6])
def test_unpack_inverts_pack(d):
    rng = _rng(909 + d)
    mean = rng.standard_normal(d)
    cov = _random_spd(rng, d)
    cov = 0.5 * (cov + cov.T)
    y = pack(mean, cov)
    assert y.shape == (d + d * (d + 1) // 2,)
    m2, c2 = unpack(y, d)
    assert np.array_equal(m2, mean) and np.array_equal(c2, cov)
    means, covs = np.stack([mean, -mean]), np.stack([cov, 2.0 * cov])
    m2, c2 = unpack(pack(means, covs), d)
    assert np.array_equal(m2, means) and np.array_equal(c2, covs)


def test_forward_rhs_on_brownian_motion():
    # zero drift and constant diffusion: every forward monomial is the
    # constant 1, so the forward block holds no variable factor at all
    rhs = closed_rhs(linear_sde([[0.0]], [[1.0]]))
    dm, dC = unpack(rhs.forward(pack(np.array([0.7]), np.array([[2.0]]))),
                    1)
    assert np.array_equal(dm, [0.0]) and np.array_equal(dC, [[1.0]])
    means = np.array([[0.7], [-1.5], [3.0]])
    covs = np.array([[[2.0]], [[0.1]], [[5.0]]])
    dms, dCs = unpack(rhs.forward_batch(pack(means, covs)), 1)
    for i in range(3):
        dm, dC = unpack(rhs.forward(pack(means[i], covs[i])), 1)
        assert np.array_equal(dms[i], dm) and np.array_equal(dCs[i], dC)
    assert np.array_equal(dms, np.zeros((3, 1)))
    assert np.array_equal(dCs, np.ones((3, 1, 1)))


def _array_bytes(obj, seen):
    # bytes of every numpy buffer reachable from obj's attributes
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.base is None else _array_bytes(obj.base,
                                                                 seen)
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x, seen) for x in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(x, seen) for x in obj.values())
    if hasattr(obj, "__dict__"):
        return _array_bytes(vars(obj), seen)
    return 0


def test_compiled_rhs_memory_stays_small_at_d6():
    assert _array_bytes(closed_rhs(linear_sde(A6, B6)), set()) < 1_000_000


def test_smoothing_dcov_symmetric():
    spec = cle_from_mjp(lotka_volterra())
    rng = _rng(606)
    for _ in range(5):
        m_s = rng.uniform(50.0, 150.0, 2)
        C_s = _random_spd(rng, 2, 30.0)
        m_f = rng.uniform(50.0, 150.0, 2)
        C_f = _random_spd(rng, 2, 30.0)
        dm, dC = smoothing_rhs(spec, GaussianMoments(m_s, C_s),
                               GaussianMoments(m_f, C_f))
        np.testing.assert_allclose(dC, dC.T, atol=0.0)


def test_compiled_rhs_is_cached_per_spec():
    spec = cle_from_mjp(lotka_volterra())
    assert closed_rhs(spec) is closed_rhs(spec)
