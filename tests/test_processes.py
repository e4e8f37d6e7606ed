"""Polynomial maps, jump-process specs, and the diffusion approximation."""

import math

import numpy as np
import pytest

from epsde.processes import (
    MjpSpec,
    PolynomialMap,
    SdeSpec,
    cle_from_mjp,
    evaluate_polynomial,
    linear_sde,
    lotka_volterra,
)


def naive_eval(terms, x):
    """Straightforward reference evaluation of a term list."""
    total = 0.0
    for c, e in terms:
        v = c
        for xi, k in zip(x, e):
            v *= math.pow(xi, k)
        total += v
    return total


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_constant_polynomial():
    p = PolynomialMap.constant(2, 3.5)
    assert evaluate_polynomial(p, [10.0, -2.0]) == 3.5
    assert p.degree == 0


def test_zero_polynomial():
    p = PolynomialMap.zero(3)
    assert evaluate_polynomial(p, [1.0, 2.0, 3.0]) == 0.0
    assert p.n_terms == 0


def test_simple_quadratic():
    # 2 x1 x2 - x1^2 at (3, 4) = 24 - 9
    p = PolynomialMap.from_terms(2, [(2.0, (1, 1)), (-1.0, (2, 0))])
    assert evaluate_polynomial(p, [3.0, 4.0]) == pytest.approx(15.0)


def test_random_polynomials_match_naive_evaluation():
    rng = np.random.default_rng(21)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        terms = [(float(rng.normal()),
                  tuple(int(k) for k in rng.integers(0, 4, size=d)))
                 for _ in range(int(rng.integers(1, 8)))]
        p = PolynomialMap.from_terms(d, terms)
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, size=d)
            assert evaluate_polynomial(p, x) == pytest.approx(
                naive_eval(terms, x), rel=1e-12, abs=1e-12)


def test_duplicate_terms_merge_and_zero_terms_drop():
    p = PolynomialMap.from_terms(1, [(1.0, (2,)), (2.0, (2,)), (0.0, (1,))])
    assert p.n_terms == 1
    assert p.terms() == [(3.0, (2,))]
    q = PolynomialMap.from_terms(1, [(1.5, (2,)), (1.5, (2,))])
    assert p.equal_terms(q)


def test_batched_evaluation_matches_pointwise():
    p = PolynomialMap.from_terms(2, [(1.0, (1, 1)), (0.5, (0, 2))])
    pts = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 0.0]])
    batch = evaluate_polynomial(p, pts)
    assert batch.shape == (3,)
    for k in range(3):
        assert batch[k] == pytest.approx(evaluate_polynomial(p, pts[k]))


def test_derivative_and_monomial_product():
    # d/dx1 (x1^2 x2) = 2 x1 x2; (x1^2 x2) * x2 = x1^2 x2^2
    p = PolynomialMap.from_terms(2, [(1.0, (2, 1))])
    dp = p.derivative(0)
    assert dp.terms() == [(2.0, (1, 1))]
    q = p.mul_monomial(1)
    assert q.terms() == [(1.0, (2, 2))]
    assert p.derivative(1).terms() == [(1.0, (2, 0))]


# ---------------------------------------------------------------------------
# predator-prey jump process and its diffusion approximation


def test_lotka_volterra_rates_and_stoichiometry():
    m = lotka_volterra()
    assert m.n_reactions == 4
    assert np.array_equal(m.stoich, [[1, 1, -1, 0], [0, 0, 1, -1]])
    g = [evaluate_polynomial(r, [100.0, 50.0]) for r in m.rates]
    assert g == pytest.approx([5.0, 30.0, 20.0, 30.0])
    # predation converts one prey into one predator: total count conserved
    assert m.stoich[:, 2].sum() == 0


def test_cle_drift_expansion_by_hand():
    # S g(x) with S = [[1,1,-1,0],[0,0,1,-1]]:
    #   drift1 = k0 + k1 n1 - k2 n1 n2
    #   drift2 = k2 n1 n2 - k3 n2
    s = cle_from_mjp(lotka_volterra(5.0, 0.3, 0.004, 0.6))
    expected1 = PolynomialMap.from_terms(
        2, [(5.0, (0, 0)), (0.3, (1, 0)), (-0.004, (1, 1))])
    expected2 = PolynomialMap.from_terms(
        2, [(0.004, (1, 1)), (-0.6, (0, 1))])
    assert s.drift[0].equal_terms(expected1)
    assert s.drift[1].equal_terms(expected2)


def test_cle_diffusion_expansion_by_hand():
    # S diag(g) S^T:
    #   b11 = k0 + k1 n1 + k2 n1 n2,  b12 = -k2 n1 n2,  b22 = k2 n1 n2 + k3 n2
    s = cle_from_mjp(lotka_volterra(5.0, 0.3, 0.004, 0.6))
    b11 = PolynomialMap.from_terms(
        2, [(5.0, (0, 0)), (0.3, (1, 0)), (0.004, (1, 1))])
    b12 = PolynomialMap.from_terms(2, [(-0.004, (1, 1))])
    b22 = PolynomialMap.from_terms(2, [(0.004, (1, 1)), (0.6, (0, 1))])
    assert s.diffusion[0][0].equal_terms(b11)
    assert s.diffusion[0][1].equal_terms(b12)
    assert s.diffusion[1][0].equal_terms(b12)
    assert s.diffusion[1][1].equal_terms(b22)


def test_cle_diffusion_matches_numeric_outer_product():
    rng = np.random.default_rng(31)
    m = lotka_volterra()
    s = cle_from_mjp(m)
    S = m.stoich.astype(float)
    for _ in range(50):
        x = rng.uniform(0.0, 300.0, size=2)
        g = np.array([evaluate_polynomial(r, x) for r in m.rates])
        b_ref = S @ np.diag(g) @ S.T
        b = np.array([[evaluate_polynomial(s.diffusion[i][j], x)
                       for j in range(2)] for i in range(2)])
        assert np.max(np.abs(b - b_ref)) <= 1e-10 * max(1.0, np.max(np.abs(b_ref)))
        a_ref = S @ g
        a = np.array([evaluate_polynomial(s.drift[i], x) for i in range(2)])
        assert np.max(np.abs(a - a_ref)) <= 1e-10 * max(1.0, np.max(np.abs(a_ref)))


def test_single_birth_reaction_cle():
    # 0 -> X at constant rate k: drift = k, diffusion = k
    m = MjpSpec(1, np.array([[1]]), (PolynomialMap.constant(1, 2.5),))
    s = cle_from_mjp(m)
    assert s.drift[0].terms() == [(2.5, (0,))]
    assert s.diffusion[0][0].terms() == [(2.5, (0,))]
    assert s.source is m


def test_no_reactions_gives_zero_fields():
    m = MjpSpec(2, np.zeros((2, 0), dtype=int), ())
    s = cle_from_mjp(m)
    assert all(p.n_terms == 0 for p in s.drift)
    assert all(s.diffusion[i][j].n_terms == 0 for i in range(2) for j in range(2))


# ---------------------------------------------------------------------------
# linear SDE builder and spec validation


def test_linear_sde_fields():
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    b = np.array([[1.0, 0.2], [0.2, 2.0]])
    s = linear_sde(A, b)
    assert evaluate_polynomial(s.drift[0], [2.0, 4.0]) == pytest.approx(0.0)
    assert evaluate_polynomial(s.drift[1], [2.0, 4.0]) == pytest.approx(-8.0)
    assert evaluate_polynomial(s.diffusion[0][1], [9.0, 9.0]) == pytest.approx(0.2)


def test_asymmetric_diffusion_rejected():
    z = PolynomialMap.zero(2)
    c1 = PolynomialMap.constant(2, 1.0)
    c2 = PolynomialMap.constant(2, 2.0)
    with pytest.raises(ValueError):
        SdeSpec(2, (z, z), ((c1, c1), (c2, c1)))


def test_dimension_mismatches_rejected():
    z1 = PolynomialMap.zero(1)
    c1 = PolynomialMap.constant(1, 1.0)
    with pytest.raises(ValueError):
        SdeSpec(2, (z1, z1), ((c1, c1), (c1, c1)))
    with pytest.raises(ValueError):
        MjpSpec(1, np.array([[1, 1]]), (PolynomialMap.constant(1, 1.0),))
