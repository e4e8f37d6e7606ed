"""Simulator checks.

Statistical oracles: pure-birth paths are Poisson, short-time jump
increments have mean drift*h and covariance diffusion*h, Euler-Maruyama
reproduces the known stationary law of a linear process, and observation
samplers reproduce their defining moments.  All randomized assertions
use fixed seeds and tolerances of at least four standard errors.
"""

import numpy as np
import pytest

from epsde.errors import DivergedPath, NegativeRate
from epsde.likelihoods import GaussianObs, LogNormalObs
from epsde.processes import (
    MjpSpec,
    PolynomialMap,
    SdeSpec,
    cle_from_mjp,
    evaluate_polynomial,
    linear_sde,
    lotka_volterra,
)
from epsde.simulate import (
    DiffusionTrajectory,
    JumpTrajectory,
    euler_maruyama,
    euler_maruyama_ensemble,
    gillespie,
    observe_states,
    sample_observations,
)

from _oracles import gillespie_ensemble


def _pure_birth(rate=4.0):
    return MjpSpec(1, np.array([[1]]), (PolynomialMap.constant(1, rate),),
                   params={})


def test_zero_rates_absorb_immediately():
    mjp = MjpSpec(1, np.array([[1]]), (PolynomialMap.zero(1),), params={})
    traj = gillespie(mjp, (7,), 0.0, 10.0, seed=1)
    assert len(traj.times) == 1
    assert traj.states[0, 0] == 7
    grid = np.array([0.0, 5.0, 10.0])
    ens = gillespie_ensemble(mjp, (7,), 0.0, 10.0, grid, n_paths=4, seed=2)
    assert (ens == 7).all()


def test_pure_birth_counts_are_poisson():
    # N(T) - n0 ~ Poisson(rate * T)
    rate, T, n0, n_paths = 4.0, 5.0, 3, 3000
    lam = rate * T
    ens = gillespie_ensemble(_pure_birth(rate), (n0,), 0.0, T,
                             np.array([T]), n_paths=n_paths, seed=3)
    counts = ens[:, 0, 0].astype(float) - n0
    se_mean = np.sqrt(lam / n_paths)
    assert abs(counts.mean() - lam) < 4 * se_mean
    se_var = lam * np.sqrt((2 + 1 / lam) / n_paths)
    assert abs(counts.var(ddof=1) - lam) < 4 * se_var


def test_pure_birth_waiting_times_exponential():
    rate = 4.0
    traj = gillespie(_pure_birth(rate), (0,), 0.0, 500.0, seed=4)
    waits = np.diff(traj.times)
    n = len(waits)
    assert n > 1500
    se = (1 / rate) / np.sqrt(n)
    assert abs(waits.mean() - 1 / rate) < 4 * se


def test_ensemble_agrees_with_single_paths():
    lv = lotka_volterra()
    singles = np.array([gillespie(lv, (100, 100), 0.0, 1.0, seed=100 + s)
                        .state_at(1.0) for s in range(200)], dtype=float)
    ens = gillespie_ensemble(lv, (100, 100), 0.0, 1.0, np.array([1.0]),
                             n_paths=2000, seed=5)[:, 0, :].astype(float)
    for k in range(2):
        se = np.sqrt(singles[:, k].var(ddof=1) / 200
                     + ens[:, k].var(ddof=1) / 2000)
        assert abs(singles[:, k].mean() - ens[:, k].mean()) < 4 * se


def test_short_time_increments_match_drift_and_diffusion():
    # from a point mass, E[dx]/h -> drift and Cov[dx]/h -> diffusion
    lv = lotka_volterra()
    sde = cle_from_mjp(lv)
    n0 = np.array([100.0, 100.0])
    h, n_paths = 0.01, 20_000
    ens = gillespie_ensemble(lv, (100, 100), 0.0, h, np.array([h]),
                             n_paths=n_paths, seed=6)
    delta = ens[:, 0, :] - n0
    drift = np.array([evaluate_polynomial(p, n0) for p in sde.drift])
    diff = np.array([[evaluate_polynomial(sde.diffusion[i][j], n0)
                      for j in range(2)] for i in range(2)])
    np.testing.assert_allclose(delta.mean(0) / h, drift, atol=3.0)
    np.testing.assert_allclose(np.cov(delta.T) / h, diff, atol=5.0)


def test_predator_prey_paths_oscillate():
    lv = lotka_volterra()
    grid = np.linspace(0.0, 30.0, 61)
    ens = gillespie_ensemble(lv, (100, 100), 0.0, 30.0, grid,
                             n_paths=100, seed=7)
    prey, pred = ens[:, :, 0], ens[:, :, 1]
    assert (prey.max(axis=1) > 150).mean() >= 0.9
    assert (pred.max(axis=1) > 115).mean() >= 0.9
    assert (pred.min(axis=1) < 55).mean() >= 0.9


def test_jump_simulation_deterministic_in_seed():
    lv = lotka_volterra()
    a = gillespie(lv, (100, 100), 0.0, 2.0, seed=42)
    b = gillespie(lv, (100, 100), 0.0, 2.0, seed=42)
    c = gillespie(lv, (100, 100), 0.0, 2.0, seed=43)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)
    grid = np.linspace(0.0, 2.0, 5)
    e1 = gillespie_ensemble(lv, (100, 100), 0.0, 2.0, grid,
                            n_paths=50, seed=42)
    e2 = gillespie_ensemble(lv, (100, 100), 0.0, 2.0, grid,
                            n_paths=50, seed=42)
    assert np.array_equal(e1, e2)


def test_negative_rate_raises():
    bad = MjpSpec(1, np.array([[1]]),
                  (PolynomialMap.from_terms(1, [(1.0, (1,)), (-5.0, (0,))]),),
                  params={})
    with pytest.raises(NegativeRate):
        gillespie(bad, (0,), 0.0, 1.0, seed=8)
    with pytest.raises(NegativeRate):
        gillespie_ensemble(bad, (0,), 0.0, 1.0, np.array([1.0]),
                           n_paths=3, seed=8)


def test_event_budget_raises():
    with pytest.raises(DivergedPath):
        gillespie(_pure_birth(100.0), (0,), 0.0, 1000.0, seed=9,
                  max_events=50)
    with pytest.raises(DivergedPath):
        gillespie_ensemble(_pure_birth(100.0), (0,), 0.0, 1000.0,
                           np.array([1000.0]), n_paths=4, seed=9,
                           max_events=100)


def test_state_at_is_right_continuous():
    traj = JumpTrajectory(np.array([0.0, 1.0, 2.0]),
                          np.array([[0], [1], [2]]), 3.0, seed=0)
    got = traj.state_at([0.0, 0.5, 1.0, 1.5, 2.7])
    np.testing.assert_array_equal(got[:, 0], [0, 0, 1, 1, 2])


def test_grid_outside_horizon_rejected():
    with pytest.raises(ValueError):
        gillespie_ensemble(_pure_birth(), (0,), 0.0, 1.0,
                           np.array([2.0]), n_paths=2, seed=1)


def test_euler_maruyama_linear_stationary_stats():
    # dx = -x dt + sqrt(2) dW has stationary variance 1
    spec = linear_sde([[-1.0]], [[2.0]])
    _, states, n_clamps = euler_maruyama_ensemble(
        spec, (0.0,), 0.0, 6.0, n_steps=1200, n_paths=4000, seed=10)
    assert n_clamps == 0
    xT = states[:, -1, 0]
    assert abs(xT.mean()) < 4 / np.sqrt(4000)
    assert abs(xT.var(ddof=1) - 1.0) < 4 * np.sqrt(2 / 4000) + 0.01


def test_euler_maruyama_deterministic_and_shaped():
    spec = linear_sde([[-1.0, 0.0], [0.0, -2.0]], np.eye(2))
    a = euler_maruyama(spec, (1.0, -1.0), 0.0, 1.0, n_steps=100, seed=11)
    b = euler_maruyama(spec, (1.0, -1.0), 0.0, 1.0, n_steps=100, seed=11)
    assert isinstance(a, DiffusionTrajectory)
    assert a.states.shape == (101, 2)
    assert a.times[0] == 0.0 and a.times[-1] == pytest.approx(1.0)
    assert np.array_equal(a.states, b.states)


def test_euler_maruyama_clamps_negative_diffusion():
    # scalar diffusion b(x) = x goes negative once the path crosses zero
    spec = SdeSpec(1, (PolynomialMap.constant(1, -1.0),),
                   ((PolynomialMap.from_terms(1, [(1.0, (1,))]),),),
                   params={})
    traj = euler_maruyama(spec, (0.05,), 0.0, 2.0, n_steps=200, seed=12)
    assert traj.n_clamps > 0
    assert np.isfinite(traj.states).all()


def test_euler_maruyama_clamps_negative_rates():
    death = MjpSpec(1, np.array([[-1]]),
                    (PolynomialMap.from_terms(1, [(5.0, (1,))]),), params={})
    spec = cle_from_mjp(death)
    _, states, n_clamps = euler_maruyama_ensemble(
        spec, (0.5,), 0.0, 2.0, n_steps=200, n_paths=50, seed=13)
    assert n_clamps > 0
    assert np.isfinite(states).all()


def test_gaussian_observation_sampling_moments():
    R = np.array([[25.0, 10.0], [10.0, 16.0]])
    x = np.array([50.0, -20.0])
    n = 50_000
    obs = observe_states(np.zeros(n), np.tile(x, (n, 1)),
                              GaussianObs(R), seed=14)
    vals = np.array([o.value for o in obs])
    se = np.sqrt(np.diag(R) / n)
    np.testing.assert_allclose(vals.mean(0), x, atol=4 * se.max())
    np.testing.assert_allclose(np.cov(vals.T), R, atol=4 * 25.0 *
                               np.sqrt(2 / n) + 0.05)


def test_lognormal_observation_sampling_moments():
    # mean-variance form: E[y | x] = x, Var[y | x] = v
    v = 750.0
    x = np.array([60.0, 140.0])
    n = 100_000
    obs = observe_states(np.zeros(n), np.tile(x, (n, 1)),
                              LogNormalObs(v), seed=15)
    vals = np.array([o.value for o in obs])
    for k in range(2):
        se = vals[:, k].std(ddof=1) / np.sqrt(n)
        assert abs(vals[:, k].mean() - x[k]) < 4 * se
        assert abs(vals[:, k].var(ddof=1) - v) < 0.1 * v


def test_lognormal_multiplicative_sampling():
    vm = 0.04
    x = np.array([80.0])
    n = 100_000
    obs = observe_states(np.zeros(n), np.tile(x, (n, 1)),
                              LogNormalObs(vm, "multiplicative"), seed=16)
    logs = np.log([o.value[0] for o in obs])
    assert abs(logs.mean() - np.log(80.0)) < 4 * np.sqrt(vm / n)
    assert abs(logs.var(ddof=1) - vm) < 4 * vm * np.sqrt(2 / n)


def test_observation_input_validation():
    with pytest.raises(ValueError):
        observe_states([0.0, 1.0], [[1.0]], GaussianObs(np.eye(1)),
                            seed=1)
    with pytest.raises(ValueError):
        observe_states([0.0], [[-1.0]], LogNormalObs(1.0), seed=1)


def test_sample_observations_reads_trajectory_states():
    mjp = MjpSpec(1, np.array([[1]]),
                  (PolynomialMap.from_terms(1, [(5.0, (0,))]),), params={})
    traj = gillespie(mjp, np.array([3]), 0.0, 10.0, seed=21)
    times = [0.5, 4.0, 9.5]
    obs = sample_observations(traj, times, LogNormalObs(1e-8), seed=22)
    truth = traj.state_at(np.asarray(times)).astype(float)
    for o, x in zip(obs, truth):
        assert abs(o.value[0] - x[0]) <= 1e-3 * x[0]
    with pytest.raises(ValueError):
        sample_observations(traj, [11.0], LogNormalObs(1.0), seed=1)
