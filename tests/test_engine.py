"""Inference driver tests against closed-form linear-Gaussian oracles."""

import numpy as np
import pytest

import epsde.engine as engine
import epsde.filtering as filtering
from epsde.engine import EpConfig, EpResult, free_energy, run_adf, run_ep
from epsde.errors import DivergedMoments
from epsde.filtering import SiteSet, TimeGrid, forward_pass
from epsde.gaussian import GaussianCanonical, GaussianMoments, \
    moments_to_canonical
from epsde.likelihoods import GaussianObs, LogNormalObs, Observation, \
    QuadraticLoss, QuarticLoss, tilted_moments
from epsde.processes import MjpSpec, PolynomialMap, cle_from_mjp, \
    linear_sde, lotka_volterra
from epsde.simulate import gillespie, make_rng, sample_observations

from _oracles import linear_gaussian_reference

A2 = np.array([[-1.0, 0.3], [-0.2, -1.4]])
B2 = np.array([[0.8, 0.2], [0.2, 1.1]])
PRIOR2 = GaussianMoments(np.array([1.0, -0.5]),
                         np.array([[0.7, 0.1], [0.1, 0.5]]))
R2 = np.array([[0.3, 0.05], [0.05, 0.2]])


def _linear_case(n_steps=500, t1=5.0):
    rng = make_rng(77)
    grid = TimeGrid(0.0, t1, n_steps)
    obs_times = [0.5, 1.5, 2.5, 3.5, 4.5]
    obs_values = [rng.normal(size=2) for _ in obs_times]
    obs = [Observation(t, y) for t, y in zip(obs_times, obs_values)]
    ref = linear_gaussian_reference(A2, B2, PRIOR2.mean, PRIOR2.cov,
                                    0.0, t1, n_steps, obs_times,
                                    obs_values, R2)
    return grid, obs, ref


def test_ep_linear_gaussian_matches_rts_in_one_sweep():
    grid, obs, ref = _linear_case()
    spec = linear_sde(A2, B2)
    res = run_ep(spec, obs, GaussianObs(R2), None, PRIOR2, grid)
    assert res.converged
    assert res.sweeps_run == 1
    assert res.max_site_delta_history[-1] <= 0.01
    np.testing.assert_allclose(res.smoothed.means, ref["smoothed_means"],
                               atol=1e-6)
    np.testing.assert_allclose(res.smoothed.covs, ref["smoothed_covs"],
                               atol=1e-6)
    assert res.log_evidence == pytest.approx(ref["loglik"], abs=1e-6)
    assert np.isfinite(res.log_evidence)


def test_ep_no_data_returns_prior_path_and_zero_evidence():
    spec = linear_sde(A2, B2)
    grid = TimeGrid(0.0, 3.0, 300)
    res = run_ep(spec, [], GaussianObs(R2), None, PRIOR2, grid)
    assert res.converged and res.sweeps_run == 1
    assert res.log_evidence == 0.0
    assert not res.sites.obs_h.size
    assert not res.sites.cont_h.any() and not res.sites.cont_J.any()
    fwd = forward_pass(spec, SiteSet.zeros(grid, 2, []), PRIOR2, grid)
    np.testing.assert_allclose(res.smoothed.means, fwd.post_means, atol=1e-9)
    np.testing.assert_allclose(res.smoothed.covs, fwd.post_covs, atol=1e-9)


def test_adf_matches_kalman_filter():
    grid, obs, ref = _linear_case()
    spec = linear_sde(A2, B2)
    res = run_adf(spec, obs, GaussianObs(R2), None, PRIOR2, grid)
    assert res.method == "adf"
    assert res.sweeps_run == 1
    np.testing.assert_allclose(res.smoothed.means, ref["filtered_means"],
                               atol=1e-6)
    np.testing.assert_allclose(res.smoothed.covs, ref["filtered_covs"],
                               atol=1e-6)
    assert res.log_evidence == pytest.approx(ref["loglik"], abs=1e-6)


def test_adfs_matches_rts_smoother():
    grid, obs, ref = _linear_case()
    spec = linear_sde(A2, B2)
    res = run_adf(spec, obs, GaussianObs(R2), None, PRIOR2, grid,
                  smoothing=True)
    assert res.method == "adf-s"
    np.testing.assert_allclose(res.smoothed.means, ref["smoothed_means"],
                               atol=1e-6)
    np.testing.assert_allclose(res.smoothed.covs, ref["smoothed_covs"],
                               atol=1e-6)
    assert res.log_evidence == pytest.approx(ref["loglik"], abs=1e-6)


def test_adfs_equals_first_ep_sweep_on_linear_model():
    # with full steps, one parallel EP sweep realizes the same sites ADF
    # does, because conjugate updates do not depend on the cavity; the
    # final smoothed paths must then agree
    grid, obs, _ = _linear_case(n_steps=200, t1=5.0)
    spec = linear_sde(A2, B2)
    loss = QuadraticLoss(np.array([[0.2, 0.0], [0.0, 0.1]]),
                         np.array([0.05, -0.02]))
    adfs = run_adf(spec, obs, GaussianObs(R2), loss, PRIOR2, grid,
                   smoothing=True)
    ep = run_ep(spec, obs, GaussianObs(R2), loss, PRIOR2, grid,
                EpConfig(damping=1.0, max_sweeps=1))
    np.testing.assert_allclose(ep.sites.obs_h, adfs.sites.obs_h, atol=1e-10)
    np.testing.assert_allclose(ep.sites.obs_J, adfs.sites.obs_J, atol=1e-10)
    np.testing.assert_allclose(ep.sites.cont_h, adfs.sites.cont_h,
                               atol=1e-12)
    np.testing.assert_allclose(ep.smoothed.means, adfs.smoothed.means,
                               atol=1e-9)
    np.testing.assert_allclose(ep.smoothed.covs, adfs.smoothed.covs,
                               atol=1e-9)


def test_adf_without_observations_is_prior_closure_path():
    spec = linear_sde(A2, B2)
    grid = TimeGrid(0.0, 3.0, 300)
    res = run_adf(spec, [], GaussianObs(R2), None, PRIOR2, grid)
    fwd = forward_pass(spec, SiteSet.zeros(grid, 2, []), PRIOR2, grid)
    np.testing.assert_allclose(res.smoothed.means, fwd.post_means,
                               atol=1e-12)
    np.testing.assert_allclose(res.smoothed.covs, fwd.post_covs, atol=1e-12)
    assert res.log_evidence == 0.0


def test_damping_invariance_of_linear_fixed_point():
    grid, obs, _ = _linear_case(n_steps=250)
    spec = linear_sde(A2, B2)
    res_half = run_ep(spec, obs, GaussianObs(R2), None, PRIOR2, grid,
                      EpConfig(damping=0.5))
    res_full = run_ep(spec, obs, GaussianObs(R2), None, PRIOR2, grid,
                      EpConfig(damping=1.0))
    assert res_half.converged and res_full.converged
    np.testing.assert_allclose(res_half.sites.obs_h, res_full.sites.obs_h,
                               atol=1e-8)
    np.testing.assert_allclose(res_half.sites.obs_J, res_full.sites.obs_J,
                               atol=1e-8)


def _birth_death_case(seed=5):
    # birth-death chemical Langevin model keeps the state near 25 where
    # log-normal observations are comfortably proper
    mjp = MjpSpec(1, np.array([[1, -1]]),
                  (PolynomialMap.from_terms(1, [(5.0, (0,))]),
                   PolynomialMap.from_terms(1, [(0.2, (1,))])))
    spec = cle_from_mjp(mjp)
    grid = TimeGrid(0.0, 8.0, 400)
    prior = GaussianMoments(np.array([25.0]), np.array([[9.0]]))
    model = LogNormalObs(40.0)
    traj = gillespie(mjp, np.array([25]), 0.0, 8.0, seed=seed)
    times = [1.0, 3.0, 5.0, 7.0]
    obs = sample_observations(traj, times, model, seed=seed + 1)
    return spec, grid, prior, model, obs


def test_ep_moment_matching_at_fixed_point():
    spec, grid, prior, model, obs = _birth_death_case()
    cfg = EpConfig(damping=1.0, tolerance=1e-4, max_sweeps=80)
    res = run_ep(spec, obs, model, None, prior, grid, cfg)
    assert res.converged
    assert np.isfinite(res.log_evidence)
    for s, k in enumerate(res.sites.obs_idx):
        nat = moments_to_canonical(res.smoothed.node(int(k)))
        cavity = GaussianCanonical(nat.h - res.sites.obs_h[s],
                                   nat.J - res.sites.obs_J[s])
        tm, _ = tilted_moments(model, obs[s].value, cavity)
        proj = moments_to_canonical(tm)
        gap = max(np.abs(proj.h - nat.h).max(), np.abs(proj.J - nat.J).max())
        assert gap <= cfg.tolerance


def test_ep_log_normal_converges_and_history_shrinks():
    spec, grid, prior, model, obs = _birth_death_case(seed=11)
    res = run_ep(spec, obs, model, None, prior, grid)
    assert res.converged
    assert res.sweeps_run < 50
    hist = res.max_site_delta_history
    assert hist[-1] <= 0.01
    assert hist[-1] < hist[0]
    assert res.skipped_updates == 0


def test_ep_sweep_budget_respected_when_not_converged():
    spec, grid, prior, model, obs = _birth_death_case(seed=3)
    cfg = EpConfig(damping=0.5, tolerance=1e-12, max_sweeps=3)
    res = run_ep(spec, obs, model, None, prior, grid, cfg)
    assert not res.converged
    assert res.sweeps_run == 3
    assert len(res.max_site_delta_history) == 3
    assert np.all(np.isfinite(res.smoothed.means))


def _log_normal_ep_args():
    spec, grid, prior, model, obs = _birth_death_case(seed=11)
    return spec, obs, model, None, prior, grid


def _gaussian_ep_args():
    grid, obs, _ = _linear_case(n_steps=250)
    return linear_sde(A2, B2), obs, GaussianObs(R2), None, PRIOR2, grid


@pytest.mark.parametrize("case", [_log_normal_ep_args, _gaussian_ep_args],
                         ids=["log-normal", "gaussian"])
def test_ep_runs_one_pass_pair_per_sweep_and_one_to_evaluate(case,
                                                             monkeypatch):
    # a loss-free log-normal run continues from ADF-S, whose smoothed
    # path its first sweep reads, so ADF-S's passes replace that sweep's
    calls = {"forward": 0, "backward": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(engine, "forward_pass",
                        counted("forward", engine.forward_pass))
    monkeypatch.setattr(engine, "backward_pass",
                        counted("backward", engine.backward_pass))
    res = run_ep(*case())
    assert res.converged
    assert calls == {"forward": res.sweeps_run + 1,
                     "backward": res.sweeps_run + 1}


def _quartic_ep_args():
    # no ADF-S start: a run with a loss starts from _init_sites
    spec, obs, model, _, prior, grid = _log_normal_ep_args()
    loss = QuarticLoss(weight=[1e-3], center=[20.0], window=[[2.0, 5.0]])
    return spec, obs, model, loss, prior, grid


@pytest.mark.parametrize("run, case, pinned", [
    (run_ep, _log_normal_ep_args, "-13.169176329735592"),
    (lambda *args: run_adf(*args, smoothing=True), _log_normal_ep_args,
     "-13.16760678156674"),
    (run_ep, _quartic_ep_args, "-14.525753563790573")],
    ids=["ep", "adf-s", "ep-quartic"])
def test_log_evidence_and_counts_are_pinned(run, case, pinned):
    # repr of a float round-trips, so equal strings mean equal bits
    res = run(*case())
    assert (repr(float(res.log_evidence)), res.psd_repairs,
            res.skipped_updates) == (pinned, 0, 0)


@pytest.mark.parametrize("nth", ["start", "mid-sweep", "final"])
def test_error_sweep_attribution(nth, monkeypatch):
    # the start's backward pass belongs to sweep 1, the passes after
    # sweep s to sweep s + 1, and the last passes, those of the final
    # evaluation, to sweeps_run + 1
    sweeps_run = run_ep(*_log_normal_ep_args()).sweeps_run
    raise_at, sweep = {"start": (1, 1), "mid-sweep": (2, 2),
                       "final": (sweeps_run + 1, sweeps_run + 1)}[nth]
    calls = 0
    backward = engine.backward_pass

    def failing(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == raise_at:
            raise DivergedMoments("injected", 7)
        return backward(*args, **kwargs)

    monkeypatch.setattr(engine, "backward_pass", failing)
    with pytest.raises(DivergedMoments) as exc:
        run_ep(*_log_normal_ep_args())
    assert (exc.value.sweep, calls) == (sweep, raise_at)


def _untractable_case():
    # a prior pinned at negative values makes the log-normal tilted
    # integral vanish at every quadrature node: the update is skipped
    # and the free energy cannot be evaluated
    spec = linear_sde(np.array([[-1.0]]), np.array([[0.01]]))
    prior = GaussianMoments(np.array([-50.0]), np.array([[1.0]]))
    grid = TimeGrid(0.0, 2.0, 100)
    obs = [Observation(1.0, np.array([100.0]))]
    return spec, obs, LogNormalObs(750.0), None, prior, grid


def _assert_skipped_and_flagged(res):
    assert res.skipped_updates >= 1
    assert not res.sites.obs_h.any()
    assert np.isnan(res.log_evidence)


def test_ep_skips_untractable_site_and_flags_evidence():
    res = run_ep(*_untractable_case())
    _assert_skipped_and_flagged(res)
    # one skip per sweep, plus the ADF-S start's
    assert res.skipped_updates == res.sweeps_run + 1


@pytest.mark.parametrize("smoothing", [False, True], ids=["adf", "adf-s"])
def test_adf_skips_untractable_site_and_flags_evidence(smoothing):
    _assert_skipped_and_flagged(
        run_adf(*_untractable_case(), smoothing=smoothing))


def _ep_outputs(res):
    return _adf_outputs(res) + (res.max_site_delta_history.tobytes(),
                                res.converged)


@pytest.mark.parametrize("case", [_log_normal_ep_args, _untractable_case],
                         ids=["log-normal", "untractable"])
def test_ep_from_handed_adfs_equals_ep_bit_for_bit(case, monkeypatch):
    expected = _ep_outputs(run_ep(*case()))
    adfs = run_adf(*case(), smoothing=True)
    handed = _ep_outputs(adfs)

    def no_second_adfs(*args, **kwargs):
        raise AssertionError("run_ep ran ADF-S itself")

    monkeypatch.setattr(engine, "run_adf", no_second_adfs)
    assert _ep_outputs(run_ep(*case(), adfs=adfs)) == expected
    assert _ep_outputs(adfs) == handed


def test_ep_rejects_an_adfs_it_does_not_continue_from():
    spec, obs, model, _, prior, grid = _log_normal_ep_args()
    adfs = run_adf(spec, obs, model, None, prior, grid, smoothing=True)
    others = [
        # runs that do not continue from ADF-S
        (_quartic_ep_args(), adfs),
        (_gaussian_ep_args(),
         run_adf(*_gaussian_ep_args(), smoothing=True)),
        # not an adf-s result
        ((spec, obs, model, None, prior, grid),
         run_adf(spec, obs, model, None, prior, grid)),
        # other observation nodes, another grid
        ((spec, obs[1:], model, None, prior, grid), adfs),
        ((spec, obs, model, None, prior, TimeGrid(0.0, 8.0, 200)), adfs),
    ]
    for args, handed in others:
        with pytest.raises(ValueError, match="^adfs: "):
            run_ep(*args, adfs=handed)


def _near_exact_lv_case():
    # log-normal observations far sharper than the prior: the quadrature
    # collapses the tilted covariances and its PSD guard repairs them
    spec = cle_from_mjp(lotka_volterra())
    prior = GaussianMoments(np.array([100.0, 100.0]), 100.0 * np.eye(2))
    obs = [Observation(1.0, np.array([103.0, 97.0])),
           Observation(2.0, np.array([120.0, 90.0]))]
    return spec, obs, LogNormalObs(1e-4), None, prior, TimeGrid(0.0, 3.0, 300)


def _adf_outputs(res):
    arrays = (res.smoothed.means, res.smoothed.covs, res.sites.obs_h,
              res.sites.obs_J, res.sites.cont_h, res.sites.cont_J)
    return ([a.tobytes() for a in arrays], repr(res.log_evidence),
            res.psd_repairs, res.skipped_updates)


@pytest.mark.parametrize("case, skips, repaired", [
    (_untractable_case, 1, False), (_near_exact_lv_case, 0, True)],
    ids=["untractable", "lv-near-exact"])
@pytest.mark.parametrize("smoothing", [False, True], ids=["adf", "adf-s"])
def test_adf_forward_pass_replays_bit_identically(case, skips, repaired,
                                                 smoothing, monkeypatch):
    # a discarded first run leaves its sites and repair counts behind;
    # the replayed pass must neither read nor count them again
    res = run_adf(*case(), smoothing=smoothing)
    assert res.skipped_updates == skips
    assert (res.psd_repairs > 0) == repaired
    monkeypatch.setattr(filtering, "_accepted", lambda *args: False)
    assert _adf_outputs(run_adf(*case(), smoothing=smoothing)) \
        == _adf_outputs(res)


def test_divergence_names_grid_node_once_and_sweep():
    spec = linear_sde(np.array([[5.0]]), np.array([[0.1]]))
    prior = GaussianMoments(np.array([1.0]), np.array([[1.0]]))
    with pytest.raises(DivergedMoments) as exc:
        run_ep(spec, [], GaussianObs(np.eye(1)), None, prior,
               TimeGrid(0.0, 8.0, 400))
    assert exc.value.sweep == 1
    message = str(exc.value)
    assert message.count("grid node") == 1 and "sweep 1" in message


def test_divergence_in_adf_start_names_grid_node_once_and_sweep_1():
    spec = linear_sde(np.array([[5.0]]), np.array([[0.1]]))
    prior = GaussianMoments(np.array([1.0]), np.array([[1.0]]))
    obs = [Observation(0.5, np.array([12.0]))]
    with pytest.raises(DivergedMoments) as exc:
        run_ep(spec, obs, LogNormalObs(750.0), None, prior,
               TimeGrid(0.0, 8.0, 400))
    assert any(entry.name == "run_adf" for entry in exc.traceback)
    assert exc.value.sweep == 1
    message = str(exc.value)
    assert message.count("grid node") == 1 and "sweep 1" in message


def test_ep_divergence_node_is_pinned():
    # the same setup as test_divergence_names_grid_node_once_and_sweep
    spec = linear_sde(np.array([[5.0]]), np.array([[0.1]]))
    prior = GaussianMoments(np.array([1.0]), np.array([[1.0]]))
    with pytest.raises(DivergedMoments) as exc:
        run_ep(spec, [], GaussianObs(np.eye(1)), None, prior,
               TimeGrid(0.0, 8.0, 400))
    assert (exc.value.time_index, exc.value.sweep) == (139, 1)


def test_free_energy_direction_under_noise_doubling():
    # data far from the prior path: a larger observation variance makes
    # the single far point less surprising, so the evidence rises
    a, b = -0.5, 0.6
    spec = linear_sde(np.array([[a]]), np.array([[b]]))
    prior = GaussianMoments(np.array([0.0]), np.array([[b / (-2 * a)]]))
    grid = TimeGrid(0.0, 2.0, 200)
    y = np.array([6.0])
    obs = [Observation(1.0, y)]

    out = {}
    for r in (1.0, 2.0):
        res = run_ep(spec, obs, GaussianObs(np.array([[r]])), None, prior,
                     grid)
        m, c = prior.mean[0], prior.cov[0, 0]
        # stationary prior: the marginal at the observation time is the
        # prior law itself, so the evidence is a 1-D Gaussian density
        var = c + r
        exact = -0.5 * ((y[0] - m) ** 2 / var + np.log(2 * np.pi * var))
        assert res.log_evidence == pytest.approx(exact, abs=1e-6)
        out[r] = res.log_evidence
    assert out[2.0] > out[1.0]


def test_quartic_window_never_inflates_smoothed_variance():
    grid, obs, _ = _linear_case(n_steps=400, t1=5.0)
    spec = linear_sde(A2, B2)
    base = run_ep(spec, obs, GaussianObs(R2), None, PRIOR2, grid)
    loss = QuarticLoss(weight=[0.05, 0.0], center=[0.0, 0.0],
                       window=[[1.0, 2.0], [0.0, 0.0]])
    constrained = run_ep(spec, obs, GaussianObs(R2), loss, PRIOR2, grid)
    assert constrained.converged
    inside = (grid.times >= 1.0) & (grid.times <= 2.0)
    tr_base = np.trace(base.smoothed.covs[inside], axis1=1, axis2=2)
    tr_con = np.trace(constrained.smoothed.covs[inside], axis1=1, axis2=2)
    assert np.all(tr_con < tr_base)


def test_lv_benchmark_converges_within_typical_sweep_range():
    mjp = lotka_volterra()
    spec = cle_from_mjp(mjp)
    traj = gillespie(mjp, np.array([100, 100]), 0.0, 10.0, seed=42)
    model = LogNormalObs(750.0)
    times = list(np.linspace(1.0, 9.5, 8))
    obs = sample_observations(traj, times, model, seed=43)
    grid = TimeGrid(0.0, 10.0, 1000)
    prior = GaussianMoments(np.array([100.0, 100.0]), 100.0 * np.eye(2))
    res = run_ep(spec, obs, model, None, prior, grid)
    assert res.converged
    assert res.sweeps_run <= 25
    assert np.isfinite(res.log_evidence)
    assert res.skipped_updates == 0


def test_config_validation():
    with pytest.raises(ValueError):
        EpConfig(damping=0.0)
    with pytest.raises(ValueError):
        EpConfig(damping=1.2)
    with pytest.raises(ValueError):
        EpConfig(tolerance=-1.0)


def test_observation_validation():
    spec = linear_sde(A2, B2)
    grid = TimeGrid(0.0, 2.0, 100)
    bad_dim = [Observation(1.0, np.array([1.0]))]
    with pytest.raises(ValueError):
        run_ep(spec, bad_dim, GaussianObs(R2), None, PRIOR2, grid)
    clash = [Observation(1.0, np.zeros(2)), Observation(1.0001, np.zeros(2))]
    with pytest.raises(ValueError):
        run_ep(spec, clash, GaussianObs(R2), None, PRIOR2, grid)


@pytest.mark.parametrize("run", [run_ep, run_adf], ids=["ep", "adf"])
@pytest.mark.parametrize("times, values, message", [
    ([3.0, 3.01], [25.0, 26.0],
     r"times 3 and 3\.01 share grid node 150 \(t = 3\)"),
    # nearest to the last node, but past t1
    ([3.0, 8.01], [25.0, 26.0], r"time 8\.01 lies outside \[0\.0, 8\.0\]"),
    ([3.0, 5.0], [25.0, -5.0],
     r"log-normal observation at t=5\.0 must be positive"),
], ids=["shared-node", "past-t1", "non-positive"])
def test_observations_meet_one_placement_rule(run, times, values, message):
    spec, grid, prior, model, _ = _birth_death_case()
    obs = [Observation(t, [y]) for t, y in zip(times, values)]
    with pytest.raises(ValueError, match=message):
        run(spec, obs, model, None, prior, grid)
