"""Release acceptance gate: one test per criterion, one line per verdict.

Each test records a PASS/FAIL line carrying the measured quantities; the
lines are replayed in an "acceptance criteria" section after the run so
they stay visible under output capture.  The expensive Lotka-Volterra
benchmark backs two criteria and runs once per session (see
conftest.lv_benchmark).
"""

import time

import numpy as np
import pytest

from epsde.cli import cmd_simulate, load_config
from epsde.engine import run_adf, run_ep
from epsde.filtering import SiteSet, TimeGrid, forward_pass
from epsde.gaussian import GaussianCanonical, GaussianMoments, \
    canonical_to_moments, log_partition, moments_to_canonical
from epsde.likelihoods import GaussianObs, LogNormalObs, Observation, \
    QuarticLoss, continuous_site_update, expected_loss, log_normal_logpdf, \
    tilted_moments
from epsde.processes import MjpSpec, PolynomialMap, cle_from_mjp, \
    linear_sde, lotka_volterra
from epsde.simulate import gillespie, make_rng, sample_observations

import conftest
from _oracles import gillespie_ensemble, linear_gaussian_reference, \
    mean_params, ou_exact_moments


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    # the captured print only surfaces for failing tests; the summary
    # hook in conftest replays every verdict after the run
    conftest.acceptance_verdicts.append(line)


# ---------------------------------------------------------------------------
# 1. linear-Gaussian exactness


def test_criterion_1_linear_gaussian_exactness():
    started = time.perf_counter()
    A = -np.eye(2)
    B = np.eye(2)
    prior = GaussianMoments(np.array([1.0, -0.5]),
                            np.array([[0.7, 0.1], [0.1, 0.5]]))
    R = np.array([[0.3, 0.05], [0.05, 0.2]])
    grid = TimeGrid(0.0, 5.0, 500)
    obs_times = [0.5, 1.5, 2.5, 3.5, 4.5]
    rng = make_rng(2026)
    obs_values = [rng.normal(scale=1.5, size=2) for _ in obs_times]
    obs = [Observation(t, y) for t, y in zip(obs_times, obs_values)]
    ref = linear_gaussian_reference(A, B, prior.mean, prior.cov, 0.0, 5.0,
                                    500, obs_times, obs_values, R)
    try:
        spec = linear_sde(A, B)
        ep = run_ep(spec, obs, GaussianObs(R), None, prior, grid)
        assert ep.converged and ep.sweeps_run == 1
        err_ep = max(np.abs(ep.smoothed.means - ref["smoothed_means"]).max(),
                     np.abs(ep.smoothed.covs - ref["smoothed_covs"]).max())
        assert err_ep <= 1e-6
        assert abs(ep.log_evidence - ref["loglik"]) <= 1e-6

        adfs = run_adf(spec, obs, GaussianObs(R), None, prior, grid,
                       smoothing=True)
        err_adfs = max(
            np.abs(adfs.smoothed.means - ref["smoothed_means"]).max(),
            np.abs(adfs.smoothed.covs - ref["smoothed_covs"]).max())
        assert err_adfs <= 1e-6
        assert abs(adfs.log_evidence - ref["loglik"]) <= 1e-6

        elapsed = time.perf_counter() - started
        assert elapsed <= 5.0
    except BaseException:
        _verdict(1, "linear-Gaussian exactness", False)
        raise
    _verdict(1, "linear-Gaussian exactness", True,
             f"max marginal error {max(err_ep, err_adfs):.2e}, "
             f"{ep.sweeps_run} sweep, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. moment-closure fidelity


def test_criterion_2_moment_closure_tracks_jump_ensemble():
    started = time.perf_counter()
    mjp = lotka_volterra()
    sde = cle_from_mjp(mjp)
    checkpoints = np.linspace(0.0, 3.0, 31)
    try:
        ens = gillespie_ensemble(mjp, (100, 100), 0.0, 3.0, checkpoints,
                                 n_paths=10_000, seed=424242)
        ssa_mean = ens.mean(axis=0)
        half = 2.5758293035489004 * ens.std(axis=0, ddof=1) / np.sqrt(
            ens.shape[0])

        grid = TimeGrid(0.0, 3.0, 600)
        init = GaussianMoments(np.array([100.0, 100.0]), 1e-8 * np.eye(2))
        fwd = forward_pass(sde, SiteSet.zeros(grid, 2, []), init, grid)
        closure_mean = fwd.post_means[::20]
        assert closure_mean.shape == ssa_mean.shape

        inside = np.abs(closure_mean - ssa_mean) <= half
        frac = inside.mean()
        assert frac >= 0.95
        elapsed = time.perf_counter() - started
        assert elapsed <= 60.0
    except BaseException:
        _verdict(2, "moment-closure fidelity", False)
        raise
    _verdict(2, "moment-closure fidelity", True,
             f"{inside.sum()}/{inside.size} checkpoints in 99% band, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. sweep-count convergence on the jump benchmark


def test_criterion_3_convergence_within_typical_sweeps(lv_benchmark):
    details = [d for d in lv_benchmark["report"].replicate_details
               if d["variance"] == 750.0 and not d.get("error")]
    try:
        assert len(details) >= 30
        sweeps = np.array([d["ep"]["sweeps"] for d in details])
        converged = np.array([d["ep"]["converged"] for d in details])
        med = float(np.median(sweeps))
        frac = float(converged.mean())
        assert med <= 25.0
        assert frac >= 0.90
        # the shared three-variance run covers this criterion's replicates
        # inside the benchmark's own 30 min budget
        assert lv_benchmark["seconds"] <= 1800.0
    except BaseException:
        _verdict(3, "EP convergence", False)
        raise
    _verdict(3, "EP convergence", True,
             f"median {med:.0f} sweeps, {100 * frac:.0f}% converged, "
             f"n={len(details)}")


# ---------------------------------------------------------------------------
# 4. benchmark trend and magnitude envelope


def test_criterion_4_ep_not_worse_than_adfs_on_benchmark(lv_benchmark):
    report = lv_benchmark["report"]
    variances = (500.0, 750.0, 1000.0)
    rows = {v: (report.row(v, "ep"), report.row(v, "adf-s"))
            for v in variances}
    detail = "; ".join(
        f"v{v:.0f}: ep {ep['rmse_path']:.2f} vs adf-s {adfs['rmse_path']:.2f}"
        for v, (ep, adfs) in rows.items())
    detail += f", {lv_benchmark['seconds']:.0f}s"
    try:
        assert report.replicates == 40
        for ep, adfs in rows.values():
            assert ep["rmse_path"] <= adfs["rmse_path"]
            for row in (ep, adfs):
                assert 7.0 <= row["rmse_path"] <= 30.0
                assert 7.0 <= row["rmse_observations"] <= 30.0
        assert lv_benchmark["seconds"] <= 1800.0
    except BaseException:
        _verdict(4, "benchmark RMSE trend", False, detail)
        raise
    _verdict(4, "benchmark RMSE trend", True, detail)


# ---------------------------------------------------------------------------
# 5. quartic constraint shrinks in-window variance


def test_criterion_5_constraint_window_shrinks_variance():
    started = time.perf_counter()
    mjp = lotka_volterra()
    sde = cle_from_mjp(mjp)
    model = LogNormalObs(750.0)
    traj = gillespie(mjp, np.array([100, 100]), 0.0, 8.0, seed=99)
    obs = sample_observations(traj, np.linspace(1.0, 7.0, 6), model,
                              seed=100)
    grid = TimeGrid(0.0, 8.0, 800)
    prior = GaussianMoments(np.array([100.0, 100.0]), 100.0 * np.eye(2))
    window = (3.0, 5.0)
    loss = QuarticLoss(weight=[2e-5, 2e-5], center=[150.0, 150.0],
                       window=[list(window), list(window)])
    try:
        base = run_ep(sde, obs, model, None, prior, grid)
        constrained = run_ep(sde, obs, model, loss, prior, grid)
        assert base.converged and constrained.converged
        inside = (grid.times >= window[0]) & (grid.times <= window[1])
        tr_base = np.trace(base.smoothed.covs[inside], axis1=1, axis2=2)
        tr_con = np.trace(constrained.smoothed.covs[inside], axis1=1,
                          axis2=2)
        assert np.all(tr_con < tr_base)
        elapsed = time.perf_counter() - started
        assert elapsed <= 120.0
    except BaseException:
        _verdict(5, "constraint window effect", False)
        raise
    _verdict(5, "constraint window effect", True,
             f"variance trace shrank at all {int(inside.sum())} in-window "
             f"nodes (max ratio {np.max(tr_con / tr_base):.3f}), "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. invariant suites


def _check_gaussian_roundtrips_and_gradients() -> None:
    rng = np.random.default_rng(8)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        root = rng.normal(size=(d, d))
        cov = root @ root.T + 0.3 * np.eye(d)
        mean = rng.normal(size=d)
        back = GaussianMoments(mean, cov)
        for _ in range(3):
            back = canonical_to_moments(moments_to_canonical(back))
        assert np.allclose(back.mean, mean, atol=1e-9)
        assert np.allclose(back.cov, cov, atol=1e-9)

    eps = 1e-6
    for _ in range(10):
        d = int(rng.integers(1, 4))
        root = rng.normal(size=(d, d))
        g = GaussianMoments(rng.normal(size=d), root @ root.T + 0.5 * np.eye(d))
        c = moments_to_canonical(g)
        mu1, _ = mean_params(g)
        for i in range(d):
            dh = np.zeros(d)
            dh[i] = eps
            fd = (log_partition(GaussianCanonical(c.h + dh, c.J))
                  - log_partition(GaussianCanonical(c.h - dh, c.J))) / (2 * eps)
            assert fd == pytest.approx(mu1[i], rel=1e-5, abs=1e-7)


def _check_quadrature_against_brute_force() -> None:
    model = LogNormalObs(400.0)
    y = np.array([55.0])
    cav_m, cav_v = 60.0, 120.0
    xs = np.linspace(cav_m - 11.0 * np.sqrt(cav_v),
                     cav_m + 11.0 * np.sqrt(cav_v), 16001)
    dx = xs[1] - xs[0]
    log_n = -0.5 * ((xs - cav_m) ** 2 / cav_v + np.log(2 * np.pi * cav_v))
    log_l = log_normal_logpdf(y, xs[:, None], model)
    f = np.where(np.isfinite(log_l), np.exp(log_l + log_n), 0.0)
    w = np.ones_like(xs)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= dx / 3.0
    z = float(w @ f)
    mean_bf = float(w @ (f * xs)) / z
    var_bf = float(w @ (f * (xs - mean_bf) ** 2)) / z

    cav = moments_to_canonical(GaussianMoments([cav_m], [[cav_v]]))
    mom, lz = tilted_moments(model, y, cav)
    assert abs(lz - log_partition(cav) - np.log(z)) <= 1e-6
    assert abs(mom.mean[0] - mean_bf) <= 1e-6
    assert abs(mom.cov[0, 0] - var_bf) <= 1e-6


def _check_quartic_finite_differences() -> None:
    loss = QuarticLoss([0.02, 0.5], [5.0, -1.0], [[0.0, 10.0], [0.0, 10.0]])
    g = GaussianMoments(np.array([6.0, -0.5]),
                        np.array([[0.8, -0.1], [-0.1, 0.6]]))
    t = 1.0
    site = continuous_site_update(loss, g, t)
    eps = 1e-6
    d = g.dim
    grad_m = np.zeros(d)
    for i in range(d):
        dm = np.zeros(d)
        dm[i] = eps
        grad_m[i] = (expected_loss(loss, GaussianMoments(g.mean + dm, g.cov), t)
                     - expected_loss(loss, GaussianMoments(g.mean - dm, g.cov),
                                     t)) / (2 * eps)
    grad_c = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            s = np.zeros((d, d))
            s[i, j] += eps
            s[j, i] += eps
            up = expected_loss(loss, GaussianMoments(g.mean, g.cov + s), t)
            dn = expected_loss(loss, GaussianMoments(g.mean, g.cov - s), t)
            grad_c[i, j] = grad_c[j, i] = (up - dn) / (2 * eps) / 2.0
    assert np.abs(site.J - 2.0 * grad_c).max() <= 1e-5
    assert np.abs(site.h - (-grad_m + site.J @ g.mean)).max() <= 1e-5


def _check_rk4_order() -> None:
    A = np.array([[-1.0, 0.3], [-0.2, -1.4]])
    B = np.array([[0.8, 0.2], [0.2, 1.1]])
    prior = GaussianMoments(np.array([1.0, -0.5]),
                            np.array([[0.7, 0.1], [0.1, 0.5]]))
    spec = linear_sde(A, B)

    def err(n: int) -> float:
        grid = TimeGrid(0.0, 5.0, n)
        fwd = forward_pass(spec, SiteSet.zeros(grid, 2, []), prior, grid)
        m_ex, c_ex = ou_exact_moments(A, B, prior.mean, prior.cov, 5.0)
        return max(np.abs(fwd.post_means[-1] - m_ex).max(),
                   np.abs(fwd.post_covs[-1] - c_ex).max())

    ratio = err(16) / err(32)
    assert 12.0 <= ratio <= 20.0


def _check_ssa_poisson_statistics() -> None:
    rate, horizon, n0, n_paths = 4.0, 5.0, 3, 3000
    lam = rate * horizon
    birth = MjpSpec(1, np.array([[1]]),
                    (PolynomialMap.constant(1, rate),), params={})
    ens = gillespie_ensemble(birth, (n0,), 0.0, horizon,
                             np.array([horizon]), n_paths=n_paths, seed=3)
    counts = ens[:, 0, 0].astype(float) - n0
    assert abs(counts.mean() - lam) < 4 * np.sqrt(lam / n_paths)
    assert abs(counts.var(ddof=1) - lam) < 4 * lam * np.sqrt(
        (2 + 1 / lam) / n_paths)


def _check_seed_reproducibility(tmp_path) -> None:
    cfg_path = tmp_path / "sim.yaml"
    cfg_path.write_text("""\
model: lv
horizon: {t1: 6.0}
grid: {n_steps: 300}
observations:
  count: 5
  model: {kind: log_normal, variance: 750.0}
seed: 21
""")
    cfg = load_config(cfg_path)
    blobs = []
    for run in ("a", "b"):
        paths = cmd_simulate(cfg, out=tmp_path / run)
        blobs.append(tuple(open(p, "rb").read() for p in paths.values()))
    assert blobs[0] == blobs[1]
    other = cmd_simulate(cfg, out=tmp_path / "c", seed=22)
    assert tuple(open(p, "rb").read() for p in other.values()) != blobs[0]


def test_criterion_6_invariant_suites(tmp_path):
    started = time.perf_counter()
    checks = [
        ("gaussian roundtrip/gradient", _check_gaussian_roundtrips_and_gradients),
        ("quadrature vs brute force", _check_quadrature_against_brute_force),
        ("quartic finite differences", _check_quartic_finite_differences),
        ("rk4 order", _check_rk4_order),
        ("ssa poisson statistics", _check_ssa_poisson_statistics),
        ("seed reproducibility",
         lambda: _check_seed_reproducibility(tmp_path)),
    ]
    try:
        for label, check in checks:
            check()
        elapsed = time.perf_counter() - started
        assert elapsed <= 180.0
    except BaseException:
        _verdict(6, "invariant suites", False, f"failed at: {label}")
        raise
    _verdict(6, "invariant suites", True,
             f"{len(checks)} suites, {elapsed:.1f}s")
