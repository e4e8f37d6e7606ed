"""CLI contract: config validation, CSV formats, exit codes, benchmark."""

import json
import subprocess
import sys

import numpy as np
import pytest

from epsde.cli import (
    cmd_benchmark,
    cmd_infer,
    cmd_simulate,
    load_config,
    main,
    read_marginals,
    read_observations,
    read_trajectory,
    write_marginals,
    write_observations,
    write_trajectory,
)
from epsde.errors import ConfigError
from epsde.filtering import MarginalPath
from epsde.likelihoods import Observation

from _oracles import linear_gaussian_reference

A2 = [[-1.0, 0.3], [-0.2, -1.4]]
B2 = [[0.8, 0.2], [0.2, 1.1]]

LINEAR_YAML = """\
model:
  kind: linear
  A: [[-1.0, 0.3], [-0.2, -1.4]]
  b: [[0.8, 0.2], [0.2, 1.1]]
horizon: {t0: 0.0, t1: 4.0}
grid: {n_steps: 400}
init:
  mean: [1.0, -0.5]
  cov: [[0.7, 0.1], [0.1, 0.5]]
x0: [1.0, -0.5]
observations:
  times: [0.5, 1.5, 2.5, 3.5]
  model:
    kind: gaussian
    R: [[0.3, 0.05], [0.05, 0.2]]
method: ep
seed: 3
"""

LV_SMALL_YAML = """\
model: lv
horizon: {t0: 0.0, t1: 8.0}
grid: {n_steps: 800}
init: {mean: [100.0, 100.0], cov: 100.0}
x0: [100, 100]
observations:
  count: 6
  model: {kind: log_normal, variance: 750.0}
method: ep
seed: 5
"""


def _write(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# configuration


def test_validate_subcommand_accepts_good_config(tmp_path, capsys):
    path = _write(tmp_path, LV_SMALL_YAML)
    assert main(["validate", "--config", str(path)]) == 0
    assert "config valid" in capsys.readouterr().out


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "not found" in capsys.readouterr().err


def test_config_errors_name_the_key_path(tmp_path):
    cases = [
        ("model: {kind: warp}", "model.kind"),
        ("horizon: {t0: 2.0, t1: 1.0}", "horizon"),
        ("method: vi", "method"),
        ("observations: {count: -1}", "observations.count"),
        ("observations: {times: [1.0, 1.0]}", "observations.times"),
        ("observations: {model: {kind: log_normal, variance: -3.0}}",
         "observations.model.variance"),
        ("ep: {dampening: 0.5}", "ep"),
        ("ep: {damping: 1.5}", "ep"),
        ("benchmark: {variances: [0.0]}", "benchmark.variances"),
        ("benchmark: {replicates: 0}", "benchmark.replicates"),
        ("loss: {kind: cubic}", "loss.kind"),
        ("model: {kind: linear, A: [[-1.0]], b: [[1.0, 0.0]]}", "model"),
    ]
    for text, needle in cases:
        with pytest.raises(ConfigError) as exc:
            load_config(_write(tmp_path, text))
        assert needle in str(exc.value), text


def test_invalid_yaml_is_a_config_error(tmp_path):
    path = _write(tmp_path, "model: [unclosed")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(path)


def test_defaults_are_flagged_as_non_paper(tmp_path):
    cfg = load_config(_write(tmp_path, "model: lv"))
    assert cfg.t1 == 30.0
    assert len(cfg.obs_times) == 20
    assert cfg.non_paper_defaults == {
        "horizon": True, "init_moments": True, "initial_state": True,
        "observation_schedule": True}
    explicit = load_config(_write(tmp_path, LV_SMALL_YAML))
    assert explicit.non_paper_defaults == {}


def test_default_observation_schedule_is_evenly_spaced(tmp_path):
    cfg = load_config(_write(tmp_path, "model: lv"))
    np.testing.assert_allclose(np.diff(cfg.obs_times), 1.5, rtol=1e-12)
    assert cfg.obs_times[-1] == pytest.approx(30.0)


# ---------------------------------------------------------------------------
# CSV round-trips


def test_observation_csv_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    obs = [Observation(t, rng.normal(size=3) * 10.0 ** rng.integers(-3, 4))
           for t in np.sort(rng.uniform(0, 5, size=7))]
    path = tmp_path / "obs.csv"
    write_observations(path, obs, 3)
    back = read_observations(path)
    assert len(back) == len(obs)
    for a, b in zip(obs, back):
        assert a.time == b.time
        assert (a.value == b.value).all()


def test_trajectory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    times = np.cumsum(rng.exponential(0.1, size=11))
    states = rng.integers(0, 200, size=(11, 2)).astype(float)
    path = tmp_path / "traj.csv"
    write_trajectory(path, times, states)
    t2, s2 = read_trajectory(path)
    assert (t2 == times).all() and (s2 == states).all()


def test_marginal_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(10)
    n, d = 6, 3
    covs = np.empty((n, d, d))
    for k in range(n):
        w = rng.normal(size=(d, d))
        covs[k] = w @ w.T + 0.1 * np.eye(d)
    marg = MarginalPath(np.linspace(0, 1, n), rng.normal(size=(n, d)),
                        covs, kind="smoothed")
    path = tmp_path / "marg.csv"
    write_marginals(path, marg)
    back = read_marginals(path)
    assert (back.times == marg.times).all()
    assert (back.means == marg.means).all()
    assert (back.covs == marg.covs).all()
    header = path.read_text().splitlines()[0]
    assert header == "t,m1,m2,m3,P11,P12,P13,P22,P23,P33"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_deterministic_byte_for_byte(tmp_path):
    cfg_path = _write(tmp_path, LV_SMALL_YAML)
    cfg = load_config(cfg_path)
    first = cmd_simulate(cfg, out=tmp_path / "a")
    second = cmd_simulate(cfg, out=tmp_path / "b")
    for key in ("trajectory", "observations"):
        a = open(first[key], "rb").read()
        b = open(second[key], "rb").read()
        assert a == b
    third = cmd_simulate(cfg, out=tmp_path / "c", seed=77)
    assert open(first["trajectory"], "rb").read() != \
        open(third["trajectory"], "rb").read()


def test_simulate_jump_model_writes_one_row_per_event(tmp_path):
    cfg = load_config(_write(tmp_path, LV_SMALL_YAML))
    paths = cmd_simulate(cfg, out=tmp_path / "out")
    times, states = read_trajectory(paths["trajectory"])
    assert (np.diff(times) > 0).all()
    assert times[0] == 0.0
    # integer copy numbers change by single-reaction stoichiometry
    assert np.all(states == np.round(states))
    jumps = np.abs(np.diff(states, axis=0)).sum(axis=1)
    assert jumps.max() <= 2
    obs = read_observations(paths["observations"])
    assert len(obs) == 6
    assert all((o.value > 0).all() for o in obs)


def test_simulate_diffusion_model_writes_one_row_per_node(tmp_path):
    cfg = load_config(_write(tmp_path, LINEAR_YAML))
    paths = cmd_simulate(cfg, out=tmp_path / "out")
    times, states = read_trajectory(paths["trajectory"])
    assert len(times) == cfg.n_steps + 1
    np.testing.assert_allclose(times, np.linspace(0, 4, 401), atol=1e-12)
    assert states.shape == (401, 2)


def test_simulate_with_zero_observations_writes_header_only(tmp_path):
    text = LV_SMALL_YAML.replace("count: 6", "count: 0")
    cfg = load_config(_write(tmp_path, text))
    paths = cmd_simulate(cfg, out=tmp_path / "out")
    lines = open(paths["observations"]).read().splitlines()
    assert lines == ["t,y1,y2"]
    assert read_observations(paths["observations"]) == []


# ---------------------------------------------------------------------------
# infer


def test_infer_linear_gaussian_matches_oracle_csv(tmp_path):
    cfg = load_config(_write(tmp_path, LINEAR_YAML))
    obs_times = [0.5, 1.5, 2.5, 3.5]
    rng = np.random.default_rng(21)
    values = rng.normal(size=(4, 2))
    obs_path = tmp_path / "obs.csv"
    write_observations(obs_path, [Observation(t, v)
                                  for t, v in zip(obs_times, values)], 2)

    out = cmd_infer(cfg, obs_path, out=tmp_path / "out")
    marg = read_marginals(out["marginals"])

    ref = linear_gaussian_reference(
        np.array(A2), np.array(B2), np.array([1.0, -0.5]),
        np.array([[0.7, 0.1], [0.1, 0.5]]), 0.0, 4.0, 400,
        np.array(obs_times), values, np.array([[0.3, 0.05], [0.05, 0.2]]))
    assert np.abs(marg.means - ref["smoothed_means"]).max() <= 1e-6
    assert np.abs(marg.covs - ref["smoothed_covs"]).max() <= 1e-6

    diag = json.load(open(out["diagnostics"]))
    assert diag["method"] == "ep"
    assert diag["converged"] is True
    assert diag["sweeps_run"] == 1
    assert diag["rng_algorithm"] == "philox4x64"
    assert abs(diag["log_evidence"] - ref["loglik"]) <= 1e-6


def test_infer_methods_share_schema(tmp_path):
    cfg_path = _write(tmp_path, LV_SMALL_YAML)
    cfg = load_config(cfg_path)
    sim = cmd_simulate(cfg, out=tmp_path / "sim")
    headers = {}
    for method in ("adf", "adf-s", "ep"):
        text = LV_SMALL_YAML.replace("method: ep", f"method: {method}")
        mcfg = load_config(_write(tmp_path, text, f"{method}.yaml"))
        out = cmd_infer(mcfg, sim["observations"], out=tmp_path / method)
        headers[method] = open(out["marginals"]).readline()
        diag = json.load(open(out["diagnostics"]))
        assert diag["method"] == method
        assert diag["log_evidence"] is None or np.isfinite(
            diag["log_evidence"])
    assert len(set(headers.values())) == 1
    ep_diag = json.load(open(tmp_path / "ep" / "diagnostics.json"))
    assert ep_diag["sweeps_run"] >= 1
    assert len(ep_diag["max_site_delta_history"]) == ep_diag["sweeps_run"]


def test_infer_missing_observation_file_is_exit_2(tmp_path, capsys):
    cfg_path = _write(tmp_path, LV_SMALL_YAML)
    code = main(["infer", "--config", str(cfg_path),
                 "--observations", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "absent.csv" in err and "not found" in err


def test_infer_require_convergence_is_exit_4(tmp_path, capsys):
    text = LV_SMALL_YAML + "ep: {tolerance: 1.0e-13, max_sweeps: 2}\n"
    cfg_path = _write(tmp_path, text)
    cfg = load_config(cfg_path)
    sim = cmd_simulate(cfg, out=tmp_path / "sim")
    code = main(["infer", "--config", str(cfg_path),
                 "--observations", sim["observations"],
                 "--out", str(tmp_path / "out"),
                 "--require-convergence"])
    assert code == 4
    assert "not converged" in capsys.readouterr().err
    # outputs are still written for post-mortems
    diag = json.load(open(tmp_path / "out" / "diagnostics.json"))
    assert diag["converged"] is False


def test_console_entry_point_runs(tmp_path):
    cfg_path = _write(tmp_path, LV_SMALL_YAML)
    proc = subprocess.run(
        [sys.executable, "-m", "epsde.cli", "validate",
         "--config", str(cfg_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "config valid" in proc.stdout


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_near_exact_observations_pin_the_obs_nodes(tmp_path):
    text = """\
model: lv
horizon: {t0: 0.0, t1: 6.0}
grid: {n_steps: 300}
init: {mean: [100.0, 100.0], cov: 100.0}
x0: [100, 100]
observations:
  count: 5
  model: {kind: log_normal, variance: 750.0}
benchmark: {variances: [1.0], replicates: 1}
ep: {max_sweeps: 6}
seed: 13
"""
    cfg = load_config(_write(tmp_path, text))
    report = cmd_benchmark(cfg, out=tmp_path / "out")
    for method in ("ep", "adf-s"):
        row = report.row(1.0, method)
        assert row["rmse_observations"] < row["rmse_path"]


def test_benchmark_is_deterministic(tmp_path):
    text = """\
model: lv
horizon: {t0: 0.0, t1: 6.0}
grid: {n_steps: 300}
init: {mean: [100.0, 100.0], cov: 100.0}
x0: [100, 100]
observations:
  count: 5
  model: {kind: log_normal, variance: 750.0}
benchmark: {variances: [750.0], replicates: 2}
seed: 99
"""
    cfg = load_config(_write(tmp_path, text))
    cmd_benchmark(cfg, out=tmp_path / "a")
    cmd_benchmark(cfg, out=tmp_path / "b")
    assert (tmp_path / "a" / "benchmark.csv").read_bytes() == \
        (tmp_path / "b" / "benchmark.csv").read_bytes()


def test_benchmark_rows_do_not_depend_on_worker_count(tmp_path):
    text = """\
model: lv
horizon: {t0: 0.0, t1: 4.0}
grid: {n_steps: 100}
init: {mean: [100.0, 100.0], cov: 100.0}
x0: [100, 100]
observations:
  count: 4
  model: {kind: log_normal, variance: 750.0}
benchmark: {variances: [750.0], replicates: 2}
seed: 7
"""
    cfg = load_config(_write(tmp_path, text))
    serial = cmd_benchmark(cfg, out=tmp_path / "serial", workers=1)
    pooled = cmd_benchmark(cfg, out=tmp_path / "pooled", workers=2)
    assert pooled.rows == serial.rows
    assert pooled.replicate_details == serial.replicate_details


def test_benchmark_requires_jump_model(tmp_path):
    cfg = load_config(_write(tmp_path, LINEAR_YAML))
    with pytest.raises(ConfigError, match="jump"):
        cmd_benchmark(cfg, out=tmp_path / "out")


def test_benchmark_report_magnitudes_at_variance_750(lv_benchmark):
    """Sanity envelope around published accuracy at variance 750.

    The reference experiment's horizon, schedule, and initial state are
    unstated, so the check is a wide magnitude band, not equality."""
    row = lv_benchmark["report"].row(750.0, "ep")
    assert 15.0 * 0.7 <= row["rmse_observations"] <= 15.0 * 1.3
    assert 15.9 * 0.7 <= row["rmse_path"] <= 15.9 * 1.3
    adfs = lv_benchmark["report"].row(750.0, "adf-s")
    assert row["rmse_path"] <= adfs["rmse_path"]
    assert row["replicates"] == 40


def test_benchmark_artifacts_are_complete(lv_benchmark):
    out = lv_benchmark["out"]
    report = json.load(open(out / "benchmark.json"))
    assert report["rng_algorithm"] == "philox4x64"
    assert report["variances"] == [500.0, 750.0, 1000.0]
    assert {r["method"] for r in report["rows"]} == {"ep", "adf-s"}
    assert len(report["rows"]) == 6
    lines = open(out / "benchmark.csv").read().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("variance,method,rmse_observations,rmse_path")
    assert report["non_paper_defaults"] == {
        "horizon": True, "init_moments": True, "initial_state": True}
