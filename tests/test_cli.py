"""CLI contract: config validation, CSV formats, exit codes, benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epsde import cli, engine
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
from epsde.errors import ConfigError, DivergedMoments, NumericalError
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
        # two times nearest to one grid node, t = 3 on this grid
        ("grid: {n_steps: 10}\nobservations: {times: [4.0, 4.4]}",
         "observations.times: times 4 and 4.4 share grid node 1"),
        ("observations: {model: {kind: log_normal, variance: -3.0}}",
         "observations.model.variance"),
        ("observations: {model: {kind: log_normal, variance: .nan}}",
         "observations.model.variance"),
        ("observations: {model: {kind: log_normal, variance: .inf}}",
         "observations.model.variance"),
        ("observations: {model: {kind: log_normal, variance: 750.0, "
         "parameterization: multiplicative}}",
         "observations.model.parameterization"),
        ("model: {kind: linear, A: [[-1.0]], b: [[1.0]]}\n"
         "observations: {model: {kind: gaussian, R: [[-0.2]]}}",
         "observations.model.R"),
        ("observations: {model: {kind: gaussian, R: [[1.0]]}}",
         "observations.model.R"),
        ("observations: {model: {kind: gaussian, "
         "R: [[1.0, 0.5], [0.4, 1.0]]}}", "observations.model.R"),
        ("observations: {model: {kind: gaussian, "
         "R: [[1.0, 2.0], [2.0, 1.0]]}}", "observations.model.R"),
        ("ep: {dampening: 0.5}", "ep"),
        ("ep: {damping: 1.5}", "ep"),
        ("ep: {max_sweeps: 2.5}", "ep"),
        ("ep: {max_sweeps: true}", "ep"),
        ("ep: {quad_order: 32}", "ep.quad_order"),
        ("ep: {tolerance: .nan}", "ep"),
        ("ep: {eps_psd: 1.0e-8}", "ep.eps_psd"),
        ("ep: {init_mode: project}", "ep"),
        ("ep: {flat_init_scale: 1.0e-6}", "ep"),
        ("benchmark: {variances: [0.0]}", "benchmark.variances"),
        ("benchmark: {variances: [.nan]}", "benchmark.variances"),
        ("benchmark: {variances: [.inf]}", "benchmark.variances"),
        ("benchmark: {replicates: 0}", "benchmark.replicates"),
        ("benchmark: {replicate: 5}", "benchmark.replicate"),
        ("grid: {nsteps: 150}", "grid.nsteps"),
        ("model: {kind: lv, K0: 3.0}", "model.K0"),
        ("methd: adf", "methd"),
        ("observations: {cont: 4}", "observations.cont"),
        ("loss: {kind: cubic}", "loss.kind"),
        ("model: {kind: linear, A: [[-1.0]], b: [[1.0, 0.0]]}", "model"),
        ("model: {kind: mjp, stoich: [[1]], "
         "rates: [{terms: [{coeff: 1.0, expo: [8]}]}]}", "model"),
        # integer keys reject fractions and bools
        ("grid: {n_steps: 150.7}", "grid.n_steps"),
        ("grid: {n_steps: true}", "grid.n_steps"),
        ("seed: 1.5", "seed"),
        ("benchmark: {replicates: 2.9}", "benchmark.replicates"),
        ("observations: {count: 2.5}", "observations.count"),
        # the value rules of the kinded sections, the schedule, init and x0
        ("observations: {times: [1.0, 2.0], count: 5}", "observations"),
        ("loss: {kind: quadratic, A: [[1.0]], c: [1.0, 2.0]}", "loss.A"),
        ("loss: {kind: quadratic, A: [[1.0, 0.5], [0.0, 1.0]], "
         "c: [0.0, 0.0]}", "loss.A"),
        ("loss: {kind: quadratic, A: [[1.0]], c: [1.0]}", "loss.c"),
        ("loss: {kind: quartic, weight: [1.0], center: [1.0, 2.0], "
         "window: [[1.0, 2.0]]}", "loss.center"),
        ("model: {kind: lv, k0: .nan}", "model.k0"),
        ("init: {mean: [100.0, 100.0], cov: abc}", "init.cov"),
        ("init: {mean: [100.0, 100.0], cov: -3.0}", "init.cov"),
        ("observations: {times: [[1.0, 1.5]]}", "observations.times"),
        ("model: {kind: mjp, stoich: [[1]], "
         "rates: [{terms: [{coeff: 1.0, expo: [0.5]}]}]}",
         "model.rates[0].terms[0].expo"),
        ("model: {kind: mjp, stoich: [[1.5]], "
         "rates: [{terms: [{coeff: 1.0, expo: [0]}]}]}", "model.stoich"),
        ("model: {kind: mjp, stoich: [[1]], "
         "rates: [{terms: [{coeff: .nan, expo: [0]}]}]}",
         "model.rates[0].terms[0].coeff"),
        ("x0: [100.5, 100]", "x0"),
        ("x0: [-5, 100]", "x0"),
        ("model: {kind: linear, A: [[-1.0]], b: [[-1.0]]}", "model.b"),
        # the ep section: a message names its key, and bools and
        # non-numbers are errors, not comparisons or 1.0
        ("ep: {damping: abc}", "ep.damping"),
        ("ep: {damping: true}", "ep.damping"),
        ("ep: {damping: 0.0}", "ep.damping"),
        ("ep: {tolerance: abc}", "ep.tolerance"),
        ("ep: {max_sweeps: 0}", "ep.max_sweeps"),
        ("ep: {init_mode: auto}", "ep.init_mode"),
    ]
    for text, needle in cases:
        with pytest.raises(ConfigError) as exc:
            load_config(_write(tmp_path, text))
        assert needle in str(exc.value), text


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A complete config")[1].split("```yaml\n")[1]
    cfg = load_config(_write(tmp_path, block.split("```")[0]))
    assert cfg.mjp is not None and cfg.n_steps == 1500
    assert cfg.loss is not None and cfg.variances == (500.0, 750.0, 1000.0)


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


def test_observation_count_schedule_ends_at_t1(tmp_path):
    # 30 / 29 * 29 rounds to 30.000000000000004, past t1
    cfg = load_config(_write(tmp_path, "observations: {count: 29}"))
    assert cfg.obs_times[-1] == 30.0 and len(cfg.obs_times) == 29


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
    marg = MarginalPath(np.linspace(0, 1, n), rng.normal(size=(n, d)), covs)
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


@pytest.mark.parametrize("cell", ["abc", "nan", "inf", ""])
def test_infer_malformed_observation_cell_is_exit_2(tmp_path, capsys, cell):
    cfg_path = _write(tmp_path, LV_SMALL_YAML)
    obs_path = tmp_path / "bad.csv"
    obs_path.write_text(f"t,y1,y2\n1.0,90.0,110.0\n2.0,{cell},95.0\n")
    code = main(["infer", "--config", str(cfg_path),
                 "--observations", str(obs_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and "line 3" in err


@pytest.mark.parametrize("rows, message", [
    ("4.0,90.0,110.0\n4.004,95.0,100.0",
     "times 4 and 4.004 share grid node 400 (t = 4); use a finer grid"),
    ("6.0,90.0,110.0\n8.004,95.0,100.0", "time 8.004 lies outside [0.0, 8.0]"),
    ("6.0,-5.0,80.0", "log-normal observation at t=6.0 must be positive"),
], ids=["shared-node", "past-t1", "non-positive"])
def test_infer_observations_meet_the_config_rule(tmp_path, capsys, rows,
                                                 message):
    # a CSV observation is placed as a config time is, and exits 2
    cfg_path = _write(tmp_path, LV_SMALL_YAML)
    obs_path = tmp_path / "obs.csv"
    obs_path.write_text(f"t,y1,y2\n{rows}\n")
    code = main(["infer", "--config", str(cfg_path),
                 "--observations", str(obs_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["abc", "nan", "inf", ""])
@pytest.mark.parametrize("reader", [read_observations, read_trajectory,
                                    read_marginals],
                         ids=["observations", "trajectory", "marginals"])
def test_readers_reject_malformed_cell(tmp_path, reader, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,m1,P11\n1.0,90.0,110.0\n2.0,{cell},95.0\n")
    with pytest.raises(ConfigError, match="bad.csv, line 3"):
        reader(path)


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


def test_module_entry_point_runs_without_warning(tmp_path):
    cfg_path = _write(tmp_path, LV_SMALL_YAML)
    proc = subprocess.run(
        [sys.executable, "-m", "epsde", "validate", "--config", str(cfg_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "config valid" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


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


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_benchmark_rejects_workers_below_one(tmp_path, capsys, workers):
    path = _write(tmp_path, LV_SMALL_YAML)
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", "--config", str(path), "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_seed_option_rejects_negative(tmp_path, capsys):
    path = _write(tmp_path, LV_SMALL_YAML)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(path), "--seed", "-3",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


# a key of 2**128 is one past Philox's range; in benchmark seed + 1 is
# in range and the last replicate's observation seed, seed + 2 * 40 - 1,
# is not
@pytest.mark.parametrize("command, seed, option", [
    ("simulate", 2 ** 128 - 1, False), ("simulate", 2 ** 128 - 1, True),
    ("benchmark", 2 ** 128 - 79, False), ("benchmark", 2 ** 128 - 79, True),
    ("validate", 2 ** 128 - 79, False)],
    ids=["simulate-key", "simulate-option", "benchmark-key",
         "benchmark-option", "validate-key"])
def test_seed_whose_derived_keys_pass_the_generator_is_exit_2(
        tmp_path, capsys, command, seed, option):
    text = LV_SMALL_YAML if option else \
        LV_SMALL_YAML.replace("seed: 5", f"seed: {seed}")
    argv = [command, "--config", str(_write(tmp_path, text))]
    if option:
        argv += ["--seed", str(seed)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {'--seed' if option else 'seed'}: " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, seed", [
    ("simulate", 2 ** 128 - 2), ("validate", 2 ** 128 - 80)],
    ids=["simulate", "validate"])
def test_seed_whose_last_key_is_in_range_runs(tmp_path, command, seed):
    text = LV_SMALL_YAML.replace("seed: 5", f"seed: {seed}")
    argv = [command, "--config", str(_write(tmp_path, text))]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 0


def test_benchmark_failure_names_method_and_first_replicate(tmp_path,
                                                            monkeypatch):
    def diverge(*args, **kwargs):
        raise DivergedMoments("moments diverged", time_index=5)

    monkeypatch.setattr(cli, "run_ep", diverge)
    text = """\
model: lv
horizon: {t0: 0.0, t1: 4.0}
grid: {n_steps: 100}
observations:
  count: 4
  model: {kind: log_normal, variance: 750.0}
benchmark: {variances: [750.0], replicates: 1}
seed: 7
"""
    cfg = load_config(_write(tmp_path, text))
    error = "ep: DivergedMoments: moments diverged (grid node 5)"
    assert cli._replicate_job((cfg, 750.0, 7, 8))["error"] == error
    with pytest.raises(NumericalError) as exc:
        cmd_benchmark(cfg, out=tmp_path / "out")
    assert str(exc.value) == ("benchmark failed: 1/1 replicates errored; "
                              f"the first at variance 750, seed 7: {error}")


@pytest.mark.parametrize("command", ["validate", "simulate", "benchmark"])
def test_observation_times_sharing_a_grid_node_are_exit_2(tmp_path, capsys,
                                                          command):
    text = ("grid: {n_steps: 10}\nobservations: {times: [4.0, 4.4]}\n"
            "benchmark: {replicates: 1}\n")
    argv = [command, "--config", str(_write(tmp_path, text))]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "observations.times: times 4 and 4.4 share grid node 1" \
        in capsys.readouterr().err


def test_benchmark_runs_adfs_once_per_replicate(tmp_path, monkeypatch):
    # bench/tracer.py's stopwatch times cli.run_adf and cli.run_ep and
    # reads the observations from args[1]; EP continues from the ADF-S
    # result instead of running engine.run_adf itself
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, args[1]))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "run_adf", spy("adf-s", cli.run_adf))
    monkeypatch.setattr(cli, "run_ep", spy("ep", cli.run_ep))
    monkeypatch.setattr(engine, "run_adf", spy("inner", engine.run_adf))
    text = """\
model: lv
horizon: {t0: 0.0, t1: 4.0}
grid: {n_steps: 100}
observations:
  count: 4
  model: {kind: log_normal, variance: 750.0}
benchmark: {variances: [750.0], replicates: 2}
seed: 7
"""
    cmd_benchmark(load_config(_write(tmp_path, text)), out=tmp_path / "out")
    assert [name for name, _ in calls] == ["adf-s", "ep", "adf-s", "ep"]
    for (_, adfs_obs), (_, ep_obs) in (calls[:2], calls[2:]):
        assert ep_obs is adfs_obs and len(adfs_obs) == 4
        assert all(isinstance(o, Observation) for o in adfs_obs)


# the benchmark's Lotka-Volterra setup (see conftest.BENCHMARK_YAML)
LV_BENCHMARK_YAML = """\
model: lv
grid: {n_steps: 1500}
observations:
  count: 10
  model: {kind: log_normal, variance: 750.0}
"""


@pytest.mark.parametrize("seed", [20251863, 20251875, 20263839])
def test_replicates_that_diverged_from_zero_sites_complete(tmp_path, seed):
    # EP started from zero sites raised at sweep 2 on these replicates
    # while ADF-S completed
    cfg = load_config(_write(tmp_path, LV_BENCHMARK_YAML))
    rep = cli._replicate_job((cfg, 750.0, seed, seed + 1))
    assert rep["error"] is None
    assert rep["ep"]["converged"]


def test_ep_path_rmse_stays_near_adfs_on_replicate_20255869(tmp_path):
    # EP started from zero sites converged to path RMSE 95.0 here,
    # against ADF-S 22.8
    cfg = load_config(_write(tmp_path, LV_BENCHMARK_YAML))
    rep = cli._replicate_job((cfg, 750.0, 20255869, 20255870))
    assert rep["ep"]["rmse_path"] <= 1.05 * rep["adf-s"]["rmse_path"]


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
