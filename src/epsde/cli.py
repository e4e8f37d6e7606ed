"""Experiment runner: simulate, infer, benchmark, validate.

Configuration is a single YAML file.  Parsing reports the full key path
of any problem and the exit code tells scripts what went wrong: 0
success, 2 configuration error, 3 numerical failure, 4 non-convergence
under --require-convergence.  A kinded section (model, observations
model, loss) is built by the constructor its kind names in a table, with
its other keys as the keyword arguments; that constructor checks the
values, and engine.check_problem how they fit the model and horizon.

Emitted artifacts are plain CSV (17 significant digits, lossless for
float64 round-trips) plus a diagnostics JSON per inference run.  Any
experiment default that is a choice of this implementation rather than
a documented property of the benchmark model is echoed under
non_paper_defaults in the diagnostics, so downstream readers can tell
configured values from invented ones.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .closure import closed_rhs, pack, unpack
from .engine import EpConfig, check_problem, run_adf, run_ep
from .errors import ConfigError, NotConverged, NumericalError
from .filtering import MarginalPath, TimeGrid
from .gaussian import GaussianMoments, finite_array, symmetric_pd
from .likelihoods import (
    GaussianObs,
    LogNormalObs,
    Observation,
    QuadraticLoss,
    QuarticLoss,
)
from .processes import (
    MjpSpec,
    PolynomialMap,
    SdeSpec,
    cle_from_mjp,
    linear_sde,
    lotka_volterra,
)
from .simulate import RNG_ALGORITHM, SEED_LIMIT, euler_maruyama, \
    gillespie, sample_observations

METHODS = ("ep", "adf", "adf-s")


# ---------------------------------------------------------------------------
# configuration


def _expect(mapping, path: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path or '<root>'}: expected a mapping, "
                          f"got {type(mapping).__name__}")


def _known(mapping, path: str, keys) -> None:
    """Reject a key outside keys, naming its path."""
    _expect(mapping, path)
    for key in mapping:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown key" if path
                              else f"{key}: unknown key")


def _get(mapping, key: str, path: str, default=..., kind=None):
    _expect(mapping, path)
    here = f"{path}.{key}" if path else key
    if key not in mapping:
        if default is ...:
            raise ConfigError(f"{here}: required key is missing")
        return default
    value = mapping[key]
    if kind is not None:
        try:
            return kind(value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{here}: {err}") from None
    return value


def _integer(mapping, key: str, path: str, default: int, least=0) -> int:
    """The reader of every integer key: a bool, a number with a fraction
    or one below least is an error, not truncated."""
    value = _get(mapping, key, path, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"{where}: expected an integer of at least "
                          f"{least}, got {value!r}")
    return value


def _array(value, path: str, shape=None) -> np.ndarray:
    try:
        return finite_array(value, path, shape)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _mjp(stoich, rates) -> MjpSpec:
    """The mjp model section: a stoichiometry matrix and, per reaction,
    a rate {terms: [{coeff, expo}, ...]}."""
    stoich = finite_array(stoich, "stoich")
    if stoich.ndim != 2:
        raise ValueError("stoich: expected a 2-D matrix")
    if not isinstance(rates, list) or not rates:
        raise ValueError("rates: expected a non-empty list")
    polys = []
    for i, rate in enumerate(rates):
        rp = f"rates[{i}]"
        _known(rate, rp, ("terms",))
        parsed = []
        for j, term in enumerate(_get(rate, "terms", rp, kind=list)):
            tp = f"{rp}.terms[{j}]"
            _known(term, tp, ("coeff", "expo"))
            coeff = finite_array(_get(term, "coeff", tp), f"{tp}.coeff", ())
            expo = finite_array(_get(term, "expo", tp), f"{tp}.expo")
            parsed.append((float(coeff), np.atleast_1d(expo)))
        try:
            polys.append(PolynomialMap.from_terms(len(stoich), parsed))
        except ValueError as err:
            raise ValueError(f"{rp}.{err}") from None
    return MjpSpec(len(stoich), stoich, tuple(polys))


# a kinded section's kind -> the constructor that builds and checks it
_MODELS = {"lv": lotka_volterra, "linear": linear_sde, "mjp": _mjp}
_OBS_MODELS = {"gaussian": GaussianObs, "log_normal": LogNormalObs}
_LOSSES = {"quadratic": QuadraticLoss, "quartic": QuarticLoss}


def _build(node, path: str, table: dict):
    """The object a kinded section describes: its kind picks the
    constructor in table, and its other keys are that constructor's
    keyword arguments.  A ValueError the constructor raises starts with
    the key path it is about, which is reported under path."""
    kind = _get(node, "kind", path, kind=str)
    if kind not in table:
        raise ConfigError(f"{path}.kind: {kind!r} is not one of {list(table)}")
    params = inspect.signature(table[kind]).parameters
    _known(node, path, ("kind", *params))
    for name, param in params.items():
        if param.default is param.empty and name not in node:
            raise ConfigError(f"{path}.{name}: required key is missing")
    try:
        return table[kind](**{k: v for k, v in node.items() if k != "kind"})
    except ValueError as err:
        raise ConfigError(f"{path}.{err}") from None


@dataclass(eq=False)
class ExperimentConfig:
    """Validated experiment description plus provenance flags."""

    mjp: MjpSpec | None
    sde: SdeSpec
    t0: float
    t1: float
    n_steps: int
    init: GaussianMoments
    x0: np.ndarray
    obs_times: np.ndarray
    obs_model: object
    loss: object | None
    method: str
    ep: EpConfig
    seed: int
    variances: tuple[float, ...]
    replicates: int
    output: str
    non_paper_defaults: dict


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML experiment file; the objects the kinded
    sections build check their own values."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: invalid YAML: {err}") from None
    if raw is None:
        raw = {}
    _known(raw, "", ("model", "horizon", "grid", "init", "x0", "observations",
                     "loss", "method", "ep", "benchmark", "seed", "output"))
    flags = {}

    node = raw.get("model")
    model = _build({"kind": "lv"} if node in (None, "lv") else node, "model",
                   _MODELS)
    mjp = model if isinstance(model, MjpSpec) else None
    sde = model if mjp is None else cle_from_mjp(mjp)
    dim = sde.dim
    try:
        closed_rhs(sde)
    except ValueError as err:
        raise ConfigError(f"model: {err}") from None

    horizon = raw.get("horizon")
    if horizon is None:
        t0, t1 = 0.0, 30.0
        flags["horizon"] = True
    else:
        _known(horizon, "horizon", ("t0", "t1"))
        t0 = _get(horizon, "t0", "horizon", default=0.0, kind=float)
        t1 = _get(horizon, "t1", "horizon", kind=float)
    grid_node = raw.get("grid") or {}
    _known(grid_node, "grid", ("n_steps",))
    # 0.01 apart by default; TimeGrid reports an infinite horizon first
    default = round((t1 - t0) / 0.01) if np.isfinite(t1 - t0) else 0
    try:
        grid = TimeGrid(t0, t1, grid_node.get("n_steps", default))
    except ValueError as err:
        key = "grid" if str(err).startswith("n_steps") else "horizon"
        raise ConfigError(f"{key}.{err}") from None

    init_node = raw.get("init")
    if init_node is None:
        mean = np.full(dim, 100.0)
        cov = 100.0 * np.eye(dim)
        flags["init_moments"] = True
    else:
        _known(init_node, "init", ("mean", "cov"))
        mean = _array(_get(init_node, "mean", "init"), "init.mean", (dim,))
        cov = _array(_get(init_node, "cov", "init"), "init.cov")
        cov = cov * np.eye(dim) if cov.ndim == 0 else cov
        if not (cov.shape == (dim, dim) and symmetric_pd(cov)):
            raise ConfigError("init.cov: expected a number > 0 or a symmetric "
                              f"positive definite {dim}x{dim} matrix")
    init = GaussianMoments(mean, cov)

    x0_node = raw.get("x0")
    if x0_node is None:
        x0 = np.full(dim, 100.0)
        if mjp is not None:
            flags["initial_state"] = True
    else:
        x0 = _array(x0_node, "x0", (dim,))
        if mjp is not None and ((x0 < 0) | (x0 != np.round(x0))).any():
            raise ConfigError("x0: expected non-negative integer counts")

    obs_node = raw.get("observations") or {}
    _known(obs_node, "observations", ("times", "count", "model"))
    if "times" in obs_node:
        if "count" in obs_node:
            raise ConfigError("observations: set times or count, not both")
        obs_times = np.atleast_1d(_array(obs_node["times"],
                                         "observations.times"))
        if obs_times.ndim != 1:
            raise ConfigError("observations.times: expected a list")
    else:
        count = _integer(obs_node, "count", "observations", 20)
        if "count" not in obs_node:
            flags["observation_schedule"] = True
        step = (t1 - t0) / count if count else 0.0
        # the last time can round past t1 (30 / 29 * 29 > 30)
        obs_times = np.minimum(t0 + step * np.arange(1, count + 1), t1)
    try:
        grid.nodes(obs_times)
    except ValueError as err:
        key = "times" if "times" in obs_node else "count"
        raise ConfigError(f"observations.{key}: {err}") from None
    node = obs_node.get("model")
    obs_model = (LogNormalObs(750.0) if node is None
                 else _build(node, "observations.model", _OBS_MODELS))
    node = raw.get("loss")
    loss = None if node is None else _build(node, "loss", _LOSSES)
    try:
        check_problem(sde, [], obs_model, loss, init, grid)
    except ValueError as err:
        raise ConfigError(str(err).replace(
            "obs_model.", "observations.model.", 1)) from None

    method = _get(raw, "method", "", default="ep", kind=str)
    if method not in METHODS:
        raise ConfigError(f"method: must be one of {METHODS}")

    ep_node = raw.get("ep") or {}
    _known(ep_node, "ep", [f.name for f in fields(EpConfig)])
    try:
        ep = EpConfig(**ep_node)
    except ValueError as err:
        raise ConfigError(f"ep.{err}") from None

    bench = raw.get("benchmark") or {}
    _known(bench, "benchmark", ("variances", "replicates"))
    variances = _array(bench.get("variances", [750.0]), "benchmark.variances")
    if variances.ndim != 1 or (variances <= 0).any():
        raise ConfigError("benchmark.variances: expected positive numbers")
    replicates = _integer(bench, "replicates", "benchmark", 40, least=1)
    seed = _integer(raw, "seed", "", 0)
    output = _get(raw, "output", "", default="out", kind=str)

    return ExperimentConfig(
        mjp=mjp, sde=sde, t0=t0, t1=t1, n_steps=grid.n_steps, init=init,
        x0=x0, obs_times=obs_times, obs_model=obs_model, loss=loss,
        method=method, ep=ep, seed=seed, variances=tuple(variances.tolist()),
        replicates=replicates, output=output, non_paper_defaults=flags)


# ---------------------------------------------------------------------------
# CSV artifacts


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_table(path, header: list[str], rows) -> None:
    """One CSV line per row, numbers in 17 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def _read_table(path, what: str) -> np.ndarray:
    """The rows under a header starting with 't', one per line, as finite
    numbers, one per header column; a bad cell names the file and line."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "t":
        raise ConfigError(f"{path}: expected header starting with 't'")
    width = len(rows[0])
    table = np.empty((len(rows) - 1, width))
    for line, row in enumerate(rows[1:], start=2):
        try:
            values = [float(v) for v in row]
        except ValueError:
            values = []
        if len(values) != width or not np.isfinite(values).all():
            raise ConfigError(f"{path}, line {line}: expected {width} "
                              "finite numbers")
        table[line - 2] = values
    return table


def write_observations(path, obs: list[Observation], dim: int) -> None:
    _write_table(path, ["t"] + [f"y{i + 1}" for i in range(dim)],
                 ([o.time, *o.value] for o in obs))


def read_observations(path) -> list[Observation]:
    return [Observation(row[0], row[1:])
            for row in _read_table(path, "observations")]


def write_trajectory(path, times, states) -> None:
    states = np.atleast_2d(np.asarray(states, dtype=float))
    _write_table(path, ["t"] + [f"n{i + 1}" for i in range(states.shape[1])],
                 ([t, *row] for t, row in zip(times, states)))


def read_trajectory(path) -> tuple[np.ndarray, np.ndarray]:
    table = _read_table(path, "trajectory")
    return table[:, 0], table[:, 1:]


def write_marginals(path, marg: MarginalPath) -> None:
    dim = marg.means.shape[1]
    _write_table(path, ["t"] + [f"m{i + 1}" for i in range(dim)]
                 + [f"P{i + 1}{j + 1}" for i, j in zip(*np.triu_indices(dim))],
                 np.column_stack((marg.times, pack(marg.means, marg.covs))))


def read_marginals(path) -> MarginalPath:
    table = _read_table(path, "marginals")
    # the columns are t, d means and d(d+1)/2 covariance entries
    dim = int(round((np.sqrt(9 + 8 * (table.shape[1] - 1)) - 3) / 2))
    return MarginalPath(table[:, 0], *unpack(table[:, 1:], dim))


# ---------------------------------------------------------------------------
# commands


def _out_dir(cfg: ExperimentConfig, out) -> Path:
    d = Path(out if out is not None else cfg.output)
    d.mkdir(parents=True, exist_ok=True)
    return d


def cmd_simulate(cfg: ExperimentConfig, out=None, seed=None) -> dict:
    """Draw one ground-truth path plus observations and write both."""
    seed = cfg.seed if seed is None else seed
    out_dir = _out_dir(cfg, out)
    if cfg.mjp is not None:
        traj = gillespie(cfg.mjp, cfg.x0.astype(np.int64), cfg.t0, cfg.t1,
                         seed=seed)
    else:
        traj = euler_maruyama(cfg.sde, cfg.x0, cfg.t0, cfg.t1,
                              n_steps=cfg.n_steps, seed=seed)
    obs = sample_observations(traj, cfg.obs_times, cfg.obs_model,
                              seed=seed + 1)
    traj_path = out_dir / "trajectory.csv"
    obs_path = out_dir / "observations.csv"
    write_trajectory(traj_path, traj.times, traj.states)
    write_observations(obs_path, obs, cfg.sde.dim)
    return {"trajectory": str(traj_path), "observations": str(obs_path)}


def cmd_infer(cfg: ExperimentConfig, obs_file, out=None,
              require_convergence: bool = False) -> dict:
    """Run the configured method on observations read from a CSV file."""
    out_dir = _out_dir(cfg, out)
    obs = read_observations(obs_file)
    grid = TimeGrid(cfg.t0, cfg.t1, cfg.n_steps)
    started = time.perf_counter()
    try:
        problem = (cfg.sde, obs, cfg.obs_model, cfg.loss, cfg.init, grid)
        res = (run_ep(*problem, cfg.ep) if cfg.method == "ep"
               else run_adf(*problem, smoothing=cfg.method == "adf-s"))
    except ValueError as err:
        raise ConfigError(f"observations incompatible with config: {err}") \
            from err
    runtime = time.perf_counter() - started

    marg_path = out_dir / "marginals.csv"
    diag_path = out_dir / "diagnostics.json"
    write_marginals(marg_path, res.smoothed)
    diagnostics = {
        "method": res.method,
        "converged": res.converged,
        "sweeps_run": res.sweeps_run,
        "log_evidence": (res.log_evidence
                         if np.isfinite(res.log_evidence) else None),
        "psd_repairs": res.psd_repairs,
        "skipped_updates": res.skipped_updates,
        "max_site_delta_history": [float(v)
                                   for v in res.max_site_delta_history],
        "rng_algorithm": RNG_ALGORITHM,
        "grid": {"t0": cfg.t0, "t1": cfg.t1, "n_steps": cfg.n_steps},
        "non_paper_defaults": cfg.non_paper_defaults,
        "runtime_seconds": runtime,
    }
    with open(diag_path, "w") as fh:
        json.dump(diagnostics, fh, indent=2)
        fh.write("\n")
    if require_convergence and not res.converged:
        raise NotConverged(
            f"no convergence after {res.sweeps_run} sweeps "
            f"(last delta {res.max_site_delta_history[-1]:.3g}); "
            f"outputs written to {out_dir}")
    return {"marginals": str(marg_path), "diagnostics": str(diag_path),
            "result": res}


@dataclass(frozen=True)
class BenchmarkReport:
    """Aggregated accuracy comparison, one row per (variance, method).

    replicate_details keeps the raw per-replicate records (RMSEs, sweep
    counts, convergence flags, error strings) behind the aggregates.
    """

    rows: tuple
    replicates: int
    replicate_details: tuple = ()

    def row(self, variance: float, method: str) -> dict:
        for r in self.rows:
            if r["variance"] == variance and r["method"] == method:
                return r
        raise KeyError((variance, method))


def _rms(err: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(err))))


def _replicate_job(args) -> dict:
    """One benchmark replicate: simulate a path, sample log-normal
    observations, run ADF-S, then EP continuing from that ADF-S result,
    so ADF-S runs once.  run_adf and run_ep are this module's names,
    looked up at call time, with the observations second."""
    cfg, variance, seed_traj, seed_obs = args
    out = {"variance": variance, "seed": seed_traj, "error": None}
    # the error string names the stage that raised
    stage = "simulate"
    try:
        traj = gillespie(cfg.mjp, cfg.x0.astype(np.int64), cfg.t0, cfg.t1,
                         seed=seed_traj)
        model = LogNormalObs(variance)
        obs = sample_observations(traj, cfg.obs_times, model, seed=seed_obs)
        grid = TimeGrid(cfg.t0, cfg.t1, cfg.n_steps)
        nodes = grid.nodes(cfg.obs_times)
        truth_obs = traj.state_at(cfg.obs_times).astype(float)
        truth_path = traj.state_at(grid.times).astype(float)
        problem = (cfg.sde, obs, model, None, cfg.init, grid)
        res = None
        for stage in ("adf-s", "ep"):
            # EP continues from the ADF-S result of the stage before
            res = (run_ep(*problem, cfg.ep, adfs=res) if stage == "ep"
                   else run_adf(*problem, smoothing=True))
            out[stage] = {
                "rmse_observations": _rms(res.smoothed.means[nodes]
                                          - truth_obs),
                "rmse_path": _rms(res.smoothed.means - truth_path),
                "sweeps": res.sweeps_run,
                "converged": res.converged,
            }
    except NumericalError as err:
        out["error"] = f"{stage}: {type(err).__name__}: {err}"
    return out


def cmd_benchmark(cfg: ExperimentConfig, out=None, workers: int = 1
                  ) -> BenchmarkReport:
    """Compare EP against ADF-S on fresh jump-process ground truth.

    Each replicate is an independent pipeline keyed by its own seed:
    exact simulation, observation sampling, both inference methods, and
    RMSEs of the posterior mean against the true path jointly over all
    (time, component) cells.
    """
    if cfg.mjp is None:
        raise ConfigError("benchmark: requires a jump-process model")
    out_dir = _out_dir(cfg, out)
    jobs = []
    for vi, variance in enumerate(cfg.variances):
        for rep in range(cfg.replicates):
            base = cfg.seed + 2 * (vi * cfg.replicates + rep)
            jobs.append((cfg, variance, base, base + 1))
    if workers > 1:
        # imported only here, so single-worker runs skip its start-up
        # time and memory
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_job, jobs))
    else:
        results = [_replicate_job(j) for j in jobs]

    failures = [r for r in results if r["error"]]
    if len(failures) > 0.1 * len(results):
        first = failures[0]
        raise NumericalError(
            f"benchmark failed: {len(failures)}/{len(results)} replicates "
            f"errored; the first at variance {first['variance']:g}, seed "
            f"{first['seed']}: {first['error']}")

    rows = []
    for variance in cfg.variances:
        mine = [r for r in results if r["variance"] == variance]
        ok = [r for r in mine if not r["error"]]
        if not ok:
            raise NumericalError(
                f"benchmark failed: every replicate at variance {variance:g} "
                f"errored; the first, seed {mine[0]['seed']}: "
                f"{mine[0]['error']}")
        for method in ("adf-s", "ep"):
            cells = [r[method] for r in ok]
            mean = {k: float(np.mean([c[k] for c in cells])) for k in cells[0]}
            rows.append({"variance": variance, "method": method,
                         "rmse_observations": mean["rmse_observations"],
                         "rmse_path": mean["rmse_path"],
                         "mean_sweeps": mean["sweeps"],
                         "converged_fraction": mean["converged"],
                         "replicates": len(cells),
                         "failures": len(mine) - len(ok)})
    report = BenchmarkReport(rows=tuple(rows), replicates=cfg.replicates,
                             replicate_details=tuple(results))

    header = ["variance", "method", "rmse_observations", "rmse_path",
              "mean_sweeps", "converged_fraction", "replicates", "failures"]
    _write_table(out_dir / "benchmark.csv", header,
                 ([r[key] for key in header] for r in rows))
    json_path = out_dir / "benchmark.json"
    with open(json_path, "w") as fh:
        json.dump({
            "rows": rows,
            "replicates": cfg.replicates,
            "variances": list(cfg.variances),
            "seed": cfg.seed,
            "rng_algorithm": RNG_ALGORITHM,
            "grid": {"t0": cfg.t0, "t1": cfg.t1, "n_steps": cfg.n_steps},
            "observation_count": int(cfg.obs_times.size),
            "non_paper_defaults": cfg.non_paper_defaults,
        }, fh, indent=2)
        fh.write("\n")
    return report


# ---------------------------------------------------------------------------
# entry point


def _check_seed(cfg: ExperimentConfig, command: str, name: str) -> None:
    """Reject a seed whose largest derived key the generator cannot take:
    simulate's seed + 1, or the last replicate's observation seed in
    benchmark, which validate checks too (infer draws nothing)."""
    if command == "infer":
        return
    last = cfg.seed + (1 if command == "simulate"
                       else 2 * len(cfg.variances) * cfg.replicates - 1)
    if last >= SEED_LIMIT:
        raise ConfigError(f"{name}: {command} derives the generator key "
                          f"{last} from it; keys must be below 2**128")


def _int_at_least(least: int):
    """An argparse type: an integer of at least least, or exit 2."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsde",
        description="Posterior inference for diffusion and jump processes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML experiment file")
        p.add_argument("--out", default=None, help="output directory")
        # as for the config's seed key: Philox takes no negative key
        p.add_argument("--seed", type=_int_at_least(0), default=None,
                       help="override the config seed")

    p = sub.add_parser("simulate", help="draw a ground-truth path and "
                                        "observations")
    common(p)
    p = sub.add_parser("infer", help="run inference on an observation file")
    common(p)
    p.add_argument("--observations", required=True,
                   help="observations CSV from simulate")
    p.add_argument("--require-convergence", action="store_true",
                   help="exit 4 if the sweep loop does not converge")
    p = sub.add_parser("benchmark", help="RMSE comparison of EP and ADF-S")
    common(p)
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="concurrent replicate processes")
    p = sub.add_parser("validate", help="check a config file and exit")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = getattr(args, "seed", None)
        if seed is not None:
            cfg.seed = seed
        _check_seed(cfg, args.command, "seed" if seed is None else "--seed")
        if args.command == "validate":
            print(f"config valid: {args.config}")
            return 0
        if args.command == "simulate":
            paths = cmd_simulate(cfg, args.out)
            print(paths["trajectory"])
            print(paths["observations"])
        elif args.command == "infer":
            paths = cmd_infer(cfg, args.observations, args.out,
                              require_convergence=args.require_convergence)
            print(paths["marginals"])
            print(paths["diagnostics"])
        elif args.command == "benchmark":
            report = cmd_benchmark(cfg, args.out, workers=args.workers)
            for row in report.rows:
                print(f"variance={row['variance']:g} method={row['method']} "
                      f"rmse_obs={row['rmse_observations']:.3f} "
                      f"rmse_path={row['rmse_path']:.3f} "
                      f"sweeps={row['mean_sweeps']:.1f}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NotConverged as err:
        print(f"not converged: {err}", file=sys.stderr)
        return 4
    except NumericalError as err:
        print(f"numerical failure: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
