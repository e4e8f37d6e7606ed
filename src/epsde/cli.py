"""Experiment runner: simulate, infer, benchmark, validate.

Configuration is a single YAML file.  Parsing reports the full key path
of any problem and the exit code tells scripts what went wrong: 0
success, 2 configuration error, 3 numerical failure, 4 non-convergence
under --require-convergence.

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
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .engine import EpConfig, EpResult, run_adf, run_ep
from .errors import ConfigError, NotConverged, NumericalError
from .filtering import MarginalPath, TimeGrid
from .gaussian import GaussianMoments
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
from .simulate import RNG_ALGORITHM, euler_maruyama, gillespie, \
    sample_observations

METHODS = ("ep", "adf", "adf-s")


# ---------------------------------------------------------------------------
# configuration


def _expect(mapping, path: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path or '<root>'}: expected a mapping, "
                          f"got {type(mapping).__name__}")


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


def _array(value, path: str, shape=None) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected numbers") from None
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"{path}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}: values must be finite")
    return arr


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


def _build_model(node, path: str) -> tuple[MjpSpec | None, SdeSpec]:
    if node == "lv" or node is None:
        mjp = lotka_volterra()
        return mjp, cle_from_mjp(mjp)
    _expect(node, path)
    kind = _get(node, "kind", path, kind=str)
    if kind == "lv":
        k = [_get(node, name, path, default=d, kind=float)
             for name, d in (("k0", 5.0), ("k1", 0.3),
                             ("k2", 0.004), ("k3", 0.6))]
        mjp = lotka_volterra(*k)
        return mjp, cle_from_mjp(mjp)
    if kind == "linear":
        A = _array(_get(node, "A", path), f"{path}.A")
        b = _array(_get(node, "b", path), f"{path}.b")
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != b.shape:
            raise ConfigError(f"{path}: A and b must be equal square "
                              "matrices")
        return None, linear_sde(A, b)
    if kind == "mjp":
        stoich = _get(node, "stoich", path)
        try:
            stoich = np.asarray(stoich, dtype=np.int64)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}.stoich: expected integers") from None
        if stoich.ndim != 2:
            raise ConfigError(f"{path}.stoich: expected a 2-D matrix")
        dim = stoich.shape[0]
        rates_node = _get(node, "rates", path)
        if not isinstance(rates_node, list) or not rates_node:
            raise ConfigError(f"{path}.rates: expected a non-empty list")
        rates = []
        for i, r in enumerate(rates_node):
            rp = f"{path}.rates[{i}]"
            _expect(r, rp)
            terms = _get(r, "terms", rp)
            if not isinstance(terms, list):
                raise ConfigError(f"{rp}.terms: expected a list")
            parsed = []
            for j, term in enumerate(terms):
                tp = f"{rp}.terms[{j}]"
                _expect(term, tp)
                coeff = _get(term, "coeff", tp, kind=float)
                expo = _get(term, "expo", tp)
                expo = tuple(int(e) for e in np.atleast_1d(expo))
                if len(expo) != dim or any(e < 0 for e in expo):
                    raise ConfigError(f"{tp}.expo: expected {dim} "
                                      "non-negative integers")
                parsed.append((coeff, expo))
            rates.append(PolynomialMap.from_terms(dim, parsed))
        mjp = MjpSpec(dim, stoich, tuple(rates))
        return mjp, cle_from_mjp(mjp)
    raise ConfigError(f"{path}.kind: unknown model kind {kind!r}")


def _build_obs_model(node, path: str):
    if node is None:
        return LogNormalObs(750.0)
    _expect(node, path)
    kind = _get(node, "kind", path, kind=str)
    if kind == "gaussian":
        R = _array(_get(node, "R", path), f"{path}.R")
        if R.ndim == 0:
            R = R.reshape(1, 1)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ConfigError(f"{path}.R: expected a square matrix")
        return GaussianObs(R)
    if kind == "log_normal":
        v = _get(node, "variance", path, kind=float)
        if v <= 0:
            raise ConfigError(f"{path}.variance: must be positive")
        param = _get(node, "parameterization", path,
                     default="mean_variance", kind=str)
        try:
            return LogNormalObs(v, param)
        except ValueError as err:
            raise ConfigError(f"{path}.parameterization: {err}") from None
    raise ConfigError(f"{path}.kind: unknown observation model {kind!r}")


def _build_loss(node, path: str, t0: float, t1: float):
    if node is None:
        return None
    _expect(node, path)
    kind = _get(node, "kind", path, kind=str)
    if kind == "quadratic":
        A = _array(_get(node, "A", path), f"{path}.A")
        c = _array(_get(node, "c", path), f"{path}.c")
        return QuadraticLoss(A, c)
    if kind == "quartic":
        weight = _array(_get(node, "weight", path), f"{path}.weight")
        center = _array(_get(node, "center", path), f"{path}.center")
        window = _array(_get(node, "window", path), f"{path}.window")
        if (weight < 0).any():
            raise ConfigError(f"{path}.weight: must be non-negative")
        try:
            loss = QuarticLoss(weight, center, window)
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from None
        active = loss.window[loss.weight > 0]
        if active.size and (active.min() < t0 or active.max() > t1):
            raise ConfigError(f"{path}.window: outside horizon "
                              f"[{t0}, {t1}]")
        return loss
    raise ConfigError(f"{path}.kind: unknown loss kind {kind!r}")


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML experiment file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: invalid YAML: {err}") from None
    if raw is None:
        raw = {}
    _expect(raw, "")
    flags = {}

    mjp, sde = _build_model(raw.get("model"), "model")
    dim = sde.dim

    horizon = raw.get("horizon")
    if horizon is None:
        t0, t1 = 0.0, 30.0
        flags["horizon"] = True
    else:
        t0 = _get(horizon, "t0", "horizon", default=0.0, kind=float)
        t1 = _get(horizon, "t1", "horizon", kind=float)
    if not t1 > t0:
        raise ConfigError("horizon: t1 must exceed t0")

    grid_node = raw.get("grid") or {}
    n_steps = _get(grid_node, "n_steps", "grid", default=round(
        (t1 - t0) / 0.01), kind=int)
    if n_steps < 1:
        raise ConfigError("grid.n_steps: must be positive")

    init_node = raw.get("init")
    if init_node is None:
        mean = np.full(dim, 100.0)
        cov = 100.0 * np.eye(dim)
        flags["init_moments"] = True
    else:
        mean = _array(_get(init_node, "mean", "init"), "init.mean", (dim,))
        cov = _get(init_node, "cov", "init")
        cov = (float(cov) * np.eye(dim) if np.isscalar(cov)
               else _array(cov, "init.cov", (dim, dim)))
    try:
        init = GaussianMoments(mean, cov)
    except ValueError as err:
        raise ConfigError(f"init: {err}") from None

    x0_node = raw.get("x0")
    if x0_node is None:
        x0 = np.full(dim, 100.0)
        if mjp is not None:
            flags["initial_state"] = True
    else:
        x0 = _array(x0_node, "x0", (dim,))

    obs_node = raw.get("observations") or {}
    _expect(obs_node, "observations")
    if "times" in obs_node:
        obs_times = _array(obs_node["times"], "observations.times")
        obs_times = np.atleast_1d(obs_times)
    else:
        count = _get(obs_node, "count", "observations", default=20, kind=int)
        if count < 0:
            raise ConfigError("observations.count: must be non-negative")
        if "count" not in obs_node:
            flags["observation_schedule"] = True
        step = (t1 - t0) / count if count else 0.0
        obs_times = t0 + step * np.arange(1, count + 1)
    if obs_times.size and ((obs_times < t0).any() or (obs_times > t1).any()):
        raise ConfigError("observations.times: outside horizon")
    if obs_times.size > 1 and (np.diff(obs_times) <= 0).any():
        raise ConfigError("observations.times: must be strictly increasing")
    obs_model = _build_obs_model(obs_node.get("model"), "observations.model")

    loss = _build_loss(raw.get("loss"), "loss", t0, t1)

    method = _get(raw, "method", "", default="ep", kind=str)
    if method not in METHODS:
        raise ConfigError(f"method: must be one of {METHODS}")

    ep_node = raw.get("ep") or {}
    _expect(ep_node, "ep")
    known = {"damping", "tolerance", "max_sweeps", "flat_init_scale",
             "eps_psd", "quad_order", "init_mode"}
    unknown = set(ep_node) - known
    if unknown:
        raise ConfigError(f"ep: unknown keys {sorted(unknown)}")
    try:
        ep = EpConfig(**ep_node)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"ep: {err}") from None

    bench = raw.get("benchmark") or {}
    _expect(bench, "benchmark")
    variances = bench.get("variances", [750.0])
    try:
        variances = tuple(float(v) for v in variances)
    except (TypeError, ValueError):
        raise ConfigError("benchmark.variances: expected numbers") from None
    if any(v <= 0 for v in variances):
        raise ConfigError("benchmark.variances: must be positive")
    replicates = _get(bench, "replicates", "benchmark", default=40, kind=int)
    if replicates < 1:
        raise ConfigError("benchmark.replicates: must be positive")

    seed = _get(raw, "seed", "", default=0, kind=int)
    output = _get(raw, "output", "", default="out", kind=str)

    return ExperimentConfig(
        mjp=mjp, sde=sde, t0=t0, t1=t1, n_steps=n_steps, init=init, x0=x0,
        obs_times=obs_times, obs_model=obs_model, loss=loss, method=method,
        ep=ep, seed=seed, variances=variances, replicates=replicates,
        output=output, non_paper_defaults=flags)


# ---------------------------------------------------------------------------
# CSV artifacts


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_observations(path, obs: list[Observation], dim: int) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"y{i + 1}" for i in range(dim)])
        for o in obs:
            w.writerow([_fmt(o.time)] + [_fmt(v) for v in o.value])


def read_observations(path) -> list[Observation]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"observations file not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "t":
        raise ConfigError(f"{path}: expected header starting with 't'")
    return [Observation(float(r[0]), np.array([float(v) for v in r[1:]]))
            for r in rows[1:]]


def write_trajectory(path, times, states) -> None:
    states = np.atleast_2d(np.asarray(states, dtype=float))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"n{i + 1}" for i in range(states.shape[1])])
        for t, row in zip(times, states):
            w.writerow([_fmt(t)] + [_fmt(v) for v in row])


def read_trajectory(path) -> tuple[np.ndarray, np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"trajectory file not found: {path}")
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    return data[:, 0], data[:, 1:]


def _tri_indices(dim: int):
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def write_marginals(path, marg: MarginalPath) -> None:
    dim = marg.means.shape[1]
    pairs = _tri_indices(dim)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"m{i + 1}" for i in range(dim)]
                   + [f"P{i + 1}{j + 1}" for i, j in pairs])
        for t, m, c in zip(marg.times, marg.means, marg.covs):
            w.writerow([_fmt(t)] + [_fmt(v) for v in m]
                       + [_fmt(c[i, j]) for i, j in pairs])


def read_marginals(path, kind: str = "smoothed") -> MarginalPath:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"marginals file not found: {path}")
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    n_cols = data.shape[1] - 1
    # n_cols = d + d(d+1)/2
    dim = int(round((np.sqrt(9 + 8 * n_cols) - 3) / 2))
    means = data[:, 1:1 + dim]
    covs = np.empty((len(data), dim, dim))
    for k, (i, j) in enumerate(_tri_indices(dim)):
        covs[:, i, j] = covs[:, j, i] = data[:, 1 + dim + k]
    return MarginalPath(data[:, 0], means, covs, kind=kind)


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
        times, states = traj.times, traj.states
    else:
        traj = euler_maruyama(cfg.sde, cfg.x0, cfg.t0, cfg.t1,
                              n_steps=cfg.n_steps, seed=seed)
        times, states = traj.times, traj.states
    obs = sample_observations(traj, cfg.obs_times, cfg.obs_model,
                              seed=seed + 1)
    traj_path = out_dir / "trajectory.csv"
    obs_path = out_dir / "observations.csv"
    write_trajectory(traj_path, times, states)
    write_observations(obs_path, obs, cfg.sde.dim)
    return {"trajectory": str(traj_path), "observations": str(obs_path)}


def _run_method(cfg: ExperimentConfig, obs: list[Observation],
                grid: TimeGrid) -> EpResult:
    if cfg.method == "ep":
        return run_ep(cfg.sde, obs, cfg.obs_model, cfg.loss, cfg.init, grid,
                      cfg.ep)
    return run_adf(cfg.sde, obs, cfg.obs_model, cfg.loss, cfg.init, grid,
                   smoothing=cfg.method == "adf-s", cfg=cfg.ep)


def cmd_infer(cfg: ExperimentConfig, obs_file, out=None,
              require_convergence: bool = False) -> dict:
    """Run the configured method on observations read from a CSV file."""
    out_dir = _out_dir(cfg, out)
    obs = read_observations(obs_file)
    grid = TimeGrid(cfg.t0, cfg.t1, cfg.n_steps)
    started = time.perf_counter()
    try:
        res = _run_method(cfg, obs, grid)
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
    (mjp, sde, t0, t1, n_steps, init, x0, obs_times, variance, ep_cfg,
     seed_traj, seed_obs) = args
    out = {"variance": variance, "seed": seed_traj, "error": None}
    try:
        traj = gillespie(mjp, x0.astype(np.int64), t0, t1, seed=seed_traj)
        model = LogNormalObs(variance)
        obs = sample_observations(traj, obs_times, model, seed=seed_obs)
        grid = TimeGrid(t0, t1, n_steps)
        nodes = np.array([grid.snap_index(t) for t in obs_times])
        truth_obs = traj.state_at(obs_times).astype(float)
        truth_path = traj.state_at(grid.times).astype(float)
        for method in ("adf-s", "ep"):
            if method == "ep":
                res = run_ep(sde, obs, model, None, init, grid, ep_cfg)
            else:
                res = run_adf(sde, obs, model, None, init, grid,
                              smoothing=True, cfg=ep_cfg)
            out[method] = {
                "rmse_observations": _rms(res.smoothed.means[nodes]
                                          - truth_obs),
                "rmse_path": _rms(res.smoothed.means - truth_path),
                "sweeps": res.sweeps_run,
                "converged": res.converged,
            }
    except NumericalError as err:
        out["error"] = f"{type(err).__name__}: {err}"
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
            jobs.append((cfg.mjp, cfg.sde, cfg.t0, cfg.t1, cfg.n_steps,
                         cfg.init, cfg.x0, cfg.obs_times, variance, cfg.ep,
                         base, base + 1))
    if workers > 1:
        # imported only here, so single-worker runs skip its start-up
        # time and memory
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_job, jobs))
    else:
        results = [_replicate_job(j) for j in jobs]

    n_failed = sum(1 for r in results if r["error"])
    if n_failed > 0.1 * len(results):
        raise NumericalError(
            f"benchmark failed: {n_failed}/{len(results)} replicates "
            "errored")

    rows = []
    for variance in cfg.variances:
        ok = [r for r in results
              if r["variance"] == variance and not r["error"]]
        failed = sum(1 for r in results
                     if r["variance"] == variance and r["error"])
        for method in ("adf-s", "ep"):
            cells = [r[method] for r in ok]
            rows.append({
                "variance": variance,
                "method": method,
                "rmse_observations": float(np.mean(
                    [c["rmse_observations"] for c in cells])),
                "rmse_path": float(np.mean([c["rmse_path"] for c in cells])),
                "mean_sweeps": float(np.mean([c["sweeps"] for c in cells])),
                "converged_fraction": float(np.mean(
                    [c["converged"] for c in cells])),
                "replicates": len(cells),
                "failures": failed,
            })
    report = BenchmarkReport(rows=tuple(rows), replicates=cfg.replicates,
                             replicate_details=tuple(results))

    csv_path = out_dir / "benchmark.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["variance", "method", "rmse_observations", "rmse_path",
                  "mean_sweeps", "converged_fraction", "replicates",
                  "failures"]
        w.writerow(header)
        for r in rows:
            w.writerow([_fmt(r["variance"]), r["method"],
                        _fmt(r["rmse_observations"]), _fmt(r["rmse_path"]),
                        _fmt(r["mean_sweeps"]), _fmt(r["converged_fraction"]),
                        r["replicates"], r["failures"]])
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsde",
        description="Posterior inference for diffusion and jump processes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML experiment file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
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
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent replicate processes")
    p = sub.add_parser("validate", help="check a config file and exit")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            print(f"config valid: {args.config}")
            return 0
        if args.seed is not None:
            cfg.seed = args.seed
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
