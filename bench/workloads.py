"""The benchmark's workloads, their timed loop and their output checks.

Every workload calls the entry points users call, epsde.cli.cmd_benchmark
or epsde.cli.cmd_infer, in this one process with one worker, on inputs
generated from the run's seed.  A unit is one dataset taken through both
methods (EP and ADF-S).  A run first completes a fixed number of
distinct units, the first pass, from which the accuracy metrics and the
output checks are taken, so they depend on the seed alone; untraced
runs then keep adding units until the requested seconds have passed.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from epsde import cli, gillespie, sample_observations
from epsde.closure import closed_rhs
from epsde.errors import NumericalError

import reference
from tracer import (EngineCounters, Tracer, install_layers, install_stopwatch,
                    layer_metrics)

SETUP_REPEATS = 7
RMSE_ENVELOPE = (7.0, 30.0)     # acceptance criterion 4's magnitude band
OU_TOLERANCE = 1e-6             # acceptance criterion 1's exactness bound
LV_VARIANCES = (500.0, 750.0, 1000.0)

# Import, configuration parsing and closure compilation, timed inside a
# fresh interpreter so cold caches count as they do for a user's first run.
SETUP_SNIPPET = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import epsde
from epsde.closure import closed_rhs
t1 = time.perf_counter()
cfg = epsde.load_config(sys.argv[2])
t2 = time.perf_counter()
closed_rhs(cfg.sde)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1,
                  "compile_s": t3 - t2, "total_s": t3 - t0}))
"""


@dataclasses.dataclass(frozen=True)
class RunSpec:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path      # scratch directory inside the checkout
    src: Path       # the package sources the benchmark runs

    @property
    def seed_base(self) -> int:
        """Per-unit simulation seeds are seed_base + 2 i (path) and
        seed_base + 2 i + 1 (observation noise)."""
        return 20250819 + 1000 * self.seed


@dataclasses.dataclass
class Outcome:
    """One unit: a dataset through EP and ADF-S."""

    index: int
    program_s: float        # time inside the cli entry points
    attempted: int
    failed: int
    seconds: dict           # method -> wall time of its inference call
    rmse: dict              # method -> posterior-mean path RMSE vs truth
    record: dict            # full-precision report rows, sweeps, seeds
    digest: str             # sha256 over the unit's written artifacts
    problems: list          # output mismatches found while reading back
    marginals: dict = dataclasses.field(default_factory=dict)


class Checks:
    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, passed: bool, detail="") -> None:
        self.items.append({"check": name, "passed": bool(passed),
                           "detail": detail})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.items)


# ---------------------------------------------------------------------------
# artifacts


def artifact_digest(out: Path) -> str:
    """sha256 over every file a unit wrote, keyed by relative path.

    diagnostics.json is hashed without its runtime_seconds field, the
    only value in any artifact that is not a function of the inputs.
    """
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if p.name == "diagnostics.json":
            diag = json.loads(data)
            diag.pop("runtime_seconds", None)
            data = json.dumps(diag, sort_keys=True).encode()
        h.update(str(p.relative_to(out)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def read_marginals_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(means, covs) from a marginals.csv, parsed without epsde."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_cols = data.shape[1] - 1
    d = int(round((math.sqrt(9 + 8 * n_cols) - 3) / 2))
    covs = np.empty((len(data), d, d))
    col = 1 + d
    for i in range(d):
        for j in range(i, d):
            covs[:, i, j] = covs[:, j, i] = data[:, col]
            col += 1
    return data[:, 1:1 + d], covs


def path_rmse(means: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(means - truth))))


def measure_setup(src: Path, cfg_path: Path) -> list[dict]:
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(src), str(cfg_path)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    first_pass = 1          # distinct units every run completes
    # how ep_s and adfs_s summarise the call times of a run
    call_time = staticmethod(statistics.median)

    def __init__(self, run: RunSpec, counters: EngineCounters):
        self.run = run
        self.counters = counters

    def config(self) -> dict:
        raise NotImplementedError

    def prepare(self, cfg) -> None:
        """Write the seeded inputs before anything is timed."""

    def run_unit(self, cfg, i: int, out: Path) -> Outcome:
        raise NotImplementedError

    def check(self, cfg, first: list[Outcome], checks: Checks) -> None:
        raise NotImplementedError


class LvBenchmark(Workload):
    """cmd_benchmark on the paper's Lotka-Volterra setup, one replicate
    per call, cycling the observation variances."""

    name = "lv-benchmark"
    first_pass = 6
    # every replicate is a different problem, so EP and ADF-S time is
    # reported per replicate, total over count; over ten seeds this spread
    # 0.13 to 0.18 of its median, the median of six calls 0.23 to 0.31
    call_time = staticmethod(statistics.fmean)

    def config(self) -> dict:
        # the tier-1 benchmark fixture's configuration
        return {"model": "lv", "grid": {"n_steps": 1500},
                "observations": {"count": 10, "model": {
                    "kind": "log_normal", "variance": 750.0}},
                "benchmark": {"variances": list(LV_VARIANCES),
                              "replicates": 40}}

    def run_unit(self, cfg, i, out):
        variance = LV_VARIANCES[i % len(LV_VARIANCES)]
        seed = self.run.seed_base + 2 * i
        ucfg = dataclasses.replace(cfg, seed=seed, variances=(variance,),
                                   replicates=1)
        n_ep = len(self.counters.seconds["ep"])
        n_adfs = len(self.counters.seconds["adfs"])
        start = time.perf_counter()
        try:
            report = cli.cmd_benchmark(ucfg, out=out)
        except NumericalError as err:
            return Outcome(i, time.perf_counter() - start, 1, 1, {}, {},
                           {"seed": seed, "variance": variance,
                            "error": str(err)}, "", [])
        wall = time.perf_counter() - start
        rows = {r["method"]: r for r in report.rows}
        problems = []
        written = json.loads((out / "benchmark.json").read_text())["rows"]
        if written != list(report.rows):
            problems.append("benchmark.json rows differ from the report")
        with open(out / "benchmark.csv", newline="") as fh:
            for line, row in zip(list(csv.DictReader(fh)), report.rows):
                for key in ("rmse_observations", "rmse_path", "mean_sweeps",
                            "converged_fraction"):
                    if float(line[key]) != row[key]:
                        problems.append(f"benchmark.csv {key} differs")
        seconds = {"ep": self.counters.seconds["ep"][n_ep:],
                   "adfs": self.counters.seconds["adfs"][n_adfs:]}
        return Outcome(
            i, wall, 1, 0, seconds,
            {"ep": rows["ep"]["rmse_path"],
             "adfs": rows["adf-s"]["rmse_path"]},
            {"seed": seed, "variance": variance, "rows": list(report.rows),
             "replicate": report.replicate_details[0]},
            artifact_digest(out), problems)

    def check(self, cfg, first, checks):
        ok = [o for o in first if not o.failed]
        checks.add("replicates completed", bool(ok),
                   f"{len(ok)}/{len(first)}")
        if not ok:
            return
        checks.add("written report matches", not any(o.problems for o in ok),
                   [p for o in ok for p in o.problems])
        lo, hi = RMSE_ENVELOPE
        for method in ("ep", "adf-s"):
            for key in ("rmse_path", "rmse_observations"):
                vals = [r[key] for o in ok for r in o.record["rows"]
                        if r["method"] == method]
                mean = float(np.mean(vals))
                checks.add(f"{method} mean {key} in [{lo:g}, {hi:g}]",
                           math.isfinite(mean) and lo <= mean <= hi, mean)


class InferWorkload(Workload):
    """cmd_infer for EP and ADF-S on datasets written by cmd_simulate.

    Each unit times ADF-S adfs_repeats times on the same dataset, so a
    call far cheaper than EP still gets enough samples for its median;
    only the first call of each method counts towards the unit's time.
    """

    adfs_repeats = 1

    def prepare(self, cfg):
        self.datasets = []
        for i in range(self.first_pass):
            out = self.run.work / f"data{i}"
            cli.cmd_simulate(cfg, out=out, seed=self.run.seed_base + 2 * i)
            self.datasets.append(out)

    def truth(self, cfg, dataset: Path) -> np.ndarray:
        raise NotImplementedError

    def run_unit(self, cfg, i, out):
        k = i % self.first_pass
        data = self.datasets[k]
        truth = self.truth(cfg, data)
        record = {"dataset": k, "seed": self.run.seed_base + 2 * k}
        seconds, rmse, marginals, problems = {}, {}, {}, []
        failed = 0
        program_s = 0.0
        calls = [("ep", "ep")] + [("adf-s", "adfs")] * self.adfs_repeats
        for method, key in calls:
            mcfg = dataclasses.replace(cfg, method=method)
            t0 = time.perf_counter()
            try:
                paths = cli.cmd_infer(mcfg, data / "observations.csv",
                                      out=out / method)
            except NumericalError as err:
                failed += 1
                if key not in record:
                    program_s += time.perf_counter() - t0
                    record[key] = {"error": str(err)}
                continue
            elapsed = time.perf_counter() - t0
            seconds.setdefault(key, []).append(elapsed)
            if key in record:
                continue
            program_s += elapsed
            res = paths["result"]
            means, covs = read_marginals_csv(Path(paths["marginals"]))
            if not (np.array_equal(means, res.smoothed.means)
                    and np.array_equal(covs, res.smoothed.covs)):
                problems.append(f"{method} marginals.csv does not "
                                "round-trip the result")
            diag = json.loads(Path(paths["diagnostics"]).read_text())
            rmse[key] = path_rmse(means, truth)
            marginals[key] = (means, covs)
            record[key] = {"seconds": elapsed,
                           "sweeps": diag["sweeps_run"],
                           "converged": diag["converged"],
                           "log_evidence": diag["log_evidence"],
                           "skipped_updates": diag["skipped_updates"],
                           "psd_repairs": diag["psd_repairs"],
                           "rmse_path": rmse[key]}
        return Outcome(i, program_s, len(calls), failed, seconds, rmse, record,
                       artifact_digest(out), problems, marginals)

    def check(self, cfg, first, checks):
        checks.add("inference calls completed",
                   not any(o.failed for o in first),
                   [o.record for o in first if o.failed])
        checks.add("marginals round-trip", not any(o.problems for o in first),
                   [p for o in first for p in o.problems])
        rmses = [v for o in first for v in o.rmse.values()]
        checks.add("RMSEs finite", bool(rmses) and all(
            math.isfinite(v) for v in rmses), rmses)


class LvConstrainedInfer(InferWorkload):
    """The criterion-5 setup: LV with a quartic penalty window.

    Every dataset observes criterion 5's true path; the seed draws the
    observation noise.  Inside the window the penalty pulls the posterior
    towards its centre by design, so with a fresh path per dataset the
    RMSE mostly measured how far that path strayed from the centre.
    """

    name = "lv-constrained-infer"
    first_pass = 3
    adfs_repeats = 3
    window = (3.0, 5.0)
    path_seed = 99          # acceptance criterion 5's Gillespie seed

    def config(self) -> dict:
        return {"model": "lv", "horizon": {"t0": 0.0, "t1": 8.0},
                "grid": {"n_steps": 800},
                "init": {"mean": [100.0, 100.0],
                         "cov": [[100.0, 0.0], [0.0, 100.0]]},
                "x0": [100, 100],
                "observations": {
                    "times": [float(t) for t in np.linspace(1.0, 7.0, 6)],
                    "model": {"kind": "log_normal", "variance": 750.0}},
                "loss": {"kind": "quartic", "weight": [2e-5, 2e-5],
                         "center": [150.0, 150.0],
                         "window": [list(self.window)] * 2},
                "method": "ep"}

    def prepare(self, cfg):
        path = gillespie(cfg.mjp, cfg.x0.astype(np.int64), cfg.t0, cfg.t1,
                         seed=self.path_seed)
        path_csv = self.run.work / "trajectory.csv"
        cli.write_trajectory(path_csv, path.times, path.states)
        self.datasets = []
        for i in range(self.first_pass):
            out = self.run.work / f"data{i}"
            out.mkdir()
            obs = sample_observations(path, cfg.obs_times, cfg.obs_model,
                                      seed=self.run.seed_base + 2 * i + 1)
            cli.write_observations(out / "observations.csv", obs,
                                   cfg.sde.dim)
            self.datasets.append(out)
        traj = np.loadtxt(path_csv, delimiter=",", skiprows=1, ndmin=2)
        grid_t = cfg.t0 + (cfg.t1 - cfg.t0) / cfg.n_steps * np.arange(
            cfg.n_steps + 1)
        idx = np.searchsorted(traj[:, 0], grid_t, side="right") - 1
        self.path_at_nodes = traj[np.clip(idx, 0, len(traj) - 1), 1:]

    def truth(self, cfg, dataset):
        return self.path_at_nodes

    def check(self, cfg, first, checks):
        super().check(cfg, first, checks)
        if "ep" not in first[0].marginals:
            return
        # criterion 5's effect: under the penalty the smoothed variance
        # trace is smaller at every in-window node than without it on the
        # same data.  The unpenalised baseline is ADF-S, one call at 1/15
        # of EP's cost; criterion 5 itself compares EP with EP.
        base = cli.cmd_infer(
            dataclasses.replace(cfg, loss=None, method="adf-s"),
            self.datasets[0] / "observations.csv",
            out=self.run.work / "check-unconstrained")
        grid_t = base["result"].smoothed.times
        inside = (grid_t >= self.window[0]) & (grid_t <= self.window[1])
        tr_base = np.trace(base["result"].smoothed.covs[inside], axis1=1,
                           axis2=2)
        for key, (_, covs) in first[0].marginals.items():
            tr_con = np.trace(covs[inside], axis1=1, axis2=2)
            checks.add(f"{key}: penalty shrinks in-window variance",
                       bool(np.all(tr_con < tr_base)),
                       float(np.max(tr_con / tr_base)))


OU_DIM = 6
# symmetric, negative definite (eigenvalues in [-1.54, -0.46])
OU_A = -np.eye(OU_DIM) + 0.3 * (np.eye(OU_DIM, k=1) + np.eye(OU_DIM, k=-1))
OU_B = 0.5 * np.eye(OU_DIM) + 0.1 * np.ones((OU_DIM, OU_DIM))
OU_R = 0.2 * np.eye(OU_DIM)
OU_MEAN0 = np.ones(OU_DIM)
OU_COV0 = 0.5 * np.eye(OU_DIM)


class OuD6Infer(InferWorkload):
    """A linear d=6 OU SDE with Gaussian observations: the closure is
    exact, so both methods must reproduce the Kalman/RTS smoother."""

    name = "ou-d6-infer"
    first_pass = 8

    def config(self) -> dict:
        return {"model": {"kind": "linear", "A": OU_A.tolist(),
                          "b": OU_B.tolist()},
                "horizon": {"t0": 0.0, "t1": 2.0},
                "grid": {"n_steps": 100},
                "init": {"mean": OU_MEAN0.tolist(), "cov": OU_COV0.tolist()},
                "x0": OU_MEAN0.tolist(),
                "observations": {"count": 4, "model": {
                    "kind": "gaussian", "R": OU_R.tolist()}},
                "method": "ep"}

    def truth(self, cfg, dataset):
        traj = np.loadtxt(dataset / "trajectory.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        return traj[:, 1:]

    def check(self, cfg, first, checks):
        super().check(cfg, first, checks)
        worst = {"ep": 0.0, "adfs": 0.0, "log_evidence": 0.0}
        sweeps_ok = True
        for o in first:
            obs = np.loadtxt(self.datasets[o.record["dataset"]]
                             / "observations.csv", delimiter=",", skiprows=1,
                             ndmin=2)
            ref = reference.kalman_rts(OU_A, OU_B, OU_MEAN0, OU_COV0, cfg.t0,
                                       cfg.t1, cfg.n_steps, obs[:, 0],
                                       obs[:, 1:], OU_R)
            for key, (means, covs) in o.marginals.items():
                worst[key] = max(worst[key],
                                 float(np.abs(means - ref["means"]).max()),
                                 float(np.abs(covs - ref["covs"]).max()))
                le = o.record[key]["log_evidence"]
                worst["log_evidence"] = max(
                    worst["log_evidence"],
                    abs(le - ref["loglik"]) if le is not None else math.inf)
            ep = o.record.get("ep", {})
            sweeps_ok &= ep.get("sweeps") == 1 and bool(ep.get("converged"))
        for key, err in worst.items():
            checks.add(f"{key} matches Kalman/RTS to {OU_TOLERANCE:g}",
                       err <= OU_TOLERANCE, err)
        checks.add("EP converges in 1 sweep", sweeps_ok)


WORKLOADS = {w.name: w for w in (LvBenchmark, LvConstrainedInfer, OuD6Infer)}


# ---------------------------------------------------------------------------
# running a workload


def _timed_loop(workload: Workload, cfg, seconds: float
                ) -> tuple[list[Outcome], float]:
    """Units until the first pass is complete and `seconds` have passed."""
    outcomes = []
    start = time.perf_counter()
    while (len(outcomes) < workload.first_pass
           or time.perf_counter() - start < seconds):
        i = len(outcomes)
        outcomes.append(workload.run_unit(cfg, i,
                                          workload.run.work / f"u{i}"))
    return outcomes, time.perf_counter() - start


def _summary(fn, values):
    return fn(values) if values else math.nan


def execute(run: RunSpec) -> tuple[bool, int, int, dict, dict]:
    """Run one workload; returns (correct, attempted, failed, metrics,
    detail)."""
    counters = EngineCounters()
    tracer = Tracer()
    workload = WORKLOADS[run.workload](run, counters)
    cfg_path = run.work / "config.yaml"
    cfg_path.write_text(json.dumps(workload.config(), indent=1))
    checks = Checks()
    detail = {}
    k = workload.first_pass

    if run.trace:
        install_layers(tracer, counters)
        start = time.perf_counter()
        cfg = cli.load_config(cfg_path)
        closed_rhs(cfg.sde)
        traced_setup_s = time.perf_counter() - start
        tracer.uninstall()
    else:
        setups = measure_setup(run.src, cfg_path)
        detail["setup"] = setups
        cfg = cli.load_config(cfg_path)
        closed_rhs(cfg.sde)
    workload.prepare(cfg)

    if run.trace:
        # every unit untraced and traced back to back, alternating which
        # goes first so that drift in machine speed falls on both sides
        # alike: the difference is the tracing overhead, and tracing must
        # not change any output
        untraced, outcomes = [], []
        untraced_s = traced_s = 0.0
        for i in range(k):
            for traced in ((False, True), (True, False))[i % 2]:
                if traced:
                    install_layers(tracer, counters)
                start = time.perf_counter()
                outcome = workload.run_unit(
                    cfg, i, run.work / f"{'t' if traced else 'u'}{i}")
                elapsed = time.perf_counter() - start
                tracer.uninstall()
                if traced:
                    outcomes.append(outcome)
                    traced_s += elapsed
                else:
                    untraced.append(outcome)
                    untraced_s += elapsed
        checks.add("tracing leaves outputs unchanged",
                   [o.digest for o in untraced] == [o.digest for o in
                                                    outcomes])
        all_outcomes = untraced + outcomes
    else:
        if isinstance(workload, LvBenchmark):
            install_stopwatch(tracer, counters)
        outcomes, loop_s = _timed_loop(workload, cfg, run.seconds)
        tracer.uninstall()
        all_outcomes = outcomes
        if isinstance(workload, InferWorkload):
            checks.add("repeated datasets write identical artifacts",
                       all(o.digest == outcomes[o.index % k].digest
                           for o in outcomes[k:] if not o.failed))

    first = outcomes[:k]
    workload.check(cfg, first, checks)
    ep_rmse = [o.rmse["ep"] for o in first if "ep" in o.rmse]
    adfs_rmse = [o.rmse["adfs"] for o in first if "adfs" in o.rmse]
    digest = hashlib.sha256("".join(o.digest for o in first).encode())
    detail.update({
        "units": [{"index": o.index, "program_s": o.program_s, **o.record}
                  for o in outcomes],
        "artifact_sha256": digest.hexdigest(),
        "unit_artifact_sha256": [o.digest for o in first],
        "ep_le_adfs": (float(np.mean(ep_rmse)) <= float(np.mean(adfs_rmse))
                       if ep_rmse and adfs_rmse else None),
        "checks": checks.items,
    })

    attempted = sum(o.attempted for o in all_outcomes)
    failed = sum(o.failed for o in all_outcomes)
    if run.trace:
        metrics = layer_metrics(tracer, counters)
        wall = traced_setup_s + traced_s
        self_sum = tracer.self_sum()
        metrics.update({
            "trace.wall_s": wall,
            "trace.self_sum_s": self_sum,
            "trace.coverage": self_sum / wall,
            "trace.untraced_wall_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_fraction": (traced_s - untraced_s) / untraced_s,
        })
        detail["ep_records"] = counters.ep_records
        detail["span_total_s"] = {n: s.total_s
                                  for n, s in tracer.stats.items()}
        return checks.passed, attempted, failed, metrics, detail

    ok = [o for o in outcomes if not o.failed]
    ep_s = [t for o in outcomes for t in o.seconds.get("ep", [])]
    adfs_s = [t for o in outcomes for t in o.seconds.get("adfs", [])]
    converged = [o.record["ep"]["converged"] if "ep" in o.record
                 else o.record["replicate"]["ep"]["converged"]
                 for o in first if not o.failed]
    detail["timings"] = {"loop_s": loop_s, "units": len(outcomes),
                         "ep_s": ep_s, "adfs_s": adfs_s}
    detail["samples"] = {"setup_s": len(setups), "ep_s": len(ep_s),
                         "adfs_s": len(adfs_s)}
    metrics = {
        "setup_s": _summary(statistics.median,
                            [s["total_s"] for s in setups]),
        "replicates_per_s": len(ok) / sum(o.program_s for o in outcomes),
        "ep_s": _summary(workload.call_time, ep_s),
        "adfs_s": _summary(workload.call_time, adfs_s),
        "ep_rmse_path": float(np.mean(ep_rmse)) if ep_rmse else math.nan,
        "adfs_rmse_path": (float(np.mean(adfs_rmse)) if adfs_rmse
                           else math.nan),
        "ep_converged_fraction": (float(np.mean(converged)) if converged
                                  else math.nan),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    complete = all(math.isfinite(v) for v in metrics.values())
    checks.add("every metric measured", complete)
    return checks.passed, attempted, failed, metrics, detail
