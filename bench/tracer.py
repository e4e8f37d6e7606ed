"""Per-layer tracing for the benchmark's traced run.

Each public function of an epsde layer is replaced, at the module or
class attribute its caller looks it up by, with a wrapper that times
the call.  Nested wrapped calls are child spans: a layer's self time is
its inclusive time minus the time its children cover.  Spans are
aggregated in memory per layer name (calls, inclusive and self
seconds); nothing inside the package changes.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Installs timing wrappers and keeps per-name span statistics.

    on_return(result, args, elapsed) hooks let callers read counts off a
    layer's return value at the boundary where the work happened.
    Statistics survive uninstall(), so a run can trace several phases.
    """

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)     # time covered by child spans
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                on_return(result, args, elapsed)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_sum(self) -> float:
        return sum(s.self_s for s in self.stats.values())


# (owner, attribute, layer): the owner is the namespace the caller reads
# the name from, so a function imported into several modules is wrapped
# once per importing module under one layer name.
LAYERS = (
    ("epsde.cli", "load_config", "cli.load_config"),
    ("epsde.cli", "cmd_benchmark", "cli.cmd_benchmark"),
    ("epsde.cli", "cmd_infer", "cli.cmd_infer"),
    ("epsde.cli", "gillespie", "simulate.gillespie"),
    ("epsde.cli", "run_ep", "engine.run_ep"),
    ("epsde.cli", "run_adf", "engine.run_adf"),
    ("epsde.engine", "free_energy", "engine.free_energy"),
    ("epsde.engine", "forward_pass", "filtering.forward_pass"),
    ("epsde.engine", "backward_pass", "filtering.backward_pass"),
    ("epsde.engine", "apply_canonical_site", "filtering.apply_canonical_site"),
    ("epsde.filtering", "apply_canonical_site",
     "filtering.apply_canonical_site"),
    ("epsde.engine", "repair_psd", "gaussian.repair_psd"),
    ("epsde.filtering", "repair_psd", "gaussian.repair_psd"),
    ("epsde.likelihoods", "repair_psd", "gaussian.repair_psd"),
    ("epsde.engine", "tilted_moments", "likelihoods.tilted_moments"),
    ("epsde.engine", "continuous_site_update",
     "likelihoods.continuous_site_update"),
    ("epsde.engine", "expected_loss", "likelihoods.expected_loss"),
    ("epsde.closure:ClosedOdeRhs", "__init__", "closure.compile"),
    ("epsde.closure:ClosedOdeRhs", "forward", "closure.forward"),
    ("epsde.closure:ClosedOdeRhs", "forward_batch", "closure.forward_batch"),
    ("epsde.closure:ClosedOdeRhs", "smoothing", "closure.smoothing"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class EngineCounters:
    """Counts read off inference results and simulated paths.

    ep_records keeps one entry per run_ep call, in call order, so the
    skipped updates and NaN log evidence of each replicate stay visible.
    """

    def __init__(self):
        self.ep_sweeps = 0
        self.ep_sites_attempted = 0
        self.ep_skipped = 0
        self.skipped = 0
        self.psd_repairs = 0
        self.log_evidence_nan = 0
        self.gillespie_events = 0
        self.ep_records: list[dict] = []
        self.seconds: dict[str, list[float]] = {"ep": [], "adfs": []}

    def _result(self, res) -> None:
        self.skipped += res.skipped_updates
        self.psd_repairs += res.psd_repairs
        self.log_evidence_nan += int(math.isnan(res.log_evidence))

    def on_ep(self, res, args, elapsed) -> None:
        self._result(res)
        n_obs = len(args[1])
        self.ep_sweeps += res.sweeps_run
        self.ep_sites_attempted += n_obs * res.sweeps_run
        self.ep_skipped += res.skipped_updates
        self.seconds["ep"].append(elapsed)
        self.ep_records.append({
            "sweeps": res.sweeps_run, "converged": bool(res.converged),
            "skipped_updates": res.skipped_updates,
            "log_evidence_nan": bool(math.isnan(res.log_evidence)),
            "psd_repairs": res.psd_repairs, "seconds": elapsed})

    def on_adf(self, res, args, elapsed) -> None:
        self._result(res)
        self.seconds["adfs"].append(elapsed)

    def on_gillespie(self, traj, args, elapsed) -> None:
        self.gillespie_events += len(traj.times) - 1


def install_stopwatch(tracer: Tracer, counters: EngineCounters) -> None:
    """Time only the inference calls cmd_benchmark makes (two per
    replicate), for the untraced run's per-method wall times."""
    cli = _resolve("epsde.cli")
    tracer.wrap(cli, "run_ep", "engine.run_ep", counters.on_ep)
    tracer.wrap(cli, "run_adf", "engine.run_adf", counters.on_adf)


def install_layers(tracer: Tracer, counters: EngineCounters) -> None:
    hooks = {"engine.run_ep": counters.on_ep,
             "engine.run_adf": counters.on_adf,
             "simulate.gillespie": counters.on_gillespie}
    for owner, attr, name in LAYERS:
        tracer.wrap(_resolve(owner), attr, name, hooks.get(name))


def layer_metrics(tracer: Tracer, counters: EngineCounters) -> dict:
    """Per-layer values keyed by metric name (see BENCHMARK.json)."""
    st = tracer.stats
    out = {}
    for name in ("closure.smoothing", "closure.forward",
                 "closure.forward_batch", "filtering.forward_pass",
                 "filtering.backward_pass", "filtering.apply_canonical_site",
                 "gaussian.repair_psd", "likelihoods.tilted_moments",
                 "likelihoods.continuous_site_update",
                 "likelihoods.expected_loss", "engine.run_ep",
                 "engine.run_adf", "engine.free_energy",
                 "simulate.gillespie", "cli.cmd_benchmark", "cli.cmd_infer"):
        s = st.get(name, SpanStats())
        out[f"{name}.calls"] = s.calls
        out[f"{name}.self_s"] = s.self_s
    out["closure.compile_s"] = st.get("closure.compile", SpanStats()).total_s
    out["cli.load_config.self_s"] = st.get("cli.load_config",
                                           SpanStats()).self_s
    smoothing_calls = st.get("closure.smoothing", SpanStats()).calls
    out["filtering.backward.substeps"] = smoothing_calls // 4
    repair_calls = st.get("gaussian.repair_psd", SpanStats()).calls
    out["gaussian.psd_repairs"] = counters.psd_repairs
    out["gaussian.psd_repair_ratio"] = (counters.psd_repairs / repair_calls
                                        if repair_calls else 0.0)
    out["engine.ep.sweeps"] = counters.ep_sweeps
    out["engine.skipped_updates"] = counters.skipped
    attempted = counters.ep_sites_attempted
    out["engine.ep.site_yield"] = ((attempted - counters.ep_skipped)
                                   / attempted if attempted else 1.0)
    out["engine.log_evidence_nan"] = counters.log_evidence_nan
    out["simulate.gillespie.events"] = counters.gillespie_events
    return out
