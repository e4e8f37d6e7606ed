"""The public surface, and the names the benchmark harness patches.

bench/tracer.py times each layer by replacing a module or class
attribute with a wrapper, so those attributes must stay where it looks
them up even when nothing inside the package reads them.
"""

import importlib
from pathlib import Path

import epsde

PUBLIC = {
    # errors
    "ConfigError", "DivergedMoments", "DivergedPath", "ImproperCavity",
    "NegativeRate", "NonPositiveDefinite", "NotConverged", "NumericalError",
    "QuadratureUnderflow",
    # models
    "MjpSpec", "PolynomialMap", "SdeSpec", "cle_from_mjp", "linear_sde",
    "lotka_volterra",
    # moments, observation models and losses
    "GaussianMoments", "GaussianObs", "LogNormalObs", "Observation",
    "QuadraticLoss", "QuarticLoss",
    # inference
    "MarginalPath", "TimeGrid", "EpConfig", "EpResult", "run_adf", "run_ep",
    # simulation
    "euler_maruyama", "gillespie", "sample_observations",
    # commands, config and CSV artifacts
    "BenchmarkReport", "ExperimentConfig", "cmd_benchmark", "cmd_infer",
    "cmd_simulate", "load_config", "main", "read_marginals",
    "read_observations", "read_trajectory", "write_marginals",
    "write_observations", "write_trajectory",
}

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_public_surface():
    assert len(epsde.__all__) == len(set(epsde.__all__))
    assert set(epsde.__all__) == PUBLIC
    for name in epsde.__all__:
        assert getattr(epsde, name) is not None, name


def test_benchmark_tracer_layers_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.LAYERS
    for owner, attr, _ in tracer.LAYERS:
        target = tracer._resolve(owner)
        # Tracer.wrap reads a class attribute from the class's own dict
        found = (attr in vars(target) if isinstance(target, type)
                 else hasattr(target, attr))
        assert found, f"{owner}.{attr}"
