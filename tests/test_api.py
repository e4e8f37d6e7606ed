"""The public surface, and the names the benchmark harness patches.

bench/tracer.py times each layer by replacing a module or class
attribute with a wrapper, so those attributes must stay where it looks
them up even when nothing inside the package reads them.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

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


# each value the config file rejects is rejected by the constructor it
# reaches, and the message starts with the argument's name
@pytest.mark.parametrize("make, key", [
    (lambda: epsde.LogNormalObs(np.nan), "variance"),
    (lambda: epsde.LogNormalObs(-3.0), "variance"),
    (lambda: epsde.GaussianObs([[-0.2]]), "R"),
    (lambda: epsde.GaussianObs([[1.0, 0.5], [0.4, 1.0]]), "R"),
    (lambda: epsde.QuadraticLoss([[1.0]], [1.0, 2.0]), "A"),
    (lambda: epsde.QuadraticLoss([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0]), "A"),
    (lambda: epsde.QuarticLoss([1.0], [1.0, 2.0], [[0.0, 1.0]]), "center"),
    (lambda: epsde.QuarticLoss([1.0, 1.0], [0.0, 0.0], [[0.0, 1.0]]),
     "window"),
    (lambda: epsde.QuarticLoss([-1.0], [0.0], [[0.0, 1.0]]), "weight"),
    (lambda: epsde.lotka_volterra(k0=np.nan), "k0"),
    (lambda: epsde.lotka_volterra(k3=-0.6), "k3"),
    (lambda: epsde.PolynomialMap.from_terms(1, [(1.0, (0.5,))]),
     "terms[0].expo"),
    (lambda: epsde.MjpSpec(1, [[1.5]],
                           (epsde.PolynomialMap.constant(1, 1.0),)), "stoich"),
    (lambda: epsde.linear_sde([[-1.0]], [[1.0, 0.0]]), "b"),
    pytest.param(lambda: epsde.linear_sde([[-1.0]], [[-1.0]]), "b",
                 id="b-not-psd"),
    pytest.param(lambda: epsde.EpConfig(damping="abc"), "damping",
                 id="damping-str"),
    pytest.param(lambda: epsde.EpConfig(damping=True), "damping",
                 id="damping-bool"),
])
def test_constructors_reject_invalid_values(make, key):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value).startswith(f"{key}: ")
