"""Tests of the benchmark itself: its checks fail on corrupted data and
its trace accounts for no more time than it measured.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference  # noqa: E402
import workloads  # noqa: E402
from epsde import cli  # noqa: E402
from tracer import EngineCounters, Tracer  # noqa: E402


class TinyOu(workloads.OuD6Infer):
    """ou-d6-infer with one dataset per pass."""

    name = "tiny-ou"
    first_pass = 1


def _tiny_run(tmp_path, trace=False, seed=3):
    return workloads.RunSpec("tiny-ou", seed, 0.0, trace, tmp_path,
                             BENCH.parent / "src")


def _tiny_unit(tmp_path):
    run = _tiny_run(tmp_path)
    wl = TinyOu(run, EngineCounters())
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(json.dumps(wl.config()))
    cfg = cli.load_config(cfg_path)
    wl.prepare(cfg)
    return wl, cfg


def _failed(checks):
    return [c["check"] for c in checks.items if not c["passed"]]


def test_ou_reference_matches_package_output(tmp_path):
    wl, cfg = _tiny_unit(tmp_path)
    outcome = wl.run_unit(cfg, 0, tmp_path / "u0")
    checks = workloads.Checks()
    wl.check(cfg, [outcome], checks)
    assert checks.passed, checks.items


def test_corrupted_reference_fails_the_check(tmp_path, monkeypatch):
    wl, cfg = _tiny_unit(tmp_path)
    outcome = wl.run_unit(cfg, 0, tmp_path / "u0")
    exact = reference.kalman_rts

    def corrupted(*args, **kwargs):
        ref = exact(*args, **kwargs)
        ref["means"][len(ref["means"]) // 2, 0] += 1e-5
        return ref

    monkeypatch.setattr(reference, "kalman_rts", corrupted)
    checks = workloads.Checks()
    wl.check(cfg, [outcome], checks)
    assert "ep matches Kalman/RTS to 1e-06" in _failed(checks)
    assert "adfs matches Kalman/RTS to 1e-06" in _failed(checks)


def test_corrupted_output_fails_the_check(tmp_path, monkeypatch):
    wl, cfg = _tiny_unit(tmp_path)
    write = cli.write_marginals

    def corrupted(path, marg):
        write(path, marg)
        lines = Path(path).read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = repr(float(cells[1]) + 1e-3)
        lines[5] = ",".join(cells)
        Path(path).write_text("\n".join(lines) + "\n")

    monkeypatch.setattr(cli, "write_marginals", corrupted)
    outcome = wl.run_unit(cfg, 0, tmp_path / "u0")
    checks = workloads.Checks()
    wl.check(cfg, [outcome], checks)
    failed = _failed(checks)
    assert "marginals round-trip" in failed
    assert "ep matches Kalman/RTS to 1e-06" in failed


def test_rmse_outside_the_envelope_fails_the_check(tmp_path):
    wl = workloads.LvBenchmark(_tiny_run(tmp_path), EngineCounters())
    rows = [{"method": m, "rmse_path": v, "rmse_observations": 12.0}
            for m, v in (("ep", 35.0), ("adf-s", 14.0))]
    outcome = workloads.Outcome(0, 1.0, 1, 0, {}, {}, {"rows": rows}, "",
                                [])
    checks = workloads.Checks()
    wl.check(None, [outcome], checks)
    assert _failed(checks) == ["ep mean rmse_path in [7, 30]"]


def test_nested_self_times_partition_the_wall():
    class Layer:
        @staticmethod
        def inner():
            time.sleep(0.01)

        @staticmethod
        def outer():
            time.sleep(0.01)
            Layer.inner()
            Layer.inner()

    tracer = Tracer()
    tracer.wrap(Layer, "inner", "inner")
    tracer.wrap(Layer, "outer", "outer")
    start = time.perf_counter()
    Layer.outer()
    wall = time.perf_counter() - start
    tracer.uninstall()
    st = tracer.stats
    assert st["inner"].calls == 2 and st["outer"].calls == 1
    assert st["outer"].self_s == pytest.approx(
        st["outer"].total_s - st["inner"].total_s)
    assert tracer.self_sum() == pytest.approx(st["outer"].total_s)
    assert tracer.self_sum() <= wall
    assert isinstance(Layer.__dict__["inner"], staticmethod)


def test_traced_run_self_times_within_traced_wall(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny-ou", TinyOu)
    correct, attempted, failed, metrics, detail = workloads.execute(
        _tiny_run(tmp_path, trace=True))
    assert correct, detail["checks"]
    assert (attempted, failed) == (4, 0)
    assert 0.0 < metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]
    assert metrics["trace.coverage"] > 0.9
    assert metrics["closure.smoothing.calls"] == 4 * metrics[
        "filtering.backward.substeps"]
    assert metrics["engine.ep.sweeps"] == 1
    assert detail["ep_records"][0]["sweeps"] == 1


def test_run_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lv-benchmark",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
