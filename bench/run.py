"""Benchmark for epsde: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload lv-benchmark --seed 1 --seconds 25 --trace 0

The package is imported from ./src of the checkout the script sits in.
Human-readable lines come first; the second-to-last line is a JSON
object {"detail": ...} with provenance, per-unit records, artifact
digests and check results; the last line is the result
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every correctness check passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def provenance(np_version: str) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            git_sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for p in sorted((SRC / "epsde").glob("*.py")):
        src_hash.update(p.name.encode() + b"\0" + p.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": git_sha, "src_sha256": src_hash.hexdigest(),
            "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np_version,
            "platform": platform.platform()}


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "epsde" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'epsde'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    work = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    run = workloads.RunSpec(args.workload, args.seed, args.seconds,
                            bool(args.trace), work, SRC)
    try:
        correct, attempted, failed, metrics, detail = workloads.execute(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if set(metrics) != set(units):
        correct = False
        detail["checks"].append({
            "check": "metrics match BENCHMARK.json", "passed": False,
            "detail": sorted(set(metrics) ^ set(units))})
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(np.__version__), **detail}
    for c in detail["checks"]:
        print(f"check {'PASS' if c['passed'] else 'FAIL'} {c['check']}")
    samples = detail.get("samples", {})
    for name, value in metrics.items():
        n = f" ({samples[name]} samples)" if name in samples else ""
        print(f"{name} {value!r} {units.get(name)}{n}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name)}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
