"""Run the lv-benchmark workload's replicates one by one and digest them.

Each replicate goes through cli._replicate_job (Gillespie ground truth,
log-normal observations, ADF-S, then EP) under the workload's
configuration and unit seeds: unit i of benchmark seed N uses path seed
20250819 + 1000 N + 2 i, observation seed one above it, and the
observation variance (500, 750, 1000)[i % 3].  These rules mirror
bench/workloads.py, which this tool does not import.

Prints one JSON line per replicate, in (seed, unit) order, then
"sha256 <hex>" over those lines.  Two source trees that print the same
digest gave bit-identical replicate records (RMSEs, sweeps, convergence
and error strings).

    python tools/replicate_scan.py --seeds 1 20 --units 36 [--workers 2]
    python tools/replicate_scan.py --src other/checkout/src ...
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

CONFIG = """\
model: lv
grid: {n_steps: 1500}
observations:
  count: 10
  model: {kind: log_normal, variance: 750.0}
benchmark: {variances: [500.0, 750.0, 1000.0], replicates: 40}
"""
VARIANCES = (500.0, 750.0, 1000.0)


def unit_seed(seed: int, unit: int) -> int:
    """The path seed of one unit; its observation seed is one above."""
    return 20250819 + 1000 * seed + 2 * unit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 1),
                        metavar=("FIRST", "LAST"),
                        help="benchmark seeds, inclusive (default 1 1)")
    parser.add_argument("--units", type=int, default=6,
                        help="units 0..UNITS-1 per seed (default 6)")
    parser.add_argument("--workers", type=int, default=1,
                        help="replicate processes (default 1)")
    parser.add_argument("--src", default=str(
        Path(__file__).resolve().parents[1] / "src"),
        help="the package sources to run (default: this checkout's)")
    args = parser.parse_args(argv)
    if args.units < 1 or args.workers < 1 or args.seeds[0] > args.seeds[1]:
        parser.error("need --units and --workers of at least 1 and "
                     "FIRST <= LAST")
    # spawned workers inherit this search path
    sys.path.insert(0, str(Path(args.src).resolve()))
    from epsde import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.yaml"
        path.write_text(CONFIG)
        cfg = cli.load_config(path)
    units = [(seed, unit) for seed in range(args.seeds[0], args.seeds[1] + 1)
             for unit in range(args.units)]
    jobs = [(cfg, VARIANCES[unit % len(VARIANCES)], unit_seed(seed, unit),
             unit_seed(seed, unit) + 1) for seed, unit in units]
    digest = hashlib.sha256()
    with ProcessPoolExecutor(args.workers,
                             mp_context=get_context("spawn")) as pool:
        for (seed, unit), record in zip(units,
                                        pool.map(cli._replicate_job, jobs)):
            line = json.dumps({"bench_seed": seed, "unit": unit, **record},
                              sort_keys=True)
            print(line, flush=True)
            digest.update(line.encode() + b"\n")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
