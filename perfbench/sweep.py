"""Run a result set: every workload over a range of seeds, one run at a time.

    python3 perfbench/sweep.py perfbench/results/base --seeds 1-10

Each run is ``run.py --trace 0`` with BENCHMARK.json's ``run_seconds``; the
result files go to the given directory, then compare.py summarises it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare
import workloads

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = parser.parse_args(argv)

    first, last = (int(x) for x in args.seeds.split("-"))
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    failed = 0
    for name in workloads.WORKLOADS:
        for seed in range(first, last + 1):
            code = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--results-dir", str(args.out)],
                stdout=subprocess.DEVNULL, check=False).returncode
            print(f"{name} seed {seed}: exit {code}", flush=True)
            failed += code != 0
    return compare.main([str(args.out)]) or (1 if failed else 0)


if __name__ == "__main__":
    raise SystemExit(main())
