"""Summarise one result set, or compare two, per workload and end-to-end metric.

    python3 perfbench/compare.py perfbench/results/base
    python3 perfbench/compare.py perfbench/results/base perfbench/results/change

A result set is a directory of ``<workload>_seed<n>_trace0.json`` files
written by run.py.  For each workload and metric it prints the median and
quartiles of each side and the quartile spread as a share of the median.
With two sets it prints the ratio change/base (base: the base set's median)
and a verdict:

* ``unresolved``: a side's spread exceeds the metric's bound, and not every
  change run is better than every base run (``better`` if they all are);
* ``worse``: the change's median is worse than the base's by more than the bound;
* ``better``: the change wins at least nine tenths of the seed-matched pairs
  (ties count for neither side) and the medians differ by more than the
  base's quartile spread;
* ``unchanged``: otherwise.

Exit code 1 when any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict:
    """{workload: {seed: {metric: value}}} from the untraced result files."""
    runs: dict = {}
    for path in sorted(directory.glob("*_trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        values = {name: m["value"] for name, m in record["metrics"].items()}
        runs.setdefault(record["workload"], {})[record["seed"]] = values
    return runs


def verdict(metric: dict, base: dict, change: dict) -> str:
    """Verdict for one metric; ``base`` and ``change`` map seed -> value."""
    sign = 1 if metric["better"] == "higher" else -1
    bound = metric["bound"]
    b, c = stats.summary(base.values()), stats.summary(change.values())
    if b["spread"] > bound or c["spread"] > bound:
        if min(sign * v for v in change.values()) > max(sign * v for v in base.values()):
            return "better"
        return "unresolved"
    worse_by = sign * (b["median"] - c["median"]) / abs(b["median"]) if b["median"] else 0.0
    if worse_by > bound:
        return "worse"
    pairs = [(base[s], change[s]) for s in base.keys() & change.keys()]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gap = sign * (c["median"] - b["median"])
    if pairs and wins >= 0.9 * len(pairs) and gap > b["q3"] - b["q1"]:
        return "better"
    return "unchanged"


def _fmt(s: dict) -> str:
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base = load_set(args.base)
    change = load_set(args.change) if args.change else None
    bad = 0
    for workload in sorted(base):
        print(f"== {workload}: base {len(base[workload])} runs"
              + (f", change {len(change.get(workload, {}))} runs" if change else ""))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b_vals = {s: v[name] for s, v in base[workload].items()}
            b = stats.summary(b_vals.values())
            line = f"  {name:12s} ({metric['unit']}, bound {bound}) base {_fmt(b)}"
            if change is None:
                flag = "ok" if b["spread"] <= bound / 3 else (
                    "within bound" if b["spread"] <= bound else "TOO WIDE")
                print(f"{line}  {flag}")
                continue
            c_vals = {s: v[name] for s, v in change.get(workload, {}).items()}
            if not c_vals:
                print(f"{line}  change: no runs")
                bad += 1
                continue
            c = stats.summary(c_vals.values())
            word = verdict(metric, b_vals, c_vals)
            bad += word in ("worse", "unresolved")
            ratio = c["median"] / b["median"] if b["median"] else float("nan")
            print(f"{line}\n  {'':12s} change {_fmt(c)}  ratio {ratio:.4f} "
                  f"(change median / base median)  {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
