"""ellformal benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload lseries --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs in a fresh interpreter
(``worker.py``) as a closed loop with one client and one thread.  Set-up is
timed over several fresh interpreters, before and after the timed phase, and
reported as its median.  Times are reported at a reference speed: they are
scaled by the worker's reference kernel, which tracks the host's drift.
Every job's output is checked; a failed check makes ``correct`` false and
the exit code 1.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
environment included, goes to ``<results-dir>/<workload>_seed<n>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PROGRAM = ROOT / "src" / "ellformal"
SETUP_SAMPLES = 7


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def environment(load_before: float) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(PROGRAM.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "load_1min_before": load_before,
        "load_1min_after": os.getloadavg()[0],
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run_worker(args: list, deadline: float) -> tuple[float, str]:
    """Start worker.py; returns (seconds from start to its ready line, rest of stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode == -signal.SIGKILL:
        raise BenchError(f"worker {' '.join(args)} was still running at the deadline; killed")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return setup, rest


def tail_job(workload, phase: dict) -> tuple:
    """(seconds, entry id) of the job at the workload's tail percentile."""
    return stats.nearest_rank(zip(phase["durations"], phase["entries"]),
                              workload.tail_percentile)


def time_scale(result: dict) -> float:
    """Factor that turns this run's times into times at the reference speed."""
    return worker.REFERENCE_KERNEL_S / statistics.median(result["kernel_s"])


def end_to_end(workload, result: dict, setups: list, scale: float) -> dict:
    phase = result["untraced"]
    durations = phase["durations"]
    return {
        "setup_s": statistics.median(setups) * scale,
        "jobs_per_s": (len(durations) - len(phase["failures"])) / (phase["seconds"] * scale),
        "job_p50_s": statistics.median(durations) * scale,
        "job_tail_s": tail_job(workload, phase)[0] * scale,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": 1 - len(phase["failures"]) / len(durations),
    }


def entry_medians(phase: dict) -> dict:
    times: dict = {}
    for entry, seconds in zip(phase["entries"], phase["durations"]):
        times.setdefault(entry, []).append(seconds)
    return {entry: statistics.median(t) for entry, t in sorted(times.items())}


def per_layer(result: dict) -> dict:
    """The traced rounds' layer table, plus the overhead of the span wrappers.

    ``trace.overhead_ratio`` is the median over catalogue entries of each
    entry's traced / untraced median time, over the interleaved rounds.  The
    ratio of the two pooled medians would rest on one entry's few samples.
    """
    layers = dict(result["traced"]["layers"])
    untraced, traced = entry_medians(result["untraced"]), entry_medians(result["traced"])
    layers["trace.overhead_ratio"] = statistics.median(
        traced[entry] / untraced[entry] for entry in untraced)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    # The worker starts no round after 3 x --seconds of timed phase, so a slow
    # program still gives a result; only a hung one reaches this deadline.
    deadline = started + 4 * args.seconds + 50
    if not (PROGRAM / "__init__.py").is_file():
        print(f"error: program source {PROGRAM} not found", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = workloads.WORKLOADS[args.workload]
    load_before = os.getloadavg()[0]
    args.results_dir.mkdir(parents=True, exist_ok=True)
    stem = args.results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}"

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [run_worker([*common, "--setup-only"], deadline)[0]
                  for _ in range(SETUP_SAMPLES // 2)]
        extra = ["--spans-out", f"{stem}.spans.json"] if args.trace else []
        setup, out = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace), *extra],
            deadline)
        setups.append(setup)
        setups += [run_worker([*common, "--setup-only"], deadline)[0]
                   for _ in range(SETUP_SAMPLES - len(setups))]
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    phases = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(len(p["durations"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    scale = time_scale(result)
    tail = tail_job(workload, result["untraced"])
    values = per_layer(result) if args.trace else end_to_end(workload, result, setups, scale)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(load_before),
        "tail_percentile": workload.tail_percentile,
        "tail_entry": tail[1],
        "time_scale": scale,
        "unscaled": end_to_end(workload, result, setups, 1.0),
        "setup_samples_s": setups,
        "rounds": [p["rounds"] for p in phases],
        "catalogue_size": len(workload.entries),
        "entry_median_s": entry_medians(result["untraced"]),
        "failures": failures,
        "metrics": metrics,
        "wall_s": time.perf_counter() - started,
    }
    if args.trace:
        record["layers"] = values
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"FAILED {failure['entry']} z={failure['z']}: {failure['reason']}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
