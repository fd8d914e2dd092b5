"""One workload in one fresh interpreter, one client, one thread.

Started by ``run.py``.  Set-up (import ``ellformal`` from the checkout's
``src``, load the catalogue and digests, build shared inputs) ends with a
``ready`` line on stdout; ``run.py`` times set-up from process start to that
line.  With ``--setup-only`` the worker exits there.  Otherwise it runs the
timed phase as a closed loop of whole rounds and prints one JSON line.

With ``--trace 1`` the rounds of the timed phase alternate between untraced
and traced (span wrappers installed), so the tracing overhead is measured
in the same process, on interleaved rounds.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program():
    """Import ``ellformal`` from the checkout, never from an installed copy."""
    if not (SRC / "ellformal" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC / 'ellformal'}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("ellformal")
    if Path(package.__file__).resolve().parent != (SRC / "ellformal").resolve():
        raise SystemExit(f"imported ellformal from {package.__file__}, not from {SRC}")
    return package


# The host's speed drifts by tens of percent over minutes.  A fixed exact
# computation, run between jobs after every CALIBRATE_EVERY_NS of job time,
# measures that speed; run.py scales each time by REFERENCE_KERNEL_S over the
# kernel's median time in the run.
CALIBRATE_EVERY_NS = 100_000_000
REFERENCE_KERNEL_S = 0.010


def reference_kernel() -> Fraction:
    """Invert a fixed power series over the rationals, as the program's series do."""
    a = [Fraction(1)] + [Fraction((-1) ** k * (2 * k + 1), k * k + 3) for k in range(1, 50)]
    inverse = []
    for k in range(len(a)):
        acc = Fraction(int(k == 0))
        for j in range(1, k + 1):
            acc -= inverse[k - j] * a[j]
        inverse.append(acc)
    return inverse[-1]


def _kernel_ns() -> int:
    start = perf_counter_ns()
    reference_kernel()
    return perf_counter_ns() - start


def _phase() -> dict:
    return {"seconds": 0.0, "rounds": 0, "durations": [], "entries": [], "failures": []}


def run_phase(runner, digests, job_rounds, seconds: float, min_rounds: int, recorder=None):
    """Closed loop over whole rounds until ``seconds`` is (about) used up.

    A further round starts only while the time left exceeds half a round,
    and never before ``min_rounds`` are done, unless three times ``seconds``
    has passed.  Returns ``{"untraced": phase, "kernel_s": [...]}``, the
    latter the times of the reference kernel; a phase's ``seconds`` leave
    them out.  With a ``recorder`` the rounds alternate untraced and traced
    (the span wrappers are installed for one round and removed after it), so
    that both sides see the same drift of the machine's speed; the result
    then also has a ``"traced"`` phase.
    """
    phases = {"untraced": _phase()}
    if recorder is not None:
        phases["traced"] = _phase()
    windows = {}
    kernel_s = []
    since_kernel = 0
    n_rounds = 0
    job_id = 0
    loop_start = perf_counter_ns()
    budget = int(seconds * 1e9)
    while True:
        if n_rounds and n_rounds % len(phases) == 0:
            elapsed = perf_counter_ns() - loop_start
            if elapsed >= 3 * budget or (
                    n_rounds >= min_rounds and elapsed + elapsed / n_rounds / 2 >= budget):
                break
        traced = n_rounds % len(phases) == 1
        phase = phases["traced" if traced else "untraced"]
        restore = spans.install(recorder) if traced else None
        round_start = perf_counter_ns()
        round_kernel_ns = 0
        try:
            for job in next(job_rounds):
                if traced:
                    recorder.job = job_id
                start = perf_counter_ns()
                outcome = runner.call(job)
                end = perf_counter_ns()
                if traced:
                    recorder.job = None
                    windows[job_id] = (start, end)
                reason = workloads.check(job, outcome, digests, runner.package)
                phase["durations"].append((end - start) / 1e9)
                phase["entries"].append(job.entry.id)
                if reason is not None:
                    phase["failures"].append(
                        {"entry": job.entry.id, "z": repr(job.z), "reason": reason})
                job_id += 1
                since_kernel += end - start
                if since_kernel >= CALIBRATE_EVERY_NS:
                    since_kernel = 0
                    kernel_ns = _kernel_ns()
                    round_kernel_ns += kernel_ns
                    kernel_s.append(kernel_ns / 1e9)
        finally:
            if restore is not None:
                restore()
        phase["seconds"] += (perf_counter_ns() - round_start - round_kernel_ns) / 1e9
        phase["rounds"] += 1
        n_rounds += 1
    while len(kernel_s) < 5:  # a run too short to have calibrated itself
        kernel_s.append(_kernel_ns() / 1e9)
    if recorder is not None:
        phases["traced"]["layers"] = spans.layer_table(
            recorder, windows, phases["traced"]["rounds"])
    return {**phases, "kernel_s": kernel_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="file for the traced phase's raw spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package = import_program()
    workload = workloads.WORKLOADS[args.workload]
    digests = workloads.load_digests()
    runner = workloads.Runner(package, workload)
    job_rounds = workloads.rounds(workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    recorder = spans.Recorder() if args.trace else None
    result = run_phase(runner, digests, job_rounds, args.seconds, workload.min_rounds, recorder)
    if args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job", "error"],
                       "spans": recorder.spans}, handle, separators=(",", ":"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
