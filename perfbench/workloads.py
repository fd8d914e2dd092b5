"""Workload catalogues, seeded job sequences and output checks.

A workload is a fixed catalogue of entries.  A run executes the catalogue
in whole rounds; each round is the catalogue in an order shuffled by the
seed, and numeric entries draw their evaluation point from the same seeded
generator.  Every seed therefore gives the same job mix, and the same seed
gives the same job sequence.

This module imports nothing from the program under test; the worker passes
the imported package in when it runs a job.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

CURVES = (("4", "0"), ("-7", "13"), ("-3/7", "5/11"))
# Only these two are refused near the real axis: |w| is far outside the
# reliability radius there.  (-3/7, 5/11) is not refused in that band.
REFUSED_CURVES = (("4", "0"), ("-7", "13"))

NMAX = 50
LOG_ORDER = 60
DERIVATIVE_STEP = 1e-4
RESIDUAL_LIMIT = {53: 1e-13, 150: 1e-40}
DEVIATION_LIMIT = 1e-6
RE_RANGE = (-0.5, 0.5)
IM_RANGE = (0.3, 1.2)


@dataclass(frozen=True)
class Entry:
    """One catalogue entry.

    ``kind`` is ``cli`` (``argv`` run through ``ellformal.cli.main``),
    ``pullback`` (``coordinate_pullback``), ``param`` (``param_point``),
    ``deriv`` (``derivative_check``) or ``refusal`` (``param_point`` at the
    fixed point ``z``, which must raise ``OutOfRadiusError``).
    """

    id: str
    kind: str
    argv: tuple = ()
    curve: tuple = ()
    order: int = 0
    precision: int = 53
    z: complex | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    entries: tuple
    # Rounds run even when --seconds has run out.  ``job_tail_s`` is taken at
    # the highest percentile with ten jobs beyond it at len(entries) *
    # min_rounds jobs, so min_rounds also fixes that percentile.
    min_rounds: int

    @property
    def tail_percentile(self) -> int:
        return stats.tail_percentile(len(self.entries) * self.min_rounds)


def _cli(command: str, g2: str, g3: str, *flags: str) -> Entry:
    argv = (command, f"--g2={g2}", f"--g3={g3}", *flags, "--format", "json")
    return Entry(" ".join(argv), "cli", argv=argv)


def _lseries() -> tuple:
    entries = []
    for g2, g3 in CURVES:
        entries += [_cli("honda", g2, g3, f"--pmax={p}") for p in (31, 61, 97)]
        entries += [_cli("expand", g2, g3, f"--order={n}", "--what", "an") for n in (41, 81)]
    return tuple(entries)


def _grouplaw() -> tuple:
    entries = []
    for g2, g3 in CURVES:
        entries += [_cli("grouplaw", g2, g3, f"--order={d}") for d in (8, 13, 18)]
        entries += [_cli("expand", g2, g3, f"--order={n}", "--what", "s") for n in (30, 55, 80)]
        entries += [
            Entry(f"coordinate_pullback {g2},{g3} order={n}", "pullback", curve=(g2, g3), order=n)
            for n in (20, 40, 60)
        ]
    return tuple(entries)


def _numeric() -> tuple:
    entries = []
    for g2, g3 in CURVES:
        for order in (20, 40):
            for precision in (53, 150):
                entries.append(
                    Entry(f"param_point {g2},{g3} order={order} bits={precision}", "param",
                          curve=(g2, g3), order=order, precision=precision)
                )
        entries.append(
            Entry(f"derivative_check {g2},{g3} order=20 bits=53", "deriv", curve=(g2, g3), order=20)
        )
    for g2, g3 in REFUSED_CURVES:
        for order in (20, 40):
            for z, precision in ((complex(-0.25, 0.01), 53), (complex(0.2, 0.02), 150)):
                entries.append(
                    Entry(f"refusal {g2},{g3} order={order} bits={precision} z={z}", "refusal",
                          curve=(g2, g3), order=order, precision=precision, z=z)
                )
    return tuple(entries)


# Why each workload exists is in BENCHMARK.json and README.md.  Every
# catalogue has an odd number of entries, so the pooled median of whole
# rounds falls in the middle of one entry's times, not on the edge between
# two entries.  min_rounds is the fewest rounds a 30-second run held at the
# seed commit, except on numeric.  Its jobs take about 10 ms, and their
# upper tail carries bursts of the host: the same call at a fixed z is
# 1.5x slower half of the time in some minutes and not in others.  At the
# run length (over 4600 jobs) the rule gives p99, whose median moved by 27 %
# between two ten-seed sets of the same code.  At 10 rounds it gives p95,
# inside the times of the two slowest entries.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lseries", _lseries(), min_rounds=12),
        Workload("grouplaw", _grouplaw(), min_rounds=7),
        Workload("numeric", _numeric(), min_rounds=10),
    )
}


@dataclass(frozen=True)
class Job:
    entry: Entry
    z: complex | None = None


def rounds(workload: Workload, seed: int):
    """Endless seeded sequence of rounds; each round is a list of jobs."""
    rng = random.Random(f"{workload.name}/{seed}")
    entries = workload.entries
    while True:
        order = list(range(len(entries)))
        rng.shuffle(order)
        batch = []
        for i in order:
            entry = entries[i]
            z = entry.z
            if entry.kind in ("param", "deriv"):
                z = complex(rng.uniform(*RE_RANGE), rng.uniform(*IM_RANGE))
            batch.append(Job(entry, z))
        yield batch


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- execution and checks ----------------------------------------------------


@dataclass
class Outcome:
    """What a job returned: ``value`` on success, ``error`` if it raised."""

    value: object = None
    error: BaseException | None = None


class Runner:
    """Runs jobs of one workload against an imported ``ellformal`` package.

    Construction is part of set-up: for ``numeric`` it builds the order-60
    formal logarithm of every curve.  Library calls go through the package
    attributes at call time, so wrappers installed later are used.
    """

    def __init__(self, package, workload: Workload):
        self.package = package
        self.curves = {
            (g2, g3): package.Curve(Fraction(g2), Fraction(g3)) for g2, g3 in CURVES
        }
        self.logs = {}
        if any(e.kind in ("param", "deriv", "refusal") for e in workload.entries):
            for key, curve in self.curves.items():
                fexp = package.formal_exponential(curve, LOG_ORDER)
                self.logs[key] = package.formal_logarithm(fexp)

    def call(self, job: Job) -> Outcome:
        entry = job.entry
        pkg = self.package
        try:
            if entry.kind == "cli":
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = pkg.cli.main(list(entry.argv))
                return Outcome((code, out.getvalue()))
            curve = self.curves[entry.curve]
            if entry.kind == "pullback":
                return Outcome(pkg.coordinate_pullback(curve, entry.order))
            flog = self.logs[entry.curve]
            if entry.kind == "deriv":
                return Outcome(pkg.derivative_check(
                    curve, flog, job.z, DERIVATIVE_STEP, nmax=NMAX, order=entry.order))
            return Outcome(pkg.param_point(curve, flog, job.z, NMAX, entry.order, entry.precision))
        except Exception as exc:  # the check decides whether this was expected
            return Outcome(error=exc)


# The report's own verdicts that must be true, per CLI command.
VERDICTS = {
    "honda": ("all_congruent",),
    "grouplaw": ("constructions_agree", "axioms.passed", "checks_passed"),
}


def _field(doc: dict, path: str):
    for key in path.split("."):
        doc = doc[key]
    return doc


def check(job: Job, outcome: Outcome, digests: dict, package) -> str | None:
    """None when the job's output is correct, else a one-line reason."""
    entry = job.entry
    if entry.kind == "refusal":
        if isinstance(outcome.error, package.OutOfRadiusError):
            return None
        got = "a result" if outcome.error is None else repr(outcome.error)
        return f"expected OutOfRadiusError, got {got}"
    if outcome.error is not None:
        return f"raised {outcome.error!r}"
    if entry.kind == "cli":
        code, stdout = outcome.value
        if code != 0:
            return f"exit code {code}"
        if sha256_text(stdout) != digests.get(entry.id):
            return "stdout digest differs from the recorded one"
        doc = json.loads(stdout)
        failed = [path for path in VERDICTS.get(entry.argv[0], ()) if _field(doc, path) is not True]
        return f"report verdicts false: {', '.join(failed)}" if failed else None
    result = outcome.value
    if entry.kind == "pullback":
        return None if result.holds else "pullback identities do not hold"
    if entry.kind == "param":
        limit = RESIDUAL_LIMIT[entry.precision]
        if result.relative_residual < limit:
            return None
        return f"relative_residual {result.relative_residual:.3g} >= {limit:g}"
    if entry.kind == "deriv":
        if result.relative_deviation < DEVIATION_LIMIT:
            return None
        return f"relative_deviation {result.relative_deviation:.3g} >= {DEVIATION_LIMIT:g}"
    raise ValueError(f"unknown entry kind {entry.kind!r}")
