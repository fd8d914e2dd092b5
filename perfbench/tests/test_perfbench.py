"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests
"""

import collections
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import ellformal
import spans
import stats
import worker
import workloads
from workloads import Entry, Job


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(20, 3000):
        p = stats.tail_percentile(n)
        values = list(range(n))
        beyond = n - 1 - stats.nearest_rank(values, p)
        assert beyond >= 10, (n, p)
        if p < 99:
            assert n - 1 - stats.nearest_rank(values, p + 1) < 10, (n, p)


def test_every_workload_supports_its_tail_percentile():
    for workload in workloads.WORKLOADS.values():
        n = len(workload.entries) * workload.min_rounds
        assert stats.tail_percentile(n) >= 75, workload.name


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def _span(name, start, end, parent, job=0):
    return [name, start, end, parent, job, None]


def test_self_time_of_synthetic_nested_spans_is_exact():
    tree = [
        _span("a", 0, 100, -1),
        _span("b", 10, 40, 0),
        _span("c", 20, 30, 1),
        _span("d", 50, 90, 0),
        _span("e", 60, 70, 3),
        _span("f", 65, 80, 3),  # overlaps its sibling: the covered time is the union
        _span("g", 120, 130, -1, job=1),
    ]
    assert spans.self_times(tree) == [30, 20, 10, 20, 10, 15, 10]
    assert spans.unattributed_ns(tree, {0: (-5, 110), 1: (120, 150)}) == 15 + 20


def test_install_patches_every_binding_and_restores():
    series_mul = ellformal.UniSeries.__mul__
    flog = ellformal.formal_logarithm
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        assert ellformal.cli.formal_logarithm is not flog
        assert ellformal.formal_group.formal_logarithm is ellformal.cli.formal_logarithm
        assert ellformal.formal_logarithm is ellformal.cli.formal_logarithm
        assert ellformal.UniSeries.__rmul__ is ellformal.UniSeries.__mul__
        assert ellformal.UniSeries.__mul__ is not series_mul
        recorder.job = 7
        curve = ellformal.Curve(4, 0)
        ellformal.formal_logarithm(ellformal.formal_exponential(curve, 9))
    finally:
        restore()
    assert ellformal.formal_logarithm is flog and ellformal.cli.formal_logarithm is flog
    assert ellformal.UniSeries.__mul__ is series_mul and ellformal.UniSeries.__rmul__ is series_mul
    names = [s[spans.NAME] for s in recorder.spans]
    assert names[0] == "formal_group.formal_exponential"
    assert "formal_group.formal_logarithm" in names and "series.reverse" in names
    assert all(s[spans.JOB] == 7 for s in recorder.spans)
    log_index = names.index("formal_group.formal_logarithm")
    reverse = recorder.spans[names.index("series.reverse")]
    assert reverse[spans.PARENT] == log_index
    assert recorder.max_bits["formal_group.formal_logarithm"] > 0


def test_traced_rounds_interleave_with_untraced_ones():
    workload = workloads.WORKLOADS["numeric"]
    runner = workloads.Runner(ellformal, workload)
    flog = ellformal.formal_logarithm
    phases = worker.run_phase(runner, workloads.load_digests(), workloads.rounds(workload, 1),
                              0.0, 2, spans.Recorder())
    assert ellformal.formal_logarithm is flog
    untraced, traced = phases["untraced"], phases["traced"]
    assert untraced["rounds"] == traced["rounds"] == 1
    assert len(untraced["durations"]) == len(traced["durations"]) == len(workload.entries)
    assert untraced["failures"] == traced["failures"] == []
    assert traced["layers"]["numeric_eval.param_point.calls"] == 29


def _fails(workload_name, job, digests=None):
    """Failures counted by the worker's closed loop for a one-job round."""
    runner = workloads.Runner(ellformal, workloads.WORKLOADS[workload_name])
    phases = worker.run_phase(runner, digests or workloads.load_digests(), iter([[job]]), 0.0, 1)
    return phases["untraced"]["failures"]


def test_correct_cli_job_passes_and_corrupted_digest_fails():
    entry = workloads.WORKLOADS["lseries"].entries[0]  # honda on (4,0), the smallest pmax
    assert _fails("lseries", Job(entry)) == []
    digests = dict(workloads.load_digests())
    digests[entry.id] = "0" * 64
    failures = _fails("lseries", Job(entry), digests)
    assert len(failures) == 1 and "digest" in failures[0]["reason"]


def test_false_report_verdict_fails_even_with_matching_digest():
    entry = next(e for e in workloads.WORKLOADS["grouplaw"].entries if e.argv[0] == "grouplaw")
    runner = workloads.Runner(ellformal, workloads.WORKLOADS["grouplaw"])
    code, stdout = runner.call(Job(entry)).value
    doc = json.loads(stdout)
    doc["axioms"]["passed"] = False
    forged = json.dumps(doc, indent=2) + "\n"
    digests = {entry.id: workloads.sha256_text(forged)}
    reason = workloads.check(Job(entry), workloads.Outcome((code, forged)), digests, ellformal)
    assert reason == "report verdicts false: axioms.passed"


def test_wrong_refusal_expectation_fails():
    key = ("-3/7", "5/11")
    assert key not in workloads.REFUSED_CURVES
    not_refused = Entry("refusal on a curve that is not refused", "refusal",
                        curve=key, order=20, z=complex(-0.25, 0.01))
    failures = _fails("numeric", Job(not_refused, not_refused.z))
    assert len(failures) == 1 and "OutOfRadiusError" in failures[0]["reason"]

    refused = next(e for e in workloads.WORKLOADS["numeric"].entries if e.kind == "refusal")
    assert _fails("numeric", Job(refused, refused.z)) == []
    as_point = Entry("evaluation expected where the point is refused", "param",
                     curve=refused.curve, order=refused.order, precision=53)
    failures = _fails("numeric", Job(as_point, refused.z))
    assert len(failures) == 1 and "OutOfRadiusError" in failures[0]["reason"]


def _first_rounds(workload, seed, n=3):
    return list(itertools.islice(workloads.rounds(workload, seed), n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_sequence_and_every_seed_same_mix(name):
    workload = workloads.WORKLOADS[name]
    assert _first_rounds(workload, 1) == _first_rounds(workload, 1)
    one, two = _first_rounds(workload, 1), _first_rounds(workload, 2)
    assert one != two
    catalogue = collections.Counter(e.id for e in workload.entries)
    for batch in one + two:
        assert collections.Counter(job.entry.id for job in batch) == catalogue


def test_run_fails_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parent.parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "numeric", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0 and done.stdout == ""


def test_compare_verdicts():
    metric = {"name": "job_p50_s", "better": "lower", "bound": 0.25}
    base = {seed: 1.0 + seed / 1000 for seed in range(10)}

    def scaled(factor):
        return {seed: value * factor for seed, value in base.items()}

    assert compare.verdict(metric, base, scaled(1.0)) == "unchanged"
    assert compare.verdict(metric, base, scaled(1.3)) == "worse"
    assert compare.verdict(metric, base, scaled(0.9)) == "better"
    assert compare.verdict(dict(metric, better="higher"), base, scaled(0.9)) == "unchanged"
    wide = {seed: (0.5 if seed % 2 else 1.5) for seed in range(10)}
    assert compare.verdict(metric, wide, scaled(0.9)) == "unresolved"
    assert compare.verdict(metric, wide, scaled(0.4)) == "better"
