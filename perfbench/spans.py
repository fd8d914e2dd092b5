"""Span recorder for the traced run, installed from outside the program.

Each listed public function of ``ellformal`` is replaced by a wrapper that
records a span (layer name, start, end, parent span, job id and the
exception type if it raised).  A name bound in several places (``from .x
import y`` in another module, the package attribute, or an alias such as
``__rmul__ = __mul__`` on a class) is replaced in every place, and
installation fails if any binding of an original is left behind.

Spans stay in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

# Metric prefix -> (module, attribute path) of the wrapped function.
LAYERS = {
    "series.reverse": ("ellformal.series", "UniSeries.reverse"),
    "series.uni_mul": ("ellformal.series", "UniSeries.__mul__"),
    "series.uni_div": ("ellformal.series", "UniSeries.__truediv__"),
    "series.compose": ("ellformal.series", "UniSeries.compose"),
    "series.bi_mul": ("ellformal.series", "BiSeries.__mul__"),
    "series.bi_reciprocal": ("ellformal.series", "BiSeries.reciprocal"),
    "series.bi_substitute": ("ellformal.series", "bi_substitute"),
    "weierstrass.wp_coefficients": ("ellformal.weierstrass", "wp_coefficients"),
    "formal_group.formal_exponential": ("ellformal.formal_group", "formal_exponential"),
    "formal_group.formal_logarithm": ("ellformal.formal_group", "formal_logarithm"),
    "formal_group.s_coordinate": ("ellformal.formal_group", "s_coordinate"),
    "formal_group.group_law_exp_log": ("ellformal.formal_group", "group_law_exp_log"),
    "formal_group.group_law_closed_form": ("ellformal.formal_group", "group_law_closed_form"),
    "formal_group.verify_axioms": ("ellformal.formal_group", "verify_axioms"),
    "formal_group.coordinate_pullback": ("ellformal.formal_group", "coordinate_pullback"),
    "lseries.honda_check": ("ellformal.lseries", "honda_check"),
    "lseries.reduce_curve": ("ellformal.lseries", "reduce_curve"),
    "lseries.count_points": ("ellformal.lseries", "count_points"),
    "numeric_eval.param_point": ("ellformal.numeric_eval", "param_point"),
    "numeric_eval.derivative_check": ("ellformal.numeric_eval", "derivative_check"),
    "numeric_eval.eval_log_qseries": ("ellformal.numeric_eval", "eval_log_qseries"),
    "numeric_eval.eval_cusp_qseries": ("ellformal.numeric_eval", "eval_cusp_qseries"),
    "numeric_eval.eval_wp": ("ellformal.numeric_eval", "eval_wp"),
    "numeric_eval.reliability_radius": ("ellformal.numeric_eval", "reliability_radius"),
    "cli.main": ("ellformal.cli", "main"),
}


# Layers whose returned coefficients are sized (largest numerator or
# denominator bit length) at the same boundary as their span.
_COEFFS = {
    "formal_group.formal_logarithm": lambda r: r.series.coeffs,
    "formal_group.s_coordinate": lambda r: r.series.coeffs,
    "weierstrass.wp_coefficients": lambda r: r.c,
}

# Span record fields.
NAME, START, END, PARENT, JOB, ERROR = range(6)


class Recorder:
    """In-memory spans and boundary counts of one traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: int | None = None
        self.max_bits: dict[str, int] = {}
        self.honda_checked = 0
        self.honda_candidates = 0

    def observe(self, name: str, result) -> None:
        """Counts read off a layer's return value."""
        coeffs = _COEFFS.get(name)
        if coeffs is not None:
            bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                        for c in coeffs(result)), default=0)
            self.max_bits[name] = max(bits, self.max_bits.get(name, 0))
        elif name == "lseries.honda_check":
            self.honda_checked += result.n_checked
            self.honda_candidates += len(result.entries)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            self.observe(name, result)
            return result

        return wrapper


def _resolve(module_name: str, path: str):
    obj = sys.modules[module_name]
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


def _namespaces():
    """Every module of the package and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if name == "ellformal" or name.startswith("ellformal."):
            yield module
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__.startswith("ellformal"):
                    yield value


def install(recorder: Recorder):
    """Replace every binding of every listed function; returns an undo callable."""
    originals = {}
    for name, (module_name, path) in LAYERS.items():
        fn = _resolve(module_name, path)
        originals[id(fn)] = (fn, recorder.wrap(name, fn))
    undo = []
    seen = set()
    for ns in _namespaces():
        if id(ns) in seen:
            continue
        seen.add(id(ns))
        for attr, value in list(vars(ns).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, attr, hit[1])
                undo.append((ns, attr, value))
    left = [
        f"{getattr(ns, '__name__', ns)}.{attr}"
        for ns in _namespaces()
        for attr, value in vars(ns).items()
        if id(value) in originals and originals[id(value)][0] is value
    ]
    if left:
        raise RuntimeError(f"unpatched bindings remain: {', '.join(left)}")

    def restore():
        for ns, attr, value in reversed(undo):
            setattr(ns, attr, value)

    return restore


# -- analysis ------------------------------------------------------------------


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its child spans cover (ns)."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        span[END] - span[START] - _covered(children.get(i, ()), span[START], span[END])
        for i, span in enumerate(spans)
    ]


def unattributed_ns(spans, jobs) -> int:
    """Job time that lies under no top-level span; ``jobs`` maps id -> (start, end)."""
    tops: dict[int, list] = {}
    for span in spans:
        if span[PARENT] < 0:
            tops.setdefault(span[JOB], []).append((span[START], span[END]))
    return sum(end - start - _covered(tops.get(job, ()), start, end)
               for job, (start, end) in jobs.items())


def layer_table(recorder: Recorder, jobs: dict, rounds: int) -> dict:
    """Per-layer metrics of one traced phase, normalised per catalogue round.

    ``self_s`` excludes child spans; ``total_s`` is the inclusive time of the
    outermost spans of a name.  ``share`` and ``total_share`` divide them by
    the total job time.
    """
    spans = recorder.spans
    selfs = self_times(spans)
    self_ns = dict.fromkeys(LAYERS, 0)
    total_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    for span, own in zip(spans, selfs):
        self_ns[span[NAME]] += own
        calls[span[NAME]] += 1
        up = span[PARENT]
        while up >= 0 and spans[up][NAME] != span[NAME]:
            up = spans[up][PARENT]
        if up < 0:  # outermost span of its name: count its whole duration once
            total_ns[span[NAME]] += span[END] - span[START]

    # wp_coefficients calls made under a param_point that returned a point.
    point_of = []
    for i, span in enumerate(spans):
        if span[NAME] == "numeric_eval.param_point":
            point_of.append(i)
        else:
            point_of.append(point_of[span[PARENT]] if span[PARENT] >= 0 else -1)
    evaluated = {i for i, s in enumerate(spans)
                 if s[NAME] == "numeric_eval.param_point" and s[ERROR] is None}
    wp_under_points = sum(1 for i, s in enumerate(spans)
                          if s[NAME] == "weierstrass.wp_coefficients" and point_of[i] in evaluated)
    points = calls["numeric_eval.param_point"]
    refused = sum(1 for s in spans
                  if s[NAME] == "numeric_eval.param_point" and s[ERROR] == "OutOfRadiusError")
    job_ns = sum(end - start for start, end in jobs.values())

    table = {}
    for name in LAYERS:
        table[f"{name}.self_s"] = self_ns[name] / 1e9 / rounds
        table[f"{name}.total_s"] = total_ns[name] / 1e9 / rounds
        table[f"{name}.calls"] = calls[name] / rounds
        table[f"{name}.share"] = self_ns[name] / job_ns if job_ns else 0.0
        table[f"{name}.total_share"] = total_ns[name] / job_ns if job_ns else 0.0
    for name in _COEFFS:
        table[f"{name}.max_coeff_bits"] = recorder.max_bits.get(name, 0)
    table["weierstrass.wp_coefficients.calls_per_point"] = (
        wp_under_points / len(evaluated) if evaluated else 0.0)
    table["lseries.honda_check.checked_ratio"] = (
        recorder.honda_checked / recorder.honda_candidates if recorder.honda_candidates else 0.0)
    table["numeric_eval.refused_ratio"] = refused / points if points else 0.0
    table["trace.unattributed_share"] = unattributed_ns(spans, jobs) / job_ns if job_ns else 0.0
    return table
