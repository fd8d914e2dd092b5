"""Command-line surface: one deterministic computation per invocation.

Commands map onto the library layers: ``expand`` (series expansions),
``grouplaw`` (both group-law constructions plus axiom checks), ``honda``
(prime-by-prime congruence verification), ``bernoulli`` (universal and
elliptic Bernoulli numbers), ``param`` (numeric parametrization point)
and ``classical`` (the exp(T)-1 degeneration demo).

Exit codes: 0 success, 1 any failed check or refused computation,
2 usage or parse errors.  Reports go to stdout, diagnostics to stderr.
Rationals serialize as exact ``num/den`` strings; repeated runs with the
same configuration produce byte-identical output.  Every flag can also
be supplied through ``--config file.json`` under the same name; explicit
flags win.

A command is defined once, in ``_COMMANDS``: help text, fields in report
order, defaults (a field without one is required), runner, and inclusive
bounds, where every size cap is written once, with the exponent that scales
it down on a tall curve (``_Cap``).  ``_FLAGS`` gives each field's parser and
argparse keywords; flag and config-file values pass the same parsers and
bounds before any work.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .formal_group import (
    formal_exponential,
    formal_logarithm,
    group_law_closed_form,
    group_law_exp_log,
    s_coordinate,
    universal_bernoulli,
    verify_axioms,
)
from .lseries import classical_demo, honda_check
from .numeric_eval import param_point
from .series import BiSeries, UniSeries
from .weierstrass import Curve, wp_coefficients


class UsageError(ValueError):
    """Bad flags, bad config file, or invalid field values."""


class RationalParseError(UsageError):
    """The message quotes the text whole up to 100 characters; a longer text
    by the 80 characters around the error, with its length."""

    def __init__(self, text: str, position: int, message: str):
        if len(text) <= 100:
            quoted = repr(text)
        else:
            start = max(0, min(position - 40, len(text) - 80))
            quoted = f"{text[start : start + 80]!r} (characters {start}-{start + 79} of {len(text)})"
        super().__init__(f"{message} in {quoted} at position {position}")
        self.text = text
        self.position = position


_RATIONAL = re.compile(r"[+-]?(?:\d+(?:/(?P<den>\d+))?|\d+\.\d*|\.\d+)\Z")
# Every prefix of a string this matches is matched too, and each character has
# one way on, so one greedy match ends where the longest well-formed prefix does.
_RATIONAL_PREFIX = re.compile(r"[+-]?\d*(?:/\d*|\.\d*)?")


def parse_rational(text: str) -> Fraction:
    """Exact rational from an integer, ``a/b``, or finite decimal string."""
    m = _RATIONAL.fullmatch(text)
    if not m:  # the error is where the longest well-formed prefix ends
        raise RationalParseError(text, _RATIONAL_PREFIX.match(text).end(), "malformed rational")
    den = m.group("den")
    if den is not None and int(den) == 0:
        raise RationalParseError(text, text.index("/") + 1, "zero denominator")
    return Fraction(text)


REFERENCE_HEIGHT = 47 / 6  # of (-3/7, 5/11), where every cap in _COMMANDS was measured


@dataclass(frozen=True)
class _Cap:
    """An upper bound measured on (-3/7, 5/11).  The cost of an order grows fast
    with the height of the curve (_height), so on a taller curve the bound is
    multiplied by (REFERENCE_HEIGHT / height)^gamma and rounded down."""

    value: int
    gamma: float

    def scale(self, height: float) -> float:
        return (REFERENCE_HEIGHT / height) ** self.gamma if height > REFERENCE_HEIGHT else 1.0


def _height(values: dict) -> float:
    """max(bits(a) / 4, bits(b) / 6) for the integer weights (a, b) of the curve
    scaled by weight (Curve.weights): the size every exact route starts from."""
    _, a, b = Curve(values["g2"], values["g3"]).weights
    return max(a.bit_length() / 4, b.bit_length() / 6)


def _param_cost(values: dict, scales: dict) -> tuple[float, str]:
    """Estimated seconds of --order with --precision on (-3/7, 5/11), same
    host: the exact wp expansion grows as order^4 (56 s at order 1040), and
    the numeric part as precision * (order + 180), the 180 standing for pi,
    exp(2*pi*i*z) and the printed digits; fitted to calls at orders
    40..1040 and 53..290000 bits (README).  On a taller curve the expansion
    costs at ``order`` what it costs at order / (its cap's scale) on that one."""
    order, precision = values["order"], values["precision"]
    seconds = (order / scales["order"]) ** 4 / 2.1e10 + precision * (order + 180) / 1.25e6
    return seconds, f"param --order {order} with --precision {precision}"


def _classical_cost(values: dict, scales: dict) -> tuple[float, str]:
    """Estimated seconds of --order with the --s values: the reversion as
    order^4 (53.3 s at order 230), and each --s at 2 ms, above the dearest
    value measured at any --nmax (34000 of s = 47 at --nmax 10^18 take
    1.8 ms each, report included)."""
    order, count = values["order"], len(values["s"])
    return order**4 / 5.25e7 + count * 2e-3, f"classical --order {order} with {count} --s values"


@dataclass(frozen=True)
class RunConfig:
    command: str
    format: str = "text"
    g2: Fraction | None = None
    g3: Fraction | None = None
    order: int | None = None
    pmax: int | None = None
    z: tuple[float, float] | None = None
    nmax: int | None = None
    what: str | None = None
    s: tuple[int, ...] | None = None
    precision: int | None = None


# -- field parsers, shared by flags and config-file values -------------------

class _LongInt(str):
    """A config-file integer longer than Python reads, kept as its digits so
    that its field's parser refuses it by name."""


def _readable(name: str, text: str) -> str:
    """text, refused if a run of digits in it is longer than Python reads as an int
    (sys.get_int_max_str_digits(), 4300 by default; 0 is no limit)."""
    limit = sys.get_int_max_str_digits()
    longest = max(map(len, re.findall(r"\d+", text)), default=0)
    if limit and longest > limit:
        raise UsageError(f"{name} has a {longest}-digit number; at most {limit} digits are read")
    return text


def _rational(name: str, value) -> Fraction:
    try:
        return parse_rational(_readable(name, str(value)))
    except RationalParseError as exc:
        raise UsageError(f"{name}: {exc}") from exc


def _int(name: str, value) -> int:
    if isinstance(value, str):
        value = _readable(name, value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise UsageError(f"{name} must be an integer, got {value!r}")


def _z(name: str, value) -> tuple[float, float]:
    parts = value.split(",") if isinstance(value, str) else value
    # JSON booleans are not numbers here, as in _int
    ok = isinstance(parts, (list, tuple)) and not any(isinstance(x, bool) for x in parts)
    try:
        z = tuple(float(x) for x in parts) if ok else ()
    except (TypeError, ValueError):
        z = ()
    # q = exp(2*pi*i*z) must be computable in double precision
    if len(z) != 2 or not all(math.isfinite(2 * math.pi * x) for x in z):
        raise UsageError(f"{name} must be 're,im' with 2*pi*re and 2*pi*im finite "
                         f"doubles, got {value!r}")
    if z[1] <= 0:
        raise UsageError(f"{name} must have positive imaginary part")
    return z


def _s(name: str, value) -> tuple[int, ...]:
    if isinstance(value, (int, _LongInt)):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value:
        raise UsageError(f"{name} must be a non-empty list of integers, got {value!r}")
    return tuple(_int(name, v) for v in value)


def _choice(name: str, value) -> str:
    choices = _FLAGS[name][1]["choices"]
    if value not in choices:
        raise UsageError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value


# -- serialization -----------------------------------------------------------


def _series_doc(series: UniSeries) -> dict:
    return {"order": series.order, "coeffs": [str(c) for c in series.coeffs]}


def _laurent_doc(valuation: int, body: UniSeries) -> dict:
    return {"valuation": valuation, **_series_doc(body)}


def _bi_doc(series: BiSeries) -> dict:
    return {
        "order": series.order,
        "terms": [{"i": i, "j": j, "c": str(c)} for i, j, c in series.terms()],
    }


def _real_str(x, precision: int) -> str:
    if precision <= 53:
        return repr(float(x))
    import mpmath

    return mpmath.nstr(x, int(precision / 3.3219280948873626) + 3)


def _complex_doc(value, precision: int) -> dict:
    return {
        "re": _real_str(value.real, precision),
        "im": _real_str(value.imag, precision),
        "precision": precision,
    }


def _config_doc(config: RunConfig) -> dict:
    doc: dict = {"command": config.command}
    for name in _COMMANDS[config.command].fields:
        value = getattr(config, name)
        if isinstance(value, Fraction):
            doc[name] = str(value)
        elif isinstance(value, tuple):
            doc[name] = list(value)
        else:
            doc[name] = value
    return doc


# -- command execution -------------------------------------------------------


def _run_expand(config: RunConfig) -> tuple[bool, dict]:
    curve = Curve(config.g2, config.g3)
    what, order = config.what, config.order
    if what == "fe":
        body = {"series": _series_doc(formal_exponential(curve, order).series)}
    elif what in ("fl", "an"):
        flog = formal_logarithm(curve, order)
        body = ({"series": _series_doc(flog.series)} if what == "fl"
                else {"an": [str(a) for a in flog.an]})
    elif what == "wp":
        body = {"laurent": _laurent_doc(-2, wp_coefficients(curve, order).body())}
    elif what == "wpp":
        body = {"laurent": _laurent_doc(-3, wp_coefficients(curve, order).prime_body())}
    else:  # "s"
        body = {"series": _series_doc(s_coordinate(curve, order).series)}
    return True, body


def _run_grouplaw(config: RunConfig) -> tuple[bool, dict]:
    curve = Curve(config.g2, config.g3)
    law_exp = group_law_exp_log(curve, config.order)
    law_closed = group_law_closed_form(curve, config.order)
    agree = law_exp.scaled == law_closed.scaled  # one curve, so one weight u
    # checked on the closed form, built from s alone: the ODE law meets the
    # differential check by construction, and agreement carries the verdict over
    report = verify_axioms(law_closed)
    ok = agree and report.passed
    return ok, {
        "law": _bi_doc(law_exp.series),
        "constructions_agree": agree,
        "axioms": {
            "neutral": report.neutral,
            "commutative": report.commutative,
            "associative": report.associative,
            "passed": report.passed,
        },
        "checks_passed": ok,
    }


def _run_honda(config: RunConfig) -> tuple[bool, dict]:
    curve = Curve(config.g2, config.g3)
    report = honda_check(curve, config.pmax)
    entries = []
    for e in report.entries:
        entries.append(
            {
                "p": e.p,
                "trace": e.trace,
                "a_p": None if e.a_formal is None else str(e.a_formal),
                "congruent": e.congruent,
                "exact": e.exact,
                "skipped_reason": e.skipped_reason,
            }
        )
    return report.all_congruent, {
        "entries": entries,
        "all_congruent": report.all_congruent,
        "n_checked": report.n_checked,
        "n_skipped": report.n_skipped,
    }


def _run_bernoulli(config: RunConfig) -> tuple[bool, dict]:
    curve = Curve(config.g2, config.g3)
    order = config.order
    universal = universal_bernoulli(formal_exponential(curve, order + 1).series, order)
    wp = wp_coefficients(curve, max(2, order // 2))  # one expansion, for every 2k*G_k
    bh = {k: 2 * k * wp.eisenstein(k) for k in range(4, order + 1)}
    body: dict = {
        "universal": [str(b) for b in universal],
        "bernoulli_hurwitz": [{"k": k, "value": str(v)} for k, v in bh.items()],
    }
    ok = True
    if order >= 6:
        checks = {
            "universal4_is_minus_6_bh4": universal[4] == -6 * bh[4],
            "universal6_is_minus_15_bh6": universal[6] == -15 * bh[6],
        }
        ok = all(checks.values())
        body["cross_checks"] = checks
    body["checks_passed"] = ok
    return ok, body


def _run_param(config: RunConfig) -> tuple[bool, dict]:
    curve = Curve(config.g2, config.g3)
    flog = formal_logarithm(curve, config.order)
    result = param_point(
        curve, flog, config.z, config.nmax, config.order, config.precision
    )
    p = config.precision
    return True, {
        "z": _complex_doc(result.z, p),
        "q": _complex_doc(result.q, p),
        "w": _complex_doc(result.w, p),
        "alpha": _complex_doc(result.alpha, p),
        "beta": _complex_doc(result.beta, p),
        "residual": _real_str(result.residual, p),
        "relative_residual": repr(result.relative_residual),
        "truncation_estimate": _real_str(result.truncation_estimate, p),
    }


def _run_classical(config: RunConfig) -> tuple[bool, dict]:
    report = classical_demo(config.nmax, list(config.s), config.order)
    rows = []
    for row in report.sums:
        rows.append(
            {
                "s": row.s,
                "terms": row.terms,
                "partial_sum": repr(row.partial_sum),
                "reference": repr(row.reference),
                "abs_error": repr(row.abs_error),
                "bound": repr(row.bound),
                "within_bound": row.within_bound,
            }
        )
    return report.passed, {
        "series_order": report.series_order,
        "an": [str(a) for a in report.an],
        "an_alternating": report.an_alternating,
        "eta": rows,
        "passed": report.passed,
    }


@dataclass(frozen=True)
class _Command:
    """One subcommand; a default or bound naming an earlier field means its
    value.  Bounds are inclusive (low, high); high None is unbounded, and a
    _Cap scales with the curve's height.  ``bounds_by`` names a field whose
    every choice has bounds of its own."""

    help: str
    fields: tuple[str, ...]  # in report order
    run: Callable[[RunConfig], tuple[bool, dict]]
    defaults: dict = field(default_factory=dict)  # "format" defaults to "text"
    bounds: dict = field(default_factory=dict)
    bounds_by: str | None = None
    # (estimated seconds, what) of the values together, given each _Cap's scale
    cost: Callable[[dict, dict], tuple[float, str]] | None = None


# Each cap sits near where one call on (-3/7, 5/11), the slowest curve of the
# test corpus, passes 60 s on a 2-vCPU x86 host; seconds at the cap (and above):
#   expand --order: fe 58 (1500: 68), s 58 (2500: 62), wp 55; fl 6.0, 8.7 and
#     an 6.7, 7.2 by the log's closed form (these caps and honda's wait for a
#     refit of gamma on the tall curve);
#   grouplaw --order: 57.6 (120: 63.5), the closed form and the axiom check;
#   honda --pmax: 1.7, 1.9, a(p) at primes only; --order
#     sizes nothing;  bernoulli --order: 53 (1150: 66);
#   param, the other value small: --order 53 at 53 bits (1050: 63), most of it
#     the wp expansion; --precision 54 at order 40 (300000: 61);
#   classical --order: 52.8, 53.0 (235: 63.1, 67.0), the reversion.
# Each gamma is fitted so that the scaled cap takes 30..60 s on
# (-3/7^101, 5/11), height 288.5, same host; the timed calls are in the README,
# and tools/time_cap.py times one.
_COMMANDS = {
    "expand": _Command(
        "emit one series expansion",
        ("g2", "g3", "order", "what", "format"), _run_expand, bounds_by="what",
        bounds={"fe": {"order": (1, _Cap(1450, 0.35))}, "fl": {"order": (1, _Cap(2100, 0.46))},
                "wp": {"order": (2, _Cap(1040, 0.25))}, "wpp": {"order": (2, _Cap(1040, 0.25))},
                "s": {"order": (3, _Cap(2450, 0.45))}, "an": {"order": (1, _Cap(2100, 0.46))}},
    ),
    "grouplaw": _Command(
        "build the group law both ways and verify axioms",
        ("g2", "g3", "order", "format"), _run_grouplaw,
        bounds={"order": (2, _Cap(116, 0.24))},
    ),
    "honda": _Command(
        "congruence a(p) = p+1-#E(F_p) mod p for good primes",
        ("g2", "g3", "pmax", "order", "format"), _run_honda,
        defaults={"order": "pmax"},
        bounds={"pmax": (5, _Cap(2000, 0.45)), "order": ("pmax", _Cap(2000, 0.45))},
    ),
    "bernoulli": _Command(
        "universal and elliptic Bernoulli numbers",
        ("g2", "g3", "order", "format"), _run_bernoulli,
        bounds={"order": (0, _Cap(1100, 0.33))},
    ),
    "param": _Command(
        "numeric parametrization point and curve residual",
        ("g2", "g3", "z", "order", "nmax", "precision", "format"), _run_param,
        defaults={"nmax": "order", "precision": 53},
        bounds={"order": (2, _Cap(1040, 0.3)), "nmax": (1, "order"), "precision": (53, 290000)},
        cost=_param_cost,
    ),
    "classical": _Command(
        "exp(T)-1 degeneration: log(1+T) and eta partial sums",
        ("nmax", "order", "s", "format"), _run_classical,
        defaults={"order": 16, "s": (1, 2)},
        bounds={"nmax": (1, 10**18), "order": (1, 230), "s": (1, None)},
        cost=_classical_cost,
    ),
}


# Field -> (parser, argparse keywords), in the order flags appear in --help.
_FLAGS: dict[str, tuple[Callable, dict]] = {
    "g2": (_rational, {"help": "rational, e.g. 4, -3/7 or 0.25"}),
    "g3": (_rational, {"help": "rational"}),
    "order": (_int, {"help": "series truncation order"}),
    "pmax": (_int, {"help": "check primes 5..pmax"}),
    "z": (_z, {"help": "upper half-plane point as re,im"}),
    "nmax": (_int, {"help": "number of q-series terms"}),
    "what": (_choice, {"choices": tuple(_COMMANDS["expand"].bounds),
                       "help": "which expansion to emit"}),
    "s": (_s, {"action": "append", "help": "Dirichlet exponent (repeatable)"}),
    "precision": (_int, {"help": "working precision in bits (default 53)"}),
    "format": (_choice, {"choices": ("text", "json")}),
}


# -- flag / config resolution -------------------------------------------------


@functools.cache  # built on the first call, once per process: parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellformal",
        description="Exact formal-group engine for curves y^2 = 4x^3 - g2*x - g3",
        epilog="Negative rational values need the = form, e.g. --g2=-3/7.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for name, (_, keywords) in _FLAGS.items():
            if name in spec.fields:
                p.add_argument(f"--{name}", **keywords)
        p.add_argument("--config", help="JSON file with the same field names")
    return parser


def _load_config_file(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_int=_json_int)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(_COMMANDS[command].fields) - {"command"})
    if unknown:
        raise UsageError(
            f"config fields not used by '{command}': {', '.join(unknown)}"
        )
    if "command" in data and data["command"] != command:
        raise UsageError(
            f"config command {data['command']!r} does not match '{command}'"
        )
    return data


def _json_int(text: str):
    limit = sys.get_int_max_str_digits()
    return _LongInt(text) if limit and len(text.lstrip("-")) > limit else int(text)


# argparse reads n repeated flags in time quadratic in n, whatever their
# action: 5000 --s flags take 1.0 to 1.3 s to parse (4000: 0.6 s, 6000:
# 1.7 s; CPython 3.11, 2-vCPU x86 host).  More are refused before parsing;
# a --config file takes any count, priced by the command's cost.
_S_FLAG_LIMIT = 5000


def resolve_config(argv=None) -> RunConfig:
    """Parse flags (and optional config file) into a validated RunConfig."""
    argv = sys.argv[1:] if argv is None else list(argv)
    count = sum(token == "--s" or token.startswith("--s=") for token in argv)
    if count > _S_FLAG_LIMIT:
        raise UsageError(f"{count} --s flags are more than the {_S_FLAG_LIMIT} read from "
                         'the command line; give the values as "s" in a --config file')
    args = _build_parser().parse_args(argv)
    command = args.command
    spec = _COMMANDS[command]
    file_values = _load_config_file(args.config, command) if args.config else {}
    defaults = {"format": "text", **spec.defaults}
    values: dict = {}
    for name in spec.fields:
        raw = getattr(args, name)
        if raw is None:
            raw = file_values.get(name)
        if raw is not None:
            values[name] = _FLAGS[name][0](name, raw)
        elif name in defaults:
            values[name] = values.get(defaults[name], defaults[name])
        else:
            raise UsageError(f"{command} requires --{name}")
    who, bounds = command, spec.bounds
    if spec.bounds_by:
        who += f" --{spec.bounds_by} {values[spec.bounds_by]}"
        bounds = bounds[values[spec.bounds_by]]
    height = _height(values) if "g2" in values else None
    scales = {}  # of each _Cap, for the cost
    for name, (low, high) in bounds.items():
        cap = high if isinstance(high, _Cap) else None
        if cap:
            scales[name], high = cap.scale(height), cap.value
        scaled = scales.get(name, 1.0) < 1
        lo, hi = values.get(low, low), values.get(high, high)
        hi = int(hi * scales[name]) if scaled else hi
        items = values[name] if isinstance(values[name], tuple) else (values[name],)
        if any(v < lo or hi is not None and v > hi for v in items):
            low, high = (f"--{b}" if isinstance(b, str) else b for b in (low, high))
            if hi is None:
                raise UsageError(f"{who} needs --{name} >= {low}")
            message = f"{who} needs {low} <= --{name} <= {hi if scaled else high}"
            if scaled:
                message += (f" on a curve of height {height:.1f}: above height "
                            f"{REFERENCE_HEIGHT:.2f} the cap {high} scales by "
                            f"({REFERENCE_HEIGHT:.2f}/height)^{cap.gamma}")
            raise UsageError(message)
    if spec.cost:
        seconds, what = spec.cost(values, scales)
        if seconds > 60:
            raise UsageError(f"{what} would take about {seconds:.0f} s, above the 60 s the caps "
                             "allow; lower either")
    return RunConfig(command=command, **values)


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one resolved command; returns (exit code, report)."""
    ok, body = _COMMANDS[config.command].run(config)
    report = {"command": config.command, "config": _config_doc(config), **body}
    return (0 if ok else 1), report


# -- rendering ---------------------------------------------------------------


def _scalar(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def _render_text(report: dict) -> str:
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                emit(f"{prefix}{key}.", sub)
        elif isinstance(value, list):
            if all(not isinstance(v, (dict, list)) for v in value):
                lines.append(f"{prefix[:-1]}: {' '.join(_scalar(v) for v in value)}")
            else:
                for idx, v in enumerate(value):
                    emit(f"{prefix}{idx}.", v)
        else:
            lines.append(f"{prefix[:-1]}: {_scalar(value)}")

    emit("", report)
    return "\n".join(lines) + "\n"


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    return _render_text(report)


@contextlib.contextmanager
def _any_length_digits():
    """Lift Python's limit on int-to-str digits, and restore it on the way out."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    try:
        config = resolve_config(argv)
    except SystemExit as exc:  # argparse already reported to stderr
        return int(exc.code) if exc.code else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # every input has been read; an exact coefficient prints whatever its length
        with _any_length_digits():
            code, report = run(config)
            text = _render(report, config.format)
    except Exception as exc:  # refusal or computation failure, not usage
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code
