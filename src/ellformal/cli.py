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
order, defaults (a field without one is required), inclusive bounds and
runner.  ``_FLAGS`` gives each field's parser and argparse keywords; flag
and config-file values pass the same parsers and bounds before any work.
"""

from __future__ import annotations

import argparse
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
from .lseries import POINT_COUNT_CAP, classical_demo, honda_check
from .numeric_eval import param_point
from .series import BiSeries, LaurentSeries, UniSeries
from .weierstrass import Curve, bernoulli_hurwitz, wp_laurent, wp_prime_laurent


class UsageError(ValueError):
    """Bad flags, bad config file, or invalid field values."""


class RationalParseError(UsageError):
    def __init__(self, text: str, position: int, message: str):
        super().__init__(f"{message} in {text!r} at position {position}")
        self.text = text
        self.position = position


_RATIONAL = re.compile(r"[+-]?(?:\d+(?:/(?P<den>\d+))?|\d+\.\d*|\.\d+)\Z")
_RATIONAL_PREFIX = re.compile(r"[+-]?\d*(?:/\d*|\.\d*)?\Z")


def parse_rational(text: str) -> Fraction:
    """Exact rational from an integer, ``a/b``, or finite decimal string."""
    m = _RATIONAL.fullmatch(text)
    if not m:  # the empty prefix always matches
        position = next(i for i in range(len(text), -1, -1)
                        if _RATIONAL_PREFIX.fullmatch(text[:i]))
        raise RationalParseError(text, position, "malformed rational")
    den = m.group("den")
    if den is not None and int(den) == 0:
        raise RationalParseError(text, text.index("/") + 1, "zero denominator")
    return Fraction(text)


_WHAT_MIN_ORDER = {"fe": 1, "fl": 1, "wp": 2, "wpp": 2, "s": 3, "an": 1}


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


def _rational(name: str, value) -> Fraction:
    try:
        return parse_rational(str(value))
    except RationalParseError as exc:
        raise UsageError(f"{name}: {exc}") from exc


def _int(name: str, value) -> int:
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
    if isinstance(value, int):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value:
        raise UsageError(f"{name} must be a non-empty list of integers, got {value!r}")
    return tuple(_int(name, v) for v in value)


def _choice(name: str, value) -> str:
    choices = _FLAGS[name][1]["choices"]
    if value not in choices:
        raise UsageError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value


# Field -> (parser, argparse keywords), in the order flags appear in --help.
_FLAGS: dict[str, tuple[Callable, dict]] = {
    "g2": (_rational, {"help": "rational, e.g. 4, -3/7 or 0.25"}),
    "g3": (_rational, {"help": "rational"}),
    "order": (_int, {"help": "series truncation order"}),
    "pmax": (_int, {"help": "check primes 5..pmax"}),
    "z": (_z, {"help": "upper half-plane point as re,im"}),
    "nmax": (_int, {"help": "number of q-series terms"}),
    "what": (_choice, {"choices": tuple(_WHAT_MIN_ORDER),
                       "help": "which expansion to emit"}),
    "s": (_s, {"action": "append", "help": "Dirichlet exponent (repeatable)"}),
    "precision": (_int, {"help": "working precision in bits (default 53)"}),
    "format": (_choice, {"choices": ("text", "json")}),
}


# -- serialization -----------------------------------------------------------


def _series_doc(series: UniSeries) -> dict:
    return {"order": series.order, "coeffs": [str(c) for c in series.coeffs]}


def _laurent_doc(series: LaurentSeries) -> dict:
    return {
        "valuation": series.valuation,
        "order": series.body.order,
        "coeffs": [str(c) for c in series.body.coeffs],
    }


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
        body = {"laurent": _laurent_doc(wp_laurent(curve, order))}
    elif what == "wpp":
        body = {"laurent": _laurent_doc(wp_prime_laurent(curve, order))}
    else:  # "s"
        body = {"series": _series_doc(s_coordinate(curve, order).series)}
    return True, body


def _run_grouplaw(config: RunConfig) -> tuple[bool, dict]:
    curve = Curve(config.g2, config.g3)
    fexp = formal_exponential(curve, config.order)
    flog = formal_logarithm(curve, config.order)
    law_exp = group_law_exp_log(fexp, flog, config.order)
    law_closed = group_law_closed_form(curve, config.order)
    agree = law_exp.series == law_closed.series
    report = verify_axioms(law_exp)
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
    flog = formal_logarithm(curve, config.order)
    report = honda_check(curve, config.pmax, flog)
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
    fexp = formal_exponential(curve, order + 1)
    universal = universal_bernoulli(fexp, order)
    hurwitz = [
        {"k": k, "value": str(bernoulli_hurwitz(curve, k))}
        for k in range(4, order + 1)
    ]
    body: dict = {
        "universal": [str(b) for b in universal],
        "bernoulli_hurwitz": hurwitz,
    }
    ok = True
    if order >= 6:
        checks = {
            "universal4_is_minus_6_bh4": universal[4] == -6 * bernoulli_hurwitz(curve, 4),
            "universal6_is_minus_15_bh6": universal[6] == -15 * bernoulli_hurwitz(curve, 6),
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
    value.  Bounds are inclusive (low, high); high None is unbounded."""

    help: str
    fields: tuple[str, ...]  # in report order
    run: Callable[[RunConfig], tuple[bool, dict]]
    defaults: dict = field(default_factory=dict)  # "format" defaults to "text"
    bounds: dict = field(default_factory=dict)


_COMMANDS = {
    "expand": _Command(
        "emit one series expansion",
        ("g2", "g3", "order", "what", "format"), _run_expand,
        bounds={"order": (1, None)},  # low replaced by _WHAT_MIN_ORDER[what]
    ),
    "grouplaw": _Command(
        "build the group law both ways and verify axioms",
        ("g2", "g3", "order", "format"), _run_grouplaw,
        bounds={"order": (2, None)},
    ),
    "honda": _Command(
        "congruence a(p) = p+1-#E(F_p) mod p for good primes",
        ("g2", "g3", "pmax", "order", "format"), _run_honda,
        defaults={"order": "pmax"},
        bounds={"pmax": (5, POINT_COUNT_CAP), "order": ("pmax", None)},
    ),
    "bernoulli": _Command(
        "universal and elliptic Bernoulli numbers",
        ("g2", "g3", "order", "format"), _run_bernoulli,
        bounds={"order": (0, None)},
    ),
    "param": _Command(
        "numeric parametrization point and curve residual",
        ("g2", "g3", "z", "order", "nmax", "precision", "format"), _run_param,
        defaults={"nmax": "order", "precision": 53},
        bounds={"order": (2, None), "nmax": (1, "order"), "precision": (1, None)},
    ),
    "classical": _Command(
        "exp(T)-1 degeneration: log(1+T) and eta partial sums",
        ("nmax", "order", "s", "format"), _run_classical,
        defaults={"order": 16, "s": (1, 2)},
        bounds={"nmax": (1, None), "order": (1, None), "s": (1, None)},
    ),
}

COMMANDS = tuple(_COMMANDS)


# -- flag / config resolution -------------------------------------------------


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
            data = json.load(handle)
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


def resolve_config(argv=None) -> RunConfig:
    """Parse flags (and optional config file) into a validated RunConfig."""
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
    for name, (low, high) in spec.bounds.items():
        who = command
        if command == "expand":  # the one bound that depends on a choice
            low = _WHAT_MIN_ORDER[values["what"]]
            who += f" --what {values['what']}"
        lo, hi = values.get(low, low), values.get(high, high)
        items = values[name] if isinstance(values[name], tuple) else (values[name],)
        if any(v < lo or hi is not None and v > hi for v in items):
            low, high = (f"--{b}" if isinstance(b, str) else b for b in (low, high))
            raise UsageError(f"{who} needs " + (f"--{name} >= {low}" if hi is None
                                                else f"{low} <= --{name} <= {high}"))
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


def main(argv=None) -> int:
    try:
        config = resolve_config(argv)
    except SystemExit as exc:  # argparse already reported to stderr
        return int(exc.code) if exc.code else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code, report = run(config)
    except Exception as exc:  # refusal or computation failure, not usage
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_render(report, config.format))
    return code
