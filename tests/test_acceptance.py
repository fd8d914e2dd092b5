"""End-to-end verification: the package's headline guarantees, one test
per criterion, each printing a single PASS/FAIL line (run with -s to see
them on success).

Criteria 1-8 and 10 are exact-arithmetic or analytically-bounded checks.
Criterion 9 asserts an absolute curve residual below 1e-9 from values
stored at 53-bit precision; the evaluated points sit at magnitudes around
1e16 where one unit in the last place already exceeds that bound, so its
first assertion documents an unreachable tolerance honestly rather than
quietly substituting a weaker one.  The companion test next to it shows
the same points meet the bound once the working precision is raised.
"""

import math
import random
import time
from fractions import Fraction as F

from ellformal import (
    BiSeries,
    Curve,
    UniSeries,
    classical_demo,
    coordinate_pullback,
    derivative_check,
    differential_equation_residual,
    formal_exponential,
    formal_logarithm,
    group_law_closed_form,
    group_law_exp_log,
    honda_check,
    param_point,
    universal_bernoulli,
    verify_axioms,
)
from ellformal.weierstrass import bernoulli_hurwitz
from conftest import random_curve

SEED = 20240901


def _curves(count: int, seed: int = SEED) -> list[Curve]:
    rng = random.Random(seed)
    return [random_curve(rng, 20) for _ in range(count)]


def _report(num: int, name: str, ok: bool, t0: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"criterion {num:02d} {status}  {name}  ({time.perf_counter() - t0:.2f}s){extra}")


def test_criterion_01_degenerate_curve_exactness():
    t0 = time.perf_counter()
    curve = Curve(0, 0)
    fexp = formal_exponential(curve, 30)
    flog = formal_logarithm(curve, 30)
    identity = UniSeries.identity(30)
    additive = BiSeries.variable(30, 1) + BiSeries.variable(30, 2)
    ok = (
        fexp.series == identity
        and flog.series == identity
        and group_law_exp_log(fexp, flog, 30).series == additive
        and group_law_closed_form(curve, 30).series == additive
    )
    elapsed = time.perf_counter() - t0
    _report(1, "degenerate curve: exp = log = T, law = t1 + t2 at order 30", ok and elapsed < 1.0, t0)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_classical_bernoulli():
    t0 = time.perf_counter()
    series = UniSeries(13, [0] + [F(1, math.factorial(k)) for k in range(1, 14)])
    got = universal_bernoulli(series, 12)
    expected = [
        F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42),
        F(0), F(-1, 30), F(0), F(5, 66), F(0), F(-691, 2730),
    ]
    ok = got == expected
    elapsed = time.perf_counter() - t0
    _report(2, "exp(T)-1 degeneration reproduces Bernoulli B_0..B_12 exactly", ok and elapsed < 1.0, t0)
    assert got == expected
    assert elapsed < 1.0


def test_criterion_03_differential_equation():
    t0 = time.perf_counter()
    bad = [
        curve
        for curve in _curves(20)
        if not differential_equation_residual(curve, 40).is_zero()
    ]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    _report(3, "(wp')^2 = 4 wp^3 - g2 wp - g3 exactly at order 40, 20 curves", ok, t0)
    assert not bad, bad
    assert elapsed < 10.0


def test_criterion_04_exp_log_roundtrip():
    t0 = time.perf_counter()
    identity = UniSeries.identity(40)
    bad = []
    for curve in _curves(20):
        fexp = formal_exponential(curve, 40)
        flog = formal_logarithm(curve, 40)
        if (
            fexp.series.compose(flog.series) != identity
            or flog.series.compose(fexp.series) != identity
        ):
            bad.append(curve)
    ok = not bad
    _report(4, "exp/log round-trip exact at order 40, 20 curves", ok, t0)
    assert not bad, bad


def test_criterion_05_constructor_equivalence_and_axioms():
    t0 = time.perf_counter()
    mismatches, axiom_failures = [], []
    for curve in _curves(10):
        fexp = formal_exponential(curve, 10)
        flog = formal_logarithm(curve, 10)
        law = group_law_exp_log(fexp, flog, 10)
        if law.series != group_law_closed_form(curve, 10).series:
            mismatches.append(curve)
            continue
        report = verify_axioms(law)
        if not report.passed:
            axiom_failures.append((curve, report))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and not axiom_failures and elapsed < 60.0
    _report(5, "both law constructions agree to degree 10 and satisfy the axioms", ok, t0)
    assert not mismatches, mismatches
    assert not axiom_failures, axiom_failures
    assert elapsed < 60.0


def test_criterion_06_coordinate_pullbacks():
    t0 = time.perf_counter()
    bad = [curve for curve in _curves(10) if not coordinate_pullback(curve, 30).holds]
    ok = not bad
    _report(6, "wp(log) = t/s and wp'(log) = -2/s exactly at order 30, 10 curves", ok, t0)
    assert not bad, bad


def test_criterion_07_honda_congruences():
    t0 = time.perf_counter()
    lemniscatic = Curve(4, 0)
    flog = formal_logarithm(lemniscatic, 97)
    report = honda_check(lemniscatic, 97, flog)
    by_p = {entry.p: entry for entry in report.entries}
    spot = (
        by_p[5].a_formal == -2
        and by_p[5].trace == -2
        and by_p[7].a_formal == 0
        and by_p[7].trace == 0
    )
    failures = [] if report.all_congruent else [
        e for e in report.entries if e.congruent is False
    ]
    for curve in _curves(10, seed=SEED + 7):
        r = honda_check(curve, 50, formal_logarithm(curve, 50))
        failures.extend(e for e in r.entries if e.congruent is False)
    elapsed = time.perf_counter() - t0
    ok = spot and not failures and elapsed < 30.0
    _report(7, "a(p) = p + 1 - #E(F_p) mod p: primes to 97, plus 10 curves to 50", ok, t0)
    assert spot
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_08_bernoulli_cross_relations():
    t0 = time.perf_counter()
    bad = []
    for curve in _curves(10, seed=SEED + 8):
        universal = universal_bernoulli(formal_exponential(curve, 7), 6)
        if universal[4] != -6 * bernoulli_hurwitz(curve, 4):
            bad.append((curve, 4))
        if universal[6] != -15 * bernoulli_hurwitz(curve, 6):
            bad.append((curve, 6))
    ok = not bad
    _report(8, "universal Bernoulli 4 and 6 match -6*BH_4 and -15*BH_6, 10 curves", ok, t0)
    assert not bad, bad


def test_criterion_09_parametrization_residual_and_derivative():
    t0 = time.perf_counter()
    curve = Curve(4, 0)
    flog = formal_logarithm(curve, 60)
    residuals = {
        z: param_point(curve, flog, z, 50, 20).residual for z in (1j, 0.3 + 0.9j)
    }
    residual_ok = all(r < 1e-9 for r in residuals.values())
    check = derivative_check(curve, flog, 1j, 1e-4, nmax=50, order=20)
    halved = derivative_check(curve, flog, 1j, 5e-5, nmax=50, order=20)
    ratio = check.relative_deviation / halved.relative_deviation
    derivative_ok = check.relative_deviation < 1e-6 and 2.5 < ratio < 6.0
    elapsed = time.perf_counter() - t0
    ok = residual_ok and derivative_ok and elapsed < 1.0
    _report(
        9,
        "double-precision residual < 1e-9 at z = i and 0.3+0.9i; derivative O(h^2)",
        ok,
        t0,
        detail=f"residuals {residuals[1j]:.3g} and {residuals[0.3+0.9j]:.3g}",
    )
    assert derivative_ok, (check.relative_deviation, ratio)
    assert residual_ok, residuals
    assert elapsed < 1.0


def test_criterion_09_companion_residual_is_rounding_floor():
    """The same evaluation meets 1e-9 once precision exceeds the ulp floor.

    At 53 bits the stored (alpha, beta) satisfy the curve equation to
    about one ulp of |beta|^2 (~1e16 here): relative residual < 1e-13.
    At 150 bits the absolute residual drops below 1e-25, confirming the
    double-precision figure is a storage-format floor, not an algorithm
    error.
    """
    t0 = time.perf_counter()
    curve = Curve(4, 0)
    flog = formal_logarithm(curve, 60)
    relative_ok = all(
        param_point(curve, flog, z, 50, 20).relative_residual < 1e-13
        for z in (1j, 0.3 + 0.9j)
    )
    high_precision_ok = all(
        float(param_point(curve, flog, z, 50, 20, precision=150).residual) < 1e-9
        for z in (1j, 0.3 + 0.9j)
    )
    ok = relative_ok and high_precision_ok
    _report(9, "companion: relative residual < 1e-13; 150-bit residual < 1e-9", ok, t0)
    assert relative_ok
    assert high_precision_ok


def test_criterion_10_eta_partial_sums():
    t0 = time.perf_counter()
    ln2_row = classical_demo(10**6, [1]).sums[0]
    basel_row = classical_demo(10**4, [2]).sums[0]
    ln2_ok = abs(ln2_row.partial_sum - math.log(2)) < 1e-6
    basel_ok = abs(basel_row.partial_sum - math.pi**2 / 12) < 1e-4
    elapsed = time.perf_counter() - t0
    ok = ln2_ok and basel_ok and elapsed < 5.0
    _report(10, "alternating sums reach ln 2 (1e-6, 1e6 terms) and pi^2/12 (1e-4)", ok, t0)
    assert ln2_ok and basel_ok
    assert elapsed < 5.0
