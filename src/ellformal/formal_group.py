"""Formal group of a curve y^2 = 4x^3 - g2*x - g3: exponential, logarithm,
universal Bernoulli numbers, and the group law built two independent ways.

Two data flows, neither reading the other: wp -> exp, the Laurent
quotient -2*wp/wp' (the series of t = -2x/y along the curve), and s -> log,
the integral of dx/y in the chord coordinates (t, s) = (-2x/y, -2/y); the
log's scaled coefficients are the candidate L-series coefficients handled
downstream.  Reverting the exponential gives the same logarithm and, like
composing exp with log, stays only as a check.  The group law comes from
either composition (exp of sum of logs) or from the closed rational
expression in (t, s); the two constructions must agree coefficient for
coefficient, which is the strongest self-check this module has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import (
    BiSeries,
    UniSeries,
    bi_substitute,
    divided_difference,
)
from .weierstrass import Curve, wp_laurent

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class FormalExp:
    """Formal exponential: an odd series T + 0*T^3 + c5*T^5 + ..."""

    curve: Curve
    series: UniSeries


@dataclass(frozen=True)
class FormalLog:
    """Formal logarithm: the integral of dx/y = (1 + T w'/(2w)) dT, s = T^3 w.

    ``an[n-1]`` holds a(n) = n * [T^n] log-series; these are the
    candidate L-series coefficients.  Reverting the exponential gives the
    same series and is kept as a check.  Odd model, so a(n) = 0 for all
    even n.
    """

    curve: Curve
    series: UniSeries
    an: tuple

    def a(self, n: int) -> Fraction:
        if not 1 <= n <= self.series.order:
            raise IndexError(f"a({n}) outside computed range 1..{self.series.order}")
        return self.an[n - 1]


@dataclass(frozen=True)
class SCoordinate:
    """Expansion of s = -2/y in powers of t = -2x/y along the curve.

    Satisfies s = t^3 - (g2/4) t s^2 - (g3/4) s^3 with s = t^3 + O(t^4).
    """

    curve: Curve
    series: UniSeries


@dataclass(frozen=True)
class GroupLaw:
    """A commutative formal group law F(t1, t2) = t1 + t2 + higher order."""

    curve: Curve
    series: BiSeries
    provenance: str  # "exp-log" or "buchstaber-bunkova"

    @property
    def order(self) -> int:
        return self.series.order


@dataclass(frozen=True)
class AxiomReport:
    """Coefficient-exact axiom verification up to the law's total degree."""

    order: int
    neutral: bool
    commutative: bool
    associative: bool

    @property
    def passed(self) -> bool:
        return self.neutral and self.commutative and self.associative


def formal_exponential(curve: Curve, order: int) -> FormalExp:
    """The series of -2*wp/wp' through T^order.

    Clearing poles: -2*wp/wp' = T * (-2 * T^2 wp) / (T^3 wp'), a genuine
    power series with unit linear coefficient since T^3 wp' starts at -2.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    half = max(2, (order + 1) // 2)
    wp = wp_laurent(curve, half)
    wpp = wp.differentiate()
    quot = (-2 * wp.body) / wpp.body
    return FormalExp(curve, UniSeries(order, (_ZERO,) + quot.coeffs[:order]))


def formal_logarithm(curve: Curve, order: int | None = None) -> FormalLog:
    """Integrate dx/y through t^order, from s solved through t^(order + 2)."""
    # formal_logarithm(fexp) reads (fexp.curve, fexp.series.order); that form
    # stays only while perfbench/workloads.py calls it (ROADMAP item 1).
    if isinstance(curve, FormalExp):
        curve, order = curve.curve, curve.series.order
    if order < 1:
        raise ValueError("order must be >= 1")
    s = s_coordinate(curve, order + 2).series
    return _log_from_w(curve, UniSeries(order - 1, s.coeffs[3:]))


def _log_from_w(curve: Curve, w: UniSeries) -> FormalLog:
    """dx/y = (1 + t w'/(2w)) dt with s = t^3 w, through t^(w.order + 1).

    One series division gives a(n) = [t^(n-1)] (2w + t w') / (2w); the
    log-series coefficient of t^n is a(n) / n.
    """
    numer = UniSeries(w.order, [(k + 2) * c for k, c in enumerate(w.coeffs)])
    an = (numer / (2 * w)).coeffs
    series = UniSeries(w.order + 1, (_ZERO, *(a / k for k, a in enumerate(an, 1))))
    return FormalLog(curve, series, an)


def universal_bernoulli(fexp, order: int):
    """Coefficients b_k with T / f(T) = sum b_k T^k / k!, for k <= order.

    Accepts a :class:`FormalExp` or any raw series f = T + O(T^2) (e.g. a
    truncated exp(T) - 1, which reproduces the classical Bernoulli
    numbers).  Needs f known through T^(order + 1).
    """
    series = fexp.series if isinstance(fexp, FormalExp) else fexp
    if series.coeffs[0] != 0 or series.coeffs[1] == 0:
        raise ValueError("need f = c*T + O(T^2) with c != 0")
    if order > series.order - 1:
        raise ValueError(
            f"need series order >= {order + 1} to get {order + 1} coefficients"
        )
    m = series.order - 1
    recip = UniSeries.one(m) / UniSeries(m, series.coeffs[1:])
    return [math.factorial(k) * recip.coeffs[k] for k in range(order + 1)]


def s_coordinate(curve: Curve, order: int) -> SCoordinate:
    """Solve s = t^3 - (g2/4) t s^2 - (g3/4) s^3 one coefficient at a time.

    With s = t^3 w the equation reads w = 1 - (g2/4) t^4 w^2 - (g3/4) t^6 w^3,
    so [t^k] w needs only [t^(k-4)] w^2 and [t^(k-6)] w^3, which running
    coefficient lists of w^2 and w^3 already hold.
    """
    if order < 3:
        raise ValueError("order must be >= 3")
    qg2 = curve.g2 / 4
    qg3 = curve.g3 / 4
    w, sq, cube = [_ONE], [], []
    for k in range(1, order - 2):
        sq.append(_next_product_coeff(w, w))
        cube.append(_next_product_coeff(w, sq))
        wk = _ZERO
        if k >= 4:
            wk -= qg2 * sq[k - 4]
        if k >= 6:
            wk -= qg3 * cube[k - 6]
        w.append(wk)
    return SCoordinate(curve, UniSeries(order, (_ZERO,) * 3 + tuple(w)))


def _next_product_coeff(a: list, b: list) -> Fraction:
    """[t^m] of the product of coefficient lists a and b, with m = len(b) - 1."""
    m = len(b) - 1
    return sum((a[i] * b[m - i] for i in range(m + 1) if a[i] and b[m - i]), _ZERO)


def group_law_exp_log(fexp: FormalExp, flog: FormalLog, order: int) -> GroupLaw:
    """F(t1, t2) as exp(log(t1) + log(t2)), truncated at total degree."""
    if fexp.curve != flog.curve:
        raise ValueError("exponential and logarithm belong to different curves")
    if flog.series.order < order or fexp.series.order < order:
        raise ValueError(f"need exp/log series of order >= {order}")
    inner = BiSeries.from_uni(flog.series, order, 1) + BiSeries.from_uni(
        flog.series, order, 2
    )
    return GroupLaw(fexp.curve, bi_substitute(fexp.series, inner), "exp-log")


def group_law_closed_form(curve: Curve, order: int) -> GroupLaw:
    """F(t1, t2) from the closed chord-coordinate expression.

    With m the divided difference of s(t) and b = s(t2) - t2*m (an exact
    rearrangement of the chord intercept that avoids dividing by
    t1 - t2), the law is

        t1 + t2 - b*m * (2 g2 + 3 g3 m) / (4 - g2 m^2 - g3 m^3).

    The denominator has constant term 4, so it inverts in the truncated
    ring unconditionally.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    s = s_coordinate(curve, order + 1).series
    m = divided_difference(s)
    b = BiSeries.from_uni(s, order, 2) - BiSeries.variable(order, 2) * m
    m2 = m * m
    numer = BiSeries.constant(order, 2 * curve.g2) + 3 * curve.g3 * m
    denom = (
        BiSeries.constant(order, 4) - curve.g2 * m2 - curve.g3 * (m2 * m)
    )
    correction = b * m * numer * denom.reciprocal()
    series = (
        BiSeries.variable(order, 1) + BiSeries.variable(order, 2) - correction
    )
    return GroupLaw(curve, series, "buchstaber-bunkova")


# -- axiom verification ----------------------------------------------------
#
# Associativity needs three variables; we expand both F(t1, F(t2, t3)) and
# F(F(t1, t2), t3) in a dense trivariate ring truncated by total degree.
# Trivariate polynomials are dicts {(i, j, k): Fraction} with zero entries
# pruned.


def _tri_mul(a: dict, b: dict, order: int) -> dict:
    out: dict = {}
    for (i1, j1, k1), ca in a.items():
        room = order - i1 - j1 - k1
        for (i2, j2, k2), cb in b.items():
            if i2 + j2 + k2 <= room:
                key = (i1 + i2, j1 + j2, k1 + k2)
                prev = out.get(key)
                out[key] = ca * cb if prev is None else prev + ca * cb
    return {k: v for k, v in out.items() if v}


def _tri_add_scaled(acc: dict, coeff: Fraction, p: dict) -> None:
    for key, v in p.items():
        prev = acc.get(key)
        acc[key] = coeff * v if prev is None else prev + coeff * v


def _tri_from_bi(f: BiSeries, var1: int, var2: int) -> dict:
    out = {}
    for i, j, c in f.terms():
        key = [0, 0, 0]
        key[var1] = i
        key[var2] = j
        out[tuple(key)] = c
    return out


def _bi_eval_tri(f: BiSeries, a: dict, b: dict, order: int) -> dict:
    """f(a, b) for trivariate arguments with zero constant term."""
    powers_b = [{(0, 0, 0): _ONE}]
    for _ in range(order):
        powers_b.append(_tri_mul(powers_b[-1], b, order))
    result: dict = {}
    for i in range(order, -1, -1):
        result = _tri_mul(result, a, order) if result else {}
        for j, c in enumerate(f.rows[i]):
            if c:
                _tri_add_scaled(result, c, powers_b[j])
        result = {k: v for k, v in result.items() if v}
    return result


def verify_axioms(law) -> AxiomReport:
    """Check neutrality, commutativity and associativity coefficient-wise.

    Accepts a :class:`GroupLaw` or a bare :class:`BiSeries`.  Failures
    are reported, never raised.
    """
    series = law.series if isinstance(law, GroupLaw) else law
    n = series.order
    expected = UniSeries(n, (_ZERO, _ONE) if n >= 1 else (_ZERO,))
    neutral = series.at_t2_zero() == expected
    commutative = series == series.swap()

    t1 = {(1, 0, 0): _ONE}
    t3 = {(0, 0, 1): _ONE}
    lhs = _bi_eval_tri(series, t1, _tri_from_bi(series, 1, 2), n)
    rhs = _bi_eval_tri(series, _tri_from_bi(series, 0, 1), t3, n)
    return AxiomReport(n, neutral, commutative, lhs == rhs)


@dataclass(frozen=True)
class PullbackIdentities:
    """Both affine coordinates pulled back through the formal logarithm.

    x = wp(log(t)) must equal t/s(t) and y = wp'(log(t)) must equal
    -2/s(t); the fields hold the pole-cleared bodies of each side
    (valuation -2 for x, -3 for y), all tracked through t^order.
    """

    order: int
    x_pullback: UniSeries
    x_coords: UniSeries
    y_pullback: UniSeries
    y_coords: UniSeries

    @property
    def holds(self) -> bool:
        return self.x_pullback == self.x_coords and self.y_pullback == self.y_coords


def coordinate_pullback(curve: Curve, order: int) -> PullbackIdentities:
    """Bind the wp expansion, the formal log and the (t, s) chart together.

    One s = t^3 w, solved through t^(order + 3), gives both the log and the
    chart side t/s, -2/s.  wp(log-series) and wp'(log-series) come by
    valuation bookkeeping (log = t * u with u a unit).  All exact.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    m = order
    w = UniSeries(m, s_coordinate(curve, m + 3).series.coeffs[3:])
    log = _log_from_w(curve, w).series
    wp = wp_laurent(curve, max(2, (m + 1) // 2))
    wpp = wp.differentiate()

    log_m = log.truncate(m)
    unit = UniSeries(m, log.coeffs[1 : m + 2])
    unit_inv = UniSeries.one(m) / unit
    ui2 = unit_inv * unit_inv

    x_pullback = ui2 * wp.body.truncate(m).compose(log_m)
    y_pullback = ui2 * unit_inv * wpp.body.truncate(m).compose(log_m)

    w_inv = UniSeries.one(m) / w
    return PullbackIdentities(m, x_pullback, w_inv, y_pullback, -2 * w_inv)
