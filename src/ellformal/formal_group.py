"""Formal group of a curve y^2 = 4x^3 - g2*x - g3: exponential, logarithm,
universal Bernoulli numbers, and the group law built two independent ways.

Every series here comes from the curve itself, in the chord coordinates
(t, s) = (-2x/y, -2/y): with A = -g2/4 and B = -g3/4, s = t^3 + A t s^2 +
B s^3 is Silverman's w = z^3 + a4 z w^2 + a6 w^3, whose formal group lies
in Z[A, B].  Each route runs in integers on the curve scaled by weight
u = lcm(den A, den B), (a, b) = (u^4 A, u^6 B), held as :attr:`Curve.weights`,
and turns into Fractions once, at the end, in :func:`_unscale` (a law in
:func:`_unscale_law`).  Three routes read neither each other nor wp:
(A, B) -> exp by the chord ODE; (A, B) -> log in closed form,
u^(2k) a(2k + 1) = [x^(2k)] (x^3 + a x + b)^k, whose a(n) are the candidate
L-series coefficients handled downstream; and (A, B) -> W, the chart
s = t^3 w, by its own recursion.  wp checks them from outside: the
pullback identity wp(log t) = t/s binds wp, the closed-form log and W
together, wp'(log t) = -2/s, taken from wp(log t) by the chain rule, binds
the log's derivative to the chart, and the ``bernoulli`` cross-checks bind
wp to the exp; exp and log invert each other (acceptance criterion 4).  The
group law is built from the curve two ways: exp of the sum of logs, solved
as the two-variable chord ODE on the closed-form log's integers, or the
closed rational expression in (t, s) on W; the two must agree coefficient
for coefficient.  A law is held as the scaled law
F~(t1, t2) = F(u t1, u t2) / u, which has integer coefficients and passes
each axiom exactly when F does: both constructions return it, agreement
and the axiom check read it, and F is unscaled from it only when read.
Associativity is checked by the invariant differential: dF/dt1 (t1, t2)
P(t1) = P(F(t1, t2)) with P = dF/dt1 (0, .).  The pullback composes wp
with the scaled log in Hurwitz series, n! [tau^n] at degree n, so it runs
in integers whose denominator grows with the degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul

from .series import BiSeries, UniSeries, _valid_int, bi_substitute, divided_difference
from .weierstrass import Curve, wp_coefficients

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FormalExp:
    """Formal exponential t(z) = -2*wp/wp' = z + (g2/10) z^5 + ..., odd in z."""

    curve: Curve
    series: UniSeries


@dataclass(frozen=True)
class FormalLog:
    """Formal logarithm: the integral of dx/y = dT / (1 - 2A T^4 w - 3B T^6 w^2).

    Here A = -g2/4, B = -g3/4 and s = T^3 w.  ``an[n-1]`` holds
    a(n) = n * [T^n] log-series; these are the candidate L-series
    coefficients.  They are computed as the integers u^(n-1) a(n) =
    [x^(n-1)] (x^3 + a x + b)^((n-1)/2) of the curve scaled by weight u
    (see :func:`_log_core`), one Fraction each, and [T^n] is a(n) / n.  The
    same series from W by a division, and by reverting the exponential,
    are kept as checks.  Odd model, so a(n) = 0 for all even n.
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

    Satisfies s = t^3 - (g2/4) t s^2 - (g3/4) s^3 with s = t^3 + O(t^4);
    [t^(3+k)] s = W_k / u^k with W the integer solution of the weight-scaled
    curve (see :func:`_integer_core`).
    """

    curve: Curve
    series: UniSeries


@dataclass(frozen=True)
class GroupLaw:
    """A commutative formal group law F(t1, t2) = t1 + t2 + higher order.

    Held as ``scaled``, the law F~(t1, t2) = F(u t1, u t2) / u of the curve
    scaled by its weight u (see :attr:`Curve.weights`), an integer series for
    the curve's own law.  ``series`` is F, unscaled on each read.
    """

    curve: Curve
    scaled: BiSeries
    provenance: str  # "exp-log" or "buchstaber-bunkova"

    @property
    def series(self) -> BiSeries:
        return _unscale_law(self.scaled, self.curve.weights[0])


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
    """t = -2x/y along z through z^order, by the chord ODE in integers.

    E = exp(z) and S = s(E) = -2/wp'(z) solve E' = 1 - 2A E S - 3B S^2 (the
    invariant differential) and S' = 3E^2 + A S^2 (wp'' = 6 wp^2 - g2/2 at
    wp = E/S) from E(0) = S(0) = 0.  With weight u (see :attr:`Curve.weights`),
    e_n = n! [z^n] E(u z) / u and s_n = n! [z^n] S(u z) / u^3 are integers:
    e_(m+1) = [m = 0] - sum_k C(m, k) (2a e_k + 3b s_k) s_(m-k) and
    s_(m+1) = sum_k C(m, k) (3 e_k e_(m-k) + a s_k s_(m-k)), over odd k as
    both series are odd.  [z^n] E = e_n / (n! u^(n-1)), one Fraction per
    coefficient, made by :func:`_unscale`: no wp expansion and no series
    division.
    """
    _valid_int(order, 1, "order")
    u, a, b = curve.weights
    e, s, row = [1], [0], [1]  # e_n and s_n at n = 1, 3, 5, ...; row m of Pascal's triangle
    # conv reads every odd entry of every even row: built by additions, the rows
    # to order 1450 take 0.07 s, where math.comb takes 5 s

    def conv(x, y):  # sum over odd k of C(m, k) x_k y_(m-k), at even m
        return sum(map(mul, map(mul, row[1::2], x), reversed(y)))

    for m in range(1, order):
        row = [1, *map(add, row, row[1:]), 1]
        if m % 2 == 0:
            ss = conv(s, s)
            e, s = e + [-2 * a * conv(e, s) - 3 * b * ss], s + [3 * conv(e, e) + a * ss]
    dens = map(math.factorial, range(1, 2 * len(e), 2))  # n! at n = 2i + 1
    return FormalExp(curve, UniSeries(order, _unscale(u, e, order + 1, first=1, dens=dens)))


def formal_logarithm(curve: Curve, order: int | None = None) -> FormalLog:
    """Integrate the invariant differential through t^order, in closed form."""
    # formal_logarithm(fexp) reads (fexp.curve, fexp.series.order); that form
    # stays only while perfbench/workloads.py calls it (ROADMAP item 1).
    if isinstance(curve, FormalExp):
        curve, order = curve.curve, curve.series.order
    elif order is None:
        raise TypeError("formal_logarithm(curve, order) needs an order")
    values = _log_core(curve, range((_valid_int(order, 1, "order") + 1) // 2))
    an = _unscale(curve.weights[0], values, order)  # a(2k + 1) = V_k / u^(2k)
    series = [_ZERO] * (order + 1)  # [T^n] = a(n) / n, reduced against n only
    series[1::2] = [a / n if a else a for n, a in zip(range(1, order + 1, 2), an[::2])]
    return FormalLog(curve, UniSeries(order, series), tuple(an))


def _log_core(curve: Curve, ks) -> list:
    """V[m] = u^(2k) a(2k + 1) = [x^(2k)] (x^3 + a x + b)^k at k = ks[m].

    With u, a and b the weights of :attr:`Curve.weights`, the invariant
    differential of the scaled curve has as coefficients the middle
    coefficients of the powers of its cubic, so each is the multinomial sum

        sum C(k, i) C(k - i, j) a^j b^l,  ceil(k/2) <= i <= floor(2k/3),

    with j = 2k - 3i and l = 2i - k, about k/6 terms of integers, on powers
    of a and b built once per call.  A term with a zero factor is skipped:
    at b = 0 only l = 0 is left and at a = 0 only j = 0.  It reads neither
    W nor a series inversion.  At k = (p - 1)/2 it is, mod p, the Hasse
    invariant (Silverman, AEC, Theorem V.4.1): a(p) = p + 1 - #E(F_p) mod p.
    """
    _, a, b = curve.weights
    top = max(ks, default=0)
    apow = list(accumulate(repeat(a, top // 2), mul, initial=1))  # a^j, j <= k/2
    bpow = list(accumulate(repeat(b, top // 3), mul, initial=1))  # b^l, l <= k/3
    values = []
    for k in ks:
        lo, hi = (k + 1) // 2, 2 * k // 3
        if not b:  # l = 0: i = k/2
            hi = lo if 2 * lo == k else lo - 1
        if not a:  # j = 0: i = 2k/3
            lo = hi if 3 * hi == 2 * k else hi + 1
        values.append(sum(math.comb(k, i) * math.comb(k - i, 2 * k - 3 * i)
                          * apow[2 * k - 3 * i] * bpow[2 * i - k] for i in range(lo, hi + 1)))
    return values


def universal_bernoulli(series: UniSeries, order: int):
    """Coefficients b_k with T / f(T) = sum b_k T^k / k!, for k <= order.

    f is a series c T + O(T^2): the series of a :class:`FormalExp`, or any
    other (e.g. a truncated exp(T) - 1, which reproduces the classical
    Bernoulli numbers).  Needs f known through T^(order + 1).
    """
    if _valid_int(order, 0, "order") > series.order - 1:
        raise ValueError(
            f"need series order >= {order + 1} to get {order + 1} coefficients"
        )
    if series.coeffs[0] != 0 or series.coeffs[1] == 0:
        raise ValueError("need f = c*T + O(T^2) with c != 0")
    m = series.order - 1
    recip = UniSeries.one(m) / UniSeries(m, series.coeffs[1:])
    return [math.factorial(k) * recip.coeffs[k] for k in range(order + 1)]


def s_coordinate(curve: Curve, order: int) -> SCoordinate:
    """s = t^3 w through t^order, from the integer w of the core."""
    w = _integer_core(curve, (_valid_int(order, 3, "order") - 1) // 2)
    return SCoordinate(curve, UniSeries(order, _unscale(curve.weights[0], w, order + 1, first=3)))


def _integer_core(curve: Curve, terms: int) -> list:
    """W[i] = u^(2i) [t^(2i)] w for i < terms.

    With u, a and b the weights of :attr:`Curve.weights`, W(t) = w(u t)
    solves W = 1 + a t^4 W^2 + b t^6 W^3 in integers.  W is even in t, so
    only even exponents are kept: [t^(2i)] W needs [t^(2i-4)] W^2 and
    [t^(2i-6)] W^3, which running lists of W^2 and W^3 already hold.  W is
    the chart's route; the log has its own, :func:`_log_core`.
    """
    _, a, b = curve.weights
    w, sq, cube = [1], [], []
    for i in range(1, terms):
        h = i // 2  # (W^2)_(i-1): the products W_j W_(i-1-j), j < h, count twice
        sq.append(2 * sum(map(mul, w[:h], w[: i - 1 - h : -1])) + (w[h] ** 2 if i % 2 else 0))
        cube.append(sum(map(mul, w, reversed(sq))))
        w.append((a * sq[i - 2] if i >= 2 else 0) + (b * cube[i - 3] if i >= 3 else 0))
    return w


def _unscale(u: int, values: list, length: int, first: int = 0, dens=None) -> list:
    """values[i] / (dens[i] u^(2i)) at index first + 2i of ``length`` Fractions,
    zeros between, one reduction each; ``dens`` iterates int divisors, 1 by default."""
    out = [_ZERO] * length
    u2, scale = u * u, 1
    for i, (v, d) in enumerate(zip(values, repeat(1) if dens is None else dens)):
        out[first + 2 * i] = Fraction(v, d * scale)
        scale *= u2
    return out


class InexactLawError(ArithmeticError):
    """The chord ODE of :func:`group_law_exp_log` divided by k + 1 and left
    a remainder: the flow and the closed-form log, :func:`_log_core`, do not
    describe one curve."""


def group_law_exp_log(curve: Curve, order: int) -> GroupLaw:
    """F(t1, t2) = exp(log t1 + log t2) through total degree ``order``, by the
    two-variable chord ODE, in integers.

    On the curve scaled by weight u (see :attr:`Curve.weights`), with (E~, S~)
    the chord ODE's pair (see :func:`formal_exponential`) and L~ the scaled
    log, L~' = sum u^(2k) a(2k + 1) t^(2k) is read off the closed form,
    :func:`_log_core`, and the scaled law F~ = F(u t1, u t2) / u is
    Phi = E~(L~ t1 + L~ t2).  With Sigma = S~(L~ t1 + L~ t2), along t1

        dPhi/dt1 = L~'(t1) (1 - 2a Phi Sigma - 3b Sigma^2),
        dSigma/dt1 = L~'(t1) (3 Phi^2 + a Sigma^2).

    :func:`_chord_flow` solves it one total degree at a time: no
    composition, no W and no common denominator.  The law is returned as
    F~, in ints; :attr:`GroupLaw.series` unscales it.
    """
    _, a, b = curve.weights
    # [t^(2k)] L~', k < (order + 1) / 2
    ell = _log_core(curve, range((_valid_int(order, 2, "order") + 1) // 2))
    return GroupLaw(curve, BiSeries(order, _chord_flow(ell, a, b, order)), "exp-log")


def _chord_flow(ell: list, a: int, b: int, n: int) -> list:
    """Rows in t1 of Phi = E~(L~ t1 + L~ t2) through total degree n, for
    L~' = sum ell[k] t^(2k), by the flow dPhi/dt1 = L~'(t1) R,
    dSigma/dt1 = L~'(t1) S with R = 1 - 2a Phi Sigma - 3b Sigma^2 and
    S = 3 Phi^2 + a Sigma^2, from Phi = Sigma = 0 at t1 = t2 = 0.

    One sweep by total degree.  Phi and Sigma are odd, R and S even, and
    all four are symmetric in t1 and t2.  At each even d, R and S at degree
    d are formed from Phi and Sigma below d, the entries (i, d - i) with
    i <= d - i only, and mirrored.  Then (i + 1) Phi_(i+1, d-i) =
    sum_m ell_m R_(i-m, d-i) over even m, for i = 0 .. d, likewise for
    Sigma, and Phi_(0, d+1) = Phi_(d+1, 0) by symmetry.  So the row
    t1 = 0, E~(L~ t2), is solved from ell like every other entry, not read
    from W: the law stays exp(log t1 + log t2) for whatever ell holds, and
    a wrong ell changes the law or, if a division leaves a remainder, is
    refused with :class:`InexactLawError`.  Row i has n + 1 - i ints.
    """
    phi, sigma, r, s = ([[0] * (n + 1 - i) for i in range(n + 1)] for _ in range(4))
    for d in range(0, n, 2):
        for i in range(d // 2 + 1):
            j, ps, s2, p2 = d - i, 0, 0, 0
            for i1 in range(i + 1):
                p = (i1 + 1) % 2  # row i1 of Phi and Sigma is nonzero at odd i1 + j only
                xp, xs = phi[i1][p : j + 1 : 2], sigma[i1][p : j + 1 : 2]
                yp, ys = phi[i - i1][j - p :: -2], sigma[i - i1][j - p :: -2]
                ps += sum(map(mul, xp, ys))
                s2 += sum(map(mul, xs, ys))
                p2 += sum(map(mul, xp, yp))
            r[i][j] = r[j][i] = (d == 0) - 2 * a * ps - 3 * b * s2
            s[i][j] = s[j][i] = 3 * p2 + a * s2
        for i in range(d + 1):  # R_(i-m, d-i) = R_(d-i, i-m): row d - i, read backwards
            weights = ell[: i // 2 + 1]
            phi[i + 1][d - i] = _exact(sum(map(mul, weights, r[d - i][i::-2])), i + 1)
            sigma[i + 1][d - i] = _exact(sum(map(mul, weights, s[d - i][i::-2])), i + 1)
        phi[0][d + 1], sigma[0][d + 1] = phi[d + 1][0], sigma[d + 1][0]
    return phi


def _exact(x: int, d: int) -> int:
    """x / d for a d that must divide x (:class:`InexactLawError` otherwise)."""
    q, r = divmod(x, d)
    if r:
        raise InexactLawError(f"the chord ODE leaves a remainder on dividing by {d}")
    return q


def group_law_closed_form(curve: Curve, order: int) -> GroupLaw:
    """F(t1, t2) from the closed chord-coordinate expression, in integers.

    The chart map (t, s) -> (u t, u^3 s) is linear, so it carries the chord
    construction on the curve scaled by weight u (see :attr:`Curve.weights`),
    s = t^3 + a t s^2 + b s^3, onto that of the curve itself: the scaled law
    is F~(t1, t2) = F(u t1, u t2) / u.  Its s~ = t^3 W comes straight from
    the integer W of :func:`_integer_core`.  With m the divided difference
    of s~ and c = s~(t2) - t2*m (an exact rearrangement of the chord
    intercept that avoids dividing by t1 - t2), F~ = t1 + t2 - c*G(m) with

        G(x) = -x (2a + 3b x) / (1 + a x^2 + b x^3),

    one univariate division by a unit denominator, so every step stays in
    integers.  Since m = t1^2 + t1 t2 + t2^2 + ..., m^k starts at total
    degree 2k, so G is needed only through x^(order // 2).  The law is
    returned as F~, in ints; :attr:`GroupLaw.series` unscales it.
    """
    _, a, b = curve.weights
    s = [0] * (_valid_int(order, 2, "order") + 2)
    s[3::2] = _integer_core(curve, order // 2)
    s = UniSeries(order + 1, s)
    m = divided_difference(s)
    t1, t2 = BiSeries.variable(order, 1), BiSeries.variable(order, 2)
    t2m = BiSeries(order, ((0,) + row[:-1] for row in m.rows))  # m shifted one place in t2
    c = BiSeries.from_uni(s, order, 2) - t2m
    h = order // 2
    g = UniSeries(h, (0, -2 * a, -3 * b)[: h + 1]) / UniSeries(h, (1, 0, a, b)[: h + 1])
    return GroupLaw(curve, t1 + t2 - c * bi_substitute(g, m), "buchstaber-bunkova")


def _unscale_law(scaled: BiSeries, u: int) -> BiSeries:
    """The law F of a curve from its law scaled by weight u: coefficient
    (i, j) is u scaled_ij / u^(i + j), one Fraction each."""
    powers = list(accumulate(repeat(u, scaled.order), mul, initial=1))  # u^k at total degree k
    return BiSeries(scaled.order, (
        [Fraction(x * u, powers[i + j]) for j, x in enumerate(row)]
        for i, row in enumerate(scaled.rows)
    ))


def verify_axioms(law: GroupLaw) -> AxiomReport:
    """Check neutrality, commutativity and associativity coefficient-wise.

    The :class:`GroupLaw` is checked on the law it holds, F~(t1, t2) =
    F(u t1, u t2) / u for its curve's weight u, whose coefficients are
    integers when F is that curve's law, so the products run on ints.
    F -> F~ is an exact change of variable: it keeps t1 + t2 as the linear
    part and maps a neutral, commutative or associative law to one, and
    back, so the verdicts are those of F.

    Associativity is checked by the invariant differential.  With
    P(t) = dF/dt1 (0, t), differentiating F(x, F(t1, t2)) = F(F(x, t1), t2)
    in x at x = 0 gives, wherever F(0, t) = t,

        dF/dt1 (t1, t2) * P(t1) = P(F(t1, t2)),

    one :func:`bi_substitute` and one product through total degree n - 1.
    Conversely, if also F = t1 + t2 + O(2), that identity fixes each
    t1-row of F from the rows below it, so F = L^-1(L t1 + L t2) with
    L' = 1/P, which is associative through total degree n.  The check
    presumes those two conditions, and reports a series that breaks either
    one as not associative, even one that is (F = t1, say, or a constant
    term on a law of order 2 or 3).  Failures are reported, never raised.
    """
    series = law.scaled
    n = series.order
    expected = UniSeries(n, (0, 1)[: n + 1])
    neutral = series.at_t2_zero() == expected
    commutative = series == series.swap()
    associative = UniSeries(n, series.rows[0]) == expected and (n == 0 or series.rows[1][0] == 1)
    if associative and n:
        p = UniSeries(n - 1, series.rows[1])
        d1 = BiSeries(n - 1, ([(i + 1) * x for x in row] for i, row in enumerate(series.rows[1:])))
        below = BiSeries(n - 1, (row[: n - i] for i, row in enumerate(series.rows[:n])))
        # P(t1) first: the product's outer loop runs over its n nonzero terms only
        associative = BiSeries.from_uni(p, n - 1, 1) * d1 == bi_substitute(p, below)
    return AxiomReport(n, neutral, commutative, associative)


@dataclass(frozen=True)
class PullbackIdentities:
    """Both affine coordinates pulled back through the formal logarithm.

    x = wp(log(t)) must equal t/s(t) and y = wp'(log(t)) must equal
    -2/s(t); the fields hold the pole-cleared bodies of each side
    (valuation -2 for x, -3 for y), all even in t and tracked through
    t^order.  :func:`coordinate_pullback` composes wp with the log once and
    takes wp'(log) from it by the chain rule, so once x holds, the y
    identity checks the log's derivative against the chart.
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

    With log = t v (v a unit), P = t^2 wp(log) = v^-2 p(log^2), where
    p(Z) = 1 + sum c_k Z^k, and by the chain rule t^3 wp'(log) =
    (t P' - 2P) / log'; the chart side is 1/w and -2/w.  All are even in
    t, so they are kept in T = t^2 through T^h, h = order // 2.  On the
    curve scaled by weight u (t = u tau) w is the integer W of
    :func:`_integer_core` and log' the integer unit sum u^(2i) a(2i + 1) T^i
    of the closed form, :func:`_log_core`: three routes, bound by one
    identity.

    p is composed in Hurwitz series in tau, held as n! [tau^n] at degree n
    (Keigher, Comm. Algebra 25, 1997).  A product is a binomial convolution,
    so integers stay integers, and the scaled log L~ is integral: (2j)!
    u^(2j) a(2j + 1) at degree 2j + 1.  So Z = L~^2 and R = Q p~(Z), with
    c~_k = u^(2k) c_k and Q the lcm of their denominators, are integer
    series, R by truncated Horner; a coefficient at degree 2i carries
    (2i)!, a denominator that grows with the degree.  In T, Q P is R / (2i)!
    over Z / T, an integer series; with both scaled by (2h + 2)! it is one
    exact integer division.  The divisions by log' (of the T^i coefficients
    (2i - 2) (Q P)_i, for Q times the y body) and by W run on ints too, as
    both have constant term 1; :func:`_unscale` divides each body's T^i
    coefficient by u^(2i), and by Q on the x and y sides, once.
    """
    h = _valid_int(order, 0, "order") // 2
    u, w = curve.weights[0], _integer_core(curve, h + 1)
    an = _log_core(curve, range(h + 1))
    c = wp_coefficients(curve, max(2, h)).c[: max(h - 1, 0)]  # c_2 .. c_h
    outer = [ck * u ** (2 * k) for k, ck in enumerate(c, 2)]  # c~_k
    q = math.lcm(*(x.denominator for x in outer))
    p = [q, 0, *(x.numerator * (q // x.denominator) for x in outer)][: h + 1]  # Q c~_k
    log = [math.factorial(2 * j) * a for j, a in enumerate(an)]  # L~ at degree 2j + 1
    z = [0, *(sum(math.comb(2 * i, 2 * j + 1) * log[j] * log[i - 1 - j] for j in range(i))
              for i in range(1, h + 2))]  # Z at degrees 0, 2, .., 2h + 2
    # row i: C(2i, 2j) Z_j for j = i down to 1, the weights of r_0 .. r_(i-1) in (Z r)_i
    weights = [[math.comb(2 * i, 2 * j) * z[j] for j in range(i, 0, -1)]
               for i in range(1, h + 1)]
    r = [p[h]]
    for k in range(h - 1, -1, -1):  # r = Q c~_k + Z r, through degree 2 (h - k)
        r = [p[k]] + [sum(map(mul, weight, r)) for weight in weights[: h - k]]
    top = math.factorial(2 * h + 2)
    scale = [top // math.factorial(2 * i) for i in range(h + 2)]  # (2h + 2)! / (2i)!
    qx = UniSeries(h, map(mul, r, scale)) / UniSeries(h, map(mul, z[1:], scale[1:]))  # Q P
    qy = UniSeries(h, [(2 * i - 2) * v for i, v in enumerate(qx.coeffs)]) / UniSeries(h, an)
    chart = UniSeries.one(h) / UniSeries(h, w)

    def spread(series: UniSeries, d: int = 1) -> UniSeries:
        return UniSeries(order, _unscale(u, series.coeffs, order + 1, dens=repeat(d)))

    return PullbackIdentities(order, spread(qx, q), spread(chart), spread(qy, q),
                              spread(-2 * chart))
