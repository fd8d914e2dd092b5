"""Floating-point evaluation of the modular parametrization candidate.

Feeds q = exp(2*pi*i*z) through the formal-logarithm series to get a
point w in a small disk around the origin, then evaluates the truncated
wp Laurent expansion there: alpha(z) = wp(w), beta(z) = wp'(w).  The
pair must land on y^2 = 4x^3 - g2*x - g3 up to rounding, which is what
``residual`` measures.  Each evaluation sums the log q-series first, so
that a refusal there costs no wp expansion, and then asks
:func:`wp_coefficients` for its exact wp expansion once
(``derivative_check`` once for its three points); its memo keeps the last
16 expansions, so points on one curve at one order share one build.
Each point computes q and runs the q-series loop once.

Exact coefficients are converted to the working type once per object and
precision: a formal log gets a table of its log coefficients and one of
its a(n), an expansion one of (2k - 2) c_k and c_k and one of (g2, g3).
Every evaluation reads these tables, in the order and with the arithmetic
of a direct conversion, so its results are the same to the bit.  A table
lives as long as its object (it is dropped when the object is collected)
and holds one or two numbers per coefficient, about 2 * order * precision
bits of mantissa: one point at order 40 on an order-60 log leaves about
8 kB of tables at 53 bits and 33 kB at 150 bits, object headers included.

Convergence is never assumed.  The wp series is only trusted inside a
reliability radius computed from its own coefficient magnitudes (last
retained term contributing at most 1e-12 relative to the pole term);
outside the radius evaluation refuses rather than silently degrading.
The radius is solved in logarithms of the exact numerator and
denominator of that coefficient, so a c_k beyond the double range (a
huge or tiny g2, g3) neither overflows nor underflows it.
The q-series truncation error is likewise only estimated, by the
magnitude of the last retained term, and reported as such.  In double
precision a point near the cusp (Im z above about 18.8) is refused with
``OverflowError``: q underflows there or wp(w) ~ q^-2 overflows.  So is
a formal-log coefficient or a wp coefficient c_k past the double range, by
its index.

Default arithmetic is the machine double / ``complex`` pair; passing
``precision`` (binary digits) above 53 switches the same code path onto
mpmath numbers; a precision that is not an ``int`` of at least 53 is refused.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass

from .formal_group import FormalLog
from .series import _valid_int
from .weierstrass import Curve, WpExpansion, wp_coefficients

RADIUS_RELATIVE_TOLERANCE = 1e-12


class HalfPlaneError(ValueError):
    """z must lie strictly in the upper half-plane."""


class PoleError(ZeroDivisionError):
    """wp has a pole at the origin."""


class OutOfRadiusError(ValueError):
    """The argument lies outside the series reliability radius."""


class _Numerics:
    """Uniform facade over double precision and mpmath arithmetic."""

    __slots__ = ("precision", "mp")

    def __init__(self, precision: int):
        self.precision = _valid_int(precision, 53, "precision")  # below 53: still double
        if precision <= 53:
            self.mp = None
        else:
            import mpmath

            self.mp = mpmath

    def workprec(self):
        if self.mp is None:
            return contextlib.nullcontext()
        return self.mp.workprec(self.precision)

    def complex_of(self, z):
        re, im = z if isinstance(z, tuple) else (z.real, z.imag)
        if self.mp is None:
            return complex(float(re), float(im))
        return self.mp.mpc(re, im)

    def real_of(self, x):
        return float(x) if self.mp is None else self.mp.mpf(x)

    def rational(self, q):
        """q correctly rounded: float(q), or the exact quotient at ``precision``."""
        if self.mp is None:
            return float(q)
        libmp = self.mp.libmp
        return self.mp.make_mpf(libmp.from_rational(q.numerator, q.denominator, self.precision,
                                                    libmp.round_nearest))

    def magnitude(self, x) -> str:
        """x >= 0 as '%.6g', or in mpmath's notation beyond the double range."""
        f = float(x)
        return f"{f:.6g}" if self.mp is None or math.isfinite(f) else self.mp.nstr(x, 6)

    def exp(self, z):
        return cmath.exp(z) if self.mp is None else self.mp.exp(z)

    def two_pi_i(self):
        return 2j * (cmath.pi if self.mp is None else self.mp.pi)


@dataclass(frozen=True)
class ParamResult:
    """One evaluated point of the parametrization candidate.

    ``w`` is the partial sum of the log q-series (the argument handed to
    wp); ``residual`` is |beta^2 - 4 alpha^3 + g2 alpha + g3|, i.e. how
    far (alpha, beta) is from the curve.  ``truncation_estimate`` is the
    magnitude of the last retained q-series term -- a heuristic, zero
    whenever that coefficient is structurally zero (even index on this
    odd model), not an error bound.
    """

    z: object
    q: object
    w: object
    alpha: object
    beta: object
    residual: float
    truncation_estimate: float
    precision: int

    @property
    def residual_scale(self):
        """Magnitude of the dominant curve-equation term at this point.

        The absolute residual of values rounded to the working precision
        cannot fall below roughly one ulp of this scale; divide by it to
        judge how close to that floor the evaluation landed.
        """
        b2 = abs(self.beta) ** 2
        a3 = 4 * abs(self.alpha) ** 3
        return b2 if b2 > a3 else a3

    @property
    def relative_residual(self) -> float:
        scale = self.residual_scale
        if scale == 0:
            return float(self.residual)
        return float(self.residual / scale)


@dataclass(frozen=True)
class DerivativeCheck:
    """Central finite difference of alpha against beta * 2*pi*i * cusp sum."""

    z: object
    h: float
    finite_difference: object
    expected: object
    relative_deviation: float


def _qseries(num: _Numerics, z, flog: FormalLog, build, nmax: int):
    """The checked q-series entry, run under ``num.workprec()``: returns z,
    q = exp(2*pi*i*z) and the :func:`_qsum` pair at that q over the
    ``build`` table of ``flog``."""
    zc = num.complex_of(z)
    if not zc.imag > 0:
        raise HalfPlaneError(f"Im(z) must be positive, got {zc.imag}")
    if _valid_int(nmax, 1, "nmax") > flog.series.order:
        raise ValueError(f"nmax={nmax} exceeds formal log order {flog.series.order}")
    q = num.exp(num.two_pi_i() * zc)
    return (zc, q, *_qsum(q, _table(num, flog, build), nmax))


def _qsum(q, terms, nmax: int):
    """The one q-series loop: sum of terms[n] q^n over 1..nmax and
    |terms[nmax] q^nmax|, on a :func:`_log_terms` or :func:`_cusp_terms` table."""
    if nmax >= len(terms):
        raise OverflowError(f"log coefficient {len(terms)} is beyond the double range; "
                            "use --precision above 53")
    total = q - q  # typed zero
    qpow = 1
    for cf in terms[1:nmax + 1]:
        qpow = qpow * q
        if cf is not None:
            total = total + cf * qpow
    return total, abs(terms[nmax] or 0) * abs(q) ** nmax  # None, an exact zero, reads 0


# Each exact object's coefficients are converted once per working precision:
# (id(obj), build, precision) -> the tuple build(num, obj) returned, dropped
# when obj dies.  Keyed by identity, since hashing a Fraction costs about as
# much as converting it.  Two threads may both build a table: equal ones.
_TABLES: dict = {}


def _table(num: _Numerics, obj, build):
    key = (id(obj), build, num.precision)
    terms = _TABLES.get(key)
    if terms is None:
        import weakref

        _TABLES[key] = terms = build(num, obj)
        weakref.finalize(obj, _TABLES.pop, key, None)
    return terms


def _exact_terms(num: _Numerics, coeffs) -> tuple:
    """coeffs converted, None for an exact zero; cut at the first coefficient
    past the double range, which :func:`_qsum` then names."""
    terms = []
    for c in coeffs:
        try:
            terms.append(num.rational(c) if c else None)
        except OverflowError:  # from float(c): past the largest double
            break
    return tuple(terms)


def _log_terms(num: _Numerics, flog: FormalLog) -> tuple:
    return _exact_terms(num, flog.series.coeffs)


def _cusp_terms(num: _Numerics, flog: FormalLog) -> tuple:
    return _exact_terms(num, (0, *flog.an))


def _wp_terms(num: _Numerics, exp: WpExpansion) -> tuple:
    """((2k - 2) c_k, c_k) for k = 2..order, each rounded once from its exact
    value, None for an exact zero; a c_k past the double range is refused
    by its index."""
    terms = []
    for k, c in enumerate(exp.c, 2):
        try:
            terms.append((num.rational((2 * k - 2) * c), num.rational(c)) if c else None)
        except OverflowError:  # from float(c): past the largest double
            raise OverflowError(f"wp coefficient c_{k} is beyond the double range; "
                                "use --precision above 53") from None
    return tuple(terms)


def _curve_terms(num: _Numerics, exp: WpExpansion) -> tuple:
    return num.rational(exp.curve.g2), num.rational(exp.curve.g3)


def eval_log_qseries(flog: FormalLog, z, nmax: int, precision: int = 53):
    """Partial sum of the log-series at q = exp(2*pi*i*z), plus an estimate.

    Returns ``(value, truncation_estimate)``; refuses z outside the open
    upper half-plane.
    """
    num = _Numerics(precision)
    with num.workprec():
        _, _, total, estimate = _qseries(num, z, flog, _log_terms, nmax)
        return total, estimate


def eval_cusp_qseries(flog: FormalLog, z, nmax: int, precision: int = 53):
    """Partial sum of the weight-two series sum a(n) q^n at q = exp(2*pi*i*z)."""
    num = _Numerics(precision)
    with num.workprec():
        return _qseries(num, z, flog, _cusp_terms, nmax)[2]


def _radius(exp: WpExpansion) -> float:
    for k in range(exp.order, 1, -1):
        c = exp.coefficient(k)
        if c:
            # log space: the c_k of a huge or tiny (g2, g3) lie outside the doubles
            log_c = math.log(abs(c.numerator)) - math.log(c.denominator)
            try:
                return math.exp((math.log(RADIUS_RELATIVE_TOLERANCE) - log_c) / (2 * k))
            except OverflowError:
                return math.inf
    return math.inf


def reliability_radius(curve: Curve, order: int) -> float:
    """|w| below which the order-``order`` wp series is trusted.

    Solves |c_k| r^(2k) = tol for the last nonzero retained coefficient
    (so the final term is at most ``tol`` relative to the |w|^-2 pole
    term), in logarithms of its exact numerator and denominator.  Infinite
    when every c_k vanishes (g2 = g3 = 0: the series is exactly the pole)
    or when r lies above the double range.
    """
    return _radius(wp_coefficients(curve, order))


def eval_wp(curve: Curve, w, order: int, precision: int = 53):
    """Evaluate the truncated wp and wp' series at w.

    Returns ``(wp(w), wp'(w))``.  Raises :class:`PoleError` at w = 0 and
    :class:`OutOfRadiusError` if |w| is not inside
    :func:`reliability_radius`; refusal beats a silently wrong value.
    """
    num = _Numerics(precision)
    with num.workprec():
        return _eval_wp(num, wp_coefficients(curve, order), w)


def _eval_wp(num: _Numerics, exp: WpExpansion, w):
    """:func:`eval_wp` on a built expansion, run under ``num.workprec()``."""
    wc = num.complex_of(w)
    if wc == 0:
        raise PoleError("wp has a pole at w = 0")
    radius = _radius(exp)
    if not abs(wc) < radius:
        raise OutOfRadiusError(
            f"|w| = {num.magnitude(abs(wc))} outside reliability radius "
            f"{radius:.6g} at order {exp.order}"
        )
    inv = 1 / wc
    w2 = wc * wc
    wp_val = inv * inv
    wpp_val = -2 * inv * inv * inv
    power = inv  # becomes w^(2k-3) after the multiply below
    for term in _table(num, exp, _wp_terms):
        power = power * w2
        if term is not None:
            dcf, cf = term
            wpp_val = wpp_val + dcf * power
            wp_val = wp_val + cf * power * wc
    return wp_val, wpp_val


def param_point(
    curve: Curve, flog: FormalLog, z, nmax: int, order: int, precision: int = 53
) -> ParamResult:
    """Evaluate (alpha, beta) = (wp, wp')(log q-series) and its curve residual."""
    num = _Numerics(precision)
    _same_curve(curve, flog)
    with num.workprec():
        point = _qseries(num, z, flog, _log_terms, nmax)
        return _param_point(num, wp_coefficients(curve, order), *point)


def _same_curve(curve: Curve, flog: FormalLog) -> None:
    if flog.curve != curve:
        raise ValueError("formal logarithm belongs to a different curve")


def _param_point(num: _Numerics, exp: WpExpansion, zc, q, w, estimate):
    """:func:`param_point` from a :func:`_qseries` point and a built expansion,
    run under ``num.workprec()``."""
    # Near the cusp, doubles underflow q (w = 0: the pole) or overflow wp(w) ~ q^-2.
    if w != 0:
        alpha, beta = _eval_wp(num, exp, w)
        g2, g3 = _table(num, exp, _curve_terms)
        try:
            residual = abs(beta * beta - (4 * alpha**3 - g2 * alpha - g3))
        except OverflowError:  # abs() past the largest double
            residual = math.inf
        if num.mp is not None or all(map(cmath.isfinite, (alpha, beta, residual))):
            return ParamResult(zc, q, w, alpha, beta, residual, estimate, num.precision)
    raise OverflowError(
        f"Im(z) = {float(zc.imag):.6g} is too close to the cusp for double "
        "precision: q = exp(2*pi*i*z) underflows or wp(w) overflows; "
        "use --precision above 53"
    )


def derivative_check(
    curve: Curve,
    flog: FormalLog,
    z,
    h: float,
    nmax: int | None = None,
    order: int = 20,
    precision: int = 53,
) -> DerivativeCheck:
    """Compare d(alpha)/dz with beta * 2*pi*i * (weight-two q-sum).

    Uses the symmetric difference (alpha(z+h) - alpha(z-h)) / 2h, which
    converges at O(h^2) until rounding takes over.
    """
    if type(h) not in (int, float):  # not a bool: True would pass as a step of 1.0
        raise TypeError(f"h must be a step, not {type(h).__name__}")
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    num = _Numerics(precision)
    with num.workprec():
        zc = num.complex_of(z)
        hr = num.real_of(h)
        if nmax is None:
            nmax = flog.series.order
        _same_curve(curve, flog)
        points = [_qseries(num, x, flog, _log_terms, nmax) for x in (zc + hr, zc - hr, zc)]
        exp = wp_coefficients(curve, order)  # asked for once, for the three points
        plus, minus, center = (_param_point(num, exp, *point) for point in points)
        fd = (plus.alpha - minus.alpha) / (2 * hr)
        cusp = _qsum(center.q, _table(num, flog, _cusp_terms), nmax)[0]
        expected = center.beta * num.two_pi_i() * cusp
        scale = abs(expected)
        if scale == 0:
            deviation = float("inf") if abs(fd - expected) else 0.0
        else:
            deviation = float(abs(fd - expected) / scale)
        return DerivativeCheck(zc, float(h), fd, expected, deviation)
