"""Candidate L-series coefficients and their point-counting verification.

The scaled formal-logarithm coefficients a(n) = n * [T^n] log-series are
checked prime by prime against an independent oracle: for a good odd
prime p >= 5, a(p) must be congruent mod p to the trace p + 1 - #E(F_p),
with #E(F_p) obtained by exhaustive enumeration.  a(p) is read at the
primes only, from the log's closed form (the Hasse invariant mod p), so
no other a(n) is built.  The model y^2 = 4x^3 - g2*x - g3 is rewritten
as (y/2)^2 = x^3 + A*x + B with A = -g2/4, B = -g3/4, so primes 2 and 3
are never touched, and is reduced from the curve's weights (u, a, b).

Because the formal logarithm of this model is odd, a(n) = 0 for every
even n; only prime-index congruences are meaningful and the report
records that structural fact implicitly (even indices are never
compared against anything).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .formal_group import _log_core
from .series import UniSeries
from .weierstrass import Curve

POINT_COUNT_CAP = 10**6


class UnsupportedPrimeError(ValueError):
    """Reduction at p < 5 is never attempted for this model."""


class ReductionSkip(Exception):
    """The curve cannot be meaningfully reduced at this prime."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


def _check_prime(p: int) -> None:
    """The model's one rule on a modulus: :class:`UnsupportedPrimeError` for
    p < 5, :class:`ValueError` for a composite."""
    if p < 5:
        raise UnsupportedPrimeError(f"p={p} unsupported; model needs p >= 5")
    if not _is_prime(p):
        raise ValueError(f"p={p} is not prime")


@dataclass(frozen=True)
class ReducedCurve:
    """(y/2)^2 = x^3 + A*x + B over F_p, p >= 5 prime, guaranteed nonsingular."""

    p: int
    A: int
    B: int

    def __post_init__(self):
        _check_prime(self.p)
        if not 0 <= self.A < self.p or not 0 <= self.B < self.p:
            raise ValueError("residues must be reduced into [0, p)")
        if (4 * self.A**3 + 27 * self.B**2) % self.p == 0:
            raise ValueError(f"singular reduction at p={self.p}")


@dataclass(frozen=True)
class HondaEntry:
    p: int
    trace: int | None
    a_formal: Fraction | None
    congruent: bool | None
    exact: bool | None
    skipped_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None


@dataclass(frozen=True)
class HondaReport:
    """Per-prime congruence verdicts for 5 <= p <= pmax, sorted by p."""

    curve: Curve
    pmax: int
    entries: tuple

    @property
    def all_congruent(self) -> bool:
        return all(e.congruent for e in self.entries if not e.skipped)

    @property
    def n_checked(self) -> int:
        return sum(1 for e in self.entries if not e.skipped)

    @property
    def n_skipped(self) -> int:
        return sum(1 for e in self.entries if e.skipped)


def reduce_curve(curve: Curve, p: int) -> ReducedCurve:
    """Residues A = -g2/4, B = -g3/4 mod p with a good-reduction check.

    Reads the curve's weights (u, a, b): A = a u^-4, B = b u^-6 mod p.
    Raises :class:`UnsupportedPrimeError` for p < 5 and :class:`ReductionSkip`
    (with a reason) when p divides u, a denominator of A or B, or the
    reduction is singular.
    """
    _check_prime(p)
    u, a, b = curve.weights
    if u % p == 0:
        raise ReductionSkip("denominator divisible by p")
    v = pow(u, -2, p)
    a_res, b_res = a * v * v % p, b * v**3 % p
    if (4 * a_res**3 + 27 * b_res**2) % p == 0:
        raise ReductionSkip("bad reduction")
    return ReducedCurve(p, a_res, b_res)


def count_points(rc: ReducedCurve) -> int:
    """#E(F_p) including infinity, by exhaustive enumeration.

    Counts sum_x #{y : y^2 = x^3 + Ax + B} via a precomputed table of
    square frequencies, O(p) time and memory.  Refuses p beyond
    ``POINT_COUNT_CAP``; this is a desk-scale oracle, not an algorithm.
    """
    p = rc.p
    if p > POINT_COUNT_CAP:
        raise ValueError(f"point counting capped at p <= {POINT_COUNT_CAP}")
    square_freq = [0] * p
    for y in range(p):
        square_freq[y * y % p] += 1
    a_res, b_res = rc.A, rc.B
    total = 1
    for x in range(p):
        total += square_freq[(x * x % p * x + a_res * x + b_res) % p]
    return total


def honda_check(curve: Curve, pmax: int) -> HondaReport:
    """Congruence a(p) = p + 1 - #E(F_p) (mod p) for all good 5 <= p <= pmax.

    a(p) is read at the good primes only, from the closed form of the log
    (:func:`~ellformal.formal_group._log_core`, one call for all of them),
    as u^(1-p) times the middle coefficient [x^(p-1)] (x^3 + a x + b)^((p-1)/2)
    of the weight-scaled cubic.  p does not divide u at a good prime, so
    u^(p-1) = 1 mod p (Fermat), and a(p) is that middle coefficient mod p.
    The ``exact`` flag records whether a(p) equals the trace on the nose
    (an empirical observation, not something the congruence requires).
    A prime above ``POINT_COUNT_CAP`` is refused before any reduction.
    """
    if type(pmax) is bool or not isinstance(pmax, int):
        raise TypeError(f"pmax must be an int, not {type(pmax).__name__}")
    if any(map(_is_prime, range(POINT_COUNT_CAP + 1, pmax + 1))):
        raise ValueError(f"point counting capped at p <= {POINT_COUNT_CAP}")
    entries, good = {}, []
    for p in primes_upto(pmax):
        if p < 5:
            continue
        try:
            good.append(reduce_curve(curve, p))
        except ReductionSkip as skip:
            entries[p] = HondaEntry(p, None, None, None, None, skip.reason)
    for rc, v in zip(good, _log_core(curve, [(rc.p - 1) // 2 for rc in good])):
        p = rc.p
        a_p = Fraction(v, curve.weights[0] ** (p - 1))
        trace = p + 1 - count_points(rc)
        entries[p] = HondaEntry(p, trace, a_p, (v - trace) % p == 0, a_p == trace)
    return HondaReport(curve, pmax, tuple(entries[p] for p in sorted(entries)))


# -- classical degeneration -------------------------------------------------


@dataclass(frozen=True)
class EtaPartialSum:
    s: int
    terms: int
    partial_sum: float
    reference: float
    abs_error: float
    bound: float  # alternating-series remainder bound 1/(terms+1)^s, 0.0 once it underflows

    @property
    def within_bound(self) -> bool:
        return self.abs_error <= self.bound * 1.001 + 1e-15


@dataclass(frozen=True)
class ClassicalReport:
    series_order: int
    an: tuple
    an_alternating: bool
    sums: tuple

    @property
    def passed(self) -> bool:
        return self.an_alternating and all(row.within_bound for row in self.sums)


def _eta_reference(s: int) -> float:
    if s == 1:
        return math.log(2.0)
    import mpmath

    return float((1 - mpmath.mpf(2) ** (1 - s)) * mpmath.zeta(s))


def _eta_partial_sum(nmax: int, s: int) -> float:
    """sum_{n<=nmax} (-1)^(n-1) / n^s, correctly rounded, in closed form: eta(s)
    less the tail (-1)^nmax 2^-s [zeta(s, (nmax+1)/2) - zeta(s, (nmax+2)/2)],
    whose bracket is psi((nmax+2)/2) - psi((nmax+1)/2) at s = 1 and cancels
    about digits(nmax) digits, so it is worked at 30 + digits(nmax).  From
    s = 54 on the sum is 1.0 with no Hurwitz call (seconds at a 300-digit s):
    from nmax = 2 on it lies in [1 - 2^-s, 1], and 1 - 2^-54 rounds to 1.0."""
    if s >= 54:
        return 1.0
    import mpmath

    with mpmath.workdps(30 + len(str(nmax))):
        a, b = mpmath.mpf(nmax + 1) / 2, mpmath.mpf(nmax + 2) / 2
        bracket = (mpmath.digamma(b) - mpmath.digamma(a) if s == 1
                   else mpmath.zeta(s, a) - mpmath.zeta(s, b))
        return float(mpmath.altzeta(s) - (-1) ** nmax * bracket / 2**s)


def classical_demo(nmax: int, s_values, series_order: int = 16) -> ClassicalReport:
    """Degenerate the machinery to exp(T) - 1 and check the classical facts.

    Reverting a truncated exp(T) - 1 must give the log(1 + T)
    coefficients, i.e. a(n) = (-1)^(n-1); the alternating Dirichlet
    partial sums sum_{n<=nmax} (-1)^(n-1)/n^s, in closed form at any nmax,
    are then compared against (1 - 2^(1-s)) * zeta(s) for each requested s.
    """
    if type(nmax) is bool:
        raise TypeError("nmax must be a count, not bool")
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    exp_minus_one = UniSeries(
        series_order,
        [0] + [Fraction(1, math.factorial(k)) for k in range(1, series_order + 1)],
    )
    log_series = exp_minus_one.reverse()
    an = tuple(n * log_series.coeffs[n] for n in range(1, series_order + 1))
    alternating = all(an[n - 1] == (-1) ** (n - 1) for n in range(1, series_order + 1))

    rows, sums = {}, []  # each distinct s is computed once, however often it is asked for
    for s in s_values:
        if type(s) is bool or not isinstance(s, int) or s < 1:
            raise ValueError(f"s must be a positive integer, got {s!r}")
        if s not in rows:
            partial, ref = _eta_partial_sum(nmax, s), _eta_reference(s)
            rows[s] = EtaPartialSum(s, nmax, partial, ref, abs(partial - ref),
                                    _inverse_power(nmax + 1, s))
        sums.append(rows[s])
    return ClassicalReport(series_order, an, alternating, tuple(sums))


def _inverse_power(n: int, s: int) -> float:
    """1/n^s as a double, 0.0 once it underflows.

    Where n^s converts to a double this is 1.0 / n**s, so reports in that
    range keep their bytes; past it, it is the correctly rounded 1 / n**s,
    and once n^s > 2^1075 (1/n^s below half the least subnormal) it is 0.0
    without forming n^s.
    """
    if s * (n.bit_length() - 1) > 1075:
        return 0.0
    p = n**s
    try:
        return 1.0 / p
    except OverflowError:
        return 1 / p
