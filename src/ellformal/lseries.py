"""Candidate L-series coefficients and their point-counting verification.

The scaled formal-logarithm coefficients a(n) = n * [T^n] log-series are
checked prime by prime against an independent oracle: for a good odd
prime p >= 5, a(p) must be congruent mod p to the trace p + 1 - #E(F_p),
with #E(F_p) obtained by exhaustive enumeration.  The model
y^2 = 4x^3 - g2*x - g3 is rewritten as (y/2)^2 = x^3 + A*x + B with
A = -g2/4, B = -g3/4 before reducing, so primes 2 and 3 are never
touched.

Because the formal logarithm of this model is odd, a(n) = 0 for every
even n; only prime-index congruences are meaningful and the report
records that structural fact implicitly (even indices are never
compared against anything).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .formal_group import FormalLog
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


@dataclass(frozen=True)
class ReducedCurve:
    """(y/2)^2 = x^3 + A*x + B over F_p, guaranteed nonsingular."""

    p: int
    A: int
    B: int

    def __post_init__(self):
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

    Raises :class:`UnsupportedPrimeError` for p < 5 and
    :class:`ReductionSkip` (with a reason) when a coefficient
    denominator is divisible by p or the reduction is singular.
    """
    if p < 5:
        raise UnsupportedPrimeError(f"p={p} unsupported; model needs p >= 5")
    if not _is_prime(p):
        raise ValueError(f"p={p} is not prime")
    a_frac = -curve.g2 / 4
    b_frac = -curve.g3 / 4
    if a_frac.denominator % p == 0 or b_frac.denominator % p == 0:
        raise ReductionSkip("denominator divisible by p")
    a_res = a_frac.numerator * pow(a_frac.denominator, -1, p) % p
    b_res = b_frac.numerator * pow(b_frac.denominator, -1, p) % p
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


def honda_check(curve: Curve, pmax: int, flog: FormalLog) -> HondaReport:
    """Congruence a(p) = p + 1 - #E(F_p) (mod p) for all good 5 <= p <= pmax.

    a(p) is reduced mod p by inverting its denominator; a denominator
    divisible by p yields a skip, not a failure.  The ``exact`` flag
    records whether a(p) equals the trace on the nose (an empirical
    observation, not something the congruence requires).
    """
    if flog.curve != curve:
        raise ValueError("formal logarithm belongs to a different curve")
    if flog.series.order < pmax:
        raise ValueError(
            f"formal log order {flog.series.order} does not cover pmax={pmax}"
        )
    entries = []
    for p in primes_upto(pmax):
        if p < 5:
            continue
        try:
            rc = reduce_curve(curve, p)
        except ReductionSkip as skip:
            entries.append(HondaEntry(p, None, None, None, None, skip.reason))
            continue
        a_p = flog.a(p)
        if a_p.denominator % p == 0:
            entries.append(
                HondaEntry(p, None, a_p, None, None, "a(p) denominator divisible by p")
            )
            continue
        trace = p + 1 - count_points(rc)
        residue = a_p.numerator * pow(a_p.denominator, -1, p) % p
        entries.append(
            HondaEntry(p, trace, a_p, (residue - trace) % p == 0, a_p == trace)
        )
    return HondaReport(curve, pmax, tuple(entries))


# -- classical degeneration -------------------------------------------------


@dataclass(frozen=True)
class EtaPartialSum:
    s: int
    terms: int
    partial_sum: float
    reference: float
    abs_error: float
    bound: float  # alternating-series remainder bound 1/(terms+1)^s

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


def classical_demo(nmax: int, s_values, series_order: int = 16) -> ClassicalReport:
    """Degenerate the machinery to exp(T) - 1 and check the classical facts.

    Reverting a truncated exp(T) - 1 must give the log(1 + T)
    coefficients, i.e. a(n) = (-1)^(n-1); the alternating Dirichlet
    partial sums sum_{n<=nmax} (-1)^(n-1)/n^s are then compared against
    (1 - 2^(1-s)) * zeta(s) for each requested s.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    exp_minus_one = UniSeries(
        series_order,
        [0] + [Fraction(1, math.factorial(k)) for k in range(1, series_order + 1)],
    )
    log_series = exp_minus_one.reverse()
    an = tuple(n * log_series.coeffs[n] for n in range(1, series_order + 1))
    alternating = all(an[n - 1] == (-1) ** (n - 1) for n in range(1, series_order + 1))

    sums = []
    for s in s_values:
        if not isinstance(s, int) or s < 1:
            raise ValueError(f"s must be a positive integer, got {s!r}")
        pos = math.fsum(1.0 / n**s for n in range(1, nmax + 1, 2))
        neg = math.fsum(1.0 / n**s for n in range(2, nmax + 1, 2))
        partial = pos - neg
        ref = _eta_reference(s)
        sums.append(
            EtaPartialSum(s, nmax, partial, ref, abs(partial - ref), 1.0 / (nmax + 1) ** s)
        )
    return ClassicalReport(series_order, an, alternating, tuple(sums))
