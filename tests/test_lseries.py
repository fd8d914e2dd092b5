import math
from fractions import Fraction as F

import pytest

from ellformal import (
    Curve,
    ReducedCurve,
    ReductionSkip,
    UnsupportedPrimeError,
    classical_demo,
    count_points,
    formal_logarithm,
    honda_check,
    primes_upto,
    reduce_curve,
)
from conftest import random_curve


def brute_force_count(rc: ReducedCurve) -> int:
    """Dumbest possible oracle: test every (x, y) pair against the equation."""
    total = 1
    for x in range(rc.p):
        for y in range(rc.p):
            if (y * y - (x**3 + rc.A * x + rc.B)) % rc.p == 0:
                total += 1
    return total


class TestPrimes:
    def test_sieve(self):
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_upto(1) == []


class TestReduceCurve:
    def test_lemniscatic_at_five(self):
        rc = reduce_curve(Curve(4, 0), 5)
        assert (rc.A + 1) % 5 == 0 and rc.B == 0

    def test_small_primes_unsupported(self):
        for p in (2, 3):
            with pytest.raises(UnsupportedPrimeError):
                reduce_curve(Curve(4, 0), p)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            reduce_curve(Curve(4, 0), 15)

    def test_bad_reduction_skip(self):
        with pytest.raises(ReductionSkip) as info:
            reduce_curve(Curve(0, 0), 7)
        assert info.value.reason == "bad reduction"

    def test_denominator_skip(self):
        with pytest.raises(ReductionSkip) as info:
            reduce_curve(Curve(F(1, 5), 1), 5)
        assert info.value.reason == "denominator divisible by p"

    def test_reduced_curve_validates(self):
        with pytest.raises(ValueError):
            ReducedCurve(5, 0, 0)  # 4*0 + 27*0 = 0: singular


class TestCountPoints:
    def test_frozen_counts(self):
        assert count_points(ReducedCurve(5, 4, 0)) == 8  # A = -1 mod 5
        assert count_points(ReducedCurve(7, 6, 0)) == 8
        assert count_points(ReducedCurve(5, 0, 1)) == 6

    def test_against_double_loop_oracle(self, rng):
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            a = rng.randrange(p)
            b = rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            rc = ReducedCurve(p, a, b)
            assert count_points(rc) == brute_force_count(rc)

    def test_hasse_bound(self, rng):
        for _ in range(10):
            c = random_curve(rng)
            for p in (5, 7, 11, 13):
                try:
                    rc = reduce_curve(c, p)
                except ReductionSkip:
                    continue
                trace = p + 1 - count_points(rc)
                assert trace * trace <= 4 * p

    def test_cap(self):
        with pytest.raises(ValueError):
            count_points(ReducedCurve(10**6 + 3, 1, 1))


class TestHondaCheck:
    def test_lemniscatic_spot_values(self):
        c = Curve(4, 0)
        fl = formal_logarithm(c, 23)
        report = honda_check(c, 20, fl)
        assert [e.p for e in report.entries] == [5, 7, 11, 13, 17, 19]
        assert report.all_congruent
        by_p = {e.p: e for e in report.entries}
        assert by_p[5].trace == -2 and by_p[5].a_formal == -2 and by_p[5].exact
        assert by_p[7].trace == 0 and by_p[7].a_formal == 0

    def test_randomized_curves(self, rng):
        for _ in range(5):
            c = random_curve(rng)
            fl = formal_logarithm(c, 30)
            report = honda_check(c, 30, fl)
            bad = [e for e in report.entries if e.congruent is False]
            assert not bad, (c, bad)

    def test_entries_sorted_and_unique(self, rng):
        c = random_curve(rng)
        fl = formal_logarithm(c, 30)
        report = honda_check(c, 30, fl)
        ps = [e.p for e in report.entries]
        assert ps == sorted(set(ps))
        assert set(ps) == {p for p in primes_upto(30) if p >= 5}

    def test_all_skipped_for_singular_model(self):
        c = Curve(0, 0)
        fl = formal_logarithm(c, 12)
        report = honda_check(c, 12, fl)
        assert report.n_checked == 0
        assert all(e.skipped_reason == "bad reduction" for e in report.entries)
        assert report.all_congruent  # vacuously: nothing checked, nothing failed

    def test_order_guard(self):
        c = Curve(4, 0)
        fl = formal_logarithm(c, 10)
        with pytest.raises(ValueError):
            honda_check(c, 20, fl)

    def test_log_of_other_curve_rejected(self):
        fl = formal_logarithm(Curve(4, 0), 20)
        with pytest.raises(ValueError, match="different curve"):
            honda_check(Curve(-7, 13), 20, fl)


class TestClassicalDemo:
    def test_reversion_gives_alternating_coefficients(self):
        report = classical_demo(10, [1], series_order=8)
        assert report.an == tuple((-1) ** (n - 1) for n in range(1, 9))
        assert report.an_alternating

    def test_eta_at_one(self):
        report = classical_demo(100000, [1])
        row = report.sums[0]
        assert abs(row.partial_sum - math.log(2)) < 1e-5
        assert row.within_bound

    def test_eta_at_two(self):
        report = classical_demo(10000, [2])
        row = report.sums[0]
        assert abs(row.partial_sum - math.pi**2 / 12) < 1e-4
        assert row.within_bound

    def test_higher_s_reference(self):
        # (1 - 2^(1-3)) * zeta(3): partial sum must approach it
        report = classical_demo(2000, [3])
        row = report.sums[0]
        assert abs(row.partial_sum - row.reference) < 1e-9
        assert row.within_bound

    def test_input_validation(self):
        with pytest.raises(ValueError):
            classical_demo(0, [1])
        with pytest.raises(ValueError):
            classical_demo(10, [0])
