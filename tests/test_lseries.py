import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ellformal import (
    Curve,
    HondaEntry,
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
from ellformal import lseries
from ellformal.cli import main
from conftest import random_curve


def _exact_eta_sum(nmax: int, s: int) -> F:
    """sum_{n<=nmax} (-1)^(n-1) / n^s term by term, exactly."""
    return sum(F((-1) ** (n - 1), n**s) for n in range(1, nmax + 1))


def brute_force_count(rc: ReducedCurve) -> int:
    """Dumbest possible oracle: test every (x, y) pair against the equation."""
    total = 1
    for x in range(rc.p):
        for y in range(rc.p):
            if (y * y - (x**3 + rc.A * x + rc.B)) % rc.p == 0:
                total += 1
    return total


REDUCTION_CURVES = (Curve(4, 0), Curve(-7, 13), Curve(F(-3, 7), F(5, 11)), Curve(F(5, 6), F(-7, 9)),
                    Curve(F(2, 35), F(-1, 5)), Curve(0, 0))


def _reduce_by_fractions(curve: Curve, p: int):
    """Reference: (A, B) mod p for A = -g2/4, B = -g3/4, each a numerator times
    the inverse of its denominator, or the reason the prime is skipped."""
    qa, qb = -curve.g2 / 4, -curve.g3 / 4
    if qa.denominator % p == 0 or qb.denominator % p == 0:
        return "denominator divisible by p"
    a = qa.numerator * pow(qa.denominator, -1, p) % p
    b = qb.numerator * pow(qb.denominator, -1, p) % p
    return "bad reduction" if (4 * a**3 + 27 * b**2) % p == 0 else (a, b)


class TestPrimes:
    def test_sieve(self):
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_upto(1) == []


class TestReduceCurve:
    def test_lemniscatic_at_five(self):
        rc = reduce_curve(Curve(4, 0), 5)
        assert (rc.A + 1) % 5 == 0 and rc.B == 0

    def test_small_primes_unsupported(self):
        for p in (2, 3, 4):  # 4 is below 5 before it is composite
            with pytest.raises(UnsupportedPrimeError, match=f"^p={p} unsupported; model needs p >= 5$"):
                reduce_curve(Curve(4, 0), p)

    def test_composite_rejected(self):
        with pytest.raises(ValueError, match="^p=15 is not prime$"):
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

    @pytest.mark.parametrize("p,error,text", (
        (9, ValueError, "p=9 is not prime"),
        (3, UnsupportedPrimeError, "p=3 unsupported; model needs p >= 5"),
    ), ids=("nine", "three"))
    def test_reduced_curve_needs_a_prime_from_five(self, p, error, text):
        # Z/9 is not a field: a "point count" over it would mean nothing
        with pytest.raises(error, match=f"^{text}$"):
            ReducedCurve(p, 1, 1)

    # u = 1, 4, 308 (7 and 11 skipped), 72, 140 (5 and 7 skipped) and 1; 7 divides a on (-7, 13)
    @pytest.mark.parametrize("curve", REDUCTION_CURVES, ids=lambda c: f"{c.g2},{c.g3}")
    def test_matches_fraction_reference(self, curve):
        for p in primes_upto(200)[2:]:
            try:
                rc = reduce_curve(curve, p)
            except ReductionSkip as skip:
                got = skip.reason
            else:
                got = (rc.A, rc.B)
            assert got == _reduce_by_fractions(curve, p), p


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
        report = honda_check(Curve(4, 0), 20)
        assert [e.p for e in report.entries] == [5, 7, 11, 13, 17, 19]
        assert report.all_congruent
        by_p = {e.p: e for e in report.entries}
        assert by_p[5].trace == -2 and by_p[5].a_formal == -2 and by_p[5].exact
        assert by_p[7].trace == 0 and by_p[7].a_formal == 0

    def test_randomized_curves(self, rng):
        for _ in range(5):
            c = random_curve(rng)
            report = honda_check(c, 30)
            bad = [e for e in report.entries if e.congruent is False]
            assert not bad, (c, bad)

    def test_entries_sorted_and_unique(self, rng):
        report = honda_check(random_curve(rng), 30)
        ps = [e.p for e in report.entries]
        assert ps == sorted(set(ps))
        assert set(ps) == {p for p in primes_upto(30) if p >= 5}

    def test_all_skipped_for_singular_model(self):
        report = honda_check(Curve(0, 0), 12)
        assert report.n_checked == 0
        assert all(e.skipped_reason == "bad reduction" for e in report.entries)
        assert report.all_congruent  # vacuously: nothing checked, nothing failed

    def test_order_guard(self, capsys):
        # --order sizes no computation, yet stays bounded below by --pmax
        assert main(["honda", "--g2=4", "--g3=0", "--pmax=20", "--order=10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--order" in captured.err

    def test_primes_dividing_the_weight_are_skipped(self):
        # u = 308 = 4 * 7 * 11: a(7) and a(11) would carry 7 and 11 in their
        # denominators, and the reduction refuses both primes first
        report = honda_check(Curve(F(-3, 7), F(5, 11)), 13)
        assert [(e.p, e.skipped_reason) for e in report.entries] == [
            (5, None), (7, "denominator divisible by p"),
            (11, "denominator divisible by p"), (13, None)]
        assert report.all_congruent and report.n_checked == 2

    @pytest.mark.parametrize("curve", (Curve(4, 0), Curve(-7, 13), Curve(F(-3, 7), F(5, 11))),
                             ids=lambda c: f"{c.g2},{c.g3}")
    def test_entries_match_inverse_route(self, curve):
        # a(p) from the log, reduced mod p through the inverse of its denominator
        flog, expected = formal_logarithm(curve, 199), []
        for p in primes_upto(200)[2:]:
            reduced = _reduce_by_fractions(curve, p)
            if isinstance(reduced, str):
                expected.append(HondaEntry(p, None, None, None, None, reduced))
                continue
            trace, a_p = p + 1 - count_points(ReducedCurve(p, *reduced)), flog.a(p)
            residue = a_p.numerator * pow(a_p.denominator, -1, p) % p
            expected.append(HondaEntry(p, trace, a_p, (residue - trace) % p == 0, a_p == trace))
        assert honda_check(curve, 200).entries == tuple(expected)

    def test_prime_above_the_cap_refused_before_any_reduction(self, monkeypatch):
        # with the cap at 50, the 44 primes 5..199 would be reduced and the 42 good ones
        # passed to _log_core before count_points refused p = 53
        calls = []

        def spy(name):
            real = getattr(lseries, name)
            monkeypatch.setattr(lseries, name, lambda *args: calls.append(name) or real(*args))

        monkeypatch.setattr(lseries, "POINT_COUNT_CAP", 50)
        spy("reduce_curve")
        spy("_log_core")
        with pytest.raises(ValueError, match=r"^point counting capped at p <= 50$"):
            honda_check(Curve(F(-3, 7), F(5, 11)), 200)
        assert calls == []
        monkeypatch.undo()
        monkeypatch.setattr(lseries, "POINT_COUNT_CAP", 52)  # 53 is the first prime above
        assert honda_check(Curve(4, 0), 52).n_checked == 13

    @pytest.mark.parametrize("curve", (Curve(-7, 13), Curve(F(-3, 7), F(5, 11))))  # u = 4, 308
    def test_a_p_is_the_logs(self, curve):
        flog = formal_logarithm(curve, 97)
        checked = [e for e in honda_check(curve, 97).entries if not e.skipped]
        assert checked and all(e.a_formal == flog.a(e.p) for e in checked)


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

    def test_each_distinct_s_is_summed_once(self, monkeypatch):
        calls = []
        summed = lseries._eta_partial_sum

        def counting(nmax, s):
            calls.append(s)
            return summed(nmax, s)

        monkeypatch.setattr(lseries, "_eta_partial_sum", counting)
        report = classical_demo(10**6, [3] * 50)
        assert calls == [3] and len(report.sums) == 50
        calls.clear()
        mixed = classical_demo(1000, [2, 1, 2, 5, 1])
        assert calls == [2, 1, 5]
        assert [row.s for row in mixed.sums] == [2, 1, 2, 5, 1]
        assert mixed.sums[0] is mixed.sums[2]

    @pytest.mark.parametrize("n,s", [
        (1000, 103), (1001, 103), (3, 700), (2, 1023), (2, 1074), (2, 1075), (2, 1076),
        (10**6, 5000), (1, 10**18),
    ])
    def test_inverse_power_past_the_double_range(self, n, s):
        # correctly rounded where n^s has no double, 0.0 once it underflows
        assert lseries._inverse_power(n, s) == (1.0 if n == 1 else float(F(1, n**s)))

    @settings(max_examples=200)
    @given(nmax=st.integers(1, 200), s=st.integers(1, 5))
    def test_closed_form_is_the_exact_sum_rounded(self, nmax, s):
        assert lseries._eta_partial_sum(nmax, s) == float(_exact_eta_sum(nmax, s))

    @settings(max_examples=100)
    @given(nmax=st.integers(1, 10**4), s=st.integers(1, 60))
    def test_closed_form_within_an_ulp_of_the_term_by_term_sum(self, nmax, s):
        summed = math.fsum((-1) ** (n - 1) * lseries._inverse_power(n, s)
                           for n in range(1, nmax + 1))
        assert abs(lseries._eta_partial_sum(nmax, s) - summed) <= math.ulp(summed)

    @pytest.mark.parametrize("s", (53, 54, 55, 100))
    def test_closed_form_around_the_rule_for_s_from_54(self, s):
        # from s = 54 on every sum is 1.0 with no Hurwitz call; at 53 it is not
        for nmax in range(1, 41):
            assert lseries._eta_partial_sum(nmax, s) == float(_exact_eta_sum(nmax, s))
