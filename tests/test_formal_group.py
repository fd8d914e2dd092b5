import math
from fractions import Fraction as F

import pytest

from ellformal import formal_group
from ellformal import (
    BiSeries,
    Curve,
    GroupLaw,
    UniSeries,
    coordinate_pullback,
    formal_exponential,
    formal_logarithm,
    group_law_closed_form,
    group_law_exp_log,
    s_coordinate,
    universal_bernoulli,
    verify_axioms,
)
from conftest import random_curve

NAMED_CURVES = (Curve(4, 0), Curve(-7, 13), Curve(F(-3, 7), F(5, 11)))


class TestFormalExponential:
    def test_additive_case(self):
        fe = formal_exponential(Curve(0, 0), 30)
        assert fe.series == UniSeries.identity(30)

    def test_leading_terms(self, rng):
        for _ in range(5):
            c = random_curve(rng)
            fe = formal_exponential(c, 9)
            assert fe.series.coeffs[1] == 1
            assert fe.series.coeffs[3] == 0
            assert fe.series.coeffs[5] == c.g2 / 10
            assert fe.series.coeffs[7] == 3 * c.g3 / 28

    def test_oddness(self, rng):
        fe = formal_exponential(random_curve(rng), 24)
        assert all(fe.series.coeffs[k] == 0 for k in range(0, 25, 2))


class TestFormalLogarithm:
    def test_additive_case(self):
        fl = formal_logarithm(formal_exponential(Curve(0, 0), 12))
        assert fl.series == UniSeries.identity(12)
        assert fl.a(1) == 1
        assert all(fl.a(n) == 0 for n in range(2, 13))

    def test_first_coefficients(self, rng):
        for _ in range(5):
            c = random_curve(rng)
            fl = formal_logarithm(formal_exponential(c, 8))
            assert fl.a(1) == 1
            assert fl.a(5) == -c.g2 / 2
            assert fl.a(7) == -3 * c.g3 / 4

    def test_lemniscatic_value(self):
        fl = formal_logarithm(formal_exponential(Curve(4, 0), 6))
        assert fl.a(5) == -2

    def test_roundtrip_randomized(self, rng):
        for _ in range(6):
            c = random_curve(rng)
            fe = formal_exponential(c, 20)
            fl = formal_logarithm(fe)
            t = UniSeries.identity(20)
            assert fe.series.compose(fl.series) == t
            assert fl.series.compose(fe.series) == t

    def test_oddness(self, rng):
        fl = formal_logarithm(formal_exponential(random_curve(rng), 21))
        assert all(fl.a(n) == 0 for n in range(2, 22, 2))

    @pytest.mark.parametrize(
        "curve", NAMED_CURVES + (Curve(0, 0),), ids=lambda c: f"{c.g2},{c.g3}"
    )
    @pytest.mark.parametrize("order", (1, 2, 3, 12, 61))
    def test_matches_reversion_of_exponential(self, curve, order):
        fexp = formal_exponential(curve, order)
        flog = formal_logarithm(fexp)
        reverted = fexp.series.reverse()
        assert flog.series == reverted
        assert all(reverted.coeffs[k] == 0 for k in range(0, order + 1, 2))
        assert all(
            flog.an[n - 1] == n * flog.series.coeffs[n] for n in range(1, order + 1)
        )


class TestOneLogRoute:
    """The log is read off the invariant differential, not by reversion."""

    def test_counts(self, monkeypatch):
        counted = []
        revert = UniSeries.reverse
        solve = formal_group.s_coordinate

        def counting_reverse(self):
            counted.append("reverse")
            return revert(self)

        def counting_s(curve, order):
            counted.append("s_coordinate")
            return solve(curve, order)

        monkeypatch.setattr(UniSeries, "reverse", counting_reverse)
        monkeypatch.setattr(formal_group, "s_coordinate", counting_s)
        fexp = formal_exponential(Curve(-7, 13), 97)
        formal_logarithm(fexp)
        assert counted == ["s_coordinate"]


class TestUniversalBernoulli:
    def test_constant_term(self, rng):
        ub = universal_bernoulli(formal_exponential(random_curve(rng), 3), 2)
        assert ub[0] == 1

    def test_curve_values(self, rng):
        for _ in range(5):
            c = random_curve(rng)
            ub = universal_bernoulli(formal_exponential(c, 9), 8)
            assert ub[4] == -12 * c.g2 / 5
            assert ub[6] == -540 * c.g3 / 7

    def test_classical_degeneration(self):
        f = UniSeries(13, [0] + [F(1, math.factorial(k)) for k in range(1, 14)])
        got = universal_bernoulli(f, 12)
        assert got == [
            F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42),
            F(0), F(-1, 30), F(0), F(5, 66), F(0), F(-691, 2730),
        ]

    def test_needs_enough_order(self):
        fe = formal_exponential(Curve(4, 0), 5)
        with pytest.raises(ValueError):
            universal_bernoulli(fe, 5)


class TestSCoordinate:
    def test_additive_case(self):
        s = s_coordinate(Curve(0, 0), 12).series
        assert s == UniSeries.monomial(12, 3)

    def test_low_order_terms(self, rng):
        for _ in range(5):
            c = random_curve(rng)
            s = s_coordinate(c, 10).series
            assert s.coeffs[3] == 1
            assert s.coeffs[7] == -c.g2 / 4
            assert s.coeffs[9] == -c.g3 / 4
            assert all(s.coeffs[k] == 0 for k in (0, 1, 2, 4, 5, 6, 8, 10))

    def test_satisfies_fixed_point_equation(self, rng):
        cases = [(random_curve(rng), 25)] + [(c, 60) for c in NAMED_CURVES]
        for c, order in cases:
            s = s_coordinate(c, order).series
            cube = UniSeries.monomial(order, 3)
            rhs = cube - (c.g2 / 4) * (s.shifted(1) * s) - (c.g3 / 4) * (s * s * s)
            assert s == rhs

    def test_consistency_with_wp_prime_pullback(self, rng):
        # s(t) = -2 / wp'(log-series(t)) is the y-side pullback identity
        pb = coordinate_pullback(random_curve(rng), 15)
        assert pb.y_pullback == pb.y_coords


class TestGroupLaws:
    def test_additive_law(self):
        c = Curve(0, 0)
        fe = formal_exponential(c, 10)
        fl = formal_logarithm(fe)
        lin = BiSeries.variable(10, 1) + BiSeries.variable(10, 2)
        assert group_law_exp_log(fe, fl, 10).series == lin
        assert group_law_closed_form(c, 10).series == lin

    def test_degree_five_slice(self):
        """Leading correction (g2/10)[(t1+t2)^5 - t1^5 - t2^5] for both builds."""
        c = Curve(4, 0)
        fe = formal_exponential(c, 6)
        fl = formal_logarithm(fe)
        for law in (group_law_exp_log(fe, fl, 6), group_law_closed_form(c, 6)):
            assert law.series.get(4, 1) == c.g2 / 2
            assert law.series.get(3, 2) == c.g2
            assert law.series.get(2, 3) == c.g2
            assert law.series.get(1, 4) == c.g2 / 2
            assert law.series.get(5, 0) == 0

    def test_neutrality_slice(self, rng):
        c = random_curve(rng)
        fe = formal_exponential(c, 8)
        fl = formal_logarithm(fe)
        law = group_law_exp_log(fe, fl, 8)
        assert law.series.at_t2_zero() == UniSeries(8, (0, 1))

    def test_constructor_equivalence_randomized(self, rng):
        for _ in range(6):
            c = random_curve(rng)
            fe = formal_exponential(c, 9)
            fl = formal_logarithm(fe)
            assert (
                group_law_exp_log(fe, fl, 9).series
                == group_law_closed_form(c, 9).series
            )

    def test_provenances(self):
        c = Curve(1, 1)
        fe = formal_exponential(c, 5)
        fl = formal_logarithm(fe)
        assert group_law_exp_log(fe, fl, 5).provenance == "exp-log"
        assert group_law_closed_form(c, 5).provenance == "buchstaber-bunkova"


class TestAxioms:
    def test_additive_law_passes(self):
        lin = BiSeries.variable(12, 1) + BiSeries.variable(12, 2)
        report = verify_axioms(lin)
        assert report.passed and report.order == 12

    def test_lemniscatic_law_order_nine(self):
        c = Curve(4, 0)
        fe = formal_exponential(c, 9)
        fl = formal_logarithm(fe)
        report = verify_axioms(group_law_exp_log(fe, fl, 9))
        assert report.neutral and report.commutative and report.associative

    def test_corrupted_law_fails_associativity(self):
        c = Curve(4, 0)
        fe = formal_exponential(c, 9)
        fl = formal_logarithm(fe)
        law = group_law_exp_log(fe, fl, 9)
        rows = [list(row) for row in law.series.rows]
        rows[4][1] += 1
        corrupted = GroupLaw(c, BiSeries(9, rows), "exp-log")
        report = verify_axioms(corrupted)
        assert not report.associative
        assert not report.passed

    def test_asymmetric_series_fails_commutativity(self):
        rows = [[0, 1], [1]]
        rows[0][1] = 1
        b = BiSeries(2, ((0, 1, 1), (1, 0), (0,)))
        report = verify_axioms(b)
        assert not report.commutative


class TestFormalInverse:
    def test_negation_inverts_odd_law(self, rng):
        """F(t, -t) = 0: for an odd exp/log pair the group inverse is -t."""
        for _ in range(3):
            c = random_curve(rng)
            fe = formal_exponential(c, 9)
            fl = formal_logarithm(fe)
            law = group_law_exp_log(fe, fl, 9).series
            diagonal = [F(0)] * 10
            for i, j, coeff in law.terms():
                diagonal[i + j] += coeff * (-1) ** j
            assert not any(diagonal)


class TestPullbackIdentities:
    def test_randomized(self, rng):
        for _ in range(4):
            pb = coordinate_pullback(random_curve(rng), 18)
            assert pb.x_pullback == pb.x_coords
            assert pb.y_pullback == pb.y_coords

    def test_additive(self):
        pb = coordinate_pullback(Curve(0, 0), 12)
        assert pb.holds

    def test_log_of_other_curve_rejected(self):
        flog = formal_logarithm(formal_exponential(Curve(4, 0), 8))
        with pytest.raises(ValueError, match="different curve"):
            coordinate_pullback(Curve(-7, 13), 6, flog)
