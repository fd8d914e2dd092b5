import cmath
import dataclasses
import gc
import math
from fractions import Fraction as F
from unittest import mock

import mpmath
import pytest
from hypothesis import given

from ellformal import (
    Curve,
    HalfPlaneError,
    OutOfRadiusError,
    PoleError,
    derivative_check,
    eval_cusp_qseries,
    eval_log_qseries,
    eval_wp,
    formal_logarithm,
    numeric_eval,
    param_point,
    reliability_radius,
    wp_coefficients,
)
from conftest import CURVE_FAMILIES, random_curve

LEMNISCATIC = Curve(4, 0)


@pytest.fixture(scope="module")
def flog_lemniscatic():
    return formal_logarithm(LEMNISCATIC, 60)


class TestLogQSeries:
    def test_additive_curve_single_term(self):
        fl = formal_logarithm(Curve(0, 0), 4)
        value, estimate = eval_log_qseries(fl, 1j, 4)
        q = math.exp(-2 * math.pi)
        assert abs(value - q) < 1e-18
        assert estimate == 0.0  # a(4) = 0 structurally

    def test_lemniscatic_at_i(self, flog_lemniscatic):
        q = math.exp(-2 * math.pi)
        for precision in (53, 150):
            value, _ = eval_log_qseries(flog_lemniscatic, 1j, 50, precision)
            assert abs(value - (q - 0.4 * q**5)) < 1e-17
            assert abs(value - q) / q < 1e-11  # equal to q through ~12 digits

    def test_cusp_limit(self, flog_lemniscatic):
        value, _ = eval_log_qseries(flog_lemniscatic, 50j, 50)
        assert abs(value) < 1e-130

    def test_half_plane_guard(self, flog_lemniscatic):
        for z in (0.5, -1j, 1.0 - 0.2j):
            with pytest.raises(HalfPlaneError):
                eval_log_qseries(flog_lemniscatic, z, 10)

    def test_order_guard(self, flog_lemniscatic):
        with pytest.raises(ValueError):
            eval_log_qseries(flog_lemniscatic, 1j, 61)

    @pytest.mark.parametrize("precision", (53, 150))
    @pytest.mark.parametrize("nmax", (0, -5))
    def test_nmax_below_one_refused(self, nmax, precision):
        # no q-series term to sum: refused by name, not summed from the end of
        # the table nor reported as a point at the cusp
        curve = Curve(F(-3, 7), F(5, 11))
        flog, z = formal_logarithm(curve, 40), 0.1 + 0.8j
        calls = (lambda: param_point(curve, flog, z, nmax, 20, precision),
                 lambda: derivative_check(curve, flog, z, 1e-4, nmax, 20, precision),
                 lambda: eval_log_qseries(flog, z, nmax, precision),
                 lambda: eval_cusp_qseries(flog, z, nmax, precision))
        for call in calls:
            with pytest.raises(ValueError, match=f"^nmax must be >= 1, got {nmax}$"):
                call()

    @pytest.mark.parametrize("precision", (53, 150))
    def test_bool_nmax_refused_by_name(self, precision):
        # True is an int equal to 1: taken as a count it sums one q-term
        curve = Curve(F(-3, 7), F(5, 11))
        flog, z = formal_logarithm(curve, 40), 0.3 + 0.9j
        calls = (lambda: param_point(curve, flog, z, True, 20, precision),
                 lambda: derivative_check(curve, flog, z, 1e-4, True, 20, precision),
                 lambda: eval_log_qseries(flog, z, True, precision),
                 lambda: eval_cusp_qseries(flog, z, True, precision))
        for call in calls:
            with pytest.raises(TypeError, match="^nmax must be a count, not bool$"):
                call()


class TestEvalWp:
    def test_pure_pole_exact(self):
        wp, wpp = eval_wp(Curve(0, 0), 0.1, 20)
        assert wp == 100.0
        assert wpp == -2000.0

    def test_two_term_expansion(self):
        wp, _ = eval_wp(LEMNISCATIC, 0.1, 20)
        assert abs(wp - 100.002) < 2e-8

    def test_differential_equation_inherited(self, rng):
        for _ in range(5):
            c = random_curve(rng)
            wp, wpp = eval_wp(c, 0.05 + 0.02j, 20)
            lhs = wpp * wpp
            rhs = 4 * wp**3 - float(c.g2) * wp - float(c.g3)
            assert abs(lhs - rhs) / abs(lhs) < 1e-12

    def test_pole_error(self):
        with pytest.raises(PoleError):
            eval_wp(LEMNISCATIC, 0.0, 20)

    def test_out_of_radius_refusal(self):
        radius = reliability_radius(LEMNISCATIC, 20)
        with pytest.raises(OutOfRadiusError):
            eval_wp(LEMNISCATIC, radius * 1.01, 20)
        eval_wp(LEMNISCATIC, radius * 0.5, 20)  # inside: no error

    def test_radius_infinite_for_pure_pole(self):
        assert reliability_radius(Curve(0, 0), 20) == math.inf

    @pytest.mark.parametrize("precision", (53, 150))
    def test_underflowing_coefficients_give_a_point(self, precision):
        curve = Curve(F(1, 10**400), 0)  # every c_k is below the smallest double
        res = param_point(curve, formal_logarithm(curve, 4), 0.1 + 0.8j, 4, 4, precision)
        assert res.relative_residual < 1e-13
        assert 1e98 < reliability_radius(curve, 4) < 1e99
        assert reliability_radius(Curve(F(1, 10**4000), 0), 2) == math.inf  # above the doubles

    @pytest.mark.parametrize("precision", (53, 150))
    def test_overflowing_coefficients_refused_with_the_radius(self, precision):
        curve = Curve(10**400, 0)  # every c_k is above the largest double
        with pytest.raises(OutOfRadiusError, match=r"radius 7\.67181e-102 at order 4$"):
            param_point(curve, formal_logarithm(curve, 4), 0.1 + 0.8j, 4, 4, precision)

    def test_log_coefficient_beyond_the_doubles_refused(self):
        curve = Curve(10**400, 0)
        flog = formal_logarithm(curve, 40)
        # at 53 bits float(a(5)/5) overflows in the q-series: named, not a bare OverflowError
        with pytest.raises(OverflowError, match=r"^log coefficient 5 is beyond the double "
                                                r"range; use --precision above 53$"):
            param_point(curve, flog, 0.1 + 0.8j, 40, 40)
        # at 150 bits |w| is past the doubles too, and is printed, not as inf
        with pytest.raises(OutOfRadiusError, match=r"^\|w\| = 8\.49167e\+3516 outside "
                                                   r"reliability radius 2\.44293e-100 at order 40$"):
            param_point(curve, flog, 0.1 + 0.8j, 40, 40, 150)

    def test_wp_coefficient_beyond_the_doubles_refused_by_its_index(self):
        curve = Curve(0, 28 * 10**200)  # c_6 ~ 2.6e398; q ~ 1e-35 and wp(w) ~ 1e69 fit a double
        flog = formal_logarithm(curve, 3)
        with pytest.raises(OverflowError, match=r"^wp coefficient c_6 is beyond the double "
                                                r"range; use --precision above 53$"):
            param_point(curve, flog, 0.1 + 12.8j, 3, 6)
        res = param_point(curve, flog, 0.1 + 12.8j, 3, 6, 80)
        assert 1e69 < abs(res.alpha) < 1e70 and res.relative_residual < 1e-20


class TestParamPoint:
    def test_residual_rounding_dominated_at_i(self, flog_lemniscatic):
        res = param_point(LEMNISCATIC, flog_lemniscatic, 1j, 50, 20)
        assert res.relative_residual < 1e-13
        assert abs(res.q - cmath.exp(2j * cmath.pi * 1j)) < 1e-18

    def test_residual_rounding_dominated_off_axis(self, flog_lemniscatic):
        res = param_point(LEMNISCATIC, flog_lemniscatic, 0.3 + 0.9j, 50, 20)
        assert res.relative_residual < 1e-13

    def test_exact_residual_at_high_precision(self, flog_lemniscatic):
        """The same points satisfy the curve equation far below double rounding."""
        for z in (1j, 0.3 + 0.9j):
            res = param_point(LEMNISCATIC, flog_lemniscatic, z, 50, 20, precision=150)
            assert float(res.residual) < 1e-25

    def test_periodicity(self, flog_lemniscatic):
        a = param_point(LEMNISCATIC, flog_lemniscatic, 0.3 + 0.9j, 50, 20)
        b = param_point(LEMNISCATIC, flog_lemniscatic, 1.3 + 0.9j, 50, 20)
        assert abs(a.alpha - b.alpha) / abs(a.alpha) < 1e-12
        assert abs(a.beta - b.beta) / abs(a.beta) < 1e-12

    def test_refusal_near_real_axis(self, flog_lemniscatic):
        with pytest.raises(OutOfRadiusError):
            param_point(LEMNISCATIC, flog_lemniscatic, 0.01j, 50, 20)

    def test_randomized_curves_land_on_curve(self, rng):
        for _ in range(5):
            c = random_curve(rng)
            fl = formal_logarithm(c, 50)
            res = param_point(c, fl, 0.1 + 1.1j, 50, 20)
            assert res.relative_residual < 1e-13

    @pytest.mark.parametrize("z", [20j, 100j, 1e300j])
    def test_near_cusp_refused_in_double_precision(self, flog_lemniscatic, z):
        # q underflows (1e300j) or wp(w) ~ q^-2 overflows (20j, 100j)
        with pytest.raises(OverflowError, match=r"Im\(z\) = .*--precision"):
            param_point(LEMNISCATIC, flog_lemniscatic, z, 50, 20)
        res = param_point(LEMNISCATIC, flog_lemniscatic, z, 50, 20, precision=150)
        fields = (res.q, res.w, res.alpha, res.beta, res.residual)
        assert res.q != 0 and all(mpmath.isfinite(v) for v in fields)

    def test_precision_below_53_refused(self, flog_lemniscatic):
        # below 53 bits the arithmetic would be double, and the result would claim less
        with pytest.raises(ValueError, match=r"^precision must be at least 53 bits, got 52$"):
            param_point(LEMNISCATIC, flog_lemniscatic, 1j, 50, 20, precision=52)

    def test_log_of_other_curve_rejected(self, flog_lemniscatic):
        with pytest.raises(ValueError, match="different curve"):
            param_point(Curve(-7, 13), flog_lemniscatic, 1j, 50, 20)

    def test_degenerate_curve_pure_pole_structure(self):
        c = Curve(0, 0)
        fl = formal_logarithm(c, 4)
        res = param_point(c, fl, 1j, 4, 5)
        assert abs(res.alpha - 1 / res.w**2) < 1e-20
        assert abs(res.beta + 2 / res.w**3) < 1e-14


class TestDerivativeCheck:
    def test_lemniscatic_at_i(self, flog_lemniscatic):
        report = derivative_check(LEMNISCATIC, flog_lemniscatic, 1j, 1e-4, nmax=50)
        assert report.relative_deviation < 1e-6

    def test_quadratic_convergence(self, flog_lemniscatic):
        big = derivative_check(LEMNISCATIC, flog_lemniscatic, 1j, 1e-4, nmax=50)
        small = derivative_check(LEMNISCATIC, flog_lemniscatic, 1j, 5e-5, nmax=50)
        ratio = big.relative_deviation / small.relative_deviation
        assert 2.5 < ratio < 6.0  # O(h^2): halving h shrinks deviation ~4x

    def test_degenerate_curve(self):
        # alpha = w^-2 so alpha' = -2 w^-3 w' and the identity still holds
        c = Curve(0, 0)
        fl = formal_logarithm(c, 8)
        report = derivative_check(c, fl, 1j, 1e-4, nmax=8)
        assert report.relative_deviation < 1e-6

    def test_cusp_series_is_weight_two_sum(self, flog_lemniscatic):
        q = cmath.exp(2j * cmath.pi * 1j)
        total = sum(
            float(a) * q**n
            for n, a in enumerate(flog_lemniscatic.an[:50], start=1)
            if a
        )
        for precision in (53, 150):
            got = eval_cusp_qseries(flog_lemniscatic, 1j, 50, precision)
            assert abs(got - total) < 1e-18

    def test_h_validation(self, flog_lemniscatic):
        for h in (0.0, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^h must be positive and finite, got {h}$"):
                derivative_check(LEMNISCATIC, flog_lemniscatic, 1j, h)

    def test_bool_h_refused_by_name(self, flog_lemniscatic):
        # True is an int of value 1, which would pass as a step of 1.0
        with pytest.raises(TypeError, match="^h must be a step, not bool$"):
            derivative_check(LEMNISCATIC, flog_lemniscatic, 1j, True)


class TestOneExpansionPerEvaluation:
    """Each evaluation asks for its exact wp expansion once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        build = numeric_eval.wp_coefficients

        def counting(curve, order):
            counted.append(order)
            return build(curve, order)

        monkeypatch.setattr(numeric_eval, "wp_coefficients", counting)
        return counted

    def test_param_point(self, flog_lemniscatic, calls):
        param_point(LEMNISCATIC, flog_lemniscatic, 0.3 + 0.9j, 50, 20)
        assert calls == [20]

    def test_eval_wp(self, calls):
        eval_wp(LEMNISCATIC, 0.1, 20)
        assert calls == [20]

    def test_refused_param_point(self, flog_lemniscatic, calls):
        with pytest.raises(OutOfRadiusError):
            param_point(LEMNISCATIC, flog_lemniscatic, 0.01j, 50, 20)
        assert calls == [20]

    def test_derivative_check(self, flog_lemniscatic, calls):
        derivative_check(LEMNISCATIC, flog_lemniscatic, 1j, 1e-4, nmax=50)
        assert calls == [20]

    def test_one_build_for_every_evaluation(self, flog_lemniscatic):
        wp = numeric_eval.wp_coefficients
        wp.cache_clear()
        param_point(LEMNISCATIC, flog_lemniscatic, 0.3 + 0.9j, 50, 20)
        with pytest.raises(OutOfRadiusError):
            param_point(LEMNISCATIC, flog_lemniscatic, 0.01j, 50, 20)
        derivative_check(LEMNISCATIC, flog_lemniscatic, 1j, 1e-4, nmax=50, order=20)
        eval_wp(LEMNISCATIC, 0.1, 20)
        reliability_radius(LEMNISCATIC, 20)
        assert wp.cache_info().misses == 1


def _fields(result) -> tuple:
    """Every field of a result as its repr: equal reprs are equal bits."""
    return tuple(repr(getattr(result, f.name)) for f in dataclasses.fields(result))


class TestConversionTables:
    """Each formal log and wp expansion is converted once per working precision,
    and the converted tables live as long as their exact objects."""

    @given(curve=CURVE_FAMILIES)
    def test_repeated_calls_match_fresh_objects(self, curve):
        z = 0.1 + 0.8j
        for precision in (53, 150):
            calls = (lambda flog: param_point(curve, flog, z, 12, 12, precision),
                     lambda flog: derivative_check(curve, flog, z, 1e-4, 12, 12, precision))
            flog = formal_logarithm(curve, 12)
            for call in calls:
                call(flog)  # fills the tables
                again = _fields(call(flog))
                # a new log and an unmemoized expansion: no table exists for either
                unmemoized = wp_coefficients.__wrapped__
                with mock.patch.object(numeric_eval, "wp_coefficients", unmemoized):
                    fresh = _fields(call(formal_logarithm(curve, 12)))
                assert again == fresh

    @pytest.mark.parametrize("precision", (53, 150))
    def test_second_call_converts_nothing(self, flog_lemniscatic, monkeypatch, precision):
        converted = []
        rational = numeric_eval._Numerics.rational
        monkeypatch.setattr(numeric_eval._Numerics, "rational",
                            lambda num, q: converted.append(q) or rational(num, q))
        curve, flog, z = LEMNISCATIC, flog_lemniscatic, 0.3 + 0.9j
        calls = (lambda: param_point(curve, flog, z, 50, 20, precision),
                 lambda: derivative_check(curve, flog, z, 1e-4, 50, 20, precision),
                 lambda: eval_wp(curve, 0.1, 20, precision),
                 lambda: eval_log_qseries(flog, z, 50, precision),
                 lambda: eval_cusp_qseries(flog, z, 50, precision))
        for call in calls:
            call()
            converted.clear()
            call()
            assert converted == []

    def test_wp_table_is_correctly_rounded_at_150_bits(self):
        """Each c_k and (2k - 2) c_k is its exact quotient rounded once to 150
        bits, not the numerator rounded first and the quotient again, nor the
        rounded c_k times 2k - 2 rounded again."""
        libmp = mpmath.libmp

        def reference(q):
            return libmp.from_rational(q.numerator, q.denominator, 150, libmp.round_nearest)

        for (dc, c), term in _wp_table(150):
            assert (term[0]._mpf_, term[1]._mpf_) == (reference(dc), reference(c)), c

    def test_wp_table_is_correctly_rounded_at_53_bits(self):
        for (dc, c), term in _wp_table(53):
            assert term == (float(dc), float(c)), c

    def test_tables_die_with_their_objects(self):
        curve = Curve(-7, 13)
        flog = formal_logarithm(curve, 20)
        wp_coefficients.cache_clear()
        for precision in (53, 150):
            derivative_check(curve, flog, 0.1 + 0.8j, 1e-4, 20, 20, precision)
        ids = id(flog), id(wp_coefficients(curve, 20))
        held = [key for key in numeric_eval._TABLES if key[0] in ids]
        assert len(held) == 8  # log, cusp, wp and (g2, g3), at each precision
        del flog
        wp_coefficients.cache_clear()  # the memo held the only other reference
        gc.collect()
        assert not [key for key in numeric_eval._TABLES if key[0] in ids]

    def test_overflow_refusals_repeat(self):
        curve = Curve(10**400, 0)
        flog = formal_logarithm(curve, 40)
        for _ in range(2):  # the second call reads the cut table, and refuses alike
            with pytest.raises(OverflowError, match=r"^log coefficient 5 is beyond the double "):
                param_point(curve, flog, 0.1 + 0.8j, 40, 40)
        with pytest.raises(OutOfRadiusError, match=r"^\|w\| = 8\.49167e\+3516 outside"):
            param_point(curve, flog, 0.1 + 0.8j, 40, 40, 150)
        with pytest.raises(OutOfRadiusError, match=r"radius 7\.67181e-102 at order 4$"):
            param_point(curve, flog, 0.1 + 0.8j, 4, 4)  # coefficient 5 is not read


def _wp_table(precision: int):
    """Pairs of ((2k - 2) c_k, c_k), exact, and the ``_wp_terms`` entry, for
    the nonzero c_k of (-3/7, 5/11) at order 40; a zero c_k must be None."""
    exp = wp_coefficients(Curve(F(-3, 7), F(5, 11)), 40)
    num = numeric_eval._Numerics(precision)
    with num.workprec():
        terms = numeric_eval._wp_terms(num, exp)
    pairs = [((2 * k - 2) * c, c) for k, c in enumerate(exp.c, 2)]
    assert all(term is None for (_, c), term in zip(pairs, terms, strict=True) if not c)
    return [(pair, term) for pair, term in zip(pairs, terms) if pair[1]]
