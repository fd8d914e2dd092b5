import cmath
import math

import mpmath
import pytest

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
)
from conftest import random_curve

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
        with pytest.raises(ValueError):
            derivative_check(LEMNISCATIC, flog_lemniscatic, 1j, 0.0)


class TestOneExpansionPerEvaluation:
    """Each evaluation builds its exact wp expansion once."""

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
        assert calls == [20, 20, 20]
