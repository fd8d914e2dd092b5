import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from ellformal import (
    BiSeries,
    CompositionDomainError,
    NonUnitDivisorError,
    OrderMismatchError,
    ReversionDomainError,
    UniSeries,
    bi_substitute,
    divided_difference,
)
from conftest import random_rational, random_unit_series

BOTH = pytest.mark.parametrize("cls", (UniSeries, BiSeries), ids=("uni", "bi"))
_ENTRY = st.sampled_from((0, 1, -1, 2, F(1, 2), F(-2, 3)))


def _rows(s) -> tuple:
    return (s.coeffs,) if isinstance(s, UniSeries) else s.rows


def _zipped(a, b, op) -> tuple:
    """The rows of a and b combined entry by entry."""
    return tuple(tuple(map(op, ra, rb)) for ra, rb in zip(_rows(a), _rows(b)))


def _sample(cls, order: int, rng):
    """A dense random UniSeries or BiSeries of the given order, not zero."""
    rows = [[random_rational(rng) for _ in range(order - i + 1)] for i in range(order + 1)]
    rows[0][0] = F(1)
    return UniSeries(order, rows[0]) if cls is UniSeries else BiSeries(order, rows)


class TestRingOps:
    def test_monomial_product(self):
        t = UniSeries(4, (0, 1))
        assert t * t == UniSeries(4, (0, 0, 1))

    def test_difference_of_squares(self):
        one = UniSeries.one(4)
        t = UniSeries(4, (0, 1))
        assert (one + t) * (one - t) == UniSeries(4, (1, 0, -1))

    def test_geometric_square(self):
        # (sum T^k)^2 has coefficient k+1 at T^k
        s = UniSeries(3, (1, 1, 1, 1))
        assert s * s == UniSeries(3, (1, 2, 3, 4))

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            UniSeries.one(3) + UniSeries.one(4)
        with pytest.raises(OrderMismatchError):
            UniSeries.one(3) * UniSeries.one(4)

    def test_scalar_multiply(self):
        t = UniSeries(3, (0, 1))
        assert 2 * t == UniSeries(3, (0, 2))
        assert t * F(1, 2) == UniSeries(3, (0, F(1, 2)))

    def test_truncation_window_is_strict(self):
        s = UniSeries(2, (1, 2, 3))
        with pytest.raises(IndexError):
            s[3]
        with pytest.raises(ValueError):
            UniSeries(1, (1, 2, 3))

    def test_immutability(self):
        s = UniSeries(2, (1, 2, 3))
        with pytest.raises(AttributeError):
            s.order = 5

    # -- the shared ring core, on both series types ---------------------

    @BOTH
    def test_subtraction(self, rng, cls):
        a, b = _sample(cls, 4, rng), _sample(cls, 4, rng)
        assert _rows(a - b) == _zipped(a, b, lambda x, y: x - y)
        assert a - b == a + (-1) * b

    @BOTH
    @pytest.mark.parametrize("c", (3, F(-2, 5), 0))
    def test_scalar_on_both_sides(self, rng, cls, c):
        a = _sample(cls, 3, rng)
        assert c * a == a * c
        assert _rows(c * a) == _zipped(a, a, lambda x, _: c * x)
        assert all(type(x) is F for row in _rows(c * a) for x in row)

    @BOTH
    def test_order_mismatch_on_add_and_sub(self, cls):
        with pytest.raises(OrderMismatchError):
            cls(3) + cls(4)
        with pytest.raises(OrderMismatchError):
            cls(3) - cls(4)

    @BOTH
    def test_immutability_error_names_the_type(self, cls):
        s = cls(2)
        for name in ("order", "anything"):
            with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
                setattr(s, name, 5)

    @BOTH
    def test_zero_series(self, rng, cls):
        z = cls(3)
        assert z.order == 3 and not any(map(any, _rows(z)))
        a = _sample(cls, 3, rng)
        assert a != z and a - a == z
        last = UniSeries(3, (0, 0, 0, 1)) if cls is UniSeries else BiSeries(3, ((), (), (), (1,)))
        assert last != z
        assert cls(3) != cls(4)

    @pytest.mark.parametrize("build", (
        lambda: UniSeries(1, (1, 2, 3)),
        lambda: UniSeries(-1),
        lambda: BiSeries(1, ((1,), (2,), (3,))),
        lambda: BiSeries(2, ((1,), (1, 2, 3))),
        lambda: BiSeries(-1),
    ), ids=("uni-too-long", "uni-negative-order", "bi-too-many-rows", "bi-row-too-long",
            "bi-negative-order"))
    def test_constructor_refusals(self, build):
        with pytest.raises(ValueError):
            build()

    def test_types_do_not_mix(self):
        assert (UniSeries(2) == BiSeries(2)) is False
        assert UniSeries(2) != BiSeries(2)
        assert UniSeries(0, (1,)) != BiSeries.constant(0, 1)  # the same rows, other types
        assert UniSeries(2) != 0 and BiSeries(2) != "0"
        with pytest.raises(TypeError):
            UniSeries(2) + BiSeries(2)
        with pytest.raises(TypeError):
            BiSeries(2) - UniSeries(2)


class TestExactCoefficients:
    """Integer rows stay integer where the value is one; a coefficient is
    always an int or a Fraction, and any other type is refused."""

    A = UniSeries(4, (1, 2, 3, 4, 5))

    @staticmethod
    def _exact(series) -> bool:
        return all(type(c) in (int, F) for row in _rows(series) for c in row)

    def test_integer_rows_stay_integer(self):
        a, t = self.A, UniSeries(4, (0, 1))
        for s in (a + a, a - a, (-1) * a, 3 * a, a * a, a.compose(t * t), UniSeries(4)):
            assert all(type(c) is int for c in s.coeffs)
        m = divided_difference(a)
        assert all(type(c) is int for row in (m * m).rows for c in row)

    def test_division_by_series_with_constant_term_4(self):
        d = UniSeries(4, (4, 1))
        q = self.A / d
        assert self._exact(q) and q.coeffs[0] == F(1, 4)
        assert q * d == self.A

    def test_division_by_unit_series_stays_integer(self):
        d = UniSeries(4, (1, -3, 0, 2))
        q = self.A / d
        assert all(type(c) is int for c in q.coeffs)
        assert q * d == self.A

    def test_reverse_of_integer_series(self):
        g = UniSeries(4, (0, 1, 1)).reverse()
        assert g.coeffs == (0, 1, -1, 2, -5) and all(type(c) is int for c in g.coeffs)
        assert self._exact(UniSeries(4, (0, 1, 0, 1)).reverse())

    def test_other_types_refused(self):
        builds = (lambda v: UniSeries(2, (0, v)), lambda v: BiSeries(2, ((0,), (1, v))),
                  lambda v: BiSeries.constant(1, v))
        for value in (True, 1.0, "1", Decimal(1), 1j):
            name = type(value).__name__
            for build in builds:
                with pytest.raises(TypeError, match=f"not {name}$"):
                    build(value)


class TestDivision:
    def test_geometric_series(self):
        assert UniSeries.one(3) / UniSeries(3, (1, -1)) == UniSeries(3, (1, 1, 1, 1))

    def test_one_plus_t_over_one_plus_t_squared(self):
        q = UniSeries(4, (1, 1)) / UniSeries(4, (1, 0, 1))
        assert q == UniSeries(4, (1, 1, -1, -1, 1))

    def test_non_unit_divisor_rejected(self):
        with pytest.raises(NonUnitDivisorError):
            UniSeries.one(3) / UniSeries(3, (0, 1))

    def test_divisor_must_be_a_series(self):
        # a scalar quotient is a product: s * Fraction(1, c)
        for scalar in (2, F(2, 3)):
            with pytest.raises(TypeError):
                UniSeries.one(3) / scalar

    def test_mul_div_roundtrip_randomized(self, rng):
        for _ in range(25):
            n = rng.randint(1, 12)
            a = UniSeries(n, [random_rational(rng) for _ in range(n + 1)])
            b = UniSeries(n, [random_rational(rng) for _ in range(n + 1)])
            if b.coeffs[0] == 0:
                continue
            assert (a * b) / b == a


class TestCompose:
    def test_square_of_inner(self):
        outer = UniSeries(4, (0, 0, 1))
        inner = UniSeries(4, (0, 1, 1))
        assert outer.compose(inner) == UniSeries(4, (0, 0, 1, 2, 1))

    def test_identity_inner(self):
        f = UniSeries(5, (3, 1, 4, 1, 5, 9))
        assert f.compose(UniSeries(5, (0, 1))) == f

    def test_geometric_composed_with_square(self):
        geo = UniSeries.one(6) / UniSeries(6, (1, -1))
        assert geo.compose(UniSeries(6, (0, 0, 1))) == UniSeries(
            6, (1, 0, 1, 0, 1, 0, 1)
        )

    def test_nonzero_constant_inner_rejected(self):
        with pytest.raises(CompositionDomainError):
            UniSeries(3, (0, 1)).compose(UniSeries.one(3))

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            UniSeries(3, (0, 1)).compose(UniSeries(4, (0, 1)))
        with pytest.raises(CompositionDomainError):  # domain checked at equal orders
            UniSeries(0, (5,)).compose(UniSeries(0, (1,)))

    @pytest.mark.parametrize("n", [*range(21), 35, 36, 37])
    @pytest.mark.parametrize("valuation", (1, 2))
    def test_matches_horner(self, rng, n, valuation):
        # k = isqrt(n) + 1 changes at n = 36, so 35..37 straddle a block size
        outer = UniSeries(n, [random_rational(rng) for _ in range(n + 1)])
        inner = UniSeries(n, [
            0 if k < valuation else (random_rational(rng) or 1) for k in range(n + 1)
        ])
        assert outer.compose(inner) == _horner_compose(outer, inner)

    @pytest.mark.parametrize("n", (0, 1, 7, 36, 37))
    def test_zero_and_sparse_outer_match_horner(self, rng, n):
        inner = UniSeries(n, [0] + [random_rational(rng) for _ in range(n)])
        zero = UniSeries(n)
        assert zero.compose(inner) == zero == _horner_compose(zero, inner)
        sparse = UniSeries(n, [random_rational(rng) if k % 5 == 3 else 0 for k in range(n + 1)])
        assert sparse.compose(inner) == _horner_compose(sparse, inner)

    def test_product_count_at_order_60(self, rng, monkeypatch):
        outer = UniSeries(60, [random_rational(rng) for _ in range(61)])
        inner = random_unit_series(rng, 60)
        mul, calls = UniSeries.__mul__, []

        def counting(a, b):
            calls.append(b)
            return mul(a, b)

        monkeypatch.setattr(UniSeries, "__mul__", counting)
        outer.compose(inner)
        # baby-step/giant-step: 7 powers and 7 giant steps; Horner made 60
        assert len(calls) <= 16


def _horner_compose(outer: UniSeries, inner: UniSeries) -> UniSeries:
    """Reference composition: n full products, Horner style."""
    n = outer.order
    result = UniSeries(n, (outer.coeffs[n],))
    for k in range(n - 1, -1, -1):
        result = result * inner + UniSeries(n, (outer.coeffs[k],))
    return result


class TestReverse:
    def test_identity(self):
        assert UniSeries(5, (0, 1)).reverse() == UniSeries(5, (0, 1))

    def test_t_plus_t_squared(self):
        # inverse coefficients are signed Catalan numbers 1, -1, 2, -5
        assert UniSeries(4, (0, 1, 1)).reverse() == UniSeries(4, (0, 1, -1, 2, -5))

    def test_exp_minus_one_reverts_to_log(self):
        f = UniSeries(6, [0] + [F(1, math.factorial(k)) for k in range(1, 7)])
        expected = UniSeries(6, [0] + [F((-1) ** (k - 1), k) for k in range(1, 7)])
        assert f.reverse() == expected

    def test_domain_errors(self):
        with pytest.raises(ReversionDomainError):
            UniSeries(3, (1, 1)).reverse()
        with pytest.raises(ReversionDomainError):
            UniSeries(3, (0, 2)).reverse()

    def test_roundtrip_randomized(self, rng):
        for _ in range(15):
            n = rng.randint(2, 14)
            f = random_unit_series(rng, n)
            g = f.reverse()
            t = UniSeries(n, (0, 1))
            assert f.compose(g) == t
            assert g.compose(f) == t
            assert g.reverse() == f

    def test_determinism(self, rng):
        f = random_unit_series(rng, 10)
        assert f.reverse() == f.reverse()


class TestBiSeries:
    def test_triangular_storage(self):
        b = BiSeries(3, ((1,),))
        assert b[0, 0] == 1
        with pytest.raises(IndexError):
            b[2, 2]

    def test_mul_truncates_total_degree(self):
        t1 = BiSeries.variable(2, 1)
        t2 = BiSeries.variable(2, 2)
        p = (t1 + t2) * (t1 + t2)
        assert p[2, 0] == 1 and p[1, 1] == 2 and p[0, 2] == 1

    def test_reciprocal(self, rng):
        for _ in range(8):
            n = rng.randint(1, 8)
            rows = [
                [random_rational(rng) for _ in range(n - i + 1)] for i in range(n + 1)
            ]
            rows[0][0] = random_rational(rng) or F(1)
            d = BiSeries(n, rows)
            assert d * d.reciprocal() == BiSeries.constant(n, 1)

    def test_reciprocal_needs_unit(self):
        with pytest.raises(NonUnitDivisorError):
            BiSeries.variable(3, 1).reciprocal()

    @pytest.mark.parametrize("c", (1, 2, F(3, 5), -1), ids=("1", "2", "3/5", "-1"))
    @settings(max_examples=10)
    @given(n=st.integers(0, 18), entries=st.lists(_ENTRY, max_size=189))
    @example(n=0, entries=[])
    @example(n=18, entries=[1, -1] * 95)
    def test_reciprocal_matches_newton(self, c, n, entries):
        # entries fill the triangle above the constant term row by row, zeros after
        cells = [(i, j) for i in range(n + 1) for j in range(n - i + 1)][1:]
        rows = [[0] * (n - i + 1) for i in range(n + 1)]
        rows[0][0] = c
        for (i, j), x in zip(cells, entries):
            rows[i][j] = x
        d = BiSeries(n, rows)
        # values, not types: a coefficient that cancels may be Fraction(0) on one side
        assert d.reciprocal() == _reciprocal_by_newton(d)

    def test_repr_is_a_summary(self):
        assert repr(UniSeries(2, (1, 0, 1))) == "UniSeries(order=2, 2 nonzero terms)"
        assert repr(BiSeries(2, ((0, 3), (F(1, 2),)))) == "BiSeries(order=2, 2 nonzero terms)"

    def test_swap_and_slice(self):
        b = BiSeries(2, ((0, 1, 2), (3, 4), (5,)))
        sw = b.swap()
        assert sw[1, 0] == 1 and sw[0, 1] == 3 and sw[2, 0] == 2
        assert b.at_t2_zero() == UniSeries(2, (0, 3, 5))


class TestDividedDifference:
    def test_square(self):
        d = divided_difference(UniSeries(3, (0, 0, 1)))
        assert d.order == 2
        assert d[1, 0] == 1 and d[0, 1] == 1
        assert d[0, 0] == 0 and d[2, 0] == 0

    def test_cube(self):
        d = divided_difference(UniSeries(4, (0, 0, 0, 1)))
        assert all(d[i, 2 - i] == 1 for i in range(3))

    def test_cube_plus_seventh(self):
        d = divided_difference(UniSeries(8, (0, 0, 0, 1, 0, 0, 0, 1)))
        for i in range(7):
            assert d[i, 6 - i] == 1
        for i in range(3):
            assert d[i, 2 - i] == 1
        assert d[3, 1] == 0

    def test_t2_zero_slice_matches_difference_quotient(self, rng):
        for _ in range(10):
            n = rng.randint(1, 10)
            f = UniSeries(n, [random_rational(rng) for _ in range(n + 1)])
            d = divided_difference(f)
            # (f(t1) - f(0)) / t1 read coefficient-wise
            for i in range(d.order + 1):
                assert d[i, 0] == f.coeffs[i + 1]

    def test_symmetry(self, rng):
        f = UniSeries(9, [random_rational(rng) for _ in range(10)])
        d = divided_difference(f)
        assert d == d.swap()


class TestBiSubstitute:
    def test_linear(self):
        lin = BiSeries.variable(3, 1) + BiSeries.variable(3, 2)
        assert bi_substitute(UniSeries(3, (0, 1)), lin) == lin

    def test_square_binomial(self):
        lin = BiSeries.variable(3, 1) + BiSeries.variable(3, 2)
        sq = bi_substitute(UniSeries(3, (0, 0, 1)), lin)
        assert sq[2, 0] == 1 and sq[1, 1] == 2 and sq[0, 2] == 1

    def test_cubic_multinomial(self):
        lin = BiSeries.variable(3, 1) + BiSeries.variable(3, 2)
        got = bi_substitute(UniSeries(3, (0, 1, 0, 1)), lin)
        expected = lin + lin * lin * lin
        assert got == expected

    def test_rejects_nonzero_constant(self):
        with pytest.raises(CompositionDomainError):
            bi_substitute(UniSeries(2, (0, 1)), BiSeries.constant(2, 1))

    @pytest.mark.parametrize("n", [*range(13), 15, 16, 17])
    @pytest.mark.parametrize("valuation", (1, 2))
    def test_matches_horner(self, rng, n, valuation):
        # k = isqrt(n) + 1 changes at n = 16; the outer series is cut to order
        # n + 3, n and n // valuation (below n when valuation is 2, still exact)
        inner = _random_bi(rng, n, valuation)
        outer = UniSeries(n + 3, [random_rational(rng) for _ in range(n + 4)])
        expected = _horner_bi_substitute(outer, inner)
        for order in (n + 3, n, n // valuation):
            assert bi_substitute(UniSeries(order, outer.coeffs[: order + 1]), inner) == expected

    @pytest.mark.parametrize("n", (0, 1, 7, 16, 17))
    def test_zero_and_sparse_outer_match_horner(self, rng, n):
        inner = _random_bi(rng, n, 1)
        zero = UniSeries(n)
        assert bi_substitute(zero, inner) == BiSeries(n) == _horner_bi_substitute(zero, inner)
        sparse = UniSeries(n, [random_rational(rng) if k % 5 == 3 else 0 for k in range(n + 1)])
        assert bi_substitute(sparse, inner) == _horner_bi_substitute(sparse, inner)

    def test_product_count_at_degree_18(self, rng, monkeypatch):
        outer = UniSeries(18, [random_rational(rng) for _ in range(19)])
        inner = _random_bi(rng, 18, 1)
        mul, calls = BiSeries.__mul__, []

        def counting(a, b):
            calls.append(b)
            return mul(a, b)

        monkeypatch.setattr(BiSeries, "__mul__", counting)
        bi_substitute(outer, inner)
        # baby-step/giant-step: 4 powers and 3 giant steps; Horner made 18
        assert len(calls) <= 8

    def test_outer_order_too_low_refused(self):
        # T^2, T^3 of outer are unknown and would land at total degree 2 and 3
        lin = BiSeries.variable(3, 1) + BiSeries.variable(3, 2)
        with pytest.raises(OrderMismatchError):
            bi_substitute(UniSeries(1, (0, 1)), lin)
        # valuation 2: outer order 1 leaves degree 4 unknown, order 2 does not
        lin4 = BiSeries.variable(4, 1) + BiSeries.variable(4, 2)
        sq4 = lin4 * lin4
        with pytest.raises(OrderMismatchError):
            bi_substitute(UniSeries(1, (0, 1)), sq4)
        assert bi_substitute(UniSeries(2, (0, 1)), sq4) == sq4


class TestFromUni:
    def test_embeds_either_variable(self):
        f = UniSeries(3, (1, 2, 3, 4))
        assert BiSeries.from_uni(f, 2, 1) == BiSeries(2, ((1,), (2,), (3,)))
        assert BiSeries.from_uni(f, 2, 2) == BiSeries(2, ((1, 2, 3),))

    def test_short_series_refused(self):
        f = UniSeries(2, (1, 2, 3))
        for which in (1, 2):
            with pytest.raises(OrderMismatchError):
                BiSeries.from_uni(f, 3, which)


def _reciprocal_by_newton(d: BiSeries) -> BiSeries:
    """Reference: Newton's iteration inv <- inv (2 - d inv) from 1/c, which
    doubles the number of correct total degrees at each step."""
    n = d.order
    inv = BiSeries.constant(n, F(1) / d[0, 0])
    two = BiSeries.constant(n, 2)
    correct = 1
    while correct <= n:
        inv = inv * (two - d * inv)
        correct *= 2
    return inv


def _random_bi(rng, n: int, valuation: int) -> BiSeries:
    """A random polynomial with terms from total degree ``valuation`` to ``valuation + 3``.

    Its powers still fill every degree of the window; small entries and few
    terms keep the degree-17 Horner reference cheap.
    """
    rows = [[random_rational(rng, 2) if 0 <= i + j - valuation <= 3 else 0
             for j in range(n - i + 1)]
            for i in range(n + 1)]
    if valuation <= n:
        rows[valuation][0] = rows[valuation][0] or F(1)
    return BiSeries(n, rows)


def _horner_bi_substitute(outer: UniSeries, inner: BiSeries) -> BiSeries:
    """Reference substitution: one full product per outer coefficient, Horner style."""
    n = inner.order
    top = min(outer.order, n)
    result = BiSeries.constant(n, outer.coeffs[top])
    for k in range(top - 1, -1, -1):
        result = result * inner
        ck = outer.coeffs[k]
        if ck:
            result = result + BiSeries.constant(n, ck)
    return result
