import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

import ellformal
from ellformal import cli, formal_group, weierstrass
from ellformal import (
    Curve,
    UniSeries,
    WpExpansion,
    differential_equation_residual,
    wp_coefficients,
)
from conftest import CURVE_FAMILIES, random_curve


class TestCurve:
    def test_coercion(self):
        c = Curve("7/3", 2)
        assert c.g2 == F(7, 3) and isinstance(c.g3, F)


def _weights_by_fractions(curve: Curve) -> tuple:
    """Reference: u = lcm(den A, den B) for A = -g2/4, B = -g3/4, and the
    integers a = u^4 A, b = u^6 B, each numerator scaled up to u."""
    qa, qb = -curve.g2 / 4, -curve.g3 / 4
    u = math.lcm(qa.denominator, qb.denominator)
    a = qa.numerator * (u // qa.denominator) * u**3
    b = qb.numerator * (u // qb.denominator) * u**5
    return u, a, b


class TestWeights:
    """The curve's integral model (u, a, b), read lazily and not a field."""

    @given(curve=CURVE_FAMILIES)
    @example(curve=Curve(F(-3, 7**101), F(5, 11)))  # a tall curve
    @example(curve=Curve(F(1, 10**4000), 0))
    def test_matches_reference(self, curve):
        u, a, b = curve.weights
        assert (u, a, b) == _weights_by_fractions(curve)
        assert type(u) is type(a) is type(b) is int
        assert (a, b) == (-curve.g2 / 4 * u**4, -curve.g3 / 4 * u**6)

    def test_read_once(self):
        curve = Curve(F(-3, 7), F(5, 11))
        first = curve.weights
        assert first == (308, 964197696, -97011144186880) and curve.weights is first

    def test_not_a_field(self):
        # equality, the hash (the wp_coefficients memo key) and the repr see (g2, g3) only
        read, fresh = Curve(F(-3, 7), F(5, 11)), Curve(F(-3, 7), F(5, 11))
        assert read.weights[0] == 308
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) == "Curve(g2=-3/7, g3=5/11)"
        expansion = wp_coefficients(read, 12)
        hits = wp_coefficients.cache_info().hits
        assert wp_coefficients(fresh, 12) is expansion
        assert wp_coefficients.cache_info().hits == hits + 1


class TestWpCoefficients:
    def test_zero_invariants_give_pure_pole(self):
        exp = wp_coefficients(Curve(0, 0), 10)
        assert all(exp.coefficient(k) == 0 for k in range(2, 11))

    def test_seed_coefficients(self):
        c = Curve(F(7, 3), F(-5, 2))
        exp = wp_coefficients(c, 4)
        assert exp.coefficient(2) == c.g2 / 20
        assert exp.coefficient(3) == c.g3 / 28
        assert exp.coefficient(4) == c.g2**2 / 1200

    def test_order_validation(self):
        with pytest.raises(ValueError):
            wp_coefficients(Curve(4, 0), 1)

    def test_differential_equation_randomized(self, rng):
        """Master check: (wp')^2 - 4 wp^3 + g2 wp + g3 vanishes identically."""
        for _ in range(12):
            assert differential_equation_residual(random_curve(rng), 20) == UniSeries(40)

    @pytest.mark.parametrize("order", (2, 3))
    def test_differential_equation_at_low_orders(self, order):
        # the g3 z^6 term lies outside the order-2 window (z^4) and is clipped
        residual = differential_equation_residual(Curve(-7, 13), order)
        assert residual == UniSeries(2 * order)

    def test_scaling_covariance(self, rng):
        lam = F(2, 3)
        for _ in range(5):
            c = random_curve(rng)
            scaled = Curve(lam**4 * c.g2, lam**6 * c.g3)
            base = wp_coefficients(c, 9)
            stretched = wp_coefficients(scaled, 9)
            for k in range(2, 10):
                assert stretched.coefficient(k) == lam ** (2 * k) * base.coefficient(k)

    def test_denominators_positive(self, rng):
        exp = wp_coefficients(random_curve(rng), 15)
        assert all(exp.coefficient(k).denominator > 0 for k in range(2, 16))

    @given(curve=CURVE_FAMILIES, order=st.integers(2, 60))
    @example(curve=Curve(F(-3, 7), F(5, 11)), order=2)  # no pair, the seeds alone
    @example(curve=Curve(F(-3, 7), F(5, 11)), order=3)
    @example(curve=Curve(F(-3, 7), F(5, 11)), order=4)  # one middle term
    @example(curve=Curve(0, 0), order=60)  # every pair is zero
    @example(curve=Curve(F(-3, 7), F(5, 11)), order=120)
    def test_matches_fraction_recurrence(self, curve, order):
        expected = WpExpansion(curve, order, _wp_by_fraction_recurrence(curve, order))
        assert wp_coefficients(curve, order) == expected


def _wp_by_fraction_recurrence(curve: Curve, order: int) -> tuple:
    """Reference: c_2..c_order, summing every product c_j c_(k-j) as a Fraction."""
    c = [F(0)] * (order + 1)
    c[2] = curve.g2 / 20
    if order >= 3:
        c[3] = curve.g3 / 28
    for k in range(4, order + 1):
        acc = F(0)
        for j in range(2, k - 1):
            acc += c[j] * c[k - j]
        c[k] = 3 * acc / ((2 * k + 1) * (k - 3))
    return tuple(c[2:])


class TestLaurentExpansions:
    """The bodies z^2 wp and z^3 wp' of one expansion (valuations -2 and -3)."""

    def test_pure_pole(self):
        wp = wp_coefficients(Curve(0, 0), 5)
        assert wp.body() == UniSeries.one(10)
        assert wp.prime_body() == UniSeries(10, (-2,))

    def test_leading_terms_generic(self, rng):
        for _ in range(5):
            wp = wp_coefficients(random_curve(rng), 4)
            assert wp.body()[0] == 1
            assert wp.prime_body()[0] == -2

    def test_wp_prime_low_order_terms(self):
        c = Curve(3, 5)
        q = wp_coefficients(c, 6).prime_body()
        assert q[4] == c.g2 / 10  # z^1 of wp'
        assert q[6] == c.g3 / 7   # z^3 of wp'

    def test_parity(self, rng):
        wp = wp_coefficients(random_curve(rng), 8)
        for body in (wp.body(), wp.prime_body()):
            assert body.order == 16
            assert not any(body.coeffs[1::2])

    def test_bodies_read_off_the_coefficients(self, rng):
        wp = wp_coefficients(random_curve(rng), 9)
        p, q = wp.body(), wp.prime_body()
        assert p.coeffs[0:4:2] == (1, 0) and p.coeffs[4::2] == wp.c
        assert q.coeffs == tuple((i - 2) * c for i, c in enumerate(p.coeffs))


def _eisenstein(curve: Curve, k: int) -> F:
    """G_k read off the shortest expansion that holds c_(k//2)."""
    return wp_coefficients(curve, max(2, k // 2)).eisenstein(k)


class TestEisensteinAndHurwitz:
    def test_odd_weights_vanish(self):
        c = Curve(3, 5)
        assert _eisenstein(c, 5) == 0
        assert _eisenstein(c, 7) == 0

    def test_low_weight_rejected(self):
        c = Curve(3, 5)
        for k in (3, 2, 0, -4):
            with pytest.raises(ValueError):
                _eisenstein(c, k)

    def test_hurwitz_values(self):
        # the elliptic Bernoulli analogue 2k G_k, as the bernoulli command prints it
        c4 = Curve(4, 0)
        assert 8 * _eisenstein(c4, 4) == 2 * c4.g2 / 5
        c = Curve(3, 5)
        assert 12 * _eisenstein(c, 6) == 36 * c.g3 / 7
        assert 14 * _eisenstein(c, 7) == 0

    def test_consistency_with_expansion(self, rng):
        c = random_curve(rng)
        exp = wp_coefficients(c, 8)
        for k in (4, 6, 8, 10, 12, 14, 16):
            expected = math.factorial(k - 2) * exp.coefficient(k // 2) / 2
            assert _eisenstein(c, k) == expected

    def test_expansion_reads_weights_four_and_six(self):
        assert _eisenstein(Curve(4, 0), 4) == F(4, 20)  # c_2 = g2/20
        assert _eisenstein(Curve(3, 5), 6) == 3 * F(5) / 7  # 4! c_3 / 2 = 12 g3/28

    def test_expansion_gives_zero_at_odd_weights(self):
        wp = wp_coefficients(Curve(3, 5), 4)
        assert [wp.eisenstein(k) for k in (5, 7, 9)] == [0, 0, 0]

    def test_expansion_refuses_low_weight_and_weight_past_it(self):
        wp = wp_coefficients(Curve(3, 5), 3)
        for k in (3, 2, 0, -4):
            with pytest.raises(ValueError, match="^Eisenstein values need weight k >= 4$"):
                wp.eisenstein(k)
        with pytest.raises(IndexError, match=r"^c_4 outside computed range 2\.\.3$"):
            wp.eisenstein(8)

    @pytest.mark.parametrize("sign,failing", ((1, 0), (-1, 31)))
    def test_hurwitz_theorem_on_lemniscatic_curve(self, sign, failing):
        # Hurwitz (Math. Ann. 51, 1899): on (4, 0) let H_n = c_(2n) 4n (4n-2)! / 2^(4n).
        # H_n - 1/2 - sum (2a)^(4n/(p-1)) / p is an integer, over the primes
        # p = 1 (mod 4) with (p - 1) | 4n, where p = a^2 + b^2 and a + bi is
        # primary: a + bi = 1 (mod 2 + 2i), i.e. b even and a + b = 1 (mod 4).
        # The other sign of a breaks it for 31 of the n <= 40.
        primary = {}
        for p in range(5, 162, 4):
            if all(p % d for d in range(2, math.isqrt(p) + 1)):
                b, a = next((b, math.isqrt(p - b * b)) for b in range(0, p, 2)
                            if math.isqrt(p - b * b) ** 2 == p - b * b)
                primary[p] = sign * (a if (a + b) % 4 == 1 else -a)
        c = wp_coefficients(Curve(4, 0), 80).c  # c[k - 2] = c_k
        hurwitz = [c[2 * n - 2] * 4 * n * math.factorial(4 * n - 2) / 2 ** (4 * n)
                   for n in range(1, 41)]
        assert hurwitz[:3] == [F(1, 10), F(3, 10), F(567, 130)]
        defects = [n for n, h in enumerate(hurwitz, 1)
                   if (h - F(1, 2) - sum(F((2 * a) ** (4 * n // (p - 1)), p)
                                         for p, a in primary.items()
                                         if 4 * n % (p - 1) == 0)).denominator != 1]
        assert len(defects) == failing


class TestOneExpansion:
    """A command or check that reads wp through c_n expands it once."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        counted, original = [], weierstrass.wp_coefficients

        def counting(*args):
            counted.append(args)
            return original(*args)

        for binding in (ellformal, cli, formal_group, weierstrass):  # every binding, as the benchmark's spans
            if vars(binding).get("wp_coefficients") is original:
                monkeypatch.setattr(binding, "wp_coefficients", counting)
        return counted

    def test_residual_expands_once(self, expansions):
        assert differential_equation_residual(Curve(-7, 13), 20) == UniSeries(40)
        assert len(expansions) == 1

    def test_bernoulli_command_expands_once(self, expansions, capsys):
        argv = ["bernoulli", "--g2=-7", "--g3=13", "--order=40", "--format=json"]
        assert cli.main(argv) == 0
        assert expansions == [(Curve(-7, 13), 20)]  # c_20 for every 2k*G_k; the exponential builds none
        values = json.loads(capsys.readouterr().out)["bernoulli_hurwitz"]
        wp = wp_coefficients(Curve(-7, 13), 20)  # 2k G_k off one expansion
        assert [v["k"] for v in values] == list(range(4, 41))
        assert all(F(v["value"]) == 2 * v["k"] * wp.eisenstein(v["k"]) for v in values)


class TestMemo:
    """wp_coefficients keeps the last 16 expansions, keyed by (curve, order)."""

    @given(curves=st.lists(CURVE_FAMILIES, min_size=2, max_size=3), order=st.integers(2, 40))
    def test_memo_gives_a_fresh_build(self, curves, order):
        # several curves at one order: each must get its own expansion
        for curve in curves:
            assert wp_coefficients(curve, order) == wp_coefficients.__wrapped__(curve, order)

    def test_spellings_of_one_curve_share_an_entry(self):
        wp_coefficients.cache_clear()
        first = wp_coefficients(Curve(4, 0), 10)
        assert wp_coefficients(Curve(F(8, 2), F(0)), 10) is first
        info = wp_coefficients.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_bound(self):
        wp_coefficients.cache_clear()
        for order in range(2, 19):  # 17 distinct orders
            wp_coefficients(Curve(-7, 13), order)
        info = wp_coefficients.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (16, 16, 17)

    @pytest.mark.parametrize("order", (20.0, True, F(20), "20"))
    def test_order_of_another_type_refused_before_and_after_an_int_call(self, order):
        # 20.0 and F(20) equal 20 and hash like it: the memo must not hand them its entry
        name = type(order).__name__
        wp_coefficients.cache_clear()
        with pytest.raises(TypeError, match=f"^order must be an int, not {name}$"):
            wp_coefficients(Curve(4, 0), order)
        wp_coefficients(Curve(4, 0), 20)
        with pytest.raises(TypeError, match=f"^order must be an int, not {name}$"):
            wp_coefficients(Curve(4, 0), order)
