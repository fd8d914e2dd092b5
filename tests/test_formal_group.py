import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

import ellformal
from ellformal import cli, formal_group, lseries, numeric_eval, weierstrass
from ellformal.series import _combination
from ellformal import (
    BiSeries,
    Curve,
    GroupLaw,
    UniSeries,
    coordinate_pullback,
    divided_difference,
    formal_exponential,
    formal_logarithm,
    group_law_closed_form,
    group_law_exp_log,
    s_coordinate,
    universal_bernoulli,
    verify_axioms,
    wp_coefficients,
)
from conftest import CURVE_FAMILIES, random_curve, random_rational

NAMED_CURVES = (Curve(4, 0), Curve(-7, 13), Curve(F(-3, 7), F(5, 11)))
# weights u = 1, 4, 308 and 72 (the primes 2 and 3)
WEIGHTED_CURVES = (*NAMED_CURVES, Curve(F(5, 6), F(-7, 9)))


class TestFormalExponential:
    def test_additive_case(self):
        fe = formal_exponential(Curve(0, 0), 30)
        assert fe.series == UniSeries(30, (0, 1))

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

    # the chord ODE against the -2*wp/wp' Laurent quotient it replaced
    @given(curve=CURVE_FAMILIES, order=st.integers(1, 60))
    @example(curve=Curve(-7, 13), order=1)
    @example(curve=Curve(-7, 13), order=2)
    @example(curve=Curve(-7, 13), order=3)
    @example(curve=Curve(0, 0), order=40)
    @example(curve=Curve(F(-3, 7), F(5, 11)), order=61)
    def test_matches_wp_quotient(self, curve, order):
        fexp = formal_exponential(curve, order)
        assert fexp.curve == curve
        assert fexp.series == _exponential_by_wp_quotient(curve, order)
        assert all(type(c) is F for c in fexp.series.coeffs)

    def test_order_validated(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            formal_exponential(Curve(4, 0), 0)


def _exponential_by_wp_quotient(curve: Curve, order: int) -> UniSeries:
    """Reference: -2*wp/wp' through T^order, cleared of poles as
    T * (-2 T^2 wp) / (T^3 wp'), from wp through c_((order + 1) // 2)."""
    n = max(2, (order + 1) // 2)
    wp = wp_coefficients(curve, n)
    quot = (-2 * wp.body()) / wp.prime_body()
    return UniSeries(order, (0,) + quot.coeffs[:order])


class TestFormalLogarithm:
    def test_additive_case(self):
        fl = formal_logarithm(Curve(0, 0), 12)
        assert fl.series == UniSeries(12, (0, 1))
        assert fl.a(1) == 1
        assert all(fl.a(n) == 0 for n in range(2, 13))

    def test_first_coefficients(self, rng):
        for _ in range(5):
            c = random_curve(rng)
            fl = formal_logarithm(c, 8)
            assert fl.a(1) == 1
            assert fl.a(5) == -c.g2 / 2
            assert fl.a(7) == -3 * c.g3 / 4

    def test_lemniscatic_value(self):
        fl = formal_logarithm(Curve(4, 0), 10)
        assert fl.a(5) == -2 and fl.a(7) == 0
        assert all(fl.a(n) == 0 for n in range(2, 11, 2))

    def test_roundtrip_randomized(self, rng):
        for _ in range(6):
            c = random_curve(rng)
            fe = formal_exponential(c, 20)
            fl = formal_logarithm(c, 20)
            t = UniSeries(20, (0, 1))
            assert fe.series.compose(fl.series) == t
            assert fl.series.compose(fe.series) == t

    def test_oddness(self, rng):
        fl = formal_logarithm(random_curve(rng), 21)
        assert all(fl.a(n) == 0 for n in range(2, 22, 2))

    @pytest.mark.parametrize(
        "curve", NAMED_CURVES + (Curve(0, 0),), ids=lambda c: f"{c.g2},{c.g3}"
    )
    @pytest.mark.parametrize("order", (1, 2, 3, 12, 61))
    def test_matches_reversion_of_exponential(self, curve, order):
        fexp = formal_exponential(curve, order)
        flog = formal_logarithm(curve, order)
        reverted = fexp.series.reverse()
        assert flog.series == reverted
        assert all(reverted.coeffs[k] == 0 for k in range(0, order + 1, 2))
        assert all(
            flog.an[n - 1] == n * flog.series.coeffs[n] for n in range(1, order + 1)
        )

    def test_order_validated(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            formal_logarithm(Curve(4, 0), 0)

    def test_a_outside_computed_range(self):
        fl = formal_logarithm(Curve(4, 0), 5)
        with pytest.raises(IndexError):
            fl.a(6)

    def test_curve_without_order_refused(self):
        with pytest.raises(TypeError, match=r"formal_logarithm\(curve, order\) needs an order"):
            formal_logarithm(Curve(4, 0))

    @pytest.mark.parametrize("curve", NAMED_CURVES, ids=lambda c: f"{c.g2},{c.g3}")
    def test_exponential_form_reads_curve_and_order(self, curve):
        # perfbench/workloads.py still calls formal_logarithm(fexp)
        fexp = formal_exponential(curve, 30)
        assert formal_logarithm(fexp) == formal_logarithm(curve, 30)


class TestOneLogRoute:
    """The log is read off the closed form of the invariant differential by
    one integer kernel, not by W, reversion or a series division; W comes
    from the core alone.  Nothing that needs only the log builds the
    exponential or its wp, and the exponential reads no wp either."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        bindings = (ellformal, cli, formal_group, lseries, numeric_eval, weierstrass, UniSeries)
        for home, name in ((UniSeries, "reverse"), (UniSeries, "__truediv__"),
                           (formal_group, "s_coordinate"), (formal_group, "_integer_core"),
                           (formal_group, "_log_core"), (formal_group, "formal_logarithm"),
                           (formal_group, "formal_exponential"),
                           (weierstrass, "wp_coefficients")):
            original = vars(home)[name]

            def counting(*args, name=name, original=original, **kwargs):
                counted.append(name)
                return original(*args, **kwargs)

            for binding in bindings:  # every binding, as the benchmark's spans
                if vars(binding).get(name) is original:
                    monkeypatch.setattr(binding, name, counting)
        return counted

    def test_counts(self, calls):
        formal_logarithm(Curve(-7, 13), 97)
        assert calls == ["_log_core"]  # no W, no s_coordinate, no series division

    def test_exponential_reads_no_wp(self, calls):
        formal_group.formal_exponential(Curve(-7, 13), 97)
        assert calls == ["formal_exponential"]  # no wp_coefficients, no series division

    def test_s_coordinate_runs_the_core(self, calls):
        formal_group.s_coordinate(Curve(-7, 13), 40)
        assert calls == ["s_coordinate", "_integer_core"]

    @pytest.mark.parametrize("argv,expected", (
        (("honda", "--g2=-7", "--g3=13", "--pmax=97"), ("_log_core",)),  # a(p) only, no log
        (("expand", "--g2=-7", "--g3=13", "--order=40", "--what=an"),
         ("formal_logarithm", "_log_core")),
        (("expand", "--g2=-7", "--g3=13", "--order=40", "--what=fl"),
         ("formal_logarithm", "_log_core")),
        (("param", "--g2=-7", "--g3=13", "--z=0.1,0.8", "--order=30"),
         ("formal_logarithm", "_log_core", "wp_coefficients")),  # wp for the point, not for an exp
        (("grouplaw", "--g2=-7", "--g3=13", "--order=18"),  # no Fraction log: L~' for the flow,
         ("_log_core", "_integer_core", "__truediv__")),  # W and G's one division for the closed form
    ), ids=" ".join)
    def test_log_commands_build_no_exponential(self, calls, capsys, argv, expected):
        assert cli.main(list(argv)) == 0
        assert tuple(calls) == expected

    def test_pullback_solves_s_once(self, calls):
        coordinate_pullback(Curve(-7, 13), 40)
        # W from the core, log' from the closed form; the three exact divisions
        # are by (2h + 2)! v~^2 (the scaled unit's square), by the scaled log'
        # (wp' by the chain rule) and by the chart's W
        assert calls == (["_integer_core", "_log_core", "wp_coefficients"]
                         + ["__truediv__"] * 3)


class TestIntegerCore:
    """The weight-scaled integer route against the Fraction recurrence it
    replaced; reversion of the exponential stays the independent check."""

    @given(curve=CURVE_FAMILIES, order=st.integers(1, 40))
    @example(curve=Curve(0, 0), order=40)  # singular examples drawn on every run
    @example(curve=Curve(3, 1), order=40)
    @example(curve=Curve(F(4, 3), F(-8, 27)), order=40)
    def test_log_and_s_match_fraction_recurrence(self, curve, order):
        s = s_coordinate(curve, order + 2)
        assert s.series == _s_by_fraction_recurrence(curve, order + 2)
        flog = formal_logarithm(curve, order)
        assert flog.an == _an_by_division(s.series, order)
        assert flog.series.coeffs == (0, *(a / n for n, a in enumerate(flog.an, 1)))

    @pytest.mark.parametrize("g2,g3,u", ((4, 0, 1), (-7, 13, 4), (F(-3, 7), F(5, 11), 308),
                                         (F(5, 6), F(-7, 9), 72), (0, 0, 1)))
    def test_scaled_values_are_integers(self, g2, g3, u):
        w = formal_group._integer_core(Curve(g2, g3), 30)
        an = formal_group._log_core(Curve(g2, g3), range(30))
        assert Curve(g2, g3).weights[0] == u
        assert all(type(v) is int for v in w + an)
        flog = formal_logarithm(Curve(g2, g3), 59)
        assert [flog.a(2 * i + 1) * u ** (2 * i) for i in range(30)] == an


def _s_by_fraction_recurrence(curve: Curve, order: int) -> UniSeries:
    """Reference: s = t^3 w with w = 1 - (g2/4) t^4 w^2 - (g3/4) t^6 w^3 solved
    one Fraction coefficient at a time over running lists of w^2 and w^3."""
    w, sq, cube = [F(1)], [], []
    for k in range(1, order - 2):
        sq.append(sum(w[i] * w[k - 1 - i] for i in range(k)))
        cube.append(sum(w[i] * sq[k - 1 - i] for i in range(k)))
        wk = F(0)
        if k >= 4:
            wk -= curve.g2 / 4 * sq[k - 4]
        if k >= 6:
            wk -= curve.g3 / 4 * cube[k - 6]
        w.append(wk)
    return UniSeries(order, (0, 0, 0, *w))


def _an_by_division(s: UniSeries, order: int) -> tuple:
    """Reference: a(n) = [t^(n-1)] (2w + t w') / (2w) with s = t^3 w."""
    w = UniSeries(order - 1, s.coeffs[3 : order + 3])
    numer = UniSeries(order - 1, [(k + 2) * c for k, c in enumerate(w.coeffs)])
    return (numer / (2 * w)).coeffs


class TestClosedFormLog:
    """The log's closed form, u^(2k) a(2k + 1) = [x^(2k)] (x^3 + a x + b)^k,
    against the W route: the invariant differential read off s = t^3 w by a
    series division.  The two share only the weights."""

    @given(curve=CURVE_FAMILIES, order=st.integers(1, 200))
    @example(curve=Curve(4, 0), order=200)  # b = 0: only l = 0 survives
    @example(curve=Curve(0, 5), order=200)  # a = 0: only j = 0 survives
    @example(curve=Curve(0, 0), order=200)
    @example(curve=Curve(53568, 4321728), order=200)  # 11a, the short model scaled by 6
    def test_matches_w_route(self, curve, order):
        flog = formal_logarithm(curve, order)
        assert flog.an == _an_by_division(s_coordinate(curve, order + 2).series, order)
        assert flog.series.coeffs == (0, *(a / n for n, a in enumerate(flog.an, 1)))

    def test_kernel_takes_any_indices(self):
        values = formal_group._log_core(Curve(F(-3, 7), F(5, 11)), range(40))
        assert formal_group._log_core(Curve(F(-3, 7), F(5, 11)), [39, 2, 17]) == [
            values[39], values[2], values[17]]
        assert formal_group._log_core(Curve(4, 0), []) == []


class TestExpLogInverse:
    @given(curve=CURVE_FAMILIES, order=st.integers(1, 24))
    def test_exp_and_log_compose_to_identity(self, curve, order):
        fexp, flog = formal_exponential(curve, order), formal_logarithm(curve, order)
        t = UniSeries(order, (0, 1))
        assert fexp.series.compose(flog.series) == t
        assert flog.series.compose(fexp.series) == t


class TestUnscale:
    """Every univariate route leaves its weight-scaled integers through
    ``_unscale``, one Fraction and one reduction per coefficient."""

    @pytest.mark.parametrize("u", (1, 308, 2**40))
    @pytest.mark.parametrize("first", (0, 1, 3))
    def test_matches_reference(self, u, first):
        values = [1, 0, -7, 3**50, 0, -(2**70) + 1]
        dens = [1, 6, 5, 2**33, 11, math.factorial(11)]
        length = first + 2 * len(values) + 1
        for divisors in (dens, None):
            got = formal_group._unscale(u, values, length, first=first, dens=divisors)
            expected = [F(0)] * length
            for i, v in enumerate(values):
                expected[first + 2 * i] = F(v) / (dens[i] if divisors else 1) / F(u) ** (2 * i)
            assert got == expected
            assert all(type(c) is F for c in got)

    @pytest.mark.parametrize("order", (1, 2, 9, 40))
    def test_exponential_makes_one_fraction_per_coefficient(self, order, monkeypatch):
        made = []
        monkeypatch.setattr(formal_group, "Fraction", lambda *args: made.append(args) or F(*args))
        fexp = formal_exponential(Curve(F(-3, 7), F(5, 11)), order)
        assert len(made) == (order + 1) // 2
        monkeypatch.undo()
        assert fexp == formal_exponential(Curve(F(-3, 7), F(5, 11)), order)


class TestUniversalBernoulli:
    def test_constant_term(self, rng):
        ub = universal_bernoulli(formal_exponential(random_curve(rng), 3).series, 2)
        assert ub[0] == 1

    def test_curve_values(self, rng):
        for _ in range(5):
            c = random_curve(rng)
            ub = universal_bernoulli(formal_exponential(c, 9).series, 8)
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
            universal_bernoulli(fe.series, 5)

    def test_order_zero_series_refused_by_its_order(self):
        # an order-0 series has no T^1 to read: its order is checked first
        with pytest.raises(ValueError, match="^need series order >= 1 to get 1 coefficients$"):
            universal_bernoulli(UniSeries(0, (0,)), 0)

    @pytest.mark.parametrize("coeffs", ((1, 1), (0, 0, 1)), ids=("constant-term", "no-linear-term"))
    def test_series_not_c_t_refused(self, coeffs):
        with pytest.raises(ValueError, match=r"^need f = c\*T \+ O\(T\^2\) with c != 0$"):
            universal_bernoulli(UniSeries(3, coeffs), 2)


class TestSCoordinate:
    def test_additive_case(self):
        s = s_coordinate(Curve(0, 0), 12).series
        assert s == UniSeries(12, (0, 0, 0, 1))

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
            cube = UniSeries(order, (0, 0, 0, 1))
            ts = UniSeries(order, (0, *s.coeffs[:order]))  # t s
            rhs = cube - (c.g2 / 4) * (ts * s) - (c.g3 / 4) * (s * s * s)
            assert s == rhs

    def test_consistency_with_wp_prime_pullback(self, rng):
        # s(t) = -2 / wp'(log-series(t)) is the y-side pullback identity
        pb = coordinate_pullback(random_curve(rng), 15)
        assert pb.y_pullback == pb.y_coords


class TestGroupLaws:
    def test_additive_law(self):
        c = Curve(0, 0)
        lin = BiSeries.variable(10, 1) + BiSeries.variable(10, 2)
        assert group_law_exp_log(c, 10).series == lin
        assert group_law_closed_form(c, 10).series == lin

    @pytest.mark.parametrize("order", (-1, 0, 1))
    @pytest.mark.parametrize("build", (group_law_exp_log, group_law_closed_form),
                             ids=lambda f: f.__name__)
    def test_order_below_two_refused(self, build, order):
        # one order rule for both constructions, the bound of grouplaw --order
        with pytest.raises(ValueError, match="^order must be >= 2$"):
            build(Curve(1, 1), order)

    def test_degree_five_slice(self):
        """Leading correction (g2/10)[(t1+t2)^5 - t1^5 - t2^5] for both builds."""
        c = Curve(4, 0)
        for law in (group_law_exp_log(c, 6), group_law_closed_form(c, 6)):
            series = law.series  # F is unscaled on each read
            assert series[4, 1] == c.g2 / 2
            assert series[3, 2] == c.g2
            assert series[2, 3] == c.g2
            assert series[1, 4] == c.g2 / 2
            assert series[5, 0] == 0

    def test_neutrality_slice(self, rng):
        c = random_curve(rng)
        law = group_law_exp_log(c, 8)
        assert law.series.at_t2_zero() == UniSeries(8, (0, 1))

    def test_constructor_equivalence_randomized(self, rng):
        for _ in range(6):
            c = random_curve(rng)
            assert (
                group_law_exp_log(c, 9).series
                == group_law_closed_form(c, 9).series
            )

    @pytest.mark.parametrize("order", (2, 3, 4, 5, 6, 9, 18))
    @pytest.mark.parametrize("curve", (*NAMED_CURVES, Curve(0, 0), Curve(1, 1)),
                             ids=lambda c: f"{c.g2},{c.g3}")
    def test_closed_form_matches_reciprocal_formula(self, curve, order):
        # at orders 2..5, G(x) is cut below x^3 (order // 2 < 3)
        assert group_law_closed_form(curve, order).series == _closed_form_by_reciprocal(curve, order)

    def test_closed_form_products_at_degree_18(self, monkeypatch):
        mul, calls, reciprocals = BiSeries.__mul__, [], []

        def counting(a, b):
            calls.append(b)
            return mul(a, b)

        monkeypatch.setattr(BiSeries, "__mul__", counting)
        monkeypatch.setattr(BiSeries, "reciprocal", lambda d: reciprocals.append(d))
        group_law_closed_form(Curve(-7, 13), 18)
        # 3 powers and 2 giant steps of m, then b*G(m); t2*m is a shift of m's rows,
        # not a product; the reciprocal route made 16
        assert not reciprocals
        assert len(calls) <= 6

    @pytest.mark.parametrize("curve", WEIGHTED_CURVES, ids=lambda c: f"{c.g2},{c.g3}")
    def test_closed_form_runs_on_integers(self, curve, monkeypatch):
        reference = _law_by_exp_log(curve, 18)
        operands = _record_operands(monkeypatch, BiSeries, "__mul__")
        divisions = _record_operands(monkeypatch, UniSeries, "__truediv__")
        assert group_law_closed_form(curve, 18).series == reference
        # F~ = F(u t1, u t2) / u is built from integer s~ and G~ and unscaled once
        assert len(operands) <= 6 and len(divisions) == 1
        assert all(_integer_rows(x) for pair in operands + divisions for x in pair)

    def test_provenances(self):
        c = Curve(1, 1)
        assert group_law_exp_log(c, 5).provenance == "exp-log"
        assert group_law_closed_form(c, 5).provenance == "buchstaber-bunkova"


def _law_by_exp_log(curve: Curve, order: int) -> BiSeries:
    return group_law_exp_log(curve, order).series


def _record_operands(monkeypatch, cls, name: str) -> list:
    """Patch cls.name to record its (self, other) pairs; returns the record."""
    original, calls = vars(cls)[name], []

    def recording(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(cls, name, recording)
    return calls


def _integer_rows(x) -> bool:
    """True for a series whose every entry, padding included, is an int."""
    rows = x.rows if isinstance(x, BiSeries) else (x.coeffs,)
    return all(type(c) is int for row in rows for c in row)


def _closed_form_by_reciprocal(curve: Curve, order: int) -> BiSeries:
    """Reference: t1 + t2 - b*m*(2 g2 + 3 g3 m) * (4 - g2 m^2 - g3 m^3)^(-1)."""
    s = s_coordinate(curve, order + 1).series
    m = divided_difference(s)
    b = BiSeries.from_uni(s, order, 2) - BiSeries.variable(order, 2) * m
    m2 = m * m
    numer = BiSeries.constant(order, 2 * curve.g2) + 3 * curve.g3 * m
    denom = BiSeries.constant(order, 4) - curve.g2 * m2 - curve.g3 * (m2 * m)
    correction = b * m * numer * denom.reciprocal()
    return BiSeries.variable(order, 1) + BiSeries.variable(order, 2) - correction


class TestAxioms:
    def test_additive_law_passes(self):
        lin = BiSeries.variable(12, 1) + BiSeries.variable(12, 2)
        report = verify_axioms(GroupLaw(Curve(0, 0), lin, "exp-log"))  # u = 1: F~ = F
        assert report.passed and report.order == 12

    def test_lemniscatic_law_order_nine(self):
        c = Curve(4, 0)
        report = verify_axioms(group_law_exp_log(c, 9))
        assert report.neutral and report.commutative and report.associative

    def test_corrupted_law_fails_associativity(self):
        c = Curve(4, 0)
        law = group_law_exp_log(c, 9)
        rows = [list(row) for row in law.scaled.rows]  # u = 1: F~ = F
        rows[4][1] += 1
        corrupted = GroupLaw(c, BiSeries(9, rows), "exp-log")
        report = verify_axioms(corrupted)
        assert not report.associative
        assert not report.passed

    def test_neutral_commutative_corruption_fails_associativity_only(self):
        c = Curve(4, 0)
        law = group_law_exp_log(c, 9)
        rows = [list(row) for row in law.scaled.rows]  # u = 1: F~ = F
        rows[3][2] += 1
        rows[2][3] += 1
        report = verify_axioms(GroupLaw(c, BiSeries(9, rows), "exp-log"))
        assert report.neutral and report.commutative
        assert not report.associative

    @pytest.mark.parametrize("curve", NAMED_CURVES, ids=lambda c: f"{c.g2},{c.g3}")
    def test_sides_match_trivariate_reference(self, curve):
        lhs, rhs = _sides_checked_against_reference(group_law_closed_form(curve, 10).series)
        assert lhs == rhs

    def test_sides_match_trivariate_reference_on_dense_series(self, rng):
        # the curve laws are odd, so their even-degree terms (the top degree
        # at degree 10 among them) vanish; a dense series fills every degree
        n = 8
        law = BiSeries(n, [[random_rational(rng) if i + j else 0 for j in range(n - i + 1)]
                           for i in range(n + 1)])
        lhs, rhs = _sides_checked_against_reference(law)
        assert lhs != rhs

    def test_product_count_at_degree_18(self, monkeypatch):
        law = group_law_closed_form(Curve(-7, 13), 18)
        mul, calls = BiSeries.__mul__, []

        def counting(a, b):
            calls.append(b)
            return mul(a, b)

        monkeypatch.setattr(BiSeries, "__mul__", counting)
        assert verify_axioms(law).passed
        # P(F) at outer order 17: 4 baby steps and 3 giant steps; then dF/dt1 * P(t1)
        assert len(calls) == 8

    @pytest.mark.parametrize("curve", WEIGHTED_CURVES, ids=lambda c: f"{c.g2},{c.g3}")
    def test_axiom_products_run_on_integers(self, curve, monkeypatch):
        law = group_law_exp_log(curve, 18)
        assert law.series == _law_by_exp_log(curve, 18) and not _integer_rows(law.series)
        operands = _record_operands(monkeypatch, BiSeries, "__mul__")
        assert verify_axioms(law).passed
        # the check reads F~ = F(u t1, u t2) / u, the integer law the law holds
        assert 0 < len(operands) <= 8
        assert all(_integer_rows(x) for pair in operands for x in pair)

    def test_asymmetric_series_fails_commutativity(self):
        rows = [[0, 1], [1]]
        rows[0][1] = 1
        b = BiSeries(2, ((0, 1, 1), (1, 0), (0,)))
        report = verify_axioms(GroupLaw(Curve(0, 0), b, "exp-log"))  # u = 1: F~ = F
        assert not report.commutative


# In each side of associativity one argument is a bare variable, so both are
# scalar combinations of the bivariate powers F^0 .. F^n:
#   F(t1, F(t2, t3)): the t1^i slice is sum_j f_ij F(t2, t3)^j,
#   F(F(t1, t2), t3): the t3^j slice is sum_i f_ij F(t1, t2)^i.
# Both sides are expanded in full, truncated by total degree, and compared.


def _associativity_sides(series: BiSeries) -> tuple:
    """Reference: F(t1, F(t2, t3)) and F(F(t1, t2), t3) as
    {(e1, e2, e3): nonzero coefficient}, from the bivariate powers of F."""
    n = series.order
    powers = [BiSeries.constant(n, 1), series]
    while len(powers) <= n:
        powers.append(powers[-1] * series)
    lhs, rhs = {}, {}
    for x, (row, col) in enumerate(zip(series.rows, series.swap().rows)):
        # the t1^x (t3^x) slice is kept through total degree n - x
        lhs.update(((x, a, b), c) for a, b, c in _combination(row, powers).terms() if a + b <= n - x)
        rhs.update(((a, b, x), c) for a, b, c in _combination(col, powers).terms() if a + b <= n - x)
    return lhs, rhs


def _tri_mul(a: dict, b: dict, n: int) -> dict:
    out = {}
    for (i1, j1, k1), ca in a.items():
        for (i2, j2, k2), cb in b.items():
            if i1 + j1 + k1 + i2 + j2 + k2 <= n:
                key = (i1 + i2, j1 + j2, k1 + k2)
                out[key] = out.get(key, 0) + ca * cb
    return out


def _tri_evaluate(law: BiSeries, x: dict, y: dict) -> dict:
    """Reference: law(x, y) for trivariate dicts, every monomial multiplied out."""
    n = law.order
    xs, ys = [{(0, 0, 0): F(1)}], [{(0, 0, 0): F(1)}]
    for _ in range(n):
        xs.append(_tri_mul(xs[-1], x, n))
        ys.append(_tri_mul(ys[-1], y, n))
    out = {}
    for i, j, c in law.terms():
        for key, v in _tri_mul(xs[i], ys[j], n).items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def _sides_checked_against_reference(law: BiSeries) -> tuple:
    """Both associativity sides, each asserted equal to the trivariate reference."""
    t1, t3 = {(1, 0, 0): F(1)}, {(0, 0, 1): F(1)}
    f12 = {(i, j, 0): c for i, j, c in law.terms()}
    f23 = {(0, i, j): c for i, j, c in law.terms()}
    lhs, rhs = _associativity_sides(law)
    assert lhs == _tri_evaluate(law, t1, f23)
    assert rhs == _tri_evaluate(law, f12, t3)
    return lhs, rhs


class TestIntegerLaw:
    """Both laws held as the weight-scaled integer law F~, compared and
    checked on it, against the Fraction routes they replaced; F is unscaled
    from F~ only when read."""

    @given(curve=CURVE_FAMILIES, order=st.integers(2, 12))
    @example(curve=Curve(0, 0), order=12)  # singular examples drawn on every run
    @example(curve=Curve(3, 1), order=12)
    @example(curve=Curve(F(4, 3), F(-8, 27)), order=12)
    def test_closed_form_matches_fraction_routes(self, curve, order):
        law = group_law_closed_form(curve, order)
        assert law.series == _closed_form_by_reciprocal(curve, order)
        assert law.series == _law_by_exp_log(curve, order)
        assert _integer_rows(law.scaled)  # F(u t1, u t2) / u

    @given(curve=CURVE_FAMILIES, order=st.integers(2, 12), data=st.data())
    def test_axioms_match_fraction_check(self, curve, order, data):
        law = group_law_exp_log(curve, order)
        assert law.series == _law_by_exp_log(curve, order)
        report = verify_axioms(law)
        assert report.passed and report == _axioms_by_fraction(law.series)
        i = data.draw(st.integers(0, order), label="i")
        j = data.draw(st.integers(0, order - i), label="j")
        delta = data.draw(st.sampled_from((1, -1, F(1, 2), F(-5, 7), F(3, 308))), label="delta")
        # F~ + delta t1^i t2^j is F + u delta / u^(i + j) t1^i t2^j: the
        # reference reads the same corrupted law through its series
        rows = [list(row) for row in law.scaled.rows]
        rows[i][j] += delta
        corrupted = GroupLaw(curve, BiSeries(order, rows), "exp-log")
        report, reference = verify_axioms(corrupted), _axioms_by_fraction(corrupted.series)
        if i + j >= 2:
            assert report == reference
        else:
            # a perturbed linear part or constant term breaks F(0, t2) = t2 or
            # F = t1 + t2 + O(2), which the differential check presumes: it says
            # False where the expanded sides may not (F = t1 is associative)
            assert (report.neutral, report.commutative) == (reference.neutral, reference.commutative)
            assert not report.associative and not report.passed
        if i != j:  # the law was symmetric
            assert not report.commutative and not report.passed

    @given(curve=CURVE_FAMILIES, order=st.integers(4, 24), data=st.data())
    def test_symmetric_perturbation_fails_associativity(self, curve, order, data):
        i = data.draw(st.integers(0, order), label="i")
        j = data.draw(st.integers(max(0, 2 - i), order - i), label="j")
        corrupted = _bumped_closed_form(curve, order, i, j)
        report = verify_axioms(corrupted)
        assert report.commutative
        if {i, j} in ({1}, {1, 2}):
            # t1 t2 and t1 t2 (t1 + t2) are coboundaries: conjugating F by
            # t + c t^2 or t + c t^3 adds them, and the perturbed law stays
            # associative until the conjugation's next terms reach the order
            # (t1 + t2 + t1 t2 on the additive curve is associative at every order)
            assert report.associative == _axioms_by_fraction(corrupted.series).associative
        else:
            assert not report.associative

    @pytest.mark.parametrize("curve,order,i,j,associative", [
        (Curve(0, 0), 24, 1, 1, True), (Curve(4, 0), 5, 1, 1, True),
        (Curve(4, 0), 6, 1, 1, False), (Curve(-7, 13), 4, 1, 2, True),
        (Curve(-7, 13), 5, 1, 2, False), (Curve(F(-3, 7), F(5, 11)), 4, 2, 2, False),
    ])
    def test_coboundary_perturbations(self, curve, order, i, j, associative):
        corrupted = _bumped_closed_form(curve, order, i, j)
        assert verify_axioms(corrupted).associative is associative
        assert _axioms_by_fraction(corrupted.series).associative is associative

    @given(curve=CURVE_FAMILIES, order=st.integers(2, 24))
    @example(curve=Curve(F(5, 6), F(-7, 9)), order=2)
    @example(curve=Curve(F(5, 6), F(-7, 9)), order=3)
    @example(curve=Curve(0, 0), order=2)
    @example(curve=Curve(0, 0), order=3)
    def test_exp_log_matches_fraction_route(self, curve, order):
        fexp, flog = formal_exponential(curve, order), formal_logarithm(curve, order)
        law = group_law_exp_log(curve, order)
        assert law.series == _group_law_by_fraction(fexp, flog, order)
        assert law.curve == curve and law.provenance == "exp-log"

    @pytest.mark.parametrize("order", (40, 60))
    @pytest.mark.parametrize("curve", NAMED_CURVES, ids=lambda c: f"{c.g2},{c.g3}")
    def test_chord_ode_matches_fraction_route_at_high_order(self, curve, order):
        fexp, flog = formal_exponential(curve, order), formal_logarithm(curve, order)
        law = group_law_exp_log(curve, order)
        assert law.series == _group_law_by_fraction(fexp, flog, order)

    @pytest.mark.parametrize("curve", WEIGHTED_CURVES, ids=lambda c: f"{c.g2},{c.g3}")
    def test_exp_log_runs_on_integers(self, curve, monkeypatch):
        reference = group_law_closed_form(curve, 18).series
        compositions = _record_operands(monkeypatch, formal_group, "bi_substitute")
        products = _record_operands(monkeypatch, BiSeries, "__mul__")
        flows, unscaled = [], []
        flow, unscale = formal_group._chord_flow, formal_group._unscale_law

        def recording_flow(*args):
            flows.append((args, flow(*args)))
            return flows[-1][1]

        def recording_unscale(*args):
            unscaled.append(args)
            return unscale(*args)

        monkeypatch.setattr(formal_group, "_chord_flow", recording_flow)
        monkeypatch.setattr(formal_group, "_unscale_law", recording_unscale)
        assert group_law_exp_log(curve, 18).series == reference
        # the row products of the ODE run on int lists: no composition, no
        # bivariate product, and the law reaches its one unscaling as an int series
        assert not compositions and not products
        assert len(flows) == 1 and len(unscaled) == 1
        (ell, a, b, n), rows = flows[0]
        assert rows[0] == [0, 1] + [0] * 17  # E~(L~ t2) = t2 for the curve's own log
        values = [*ell, a, b, *(x for row in rows for x in row)]
        assert all(type(x) is int for x in values)
        assert _integer_rows(unscaled[0][0])

    def test_grouplaw_command_unscales_once_and_multiplies_ints(self, monkeypatch, capsys):
        unscaled = _record_operands(monkeypatch, formal_group, "_unscale_law")
        products = _record_operands(monkeypatch, BiSeries, "__mul__")
        assert cli.main(["grouplaw", "--g2=-3/7", "--g3=5/11", "--order=18"]) == 0
        capsys.readouterr()
        # both laws are compared and checked as F~; F is made once, for the report
        assert len(unscaled) == 1
        assert products and all(_integer_rows(x) for pair in products for x in pair)

    def test_series_unscales_every_coefficient(self):
        # any F~, the constant term and Fraction entries included: F_ij = F~_ij / u^(i + j - 1)
        curve = Curve(F(-3, 7), F(5, 11))
        u = curve.weights[0]
        rows = [[F(1 + i + 2 * j, 3 + i) if (i + j) % 3 else 5 + i for j in range(7 - i)]
                for i in range(7)]
        law = GroupLaw(curve, BiSeries(6, rows), "exp-log")
        assert u == 308 and law.scaled[0, 0] == 5 and law.scaled.order == 6
        for i, j in ((i, j) for i in range(7) for j in range(7 - i)):
            assert law.series[i, j] * F(u) ** (i + j - 1) == law.scaled[i, j]

    @pytest.mark.parametrize("k", (1, 9, 17))
    def test_perturbed_log_coefficient_fails(self, k, monkeypatch):
        curve = Curve(F(-3, 7), F(5, 11))
        fexp = formal_exponential(curve, 18)
        monkeypatch.setattr(formal_group, "_log_core", _shifted_log_core(k, F(1, 7)))
        # t^1 makes L~' non-integral, and the flow's first division leaves a
        # remainder: refused; t^9 and t^17 change the law
        try:
            law = group_law_exp_log(curve, 18)
        except formal_group.InexactLawError:
            assert k == 1
        else:
            assert k in (9, 17)
            assert law.series != group_law_closed_form(curve, 18).series
            assert law.series == _group_law_by_fraction(fexp, formal_logarithm(curve, 18), 18)

    @given(curve=CURVE_FAMILIES, order=st.integers(2, 14), data=st.data())
    def test_any_log_gives_exp_of_its_sum_or_is_refused(self, curve, order, data):
        # the initial rows are solved from L~', not read from W, so the
        # route is exp(log t1 + log t2) for a log that is not the curve's too
        fexp = formal_exponential(curve, order)
        k = data.draw(st.sampled_from(range(1, order + 1, 2)), label="k")
        delta = data.draw(st.sampled_from((1, -2, F(1, k), F(3, 308))), label="delta")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formal_group, "_log_core", _shifted_log_core(k, delta))
            try:
                law = group_law_exp_log(curve, order)
            except formal_group.InexactLawError:
                return
            perturbed = formal_logarithm(curve, order)  # the same shifted values
        assert law.series == _group_law_by_fraction(fexp, perturbed, order)

    @pytest.mark.parametrize("k,delta,divisor", [(1, 1, 5), (3, F(1, 3), 3), (5, F(1, 5), 5),
                                                 (9, F(8, 9), 9)])
    def test_inexact_row_is_refused(self, k, delta, divisor, monkeypatch):
        # an integral L~' that is not the curve's, 2 + ... or a t^(k-1)
        # term off by k delta u^(k-1) for a delta with denominator k, leaves a remainder
        monkeypatch.setattr(formal_group, "_log_core", _shifted_log_core(k, delta))
        with pytest.raises(formal_group.InexactLawError, match=f"dividing by {divisor}$"):
            group_law_exp_log(Curve(-7, 13), 12)


def _shifted_log_core(k: int, delta):
    """``_log_core`` with delta added to the log's t^k coefficient, k odd: the
    value at index (k - 1) / 2, u^(k-1) a(k) = k u^(k-1) [t^k] log, gains
    k delta u^(k-1), as does [t^(k-1)] L~'.  Reads ks as range(n), n > (k - 1) / 2."""
    original = formal_group._log_core

    def shifted(curve, ks):
        values = original(curve, ks)
        values[(k - 1) // 2] += k * delta * curve.weights[0] ** (k - 1)
        return values

    return shifted


def _bumped_closed_form(curve: Curve, order: int, i: int, j: int) -> GroupLaw:
    """The closed-form law with 1 added to F~ at (i, j) and at (j, i), once if i = j."""
    rows = [list(row) for row in group_law_closed_form(curve, order).scaled.rows]
    rows[i][j] += 1
    if i != j:
        rows[j][i] += 1
    return GroupLaw(curve, BiSeries(order, rows), "buchstaber-bunkova")


def _group_law_by_fraction(fexp, flog, order: int) -> BiSeries:
    """Reference: exp(log(t1) + log(t2)) composed over Fractions, in the
    curve's own coefficients, with no scaling."""
    inner = BiSeries.from_uni(flog.series, order, 1) + BiSeries.from_uni(flog.series, order, 2)
    return formal_group.bi_substitute(fexp.series, inner)


def _axioms_by_fraction(series: BiSeries) -> formal_group.AxiomReport:
    """Reference: the axioms checked on the law as given, in its own
    (Fraction) coefficients, with no change of variable."""
    n = series.order
    neutral = series.at_t2_zero() == UniSeries(n, (0, 1)[: n + 1])
    lhs, rhs = _associativity_sides(series)
    return formal_group.AxiomReport(n, neutral, series == series.swap(), lhs == rhs)


class TestFormalInverse:
    def test_negation_inverts_odd_law(self, rng):
        """F(t, -t) = 0: for an odd exp/log pair the group inverse is -t."""
        for _ in range(3):
            c = random_curve(rng)
            law = group_law_exp_log(c, 9).series
            diagonal = [F(0)] * 10
            for i, j, coeff in law.terms():
                diagonal[i + j] += coeff * (-1) ** j
            assert not any(diagonal)


class TestPullbackIdentities:
    """The pullback in T = t^2 on the weight-scaled curve, in integers, against
    the Fraction composition it replaced, and against corrupted inputs."""

    def test_randomized(self, rng):
        for _ in range(4):
            pb = coordinate_pullback(random_curve(rng), 18)
            assert pb.x_pullback == pb.x_coords
            assert pb.y_pullback == pb.y_coords

    def test_additive(self):
        pb = coordinate_pullback(Curve(0, 0), 12)
        assert pb.holds

    def test_negative_order_refused(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            coordinate_pullback(Curve(-7, 13), -1)

    @given(curve=CURVE_FAMILIES, order=st.integers(0, 30))
    @example(curve=Curve(4, 0), order=60)
    @example(curve=Curve(-7, 13), order=60)
    @example(curve=Curve(F(-3, 7), F(5, 11)), order=60)
    @example(curve=Curve(F(-3, 7), F(5, 11)), order=100)
    @example(curve=Curve(F(5, 6), F(-7, 9)), order=0)
    @example(curve=Curve(F(5, 6), F(-7, 9)), order=1)
    @example(curve=Curve(F(5, 6), F(-7, 9)), order=2)
    @example(curve=Curve(F(5, 6), F(-7, 9)), order=3)
    def test_matches_fraction_pullback(self, curve, order):
        pb = coordinate_pullback(curve, order)
        assert pb == _pullback_by_fraction(curve, order)
        assert pb.holds

    @pytest.mark.parametrize("curve", WEIGHTED_CURVES, ids=lambda c: f"{c.g2},{c.g3}")
    def test_compositions_run_on_integers(self, curve, monkeypatch):
        composed = _record_operands(monkeypatch, UniSeries, "compose")
        divided = _record_operands(monkeypatch, UniSeries, "__truediv__")
        assert coordinate_pullback(curve, 60).holds
        # wp is composed in Hurwitz integers, with no series composition; wp'
        # is the chain rule
        assert composed == []
        # the first division takes the composed coefficients out: ints whose
        # size grows with the degree, 416 to 918 bits here, where one common
        # denominator for every degree takes 5337 or more
        assert all(type(c) is int and c.bit_length() <= 1024
                   for series in divided[0] for c in series.coeffs)

    @pytest.mark.parametrize("perturbed", (False, True), ids=("wp", "perturbed-wp"))
    @pytest.mark.parametrize("curve", WEIGHTED_CURVES, ids=lambda c: f"{c.g2},{c.g3}")
    def test_every_division_runs_on_integers(self, curve, perturbed, monkeypatch):
        if perturbed:  # Q P is still an integer series, though P = 1/W no longer is
            _perturb_wp(monkeypatch, 5)
        divided = _record_operands(monkeypatch, UniSeries, "__truediv__")
        assert coordinate_pullback(curve, 40).holds is not perturbed
        # x, y and the chart: Q and u^(2i) leave only in _unscale
        assert len(divided) == 3
        assert all(_integer_rows(series) for pair in divided for series in pair)

    @pytest.mark.parametrize("k", (2, 5, 15))
    def test_perturbed_wp_coefficient_fails(self, k, monkeypatch):
        _perturb_wp(monkeypatch, k)
        pb = coordinate_pullback(Curve(F(-3, 7), F(5, 11)), 30)
        assert not pb.holds
        assert pb.x_pullback != pb.x_coords and pb.y_pullback != pb.y_coords

    @pytest.mark.parametrize("i", (1, 4, 15))
    def test_perturbed_scaled_an_fails(self, i, monkeypatch):
        original = formal_group._log_core

        def perturbed(curve, ks):
            an = original(curve, ks)
            an[i] += 1  # u^(2i) a(2i + 1)
            return an

        monkeypatch.setattr(formal_group, "_log_core", perturbed)
        pb = coordinate_pullback(Curve(-7, 13), 30)
        assert pb.x_pullback != pb.x_coords and pb.y_pullback != pb.y_coords


def _perturb_wp(monkeypatch, k: int) -> None:
    """Add 1/7 to the c_k that the pullback reads."""
    original = formal_group.wp_coefficients

    def perturbed(curve, order):
        wp = original(curve, order)
        c = list(wp.c)
        c[k - 2] += F(1, 7)
        return weierstrass.WpExpansion(curve, order, tuple(c))

    monkeypatch.setattr(formal_group, "wp_coefficients", perturbed)


def _pullback_by_fraction(curve: Curve, order: int) -> formal_group.PullbackIdentities:
    """Reference: wp(log) and wp'(log) composed in t over Fractions, with the
    log's unit v cleared by v^-2 and v^-3, against 1/w and -2/w."""
    m = order
    w = UniSeries(m, s_coordinate(curve, m + 3).series.coeffs[3 : m + 4])
    log = formal_logarithm(curve, m + 1).series
    wp = weierstrass.wp_coefficients(curve, max(2, (m + 1) // 2))
    log_m = UniSeries(m, log.coeffs[: m + 1])
    unit_inv = UniSeries.one(m) / UniSeries(m, log.coeffs[1 : m + 2])
    ui2 = unit_inv * unit_inv
    x_pullback = ui2 * UniSeries(m, wp.body().coeffs[: m + 1]).compose(log_m)
    y_pullback = ui2 * unit_inv * UniSeries(m, wp.prime_body().coeffs[: m + 1]).compose(log_m)
    w_inv = UniSeries.one(m) / w
    return formal_group.PullbackIdentities(m, x_pullback, w_inv, y_pullback, -2 * w_inv)


# Every series constructor and exact route, with the least order it takes.
_ORDER_ROUTES = {
    "UniSeries": (0, lambda n: UniSeries(n)),
    "BiSeries": (0, lambda n: BiSeries(n)),
    "BiSeries.variable": (1, lambda n: BiSeries.variable(n, 1)),
    "wp_coefficients": (2, lambda n: wp_coefficients(Curve(4, 0), n)),
    "formal_exponential": (1, lambda n: formal_exponential(Curve(4, 0), n)),
    "formal_logarithm": (1, lambda n: formal_logarithm(Curve(4, 0), n)),
    "s_coordinate": (3, lambda n: s_coordinate(Curve(4, 0), n)),
    "group_law_exp_log": (2, lambda n: group_law_exp_log(Curve(4, 0), n)),
    "group_law_closed_form": (2, lambda n: group_law_closed_form(Curve(4, 0), n)),
    "coordinate_pullback": (0, lambda n: coordinate_pullback(Curve(4, 0), n)),
    "universal_bernoulli": (
        0, lambda n: universal_bernoulli(formal_exponential(Curve(4, 0), 6).series, n)),
}


class TestOrderRule:
    @pytest.mark.parametrize("order", (True, 4.0, F(4)), ids=("bool", "float", "Fraction"))
    @pytest.mark.parametrize("route", _ORDER_ROUTES)
    def test_order_of_another_type_refused_by_name(self, route, order):
        # 4.0 and F(4) equal 4, and True is 1: each is refused before any work
        name = type(order).__name__
        with pytest.raises(TypeError, match=f"^order must be an int, not {name}$"):
            _ORDER_ROUTES[route][1](order)

    @pytest.mark.parametrize("route", _ORDER_ROUTES)
    def test_least_order_taken_and_one_below_refused(self, route):
        low, build = _ORDER_ROUTES[route]
        build(low)
        with pytest.raises(ValueError, match=f"^order must be >= {low}$"):
            build(low - 1)
