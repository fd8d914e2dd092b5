"""Ring laws of UniSeries and BiSeries, as properties over random series.

Orders run 0..5 and coefficients are small rationals, so each example is
cheap; the profile in ``conftest.py`` fixes the examples drawn.  The
products are also checked against a schoolbook reference on dicts, at
orders 0..12.
"""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellformal import BiSeries, UniSeries

SCALAR = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=5))
BOTH = pytest.mark.parametrize("cls", (UniSeries, BiSeries), ids=("uni", "bi"))


def _series(cls, order: int):
    """Numerators in -9..9 over denominators 1, 2, 3 in turn (one draw per
    series keeps generation cheap), laid out as one row or the triangle."""
    size = order + 1 if cls is UniSeries else (order + 1) * (order + 2) // 2
    flat = st.lists(st.integers(-9, 9), min_size=size, max_size=size).map(
        lambda ns: [Fraction(n, 1 + i % 3) for i, n in enumerate(ns)]
    )
    if cls is UniSeries:
        return flat.map(lambda cs: UniSeries(order, cs))

    def triangle(cs):
        it = iter(cs)
        return BiSeries(order, [[next(it) for _ in range(order - i + 1)] for i in range(order + 1)])

    return flat.map(triangle)


def _draw(data, cls, count: int) -> list:
    """``count`` series of one random order."""
    order = data.draw(st.integers(0, 5), label="order")
    return [data.draw(_series(cls, order)) for _ in range(count)]


@BOTH
@given(data=st.data())
def test_addition_commutes_and_associates(cls, data):
    a, b, c = _draw(data, cls, 3)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@BOTH
@given(data=st.data())
def test_subtraction(cls, data):
    a, b = _draw(data, cls, 2)
    assert a - a == cls(a.order)
    assert a - b == a + (-1) * b


@BOTH
@given(data=st.data(), c=SCALAR, d=SCALAR)
def test_scalars_distribute(cls, data, c, d):
    a, b = _draw(data, cls, 2)
    assert c * (a + b) == c * a + c * b
    assert (a + b) * c == a * c + b * c
    assert (c + d) * a == c * a + d * a


@BOTH
@given(data=st.data())
def test_products_distribute(cls, data):
    a, b, c = _draw(data, cls, 3)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(data=st.data())
def test_division_undoes_a_unit_product(data):
    # BiSeries has no division operator; division is a UniSeries law only
    a, b = _draw(data, UniSeries, 2)
    assume(b[0] != 0)
    assert (a * b) / b == a


ENTRY = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9))


def _cells(cls, order: int) -> list:
    """The exponents of a series: (k,) for UniSeries, (i, j) for BiSeries."""
    if cls is UniSeries:
        return [(k,) for k in range(order + 1)]
    return [(i, d - i) for d in range(order + 1) for i in range(d + 1)]


def _terms(data, cls, order: int) -> dict:
    """Exponents -> int-or-Fraction entries of a dense, sparse or odd operand:
    every cell drawn, at most three cells drawn, or every odd-degree cell."""
    cells = _cells(cls, order)
    shape = data.draw(st.sampled_from(("dense", "sparse", "odd")), label="shape")
    if shape == "sparse":
        cells = data.draw(st.lists(st.sampled_from(cells), max_size=3, unique=True))
    elif shape == "odd":
        cells = [c for c in cells if sum(c) % 2]
    entries = data.draw(st.lists(ENTRY, min_size=len(cells), max_size=len(cells)))
    return dict(zip(cells, entries))


def _build(cls, order: int, terms: dict):
    if cls is UniSeries:
        return UniSeries(order, [terms.get((k,), 0) for k in range(order + 1)])
    return BiSeries(order, [[terms.get((i, j), 0) for j in range(order - i + 1)]
                            for i in range(order + 1)])


def _schoolbook(order: int, a: dict, b: dict) -> dict:
    """Every pair of terms multiplied, kept where the degree fits."""
    out = {}
    for x, p in a.items():
        for y, q in b.items():
            z = tuple(map(add, x, y))
            if sum(z) <= order:
                out[z] = out.get(z, 0) + p * q
    return out


@BOTH
@settings(max_examples=60)
@given(data=st.data())
def test_product_matches_schoolbook_reference(cls, data):
    # distributivity alone passes a kernel that drops the same terms on both sides
    order = data.draw(st.integers(0, 12), label="order")
    a, b = _terms(data, cls, order), _terms(data, cls, order)
    product = _build(cls, order, a) * _build(cls, order, b)
    assert product == _build(cls, order, _schoolbook(order, a, b))
