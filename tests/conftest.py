import random
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from ellformal import Curve, UniSeries


def random_curve(rng: random.Random, bound: int = 20) -> Curve:
    """Random integer curve with nonzero discriminant."""
    while True:
        curve = Curve(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if curve.g2**3 != 27 * curve.g3**2:
            return curve


def random_rational(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_unit_series(rng: random.Random, order: int) -> UniSeries:
    """A series T + O(T^2), admissible for reversion."""
    coeffs = [Fraction(0), Fraction(1)]
    coeffs += [random_rational(rng) for _ in range(order - 1)]
    return UniSeries(order, coeffs)


# Curve families for the exact-route properties: CM (g3 = 0 or g2 = 0),
# generic integer, rational with denominators built from 2, 3, 5, 7 (so the
# weight u picks up each), and singular (g2 = 3c^2, g3 = c^3, c = 0 included).
_INTEGER = st.integers(-60, 60)
_RATIONAL = st.builds(Fraction, st.integers(-60, 60),
                      st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12, 5, 7, 35)))
CURVE_FAMILIES = st.one_of(
    st.builds(Curve, _RATIONAL, st.just(0)),
    st.builds(Curve, st.just(0), _RATIONAL),
    st.builds(Curve, _INTEGER, _INTEGER),
    st.builds(Curve, _RATIONAL, _RATIONAL),
    _RATIONAL.map(lambda c: Curve(3 * c * c, c**3)),
)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)


# Property tests draw the same examples on every run, with no time limit per
# example and no example database on disk.
settings.register_profile(
    "ellformal", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("ellformal")
