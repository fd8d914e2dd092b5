import random
from fractions import Fraction

import pytest
from hypothesis import settings

from ellformal import Curve, UniSeries


def random_curve(rng: random.Random, bound: int = 20) -> Curve:
    """Random integer curve with nonzero discriminant."""
    while True:
        curve = Curve(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if not curve.is_singular:
            return curve


def random_rational(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_unit_series(rng: random.Random, order: int) -> UniSeries:
    """A series T + O(T^2), admissible for reversion."""
    coeffs = [Fraction(0), Fraction(1)]
    coeffs += [random_rational(rng) for _ in range(order - 1)]
    return UniSeries(order, coeffs)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)


# Property tests draw the same examples on every run, with no time limit per
# example and no example database on disk.
settings.register_profile(
    "ellformal", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("ellformal")
