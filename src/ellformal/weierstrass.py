"""Laurent expansion of the Weierstrass elliptic function from (g2, g3).

For the curve y^2 = 4x^3 - g2*x - g3 the associated wp function expands as

    wp(z) = z^-2 + sum_{k>=2} c_k z^(2k-2)

with c_2 = g2/20, c_3 = g3/28 and, for k >= 4,

    c_k = 3 / ((2k+1)(k-3)) * sum_{j=2}^{k-2} c_j c_{k-j},

a consequence of the differential identity wp'' = 6 wp^2 - g2/2.  The
sum runs in integers: each c_k is held as a numerator over a denominator,
the products c_j c_(k-j) of a symmetric pair are formed once over the lcm
of their denominators, and one ``Fraction`` per k reduces c_k once.  The
recursion is validated by checking (wp')^2 = 4 wp^3 - g2 wp - g3 exactly
(see :func:`differential_equation_residual` and the test suite); never
trust it blind.

The expansion is one object, :class:`WpExpansion`: the c_k, and the two
pole-free bodies z^2 wp and z^3 wp' read off them, which the ``expand``
report prints with their valuations -2 and -3.

Eisenstein values G_{2k} = (2k-2)! c_k / 2 and the elliptic analogues of
the Bernoulli numbers (2k G_{2k} for even weight, zero for odd) are read
off the same coefficients.  Periods and lattice sums are out of scope:
everything here is formal in (g2, g3).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .series import UniSeries, _valid_order

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Curve:
    """A curve y^2 = 4x^3 - g2*x - g3 over the rationals.

    Singular pairs (g2^3 = 27 g3^2, e.g. g2 = g3 = 0, whose formal group
    is the additive one) are accepted: the series algebra is formal in
    (g2, g3).  Layers that need an honest elliptic curve -- reduction mod
    p and point counting -- test 4A^3 + 27B^2 mod p themselves and skip
    accordingly.  :attr:`weights`, the model every
    exact route runs on, is made on first read and kept; it is not a
    field, so equality, the hash and the repr see (g2, g3) only.
    """

    g2: Fraction
    g3: Fraction

    def __post_init__(self):
        object.__setattr__(self, "g2", Fraction(self.g2))
        object.__setattr__(self, "g3", Fraction(self.g3))

    @functools.cached_property
    def weights(self) -> tuple:
        """(u, a, b): u = lcm(den A, den B) for A = -g2/4, B = -g3/4 (no factoring:
        p | u exactly when p | den A or p | den B), and the integers a = u^4 A,
        b = u^6 B of the curve scaled by u, s = t^3 + a t s^2 + b s^3."""
        qa, qb = -self.g2 / 4, -self.g3 / 4
        u = math.lcm(qa.denominator, qb.denominator)
        a = qa.numerator * (u // qa.denominator) * u**3
        b = qb.numerator * (u // qb.denominator) * u**5
        return u, a, b

    def __repr__(self) -> str:
        return f"Curve(g2={self.g2}, g3={self.g3})"


@dataclass(frozen=True)
class WpExpansion:
    """Coefficients c_k (2 <= k <= order) of wp(z) = z^-2 + sum c_k z^(2k-2).

    The only wp object: :meth:`body` and :meth:`prime_body` give z^2 wp and
    z^3 wp' through z^(2*order).
    """

    curve: Curve
    order: int
    c: tuple = field(repr=False)

    def coefficient(self, k: int) -> Fraction:
        if not 2 <= k <= self.order:
            raise IndexError(f"c_{k} outside computed range 2..{self.order}")
        return self.c[k - 2]

    def body(self) -> UniSeries:
        """z^2 * wp = 1 + sum c_k z^(2k), a series of order 2*order in z."""
        coeffs = [1] + [0] * (2 * self.order)
        coeffs[4::2] = self.c
        return UniSeries(2 * self.order, coeffs)

    def prime_body(self) -> UniSeries:
        """z^3 * wp' = -2 + sum (2k - 2) c_k z^(2k): entry i of body() times i - 2."""
        return UniSeries(2 * self.order, [(i - 2) * c for i, c in enumerate(self.body().coeffs)])

    def eisenstein(self, k: int) -> Fraction:
        """G_k = (k-2)! c_(k/2) / 2, zero for odd k.  Weights below 4 are not
        defined for a lattice sum, hence rejected; c_(k/2) must be in range."""
        if k < 4:
            raise ValueError("Eisenstein values need weight k >= 4")
        return _ZERO if k % 2 else math.factorial(k - 2) * self.coefficient(k // 2) / 2


@functools.lru_cache(maxsize=16, typed=True)
def wp_coefficients(curve: Curve, order: int) -> WpExpansion:
    """Expansion coefficients c_2..c_order, exactly.

    Each c_k is kept as an integer numerator n_k over a denominator d_k.
    The sum over j for c_k forms each symmetric pair c_j c_(k-j) once
    (twice its product when j != k - j) and skips the zero pairs.  It adds
    the products in ``int`` over one common denominator, the lcm of the
    pairs' d_j d_(k-j), and makes one ``Fraction`` per k, so each c_k is
    reduced once.  The recursion denominators (2k+1)(k-3) are positive
    for k >= 4, so no division by zero can occur.

    The last 16 expansions are kept, keyed by (curve, order), so a caller
    that asks again for one gets the same object back, shared with every
    other caller; it is immutable.  ``cache_info()`` and ``cache_clear()``
    read and empty that memo.  The memo keys on the order's type too, and
    an order that is not an ``int``, or is a ``bool``, raises ``TypeError``.
    """
    c = [curve.g2 / 20, curve.g3 / 28][: _valid_order(order, 2) - 1]
    num = [0, 0] + [x.numerator for x in c]  # index by k, entries 0..1 unused
    den = [1, 1] + [x.denominator for x in c]
    for k in range(4, order + 1):
        # flat lists, not a list of (numerator, denominator) tuples: the tuples
        # fragment the heap, and a long run's peak memory grows with them
        js = [j for j in range(2, k // 2 + 1) if num[j] and num[k - j]]
        dens = [den[j] * den[k - j] for j in js]
        common = math.lcm(*dens)
        total = sum(num[j] * num[k - j] * (common // d) * (1 if 2 * j == k else 2)
                    for j, d in zip(js, dens))
        ck = Fraction(3 * total, (2 * k + 1) * (k - 3) * common)
        c.append(ck)
        num.append(ck.numerator)
        den.append(ck.denominator)
    return WpExpansion(curve, order, tuple(c))


def differential_equation_residual(curve: Curve, order: int) -> UniSeries:
    """(wp')^2 - (4 wp^3 - g2 wp - g3), cleared of poles by z^6.

    Returns the residual as a plain power series (the z^6 multiple); it
    must be identically zero through its tracked order.  This is the
    master correctness check for the coefficient recursion.
    """
    wp = wp_coefficients(curve, order)
    p = wp.body()                     # z^2 * wp
    q = wp.prime_body()               # z^3 * wp'
    n = p.order
    lhs = q * q                       # z^6 (wp')^2
    rhs = 4 * (p * p * p)             # z^6 * 4 wp^3
    z4p = UniSeries(n, ((0,) * 4 + p.coeffs)[: n + 1])  # z^4 (z^2 wp), in the window
    rhs = rhs - curve.g2 * z4p        # z^6 * g2 wp
    rhs = rhs - UniSeries(n, ((0,) * 6 + (curve.g3,))[: n + 1])  # z^6 * g3, in the window
    return lhs - rhs

