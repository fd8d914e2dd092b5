"""Truncated power-series arithmetic over exact rationals.

Every series tracks coefficients up to a fixed truncation order N and all
arithmetic stays inside that window, so results are exact as elements of
Q[[T]] / T^(N+1).  A coefficient is an ``int`` or a
:class:`fractions.Fraction`: every row, given or computed, passes one type
check when its series is built, and any other type (bool, float, str,
Decimal, complex) raises :class:`TypeError` naming it.  Its order passes
``_valid_int``, the library's one integer rule, which every exact route
applies to its own order and every other layer to its counts, primes,
precisions and weights.  Integer rows stay integer through ``+``,
``-``, products, composition and division by a series whose constant term
is 1 (a quotient that is not integral becomes a Fraction), so the same
kernels serve Z[[T]] and Q[[T]].

Two containers on one core live in this module:

* :class:`UniSeries` -- dense univariate series, coefficients of T^0..T^N.
* :class:`BiSeries`  -- dense bivariate series truncated by total degree.

Both share the private ring core ``_Series``: an immutable tuple of
int-or-Fraction rows truncated at ``order`` (one row, or the triangle
i + j <= N), whose ``+``, ``-``, scalar scaling, ``==``, ``repr``, order
check and immutability guard are written once, row by row, over the hooks
``_rows()`` and ``_from_rows(order, rows)``.

Each operation has one kernel.  A product, on either class, pairs the
nonzero terms of its left operand with those of its right one, taken in
order of degree, and stops each run at the truncation, so zero terms (half
of every odd series) cost nothing; division is by a unit ``UniSeries``
only; composition is the baby-step/giant-step ``_substitute``, which
``UniSeries.compose``, :func:`bi_substitute` and ``BiSeries.reciprocal`` (a
geometric series in 1 - F/c) all call; reversion is Lagrange inversion in
``UniSeries.reverse``.  The module keeps only what the engine and its
checks call.

All values are immutable after construction and safe to share between
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator


class OrderMismatchError(ValueError):
    """Combining series with different truncation orders."""


class NonUnitDivisorError(ZeroDivisionError):
    """Dividing by a series whose constant term is zero."""


class CompositionDomainError(ValueError):
    """Substituting an inner series with a nonzero constant term."""


class ReversionDomainError(ValueError):
    """Reverting a series that is not T + O(T^2)."""


def _div(a, b):
    """a / b exactly: an int when b divides a, else a Fraction (never the
    float that int / int gives)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _valid_int(value, low: int | None, name: str) -> int:
    """``value`` if it is an ``int`` (not a ``bool``) of at least ``low`` (of any
    size at ``low=None``), else :class:`TypeError` or :class:`ValueError` naming
    ``name``: the library's one integer rule, for every integer it takes."""
    if type(value) is bool or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


_EXACT = frozenset((int, Fraction))


def _row(values, length: int) -> tuple:
    """``values`` as a tuple zero-padded to ``length`` entries, each an int or
    a Fraction (:class:`TypeError` naming the first other type)."""
    row = tuple(values)
    if not _EXACT.issuperset(map(type, row)):
        kind = next(type(c) for c in row if type(c) not in _EXACT)
        raise TypeError(f"a series coefficient is an int or a Fraction, not {kind.__name__}")
    if len(row) > length:
        raise ValueError(f"got {len(row)} coefficients where at most {length} fit")
    return row + (0,) * (length - len(row))


class _Series:
    """Ring core: int-or-Fraction rows truncated at ``order``, combined row by row.

    A subclass gives ``_rows()``, its rows as a tuple of tuples, and the
    classmethod ``_from_rows(order, rows)``, its inverse.  Binary operations
    take two series of one type and one order (:class:`OrderMismatchError`
    otherwise), so that truncation windows never silently disagree.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.order == other.order and self._rows() == other._rows()

    def __repr__(self) -> str:
        nz = sum(1 for row in self._rows() for c in row if c)
        return f"{type(self).__name__}(order={self.order}, {nz} nonzero terms)"

    def _check_order(self, other) -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"orders differ: {self.order} vs {other.order}")

    def _zip(self, other, op):
        if type(other) is not type(self):
            return NotImplemented
        self._check_order(other)
        rows = zip(self._rows(), other._rows())
        return self._from_rows(self.order, tuple(tuple(map(op, ra, rb)) for ra, rb in rows))

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def _scale(self, c):
        return self._from_rows(self.order, tuple(tuple(a * c for a in row) for row in self._rows()))


class UniSeries(_Series):
    """Univariate power series truncated at a fixed order.

    ``coeffs[k]`` is the coefficient of T^k for 0 <= k <= order; the
    tuple always has length ``order + 1``.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        object.__setattr__(self, "order", _valid_int(order, 0, "order"))
        object.__setattr__(self, "coeffs", _row(coeffs, order + 1))

    def _rows(self) -> tuple:
        return (self.coeffs,)

    @classmethod
    def _from_rows(cls, order: int, rows) -> "UniSeries":
        return cls(order, rows[0])

    # -- constructors ------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "UniSeries":
        return cls(order, (1,))

    # -- basic access ------------------------------------------------

    def __getitem__(self, k: int) -> int | Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient T^{k} outside order-{self.order} window")
        return self.coeffs[k]

    # -- ring operations ----------------------------------------------

    def __mul__(self, other):
        if isinstance(other, UniSeries):
            self._check_order(other)
            n = self.order
            out = [0] * (n + 1)
            right = [(j, b) for j, b in enumerate(other.coeffs) if b]
            for i, a in enumerate(self.coeffs):
                if a:
                    top = n - i
                    for j, b in right:
                        if j > top:
                            break
                        out[i + j] += a * b
            return UniSeries(n, out)
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        self._check_order(other)
        b0 = other.coeffs[0]
        if b0 == 0:
            raise NonUnitDivisorError("divisor has zero constant term")
        n = self.order
        q: list = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                b = other.coeffs[j]
                if b:
                    acc -= q[k - j] * b
            q.append(_div(acc, b0))
        return UniSeries(n, q)

    # -- structural operations -----------------------------------------

    def compose(self, inner: "UniSeries") -> "UniSeries":
        """Substitute ``inner`` (constant term zero) into self, by ``_substitute``."""
        self._check_order(inner)
        if inner.coeffs[0] != 0:
            raise CompositionDomainError("inner series must have zero constant term")
        return _substitute(self.coeffs, inner)

    def reverse(self) -> "UniSeries":
        """Compositional inverse by Lagrange inversion.

        Requires self = T + O(T^2).  The coefficient of T^k in the
        inverse is [T^(k-1)] (T/self)^k / k.
        """
        n = self.order
        if n < 1 or self.coeffs[0] != 0 or self.coeffs[1] != 1:
            raise ReversionDomainError("reversion needs f = T + O(T^2)")
        # u = T/f is a unit series of order n-1
        u = UniSeries.one(n - 1) / UniSeries(n - 1, self.coeffs[1:])
        out = [0] * (n + 1)
        power = u
        out[1] = power.coeffs[0]
        for k in range(2, n + 1):
            power = power * u
            out[k] = _div(power.coeffs[k - 1], k)
        return UniSeries(n, out)


class BiSeries(_Series):
    """Bivariate series truncated by total degree.

    ``rows[i][j]`` is the coefficient of ``t1^i t2^j`` for ``i + j <= order``;
    row ``i`` has length ``order - i + 1``.  Arithmetic truncates to the
    shared total degree.
    """

    __slots__ = ("order", "rows")

    def __init__(self, order: int, rows: Iterable[Iterable] = ()):
        _valid_int(order, 0, "order")
        rows = tuple(rows)
        if len(rows) > order + 1:
            raise ValueError("more rows than the total degree admits")
        rows += ((),) * (order + 1 - len(rows))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", tuple(_row(r, order - i + 1) for i, r in enumerate(rows)))

    def _rows(self) -> tuple:
        return self.rows

    @classmethod
    def _from_rows(cls, order: int, rows) -> "BiSeries":
        return cls(order, rows)

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, order: int, value) -> "BiSeries":
        return cls(order, ((value,),))

    @classmethod
    def variable(cls, order: int, which: int) -> "BiSeries":
        """The monomial t1 (which=1) or t2 (which=2)."""
        return cls.from_uni(UniSeries(_valid_int(order, 1, "order"), (0, 1)), order, which)

    @classmethod
    def from_uni(cls, f: UniSeries, order: int, which: int) -> "BiSeries":
        """Embed f(t1) or f(t2), truncating at total degree ``order <= f.order``."""
        if f.order < order:
            raise OrderMismatchError(f"order-{f.order} series cannot fill total degree {order}")
        if which == 1:
            return cls(order, tuple((c,) for c in f.coeffs[: order + 1]))
        if which == 2:
            return cls(order, (f.coeffs[: order + 1],))
        raise ValueError("which must be 1 or 2")

    # -- access -------------------------------------------------------

    def __getitem__(self, ij) -> int | Fraction:
        i, j = ij
        if i < 0 or j < 0 or i + j > self.order:
            raise IndexError(f"t1^{i} t2^{j} outside total degree {self.order}")
        return self.rows[i][j]

    def terms(self) -> Iterator[tuple[int, int, int | Fraction]]:
        """Yield (i, j, coefficient) for nonzero entries, lexicographic in (i, j)."""
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c:
                    yield i, j, c

    # -- ring operations ----------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, BiSeries):
            return NotImplemented
        self._check_order(other)
        n = self.order
        out = [[0] * (n - i + 1) for i in range(n + 1)]
        right = sorted(((i + j, i, j, b) for i, j, b in other.terms()), key=operator.itemgetter(0))
        for i1, j1, a in self.terms():
            top = n - i1 - j1
            for d, i2, j2, b in right:
                if d > top:
                    break
                out[i1 + i2][j1 + j2] += a * b
        return BiSeries(n, out)

    __rmul__ = __mul__

    def reciprocal(self) -> "BiSeries":
        """Inverse of F with constant term c != 0: (1/c) sum_j x^j, x = 1 - F/c,
        through :func:`bi_substitute` (x starts at total degree 1)."""
        c = self.rows[0][0]
        if c == 0:
            raise NonUnitDivisorError("bivariate divisor has zero constant term")
        n, inv = self.order, _div(1, c)
        x = BiSeries.constant(n, 1) - self * inv
        return bi_substitute(UniSeries(n, (inv,) * (n + 1)), x)

    # -- structural helpers --------------------------------------------

    def swap(self) -> "BiSeries":
        """Exchange the two variables."""
        n = self.order
        return BiSeries(
            n, tuple(tuple(self.rows[j][i] for j in range(n - i + 1)) for i in range(n + 1))
        )

    def at_t2_zero(self) -> UniSeries:
        """The univariate slice F(t, 0)."""
        return UniSeries(self.order, tuple(row[0] for row in self.rows))


def divided_difference(f: UniSeries) -> BiSeries:
    """The symmetric series (f(t1) - f(t2)) / (t1 - t2), computed exactly.

    Uses the telescoping identity (t1^k - t2^k)/(t1 - t2) = sum of
    t1^i t2^j over i + j = k - 1, so no division ever occurs.  The
    result is truncated at total degree ``f.order - 1``.
    """
    n = max(f.order - 1, 0)
    out = [[0] * (n - i + 1) for i in range(n + 1)]
    for k, c in enumerate(f.coeffs):
        if k == 0 or not c:
            continue
        for i in range(k):
            out[i][k - 1 - i] += c
    return BiSeries(n, out)


def bi_substitute(outer: UniSeries, inner: BiSeries) -> BiSeries:
    """outer(inner) by ``_substitute``; ``inner`` has zero constant term.

    With v the lowest total degree in ``inner``, the result is exact only if
    (outer.order + 1) * v > inner.order; otherwise :class:`OrderMismatchError`.
    """
    if inner.rows[0][0] != 0:
        raise CompositionDomainError("inner series must have zero constant term")
    n = inner.order
    v = min((i + j for i, j, _ in inner.terms()), default=n + 1)
    if (outer.order + 1) * v <= n:
        raise OrderMismatchError(f"outer order {outer.order} too low for total degree {n}")
    return _substitute(outer.coeffs[: n // v + 1], inner)


def _substitute(coeffs, inner):
    """sum_j coeffs[j] * inner^j for a UniSeries or BiSeries ``inner``.

    Baby-step/giant-step (Brent and Kung, J. ACM 25, 1978): with k = isqrt(n) + 1,
    each block of k coefficients is a ``_combination`` of inner^0 .. inner^(k-1),
    and Horner runs over the blocks in inner^k: about 2*sqrt(n) products, not n.
    """
    n = len(coeffs) - 1
    k = math.isqrt(n) + 1
    powers = [inner._from_rows(inner.order, ((1,),)), inner]
    while len(powers) <= min(k, n):
        powers.append(powers[-1] * inner)
    result = None
    for start in range(k * (n // k), -1, -k):
        block = _combination(coeffs[start : start + k], powers)
        result = block if result is None else result * powers[k] + block
    return result


def _combination(weights, series):
    """sum_j weights[j] * series[j] (series of one type and one order); no
    product is formed."""
    out = [[0] * len(row) for row in series[0]._rows()]
    for w, p in zip(weights, series):
        if w:
            for acc, row in zip(out, p._rows()):
                for j, a in enumerate(row):
                    if a:
                        acc[j] += w * a
    return series[0]._from_rows(series[0].order, out)
