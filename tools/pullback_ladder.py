"""Time ``coordinate_pullback`` over a ladder of orders, next to its sizes.

For each bench curve, (4, 0), (-7, 13) and (-3/7, 5/11), and each order,
prints the minimum over ``--repeat`` calls of the wall time of one
``coordinate_pullback(curve, order)`` and the largest bit size of an int
entering its first series division (``UniSeries.__truediv__``), where the
composed coefficients are divided out.  The sizes are read in one extra,
untimed call.  Run from the repository root, for example

    python3 tools/pullback_ladder.py
    python3 tools/pullback_ladder.py --orders 20 40 --repeat 15
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellformal import Curve, UniSeries, coordinate_pullback  # noqa: E402

CURVES = (Curve(4, 0), Curve(-7, 13), Curve(Fraction(-3, 7), Fraction(5, 11)))


def first_division_bits(curve: Curve, order: int) -> int:
    """Largest bit size of a numerator or denominator in the operands of the
    first ``UniSeries.__truediv__`` of one call."""
    original, seen = UniSeries.__truediv__, []

    def recording(a, b):
        if not seen:
            seen.extend(c for s in (a, b) for c in s.coeffs)
        return original(a, b)

    UniSeries.__truediv__ = recording
    try:
        coordinate_pullback(curve, order)
    finally:
        UniSeries.__truediv__ = original
    return max(max(abs(Fraction(c).numerator).bit_length(), Fraction(c).denominator.bit_length())
               for c in seen)


def best_time(curve: Curve, order: int, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        coordinate_pullback(curve, order)
        times.append(time.perf_counter() - start)
    return min(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", type=int, nargs="+", default=[20, 40, 60, 80, 100])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    print(f"{'curve':>12} {'order':>5} {'ms':>9} {'bits':>6}")
    for curve in CURVES:
        for order in args.orders:
            ms = 1e3 * best_time(curve, order, args.repeat)
            bits = first_division_bits(curve, order)
            print(f"{f'{curve.g2},{curve.g3}':>12} {order:>5} {ms:>9.3f} {bits:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
