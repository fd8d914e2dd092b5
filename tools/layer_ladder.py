"""Time the pullback, both group laws, the axiom check, ``param_point``,
the log and ``honda_check`` over a ladder of orders, next to their sizes.

For each bench curve, (4, 0), (-7, 13) and (-3/7, 5/11), and each order,
prints the minimum over ``--repeat`` calls of the wall time of one
``coordinate_pullback(curve, order)``, one ``group_law_closed_form(curve,
order)``, one ``group_law_exp_log(curve, order)`` and one
``verify_axioms`` of the closed-form law, in ms.  Next to them: the
largest bit size of an int entering the pullback's first series division
(``UniSeries.__truediv__``), where the composed coefficients are divided
out, read in one extra, untimed call; and the largest bit size of an
entry of the law as held, the scaled law F~ = F(u t1, u t2) / u, whose
ints the timed closed form and axiom check multiply.  The pullback is
timed with the ``wp_coefficients`` memo emptied before each call, as in
one CLI call.

A second table times ``param_point`` at z = 0.1 + 0.8i, nmax 50, with wp
order the ladder's order, at 53 and 150 bits: cold, on a new formal log
with the ``wp_coefficients`` memo emptied before each call (both untimed),
so the expansion is built and every coefficient converted in the timed
call, as in one CLI call; and warm, on a filled memo and filled conversion
tables.  Next to them: the largest bit size of a numerator or denominator
among the c_k.

A third table times one ``formal_logarithm(curve, order)`` and one
``honda_check(curve, order)`` (a(p) at the good primes p <= order, and
their point counts) over ``--log-orders``, in ms, next to the largest bit
size of a numerator or denominator of the log's coefficients.
``--tables`` picks which tables run.  Run from the repository root, for
example

    python3 tools/layer_ladder.py
    python3 tools/layer_ladder.py --orders 20 40 --repeat 15
    python3 tools/layer_ladder.py --tables log --log-orders 41 97 201
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellformal import (  # noqa: E402
    Curve, UniSeries, coordinate_pullback, formal_logarithm, group_law_closed_form,
    group_law_exp_log, honda_check, param_point, verify_axioms, wp_coefficients,
)

CURVES = (Curve(4, 0), Curve(-7, 13), Curve(Fraction(-3, 7), Fraction(5, 11)))
Z, NMAX = 0.1 + 0.8j, 50


def bits(values) -> int:
    """Largest bit size of a numerator or denominator among int or Fraction values."""
    return max(max(abs(Fraction(c).numerator).bit_length(), Fraction(c).denominator.bit_length())
               for c in values)


def first_division_bits(curve: Curve, order: int) -> int:
    """Largest bit size in the operands of the first ``UniSeries.__truediv__``
    of one pullback."""
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
    return bits(seen)


def best_ms(call, repeat: int, fresh=tuple) -> float:
    """Minimum over ``repeat`` of one ``call(*fresh())``, ``fresh`` untimed."""
    times = []
    for _ in range(repeat):
        args = fresh()
        start = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def cold(call):
    """``call`` with the ``wp_coefficients`` memo emptied first."""
    def run():
        wp_coefficients.cache_clear()
        call()
    return run


def fresh_log(curve: Curve) -> tuple:
    """A new formal log, with the ``wp_coefficients`` memo emptied: a
    ``param_point`` on it finds no expansion and no conversion table."""
    wp_coefficients.cache_clear()
    return (formal_logarithm(curve, NMAX),)


def pullback_rows(orders, repeat: int) -> None:
    print(f"{'curve':>12} {'order':>5} {'pullback ms':>11} {'bits':>5}"
          f" {'law ms':>10} {'exp-log ms':>10} {'axioms ms':>10} {'F~ bits':>8}")
    for curve in CURVES:
        for order in orders:
            pullback = best_ms(cold(lambda: coordinate_pullback(curve, order)), repeat)
            law = group_law_closed_form(curve, order)
            closed = best_ms(lambda: group_law_closed_form(curve, order), repeat)
            exp_log = best_ms(lambda: group_law_exp_log(curve, order), repeat)
            axioms = best_ms(lambda: verify_axioms(law), repeat)
            law_bits = bits(c for row in law.scaled.rows for c in row)
            print(f"{f'{curve.g2},{curve.g3}':>12} {order:>5} {pullback:>11.3f}"
                  f" {first_division_bits(curve, order):>5} {closed:>10.3f} {exp_log:>10.3f}"
                  f" {axioms:>10.3f} {law_bits:>8}")


def param_rows(orders, repeat: int) -> None:
    print(f"{'curve':>12} {'order':>5} {'bits':>5} {'cold ms':>10} {'warm ms':>10} {'c_k bits':>8}")
    for curve in CURVES:
        flog = formal_logarithm(curve, NMAX)
        for order in orders:
            for precision in (53, 150):
                def point(flog=flog):
                    param_point(curve, flog, Z, NMAX, order, precision)
                first = best_ms(point, repeat, lambda: fresh_log(curve))
                point()  # fill the memo and the tables
                warm = best_ms(point, repeat)
                print(f"{f'{curve.g2},{curve.g3}':>12} {order:>5} {precision:>5} {first:>10.3f}"
                      f" {warm:>10.3f} {bits(wp_coefficients(curve, order).c):>8}")


def log_rows(orders, repeat: int) -> None:
    print(f"{'curve':>12} {'order':>5} {'log ms':>10} {'honda ms':>10} {'log bits':>8}")
    for curve in CURVES:
        for order in orders:
            log = best_ms(lambda: formal_logarithm(curve, order), repeat)
            honda = best_ms(lambda: honda_check(curve, order), repeat)
            print(f"{f'{curve.g2},{curve.g3}':>12} {order:>5} {log:>10.3f} {honda:>10.3f}"
                  f" {bits(formal_logarithm(curve, order).series.coeffs):>8}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", type=int, nargs="+", default=[18, 40, 60, 82])
    parser.add_argument("--log-orders", type=int, nargs="+", default=[41, 97, 201, 401, 1001])
    parser.add_argument("--tables", nargs="+", choices=("pullback", "param", "log"),
                        default=["pullback", "param", "log"])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    runs = {"pullback": lambda: pullback_rows(args.orders, args.repeat),
            "param": lambda: param_rows(args.orders, args.repeat),
            "log": lambda: log_rows(args.log_orders, args.repeat)}
    for n, table in enumerate(args.tables):
        if n:
            print()
        runs[table]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
