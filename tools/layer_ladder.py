"""Time the pullback, both group laws, the axiom check, ``param_point``,
the exponential, the log and ``honda_check`` over a ladder of orders, next
to their sizes.

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

A third table times one ``formal_exponential(curve, order)``, one
``formal_logarithm(curve, order)`` and one ``honda_check(curve, order)``
(a(p) at the good primes p <= order, and their point counts) over
``--log-orders``, in ms, next to the largest bit size of a numerator or
denominator of the log's coefficients.  ``--tables`` picks which tables
run.

``--against DIR`` compares two trees in one process: it imports
``DIR/src/ellformal`` as a second package next to this tree's, and each
timed column becomes the parent (``DIR``) ms, the change (this tree) ms and
their ratio, change over parent.  Within each cell the two sides run
alternately, each repeat starting with the other side, so host drift
lands on both.  Every pair of results is compared, series by their
coefficients and reports field by field; the tool names each cell where
the two differ and exits 1.  Sizes are read on this tree.  Run from the
repository root, for example

    python3 tools/layer_ladder.py
    python3 tools/layer_ladder.py --orders 20 40 --repeat 15
    python3 tools/layer_ladder.py --tables log --log-orders 41 97 201 1001
    python3 tools/layer_ladder.py --against ../parent --tables pullback log
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ellformal  # noqa: E402

CURVES = ((4, 0), (-7, 13), (Fraction(-3, 7), Fraction(5, 11)))
Z, NMAX = 0.1 + 0.8j, 50


@dataclasses.dataclass(frozen=True)
class Side:
    """One package under test and the bench curves built by its own ``Curve``."""

    pkg: object
    curves: tuple


def side(pkg) -> Side:
    return Side(pkg, tuple(pkg.Curve(*pair) for pair in CURVES))


def load_tree(root: Path):
    """``root/src/ellformal`` imported as the package ``ellformal_against``."""
    init = root / "src" / "ellformal" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "ellformal_against", init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def plain(x):
    """x with every dataclass and series as nested tuples of its values, so that
    results of two packages, whose classes differ, compare by value."""
    if dataclasses.is_dataclass(x):
        return tuple(plain(getattr(x, f.name)) for f in dataclasses.fields(x))
    for name in ("coeffs", "rows"):  # UniSeries, BiSeries
        if hasattr(x, name):
            return plain(getattr(x, name))
    if isinstance(x, (list, tuple)):
        return tuple(map(plain, x))
    return x


def bits(values) -> int:
    """Largest bit size of a numerator or denominator among int or Fraction values."""
    return max(max(abs(Fraction(c).numerator).bit_length(), Fraction(c).denominator.bit_length())
               for c in values)


def first_division_bits(curve, order: int) -> int:
    """Largest bit size in the operands of the first ``UniSeries.__truediv__``
    of one pullback."""
    uni, seen = ellformal.UniSeries, []
    original = uni.__truediv__

    def recording(a, b):
        if not seen:
            seen.extend(c for s in (a, b) for c in s.coeffs)
        return original(a, b)

    uni.__truediv__ = recording
    try:
        ellformal.coordinate_pullback(curve, order)
    finally:
        uni.__truediv__ = original
    return bits(seen)


class Ladder:
    """Times calls on one side, or on a parent and a change side alternately."""

    def __init__(self, sides, repeat: int):
        self.sides, self.repeat, self.mismatches = sides, repeat, []

    def head(self, name: str) -> str:
        """Header of a timed column ``name`` ms."""
        if len(self.sides) == 1:
            return f"{name + ' ms':>10}"
        return f"{name + ' parent':>12} {name + ' change':>12} {'ratio':>6}"

    def cell(self, what: str, call, fresh=None) -> str:
        """Minimum over ``repeat`` of one ``call(side, *fresh(side))`` on each
        side, ``fresh`` untimed, formatted under :meth:`head`."""
        sides = range(len(self.sides))
        times, results = [[] for _ in sides], [None for _ in sides]
        for r in range(self.repeat):
            for i in (sides if r % 2 == 0 else reversed(sides)):
                s = self.sides[i]
                args = fresh(s) if fresh else ()
                start = time.perf_counter()
                results[i] = call(s, *args)
                times[i].append(time.perf_counter() - start)
        ms = [1e3 * min(t) for t in times]
        if len(ms) == 1:
            return f"{ms[0]:>10.3f}"
        if plain(results[0]) != plain(results[1]):
            self.mismatches.append(what)
        return f"{ms[0]:>12.3f} {ms[1]:>12.3f} {ms[1] / ms[0]:>6.3f}"


def label(pair) -> str:
    return f"{pair[0]},{pair[1]}"


def cold(call):
    """``call`` with its side's ``wp_coefficients`` memo emptied first."""
    def run(s):
        s.pkg.wp_coefficients.cache_clear()
        return call(s)
    return run


def pullback_rows(ladder: Ladder, orders) -> None:
    print(f"{'curve':>12} {'order':>5} {ladder.head('pullback')} {'bits':>5} {ladder.head('law')}"
          f" {ladder.head('exp-log')} {ladder.head('axioms')} {'F~ bits':>8}")
    for c, pair in enumerate(CURVES):
        curve = ladder.sides[-1].curves[c]
        for order in orders:
            where = f"{label(pair)} order {order}"
            pullback = ladder.cell(f"pullback {where}", cold(
                lambda s: s.pkg.coordinate_pullback(s.curves[c], order)))
            closed = ladder.cell(f"law {where}",
                                 lambda s: s.pkg.group_law_closed_form(s.curves[c], order))
            exp_log = ladder.cell(f"exp-log {where}",
                                  lambda s: s.pkg.group_law_exp_log(s.curves[c], order))
            laws = {id(s): s.pkg.group_law_closed_form(s.curves[c], order) for s in ladder.sides}
            axioms = ladder.cell(f"axioms {where}", lambda s: s.pkg.verify_axioms(laws[id(s)]))
            law_bits = bits(x for row in laws[id(ladder.sides[-1])].scaled.rows for x in row)
            print(f"{label(pair):>12} {order:>5} {pullback} {first_division_bits(curve, order):>5}"
                  f" {closed} {exp_log} {axioms} {law_bits:>8}")


def param_rows(ladder: Ladder, orders) -> None:
    print(f"{'curve':>12} {'order':>5} {'bits':>5} {ladder.head('cold')} {ladder.head('warm')}"
          f" {'c_k bits':>8}")
    for c, pair in enumerate(CURVES):
        logs = {id(s): s.pkg.formal_logarithm(s.curves[c], NMAX) for s in ladder.sides}
        for order in orders:
            for precision in (53, 150):
                where = f"{label(pair)} order {order} at {precision} bits"

                def point(s, flog=None):
                    return s.pkg.param_point(s.curves[c], flog or logs[id(s)], Z, NMAX, order,
                                             precision)

                def fresh_log(s):
                    """A new formal log, with the ``wp_coefficients`` memo emptied:
                    a ``param_point`` on it finds no expansion and no table."""
                    s.pkg.wp_coefficients.cache_clear()
                    return (s.pkg.formal_logarithm(s.curves[c], NMAX),)

                first = ladder.cell(f"cold param {where}", point, fresh_log)
                for s in ladder.sides:
                    point(s)  # fill the memo and the tables
                warm = ladder.cell(f"warm param {where}", point)
                c_bits = bits(ellformal.wp_coefficients(ladder.sides[-1].curves[c], order).c)
                print(f"{label(pair):>12} {order:>5} {precision:>5} {first} {warm} {c_bits:>8}")


def log_rows(ladder: Ladder, orders) -> None:
    print(f"{'curve':>12} {'order':>5} {ladder.head('exp')} {ladder.head('log')}"
          f" {ladder.head('honda')} {'log bits':>8}")
    for c, pair in enumerate(CURVES):
        for order in orders:
            where = f"{label(pair)} order {order}"
            exp = ladder.cell(f"exp {where}",
                              lambda s: s.pkg.formal_exponential(s.curves[c], order))
            log = ladder.cell(f"log {where}",
                              lambda s: s.pkg.formal_logarithm(s.curves[c], order))
            honda = ladder.cell(f"honda {where}",
                                lambda s: s.pkg.honda_check(s.curves[c], order))
            log_bits = bits(ellformal.formal_logarithm(ladder.sides[-1].curves[c], order)
                            .series.coeffs)
            print(f"{label(pair):>12} {order:>5} {exp} {log} {honda} {log_bits:>8}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", type=int, nargs="+", default=[18, 40, 60, 82])
    parser.add_argument("--log-orders", type=int, nargs="+", default=[41, 97, 201, 401])
    parser.add_argument("--tables", nargs="+", choices=("pullback", "param", "log"),
                        default=["pullback", "param", "log"])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="a second tree, the parent, timed in the same process")
    args = parser.parse_args(argv)
    sides = [side(ellformal)]
    if args.against:
        sides.insert(0, side(load_tree(args.against.resolve())))
    ladder = Ladder(sides, args.repeat)
    runs = {"pullback": lambda: pullback_rows(ladder, args.orders),
            "param": lambda: param_rows(ladder, args.orders),
            "log": lambda: log_rows(ladder, args.log_orders)}
    for n, table in enumerate(args.tables):
        if n:
            print()
        runs[table]()
    for what in ladder.mismatches:
        print(f"the two trees differ: {what}", file=sys.stderr)
    return 1 if ladder.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
