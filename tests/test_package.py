"""The package's public surface: every name in ``ellformal.__all__`` resolves,
importing the package stays light, and every integer argument follows the
library's one integer rule."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import ellformal
from ellformal import (
    Curve,
    ReducedCurve,
    classical_demo,
    derivative_check,
    eval_cusp_qseries,
    eval_log_qseries,
    formal_logarithm,
    honda_check,
    lseries,
    numeric_eval,
    param_point,
    reduce_curve,
    series,
    wp_coefficients,
)
from ellformal.lseries import primes_upto


@pytest.mark.parametrize("name", ellformal.__all__)
def test_exported_name_resolves(name):
    assert hasattr(ellformal, name)


def test_import_loads_no_mpmath():
    # mpmath adds tens of ms to an import: only the work that needs it loads it
    paths = (str(Path(ellformal.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = "import sys, ellformal; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


_CURVE = Curve(F(-3, 7), F(5, 11))
_FLOG, _Z = formal_logarithm(_CURVE, 40), 0.1 + 0.8j

# Every integer argument outside the series orders (see TestOrderRule), keyed
# "<call>.<argument>", with the least value it takes: None where the rule checks
# the type only and the call keeps its own range check.
_INT_ARGS = {
    "param_point.nmax": (1, lambda v: param_point(_CURVE, _FLOG, _Z, v, 20)),
    "derivative_check.nmax": (1, lambda v: derivative_check(_CURVE, _FLOG, _Z, 1e-4, v)),
    "eval_log_qseries.nmax": (1, lambda v: eval_log_qseries(_FLOG, _Z, v)),
    "eval_cusp_qseries.nmax": (1, lambda v: eval_cusp_qseries(_FLOG, _Z, v)),
    "param_point.precision": (53, lambda v: param_point(_CURVE, _FLOG, _Z, 10, 20, v)),
    "classical_demo.nmax": (1, lambda v: classical_demo(v, [2], 8)),
    "classical_demo.s": (1, lambda v: classical_demo(10, [2, v], 8)),
    "classical_demo.series_order": (1, lambda v: classical_demo(10, [2], v)),
    "honda_check.pmax": (5, lambda v: honda_check(Curve(4, 0), v)),
    "WpExpansion.eisenstein.k": (4, lambda v: wp_coefficients(_CURVE, 5).eisenstein(v)),
    "reduce_curve.p": (None, lambda v: reduce_curve(_CURVE, v)),
    "ReducedCurve.p": (None, lambda v: ReducedCurve(v, 1, 1)),
    "ReducedCurve.A": (None, lambda v: ReducedCurve(7, v, 1)),
    "ReducedCurve.B": (None, lambda v: ReducedCurve(7, 1, v)),
    "primes_upto.n": (None, lambda v: primes_upto(v)),
}


class TestIntegerRule:
    @pytest.mark.parametrize("value", (True, 4.0, F(4)), ids=("bool", "float", "Fraction"))
    @pytest.mark.parametrize("site", _INT_ARGS)
    def test_another_type_refused_by_name_before_any_work(self, site, value, monkeypatch):
        # 4.0 and F(4) equal 4, and True is 1: none builds a series, an expansion
        # or a sieve, where each used to fail, or pass, with a message of its own
        for module, name in ((series, "_row"), (numeric_eval, "wp_coefficients"),
                             (lseries, "primes_upto")):
            monkeypatch.setattr(module, name, None)
        name = site.rsplit(".", 1)[1]
        with pytest.raises(TypeError, match=f"^{name} must be an int, not {type(value).__name__}$"):
            _INT_ARGS[site][1](value)

    @pytest.mark.parametrize("site", [site for site, (low, _) in _INT_ARGS.items() if low])
    def test_least_value_taken_and_one_below_refused(self, site):
        low, call = _INT_ARGS[site]
        call(low)
        with pytest.raises(ValueError, match=f"^{site.rsplit('.', 1)[1]} must be >= {low}$"):
            call(low - 1)
