"""Exact formal-group engine for curves y^2 = 4x^3 - g2*x - g3 over Q.

Pipeline: from (g2, g3), that is (A, B) = (-g2/4, -g3/4), three routes
that read neither each other nor wp, all in integers on the curve scaled
by weight.  (A, B) -> exp by the chord ODE: the formal exponential
t = -2x/y along z, with s = -2/y, from E' = 1 - 2A E S - 3B S^2 and
S' = 3E^2 + A S^2.  (A, B) -> log in closed form: dx/y integrated, its
coefficients the middle coefficients of the powers of the scaled cubic.
(A, B) -> the chart coordinate s = -2/y.  wp is expanded on its own and
checks them: the pullback identities bind it to the log and the chart, the
``bernoulli`` cross-checks to the exp, and exp and log invert each other
(reverting the exponential stays as a check too).  Candidate L-series
coefficients are read off the logarithm and verified prime by prime
against naive point counts; the q-series parametrization is evaluated
numerically and confirmed to land on the curve.  Universal Bernoulli
numbers, their elliptic analogues, and the group law (built two
independent ways) come along for free.

All symbolic computation is exact, over ``int`` or
:class:`fractions.Fraction`; floating point enters only in
:mod:`ellformal.numeric_eval`.
"""

from .series import (
    BiSeries,
    CompositionDomainError,
    NonUnitDivisorError,
    OrderMismatchError,
    ReversionDomainError,
    UniSeries,
    bi_substitute,
    divided_difference,
)
from .weierstrass import (
    Curve,
    WpExpansion,
    differential_equation_residual,
    wp_coefficients,
)
from .formal_group import (
    AxiomReport,
    FormalExp,
    FormalLog,
    GroupLaw,
    InexactLawError,
    PullbackIdentities,
    SCoordinate,
    coordinate_pullback,
    formal_exponential,
    formal_logarithm,
    group_law_closed_form,
    group_law_exp_log,
    s_coordinate,
    universal_bernoulli,
    verify_axioms,
)
from .lseries import (
    ClassicalReport,
    HondaEntry,
    HondaReport,
    ReducedCurve,
    ReductionSkip,
    UnsupportedPrimeError,
    classical_demo,
    count_points,
    honda_check,
    primes_upto,
    reduce_curve,
)
from .numeric_eval import (
    DerivativeCheck,
    HalfPlaneError,
    OutOfRadiusError,
    ParamResult,
    PoleError,
    derivative_check,
    eval_cusp_qseries,
    eval_log_qseries,
    eval_wp,
    param_point,
    reliability_radius,
)
from .cli import RationalParseError, RunConfig, parse_rational, run

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BiSeries",
    "ClassicalReport",
    "CompositionDomainError",
    "Curve",
    "DerivativeCheck",
    "FormalExp",
    "FormalLog",
    "GroupLaw",
    "HalfPlaneError",
    "HondaEntry",
    "HondaReport",
    "InexactLawError",
    "NonUnitDivisorError",
    "OrderMismatchError",
    "OutOfRadiusError",
    "ParamResult",
    "PoleError",
    "PullbackIdentities",
    "RationalParseError",
    "ReducedCurve",
    "ReductionSkip",
    "ReversionDomainError",
    "RunConfig",
    "SCoordinate",
    "UniSeries",
    "UnsupportedPrimeError",
    "WpExpansion",
    "bi_substitute",
    "classical_demo",
    "coordinate_pullback",
    "count_points",
    "derivative_check",
    "differential_equation_residual",
    "divided_difference",
    "eval_cusp_qseries",
    "eval_log_qseries",
    "eval_wp",
    "formal_exponential",
    "formal_logarithm",
    "group_law_closed_form",
    "group_law_exp_log",
    "honda_check",
    "param_point",
    "parse_rational",
    "primes_upto",
    "reduce_curve",
    "reliability_radius",
    "run",
    "s_coordinate",
    "universal_bernoulli",
    "verify_axioms",
    "wp_coefficients",
]
