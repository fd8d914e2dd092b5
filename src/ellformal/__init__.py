"""Exact formal-group engine for curves y^2 = 4x^3 - g2*x - g3 over Q.

Pipeline: expand wp and wp' as exact Laurent series from (g2, g3); form
the formal exponential -2*wp/wp', and integrate the invariant
differential dx/y into the formal logarithm (reverting the exponential
and composing exp with log stay as checks); read candidate L-series
coefficients off the logarithm and verify them prime by prime against
naive point counts; evaluate the resulting q-series parametrization
numerically and confirm it lands on the curve.  Universal Bernoulli
numbers, their elliptic analogues, and the group law (built two
independent ways) come along for free.

All symbolic computation is exact over :class:`fractions.Fraction`;
floating point enters only in :mod:`ellformal.numeric_eval`.
"""

from .series import (
    BiSeries,
    CompositionDomainError,
    LaurentSeries,
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
    bernoulli_hurwitz,
    differential_equation_residual,
    eisenstein_g,
    wp_coefficients,
    wp_laurent,
    wp_prime_laurent,
)
from .formal_group import (
    AxiomReport,
    FormalExp,
    FormalLog,
    GroupLaw,
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
    extract_an,
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
    "LaurentSeries",
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
    "bernoulli_hurwitz",
    "bi_substitute",
    "classical_demo",
    "coordinate_pullback",
    "count_points",
    "derivative_check",
    "differential_equation_residual",
    "divided_difference",
    "eisenstein_g",
    "eval_cusp_qseries",
    "eval_log_qseries",
    "eval_wp",
    "extract_an",
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
    "wp_laurent",
    "wp_prime_laurent",
]
