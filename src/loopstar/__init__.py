"""Goldman brackets and stacked-diagram star products of Wilson loops on
curve diagrams, with an exact truncated series ring and a matrix-holonomy
numeric oracle."""

from .coeff import (
    DEFAULT_ORDER,
    CoeffError,
    CrossingCoeffs,
    GroupSpec,
    HolonomyError,
    SeriesCoeff,
    closed_crossing_values,
    crossing_coeffs,
    derived_generator,
    exp_generator,
    kauffman_coeffs,
    series_hyperbolic,
)
from .diagram import (
    Arc,
    CrossingPoint,
    Curve,
    Diagram,
    DiagramError,
    FormalSum,
    Loop,
    Monomial,
    TransversalityError,
    canonical,
    formal_sum_from_json,
    formal_sum_to_json,
    monomial,
    parse_diagram,
)
from .goldman import bracket_gln, bracket_loops, bracket_poly, bracket_sl2
from .star import (
    StarError,
    assoc_check,
    expect_diagram,
    expect_loops,
    expect_values,
    poisson_limit_check,
    star,
    star_complex,
    star_loops,
    unoriented_kauffman_resolution,
)

__version__ = "0.1.0"

# The numeric oracle's names are read from loopstar.holonomy on each access,
# so `import loopstar` never loads numpy, and nothing is stored here that a
# wrapper installed on loopstar.holonomy would miss.
_HOLONOMY_NAMES = frozenset({
    "HolonomyAssignment",
    "eval_formal",
    "eval_monomial",
    "eval_wilson",
    "lattice_derivative_check",
    "lie_basis",
    "projection_pi",
    "random_assignment",
    "sample",
    "verify_gram_identity",
})


def __getattr__(name: str):
    if name in _HOLONOMY_NAMES:
        from . import holonomy

        return getattr(holonomy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _HOLONOMY_NAMES)
