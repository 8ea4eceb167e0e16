"""Exact moment matrices and the zeros-in-the-inverse parameter collapse.

Given a parameterized bivariate density, this package builds truncated
moment matrices in exact rational arithmetic, extracts the polynomial
equations that force the masked entries of the inverse to vanish, and
searches for the smallest truncation degree at which those equations
collapse the parameters onto product-form (independent) densities.
"""

__version__ = "0.1.0"

from .collapse import (
    CollapseReport,
    ProductVerdict,
    SolutionAnalysis,
    SolveStatus,
    Witness,
    analyze_system,
    check_product_form,
    collapse_order,
    moment_factorization_check,
    solve_univariate,
)
from .dsl import parse_density_spec, parse_expression, render_spec
from .equations import EquationSystem, ZiiMask, compute_mask, zii_equations
from .errors import (
    ConstraintViolation,
    DegreeOutOfRange,
    DslError,
    DslSyntaxError,
    ExponentBoundExceeded,
    IllConditioned,
    InexactDivision,
    MissingSymbol,
    NoConvergence,
    NonPolynomialInXY,
    NotUnivariate,
    SingularMatrix,
    SymbolTableMismatch,
    UndeclaredSymbol,
    ZiiError,
)
from .inverse import ExactInverse, invert_exact
from .measures import (
    BUILTIN_FAMILIES,
    BaseMeasure,
    Constraint,
    DensityFamily,
    OrthantGamma,
    ParamDecl,
    UnitBox,
    UnitDisk,
    base_monomial_moment,
    bilinear_box,
    disk_quadratic,
    product_exponential,
    sum_power_exp,
)
from .moments import MomentMatrix, MonomialBasis, build_basis, build_matrix
from .numeric import (
    NumericDensity,
    bessel_i0,
    kibble_gamma,
    numeric_density,
    numeric_moment,
    numeric_zii_residuals,
)
from .poly import Poly
from .symbols import Assumption, PI_NAME, SymbolTable

__all__ = [
    "__version__",
    "Assumption",
    "BUILTIN_FAMILIES",
    "BaseMeasure",
    "CollapseReport",
    "Constraint",
    "ConstraintViolation",
    "DegreeOutOfRange",
    "DensityFamily",
    "DslError",
    "DslSyntaxError",
    "EquationSystem",
    "ExactInverse",
    "ExponentBoundExceeded",
    "IllConditioned",
    "InexactDivision",
    "MissingSymbol",
    "MomentMatrix",
    "MonomialBasis",
    "NoConvergence",
    "NonPolynomialInXY",
    "NotUnivariate",
    "NumericDensity",
    "OrthantGamma",
    "PI_NAME",
    "ParamDecl",
    "Poly",
    "ProductVerdict",
    "SingularMatrix",
    "SolutionAnalysis",
    "SolveStatus",
    "SymbolTable",
    "SymbolTableMismatch",
    "UndeclaredSymbol",
    "UnitBox",
    "UnitDisk",
    "Witness",
    "ZiiError",
    "ZiiMask",
    "analyze_system",
    "base_monomial_moment",
    "bessel_i0",
    "bilinear_box",
    "build_basis",
    "build_matrix",
    "check_product_form",
    "collapse_order",
    "compute_mask",
    "disk_quadratic",
    "invert_exact",
    "kibble_gamma",
    "moment_factorization_check",
    "numeric_density",
    "numeric_moment",
    "numeric_zii_residuals",
    "parse_density_spec",
    "parse_expression",
    "product_exponential",
    "render_spec",
    "solve_univariate",
    "sum_power_exp",
    "zii_equations",
]
