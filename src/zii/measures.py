"""Base measures, closed-form monomial moments, and density families.

A density family is a polynomial in x, y whose coefficients are exact
polynomials in the declared parameters, taken relative to one of three
base measures on the plane:

  * orthant-gamma(k1, k2): Gamma(k1) x Gamma(k2) product weight
    x^(k1-1) y^(k2-1) e^(-x-y) / (Gamma(k1) Gamma(k2)) on the positive
    quadrant, total mass 1.  Shapes may be rationals or positive symbols;
    symbolic shapes keep moments polynomial via rising factorials.
  * unit-box: uniform probability measure on [0,1]^2, total mass 1.
  * unit-disk: plain Lebesgue measure on the closed unit disk (mass PI,
    kept symbolic so disk moments stay exact rationals times powers of PI).

Monomial moments against these bases have closed forms, so every moment
of a family is an exact polynomial in its parameters.  One special
non-polynomial family is supported by name: sum-power-exp(l), the density
proportional to (x+y)^l e^(-x-y) on the orthant with l a nonnegative
integer parameter.  Its moments, rescaled by the (l+1)! normalizer so
that the mass at each integer l is 1, are again polynomials in l:

    m(p, q) = p! q! / (p+q+1)! * prod_{k=2}^{p+q+1} (l + k)

(At p = q = 0 the product is empty, so m(0, 0) = 1: the (l+1)!
normalizer gives every integer l unit mass, which is the property the
collapse search relies on.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Union

from .errors import ConstraintViolation, MissingSymbol
from .poly import Poly
from .symbols import Assumption, PI_NAME, SymbolTable, coerce_rational

__all__ = [
    "OrthantGamma",
    "UnitBox",
    "UnitDisk",
    "BaseMeasure",
    "ParamDecl",
    "Constraint",
    "DensityFamily",
    "coefficient_coordinates",
    "base_monomial_moment",
    "product_exponential",
    "sum_power_exp",
    "bilinear_box",
    "disk_quadratic",
]

SUM_POWER_EXP = "sum-power-exp"


@dataclass(frozen=True)
class OrthantGamma:
    """Gamma product base on the positive quadrant; shapes rational or symbolic."""

    shape_x: Union[Fraction, str] = Fraction(1)
    shape_y: Union[Fraction, str] = Fraction(1)

    tag = "orthant-gamma"


@dataclass(frozen=True)
class UnitBox:
    tag = "unit-box"


@dataclass(frozen=True)
class UnitDisk:
    tag = "unit-disk"


BaseMeasure = Union[OrthantGamma, UnitBox, UnitDisk]


def _double_factorial(n: int) -> int:
    # (-1)!! = 0!! = 1 by the usual empty-product convention
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def _rising_coefficients(start: int, count: int) -> list[int]:
    """Ascending coefficients in s of prod_{t=start}^{start+count-1} (s + t)."""
    coeffs = [1]
    for t in range(start, start + count):
        # multiply by (s + t): c_k <- c_(k-1) + t * c_k
        coeffs = [a + t * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    return coeffs


def _rising(table: SymbolTable, shape: Union[Fraction, str], count: int) -> Poly:
    """prod_{t=0}^{count-1} (shape + t) as a polynomial (constant if rational)."""
    if isinstance(shape, str):
        return Poly.from_univariate(table, shape, _rising_coefficients(0, count))
    return Poly.const(table, math.prod((shape + t for t in range(count)), start=Fraction(1)))


def base_monomial_moment(base: BaseMeasure, i: int, j: int, table: SymbolTable) -> Poly:
    """Exact integral of x^i y^j against the base measure."""
    if i < 0 or j < 0:
        raise ValueError("monomial exponents must be nonnegative")
    if isinstance(base, OrthantGamma):
        return _rising(table, base.shape_x, i) * _rising(table, base.shape_y, j)
    if isinstance(base, UnitBox):
        return Poly.const(table, Fraction(1, (i + 1) * (j + 1)))
    if isinstance(base, UnitDisk):
        if i % 2 or j % 2:
            return Poly.zero(table)
        num = 2 * _double_factorial(i - 1) * _double_factorial(j - 1)
        den = _double_factorial(i + j) * (i + j + 2)
        return Poly.symbol(table, PI_NAME) * Fraction(num, den)
    raise TypeError(f"unknown base measure {base!r}")


@dataclass(frozen=True)
class ParamDecl:
    name: str
    assumption: Assumption = Assumption.NONE
    lower: Fraction | None = None
    upper: Fraction | None = None


@dataclass(frozen=True)
class Constraint:
    """A relation `poly <rel> 0` among the parameters."""

    poly: Poly
    relation: str  # "=", ">" or ">="

    def __post_init__(self):
        if self.relation not in ("=", ">", ">="):
            raise ValueError(f"unsupported relation {self.relation!r}")

    def require_rational(self) -> None:
        """Raise ConstraintViolation if the constant PI appears: no rational point decides it."""
        if PI_NAME in self.poly.free_symbols():
            raise ConstraintViolation(
                f"constraint {self} involves the constant PI, which has no value "
                "in the exact rational arithmetic that checks a point"
            )

    def holds_at(self, value: Fraction) -> bool:
        if self.relation == "=":
            return value == 0
        if self.relation == ">":
            return value > 0
        return value >= 0

    def __str__(self) -> str:
        return f"{self.poly} {self.relation} 0"


@dataclass(frozen=True)
class DensityFamily:
    """A parameterized density relative to a base measure.

    kind "polynomial": `coeffs` maps (i, j) to the parameter-polynomial
    coefficient of x^i y^j.  kind "sum-power-exp": the named non-polynomial
    family with its integer parameter in `kind_symbol`.

    `scale` multiplies the density by a fixed positive rational; it scales
    every moment and hence every cofactor, so stripped equations must not
    change under it.
    """

    name: str
    table: SymbolTable
    base: BaseMeasure
    kind: str = "polynomial"
    coeffs: tuple[tuple[tuple[int, int], Poly], ...] = ()
    kind_symbol: str | None = None
    params: tuple[ParamDecl, ...] = ()
    constraints: tuple[Constraint, ...] = ()
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind not in ("polynomial", SUM_POWER_EXP):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == SUM_POWER_EXP:
            if not isinstance(self.base, OrthantGamma):
                raise ValueError("sum-power-exp requires the orthant base")
            if self.kind_symbol is None:
                raise ValueError("sum-power-exp needs its parameter symbol")
        if self.scale <= 0:
            raise ValueError("scale must be a positive rational")

    # -- declarations ----------------------------------------------------

    def param(self, name: str) -> ParamDecl:
        for decl in self.params:
            if decl.name == name:
                return decl
        raise MissingSymbol(f"{name!r} is not a declared parameter of {self.name}")

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.params)

    def scaled(self, c) -> "DensityFamily":
        c = coerce_rational(c)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return replace(self, scale=self.scale * c)

    # -- moments -----------------------------------------------------------

    def moment(self, p: int, q: int) -> Poly:
        """Exact moment E-hat[x^p y^q]: integral of x^p y^q times the density."""
        if p < 0 or q < 0:
            raise ValueError("moment orders must be nonnegative")
        if self.kind == SUM_POWER_EXP:
            m = p + q
            ratio = Fraction(math.factorial(p) * math.factorial(q), math.factorial(m + 1))
            # prod_{k=2}^{m+1} (l + k)
            rising = _rising_coefficients(2, m)
            out = Poly.from_univariate(self.table, self.kind_symbol, [c * ratio for c in rising])
        else:
            out = Poly.zero(self.table)
            for (i, j), coeff in self.coeffs:
                base_m = base_monomial_moment(self.base, i + p, j + q, self.table)
                if not base_m.is_zero and not coeff.is_zero:
                    out = out + coeff * base_m
        if self.scale != 1:
            out = out * self.scale
        return out

    def normalization_mass(self) -> Poly:
        return self.moment(0, 0)

    # -- pointwise views ------------------------------------------------------

    def coefficient_grid(self, point: Mapping[str, Fraction]) -> list[list[Fraction]]:
        """Dense (i, j) coefficient grid of the density at a parameter point.

        For the named family this is the binomial expansion of
        (x+y)^l / (l+1)! at the given integer l.
        """
        if self.kind == SUM_POWER_EXP:
            lval = coerce_rational(point[self.kind_symbol])
            if lval.denominator != 1 or lval < 0:
                raise ConstraintViolation(f"{self.kind_symbol} must be a nonnegative integer")
            n = int(lval)
            norm = Fraction(1, math.factorial(n + 1))
            grid = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
            for i in range(n + 1):
                grid[i][n - i] = math.comb(n, i) * norm * self.scale
            return grid
        if not self.coeffs:
            return [[Fraction(0)]]
        imax = max(i for (i, _), _ in self.coeffs)
        jmax = max(j for (_, j), _ in self.coeffs)
        grid = [[Fraction(0)] * (jmax + 1) for _ in range(imax + 1)]
        for (i, j), coeff in self.coeffs:
            grid[i][j] = coeff.evaluate(point) * self.scale
        return grid

    def check_point(self, point: Mapping[str, Fraction]) -> dict[str, Fraction]:
        """Validate a parameter point against declarations and constraints.

        Returns the normalized {name: Fraction} assignment or raises
        ConstraintViolation naming the first failure.
        """
        values: dict[str, Fraction] = {}
        for decl in self.params:
            if decl.name not in point:
                raise ConstraintViolation(f"no value given for parameter {decl.name!r}")
            v = coerce_rational(point[decl.name])
            if decl.assumption is Assumption.POSITIVE and v <= 0:
                raise ConstraintViolation(f"{decl.name} = {v} violates positivity")
            if decl.assumption is Assumption.NONNEG_INT and (v.denominator != 1 or v < 0):
                raise ConstraintViolation(f"{decl.name} = {v} is not a nonnegative integer")
            if decl.lower is not None and v < decl.lower:
                raise ConstraintViolation(f"{decl.name} = {v} below lower bound {decl.lower}")
            if decl.upper is not None and v > decl.upper:
                raise ConstraintViolation(f"{decl.name} = {v} above upper bound {decl.upper}")
            values[decl.name] = v
        extra = set(point) - set(values)
        if extra:
            raise ConstraintViolation(f"unknown parameters in point: {sorted(extra)}")
        for constraint in self.constraints:
            constraint.require_rational()
            val = constraint.poly.evaluate(values)
            if not constraint.holds_at(val):
                raise ConstraintViolation(
                    f"constraint {constraint} fails: left side evaluates to {val}"
                )
        return values


def _independent(rows: list[list[Fraction]]) -> bool:
    """True when the rational vectors are linearly independent (Gaussian elimination)."""
    while rows:
        row, *rows = rows
        col = next((k for k, v in enumerate(row) if v), None)
        if col is None:
            return False
        rows = [[v - r[col] / row[col] * w for v, w in zip(r, row)] for r in rows]
    return True


def coefficient_coordinates(
    family: DensityFamily,
) -> tuple[DensityFamily, tuple[Poly, ...]] | None:
    """The family in one symbol t_k per nonconstant coefficient, or None.

    M_d is linear in the coefficients, so it depends on the parameters only
    through them.  When the nonconstant coefficients are affine forms with
    linearly independent linear parts, mention no PI, and are fewer than the
    parameters they mention, writing each as r_k * t_k (r_k its rational
    content, so that t_k = c_k / r_k has coprime integer coefficients)
    leaves fewer symbols.  Returns that family and, in the order of its
    table's names, the value of each symbol over `family.table`: t_k's
    integer form, and PI itself.  Symbolic gamma shapes and the named
    family do not qualify.
    """
    base = family.base
    if family.kind != "polynomial" or (
        isinstance(base, OrthantGamma)
        and (isinstance(base.shape_x, str) or isinstance(base.shape_y, str))
    ):
        return None
    forms = [c for _, c in family.coeffs if c.free_symbols()]
    mentioned = sorted({n for c in forms for n in c.free_symbols()})
    if (
        len(forms) >= len(mentioned)
        or PI_NAME in mentioned
        or any(c.total_degree() > 1 for c in forms)
    ):
        return None
    width = len(family.table)
    unit = [tuple(int(j == family.table.index(n)) for j in range(width)) for n in mentioned]
    if not _independent([[c.terms.get(e, Fraction(0)) for e in unit] for c in forms]):
        return None
    names = [f"t{k}" for k in range(len(forms))]
    table = SymbolTable.build(names)
    values = {PI_NAME: Poly.symbol(family.table, PI_NAME)}
    fresh = iter(names)
    coeffs = []
    for key, c in family.coeffs:
        if c.free_symbols():
            name = next(fresh)
            content = c.content()
            values[name] = c * (1 / content)
            coeffs.append((key, Poly.symbol(table, name) * content))
        else:
            coeffs.append((key, Poly.const(table, c.constant_value())))
    coordinates = replace(family, table=table, coeffs=tuple(coeffs), params=(), constraints=())
    return coordinates, tuple(values[n] for n in table.names)


# -- built-in families ---------------------------------------------------------


def product_exponential() -> DensityFamily:
    """e^(-x-y) on the orthant: the worked running example, no parameters."""
    table = SymbolTable.build()
    return DensityFamily(
        name="product-exponential",
        table=table,
        base=OrthantGamma(),
        coeffs=(((0, 0), Poly.const(table, 1)),),
    )


def sum_power_exp() -> DensityFamily:
    """(x+y)^ell e^(-x-y) / (ell+1)! on the orthant, ell a nonnegative integer."""
    table = SymbolTable.build({"ell": Assumption.NONNEG_INT})
    return DensityFamily(
        name="sum-power-exp",
        table=table,
        base=OrthantGamma(),
        kind=SUM_POWER_EXP,
        kind_symbol="ell",
        params=(ParamDecl("ell", Assumption.NONNEG_INT, Fraction(0), Fraction(10)),),
    )


def bilinear_box() -> DensityFamily:
    """a00 + a10 x + a01 y + a11 xy on the unit box, coefficients unconstrained."""
    table = SymbolTable.build(["a00", "a01", "a10", "a11"])
    sym = lambda n: Poly.symbol(table, n)
    return DensityFamily(
        name="bilinear-box",
        table=table,
        base=UnitBox(),
        coeffs=(
            ((0, 0), sym("a00")),
            ((0, 1), sym("a01")),
            ((1, 0), sym("a10")),
            ((1, 1), sym("a11")),
        ),
        params=tuple(ParamDecl(n) for n in ("a00", "a01", "a10", "a11")),
    )


def disk_quadratic() -> DensityFamily:
    """v + a x^2 + (b+c) xy + d y^2 on the unit disk with a*d - b*c = 1.

    v is kept as a positive symbol pinned to 1 for sampling (bounds 1..1);
    equations derived with v symbolic homogenize the fixed-v ones.
    """
    table = SymbolTable.build(
        {
            "a": Assumption.NONE,
            "b": Assumption.NONE,
            "c": Assumption.NONE,
            "d": Assumption.NONE,
            "v": Assumption.POSITIVE,
        }
    )
    sym = lambda n: Poly.symbol(table, n)
    return DensityFamily(
        name="disk-quadratic",
        table=table,
        base=UnitDisk(),
        coeffs=(
            ((0, 0), sym("v")),
            ((0, 2), sym("d")),
            ((1, 1), sym("b") + sym("c")),
            ((2, 0), sym("a")),
        ),
        params=(
            ParamDecl("a"),
            ParamDecl("b"),
            ParamDecl("c"),
            ParamDecl("d"),
            ParamDecl("v", Assumption.POSITIVE, Fraction(1), Fraction(1)),
        ),
        constraints=(
            Constraint(
                Poly.symbol(table, "a") * Poly.symbol(table, "d")
                - Poly.symbol(table, "b") * Poly.symbol(table, "c")
                - 1,
                "=",
            ),
        ),
    )


BUILTIN_FAMILIES = {
    "product-exponential": product_exponential,
    "sum-power-exp": sum_power_exp,
    "bilinear-box": bilinear_box,
    "disk-quadratic": disk_quadratic,
}
