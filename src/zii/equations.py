"""The zeros-in-the-inverse mask and the equations it induces.

For basis monomials x^a1 y^a2 and x^b1 y^b2 of degree at most d, the
inverse moment matrix of an independent (product-form) density is forced
to vanish at exactly the off-diagonal pairs with

    max(a1, b1) + max(a2, b2) > d,

because the product of the two complementary-coordinate marginal factors
then escapes the degree-d truncation.  That set of positions is the mask.
Requiring the inverse to vanish on the mask for a parameterized family
turns, entry by entry, into polynomial equations on the parameters: the
(r, c) entry of the inverse is adj(r, c)/det, so its numerator in lowest
terms must vanish.  The matrix splits into diagonal blocks, and a cofactor
inside block b is C_b times the other blocks' determinants, which cancel
from det; so each in-block cofactor C_b is divided by its gcd with det_b,
its own block's determinant (the one place multivariate gcd is used,
delegated to sympy).  The full determinant is never formed here.  The
numerator is then stripped of rational content, monomials in positive
symbols, and an overall sign.  Identical stripped equations from
different mask positions are merged, keeping every originating position
as provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SingularMatrix
from .inverse import BlockCofactors, block_cofactors
from .measures import DensityFamily
from .moments import MomentMatrix, MonomialBasis, build_basis, build_matrix
from .poly import Poly
from .symbols import SymbolTable

__all__ = ["ZiiMask", "EquationEntry", "EquationSystem", "compute_mask", "zii_equations"]


@dataclass(frozen=True)
class ZiiMask:
    """Strictly upper-triangular index pairs (0-based, row-major order)."""

    degree: int
    basis: MonomialBasis
    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        r, c = pair
        return (min(r, c), max(r, c)) in set(self.pairs)

    def labels(self) -> tuple[tuple[str, str], ...]:
        return tuple((self.basis.label(r), self.basis.label(c)) for r, c in self.pairs)


def mask_predicate(a: tuple[int, int], b: tuple[int, int], degree: int) -> bool:
    return max(a[0], b[0]) + max(a[1], b[1]) > degree


def compute_mask(basis_or_degree) -> ZiiMask:
    basis = (
        basis_or_degree
        if isinstance(basis_or_degree, MonomialBasis)
        else build_basis(basis_or_degree)
    )
    d = basis.degree
    pairs = []
    for r in range(len(basis)):
        for c in range(r + 1, len(basis)):
            if mask_predicate(basis.exponents[r], basis.exponents[c], d):
                pairs.append((r, c))
    return ZiiMask(d, basis, tuple(pairs))


@dataclass(frozen=True)
class EquationEntry:
    """One stripped equation with every mask position that produced it."""

    poly: Poly
    pairs: tuple[tuple[int, int], ...]

    @property
    def is_trivial(self) -> bool:
        return self.poly.is_zero


@dataclass(frozen=True)
class EquationSystem:
    degree: int
    basis: MonomialBasis
    entries: tuple[EquationEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def polys(self) -> tuple[Poly, ...]:
        return tuple(e.poly for e in self.entries)

    def nontrivial(self) -> tuple[EquationEntry, ...]:
        return tuple(e for e in self.entries if not e.is_trivial)

    def texts(self) -> tuple[str, ...]:
        return tuple(e.poly.to_text() for e in self.entries)


# -- sympy bridge (kept local to this module on purpose; sympy is imported
# on first use, so `import zii` does not pay for it) -----------------------


def _sympy_symbols(table: SymbolTable) -> tuple[sympy.Symbol, ...]:
    import sympy

    return tuple(sympy.Symbol(n) for n in table.names)


def _to_sympy(p: Poly, gens: tuple[sympy.Symbol, ...]) -> sympy.Poly:
    import sympy

    data = {
        exps: sympy.Rational(c.numerator, c.denominator) for exps, c in p.terms.items()
    }
    return sympy.Poly.from_dict(data, *gens, domain="QQ")


def _from_sympy(sp: sympy.Poly, table: SymbolTable) -> Poly:
    import sympy

    terms = {}
    for monom, coeff in sp.terms():
        q = sympy.Rational(coeff)
        terms[tuple(int(e) for e in monom)] = Fraction(int(q.p), int(q.q))
    return Poly(table, terms)


def _reduce(raw: Poly, det: sympy.Poly, gens: tuple[sympy.Symbol, ...]) -> Poly:
    if raw.is_zero:
        return raw
    g = _to_sympy(raw, gens).gcd(det)
    if g.is_ground:
        return raw
    return raw.exact_divide(_from_sympy(g, raw.table))


def reduce_by_determinant(raw: Poly, det: Poly) -> Poly:
    """Numerator of raw/det in lowest terms: raw divided by gcd(raw, det)."""
    gens = _sympy_symbols(raw.table)
    return _reduce(raw, _to_sympy(det, gens), gens)


def _reduce_in_blocks(blocks: BlockCofactors) -> list[Poly]:
    """Numerators of adj/det in lowest terms, up to rational units.

    A cofactor inside block b is C_b * P and det = det_b * P, where P is the
    product of the other blocks' determinants, so its reduced numerator is
    C_b / gcd(C_b, det_b): the gcd runs against the block's own determinant
    and neither det nor any product with P is ever formed.
    """
    table = blocks.determinants[0].table
    gens = _sympy_symbols(table)
    dets = [_to_sympy(d, gens) for d in blocks.determinants]
    zero = Poly.zero(table)
    return [
        zero if item is None else _reduce(item[1], dets[item[0]], gens)
        for item in blocks.cofactors
    ]


# -- extraction --------------------------------------------------------------


def zii_equations(family_or_matrix, degree: int | None = None) -> EquationSystem:
    """Stripped vanishing equations for every mask position at one degree.

    Accepts a DensityFamily plus degree, or a prebuilt MomentMatrix.
    """
    if isinstance(family_or_matrix, MomentMatrix):
        matrix = family_or_matrix
    else:
        if degree is None:
            raise ValueError("degree required when passing a family")
        matrix = build_matrix(family_or_matrix, degree)
    basis = matrix.basis
    mask = compute_mask(basis)
    rows = matrix.rows()
    # symmetric matrix: adj(r, c) == cofactor(r, c) == cofactor(c, r)
    blocks = block_cofactors(rows, mask.pairs)
    if any(d.is_zero for d in blocks.determinants):
        raise SingularMatrix(f"moment matrix at degree {basis.degree} is identically singular")
    numerators = _reduce_in_blocks(blocks)
    stripped = [p.strip_known_nonzero_factors() for p in numerators]
    ordered: list[Poly] = []
    grouped: dict[Poly, list[tuple[int, int]]] = {}
    for pair, poly in zip(mask.pairs, stripped):
        if poly not in grouped:
            grouped[poly] = []
            ordered.append(poly)
        grouped[poly].append(pair)
    entries = tuple(EquationEntry(p, tuple(grouped[p])) for p in ordered)
    return EquationSystem(basis.degree, basis, entries)
