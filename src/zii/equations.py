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
terms must vanish.  Each numerator is divided by its gcd with the
determinant (the one place multivariate gcd is used, delegated to sympy),
then stripped of rational content, monomials in positive symbols, and an
overall sign.  Identical stripped equations from different mask positions
are merged, keeping every originating position as provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy

from .errors import SingularMatrix
from .inverse import det_and_cofactors
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

    def entry_label(self, entry: EquationEntry) -> str:
        b = self.basis
        return ", ".join(f"({b.label(r)}, {b.label(c)})" for r, c in entry.pairs)


# -- sympy bridge (kept local to this module on purpose) -----------------


def _sympy_symbols(table: SymbolTable) -> tuple[sympy.Symbol, ...]:
    return tuple(sympy.Symbol(n) for n in table.names)


def _to_sympy(p: Poly, gens: tuple[sympy.Symbol, ...]) -> sympy.Poly:
    data = {
        exps: sympy.Rational(c.numerator, c.denominator) for exps, c in p.terms.items()
    }
    return sympy.Poly.from_dict(data, *gens, domain="QQ")


def _from_sympy(sp: sympy.Poly, table: SymbolTable) -> Poly:
    terms = {}
    for monom, coeff in sp.terms():
        q = sympy.Rational(coeff)
        terms[tuple(int(e) for e in monom)] = Fraction(int(q.p), int(q.q))
    return Poly(table, terms)


def reduce_by_determinant(raw: Poly, det: Poly) -> Poly:
    """Numerator of raw/det in lowest terms: raw divided by gcd(raw, det)."""
    if raw.is_zero:
        return raw
    gens = _sympy_symbols(raw.table)
    g = _to_sympy(raw, gens).gcd(_to_sympy(det, gens))
    if g.is_ground:
        return raw
    return raw.exact_divide(_from_sympy(g, raw.table))


# -- extraction --------------------------------------------------------------


def zii_equations(
    family_or_matrix, degree: int | None = None, reduce: bool = True
) -> EquationSystem:
    """Stripped vanishing equations for every mask position at one degree.

    Accepts a DensityFamily plus degree, or a prebuilt MomentMatrix.
    `reduce=False` skips the gcd-with-determinant step (raw cofactors,
    useful for diagnostics); stripping is always applied.
    """
    if isinstance(family_or_matrix, MomentMatrix):
        matrix = family_or_matrix
    else:
        if degree is None:
            raise ValueError("degree required when passing a family")
        matrix = build_matrix(family_or_matrix, degree)
    basis = matrix.basis
    mask = compute_mask(basis)
    # symmetric matrix: adj(r, c) == cofactor(r, c) == cofactor(c, r)
    det, raws = det_and_cofactors(matrix.rows(), mask.pairs)
    if det.is_zero:
        raise SingularMatrix(
            f"moment matrix at degree {basis.degree} is identically singular"
        )
    stripped = []
    for raw in raws:
        if reduce:
            raw = reduce_by_determinant(raw, det)
        stripped.append(raw.strip_known_nonzero_factors())
    ordered: list[Poly] = []
    grouped: dict[Poly, list[tuple[int, int]]] = {}
    for pair, poly in zip(mask.pairs, stripped):
        if poly not in grouped:
            grouped[poly] = []
            ordered.append(poly)
        grouped[poly].append(pair)
    entries = tuple(EquationEntry(p, tuple(grouped[p])) for p in ordered)
    return EquationSystem(basis.degree, basis, entries)
