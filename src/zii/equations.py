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
its own block's determinant.  The full determinant is never formed here.
That gcd is found in three steps, each exact:

1. split off the monomial content of both (the minimum exponent of each
   symbol, e.g. a power of PI); when one symbol is left, finish with
   Euclid over Z on primitive parts and divide by an integer long division;
2. otherwise prove what is left coprime, one symbol at a time, by a
   univariate gcd over F_p at a specialisation that keeps the degree in
   that symbol; the gcd is then the common monomial;
3. failing that, sympy's multivariate gcd, imported only then.

The determinant side of these steps is prepared once per block and
serves every cofactor in it.  The built-in families never reach step 3.

M_d is linear in the density's coefficients, so when the nonconstant
ones are affine forms c_k with independent linear parts, no PI, and
fewer than the parameters they mention (disk-quadratic: v, a, b + c and
d in five parameters), the cofactors and their gcds are taken on the
matrix of the same family with c_k = r_k * t_k, one symbol t_k per
coefficient and r_k rational (see measures.coefficient_coordinates).
Completing the forms to a basis of the linear forms extends
t_k -> c_k / r_k to an invertible affine change of variables, a ring
automorphism: it commutes with determinants and cofactors and maps a gcd
to a gcd up to a unit, and the extra variables change no gcd.  So each
distinct reduced numerator, expanded back by t_k = c_k / r_k, is the one
the parameters give up to a rational unit.  Every other input runs in
its own parameters.

The numerator is then stripped, in the parameters, of rational content,
monomials in positive symbols, and an overall sign.  Identical stripped
equations from different mask positions are merged, keeping every
originating position as provenance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import SingularMatrix
from .inverse import BlockCofactors, _mul, _scaled, block_cofactors
from .measures import coefficient_coordinates
from .moments import MomentMatrix, MonomialBasis, build_basis, build_matrix
from .poly import Exponents, Poly
from .roots import exact_quotient, primitive, primitive_gcd

__all__ = ["ZiiMask", "EquationEntry", "EquationSystem", "compute_mask", "zii_equations"]


@dataclass(frozen=True)
class ZiiMask:
    """Strictly upper-triangular index pairs (0-based, row-major order)."""

    degree: int
    basis: MonomialBasis
    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

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


# -- reduction of adj/det to lowest terms --------------------------------------

# the certificate's prime, the Mersenne prime 2^61 - 1, and the seed of the
# residues it draws; fixed so that every run takes the same path
_PRIME = (1 << 61) - 1
_RESIDUE_SEED = 20080419


def _monomial_content(p: Poly) -> Exponents:
    """Exponent vector of the largest monomial dividing the nonzero p."""
    return tuple(map(min, zip(*p.terms)))


def _divide_monomial(p: Poly, exps: Exponents) -> Poly:
    if not any(exps):
        return p
    return Poly(
        p.table, {tuple(a - b for a, b in zip(e, exps)): c for e, c in p.terms.items()}
    )


def _residues(width: int) -> list[int]:
    """One residue mod _PRIME per symbol, the same on every call."""
    rng = random.Random(_RESIDUE_SEED)
    return [rng.randrange(_PRIME) for _ in range(width)]


def _terms_mod_p(p: Poly) -> list[tuple[Exponents, int]] | None:
    """p's terms with each coefficient mod _PRIME; None when _PRIME divides a denominator."""
    inverses: dict[int, int] = {}
    out = []
    for exps, coeff in p.terms.items():
        den = coeff.denominator
        if den not in inverses:
            if den % _PRIME == 0:
                return None
            inverses[den] = pow(den, -1, _PRIME)
        out.append((exps, coeff.numerator * inverses[den] % _PRIME))
    return out


def _image(terms: list[tuple[Exponents, int]], idx: int, residues: list[int]) -> list[int]:
    """Ascending coefficients in symbol idx, every other symbol set to its residue."""
    image = [0] * (max(e[idx] for e, _ in terms) + 1)
    powers: dict[tuple[int, int], int] = {}
    for exps, v in terms:
        for j, e in enumerate(exps):
            if e and j != idx:
                if (j, e) not in powers:
                    powers[j, e] = pow(residues[j], e, _PRIME)
                v = v * powers[j, e] % _PRIME
        image[exps[idx]] += v
    return [c % _PRIME for c in image]


def _gcd_degree_mod_p(a: list[int], b: list[int]) -> int:
    """Degree of the gcd over F_p of two ascending coefficient lists, b's leading one nonzero."""
    while b:
        inv = pow(b[-1], -1, _PRIME)
        while len(a) >= len(b):
            q = a[-1] * inv % _PRIME
            shift = len(a) - len(b)
            for k in range(len(b) - 1):
                a[shift + k] = (a[shift + k] - q * b[k]) % _PRIME
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


class _Images:
    """p mod _PRIME, and its image in each symbol (see _image), made on first use."""

    def __init__(self, p: Poly, residues: list[int]):
        self.symbols = {p.table.index(n) for n in p.free_symbols()}
        self.terms = _terms_mod_p(p)
        self.residues = residues
        self._images: dict[int, list[int]] = {}

    def __getitem__(self, idx: int) -> list[int]:
        if idx not in self._images:
            self._images[idx] = _image(self.terms, idx, self.residues)
        return self._images[idx]


def _certify_coprime(a: Poly, b: Poly | _Images) -> bool:
    """True only if gcd(a, b) over Q has degree 0 in every symbol both contain.

    Specialisation lemma (Brown's modular gcd): for a shared symbol x, map
    every other symbol to its residue mod p.  Where neither image loses
    its degree in x, the image of gcd(a, b) divides both images with its
    x-degree intact, so an F_p gcd of degree 0 proves that the rational
    gcd has x-degree 0.  False means "not certified", not "not coprime".
    b may come as its _Images already, to map it once for many a.
    """
    if isinstance(b, Poly):
        b = _Images(b, _residues(len(b.table)))
    shared = sorted(b.symbols.intersection(a.table.index(n) for n in a.free_symbols()))
    if not shared:
        return True
    a = _Images(a, b.residues)
    if a.terms is None or b.terms is None:
        return False
    for idx in shared:
        image_a, image_b = a[idx], b[idx]
        if not (image_a[-1] and image_b[-1]) or _gcd_degree_mod_p(list(image_a), list(image_b)):
            return False
    return True


def _sympy_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by sympy, the general fallback; sympy loads on first use."""
    import sympy

    gens = tuple(sympy.Symbol(n) for n in a.table.names)

    def to_sympy(p: Poly) -> sympy.Poly:
        data = {
            exps: sympy.Rational(c.numerator, c.denominator) for exps, c in p.terms.items()
        }
        return sympy.Poly.from_dict(data, *gens, domain="QQ")

    terms = {}
    for monom, coeff in to_sympy(a).gcd(to_sympy(b)).terms():
        q = sympy.Rational(coeff)
        terms[tuple(int(e) for e in monom)] = Fraction(int(q.p), int(q.q))
    return Poly(a.table, terms)


class _Determinant:
    """The determinant side of raw/det, computed once for every raw it reduces.

    That is det's monomial content and the quotient by it, its symbols,
    and, on first use, its primitive integer coefficients (one symbol) or
    its F_p images (several).
    """

    def __init__(self, det: Poly):
        self.mono = _monomial_content(det)
        self.rest = _divide_monomial(det, self.mono)
        self.symbols = set(self.rest.free_symbols())
        self._part: list[int] | None = None
        self._images: _Images | None = None

    def part(self, name: str) -> list[int]:
        if self._part is None:
            self._part = primitive(self.rest.as_univariate(name))[1]
        return self._part

    def images(self) -> _Images:
        if self._images is None:
            self._images = _Images(self.rest, _residues(len(self.rest.table)))
        return self._images

    def reduce(self, raw: Poly) -> Poly:
        """Numerator of raw/det in lowest terms; see reduce_by_determinant."""
        if raw.is_zero:
            return raw
        raw_mono = _monomial_content(raw)
        shift = tuple(map(min, raw_mono, self.mono))
        a = _divide_monomial(raw, raw_mono)
        names = set(a.free_symbols()) | self.symbols
        if len(names) == 1:
            name = names.pop()
            content, part = primitive(a.as_univariate(name))
            g = primitive_gcd(part, self.part(name))
            if len(g) == 1:
                return _divide_monomial(raw, shift)
            # a / monic(g) = content * part / (g / g[-1]), and part / g is exact over Z
            scale = content * g[-1]
            idx = raw.table.index(name)
            base = [m - s for m, s in zip(raw_mono, shift)]
            offset = base[idx]
            terms = {}
            for k, c in enumerate(exact_quotient(part, g)):
                if c:
                    base[idx] = offset + k
                    terms[tuple(base)] = scale * c
            return Poly(raw.table, terms)
        out = _divide_monomial(raw, shift)
        if _certify_coprime(a, self.images()):
            return out
        g = _sympy_gcd(a, self.rest)
        return out if g.total_degree() == 0 else out.exact_divide(g)


def reduce_by_determinant(raw: Poly, det: Poly) -> Poly:
    """Numerator of raw/det in lowest terms: raw divided by gcd(raw, det).

    The gcd's monomial part is the common minimum exponent of each symbol.
    When one symbol is left, the rest is Euclid over Z on primitive parts,
    and the quotient an integer long division.  With more, the rest is
    usually coprime, which one F_p image per shared symbol proves; only an
    uncertified pair is reduced by sympy.  The divisor is monic, as
    sympy's gcd over QQ is, so the result does not depend on the step.
    """
    return _Determinant(det).reduce(raw)


def _reduce_in_blocks(blocks: BlockCofactors) -> list[Poly]:
    """Numerators of adj/det in lowest terms, up to rational units.

    A cofactor inside block b is C_b * P and det = det_b * P, where P is the
    product of the other blocks' determinants, so its reduced numerator is
    C_b / gcd(C_b, det_b): the gcd runs against the block's own determinant
    and neither det nor any product with P is ever formed.  Each block's
    determinant side is prepared once for all of its cofactors.
    """
    zero = Poly.zero(blocks.determinants[0].table)
    dets = [_Determinant(d) for d in blocks.determinants]
    return [zero if item is None else dets[item[0]].reduce(item[1]) for item in blocks.cofactors]


# -- extraction --------------------------------------------------------------


def _share_storage(p: Poly, shared: dict) -> Poly:
    """p with each exponent vector and coefficient taken from `shared` when equal.

    One system's equations repeat both (disk-quadratic d=3: 511 terms over
    145 exponent vectors and 127 coefficients); both are immutable, so the
    system keeps one copy of each.  `shared` lives for one call only.
    """
    return Poly(
        p.table, {shared.setdefault(e, e): shared.setdefault(c, c) for e, c in p.terms.items()}
    )


def _substitute(numerators: list[Poly], values: tuple[Poly, ...]) -> list[Poly]:
    """Each numerator with symbol s replaced by values[s], up to a positive rational.

    An integer multinomial expansion into one dict per numerator: the
    numerator is scaled to integer coefficients, the values have integer
    ones already, and the image of each monomial (the powers of each value
    among them) is made once, from the image of a monomial of one degree
    less.  Equal numerators are expanded once.
    """
    forms = [_scaled(v) for v in values]
    images = {(0,) * len(values): ({(0,) * len(values[0].table): 1}, 1)}

    def image(exps: Exponents) -> dict[Exponents, int]:
        chain = []
        while exps not in images:
            s = next(s for s, k in enumerate(exps) if k)
            chain.append((exps, s))
            exps = exps[:s] + (exps[s] - 1,) + exps[s + 1:]
        for key, s in reversed(chain):
            images[key] = _mul(images[exps], forms[s])
            exps = key
        return images[exps][0]

    done: dict[Poly, Poly] = {}
    for p in numerators:
        if p not in done:
            total: dict[Exponents, int] = {}
            for exps, coeff in _scaled(p)[0].items():
                for e, c in image(exps).items():
                    total[e] = total.get(e, 0) + coeff * c
            done[p] = Poly(values[0].table, total)
    return [done[p] for p in numerators]


def zii_equations(family_or_matrix, degree: int | None = None) -> EquationSystem:
    """Stripped vanishing equations for every mask position at one degree.

    Accepts a DensityFamily plus degree, or a prebuilt MomentMatrix, which
    runs on its own entries.  A family whose coefficients qualify (see the
    module docstring) runs in coefficient coordinates and is expanded
    back before stripping; the equations are the same either way.
    """
    values = None
    if isinstance(family_or_matrix, MomentMatrix):
        matrix = family_or_matrix
    else:
        if degree is None:
            raise ValueError("degree required when passing a family")
        family = family_or_matrix
        coordinates = coefficient_coordinates(family)
        if coordinates is not None:
            family, values = coordinates
        matrix = build_matrix(family, degree)
    basis = matrix.basis
    mask = compute_mask(basis)
    rows = matrix.rows()
    # symmetric matrix: adj(r, c) == cofactor(r, c) == cofactor(c, r)
    blocks = block_cofactors(rows, mask.pairs)
    if any(d.is_zero for d in blocks.determinants):
        raise SingularMatrix(f"moment matrix at degree {basis.degree} is identically singular")
    numerators = _reduce_in_blocks(blocks)
    if values is not None:
        numerators = _substitute(numerators, values)
    stripped = [p.strip_known_nonzero_factors() for p in numerators]
    ordered: list[Poly] = []
    grouped: dict[Poly, list[tuple[int, int]]] = {}
    for pair, poly in zip(mask.pairs, stripped):
        if poly not in grouped:
            grouped[poly] = []
            ordered.append(poly)
        grouped[poly].append(pair)
    shared: dict = {}
    entries = tuple(EquationEntry(_share_storage(p, shared), tuple(grouped[p])) for p in ordered)
    return EquationSystem(basis.degree, basis, entries)
