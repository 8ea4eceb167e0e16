"""Exact univariate root finding over the rationals.

Polynomials come in as ascending coefficient lists of Fractions; every
computation on them runs over the integers on primitive parts, and
Fractions remain only for input coefficients, roots and interval ends.
The gcd is Euclid on primitive parts, each pseudo-remainder divided by
its content (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6);
exact integer long division gives the square-free part p / gcd(p, p')
and deflates a rational root n/d by d*x - n.  Real roots are located by
bisection on a Sturm chain over Z whose members are positive multiples of
the rational ones, so the root counts in each interval are exact and
nothing is ever reported as a root that is not one.  Rational roots come
from the same isolation: by the rational root theorem each one is k/lead
for an integer k, lead the leading coefficient of the primitive
square-free part, so isolating intervals no wider than 1/lead hold at
most one candidate each, and one exact evaluation decides it.  The work
is that of the isolation, with no integer factorization.  Remaining real
roots are certified irrational by deflation and isolated to width 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InexactDivision

__all__ = [
    "uni_eval",
    "uni_derivative",
    "primitive",
    "primitive_gcd",
    "exact_quotient",
    "uni_gcd",
    "squarefree_part",
    "rational_roots",
    "sturm_chain",
    "count_real_roots",
    "isolate_real_roots",
    "RealRoots",
    "real_roots",
]

_Z = Fraction(0)
ISOLATION_WIDTH = Fraction(1, 10**12)


def _trim(coeffs: list[Fraction]) -> list[Fraction]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def uni_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = _Z
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def uni_derivative(coeffs: list[Fraction]) -> list[Fraction]:
    return [k * c for k, c in enumerate(coeffs)][1:]


def primitive(coeffs: list[Fraction]) -> tuple[Fraction, list[int]]:
    """(content, part) with coeffs == content * part and part primitive.

    The part's coefficients are coprime integers with a positive leading
    one; the zero polynomial is (1, []).
    """
    p = _trim(coeffs)
    if not p:
        return Fraction(1), []
    den = math.lcm(*(c.denominator for c in p))
    part = _primitive_int([c.numerator * (den // c.denominator) for c in p])
    return Fraction(p[-1].numerator * (den // p[-1].denominator), den * part[-1]), part


def _primitive_int(ints: list[int]) -> list[int]:
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of a mod b; a, b trimmed, b nonzero.

    Each step scales a by |lead(b)| / g, never by a negative number, so
    the sign of the remainder is that of the rational one.
    """
    lead = b[-1]
    sign = 1 if lead > 0 else -1
    a = list(a)
    while len(a) >= len(b):
        g = math.gcd(a[-1], lead)
        fa, fb = abs(lead) // g, sign * a[-1] // g
        if fa != 1:
            a = [fa * c for c in a]
        shift = len(a) - len(b)
        a[shift:-1] = [x - fb * y for x, y in zip(a[shift:-1], b)]
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z, leading coefficient positive, of two integer lists.

    Euclid on primitive parts: each pseudo-remainder is divided by its
    content, so the coefficients stay about as small as the inputs'.
    """
    a, b = _trim(a), _trim(b)
    if len(a) < len(b):
        a, b = b, a
    if not a:
        return []
    a = _primitive_int(a)
    while b:
        b = _primitive_int(b)
        a, b = b, _pseudo_remainder(a, b)
    return a


def exact_quotient(num: list[int], den: list[int]) -> list[int]:
    """num / den over Z by long division; InexactDivision unless it is exact.

    For primitive num and den this is exact whenever den divides num over
    Q (Gauss's lemma), so a remainder proves den is no factor of num.
    """
    den = _trim(den)
    if not den:
        raise InexactDivision("division by the zero polynomial")
    rem = _trim(num)
    lead = den[-1]
    q = [0] * max(len(rem) - len(den) + 1, 0)
    while len(rem) >= len(den):
        c, r = divmod(rem[-1], lead)
        if r:
            raise InexactDivision(f"{den} does not divide {num}")
        shift = len(rem) - len(den)
        q[shift] = c
        rem[shift:-1] = [x - c * y for x, y in zip(rem[shift:-1], den)]
        rem.pop()
        while rem and not rem[-1]:
            rem.pop()
    if rem:
        raise InexactDivision(f"{den} does not divide {num}")
    return q


def uni_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd: Euclid over Z on the primitive parts, made monic at the end."""
    g = primitive_gcd(primitive(a)[1], primitive(b)[1])
    return [Fraction(c, g[-1]) for c in g]


def squarefree_part(coeffs: list[Fraction]) -> list[int]:
    """Primitive square-free part p / gcd(p, p') over Z; [] for the zero polynomial."""
    p = primitive(coeffs)[1]
    return exact_quotient(p, primitive_gcd(p, uni_derivative(p))) if p else p


def _scaled_eval(p: list[int], n: int, d: int) -> int:
    """d**deg(p) * p(n/d) by Horner over Z; for d > 0 it has the sign of p(n/d)."""
    acc, dpow = p[-1], 1
    for c in reversed(p[:-1]):
        dpow *= d
        acc = acc * n + c * dpow
    return acc


# -- Sturm chains -----------------------------------------------------------


def sturm_chain(coeffs: list[Fraction]) -> list[list[int]]:
    """Sturm chain p, p', -rem(p, p'), ... over Z.

    Each member is a positive multiple, without content, of the rational
    member, so it has the same signs and the same sign variations.
    """
    content, p = primitive(coeffs)
    if content < 0:
        p = [-c for c in p]
    chain, r = [p], uni_derivative(p)
    while r:
        g = math.gcd(*r)
        chain.append([c // g for c in r])
        r = [-c for c in _pseudo_remainder(chain[-2], chain[-1])]
    return chain if p else []


def _variations(chain: list[list[int]], x: Fraction) -> int:
    n, d = x.numerator, x.denominator
    signs = [v > 0 for v in (_scaled_eval(c, n, d) for c in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_real_roots(chain: list[list[int]], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi] for a squarefree chain head."""
    if lo >= hi:
        return 0
    return _variations(chain, lo) - _variations(chain, hi)


def _cauchy_bound(coeffs: list[Fraction]) -> Fraction:
    # Fraction(c): with integer coefficients c / lead would be a float
    return 1 + max(abs(Fraction(c) / coeffs[-1]) for c in coeffs[:-1])


def isolate_real_roots(
    coeffs: list[Fraction], width: Fraction = ISOLATION_WIDTH
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals (lo, hi], each holding exactly one distinct real root.

    Intervals are bisected down to the requested width.  The last member
    of the Sturm chain is gcd(p, p'); when it is not constant, p has a
    multiple root, which would zero every member at a bisection point, so
    the square-free part p / gcd(p, p') is isolated instead.
    """
    p = _trim(coeffs)
    if len(p) <= 1:
        return []
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        chain = sturm_chain(exact_quotient(chain[0], chain[-1]))
    bound = _cauchy_bound(p)
    work = [(-bound, bound)]
    isolated = []
    while work:
        lo, hi = work.pop()
        n = count_real_roots(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            while hi - lo > width:
                mid = (lo + hi) / 2
                if count_real_roots(chain, lo, mid) == 1:
                    hi = mid
                else:
                    lo = mid
            isolated.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        work.append((lo, mid))
        work.append((mid, hi))
    return sorted(isolated)


def rational_roots(
    coeffs: list[Fraction],
    within: tuple[Fraction | None, Fraction | None] | None = None,
) -> list[Fraction]:
    """All rational roots (without multiplicity), sorted ascending.

    `within=(lo, hi)` keeps only roots with lo <= root <= hi (either end
    may be None).  A pinned range lo == hi costs one evaluation and a
    linear polynomial none; otherwise the whole square-free part is
    isolated and the range filters the roots found.
    """
    lo, hi = within if within is not None else (None, None)
    p = _trim(coeffs)
    if not p:
        raise ValueError("the zero polynomial vanishes everywhere")
    if len(p) == 1:
        return []
    if lo is not None and lo == hi:
        # pinned range: the only possible root is the pin itself
        return [lo] if uni_eval(p, lo) == 0 else []
    if len(p) == 2:
        # linear: the one root has a closed form
        root = Fraction(-p[0]) / p[1]
        return [root] if (lo is None or lo <= root) and (hi is None or root <= hi) else []
    # every rational root of the primitive part is k/lead for an integer k,
    # and an interval (a, b] of width at most 1/lead holds at most one such
    # value: k = floor(b*lead), when k > a*lead
    p = squarefree_part(p)
    lead = p[-1]
    roots = []
    for a, b in isolate_real_roots(p, Fraction(1, lead)):
        k = math.floor(b * lead)
        if k > a * lead and _scaled_eval(p, k, lead) == 0:
            root = Fraction(k, lead)
            if (lo is None or lo <= root) and (hi is None or root <= hi):
                roots.append(root)
    return roots


@dataclass(frozen=True)
class RealRoots:
    """Exact rational roots plus isolating intervals for the irrational rest."""

    rational: tuple[Fraction, ...]
    irrational_intervals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def count(self) -> int:
        return len(self.rational) + len(self.irrational_intervals)


def real_roots(coeffs: list[Fraction]) -> RealRoots:
    """Complete real-root description of a nonzero univariate polynomial."""
    rest = squarefree_part(coeffs)
    rats = rational_roots(rest)
    for r in rats:
        rest = exact_quotient(rest, [-r.numerator, r.denominator])
    intervals = isolate_real_roots(rest) if len(rest) > 2 else []
    return RealRoots(tuple(rats), tuple(intervals))
