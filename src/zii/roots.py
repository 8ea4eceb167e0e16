"""Exact univariate root finding over the rationals.

Polynomials come in as ascending coefficient lists of Fractions; every
computation on them runs over the integers on primitive parts, and
Fractions remain only for input coefficients, roots and interval ends.
The gcd is Euclid on primitive parts, each pseudo-remainder divided by
its content (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6);
exact integer long division gives the square-free part p / gcd(p, p')
and deflates a rational root n/d by d*x - n.  Rational roots are found
exactly by the divisor test (numerator divides the trailing coefficient,
denominator the leading one, after removing powers of x), with integer
factorization by trial division plus deterministic Brent-Pollard rho.
Remaining real roots are certified irrational by deflation and located
by bisection down to width 1e-12 on a Sturm chain over Z whose members
are positive multiples of the rational ones, so the root counts in each
interval are exact and nothing is ever reported as a root that is not
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InexactDivision, ZiiError

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


# -- integer factorization for the divisor test ---------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    # deterministic parameter sweep; n is odd, composite, not a prime power of 2
    for c in range(1, 20):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ZiiError(f"integer factorization gave up on {n}")


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 17
    while d * d <= n and d < 10_000:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        f = _brent_rho(m)
        stack.extend((f, m // f))
    return factors


def _divisors(n: int) -> list[int]:
    if n == 0:
        raise ValueError("zero has no divisor list")
    divs = [1]
    for p, e in _factorize(abs(n)).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(set(divs))


def rational_roots(
    coeffs: list[Fraction],
    within: tuple[Fraction | None, Fraction | None] | None = None,
) -> list[Fraction]:
    """All rational roots (without multiplicity), sorted ascending.

    `within=(lo, hi)` restricts the search to lo <= root <= hi (either end
    may be None); candidates outside are skipped before any evaluation,
    which matters when the caller only accepts roots in a declared range.
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
        # linear: the one root needs no divisor enumeration
        root = Fraction(-p[0]) / p[1]
        return [root] if (lo is None or lo <= root) and (hi is None or root <= hi) else []
    ints = primitive(p)[1]
    low = 0
    while ints[low] == 0:
        low += 1
    roots: set[Fraction] = set()
    zero_ok = (lo is None or lo <= 0) and (hi is None or hi >= 0)
    if low > 0 and zero_ok:
        roots.add(_Z)
    ints = ints[low:]
    if len(ints) > 1:
        lo_n = lo.numerator if lo is not None else None
        lo_d = lo.denominator if lo is not None else None
        hi_n = hi.numerator if hi is not None else None
        hi_d = hi.denominator if hi is not None else None
        for num in _divisors(ints[0]):
            for den in _divisors(ints[-1]):
                if math.gcd(num, den) != 1:
                    continue
                for sn in (num, -num):
                    # integer bound tests before any Fraction is built
                    if lo_n is not None and sn * lo_d < lo_n * den:
                        continue
                    if hi_n is not None and sn * hi_d > hi_n * den:
                        continue
                    if _scaled_eval(ints, sn, den) == 0:
                        roots.add(Fraction(sn, den))
    return sorted(roots)


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
    """Disjoint intervals (lo, hi], each holding exactly one real root.

    Input must be squarefree (use squarefree_part first); intervals are
    bisected down to the requested width.
    """
    p = _trim(coeffs)
    if len(p) <= 1:
        return []
    chain = sturm_chain(p)
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
