"""Independent oracle implementations used only by the tests.

Everything here is written directly from the defining integrals or from
sympy's own primitives, deliberately not reusing the package's code, so
that agreement between the two is evidence rather than tautology.  The
polynomial determinant oracles use the package's Poly arithmetic, but an
elimination the engine does not share: one Bareiss pass, or a cofactor
expansion, per determinant and per minor.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import sympy

from zii.poly import Poly


def rising_oracle(shape: Fraction, n: int) -> Fraction:
    """Gamma(shape + n) / Gamma(shape) via sympy's rising factorial."""
    value = sympy.rf(sympy.Rational(shape.numerator, shape.denominator), n)
    q = sympy.Rational(value)
    return Fraction(int(q.p), int(q.q))


def orthant_gamma_moment_oracle(i: int, j: int, k1: Fraction, k2: Fraction) -> Fraction:
    """E[x^i y^j] for independent Gamma(k1), Gamma(k2) with unit scale."""
    return rising_oracle(k1, i) * rising_oracle(k2, j)


def unit_box_moment_oracle(i: int, j: int) -> Fraction:
    """Lebesgue moment of x^i y^j on [0, 1]^2."""
    return Fraction(1, (i + 1) * (j + 1))


@functools.lru_cache(maxsize=None)
def disk_moment_oracle_pi_coefficient(p: int, q: int) -> Fraction:
    """Lebesgue moment of x^p y^q over the unit disk, divided by pi.

    Defined through the polar-coordinate integral, evaluated exactly by
    sympy: the angular factor times 1/(p+q+2), with the full answer a
    rational multiple of pi (zero when either exponent is odd).
    """
    t = sympy.Symbol("t")
    angular = sympy.integrate(sympy.cos(t) ** p * sympy.sin(t) ** q, (t, 0, 2 * sympy.pi))
    total = sympy.nsimplify(angular / (p + q + 2))
    ratio = sympy.Rational(sympy.simplify(total / sympy.pi))
    return Fraction(int(ratio.p), int(ratio.q))


def spe_unnormalized_moment_oracle(p: int, q: int, ell: int) -> Fraction:
    """integral of x^p y^q (x+y)^ell e^(-x-y) over the positive quadrant.

    Binomial expansion of (x+y)^ell against factorial moments:
    sum_i C(ell, i) (p+i)! (q+ell-i)!.
    """
    total = 0
    for i in range(ell + 1):
        total += math.comb(ell, i) * math.factorial(p + i) * math.factorial(q + ell - i)
    return Fraction(total)


def mask_bruteforce_oracle(degree: int) -> set[tuple[int, int]]:
    """Forced-zero pairs by the defining double loop (0-based, r < c)."""
    basis = []
    for total in range(degree + 1):
        for j in range(total + 1):
            basis.append((total - j, j))
    out = set()
    for r in range(len(basis)):
        for c in range(len(basis)):
            if r == c:
                continue
            a, b = basis[r], basis[c]
            if max(a[0], b[0]) + max(a[1], b[1]) > degree:
                out.add((min(r, c), max(r, c)))
    return out


def det_oracle(rows: list[list[Fraction]]) -> Fraction:
    """Plain Laplace-expansion determinant over Fractions (small n only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for c in range(n):
        if rows[0][c] == 0:
            continue
        minor = [[rows[i][j] for j in range(n) if j != c] for i in range(1, n)]
        sub = det_oracle(minor)
        total += (-1) ** c * rows[0][c] * sub
    return total


def det_bareiss(rows: list[list[Poly]]) -> Poly:
    """Fraction-free Bareiss determinant over Poly; input is not modified."""
    n = len(rows)
    table = rows[0][0].table
    work = [list(r) for r in rows]
    sign = 1
    prev = Poly.const(table, 1)
    for k in range(n - 1):
        if work[k][k].is_zero:
            swap = next((i for i in range(k + 1, n) if not work[i][k].is_zero), None)
            if swap is None:
                return Poly.zero(table)
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (pivot * work[i][j] - work[i][k] * work[k][j]).exact_divide(prev)
            work[i][k] = Poly.zero(table)
        prev = pivot
    det = work[n - 1][n - 1]
    return -det if sign < 0 else det


def det_cofactor(rows: list[list[Poly]]) -> Poly:
    """Expansion along the first row, memoized on active column sets (small n only)."""
    n = len(rows)
    table = rows[0][0].table
    memo: dict[tuple[int, ...], Poly] = {}

    def minor(depth: int, cols: tuple[int, ...]) -> Poly:
        if not cols:
            return Poly.const(table, 1)
        if cols in memo:
            return memo[cols]
        total = Poly.zero(table)
        for pos, c in enumerate(cols):
            entry = rows[depth][c]
            if entry.is_zero:
                continue
            term = entry * minor(depth + 1, cols[:pos] + cols[pos + 1:])
            total = total - term if pos % 2 else total + term
        memo[cols] = total
        return total

    return minor(0, tuple(range(n)))


def minor_det(rows: list[list[Poly]], skip_row: int, skip_col: int) -> Poly:
    """Bareiss determinant of the matrix with one row and one column struck."""
    sub = [
        [rows[i][j] for j in range(len(rows)) if j != skip_col]
        for i in range(len(rows))
        if i != skip_row
    ]
    if not sub:
        return Poly.const(rows[0][0].table, 1)
    return det_bareiss(sub)


def cofactor(rows: list[list[Poly]], r: int, c: int) -> Poly:
    """Signed minor C_rc = (-1)^(r+c) det(M with row r, column c removed)."""
    m = minor_det(rows, r, c)
    return -m if (r + c) % 2 else m
