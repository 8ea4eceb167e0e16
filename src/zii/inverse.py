"""Exact determinants, cofactors, and adjugate inverses of symbolic matrices.

One engine computes all three by evaluation and interpolation.  The matrix
is split into the diagonal blocks of its zero pattern first: a cofactor
joining two blocks vanishes, and one inside a block is the block's own
cofactor times the determinants of the other blocks.

In each m x m block, a monomial common to every nonzero entry (PI on the
disk) is factored out.  When the remaining entries are homogeneous of one
degree e, one symbol is set to 1 and restored at the end, since the
determinant is homogeneous of degree m*e and every cofactor of degree
(m-1)*e.  Entries are scaled by the common denominator of their
coefficients, so the block takes integer values at integer points.

The determinant has total degree at most D, the sum over the rows of the
largest total degree in the row, and no cofactor exceeds it.  The block is
evaluated at the integer points x >= 1 with sum(x_i - 1) <= D, a simplex
grid that determines any polynomial of total degree D.  At each point one
fraction-free Gauss-Jordan pass gives the determinant and the whole
adjugate exactly; where the block is singular the requested entries come
from exact minors instead.  Nodes never move and nothing is random, so a
run is reproducible.  The determinant and only the requested cofactors are
then recovered by multivariate Newton interpolation.  On unit-spaced nodes
the divided differences are forward differences over factorials, taken one
symbol at a time; that is exact on the simplex because it is a lower set.

The inverse is returned exactly as (adjugate, determinant): entries of
M^(-1) are adj[r][c] / det, with no rational normal form imposed here.
On symmetric input the adjugate is symmetric and only one triangle is
computed.  A cheap self-check substitutes a fixed rational point and
verifies M(v) * adj(v) == det(v) * I before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SingularMatrix, SymbolTableMismatch
from .poly import Poly
from .symbols import SymbolTable

__all__ = [
    "connected_components",
    "det_and_cofactors",
    "determinant",
    "blocked_cofactors",
    "invert_exact",
    "ExactInverse",
]

Rows = list[list[Poly]]
Point = tuple[int, ...]
# a polynomial as integer coefficients by exponent vector, and their common divisor
Scaled = tuple[dict[tuple[int, ...], int], int]

SELF_CHECK_MAX = 24  # adjugate cost dominates far below this anyway


def _square(rows: Rows) -> int:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return n


def connected_components(rows: Rows) -> tuple[tuple[int, ...], ...]:
    """Index blocks of the zero pattern under simultaneous row/column permutation.

    Indices i and j are joined when either of the symmetric entries (i, j),
    (j, i) is nonzero, so entries between different blocks are zero in both
    triangles and sorting by block makes the matrix block-diagonal.  Parity
    structure (e.g. vanishing odd moments of a symmetric domain) is picked
    up automatically.  Blocks are sorted by smallest member, ascending inside.
    """
    n = _square(rows)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if not rows[i][j].is_zero or not rows[j][i].is_zero:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in sorted(groups.values()))


def _submatrix(rows: Rows, idx: tuple[int, ...]) -> Rows:
    return [[rows[i][j] for j in idx] for i in idx]


# -- integer linear algebra at one node ----------------------------------------


def _det_adj(a: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """det(A) and adj(A) of an integer matrix; adj is None when det(A) == 0.

    Fraction-free Gauss-Jordan on [A | I] (Bareiss): every entry stays an
    integer minor, so each division by the previous pivot is exact.  At the
    end the left half is p*I and the right half p*A^(-1), where p is det(A)
    up to the sign of the row swaps.
    """
    m = len(a)
    work = [row + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
    sign, prev = 1, 1
    for k in range(m):
        swap = next((i for i in range(k, m) if work[i][k]), None)
        if swap is None:
            return 0, None
        if swap != k:
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot_row = work[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1:]
        for i in range(m):
            if i != k:
                row = work[i]
                f = row[k]
                row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return sign * prev, [[sign * x for x in row[m:]] for row in work]


def _adjugate_entry(a: list[list[int]], i: int, j: int) -> int:
    """adj(A)[i][j] = (-1)^(i+j) det(A without row j and column i)."""
    minor = [row[:i] + row[i + 1:] for r, row in enumerate(a) if r != j]
    d = _det_adj(minor)[0]
    return -d if (i + j) % 2 else d


# -- Newton interpolation on the simplex grid ----------------------------------


def _simplex(k: int, bound: int) -> list[Point]:
    """Exponent vectors of k symbols with total degree at most `bound`."""
    if k == 0:
        return [()]
    return [(a, *rest) for a in range(bound + 1) for rest in _simplex(k - 1, bound - a)]


def _fibers(grid: list[Point], bound: int) -> list[list[list[int]]]:
    """Per symbol, the grid indices along each line parallel to its axis."""
    index = {p: i for i, p in enumerate(grid)}
    axes = []
    for axis in range(len(grid[0])):
        lines = []
        for p in grid:
            if p[axis] == 0:
                length = bound - sum(p) + 1
                lines.append([
                    index[p[:axis] + (t,) + p[axis + 1:]] for t in range(length)
                ])
        axes.append(lines)
    return axes


def _interpolate(values: list[int], fibers, bound: int) -> list[int]:
    """Monomial coefficients, times bound!^k, of the polynomial with these values.

    values[i] is the value at x = grid[i] + 1 (every coordinate shifted to
    the nodes 1, 2, 3, ...), and the result is indexed by the same grid, now
    read as exponent vectors.  Forward differences along every axis give
    the Newton coefficients Delta^a f in the basis prod_i C(x_i - 1, a_i);
    only then is each axis converted to monomials, scaled by bound! to stay
    in the integers.  Converting an axis before differencing the others
    would be wrong, because lines of the simplex shorten as they move
    away from the origin.
    """
    v = list(values)
    for lines in fibers:
        for line in lines:
            for j in range(1, len(line)):
                for t in range(len(line) - 1, j - 1, -1):
                    v[line[t]] -= v[line[t - 1]]
    top = math.factorial(bound)
    scale = [top // math.factorial(a) for a in range(bound + 1)]
    for lines in fibers:
        for line in lines:
            # Horner in the Newton basis: p <- p * (x - (a + 1)) + c_a * bound!/a!
            last = len(line) - 1
            poly = [v[line[last]] * scale[last]]
            for a in range(last - 1, -1, -1):
                node = a + 1
                poly = [v[line[a]] * scale[a] - node * poly[0]] + [
                    poly[t - 1] - node * poly[t] for t in range(1, len(poly))
                ] + [poly[-1]]
            for idx, coeff in zip(line, poly):
                v[idx] = coeff
    return v


# -- one block ------------------------------------------------------------------


def _block_adjugate(block: Rows, wanted: list[tuple[int, int]]) -> tuple[Scaled, list[Scaled]]:
    """det(B) and the adjugate entries adj(B)[i][j] at `wanted`, with integer terms."""
    m = len(block)
    table = block[0][0].table
    width = len(table)
    distinct = list(dict.fromkeys(p for row in block for p in row if not p.is_zero))
    exps = [e for p in distinct for e in p.terms]
    common = [min((e[s] for e in exps), default=0) for s in range(width)]
    active = [s for s in range(width) if any(e[s] > common[s] for e in exps)]
    degrees = {sum(e) - sum(common) for e in exps}
    drop = active[0] if active and len(degrees) == 1 else None
    homogeneous = degrees.pop() if drop is not None else 0
    keep = [s for s in active if s != drop]
    denom = math.lcm(*(c.denominator for p in distinct for c in p.terms.values()))

    # entry slot 0 is the zero polynomial; the others carry integer terms
    slot = {p: i + 1 for i, p in enumerate(distinct)}
    terms = [[]] + [
        [
            (tuple(e[s] - common[s] for s in keep), c.numerator * (denom // c.denominator))
            for e, c in p.terms.items()
        ]
        for p in distinct
    ]
    degree = [max((sum(e) for e, _ in t), default=0) for t in terms]
    slots = [[slot.get(p, 0) for p in row] for row in block]
    bound = sum(max(degree[s] for s in row) for row in slots)

    grid = _simplex(len(keep), bound)
    powers = [[(a + 1) ** e for e in range(max(degree) + 1)] for a in range(bound + 1)]
    det_values: list[int] = []
    adj_values: list[list[int]] = [[] for _ in wanted]
    for point in grid:
        values = [0]
        for t in terms[1:]:
            total = 0
            for e, c in t:
                for a, k in zip(point, e):
                    c *= powers[a][k]
                total += c
            values.append(total)
        a = [[values[s] for s in row] for row in slots]
        det, adj = _det_adj(a)
        det_values.append(det)
        for series, (i, j) in zip(adj_values, wanted):
            series.append(adj[i][j] if adj is not None else _adjugate_entry(a, i, j))

    fibers = _fibers(grid, bound)
    scale = math.factorial(bound) ** len(keep)

    def scaled(values: list[int], order: int) -> Scaled:
        # order = m for the determinant, m - 1 for a cofactor
        out = {}
        for point, coeff in zip(grid, _interpolate(values, fibers, bound)):
            if coeff:
                e = [c * order for c in common]
                for s, k in zip(keep, point):
                    e[s] += k
                if drop is not None:
                    e[drop] += homogeneous * order - sum(point)
                out[tuple(e)] = coeff
        divisor = scale * denom**order
        g = math.gcd(divisor, *out.values())
        return {e: c // g for e, c in out.items()}, divisor // g

    return scaled(det_values, m), [scaled(series, m - 1) for series in adj_values]


def _mul(p: Scaled, q: Scaled) -> Scaled:
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in p[0].items():
        for e2, c2 in q[0].items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}, p[1] * q[1]


# -- whole matrix ---------------------------------------------------------------


def det_and_cofactors(rows: Rows, positions=()) -> tuple[Poly, list[Poly]]:
    """Determinant and the cofactors C(r, c) at `positions`, from one pass.

    C(r, c) = (-1)^(r+c) det(M with row r and column c removed), which is
    the adjugate entry adj(c, r).
    """
    n = _square(rows)
    if n == 0:
        raise ValueError("empty matrix has no determinant here")
    table = rows[0][0].table
    if any(p.table != table for row in rows for p in row):
        raise SymbolTableMismatch("matrix entries must share one symbol table")
    comps = connected_components(rows)
    home = {i: (b, comp.index(i)) for b, comp in enumerate(comps) for i in comp}
    positions = list(positions)
    wanted: list[dict[tuple[int, int], None]] = [{} for _ in comps]
    for r, c in positions:
        (br, lr), (bc, lc) = home[r], home[c]
        if br == bc:
            wanted[br][(lc, lr)] = None
    dets, local = [], []
    for comp, want in zip(comps, wanted):
        want = list(want)
        det, values = _block_adjugate(_submatrix(rows, comp), want)
        dets.append(det)
        local.append(dict(zip(want, values)))

    def to_poly(p: Scaled) -> Poly:
        return Poly(table, {e: Fraction(c, p[1]) for e, c in p[0].items()})

    one: Scaled = ({(0,) * len(table): 1}, 1)
    others = []
    for b in range(len(comps)):
        prod = one
        for j, d in enumerate(dets):
            if j != b:
                prod = _mul(prod, d)
        others.append(prod)
    det = _mul(others[0], dets[0])
    zero = Poly.zero(table)
    shared: dict[Poly, Poly] = {}  # equal cofactors share one object, to keep results small
    out = []
    for r, c in positions:
        (br, lr), (bc, lc) = home[r], home[c]
        p = to_poly(_mul(local[br][(lc, lr)], others[br])) if br == bc else zero
        out.append(shared.setdefault(p, p))
    return to_poly(det), out


def determinant(rows: Rows) -> Poly:
    """Determinant, as the product of the diagonal blocks' determinants."""
    return det_and_cofactors(rows)[0]


def blocked_cofactors(rows: Rows, positions) -> list[Poly]:
    """Cofactors C(r, c) at the given positions; zero across blocks."""
    return det_and_cofactors(rows, positions)[1]


@dataclass(frozen=True)
class ExactInverse:
    """M^(-1) = adjugate / determinant, both exact."""

    adjugate: tuple[tuple[Poly, ...], ...]
    determinant: Poly

    def entry(self, r: int, c: int) -> tuple[Poly, Poly]:
        return self.adjugate[r][c], self.determinant

    def rational_entries(self) -> list[list[Fraction]]:
        """Entries of the inverse as plain rationals (constant matrices only)."""
        det = self.determinant.constant_value()
        return [[a.constant_value() / det for a in row] for row in self.adjugate]


def _is_symmetric(rows: Rows) -> bool:
    n = len(rows)
    return all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n))


def _self_check_point(table: SymbolTable, det: Poly) -> dict[str, Fraction] | None:
    # fixed small odd primes, shifted until the determinant is nonzero there
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    names = table.names
    if len(names) > len(primes):
        return None
    for shift in range(5):
        point = {
            name: Fraction(primes[(i + shift) % len(primes)], 2)
            for i, name in enumerate(names)
        }
        if det.evaluate(point) != 0:
            return point
    return None


def invert_exact(matrix, self_check: bool = True) -> ExactInverse:
    """Adjugate inverse of a MomentMatrix or plain list-of-lists of Poly."""
    rows = matrix.rows() if hasattr(matrix, "rows") else [list(r) for r in matrix]
    n = _square(rows)
    table = rows[0][0].table
    symmetric = _is_symmetric(rows)
    if symmetric:
        jobs = [(r, c) for r in range(n) for c in range(r, n)]
    else:
        jobs = [(r, c) for r in range(n) for c in range(n)]
    # adj[r][c] = cofactor(c, r); transpose is free for symmetric input
    det, results = det_and_cofactors(rows, [(c, r) for r, c in jobs])
    if det.is_zero:
        raise SingularMatrix(f"matrix of order {n} has identically zero determinant")
    adj: list[list[Poly]] = [[None] * n for _ in range(n)]
    for (r, c), value in zip(jobs, results):
        adj[r][c] = value
        if symmetric:
            adj[c][r] = value
    inverse = ExactInverse(tuple(tuple(row) for row in adj), det)
    if self_check and n <= SELF_CHECK_MAX:
        point = _self_check_point(table, det)
        if point is not None:
            _verify_adjugate(rows, inverse, point)
    return inverse


def _verify_adjugate(rows: Rows, inverse: ExactInverse, point: dict[str, Fraction]):
    n = len(rows)
    m_num = [[e.evaluate(point) for e in row] for row in rows]
    a_num = [[e.evaluate(point) for e in row] for row in inverse.adjugate]
    d_num = inverse.determinant.evaluate(point)
    for i in range(n):
        for j in range(n):
            acc = sum(m_num[i][k] * a_num[k][j] for k in range(n))
            expected = d_num if i == j else 0
            if acc != expected:
                raise AssertionError(
                    f"adjugate self-check failed at entry ({i}, {j}): {acc} != {expected}"
                )
