"""Exact determinants, cofactors, and adjugate inverses of symbolic matrices.

One engine computes all three by evaluation and interpolation.  The matrix
is split into the diagonal blocks of its zero pattern first: a cofactor
joining two blocks vanishes, and one inside a block is the block's own
cofactor times the determinants of the other blocks.  `block_cofactors`
returns that factored form: each block's determinant and each position's
block and in-block cofactor.  The equations reduce every in-block cofactor
against its own block's determinant, so they never need the products;
`det_and_cofactors` multiplies them out for everything else.

In each m x m block, a monomial common to every nonzero entry (PI on the
disk) is factored out.  When the remaining entries are homogeneous of one
degree e, one symbol is set to 1 and restored at the end, since the
determinant is homogeneous of degree m*e and every cofactor of degree
(m-1)*e.  Entries are scaled by the common denominator of their
coefficients, so the block takes integer values at integer points.

When one symbol is left, each row r is divided by its content g_r, the
primitive integer gcd of its entries, giving B = G B' with G = diag(g_r).
The engine runs on B' and multiplies back at the end:
det B = prod_r g_r det B' and adj(B)[i][j] = adj(B')[i][j] prod_{r != j} g_r.
On sum-power-exp row r carries (ell+2)...(ell+|r|+1), so this removes
most of the degree.

The determinant has total degree at most the sum over the rows of the
largest total degree in the row, and no cofactor exceeds it; nor does
either exceed the same sum over the columns.  D is the smaller of the
two; on sum-power-exp at d=3 it is the divided block's column bound, 20,
against a row bound of 30.  The block is evaluated at the integer points
x >= 1 with sum(x_i - 1) <= D, a simplex grid that determines any
polynomial of total degree D.  At each point fraction-free forward
elimination on [A | e_j], for the wanted adjugate columns j only, gives
the determinant, and fraction-free back substitution the columns, all
exactly.  On a symmetric block adj is symmetric too, so when the wanted
entries (i, j) touch fewer rows than columns they are read as (j, i).
Where the block is singular the requested entries come from exact minors
instead.  Nodes never move and nothing is random, so a run is
reproducible.  The determinant and only the requested cofactors are then
recovered by multivariate Newton interpolation.  On unit-spaced nodes
the divided differences are forward differences over factorials, taken
one symbol at a time; that is exact on the simplex because it is a lower
set.

The inverse is returned exactly as (adjugate, determinant): entries of
M^(-1) are adj[r][c] / det, with no rational normal form imposed here.
On symmetric input the adjugate is symmetric and only one triangle is
computed.  A cheap self-check substitutes a fixed rational point and
verifies M(v) * adj(v) == det(v) * I before returning, in integers: each
row of M(v) and each column of adj(v) is scaled by the lcm of its
denominators, and det(v) = p/q is cleared of q.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import SingularMatrix, SymbolTableMismatch
from .poly import Poly
from .roots import exact_quotient, primitive_gcd
from .symbols import SymbolTable

__all__ = [
    "connected_components",
    "block_cofactors",
    "BlockCofactors",
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


def _det_adj(a: list[list[int]], columns=()) -> tuple[int, list[list[int]] | None]:
    """det(A) and the adjugate columns adj(A) e_j, j in `columns`; None when det(A) == 0.

    Fraction-free forward elimination on [A | e_j ...] (Bareiss): every
    entry stays an integer minor, so each division by the previous pivot is
    exact, and the last pivot p is det(A) up to the sign of the row swaps.
    The triangular system U y = p b' then has the integer solution
    y = p A^(-1) e_j, so fraction-free back substitution divides exactly too.
    """
    m = len(a)
    work = [row + [int(i == j) for j in columns] for i, row in enumerate(a)]
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
        for row in work[k + 1:]:
            f = row[k]
            row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    adj = []
    for c in range(m, m + len(columns)):
        y = [0] * m
        for i in range(m - 1, -1, -1):
            row = work[i]
            y[i] = (prev * row[c] - sum(map(operator.mul, row[i + 1:m], y[i + 1:]))) // row[i]
        adj.append([sign * v for v in y])
    return sign * prev, adj


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
    slots = [[slot.get(p, 0) for p in row] for row in block]
    contents = None
    if len(keep) == 1:
        terms, slots, contents = _divide_row_content(terms, slots)
    degree = [max((sum(e) for e, _ in t), default=0) for t in terms]
    bound = min(
        sum(max(degree[s] for s in row) for row in slots),
        sum(max(degree[s] for s in column) for column in zip(*slots)),
    )

    # adj(B) is symmetric with B: solve for the smaller side of the wanted pairs
    if len({i for i, _ in wanted}) < len({j for _, j in wanted}) and _is_symmetric(block):
        wanted = [(j, i) for i, j in wanted]
    columns = list(dict.fromkeys(j for _, j in wanted))
    column_of = {j: k for k, j in enumerate(columns)}

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
        det, adj = _det_adj(a, columns)
        det_values.append(det)
        for series, (i, j) in zip(adj_values, wanted):
            series.append(adj[column_of[j]][i] if adj is not None else _adjugate_entry(a, i, j))

    fibers = _fibers(grid, bound)
    scale = math.factorial(bound) ** len(keep)

    def scaled(values: list[int], order: int, factor: list[int] | None) -> Scaled:
        # order = m for the determinant, m - 1 for a cofactor; `factor` is the
        # product of the row contents the block was divided by
        coeffs = _interpolate(values, fibers, bound)
        points = grid
        if factor is not None:
            coeffs = _uni_mul(coeffs, factor)
            points = [(k,) for k in range(len(coeffs))]
        out = {}
        for point, coeff in zip(points, coeffs):
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

    if contents is None:
        return scaled(det_values, m, None), [scaled(v, m - 1, None) for v in adj_values]
    # det(B) = prod_r g_r det(B') and adj(B)[i][j] = adj(B')[i][j] prod_{r != j} g_r
    product = [1]
    for g in contents:
        product = _uni_mul(product, g)
    others = {j: exact_quotient(product, contents[j]) for j in columns}
    return scaled(det_values, m, product), [
        scaled(v, m - 1, others[j]) for v, (_, j) in zip(adj_values, wanted)
    ]


def _uni_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divide_row_content(terms: list, slots: list[list[int]]) -> tuple[list, list[list[int]], list]:
    """One-symbol entries with each row divided by its content, and the contents.

    Row r's content g_r is the primitive integer gcd of its entries, [1]
    for a zero row.  Returns new (terms, slots) in the same form, slot 0
    still the zero polynomial, and every g_r as ascending integers.
    """
    dense = []
    for t in terms:
        p = [0] * (max((e for (e,), _ in t), default=-1) + 1)
        for (e,), c in t:
            p[e] = c
        dense.append(p)
    index: dict[tuple[int, ...], int] = {(): 0}
    divided: list = [[]]
    contents, new_slots = [], []
    for row in slots:
        g: list[int] = []
        for s in dict.fromkeys(row):
            g = primitive_gcd(g, dense[s])
            if len(g) == 1:
                break
        g = g or [1]
        contents.append(g)
        new_row = []
        for s in row:
            q = tuple(exact_quotient(dense[s], g) if len(g) > 1 else dense[s])
            if q not in index:
                index[q] = len(divided)
                divided.append([((k,), c) for k, c in enumerate(q) if c])
            new_row.append(index[q])
        new_slots.append(new_row)
    return divided, new_slots, contents


def _mul(p: Scaled, q: Scaled) -> Scaled:
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in p[0].items():
        for e2, c2 in q[0].items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}, p[1] * q[1]


def _scaled(p: Poly) -> Scaled:
    denom = math.lcm(*(c.denominator for c in p.terms.values()))
    return {e: c.numerator * (denom // c.denominator) for e, c in p.terms.items()}, denom


def _to_poly(table: SymbolTable, p: Scaled) -> Poly:
    return Poly(table, {e: Fraction(c, p[1]) for e, c in p[0].items()})


# -- whole matrix ---------------------------------------------------------------


@dataclass(frozen=True)
class BlockCofactors:
    """det(M) and cofactors of M, kept factored by the diagonal blocks.

    det(M) is the product of `determinants`.  For the k-th requested
    position, `cofactors[k]` is None when its row and column lie in
    different blocks (the cofactor is zero), and otherwise (b, C_b): the
    cofactor of M is C_b times the determinants of every block but b.
    """

    determinants: tuple[Poly, ...]
    cofactors: tuple[tuple[int, Poly] | None, ...]


def block_cofactors(rows: Rows, positions=()) -> BlockCofactors:
    """Block determinants and in-block cofactors C(r, c) at `positions`, from one pass.

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
        dets.append(_to_poly(table, det))
        local.append({w: _to_poly(table, v) for w, v in zip(want, values)})
    cofactors = []
    for r, c in positions:
        (br, lr), (bc, lc) = home[r], home[c]
        cofactors.append((br, local[br][(lc, lr)]) if br == bc else None)
    return BlockCofactors(tuple(dets), tuple(cofactors))


def det_and_cofactors(rows: Rows, positions=()) -> tuple[Poly, list[Poly]]:
    """Determinant and the cofactors C(r, c) at `positions`: block_cofactors multiplied out."""
    blocks = block_cofactors(rows, positions)
    table = rows[0][0].table
    dets = [_scaled(d) for d in blocks.determinants]
    one: Scaled = ({(0,) * len(table): 1}, 1)
    others = []
    for b in range(len(dets)):
        prod = one
        for j, d in enumerate(dets):
            if j != b:
                prod = _mul(prod, d)
        others.append(prod)
    det = _mul(others[0], dets[0])
    zero = Poly.zero(table)
    shared: dict[Poly, Poly] = {}  # equal cofactors share one object, to keep results small
    out = []
    for item in blocks.cofactors:
        p = zero if item is None else _to_poly(table, _mul(_scaled(item[1]), others[item[0]]))
        out.append(shared.setdefault(p, p))
    return _to_poly(table, det), out


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
    # symbol i at (2i + 3)/2, distinct for any width, shifted until the
    # determinant is nonzero there
    for shift in range(5):
        point = {name: Fraction(2 * (i + shift) + 3, 2) for i, name in enumerate(table.names)}
        if det.evaluate(point) != 0:
            return point
    return None


def invert_exact(matrix) -> ExactInverse:
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
    if n <= SELF_CHECK_MAX:
        point = _self_check_point(table, det)
        if point is not None:
            _verify_adjugate(rows, inverse, point)
    return inverse


def _verify_adjugate(rows: Rows, inverse: ExactInverse, point: dict[str, Fraction]):
    """Check M(v) * adj(v) == det(v) * I exactly, in integers.

    Row i of M(v) is scaled by the lcm r_i of its denominators, column j of
    adj(v) by the lcm c_j of its, and det(v) = p/q in lowest terms; the
    identity is then q * (M' adj')[i][j] == p * r_i * c_j on the diagonal
    and 0 off it.
    """
    n = len(rows)
    # symmetric adjugates and repeated moments share entries: evaluate each once
    distinct = {e for row in (*rows, *inverse.adjugate) for e in row}
    value = {e: e.evaluate(point) for e in distinct}
    m_num = [[value[e] for e in row] for row in rows]
    a_num = [[value[e] for e in row] for row in inverse.adjugate]
    det = inverse.determinant.evaluate(point)
    r = [math.lcm(*(v.denominator for v in row)) for row in m_num]
    m_int = [[v.numerator * (s // v.denominator) for v in row] for s, row in zip(r, m_num)]
    cols = list(zip(*a_num))
    c = [math.lcm(*(v.denominator for v in col)) for col in cols]
    a_int = [[v.numerator * (s // v.denominator) for v in col] for s, col in zip(c, cols)]
    for i in range(n):
        for j in range(n):
            acc = det.denominator * sum(map(operator.mul, m_int[i], a_int[j]))
            expected = det.numerator * r[i] * c[j] if i == j else 0
            if acc != expected:
                raise AssertionError(
                    f"adjugate self-check failed at entry ({i}, {j}): {acc} != {expected}"
                )
