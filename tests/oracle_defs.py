"""Independent oracle implementations used only by the tests.

Everything here is written directly from the defining integrals or from
sympy's own primitives, deliberately not reusing the package's code, so
that agreement between the two is evidence rather than tautology.  The
polynomial determinant oracles use the package's Poly arithmetic, but an
elimination the engine does not share: one Bareiss pass, or a cofactor
expansion, per determinant and per minor.  The integer node oracle is
fraction-free Gauss-Jordan on [A | I], which yields the whole adjugate at
once, where the engine solves for the wanted columns by forward
elimination and back substitution.  The equations oracle composes
the package's own layers, but the other way round from the library: it
multiplies the blocks out and reduces each full cofactor against the full
determinant, by a sympy gcd of the whole polynomials.  The raw-equations
oracle skips that reduction and only strips each full cofactor.  The
grid-walk oracle samples the same grid as the library, but substitutes
each Fraction grid value into the Poly residuals and evaluates every
point by Horner's rule over Fractions, with no lattice and no integer
scaling.  The slice-walk oracle walks the library's integer lattice one
slice of the last axis at a time and evaluates each point as a plain sum
of powers, where the library evaluates the last two axes as one block by
Horner; it also solves on a pinned last axis, which the library skips.
The substitution oracle replaces one symbol at a time with subs_symbol,
where Poly.substitute makes one integer pass.  The univariate gcd, Sturm chain and real-root oracles run over
Fractions, where the library runs them over the integers on primitive
parts; the real-root oracle takes its rational roots from sympy's
factorization instead of the Sturm isolation.  The float oracles evaluate
a polynomial and the closed-form moments at a point, and the correlated-gamma density
through the plain power series of I0 where the library recombines
scipy's scaled i0e in log space.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import sympy

from zii.collapse import (
    GRID_LEAF_CAP,
    WITNESS_CAP,
    GridSummary,
    SolutionAnalysis,
    SolveStatus,
    Witness,
    _admit,
    _Admission,
    _elim_texts,
    _fix_first,
    _lattice_terms,
    grid_lattice,
    grid_values,
)
from zii.equations import EquationEntry, EquationSystem, compute_mask
from zii.errors import NoConvergence, SingularMatrix
from zii.inverse import det_and_cofactors
from zii.moments import MomentMatrix, build_matrix
from zii.poly import Poly
from zii.roots import RealRoots, rational_roots, uni_eval
from zii.symbols import PI_NAME


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


def det_adj_gauss_jordan(a: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """det(A) and the whole adj(A) of an integer matrix; adj is None when det(A) == 0.

    Fraction-free Gauss-Jordan on [A | I] (Bareiss): every entry stays an
    integer minor, so each division by the previous pivot is exact.  At the
    end the left half is p*I and the right half p*A^(-1), where p is det(A)
    up to the sign of the row swaps.
    """
    m = len(a)
    work = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
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


def _trim_fraction(p: list[Fraction]) -> list[Fraction]:
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def _divmod_fraction(
    num: list[Fraction], den: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of Fraction long division; den nonzero."""
    rem, den = _trim_fraction(num), _trim_fraction(den)
    q = [Fraction(0)] * max(len(rem) - len(den) + 1, 0)
    while len(rem) >= len(den):
        factor = rem[-1] / den[-1]
        shift = len(rem) - len(den)
        q[shift] = factor
        for k, c in enumerate(den):
            rem[shift + k] -= factor * c
        rem = _trim_fraction(rem)
    return q, rem


def uni_gcd_fraction(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd of ascending coefficient lists by Euclid over Fractions."""
    a, b = _trim_fraction(a), _trim_fraction(b)
    while b:
        a, b = b, _divmod_fraction(a, b)[1]
    return [c / a[-1] for c in a] if a else a


def sturm_chain_fraction(coeffs: list[Fraction]) -> list[list[Fraction]]:
    """Sturm chain p, p', -rem(p, p'), ... by Fraction long division."""
    p = _trim_fraction(coeffs)
    chain = [p, [k * c for k, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        r = _divmod_fraction(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _deflate_fraction(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    # synthetic division by (x - root)
    acc, out = Fraction(0), []
    for c in reversed(coeffs):
        acc = acc * root + c
        out.append(acc)
    remainder = out.pop()
    assert remainder == 0, "deflation by a non-root"
    return out[::-1]


def real_roots_fraction(coeffs: list[Fraction], width: Fraction = Fraction(1, 10**12)) -> RealRoots:
    """real_roots over Fractions.

    The square-free part comes from Fraction Euclid and long division, the
    rational roots from sympy's factorization, deflation from synthetic
    division, and the intervals from bisection on a Fraction Sturm chain,
    from the same Cauchy bound and in the same order as the library.
    """
    p = _trim_fraction(coeffs)
    sf = _divmod_fraction(p, uni_gcd_fraction(p, [k * c for k, c in enumerate(p)][1:]))[0]
    x = sympy.Symbol("x")
    factors = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(sf)], x)
    rats = sorted(
        Fraction(-int(f.nth(0)), int(f.nth(1)))
        for f, _ in factors.factor_list()[1]
        if f.degree() == 1
    )
    rest = sf
    for r in rats:
        rest = _deflate_fraction(rest, r)
    if len(rest) <= 2:
        return RealRoots(tuple(rats), ())
    chain = sturm_chain_fraction(rest)

    def variations(at: Fraction) -> int:
        signs = []
        for c in chain:
            v = Fraction(0)
            for a in reversed(c):
                v = v * at + a
            if v:
                signs.append(v > 0)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def count(lo: Fraction, hi: Fraction) -> int:
        return variations(lo) - variations(hi) if lo < hi else 0

    bound = 1 + max(abs(c / rest[-1]) for c in rest[:-1])
    work, isolated = [(-bound, bound)], []
    while work:
        lo, hi = work.pop()
        n = count(lo, hi)
        if n == 1:
            while hi - lo > width:
                mid = (lo + hi) / 2
                if count(lo, mid) == 1:
                    hi = mid
                else:
                    lo = mid
            isolated.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            work += [(lo, mid), (mid, hi)]
    return RealRoots(tuple(rats), tuple(sorted(isolated)))


def sympy_reduce_oracle(raw: Poly, det: Poly) -> Poly:
    """raw divided by its monic gcd with det, taken by sympy.Poly.gcd on the whole polynomials."""
    if raw.is_zero:
        return raw
    gens = [sympy.Symbol(n) for n in raw.table.names]

    def to_sympy(p: Poly) -> sympy.Poly:
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
        return sympy.Poly.from_dict(terms, *gens, domain="QQ")

    gcd = {}
    for monom, coeff in to_sympy(raw).gcd(to_sympy(det)).terms():
        q = sympy.Rational(coeff)
        gcd[tuple(int(e) for e in monom)] = Fraction(int(q.p), int(q.q))
    return raw.exact_divide(Poly(raw.table, gcd))


def equations_full_det_oracle(family, degree: int) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    """(text, provenance pairs) of each stripped mask equation, merged in first-seen order.

    Every raw cofactor adj(r, c) is reduced by its sympy gcd with the whole
    determinant of M_d, not with its own diagonal block's determinant.
    """
    matrix = build_matrix(family, degree)
    mask = compute_mask(matrix.basis)
    det, raws = det_and_cofactors(matrix.rows(), mask.pairs)
    grouped: dict[Poly, list[tuple[int, int]]] = {}
    for pair, raw in zip(mask.pairs, raws):
        poly = sympy_reduce_oracle(raw, det).strip_known_nonzero_factors()
        grouped.setdefault(poly, []).append(pair)
    return [(poly.to_text(), tuple(pairs)) for poly, pairs in grouped.items()]


def raw_equations_oracle(family_or_matrix, degree: int | None = None) -> EquationSystem:
    """zii_equations without the gcd step: each full cofactor is only stripped.

    Equal stripped cofactors merge in first-seen order with their mask
    positions as provenance; an identically zero determinant raises
    SingularMatrix with the library's message.
    """
    if isinstance(family_or_matrix, MomentMatrix):
        matrix = family_or_matrix
    else:
        matrix = build_matrix(family_or_matrix, degree)
    mask = compute_mask(matrix.basis)
    det, raws = det_and_cofactors(matrix.rows(), mask.pairs)
    if det.is_zero:
        raise SingularMatrix(
            f"moment matrix at degree {matrix.basis.degree} is identically singular"
        )
    grouped: dict[Poly, list[tuple[int, int]]] = {}
    for pair, raw in zip(mask.pairs, raws):
        grouped.setdefault(raw.strip_known_nonzero_factors(), []).append(pair)
    entries = tuple(EquationEntry(p, tuple(pairs)) for p, pairs in grouped.items())
    return EquationSystem(matrix.basis.degree, matrix.basis, entries)


def sampled_analysis_fraction(
    family, equations, free, eliminations, original_equations,
    residual_texts, notes, grid_points, witness_cap=WITNESS_CAP,
) -> SolutionAnalysis:
    """The grid walk in plain Fraction arithmetic, one Horner evaluation per point.

    A drop-in for zii.collapse._sampled_analysis: it substitutes every grid
    value into the Poly residuals level by level and evaluates the last axis
    at each grid Fraction, so the integer lattice walk must return an equal
    SolutionAnalysis.
    """
    # only symbols the equations mention are walked; the rest do not affect
    # sign patterns and are gridded at admission time to complete a witness
    involved = {s for p in equations for s in p.free_symbols()}
    active = [n for n in free if n in involved]
    inactive = [n for n in free if n not in involved]
    grids = {n: grid_values(family.param(n), grid_points) for n in active}
    points = grid_points
    while points > 2:
        total = 1
        for g in grids.values():
            total *= len(g)
        if total <= GRID_LEAF_CAP:
            break
        points = (points + 1) // 2
        grids = {n: grid_values(family.param(n), points) for n in active}
    if points != grid_points:
        notes = notes + [f"grid reduced to {points} points per axis to bound the walk"]
    if inactive:
        notes = notes + [
            "parameters not in the residual equations ("
            + ", ".join(inactive)
            + ") are gridded only when completing a witness"
        ]

    syms = list(active)
    axis = [grids[n] for n in syms]
    last_decl = family.param(syms[-1])
    # solved candidates outside the declared range would fail admission anyway
    last_within = (last_decl.lower, last_decl.upper)
    inactive_grids = [grid_values(family.param(n), grid_points) for n in inactive]
    sign_counts = [[0, 0, 0] for _ in equations]
    witnesses: list[Witness] = []
    seen: set[tuple] = set()

    def admit_candidate(values: dict[str, Fraction]):
        if len(witnesses) >= witness_cap:
            return
        key = tuple(sorted(values.items()))
        if key in seen:
            return
        seen.add(key)
        if inactive:
            for combo in itertools.product(*inactive_grids):
                w = _admit(
                    family, {**values, **dict(zip(inactive, combo))},
                    eliminations, original_equations,
                )
                if w:
                    witnesses.append(w)
                    return
        else:
            w = _admit(family, values, eliminations, original_equations)
            if w:
                witnesses.append(w)

    def walk(level: int, polys: list[Poly], assignment: dict[str, Fraction]):
        if level == len(syms) - 1:
            last = syms[level]
            coeff_lists = [p.as_univariate(last) for p in polys]
            for v in axis[level]:
                all_zero = True
                for k, cl in enumerate(coeff_lists):
                    val = uni_eval(cl, v)
                    slot = 1 if val == 0 else (0 if val < 0 else 2)
                    sign_counts[k][slot] += 1
                    if val != 0:
                        all_zero = False
                if all_zero:
                    admit_candidate({**assignment, last: v})
            # exact witnesses off the grid: solve the last non-constant
            # residual equation for the last symbol on this slice
            for cl in reversed(coeff_lists):
                if len(cl) > 1:
                    for root in rational_roots(cl, within=last_within):
                        admit_candidate({**assignment, last: root})
                    break
        else:
            name = syms[level]
            for v in axis[level]:
                walk(
                    level + 1,
                    [p.substitute({name: v}) for p in polys],
                    {**assignment, name: v},
                )

    walk(0, list(equations), {})
    total = 1
    for g in axis:
        total *= len(g)
    grid = GridSummary(
        tuple(syms), tuple(len(g) for g in axis), total,
        tuple(tuple(c) for c in sign_counts),
    )
    if len(witnesses) >= witness_cap:
        notes = notes + [f"witness collection capped at {witness_cap}"]
    if not witnesses:
        notes = notes + [
            "no exact witness found on the sample; this is evidence, not a "
            "proof that the system has no admissible solutions"
        ]
    return SolutionAnalysis(
        SolveStatus.SAMPLED, residual_texts, _elim_texts(eliminations),
        tuple(witnesses), (), grid, tuple(notes),
    )


def sampled_analysis_slices(
    family, equations, free, eliminations, original_equations,
    residual_texts, notes, grid_points, witness_cap=WITNESS_CAP,
) -> SolutionAnalysis:
    """The integer lattice walk one slice of the last axis at a time.

    A drop-in for zii.collapse._sampled_analysis: every index but the last
    is fixed by _fix_first, each slice is evaluated by its own integer
    Horner and tallied on its own, and the last residual equation that is
    not constant along the slice is solved for the last index with
    rational_roots, also when the declared range pins it.  The library
    evaluates the last two axes as one block and skips that solve on a
    pinned range, so it must return an equal SolutionAnalysis.
    """
    involved = {s for p in equations for s in p.free_symbols()}
    syms = [n for n in free if n in involved]
    inactive = [n for n in free if n not in involved]
    points = grid_points
    while True:
        lattices = [grid_lattice(family.param(n), points) for n in syms]
        sizes = [n for _, _, n in lattices]
        total = math.prod(sizes)
        if points <= 2 or total <= GRID_LEAF_CAP:
            break
        points = (points + 1) // 2
    if points != grid_points:
        notes = notes + [f"grid reduced to {points} points per axis to bound the walk"]
    if inactive:
        notes = notes + [
            "parameters not in the residual equations ("
            + ", ".join(inactive)
            + ") are gridded only when completing a witness"
        ]

    last = len(syms) - 1
    last_decl = family.param(syms[last])
    a_last, b_last, _ = lattices[last]
    last_within = tuple(
        None if x is None else (x - a_last) / b_last
        for x in (last_decl.lower, last_decl.upper)
    )
    admission = _Admission(family, eliminations, original_equations, grid_points)
    sign_counts = [[0, 0, 0] for _ in equations]
    witnesses: list[Witness] = []
    seen: set[tuple] = set()

    def admit_candidate(ks: tuple):
        if len(witnesses) >= witness_cap:
            return
        values = {n: a + b * k for n, (a, b, _), k in zip(syms, lattices, ks)}
        key = tuple(sorted(values.items()))
        if key in seen:
            return
        seen.add(key)
        w = admission.complete(values, inactive)
        if w:
            witnesses.append(w)

    def walk(level: int, polys: list[dict], ks: tuple):
        if level < last:
            for k in range(sizes[level]):
                walk(level + 1, [_fix_first(p, k) for p in polys], ks + (k,))
            return
        n = sizes[last]
        coeff_lists = []
        zeros = range(n)
        for counts, terms in zip(sign_counts, polys):
            cl = [0] * (max((e for e, in terms), default=0) + 1)
            for (e,), c in terms.items():
                cl[e] = c
            coeff_lists.append(cl)
            vals = [sum(c * k**e for e, c in enumerate(cl)) for k in range(n)]
            neg = sum(v < 0 for v in vals)
            zero = vals.count(0)
            counts[0] += neg
            counts[1] += zero
            counts[2] += n - neg - zero
            zeros = [k for k in zeros if not vals[k]] if zero else ()
        if len(witnesses) >= witness_cap:
            return
        for k in zeros:
            admit_candidate(ks + (k,))
        for cl in reversed(coeff_lists):
            if len(cl) > 1:
                for root in rational_roots(cl, within=last_within):
                    admit_candidate(ks + (root,))
                break

    walk(0, [_lattice_terms(p, syms, lattices) for p in equations], ())
    grid = GridSummary(
        tuple(syms), tuple(sizes), total, tuple(tuple(c) for c in sign_counts),
    )
    notes = notes + admission.note()
    if len(witnesses) >= witness_cap:
        notes = notes + [f"witness collection capped at {witness_cap}"]
    if not witnesses:
        notes = notes + [
            "no exact witness found on the sample; this is evidence, not a "
            "proof that the system has no admissible solutions"
        ]
    return SolutionAnalysis(
        SolveStatus.SAMPLED, residual_texts, _elim_texts(eliminations),
        tuple(witnesses), (), grid, tuple(notes),
    )


def substitute_chain(poly: Poly, assignment: dict) -> Poly:
    """Poly.substitute as one subs_symbol call, and one Poly product per power, per symbol."""
    out = poly
    for name, value in assignment.items():
        out = out.subs_symbol(name, Poly.const(poly.table, value))
    return out


def evaluate_float(poly: Poly, assignment: dict = {}) -> float:
    """Float value of a polynomial; PI takes math.pi unless assigned."""
    values = {PI_NAME: math.pi, **{n: float(v) for n, v in assignment.items()}}
    total = 0.0
    for exps, coeff in poly.terms.items():
        term = float(coeff)
        for name, e in zip(poly.table.names, exps):
            if e:
                term *= values[name] ** e
        total += term
    return total


def exact_moment_float(family, point: dict[str, Fraction], p: int, q: int) -> float:
    """Float value of the closed-form moment at a point (PI filled in)."""
    return evaluate_float(family.moment(p, q), family.check_point(point))


def bessel_i0(z: float) -> float:
    """Order-zero modified Bessel function by its power series.

    Terms (z^2/4)^k / (k!)^2 are accumulated until the next one drops
    below 1e-17 of the running sum.  Accurate for moderate arguments;
    beyond z of roughly 700 the true value exceeds float range anyway.
    """
    if z < 0:
        raise ValueError("I0 is used on nonnegative arguments only")
    u = z * z / 4.0
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        term *= u / (k * k)
        total += term
        if term < 1e-17 * total:
            return total
        if k > 100_000:
            raise NoConvergence("I0 series failed to converge")


def kibble_gamma_relative_oracle(
    rho: float, x: float, y: float, sigma1: float = 1.0, sigma2: float = 1.0
) -> float:
    """Correlated-gamma density over the e^(-x-y) orthant weight, from the closed form.

    f(x, y) = e^(-(x/s1 + y/s2)/(1-rho)) I0(2 sqrt(rho x y / (s1 s2))/(1-rho))
    / (s1 s2 (1-rho)), with I0 summed as its power series.
    """
    omr = 1.0 - rho
    z = 2.0 * math.sqrt(rho * x * y / (sigma1 * sigma2)) / omr
    density = math.exp(-(x / sigma1 + y / sigma2) / omr) * bessel_i0(z) / (sigma1 * sigma2 * omr)
    return density * math.exp(x + y)
