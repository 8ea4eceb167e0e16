"""Search for the degree at which the vanishing equations force independence.

The solution-set analysis is deliberately conservative: everything it
asserts positively (a witness point, an exact root, inconsistency of a
linear system) is verified in exact rational arithmetic, and sampling
evidence is reported as evidence, never as a proof of emptiness.

Pipeline for one cumulative equation system:

  1. eliminate parameters that appear linearly with a rational constant
     coefficient, first from declared equality constraints, then greedily
     from the equations themselves (each such step is an equivalence);
  2. if nothing remains, the system is trivially satisfiable;
  3. if one parameter remains, intersect the exact real-root sets of the
     residual equations (gcd, Sturm isolation, rational roots from it);
  4. otherwise sample a deterministic grid over the declared (or default)
     bounds on an integer lattice: every axis is s = a + b*k with b > 0,
     so each residual is substituted once into an integer polynomial in
     the grid indices k (scaled by a positive integer, which keeps every
     sign and zero).  The walk fixes all but the last two indices with
     integer arithmetic and evaluates the last two axes as one row-major
     block: each coefficient of the last index is evaluated over the whole
     row axis, the block by integer Horner in C-level passes, and its sign
     patterns are tallied at once.  Exact witnesses come from the block's
     zeros and from solving the last residual equation for the last index
     along each row, mapping roots back to s; a declared single point on
     the last axis leaves nothing to solve off the grid.  Each candidate
     is re-checked exactly before being called a witness, and within one
     analysis equal witness values and (name, value) pairs are stored
     once.  The counts, witnesses and notes are those of evaluating each
     grid point in rational arithmetic.

A candidate becomes a witness only after an exact admission check: the
eliminated parameters are recovered, the point must meet every declaration
and constraint, and every original equation must vanish there.  Parameters
a candidate leaves unset are completed over their grids, first admissible
point first.  One analysis makes at most 20,000 admission checks; when that
budget binds, a note says so, and sign tallies still cover the whole grid.

A degree collapses when admissible witnesses exist and every one of them
puts the density in product form; the verdict is witness-based, which the
reports say out loud.  Densities on the unit disk can never be product
form (the support itself is not a product), so they carry a distinct
verdict and never collapse.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .equations import EquationSystem, zii_equations
from .errors import ArgumentOutOfRange, ConstraintViolation
from .measures import DensityFamily, ParamDecl, UnitDisk
from .poly import Poly
from .roots import rational_roots, real_roots, uni_gcd
from .symbols import Assumption, PI_NAME

__all__ = [
    "SolveStatus",
    "ProductVerdict",
    "Witness",
    "GridSummary",
    "SolutionAnalysis",
    "DegreeReport",
    "CollapseReport",
    "analyze_system",
    "check_product_form",
    "moment_factorization_check",
    "collapse_order",
]

DEFAULT_GRID_POINTS = 21
GRID_LEAF_CAP = 500_000
WITNESS_CAP = 64
ADMISSION_BUDGET = 20_000


class SolveStatus(enum.Enum):
    TRIVIAL = "trivial"  # no equations survive stripping/elimination, no residue
    EXACT = "exact"      # solved by elimination and exact univariate roots
    EMPTY = "empty"      # proven inconsistent in exact arithmetic
    SAMPLED = "sampled"  # grid evidence only; emptiness is never claimed


class ProductVerdict(enum.Enum):
    PRODUCT_FORM = "product-form"
    NOT_PRODUCT_FORM = "not-product-form"
    DOMAIN_NOT_PRODUCT = "domain-not-product"


@dataclass(frozen=True, slots=True)
class Witness:
    """A full admissible parameter assignment satisfying the system."""

    values: tuple[tuple[str, Fraction], ...]

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.values)

    def text(self) -> str:
        return ", ".join(f"{n} = {v}" for n, v in self.values) if self.values else "(empty)"


@dataclass(frozen=True)
class GridSummary:
    symbols: tuple[str, ...]
    axis_sizes: tuple[int, ...]
    total_points: int
    # per residual equation: (negative, zero, positive) counts over the grid
    sign_counts: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class SolutionAnalysis:
    status: SolveStatus
    residual: tuple[str, ...]  # equation texts after elimination
    eliminations: tuple[tuple[str, str], ...]  # (symbol, replacement text)
    witnesses: tuple[Witness, ...]
    intervals: tuple[tuple[str, Fraction, Fraction], ...]  # irrational root evidence
    grid: GridSummary | None
    notes: tuple[str, ...]


# -- grids -----------------------------------------------------------------


def default_bounds(decl: ParamDecl) -> tuple[Fraction, Fraction]:
    lo, hi = decl.lower, decl.upper
    if lo is None or hi is None:
        if decl.assumption is Assumption.POSITIVE:
            dlo, dhi = Fraction(1, 10), Fraction(2)
        elif decl.assumption is Assumption.NONNEG_INT:
            dlo, dhi = Fraction(0), Fraction(10)
        else:
            dlo, dhi = Fraction(-2), Fraction(2)
        lo = dlo if lo is None else lo
        hi = dhi if hi is None else hi
    if lo > hi:
        raise ConstraintViolation(f"{decl.name}: empty bound interval [{lo}, {hi}]")
    return lo, hi


def grid_lattice(
    decl: ParamDecl, points: int = DEFAULT_GRID_POINTS
) -> tuple[Fraction, Fraction, int]:
    """(a, b, n) with b > 0: the grid of `decl` is a + b*k for k in range(n).

    Declared or default bounds are sampled at `points` evenly spaced values;
    nonnegative integers are enumerated, strided down to at most `points`.
    A one-point axis gets b = 1, where only k = 0 is visited.
    """
    lo, hi = default_bounds(decl)
    if decl.assumption is Assumption.NONNEG_INT:
        start, stop = -(-lo.numerator // lo.denominator), hi.numerator // hi.denominator
        count = max(stop - start + 1, 0)
        stride = 1
        if count > points:
            stride = -(-count // points)
            count = -(-count // stride)
        return Fraction(start), Fraction(stride), count
    if lo == hi or points <= 1:
        return lo, Fraction(1), 1
    return lo, (hi - lo) / (points - 1), points


def grid_values(decl: ParamDecl, points: int = DEFAULT_GRID_POINTS) -> list[Fraction]:
    a, b, n = grid_lattice(decl, points)
    return [a + b * k for k in range(n)]


# -- elimination -------------------------------------------------------------


def _linear_candidate(
    poly: Poly, candidates: Sequence[str]
) -> tuple[str, Poly] | None:
    """First parameter in table order where poly == A*s + B, A a nonzero
    rational constant and B free of s; returns (s, -B/A)."""
    table = poly.table
    for name in candidates:
        idx = table.index(name)
        coeff = None
        ok = True
        rest = {}
        for exps, c in poly.terms.items():
            e = exps[idx]
            if e == 0:
                rest[exps] = c
            elif e == 1 and sum(exps) == 1:
                coeff = c
            else:
                ok = False
                break
        if ok and coeff:
            b = Poly(table, rest)
            return name, b * (-1 / coeff)
    return None


def _distinct_stripped(polys: Iterable[Poly]) -> list[Poly]:
    """Stripped equations, without zeros and duplicates, in first-seen order."""
    stripped = (p.strip_known_nonzero_factors() for p in polys)
    return list(dict.fromkeys(q for q in stripped if not q.is_zero))


def _extend_assignment(
    free_values: Mapping[str, Fraction], eliminations: Sequence[tuple[str, Poly]]
) -> dict[str, Fraction]:
    # later eliminations only reference symbols still free at their time,
    # so resolving them in reverse order needs no iteration
    full = dict(free_values)
    for name, repl in reversed(eliminations):
        full[name] = repl.evaluate(full)
    return full


# -- witnesses ----------------------------------------------------------------


def _admit(
    family: DensityFamily,
    free_values: Mapping[str, Fraction],
    eliminations: Sequence[tuple[str, Poly]],
    equations: Sequence[Poly],
) -> Witness | None:
    """Full exact recheck of a candidate; returns a Witness or None."""
    full = _extend_assignment(free_values, eliminations)
    try:
        checked = family.check_point(full)
    except ConstraintViolation:
        return None
    for eq in equations:
        # partial substitution keeps a possible PI factor symbolic; the
        # result must be the zero polynomial (PI is transcendental over Q)
        if not eq.substitute(checked).is_zero:
            return None
    order = {n: i for i, n in enumerate(family.table.names)}
    return Witness(tuple(sorted(checked.items(), key=lambda kv: order[kv[0]])))


class _Admission:
    """The one budget of exact admission checks of an analysis."""

    def __init__(self, family, eliminations, equations, grid_points):
        self.family = family
        self.eliminations = eliminations
        self.equations = equations
        self.grid_points = grid_points
        self.left = ADMISSION_BUDGET
        self.binds = False  # an attempt was refused for want of budget
        # equal values and (name, value) pairs of this analysis's witnesses
        # are stored once; nothing is shared with another analysis
        self.shared: dict = {}

    def complete(self, partial: Mapping[str, Fraction], unset: Sequence[str]) -> Witness | None:
        """First admissible witness that extends `partial` over the grid of `unset`."""
        grids = [grid_values(self.family.param(n), self.grid_points) for n in unset]
        for combo in itertools.product(*grids):
            if not self.left:
                self.binds = True
                return None
            self.left -= 1
            w = _admit(
                self.family, {**partial, **dict(zip(unset, combo))},
                self.eliminations, self.equations,
            )
            if w:
                share = self.shared.setdefault
                pairs = ((n, share(v, v)) for n, v in w.values)
                return Witness(tuple(share(p, p) for p in pairs))
        return None

    def note(self) -> list[str]:
        if not self.binds:
            return []
        return [f"witness admission stopped after {ADMISSION_BUDGET} attempts"]


# -- the analysis pipeline -----------------------------------------------------


def _check_sampling_arguments(grid_points: int, witness_cap: int):
    # one grid point per axis would sample a single point, so fewer than two
    # (or no witnesses at all) cannot back a verdict
    if grid_points < 2:
        raise ArgumentOutOfRange(f"grid_points must be at least 2, got {grid_points}")
    if witness_cap < 1:
        raise ArgumentOutOfRange(f"witness_cap must be at least 1, got {witness_cap}")


def analyze_system(
    system: EquationSystem | Iterable[Poly],
    family: DensityFamily,
    grid_points: int = DEFAULT_GRID_POINTS,
    witness_cap: int = WITNESS_CAP,
) -> SolutionAnalysis:
    _check_sampling_arguments(grid_points, witness_cap)
    if isinstance(system, EquationSystem):
        polys = [e.poly for e in system.entries]
    else:
        polys = list(system)
    equations = _distinct_stripped(polys)
    original_equations = list(equations)
    params = list(family.param_names)
    notes: list[str] = []
    eliminations: list[tuple[str, Poly]] = []

    # phase 1: equality constraints, phase 2: greedy over the equations
    eq_constraints = [c.poly for c in family.constraints if c.relation == "="]
    changed = True
    while changed:
        changed = False
        remaining_params = [p for p in params if p not in dict(eliminations)]
        for source, pool in (("constraint", eq_constraints), ("equation", equations)):
            found = None
            for p in pool:
                found = _linear_candidate(p, remaining_params)
                if found:
                    break
            if found:
                name, repl = found
                if PI_NAME in repl.free_symbols():
                    # a witness needs a rational value for every parameter
                    raise ConstraintViolation(
                        f"eliminating {name} from a linear {source} leaves the "
                        f"constant PI in its value ({name} = {repl.to_text()})"
                    )
                eliminations.append((name, repl))
                eq_constraints = _distinct_stripped(
                    p.subs_symbol(name, repl) for p in eq_constraints
                )
                equations = _distinct_stripped(p.subs_symbol(name, repl) for p in equations)
                notes.append(f"eliminated {name} from a linear {source}")
                changed = True
                break

    # eliminated constraints were rejected above if they involve PI; any
    # other would fail every admission check, which swallows the error
    for constraint in family.constraints:
        constraint.require_rational()

    if eq_constraints:
        notes.append(
            "equality constraints without a linear pivot remain; they are "
            "enforced exactly on every witness"
        )

    for p in equations:
        if PI_NAME in p.free_symbols():
            raise ConstraintViolation(
                "a residual equation still involves the constant PI after "
                "stripping; the walk only samples declared parameters "
                f"(offending equation: {p.to_text()})"
            )

    inconsistent = [p for p in equations if not p.free_symbols()]
    if inconsistent:
        return SolutionAnalysis(
            SolveStatus.EMPTY,
            tuple(p.to_text() for p in equations),
            _elim_texts(eliminations),
            (),
            (),
            None,
            tuple(notes + ["a nonzero constant equation remains: no solutions"]),
        )

    eliminated = {n for n, _ in eliminations}
    free = [p for p in params if p not in eliminated]
    residual_texts = tuple(p.to_text() for p in equations)

    if not equations:
        admission = _Admission(family, eliminations, original_equations, grid_points)
        w = admission.complete({}, free)
        witnesses = (w,) if w else ()
        if not w:
            if not free:
                notes.append("determined point fails constraints")
            elif admission.binds:
                notes.append(f"no admissible point in the first {ADMISSION_BUDGET} grid points")
            else:
                notes.append("no admissible grid point satisfies the constraints")
        status = SolveStatus.EXACT if eliminations else SolveStatus.TRIVIAL
        if not eliminations:
            notes.append("every mask equation stripped to zero")
        return SolutionAnalysis(
            status, residual_texts, _elim_texts(eliminations), witnesses, (), None, tuple(notes)
        )

    involved = sorted(
        {s for p in equations for s in p.free_symbols()},
        key=family.table.names.index,
    )
    if len(involved) == 1:
        return _univariate_analysis(
            family, equations, involved[0], free, eliminations,
            original_equations, residual_texts, notes, grid_points,
        )
    return _sampled_analysis(
        family, equations, free, eliminations, original_equations,
        residual_texts, notes, grid_points, witness_cap,
    )


def _elim_texts(eliminations: Sequence[tuple[str, Poly]]) -> tuple[tuple[str, str], ...]:
    return tuple((n, r.to_text()) for n, r in eliminations)


def _univariate_analysis(
    family, equations, symbol, free, eliminations,
    original_equations, residual_texts, notes, grid_points,
) -> SolutionAnalysis:
    g = None
    for p in equations:
        coeffs = p.as_univariate(symbol)
        g = coeffs if g is None else uni_gcd(g, coeffs)
    if len(g) == 1:
        return SolutionAnalysis(
            SolveStatus.EMPTY, residual_texts, _elim_texts(eliminations), (), (), None,
            tuple(notes + [f"equations in {symbol} share no common root"]),
        )
    found = real_roots(g)
    other_free = [n for n in free if n != symbol]
    admission = _Admission(family, eliminations, original_equations, grid_points)
    candidates = (admission.complete({symbol: root}, other_free) for root in found.rational)
    witnesses = tuple(w for w in candidates if w)
    intervals = tuple((symbol, lo, hi) for lo, hi in found.irrational_intervals)
    if intervals:
        notes = notes + [
            "irrational roots isolated but not admitted as witnesses "
            "(exact product-form checks need rational points)"
        ]
    return SolutionAnalysis(
        SolveStatus.EXACT, residual_texts, _elim_texts(eliminations),
        witnesses, intervals, None, tuple(notes + admission.note()),
    )


def _lattice_terms(
    poly: Poly, syms: Sequence[str], lattices: Sequence[tuple[Fraction, Fraction, int]]
) -> dict[tuple[int, ...], int]:
    """poly at s = a + b*k on every axis, as integer terms in the k's.

    The result is scaled by a positive integer that clears denominators,
    which keeps the sign and every zero of poly at each lattice point.
    """
    idx = [poly.table.index(n) for n in syms]
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in poly.terms.items():
        partial = {(): coeff}
        for i, (a, b, _) in zip(idx, lattices):
            e = exps[i]
            # (a + b*k)^e by the binomial theorem
            powers = [(j, math.comb(e, j) * a ** (e - j) * b ** j) for j in range(e + 1)]
            partial = {
                key + (j,): c * w for key, c in partial.items() for j, w in powers if w
            }
        for key, c in partial.items():
            out[key] = out.get(key, 0) + c
    scale = math.lcm(*(c.denominator for c in out.values()))
    return {key: int(c * scale) for key, c in out.items() if c}


def _fix_first(terms: dict[tuple[int, ...], int], k: int) -> dict[tuple[int, ...], int]:
    """Substitute the first lattice index by k."""
    out: dict[tuple[int, ...], int] = {}
    for exps, c in terms.items():
        rest = exps[1:]
        out[rest] = out.get(rest, 0) + c * k ** exps[0]
    return {e: c for e, c in out.items() if c}


def _column(coeffs: dict[int, int], m: int) -> list[int]:
    """sum c*i^e over coeffs {e: c} at i = 0..m-1, by Horner in C-level passes."""
    top = max(coeffs, default=0)
    vals = [coeffs.get(top, 0)] * m
    for e in range(top - 1, -1, -1):
        vals = list(map(operator.add, map(operator.mul, vals, range(m)),
                        itertools.repeat(coeffs.get(e, 0))))
    return vals


def _block(
    terms: dict[tuple[int, int], int], m: int, n: int, tiled: list[int]
) -> tuple[list[list[int]], list[int]]:
    """Columns and row-major values of an integer polynomial in (i, j).

    Column f lists the coefficient of j^f at i = 0..m-1; the block holds
    the value at (i, j) in position i*n + j.  `tiled` is range(n) repeated
    m times.  Horner in j: the top two columns give one progression per
    row, and each lower column is one C-level pass over the block.
    """
    by_power: dict[int, dict[int, int]] = {}
    for (e, f), c in terms.items():
        by_power.setdefault(f, {})[e] = c
    cols = [_column(by_power.get(f, {}), m) for f in range(max(by_power, default=0) + 1)]
    top, below = (cols[-1], cols[-2]) if len(cols) > 1 else ([0] * m, cols[0])
    block: list[int] = []
    for lead, c in zip(top, below):
        block += range(c, c + lead * n, lead) if lead else itertools.repeat(c, n)
    for col in reversed(cols[:-2]):
        spread = itertools.chain.from_iterable(map(itertools.repeat, col, itertools.repeat(n)))
        block = list(map(operator.add, map(operator.mul, block, tiled), spread))
    return cols, block


def _sampled_analysis(
    family, equations, free, eliminations, original_equations,
    residual_texts, notes, grid_points, witness_cap=WITNESS_CAP,
) -> SolutionAnalysis:
    # only symbols the equations mention are walked; the rest do not affect
    # sign patterns and are gridded at admission time to complete a witness
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
    a_last, b_last, n = lattices[last]
    # solved candidates outside the declared range would fail admission
    # anyway; the range is mapped onto the last axis's lattice index.  A
    # declared single point maps to the one index k = 0, which the tally
    # evaluates, so there is nothing to solve for off the grid
    last_within = tuple(
        None if x is None else (x - a_last) / b_last
        for x in (last_decl.lower, last_decl.upper)
    )
    solve = last_within[0] is None or last_within[0] != last_within[1]
    # one value list per axis, so candidates share their grid Fractions
    axis_values = [[a + b * k for k in range(size)] for a, b, size in lattices]
    # the last two axes are one row-major block; a single axis is a block
    # with a one-point leading axis
    rows = axis_values[last - 1] if last else [None]
    m = len(rows)
    tiled = list(range(n)) * m
    admission = _Admission(family, eliminations, original_equations, grid_points)
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
        w = admission.complete(values, inactive)
        if w:
            witnesses.append(w)

    def leaf(polys: list[dict], ks: tuple):
        blocks = []
        zeros = None  # block positions where every equation so far vanishes
        for counts, terms in zip(sign_counts, polys):
            cols, vals = _block(terms, m, n, tiled)
            blocks.append(cols)
            neg = sum(map(operator.lt, vals, itertools.repeat(0)))
            zero = vals.count(0)
            counts[0] += neg
            counts[1] += zero
            counts[2] += len(vals) - neg - zero
            if not zero:
                zeros = ()
            elif zeros is None:
                zeros = list(itertools.compress(itertools.count(), map(operator.not_, vals)))
            else:
                zeros = [k for k in zeros if not vals[k]]
        if len(witnesses) >= witness_cap or not (zeros or solve):
            return
        on_grid: dict[int, list[int]] = {}
        for z in zeros:
            on_grid.setdefault(z // n, []).append(z % n)
        for i, row in enumerate(rows):
            if len(witnesses) >= witness_cap:
                return
            prefix = dict(zip(syms, ks + (row,) if last else ks))
            for j in on_grid.get(i, ()):
                admit_candidate({**prefix, syms[last]: axis_values[last][j]})
            if not solve:
                continue
            # exact witnesses off the grid: solve the last non-constant
            # residual equation for the last index along this row
            for cols in reversed(blocks):
                cl = [col[i] for col in cols]
                while len(cl) > 1 and not cl[-1]:
                    cl.pop()
                if len(cl) > 1:
                    for root in rational_roots(cl, within=last_within):
                        admit_candidate({**prefix, syms[last]: a_last + b_last * root})
                    break

    def walk(level: int, polys: list[dict], ks: tuple):
        if level < last - 1:
            for k, v in enumerate(axis_values[level]):
                walk(level + 1, [_fix_first(p, k) for p in polys], ks + (v,))
        else:
            leaf(polys, ks)

    terms = [_lattice_terms(p, syms, lattices) for p in equations]
    walk(0, terms if last else [{(0,) + e: c for e, c in t.items()} for t in terms], ())
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


# -- product form ---------------------------------------------------------------


def check_product_form(family: DensityFamily, point: Mapping[str, Fraction]) -> ProductVerdict:
    """Does the density at this admissible point factor as g(x) h(y)?

    Exact rank test on the coefficient grid: rank <= 1, that is every 2x2
    minor vanishes, over a product base measure means the density
    separates.  The disk support is not a product set, so disk families
    get their own verdict unconditionally.
    """
    values = family.check_point(point)
    if isinstance(family.base, UnitDisk):
        return ProductVerdict.DOMAIN_NOT_PRODUCT
    grid = family.coefficient_grid(values)
    cols = list(itertools.combinations(range(len(grid[0])), 2))
    rank_one = all(
        a[i] * b[j] == a[j] * b[i]
        for a, b in itertools.combinations(grid, 2)
        for i, j in cols
    )
    return ProductVerdict.PRODUCT_FORM if rank_one else ProductVerdict.NOT_PRODUCT_FORM


@dataclass(frozen=True)
class FactorizationReport:
    residuals: tuple[tuple[tuple[int, int], Fraction], ...]
    max_abs: Fraction

    def residual(self, p: int, q: int) -> Fraction:
        return dict(self.residuals)[(p, q)]


def moment_factorization_check(
    family: DensityFamily, point: Mapping[str, Fraction], max_p: int, max_q: int
) -> FactorizationReport:
    """Exact residuals E[x^p y^q] - E[x^p] E[y^q] at a parameter point.

    Expectations are moments normalized by the mass; any shared power of
    PI cancels between numerator and denominator, keeping disk families
    exact as well.
    """
    values = family.check_point(point)
    mass = family.moment(0, 0)
    residuals = []
    biggest = Fraction(0)
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            num = family.moment(p, q) * mass - family.moment(p, 0) * family.moment(0, q)
            den = mass * mass
            val = _pi_free_ratio(num, den, values)
            residuals.append(((p, q), val))
            biggest = max(biggest, abs(val))
    return FactorizationReport(tuple(residuals), biggest)


def _pi_free_ratio(num: Poly, den: Poly, values: Mapping[str, Fraction]) -> Fraction:
    if num.is_zero:
        return Fraction(0)
    table = num.table
    idx = table.index(PI_NAME)
    k_den = min(e[idx] for e in den.terms)
    if k_den:
        if min(e[idx] for e in num.terms) < k_den:
            raise ConstraintViolation("PI does not cancel in the expectation ratio")
        pi_pow = Poly.symbol(table, PI_NAME) ** k_den
        num = num.exact_divide(pi_pow)
        den = den.exact_divide(pi_pow)
    if any(e[idx] for e in num.terms) or any(e[idx] for e in den.terms):
        raise ConstraintViolation("PI does not cancel in the expectation ratio")
    d = den.evaluate(values)
    if d == 0:
        raise ConstraintViolation("zero mass at the given point")
    return num.evaluate(values) / d


# -- the search -------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeReport:
    degree: int
    system: EquationSystem
    cumulative: tuple[str, ...]
    analysis: SolutionAnalysis
    verdicts: tuple[tuple[Witness, ProductVerdict], ...]
    collapsed: bool


@dataclass(frozen=True)
class CollapseReport:
    family_name: str
    max_degree: int
    entries: tuple[DegreeReport, ...]
    order: int | None

    def entry(self, degree: int) -> DegreeReport:
        for e in self.entries:
            if e.degree == degree:
                return e
        raise KeyError(degree)


def collapse_order(
    family: DensityFamily,
    max_degree: int,
    grid_points: int = DEFAULT_GRID_POINTS,
    witness_cap: int = WITNESS_CAP,
    stop_at_first: bool = True,
) -> CollapseReport:
    """Smallest degree whose cumulative system forces product form.

    The system analyzed at degree d is the union of the stripped systems
    for every degree up to d, so conclusions are monotone in d.
    Raises ArgumentOutOfRange for grid_points < 2 or witness_cap < 1.
    """
    _check_sampling_arguments(grid_points, witness_cap)
    cumulative: list[Poly] = []
    entries: list[DegreeReport] = []
    order = None
    for d in range(1, max_degree + 1):
        system = zii_equations(family, d)
        for p in system.polys():
            if not p.is_zero and p not in cumulative:
                cumulative.append(p)
        analysis = analyze_system(list(cumulative), family, grid_points, witness_cap)
        verdicts = tuple(
            (w, check_product_form(family, w.as_dict())) for w in analysis.witnesses
        )
        collapsed = bool(verdicts) and all(
            v is ProductVerdict.PRODUCT_FORM for _, v in verdicts
        )
        entries.append(
            DegreeReport(
                d, system, tuple(p.to_text() for p in cumulative),
                analysis, verdicts, collapsed,
            )
        )
        if collapsed and order is None:
            order = d
            if stop_at_first:
                break
    return CollapseReport(family.name, max_degree, tuple(entries), order)
