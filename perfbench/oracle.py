"""Output checks for the benchmark: references and an independent oracle.

Every in-process result is compared with its canonical summary recorded
in `reference/results.json`.  Equations and inverses are also checked at
seeded rational points against this module's own Fraction Gauss-Jordan
inverse of the moment matrix: where det M(pt) != 0, the (r, c) entry of
M(pt)^-1 is adj(r, c)/det, and the stripped equation only lost factors
that divide det or are positive there, so it vanishes exactly when that
inverse entry is zero.  Each family gets one point on the zero side
(product form, or a symmetric density) and one generic point.

The check functions return a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from zii.collapse import CollapseReport
from zii.equations import EquationSystem
from zii.inverse import ExactInverse
from zii.measures import DensityFamily
from zii.moments import build_matrix
from zii.reports import collapse_payload, to_json_text
from zii.symbols import Assumption

REFERENCE = Path(__file__).resolve().parent / "reference"
POINT_TRIES = 20


# -- linear algebra over Q -------------------------------------------------


def gauss_jordan_inverse(m: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Exact inverse of a square rational matrix, or None when singular."""
    n = len(m)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k] != 0), None)
        if pivot is None:
            return None
        work[k], work[pivot] = work[pivot], work[k]
        inv_p = 1 / work[k][k]
        work[k] = [v * inv_p for v in work[k]]
        for i in range(n):
            f = work[i][k]
            if i != k and f != 0:
                row_k = work[k]
                work[i] = [a - f * b for a, b in zip(work[i], row_k)]
    return [row[n:] for row in work]


def mask_pairs(degree: int) -> set[tuple[int, int]]:
    """Off-diagonal (r < c) positions with max(a1, b1) + max(a2, b2) > degree."""
    exps = [(i - j, j) for i in range(degree + 1) for j in range(i + 1)]
    return {
        (r, c)
        for r in range(len(exps))
        for c in range(r + 1, len(exps))
        if max(exps[r][0], exps[c][0]) + max(exps[r][1], exps[c][1]) > degree
    }


def evaluate_matrix(entries, point: dict[str, Fraction]) -> list[list[Fraction]]:
    cache: dict[int, Fraction] = {}
    out = []
    for row in entries:
        vals = []
        for e in row:
            if id(e) not in cache:
                cache[id(e)] = e.evaluate(point)
            vals.append(cache[id(e)])
        out.append(vals)
    return out


# -- seeded points ----------------------------------------------------------


def _rational(rng: random.Random, positive: bool) -> Fraction:
    lo = 1 if positive else -30
    return Fraction(rng.randint(lo, 30), rng.randint(1, 9))


def _draw(family: DensityFamily, rng: random.Random, zero_side: bool) -> dict[str, Fraction]:
    table = family.table
    point = {
        name: _rational(rng, assumption is Assumption.POSITIVE)
        for name, assumption in zip(table.names, table.assumptions)
    }
    if not zero_side:
        return point
    if family.name == "sum-power-exp":
        point["ell"] = Fraction(0)
    elif family.name == "bilinear-box":
        # (p + q x)(r + s y): a rank-one coefficient grid, so product form
        p, q, r, s = (_rational(rng, True) for _ in range(4))
        point.update(a00=p * r, a01=p * s, a10=q * r, a11=q * s)
    elif family.name == "disk-quadratic":
        point["b"] = -point["c"]  # no xy term: the density is even in x and in y
    return point


def oracle_points(family: DensityFamily, degree: int, rng: random.Random):
    """One zero-side and one generic point with det M(pt) != 0, plus M(pt)^-1."""
    entries = build_matrix(family, degree).entries
    found = []
    for zero_side in (True, False):
        for _ in range(POINT_TRIES):
            point = _draw(family, rng, zero_side)
            inverse = gauss_jordan_inverse(evaluate_matrix(entries, point))
            if inverse is not None:
                found.append((point, inverse))
                break
    return found


# -- checks -----------------------------------------------------------------


def check_equations(family: DensityFamily, system: EquationSystem, rng: random.Random) -> list[str]:
    problems = []
    covered = [pair for entry in system.entries for pair in entry.pairs]
    if sorted(covered) != sorted(mask_pairs(system.degree)):
        problems.append("equation provenance does not cover the mask exactly once")
    points = oracle_points(family, system.degree, rng)
    if not points:
        problems.append("no nonsingular oracle point found")
    for point, inverse in points:
        for entry in system.entries:
            vanishes = entry.poly.evaluate(point) == 0
            for r, c in entry.pairs:
                if (inverse[r][c] == 0) != vanishes:
                    problems.append(
                        f"at {_fmt(point)}: inverse entry ({r}, {c}) is {inverse[r][c]} "
                        f"but its equation {'vanishes' if vanishes else 'does not vanish'}"
                    )
    return problems


def check_inverse(family: DensityFamily, degree: int, inv: ExactInverse, rng: random.Random) -> list[str]:
    problems = []
    points = oracle_points(family, degree, rng)
    if not points:
        problems.append("no nonsingular oracle point found")
    for point, inverse in points:
        det = inv.determinant.evaluate(point)
        adj = evaluate_matrix(inv.adjugate, point)
        if det == 0 or any(
            adj[r][c] / det != inverse[r][c] for r in range(len(adj)) for c in range(len(adj))
        ):
            problems.append(f"adjugate/determinant differs from M^-1 at {_fmt(point)}")
    return problems


def check_collapse(report: CollapseReport) -> list[str]:
    """Every witness makes every cumulative equation vanish identically."""
    problems, cumulative = [], []
    for entry in report.entries:
        for p in entry.system.polys():
            if not p.is_zero and p not in cumulative:
                cumulative.append(p)
        for w in entry.analysis.witnesses:
            for p in cumulative:
                if not p.substitute(w.as_dict()).is_zero:
                    problems.append(f"degree {entry.degree}: witness {w.text()} misses {p.to_text()}")
    return problems


def _fmt(point: dict[str, Fraction]) -> str:
    return ", ".join(f"{k}={v}" for k, v in point.items())


# -- canonical summaries and references --------------------------------------


def summarize_equations(system: EquationSystem):
    return [[e.poly.to_text(), [list(p) for p in e.pairs]] for e in system.entries]


def summarize_inverse(inv: ExactInverse):
    n = len(inv.adjugate)
    return {
        "det": inv.determinant.to_text(),
        "adjugate": [inv.adjugate[r][c].to_text() for r in range(n) for c in range(r, n)],
    }


def summarize_collapse(report: CollapseReport):
    return json.loads(to_json_text(collapse_payload(report)))


def load_reference(name: str) -> dict:
    path = REFERENCE / name
    return json.loads(path.read_text()) if path.is_file() else {}


def check_reference(reference: dict, key: str, summary) -> list[str]:
    if key not in reference:
        return [f"no reference recorded for {key}"]
    if reference[key] != summary:
        return [f"{key} differs from its recorded reference"]
    return []
