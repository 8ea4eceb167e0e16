"""Benchmark operations and workloads.

An operation is one library call or one CLI command.  Each has a direct
form (`run`), timed in the untraced passes, and a traced form (`traced`)
that makes the same computation by calling the layers one at a time, in
the order the library does, with a span around each call.  The traced
form must give the same result as the direct one; the check compares
their canonical summaries.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from zii.collapse import (
    CollapseReport,
    DegreeReport,
    ProductVerdict,
    analyze_system,
    check_product_form,
    collapse_order,
)
from zii.dsl import parse_density_spec, render_spec
from zii.equations import (
    EquationEntry,
    EquationSystem,
    compute_mask,
    reduce_by_determinant,
    zii_equations,
)
from zii.errors import SingularMatrix
from zii.inverse import ExactInverse, blocked_cofactors, connected_components, determinant, invert_exact
from zii.moments import build_matrix
from zii.numeric import numeric_density, numeric_zii_residuals

import oracle

CLI_TIMEOUT_S = 120
NUMERIC_TOL = 1e-9


@dataclass
class Context:
    root: Path
    out_dir: Path
    families: dict
    reference: dict
    specs: tuple[str, ...]

    def child_env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["ZII_THREADS"] = "1"
        return env


# -- traced compositions ------------------------------------------------------


def _count_cofactors(rec, values):
    rec.add_count("inverse.cofactors", len(values))
    rec.add_count("inverse.cofactors_nonzero", sum(not v.is_zero for v in values))
    rec.max_count("inverse.cofactor_max_terms", max((len(v.terms) for v in values), default=0))


def _traced_determinant(rec, rows):
    det = rec.call("inverse.determinant", determinant, rows)
    rec.max_count("inverse.det_terms", len(det.terms))
    rec.add_count("inverse.blocks", len(connected_components(rows)))
    if det.is_zero:
        raise SingularMatrix(f"moment matrix of order {len(rows)} is identically singular")
    return det


def traced_equations(rec, family, degree: int) -> EquationSystem:
    """zii_equations, one layer at a time."""
    with rec.span("equations.zii_equations"):
        matrix = rec.call("moments.build_matrix", build_matrix, family, degree)
        rows = matrix.rows()
        rec.max_count("moments.order", len(rows))
        mask = rec.call("equations.compute_mask", compute_mask, matrix.basis)
        rec.add_count("equations.mask_pairs", len(mask))
        det = _traced_determinant(rec, rows)
        raws = rec.call("inverse.blocked_cofactors", blocked_cofactors, rows, mask.pairs)
        _count_cofactors(rec, raws)
        reduced = [
            rec.call("equations.reduce_by_determinant", reduce_by_determinant, raw, det)
            for raw in raws
        ]
        for raw, red in zip(raws, reduced):
            if not raw.is_zero:
                rec.add_count("equations.gcd_attempts")
                rec.add_count("equations.gcd_nontrivial", red != raw)
                rec.max_count("equations.gcd_degree_max", raw.total_degree() - red.total_degree())
        with rec.span("equations.strip"):
            stripped = [p.strip_known_nonzero_factors() for p in reduced]
        with rec.span("equations.group"):
            grouped: dict = {}
            for pair, poly in zip(mask.pairs, stripped):
                grouped.setdefault(poly, []).append(pair)
            entries = tuple(EquationEntry(p, tuple(pairs)) for p, pairs in grouped.items())
        rec.add_count("equations.distinct", len(entries))
        return EquationSystem(matrix.basis.degree, matrix.basis, entries)


def traced_inverse(rec, family, degree: int) -> ExactInverse:
    """invert_exact on a symmetric moment matrix, one layer at a time."""
    with rec.span("inverse.invert_exact"):
        matrix = rec.call("moments.build_matrix", build_matrix, family, degree)
        rows = matrix.rows()
        n = len(rows)
        rec.max_count("moments.order", n)
        det = _traced_determinant(rec, rows)
        jobs = [(r, c) for r in range(n) for c in range(r, n)]
        values = rec.call("inverse.adjugate", blocked_cofactors, rows, [(c, r) for r, c in jobs])
        _count_cofactors(rec, values)
        adj = [[None] * n for _ in range(n)]
        for (r, c), value in zip(jobs, values):
            adj[r][c] = adj[c][r] = value
        return ExactInverse(tuple(tuple(row) for row in adj), det)


def traced_collapse(rec, family, max_degree: int) -> CollapseReport:
    """collapse_order with its defaults, one layer at a time."""
    with rec.span("collapse.collapse_order"):
        cumulative, entries, order = [], [], None
        for d in range(1, max_degree + 1):
            system = traced_equations(rec, family, d)
            for p in system.polys():
                if not p.is_zero and p not in cumulative:
                    cumulative.append(p)
            analysis = rec.call("collapse.analyze_system", analyze_system, list(cumulative), family)
            verdicts = tuple(
                (w, rec.call("collapse.check_product_form", check_product_form, family, w.as_dict()))
                for w in analysis.witnesses
            )
            collapsed = bool(verdicts) and all(v is ProductVerdict.PRODUCT_FORM for _, v in verdicts)
            rec.add_count("collapse.degrees")
            rec.add_count("collapse.witnesses", len(analysis.witnesses))
            if analysis.grid is not None:
                rec.add_count("collapse.grid_points", analysis.grid.total_points)
                rec.add_count("collapse.sign_evals", sum(map(sum, analysis.grid.sign_counts)))
            entries.append(DegreeReport(
                d, system, tuple(p.to_text() for p in cumulative), analysis, verdicts, collapsed,
            ))
            if collapsed:
                order = d
                break
        return CollapseReport(family.name, max_degree, tuple(entries), order)


# -- operations ---------------------------------------------------------------


@dataclass(frozen=True)
class EquationsOp:
    family: str
    degree: int
    in_process = True

    @property
    def name(self) -> str:
        return f"zii_equations({self.family}, {self.degree})"

    def run(self, ctx):
        return zii_equations(ctx.families[self.family], self.degree)

    def traced(self, ctx, rec):
        return traced_equations(rec, ctx.families[self.family], self.degree)

    def summary(self, result):
        return oracle.summarize_equations(result)

    def check(self, ctx, result, rng) -> list[str]:
        return oracle.check_reference(ctx.reference, self.name, self.summary(result)) + \
            oracle.check_equations(ctx.families[self.family], result, rng)


@dataclass(frozen=True)
class InverseOp:
    family: str
    degree: int
    in_process = True

    @property
    def name(self) -> str:
        return f"invert_exact({self.family}, {self.degree})"

    def run(self, ctx):
        return invert_exact(build_matrix(ctx.families[self.family], self.degree))

    def traced(self, ctx, rec):
        return traced_inverse(rec, ctx.families[self.family], self.degree)

    def summary(self, result):
        return oracle.summarize_inverse(result)

    def check(self, ctx, result, rng) -> list[str]:
        return oracle.check_reference(ctx.reference, self.name, self.summary(result)) + \
            oracle.check_inverse(ctx.families[self.family], self.degree, result, rng)


@dataclass(frozen=True)
class CollapseOp:
    family: str
    max_degree: int
    in_process = True

    @property
    def name(self) -> str:
        return f"collapse_order({self.family}, {self.max_degree})"

    def run(self, ctx):
        return collapse_order(ctx.families[self.family], self.max_degree)

    def traced(self, ctx, rec):
        return traced_collapse(rec, ctx.families[self.family], self.max_degree)

    def summary(self, result):
        return oracle.summarize_collapse(result)

    def check(self, ctx, result, rng) -> list[str]:
        return oracle.check_reference(ctx.reference, self.name, self.summary(result)) + \
            oracle.check_collapse(result)


@dataclass(frozen=True)
class SpecParseOp:
    """Parse every spec file in specs/ and render it back."""

    in_process = True
    name = "parse_density_spec(specs/*.zii)"

    def run(self, ctx):
        return [parse_density_spec(t) for t in ctx.specs]

    def traced(self, ctx, rec):
        return [rec.call("dsl.parse_density_spec", parse_density_spec, t) for t in ctx.specs]

    def summary(self, result):
        return [render_spec(f) for f in result]

    def check(self, ctx, result, rng) -> list[str]:
        return oracle.check_reference(ctx.reference, self.name, self.summary(result))


@dataclass(frozen=True)
class ResidualsOp:
    """Float inverse-mask residuals, checked against the exact inverse."""

    family: str
    degree: int
    at: tuple[tuple[str, int], ...]
    in_process = True

    @property
    def name(self) -> str:
        return f"numeric_zii_residuals({self.family}, {self.degree})"

    def _point(self):
        return {k: Fraction(v) for k, v in self.at}

    def run(self, ctx):
        family = ctx.families[self.family]
        return numeric_zii_residuals(numeric_density(family, self._point()), self.degree)

    def traced(self, ctx, rec):
        family = ctx.families[self.family]
        nd = rec.call("numeric.numeric_density", numeric_density, family, self._point())
        return rec.call("numeric.residuals", numeric_zii_residuals, nd, self.degree)

    def summary(self, result):
        return [[list(pair), round(v, 6)] for pair, v in result.entries]

    def check(self, ctx, result, rng) -> list[str]:
        family = ctx.families[self.family]
        point = {**self._point(), "PI": Fraction(355, 113)}  # moments here carry no PI
        exact = oracle.gauss_jordan_inverse(
            oracle.evaluate_matrix(build_matrix(family, self.degree).entries, point))
        return [
            f"float residual {pair} = {v} vs exact {exact[pair[0]][pair[1]]}"
            for pair, v in result.entries
            if abs(v - float(exact[pair[0]][pair[1]])) > NUMERIC_TOL
        ]


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    out: bytes | None
    stderr: bytes
    wall: float
    elapsed: float | None
    maxrss_kb: int


@dataclass(frozen=True)
class CliOp:
    args: tuple[str, ...]
    golden: str
    out_golden: str | None = None
    in_process = False

    @property
    def name(self) -> str:
        return "zii " + " ".join(self.args)

    def run(self, ctx) -> CliResult:
        out_path = ctx.out_dir / "cli-out.json"
        argv = [sys.executable, "-m", "zii.cli", *self.args]
        if self.out_golden:
            out_path.unlink(missing_ok=True)
            argv += ["--out", str(out_path)]
        with open(ctx.out_dir / "cli-stdout", "w+b") as so, open(ctx.out_dir / "cli-stderr", "w+b") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ctx.root, env=ctx.child_env(), stdout=so, stderr=se)
            killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            so.seek(0)
            se.seek(0)
            stdout, stderr = so.read(), se.read()
        out = out_path.read_bytes() if self.out_golden and out_path.is_file() else None
        return CliResult(proc.returncode, stdout, out, stderr, wall, _elapsed(stderr), usage.ru_maxrss)

    def traced(self, ctx, rec):
        result = self.run(ctx)
        parent = rec.current
        end = rec.spans[parent][1] + result.wall
        split = end - (result.elapsed or 0.0)
        rec.add("cli.startup", rec.spans[parent][1], split, parent)
        rec.add("cli.compute", split, end, parent)
        return result

    def summary(self, result):
        return None

    def check(self, ctx, result, rng) -> list[str]:
        problems = []
        if result.returncode != 0:
            problems.append(f"exit code {result.returncode}: {result.stderr.decode(errors='replace')[-300:]}")
        if result.stdout != (ctx.root / "tests/golden" / self.golden).read_bytes():
            problems.append(f"stdout differs from tests/golden/{self.golden}")
        if self.out_golden and result.out != (ctx.root / "tests/golden" / self.out_golden).read_bytes():
            problems.append(f"--out JSON differs from tests/golden/{self.out_golden}")
        if result.elapsed is None:
            problems.append("no elapsed: line on stderr")
        return problems


def _elapsed(stderr: bytes) -> float | None:
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith("elapsed: ") and line.endswith("s"):
            return float(line[len("elapsed: "):-1])
    return None


# -- workloads ----------------------------------------------------------------


def spec_texts(root: Path) -> tuple[str, ...]:
    return tuple(p.read_text() for p in sorted((root / "specs").glob("*.zii")))


GOLDEN_COMMANDS = (
    CliOp(("mask", "--degree", "2"), "mask-degree-2.txt"),
    CliOp(("mask", "--degree", "2", "--format", "svg"), "mask-degree-2.svg"),
    CliOp(("mask", "--degree", "1", "--format", "report"), "mask-report-degree-1.txt"),
    CliOp(("matrix", "--family", "product-exponential", "--degree", "1"),
          "matrix-product-exponential-degree-1.txt"),
    CliOp(("inverse", "--family", "product-exponential", "--degree", "2"),
          "inverse-product-exponential-degree-2.txt"),
    CliOp(("equations", "--family", "sum-power-exp", "--degree", "1"),
          "equations-sum-power-exp-degree-1.txt"),
    CliOp(("equations", "--spec", "specs/bilinear-box.zii", "--degree", "1"),
          "equations-bilinear-box-degree-1.txt"),
    CliOp(("equations", "--family", "sum-power-exp", "--degree", "1"),
          "equations-sum-power-exp-degree-1.txt", "equations-sum-power-exp-degree-1.json"),
    CliOp(("collapse", "--family", "sum-power-exp", "--max-degree", "3"), "collapse-sum-power-exp.txt"),
    CliOp(("collapse", "--family", "disk-quadratic", "--max-degree", "2"), "collapse-disk-quadratic.txt"),
    CliOp(("check", "--family", "sum-power-exp", "--at", "ell=1", "--degree", "1", "--max-pq", "3"),
          "check-sum-power-exp-ell-1.txt"),
)

WORKLOADS = {
    "equations-1param": (
        EquationsOp("sum-power-exp", 3),
        EquationsOp("product-exponential", 4),
        InverseOp("product-exponential", 4),
    ),
    "equations-4param": (
        EquationsOp("disk-quadratic", 3),
        EquationsOp("bilinear-box", 2),
    ),
    "collapse-grid": (
        CollapseOp("bilinear-box", 2),
        CollapseOp("disk-quadratic", 2),
        CollapseOp("sum-power-exp", 3),
    ),
    "cli-examples": GOLDEN_COMMANDS,
}

# Run after every traced pass, so that each layer has a measured span in
# every traced run, whichever layers the workload itself reaches.
PROBE = (
    GOLDEN_COMMANDS[-1],
    SpecParseOp(),
    ResidualsOp("sum-power-exp", 1, (("ell", 1),)),
    InverseOp("product-exponential", 1),
    CollapseOp("sum-power-exp", 1),
)

# (family, degree) rows of the ROADMAP baseline table
BASELINE_ROWS = (
    ("product-exponential", 4),
    ("sum-power-exp", 3),
    ("bilinear-box", 2),
    ("disk-quadratic", 3),
)
