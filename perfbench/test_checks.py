"""Tests of the benchmark's own checks: a corrupted result must count as failed.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import oracle
import ops
import run
from spans import Recorder
from zii.collapse import Witness, collapse_order
from zii.equations import EquationEntry, EquationSystem, compute_mask, zii_equations
from zii.inverse import ExactInverse, invert_exact
from zii.measures import BUILTIN_FAMILIES
from zii.moments import build_matrix

FAMILIES = {name: make() for name, make in BUILTIN_FAMILIES.items()}


def ctx(reference=None):
    return ops.Context(ROOT, ROOT / ".perfbench_out", FAMILIES,
                       oracle.load_reference("results.json") if reference is None else reference,
                       ops.spec_texts(ROOT))


def corrupt_first(system: EquationSystem) -> EquationSystem:
    first, *rest = system.entries
    return replace(system, entries=(EquationEntry(first.poly + 1, first.pairs), *rest))


def test_gauss_jordan_inverse():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert oracle.gauss_jordan_inverse(m) == [[1, -1], [-1, 2]]
    assert oracle.gauss_jordan_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) is None


def test_mask_pairs_match_the_library():
    for d in range(6):
        assert oracle.mask_pairs(d) == set(compute_mask(d).pairs)


def test_correct_equations_pass_the_oracle():
    for name, d in (("sum-power-exp", 2), ("bilinear-box", 1), ("disk-quadratic", 1),
                    ("product-exponential", 2)):
        system = zii_equations(FAMILIES[name], d)
        assert oracle.check_equations(FAMILIES[name], system, random.Random(d)) == []


def test_zero_side_points_make_inverse_entries_vanish():
    for name, d in (("sum-power-exp", 2), ("bilinear-box", 2), ("disk-quadratic", 2)):
        (point, inverse), _ = oracle.oracle_points(FAMILIES[name], d, random.Random(7))
        assert any(inverse[r][c] == 0 for r, c in oracle.mask_pairs(d)), name


def test_corrupted_equation_is_caught_by_the_oracle():
    family = FAMILIES["sum-power-exp"]
    bad = corrupt_first(zii_equations(family, 2))
    assert oracle.check_equations(family, bad, random.Random(1))


def test_lost_provenance_is_caught():
    system = zii_equations(FAMILIES["bilinear-box"], 1)
    dropped = replace(system, entries=system.entries[1:])
    assert oracle.check_equations(FAMILIES["bilinear-box"], dropped, random.Random(1))


def test_corrupted_inverse_is_caught():
    family = FAMILIES["product-exponential"]
    inv = invert_exact(build_matrix(family, 2))
    assert oracle.check_inverse(family, 2, inv, random.Random(1)) == []
    adj = [list(row) for row in inv.adjugate]
    adj[0][1] = adj[0][1] + 1
    bad = ExactInverse(tuple(map(tuple, adj)), inv.determinant)
    assert oracle.check_inverse(family, 2, bad, random.Random(1))


def test_wrong_witness_is_caught():
    report = collapse_order(FAMILIES["sum-power-exp"], 1)
    assert oracle.check_collapse(report) == []
    entry = report.entries[0]
    analysis = replace(entry.analysis, witnesses=(Witness((("ell", Fraction(1)),)),))
    bad = replace(report, entries=(replace(entry, analysis=analysis),))
    assert oracle.check_collapse(bad)


def test_corrupted_reference_counts_as_failed():
    op = ops.EquationsOp("bilinear-box", 2)
    result = op.run(ctx())
    assert op.check(ctx(), result, random.Random(1)) == []
    reference = dict(ctx().reference)
    reference[op.name] = [["a00 + 1", [[0, 1]]]] + reference[op.name][1:]
    records = [(op, result, 0.0)]
    assert run.check_all(ctx(reference), records, random.Random(1)) == 1


def test_corrupted_equation_counts_as_failed():
    op = ops.EquationsOp("sum-power-exp", 3)
    bad = corrupt_first(op.run(ctx()))
    assert run.check_all(ctx(), [(op, bad, 0.0)], random.Random(1)) == 1


def test_raised_error_counts_as_failed():
    op = ops.EquationsOp("sum-power-exp", 3)
    assert run.check_all(ctx(), [(op, ValueError("boom"), 0.0)], random.Random(1)) == 1


def test_cli_output_differing_from_golden_counts_as_failed():
    op = ops.GOLDEN_COMMANDS[0]
    golden = (ROOT / "tests/golden" / op.golden).read_bytes()
    good = ops.CliResult(0, golden, None, b"elapsed: 0.001s\n", 1.0, 0.001, 1000)
    assert op.check(ctx(), good, None) == []
    bad = replace(good, stdout=golden.replace(b".", b"#", 1))
    assert run.check_all(ctx(), [(op, bad, 1.0)], None) == 1


def test_traced_compositions_match_direct_calls():
    c = ctx()
    for op in (ops.EquationsOp("disk-quadratic", 2), ops.InverseOp("product-exponential", 2),
               ops.CollapseOp("sum-power-exp", 2)):
        rec = Recorder()
        with rec.span(op.name, op=0) as index:
            traced = op.traced(c, rec)
        assert op.summary(traced) == op.summary(op.run(c))
        assert rec.leaf_cover(index) > 0.5


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
    layers = run.layer_metrics(Recorder(), 0.0, 1.0)
    assert {k: v["unit"] for k, v in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(ops.WORKLOADS) == {w["name"] for w in spec["workloads"]}
