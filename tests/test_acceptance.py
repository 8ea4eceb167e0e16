"""The ten acceptance criteria, one test each, with PASS/FAIL summary lines.

Each test records its verdict through conftest.record_criterion so the
terminal summary prints one line per criterion.  Runtime budgets are part
of the criteria and are asserted with a wall-clock timer.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import subprocess
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import GOLDEN_DIR, REPO_ROOT, record_criterion, record_note
from oracle_defs import disk_moment_oracle_pi_coefficient, mask_bruteforce_oracle

from zii.collapse import (
    ProductVerdict,
    SolveStatus,
    check_product_form,
    collapse_order,
    moment_factorization_check,
)
from zii.dsl import parse_density_spec
from zii.equations import compute_mask, zii_equations
from zii.errors import DslError
from zii.inverse import invert_exact
from zii.measures import (
    bilinear_box,
    disk_quadratic,
    product_exponential,
    sum_power_exp,
)
from zii.moments import build_matrix
from zii.numeric import kibble_gamma, numeric_density, numeric_moment
from zii.poly import Poly

F = Fraction


@contextlib.contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    """Record PASS/FAIL and enforce the runtime budget for one criterion."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        record_criterion(number, description, False)
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        record_criterion(number, f"{description} (over budget: {elapsed:.2f}s)", False)
        pytest.fail(
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
        )
    record_criterion(number, description, True)


# frozen degree-1 and degree-2 tables for the product-exponential family
M1 = [[1, 1, 1], [1, 2, 1], [1, 1, 2]]
M1_INV = [[3, -1, -1], [-1, 1, 0], [-1, 0, 1]]
M2 = [
    [1, 1, 1, 2, 1, 2],
    [1, 2, 1, 6, 2, 2],
    [1, 1, 2, 2, 2, 6],
    [2, 6, 2, 24, 6, 4],
    [1, 2, 2, 6, 4, 6],
    [2, 2, 6, 4, 6, 24],
]
M2_INV = [
    [6, -4, -4, F(1, 2), 1, F(1, 2)],
    [-4, 6, 1, -1, -1, 0],
    [-4, 1, 6, 0, -1, -1],
    [F(1, 2), -1, 0, F(1, 4), 0, 0],
    [1, -1, -1, 0, 1, 0],
    [F(1, 2), 0, -1, 0, 0, F(1, 4)],
]


def test_criterion_01_reference_matrices():
    with criterion(
        1, "exact reproduction of the reference M1, M1^-1, M2, M2^-1", 1.0
    ):
        fam = product_exponential()
        for degree, want_m, want_inv in ((1, M1, M1_INV), (2, M2, M2_INV)):
            matrix = build_matrix(fam, degree)
            got_m = [[e.constant_value() for e in row] for row in matrix.rows()]
            assert got_m == [[F(v) for v in row] for row in want_m]
            inv = invert_exact(matrix)
            got_inv = inv.rational_entries()
            assert got_inv == [[F(v) for v in row] for row in want_inv]


def test_criterion_02_mask_pattern():
    with criterion(
        2, "mask at d=1 is {(2,3)}, at d=2 the M2^-1 zeros, at d=14 brute force", 1.0
    ):
        one_based = [(r + 1, c + 1) for r, c in compute_mask(1).pairs]
        assert one_based == [(2, 3)]

        # zero positions of the reference inverse (strict upper triangle)
        reference_zeros = {
            (r, c)
            for r in range(6)
            for c in range(r + 1, 6)
            if M2_INV[r][c] == 0
        }
        assert set(compute_mask(2).pairs) == reference_zeros

        assert set(compute_mask(14).pairs) == mask_bruteforce_oracle(14)


def test_criterion_03_sum_power_exp_collapse():
    with criterion(
        3, "power-sum family: v(ell)<0 for ell>=1, collapse order 1 at ell=0", 5.0
    ):
        fam = sum_power_exp()
        # v(ell) = E[1]E[xy] - E[x]^2, the minor behind the (2,3) inverse entry
        for ell in range(11):
            at = {"ell": ell}
            v = (
                fam.moment(0, 0).evaluate(at) * fam.moment(1, 1).evaluate(at)
                - fam.moment(1, 0).evaluate(at) ** 2
            )
            if ell == 0:
                assert v == 0
            else:
                assert v < 0

        # the engine's raw degree-1 value at the mask position is exactly
        # that minor up to the cofactor sign: cofactor(2,3) = -minor(2,3),
        # so "equation = 0" and "v = 0" cut out the same set
        from oracle_defs import cofactor

        m = build_matrix(fam, 1)
        raw = cofactor(m.rows(), 1, 2)
        stripped = zii_equations(m).nontrivial()[0].poly
        for ell in range(11):
            at = {"ell": ell}
            v = (
                fam.moment(0, 0).evaluate(at) * fam.moment(1, 1).evaluate(at)
                - fam.moment(1, 0).evaluate(at) ** 2
            )
            assert raw.evaluate(at) == -v
            # the shipped equation is the raw value times a positive factor
            if ell == 0:
                assert stripped.evaluate(at) == 0
            else:
                assert stripped.evaluate(at) > 0 and v < 0

        report = collapse_order(fam, 3)
        assert report.order == 1
        entry1 = report.entry(1)
        witnesses = [w for w, _ in entry1.verdicts]
        assert [w.text() for w in witnesses] == ["ell = 0"]
        assert check_product_form(fam, {"ell": 0}) is ProductVerdict.PRODUCT_FORM


def test_criterion_04_bilinear_collapse():
    with criterion(
        4, "bilinear family: degree-1 equation a00*a11 - a01*a10, rank-1 verdict", 1.0
    ):
        fam = bilinear_box()
        system = zii_equations(fam, 1)
        (entry,) = system.nontrivial()
        assert entry.poly.to_text() == "a00*a11 - a01*a10"

        point = {"a00": 1, "a01": 2, "a10": 3, "a11": 6}
        assert check_product_form(fam, point) is ProductVerdict.PRODUCT_FORM
        rep = moment_factorization_check(fam, point, 3, 3)
        assert rep.max_abs == 0
        assert all(v == 0 for _, v in rep.residuals)


def _disk_float_matrix(at: dict[str, Fraction]) -> np.ndarray:
    """Independent float moment matrix for the disk family at a point.

    Built from the sympy-derived polar-integral oracle, bypassing the
    package's exact pipeline entirely.
    """
    basis = compute_mask(2).basis.exponents
    n = len(basis)
    out = np.zeros((n, n))
    coeff_terms = [
        ((0, 0), float(at["v"])),
        ((2, 0), float(at["a"])),
        ((1, 1), float(at["b"] + at["c"])),
        ((0, 2), float(at["d"])),
    ]
    for i, (p1, q1) in enumerate(basis):
        for j, (p2, q2) in enumerate(basis):
            val = 0.0
            for (dx, dy), c in coeff_terms:
                val += c * float(
                    disk_moment_oracle_pi_coefficient(p1 + p2 + dx, q1 + q2 + dy)
                ) * math.pi
            out[i, j] = val
    return out


def test_criterion_05_disk_equations():
    with criterion(
        5, "disk family: degree-1 is b + c = 0; degree-2 sign cross-validation", 10.0
    ):
        fam = disk_quadratic()
        system = zii_equations(fam, 1)
        (entry,) = system.nontrivial()
        assert entry.poly.to_text() == "b + c"

        # degree-2: compare the emitted (x^2, y^2) equation against an
        # independent floating inverse residual, sign for sign
        raw_sys = zii_equations(fam, 2, reduce=False)
        by_pair = {p: e.poly for e in raw_sys.entries for p in e.pairs}
        eq_35 = by_pair[(3, 5)]

        samples = []
        for a_num in (-21, -20, -19, -18, -17, -15, -10, -5, 0, 5, 10, 20):
            samples.append(
                {"a": F(a_num, 10), "b": F(0), "c": F(0), "d": F(1, 2), "v": F(1)}
            )
        for a_num in (-30, -25, -20, -10, 0, 10, 20, 30):
            samples.append(
                {"a": F(a_num, 10), "b": F(0), "c": F(0), "d": F(2), "v": F(1)}
            )
        assert len(samples) >= 20

        sigma = None
        seen_signs = set()
        for at in samples:
            m = _disk_float_matrix(at)
            det = np.linalg.det(m)
            assert abs(det) > 1e-12
            adj_entry = np.linalg.inv(m)[3, 5] * det
            ours = eq_35.evaluate_float({k: float(v) for k, v in at.items()})
            assert abs(adj_entry) > 1e-9 and abs(ours) > 1e-9
            agree = (adj_entry > 0) == (ours > 0)
            if sigma is None:
                sigma = agree
            assert agree == sigma, f"sign flip at {at}"
            seen_signs.add(ours > 0)
        assert seen_signs == {True, False}

        # at this slice the parity-forced mask cofactors are zero; the float
        # side must agree that those inverse entries vanish
        probe = {"a": F(1), "b": F(0), "c": F(0), "d": F(1, 2), "v": F(1)}
        m = _disk_float_matrix(probe)
        inv = np.linalg.inv(m)
        for r, c in ((1, 5), (2, 3)):
            assert by_pair[(r, c)].is_zero
            assert abs(inv[r, c]) < 1e-12

        # reported, not asserted: relation to the reference quadratic
        reduced = zii_equations(fam, 2, reduce=True)
        red_by_pair = {p: e.poly for e in reduced.entries for p in e.pairs}
        sliced = red_by_pair[(3, 5)].substitute(
            {"b": F(0), "c": F(0), "v": F(1)}
        )
        t = sliced.table
        a, d = Poly.symbol(t, "a"), Poly.symbol(t, "d")
        reference_quadratic = (
            Poly.const(t, 3) * a * a
            + Poly.const(t, 22) * a * d
            + Poly.const(t, 3) * d * d
            + Poly.const(t, 36) * a
            + Poly.const(t, 36) * d
            + Poly.const(t, 48)
        )
        try:
            quotient = sliced.exact_divide(reference_quadratic)
            divides = quotient * reference_quadratic == sliced
            extra = quotient.to_text()
        except Exception:
            divides = False
            extra = ""
        record_note(
            "criterion 5: the reference quadratic "
            "3a^2+22ad+3d^2+36a+36d+48 "
            + (
                f"divides the engine's (x^2,y^2) equation at b=c=0, v=1; "
                f"cofactor {extra}"
                if divides
                else "does NOT divide the engine's (x^2,y^2) equation at b=c=0, v=1"
            )
        )


def test_criterion_06_product_measure_zero_theorem():
    with criterion(
        6, "constant density on gamma orthants: every mask cofactor is zero", 60.0
    ):
        for k1 in ("1", "2", "5/2"):
            for k2 in ("1", "3"):
                fam = parse_density_spec(
                    f"family: t\ndomain: orthant-gamma\nshapes: k1={k1} k2={k2}\n"
                    "density: 1\n"
                )
                for d in (1, 2, 3, 4):
                    system = zii_equations(fam, d, reduce=False)
                    assert all(e.is_trivial for e in system.entries), (k1, k2, d)


def test_criterion_07_scaling_invariance():
    with criterion(
        7, "scaling moments by 2 and 7/3 leaves stripped equations identical", 5.0
    ):
        for ctor in (product_exponential, sum_power_exp, bilinear_box, disk_quadratic):
            fam = ctor()
            for d in (1, 2):
                base = zii_equations(fam, d).texts()
                for c in (F(2), F(7, 3)):
                    assert zii_equations(fam.scaled(c), d).texts() == base


def test_criterion_08_quadrature_oracle():
    with criterion(
        8, "closed forms match quadrature to 1e-9; Kibble covariance = rho", 30.0
    ):
        base_specs = [
            "family: t\ndomain: orthant-gamma\nshapes: k1=1 k2=1\ndensity: 1\n",
            "family: t\ndomain: unit-box\ndensity: 1\n",
            "family: t\ndomain: unit-disk\ndensity: 1\n",
        ]
        for text in base_specs:
            fam = parse_density_spec(text)
            nd = numeric_density(fam, {})
            for p in range(9):
                for q in range(9 - p):
                    want = fam.moment(p, q).evaluate_float()
                    got = numeric_moment(nd, p, q)
                    scale = max(1.0, abs(want))
                    assert abs(got - want) / scale < 1e-9, (text, p, q)

        for tenth in range(1, 10):
            rho = tenth / 10.0
            nd = kibble_gamma(rho)
            m00 = numeric_moment(nd, 0, 0)
            cov = (
                numeric_moment(nd, 1, 1) / m00
                - (numeric_moment(nd, 1, 0) / m00)
                * (numeric_moment(nd, 0, 1) / m00)
            )
            assert abs(cov - rho) < 2e-6, rho


def test_criterion_09_parser_robustness():
    with criterion(
        9, "round trips on random coefficient maps; 10k-case fuzz, typed errors", 60.0
    ):
        from zii.dsl import render_spec

        rng = random.Random(20260816)
        names = ["p", "q", "r"]
        for _ in range(100):
            terms = []
            for _ in range(rng.randint(1, 6)):
                coeff = rng.choice(names)
                terms.append(f"{coeff}*x^{rng.randint(0, 4)}*y^{rng.randint(0, 4)}")
            text = (
                "family: t\ndomain: unit-box\ndensity: "
                + " + ".join(terms)
                + "\nparams: p:none, q:none, r:none\n"
            )
            fam = parse_density_spec(text)
            again = parse_density_spec(render_spec(fam))
            assert again.coeffs == fam.coeffs

        alphabet = "xy+-*/^()0123456789ab :\n."
        fuzz_rng = random.Random(99)
        header = "family: f\ndomain: unit-box\n"
        for _ in range(10_000):
            body = "".join(
                fuzz_rng.choice(alphabet) for _ in range(fuzz_rng.randint(0, 60))
            )
            text = header + "density: " + body + "\nparams: a:none, b:none\n"
            try:
                parse_density_spec(text)
            except DslError as err:
                assert "line" in str(err)  # every rejection is positioned


def test_criterion_10_cli_determinism():
    with criterion(
        10, "every golden CLI example byte-identical across reruns and threads", 60.0
    ):
        import test_cli

        for args, path, uses_out in test_cli.golden_commands():
            want = path.read_bytes()
            for threads in ("1", "4"):
                outputs = []
                for run in range(2):
                    if uses_out:
                        target = (
                            Path(os.environ.get("TMPDIR", "/tmp"))
                            / f"zii-acc-{threads}-{run}.json"
                        )
                        res = test_cli.run_cli(
                            [*args, "--out", str(target)], threads=threads
                        )
                        assert res.returncode == 0, res.stderr
                        outputs.append(target.read_bytes())
                        target.unlink()
                    else:
                        res = test_cli.run_cli(args, threads=threads)
                        assert res.returncode == 0, res.stderr
                        outputs.append(res.stdout.encode())
                assert outputs[0] == outputs[1], (args, threads)
                assert outputs[0] == want, (args, threads)
