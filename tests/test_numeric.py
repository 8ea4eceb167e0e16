"""Floating-point quadrature oracle vs. the exact closed forms."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
import scipy.special

from test_cli import run_cli
from zii.measures import (
    BUILTIN_FAMILIES,
    bilinear_box,
    disk_quadratic,
    product_exponential,
    sum_power_exp,
)
from zii.numeric import (
    kibble_gamma,
    numeric_density,
    numeric_moment,
    numeric_zii_residuals,
)

from oracle_defs import bessel_i0, exact_moment_float, kibble_gamma_relative_oracle

F = Fraction


class TestBessel:
    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0, 2.5, 7.0, 15.0])
    def test_matches_scipy(self, z):
        assert bessel_i0(z) == pytest.approx(scipy.special.i0(z), rel=1e-13)

    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    @pytest.mark.parametrize(
        "rho,sigma1,sigma2",
        [(0.0, 1.0, 1.0), (0.0, 2.0, 0.5), (0.3, 1.0, 1.0), (0.7, 1.5, 0.8), (0.9, 1.0, 1.0)],
    )
    def test_log_space_evaluator_matches_the_series(self, rho, sigma1, sigma2):
        # the library recombines scipy's scaled i0e in log space; the oracle
        # sums the I0 series in the closed form directly
        points = [(0.0, 0.0), (0.5, 2.0), (3.0, 7.0), (10.0, 12.0), (25.0, 4.0)]
        relative = kibble_gamma(rho, sigma1, sigma2).relative
        for x, y in points:
            want = kibble_gamma_relative_oracle(rho, x, y, sigma1, sigma2)
            assert float(relative(x, y)) == pytest.approx(want, rel=1e-12)


class TestQuadratureVsExact:
    @pytest.mark.parametrize(
        "ctor,point",
        [
            (product_exponential, {}),
            (sum_power_exp, {"ell": 2}),
            (bilinear_box, {"a00": 1, "a01": F(1, 2), "a10": F(1, 3), "a11": F(1, 4)}),
            (disk_quadratic, {"a": 2, "b": 1, "c": 1, "d": 1, "v": 1}),
        ],
    )
    def test_low_order_moments(self, ctor, point):
        fam = ctor()
        nd = numeric_density(fam, point)
        for p in range(4):
            for q in range(4):
                want = exact_moment_float(fam, point, p, q)
                got = numeric_moment(nd, p, q)
                scale = max(1.0, abs(want))
                assert abs(got - want) / scale < 1e-9

    def test_high_order_moments_base_measures(self):
        # constant density on each base region, total degree up to 8
        cases = [
            (product_exponential, {}),
            (bilinear_box, {"a00": 1, "a01": 0, "a10": 0, "a11": 0}),
            (disk_quadratic, {"a": 1, "b": 0, "c": 0, "d": 1, "v": 1}),
        ]
        for ctor, point in cases:
            fam = ctor()
            nd = numeric_density(fam, point)
            for p in range(9):
                for q in range(9 - p):
                    want = exact_moment_float(fam, point, p, q)
                    got = numeric_moment(nd, p, q)
                    scale = max(1.0, abs(want))
                    assert abs(got - want) / scale < 1e-9


class TestKibbleGamma:
    def test_total_mass(self):
        nd = kibble_gamma(0.5)
        assert numeric_moment(nd, 0, 0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_covariance_equals_rho(self, rho):
        nd = kibble_gamma(rho)
        m00 = numeric_moment(nd, 0, 0)
        m10 = numeric_moment(nd, 1, 0) / m00
        m01 = numeric_moment(nd, 0, 1) / m00
        m11 = numeric_moment(nd, 1, 1) / m00
        assert m11 - m10 * m01 == pytest.approx(rho, abs=2e-6)

    def test_rho_zero_is_independent(self):
        nd = kibble_gamma(0.0)
        res = numeric_zii_residuals(nd, 1)
        assert res.max_abs < 1e-8

    def test_positive_rho_breaks_mask_zeros(self):
        nd = kibble_gamma(0.6)
        res = numeric_zii_residuals(nd, 1)
        assert res.max_abs > 1e-3


class TestNumericResiduals:
    def test_product_family_mask_entries_vanish(self):
        nd = numeric_density(product_exponential(), {})
        res = numeric_zii_residuals(nd, 2)
        assert res.degree == 2
        assert res.max_abs < 1e-10
        assert res.condition < 1e6

    def test_exact_inverse_entry_matches_float(self):
        from zii.inverse import invert_exact
        from zii.moments import build_matrix

        fam = sum_power_exp()
        m = build_matrix(fam, 1)
        inv = invert_exact(m)
        at = {"ell": 1}
        num, den = inv.entry(1, 2)
        want = num.evaluate(at) / den.evaluate(at)
        nd = numeric_density(fam, at)
        res = numeric_zii_residuals(nd, 1)
        assert res.residual(1, 2) == pytest.approx(float(want), rel=1e-8)
        assert want == F(1, 12)


class TestCheckAgainstFloatInverse:
    """`zii check --degree` reads the mask entries exactly; the float inverse agrees."""

    @pytest.mark.parametrize(
        "family,at,degree,unit",
        [
            ("sum-power-exp", "ell=1", 1, 1.0),
            ("sum-power-exp", "ell=1", 2, 1.0),
            ("bilinear-box", "a00=1,a01=1/4,a10=1/4,a11=0", 2, 1.0),
            ("disk-quadratic", "a=1,b=0,c=0,d=1,v=1", 2, math.pi),
        ],
    )
    def test_mask_entries_match(self, family, at, degree, unit, tmp_path):
        out = tmp_path / "check.json"
        res = run_cli(["check", "--family", family, "--at", at, "--degree", str(degree),
                       "--max-pq", "0", "--out", str(out)])
        assert res.returncode == 0, res.stderr
        exact = json.loads(out.read_text())["results"]["inverse_mask"]
        assert exact["unit"] == ("1/PI" if unit != 1.0 else "1")
        point = {k: F(v) for k, v in (kv.split("=") for kv in at.split(","))}
        numeric = numeric_zii_residuals(numeric_density(BUILTIN_FAMILIES[family](), point), degree)
        got = {(e["row"] - 1, e["col"] - 1): float(F(e["value"])) / unit for e in exact["entries"]}
        assert list(got) == [pair for pair, _ in numeric.entries]
        for pair, value in numeric.entries:
            assert got[pair] == pytest.approx(value, abs=1e-9), pair
        assert float(F(exact["max_abs"])) / unit == pytest.approx(numeric.max_abs, abs=1e-9)
