"""Base measures and density families checked against independent oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zii.errors import ConstraintViolation
from zii.measures import (
    BUILTIN_FAMILIES,
    OrthantGamma,
    UnitBox,
    UnitDisk,
    base_monomial_moment,
    bilinear_box,
    disk_quadratic,
    product_exponential,
    sum_power_exp,
)
from zii.symbols import PI_NAME, SymbolTable

from oracle_defs import (
    disk_moment_oracle_pi_coefficient,
    orthant_gamma_moment_oracle,
    spe_unnormalized_moment_oracle,
    unit_box_moment_oracle,
)

EMPTY = SymbolTable.build([])


class TestBaseMoments:
    @pytest.mark.parametrize("k1", [Fraction(1), Fraction(2), Fraction(5, 2)])
    @pytest.mark.parametrize("k2", [Fraction(1), Fraction(3)])
    def test_orthant_gamma_vs_oracle(self, k1, k2):
        base = OrthantGamma(k1, k2)
        for i in range(6):
            for j in range(6):
                got = base_monomial_moment(base, i, j, EMPTY).constant_value()
                assert got == orthant_gamma_moment_oracle(i, j, k1, k2)

    def test_symbolic_shapes_vs_oracle(self):
        # a symbolic shape gives each moment as a polynomial in s and t,
        # which must agree with the oracle wherever the shapes are evaluated
        table = SymbolTable.build(["s", "t"])
        base = OrthantGamma("s", "t")
        shapes = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(7, 2)]
        for i in range(6):
            for j in range(6 - i):
                got = base_monomial_moment(base, i, j, table)
                assert got.degree_in("s") == i and got.degree_in("t") == j
                for k1 in shapes:
                    for k2 in shapes:
                        want = orthant_gamma_moment_oracle(i, j, k1, k2)
                        assert got.evaluate({"s": k1, "t": k2}) == want, (i, j, k1, k2)

    def test_unit_box_vs_oracle(self):
        base = UnitBox()
        for i in range(7):
            for j in range(7):
                got = base_monomial_moment(base, i, j, EMPTY).constant_value()
                assert got == unit_box_moment_oracle(i, j)

    def test_unit_disk_vs_oracle(self):
        base = UnitDisk()
        pi_idx = None
        for i in range(7):
            for j in range(7):
                p = base_monomial_moment(base, i, j, SymbolTable.build([]))
                want = disk_moment_oracle_pi_coefficient(i, j)
                if want == 0:
                    assert p.is_zero
                else:
                    # exactly one term: coeff * PI
                    ((exps, coeff),) = p.terms.items()
                    assert coeff == want and sum(exps) == 1


class TestFamilies:
    def test_registry(self):
        assert set(BUILTIN_FAMILIES) == {
            "product-exponential",
            "sum-power-exp",
            "bilinear-box",
            "disk-quadratic",
        }

    def test_product_exponential_moments(self):
        fam = product_exponential()
        for p in range(5):
            for q in range(5):
                got = fam.moment(p, q).constant_value()
                assert got == orthant_gamma_moment_oracle(p, q, Fraction(1), Fraction(1))

    @pytest.mark.parametrize("ell", range(6))
    def test_sum_power_exp_vs_oracle(self, ell):
        fam = sum_power_exp()
        mass = spe_unnormalized_moment_oracle(0, 0, ell)
        assert mass == math.factorial(ell + 1)
        for p in range(4):
            for q in range(4):
                got = fam.moment(p, q).evaluate({"ell": ell})
                assert got == Fraction(spe_unnormalized_moment_oracle(p, q, ell), mass)

    def test_sum_power_exp_symmetric_in_pq(self):
        # the density x^i y^(ell-i) summed over i is symmetric under swapping x,y
        fam = sum_power_exp()
        for p in range(4):
            for q in range(4):
                assert fam.moment(p, q) == fam.moment(q, p)

    def test_bilinear_box_moments(self):
        fam = bilinear_box()
        for p in range(4):
            for q in range(4):
                poly = fam.moment(p, q)
                for at in (
                    {"a00": 1, "a01": 0, "a10": 0, "a11": 0},
                    {"a00": 1, "a01": 2, "a10": 3, "a11": 6},
                    {"a00": 2, "a01": -1, "a10": 5, "a11": Fraction(1, 3)},
                ):
                    want = sum(
                        at[f"a{i}{j}"] * unit_box_moment_oracle(p + i, q + j)
                        for i in (0, 1)
                        for j in (0, 1)
                    )
                    assert poly.evaluate(at) == want

    def test_disk_quadratic_moments(self):
        fam = disk_quadratic()
        coeff_at = {(0, 0): "v", (2, 0): "a", (0, 2): "d"}
        at = {"a": 2, "b": 1, "c": 3, "d": Fraction(5, 2), "v": 1}
        pi = Fraction(355, 113)  # stand-in value; moments are linear in PI
        for p in range(4):
            for q in range(4):
                want = sum(
                    at[name] * disk_moment_oracle_pi_coefficient(p + i, q + j) * pi
                    for (i, j), name in coeff_at.items()
                ) + (at["b"] + at["c"]) * disk_moment_oracle_pi_coefficient(
                    p + 1, q + 1
                ) * pi
                got = fam.moment(p, q).evaluate({**at, PI_NAME: pi})
                assert got == want

    def test_scaling_multiplies_every_moment(self):
        from zii.poly import Poly

        for name, ctor in BUILTIN_FAMILIES.items():
            fam = ctor()
            scaled = fam.scaled(Fraction(7, 3))
            factor = Poly.const(fam.table, Fraction(7, 3))
            for p in range(3):
                for q in range(3):
                    assert scaled.moment(p, q) == fam.moment(p, q) * factor


class TestCheckPoint:
    def test_happy_path_normalizes(self):
        fam = sum_power_exp()
        out = fam.check_point({"ell": 3})
        assert out == {"ell": Fraction(3)}

    def test_missing_parameter(self):
        with pytest.raises(ConstraintViolation, match="no value given"):
            sum_power_exp().check_point({})

    def test_unknown_parameter(self):
        with pytest.raises(ConstraintViolation, match="unknown parameters"):
            sum_power_exp().check_point({"ell": 1, "rho": 2})

    def test_nonneg_int_rejects_fraction_and_negative(self):
        fam = sum_power_exp()
        with pytest.raises(ConstraintViolation, match="not a nonnegative integer"):
            fam.check_point({"ell": Fraction(1, 2)})
        with pytest.raises(ConstraintViolation, match="not a nonnegative integer"):
            fam.check_point({"ell": -1})

    def test_declared_bounds_enforced(self):
        with pytest.raises(ConstraintViolation, match="above upper bound"):
            sum_power_exp().check_point({"ell": 11})

    def test_positivity_enforced(self):
        fam = disk_quadratic()
        base = {"a": 1, "b": 0, "c": 0, "d": 1, "v": 1}
        assert fam.check_point(base)["v"] == 1
        with pytest.raises(ConstraintViolation, match="violates positivity"):
            fam.check_point({**base, "v": 0})

    def test_equality_constraint_enforced(self):
        fam = disk_quadratic()
        ok = {"a": 2, "b": 1, "c": 1, "d": 1, "v": 1}  # 2*1 - 1*1 - 1 = 0
        assert fam.check_point(ok)["a"] == 2
        with pytest.raises(ConstraintViolation, match="constraint"):
            fam.check_point({"a": 1, "b": 1, "c": 1, "d": 1, "v": 1})


class TestMass:
    def test_product_exponential_and_spe_are_normalized(self):
        assert product_exponential().normalization_mass().constant_value() == 1
        assert sum_power_exp().normalization_mass().constant_value() == 1

    def test_disk_mass_matches_oracle(self):
        fam = disk_quadratic()
        got = fam.normalization_mass()
        pi = Fraction(355, 113)
        want = (
            disk_moment_oracle_pi_coefficient(0, 0)
            + Fraction(1, 4) * disk_moment_oracle_pi_coefficient(2, 0) * 0
        )
        # mass = v*pi + (a+d)*pi/4 at any point
        at = {"a": 3, "b": 0, "c": 0, "d": 5, "v": 2, PI_NAME: pi}
        assert got.evaluate(at) == pi * 2 + pi * Fraction(3 + 5, 4)
        assert want == 1  # oracle sanity: area coefficient of the unit disk

    @given(
        st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9), max_denominator=10)
    )
    def test_bilinear_mass_is_average_of_coefficients(self, s):
        fam = bilinear_box()
        at = {"a00": s, "a01": 1, "a10": 2, "a11": 3}
        mass = fam.normalization_mass().evaluate(at)
        assert mass == s + 1 * Fraction(1, 2) + 2 * Fraction(1, 2) + 3 * Fraction(1, 4)

