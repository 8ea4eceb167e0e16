"""Moment-matrix construction: basis order, symmetry, and frozen entries."""

from __future__ import annotations

from fractions import Fraction

import pytest

from zii.errors import DegreeOutOfRange
from zii.measures import (
    bilinear_box,
    disk_quadratic,
    product_exponential,
    sum_power_exp,
)
from zii.moments import MAX_DEGREE, build_basis, build_matrix, monomial_label

from oracle_defs import orthant_gamma_moment_oracle


class TestBasis:
    def test_ordering_degree_then_x_power_descending(self):
        assert build_basis(3).exponents == (
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
            (3, 0),
            (2, 1),
            (1, 2),
            (0, 3),
        )

    @pytest.mark.parametrize("d", range(7))
    def test_size_is_triangular(self, d):
        assert len(build_basis(d).exponents) == (d + 1) * (d + 2) // 2

    def test_labels(self):
        assert monomial_label((0, 0)) == "1"
        assert monomial_label((1, 0)) == "x"
        assert monomial_label((0, 1)) == "y"
        assert monomial_label((2, 1)) == "x^2*y"
        assert monomial_label((1, 3)) == "x*y^3"

    def test_degree_bounds(self):
        with pytest.raises(DegreeOutOfRange):
            build_basis(-1)
        with pytest.raises(DegreeOutOfRange):
            build_basis(MAX_DEGREE + 1)


class TestMatrixStructure:
    @pytest.mark.parametrize("ctor", [product_exponential, sum_power_exp, bilinear_box])
    def test_symmetry(self, ctor):
        m = build_matrix(ctor(), 2)
        rows = m.rows()
        n = len(rows)
        for i in range(n):
            for j in range(n):
                assert rows[i][j] == rows[j][i]

    def test_entry_is_moment_of_monomial_product(self):
        fam = product_exponential()
        m = build_matrix(fam, 2)
        basis = m.basis.exponents
        for i, (p1, q1) in enumerate(basis):
            for j, (p2, q2) in enumerate(basis):
                assert m.entry(i, j) == fam.moment(p1 + p2, q1 + q2)


class TestFrozenMatrices:
    def test_degree_one_exponential(self):
        rows = build_matrix(product_exponential(), 1).rows()
        want = [[1, 1, 1], [1, 2, 1], [1, 1, 2]]
        got = [[e.constant_value() for e in row] for row in rows]
        assert got == want

    def test_degree_two_exponential(self):
        rows = build_matrix(product_exponential(), 2).rows()
        got = [[e.constant_value() for e in row] for row in rows]
        # moments E[x^(p1+p2) y^(q1+q2)] = (p1+p2)! (q1+q2)! over the basis
        want = [
            [1, 1, 1, 2, 1, 2],
            [1, 2, 1, 6, 2, 2],
            [1, 1, 2, 2, 2, 6],
            [2, 6, 2, 24, 6, 4],
            [1, 2, 2, 6, 4, 6],
            [2, 2, 6, 4, 6, 24],
        ]
        assert got == want

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_orthant_gamma_entries_vs_oracle(self, d):
        fam = product_exponential()
        m = build_matrix(fam, d)
        basis = m.basis.exponents
        for i, (p1, q1) in enumerate(basis):
            for j, (p2, q2) in enumerate(basis):
                want = orthant_gamma_moment_oracle(
                    p1 + p2, q1 + q2, Fraction(1), Fraction(1)
                )
                assert m.entry(i, j).constant_value() == want

    def test_sum_power_exp_determinant_closed_form(self):
        # det M_1 for the power-sum family reduces to (ell+2)^2 (ell+3) / 12
        from oracle_defs import det_bareiss

        fam = sum_power_exp()
        rows = build_matrix(fam, 1).rows()
        det = det_bareiss(rows)
        for ell in range(8):
            want = Fraction((ell + 2) ** 2 * (ell + 3), 12)
            assert det.evaluate({"ell": ell}) == want

    def test_disk_entries_carry_pi(self):
        rows = build_matrix(disk_quadratic(), 1).rows()
        at = {"a": 1, "b": 0, "c": 0, "d": 1, "v": 1}
        # mass entry: pi*(v + (a+d)/4) -> 3/2 * pi
        p = rows[0][0]
        val = p.evaluate({**at, "PI": Fraction(2)})
        assert val == 3  # linear in PI with coefficient 3/2
