"""Mask computation and equation extraction, pinned and brute-forced."""

from __future__ import annotations

from fractions import Fraction

import pytest

from zii.equations import (
    compute_mask,
    mask_predicate,
    reduce_by_determinant,
    zii_equations,
)
from zii.measures import (
    bilinear_box,
    disk_quadratic,
    product_exponential,
    sum_power_exp,
)
from zii.moments import build_basis, build_matrix

from oracle_defs import cofactor, det_bareiss, mask_bruteforce_oracle


class TestMask:
    def test_degree_one(self):
        assert compute_mask(1).pairs == ((1, 2),)

    def test_degree_two(self):
        assert compute_mask(2).pairs == ((1, 5), (2, 3), (3, 4), (3, 5), (4, 5))

    def test_degree_two_labels(self):
        labels = compute_mask(2).labels()
        assert labels == (
            ("x", "y^2"),
            ("y", "x^2"),
            ("x^2", "x*y"),
            ("x^2", "y^2"),
            ("x*y", "y^2"),
        )

    @pytest.mark.parametrize("d", range(1, 15))
    def test_matches_bruteforce_double_loop(self, d):
        assert set(compute_mask(d).pairs) == mask_bruteforce_oracle(d)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_strictly_upper_triangular(self, d):
        for r, c in compute_mask(d).pairs:
            assert r < c

    def test_predicate_examples(self):
        # max-degree of the product exceeds d in each coordinate sum
        assert mask_predicate((1, 0), (0, 2), 2)  # x vs y^2: 1 + 2 > 2
        assert not mask_predicate((1, 0), (0, 1), 2)  # x vs y: 1 + 1 = 2
        assert mask_predicate((1, 0), (0, 1), 1)  # x vs y at degree 1

    def test_diagonal_never_masked(self):
        for d in range(1, 8):
            basis = build_basis(d).exponents
            for e in basis:
                assert not mask_predicate(e, e, d)


class TestEquationExtraction:
    def test_product_exponential_all_trivial(self):
        for d in (1, 2):
            system = zii_equations(product_exponential(), d)
            assert system.nontrivial() == ()
            assert all(e.is_trivial for e in system.entries)

    def test_sum_power_exp_degree_one(self):
        system = zii_equations(sum_power_exp(), 1)
        (entry,) = system.nontrivial()
        assert entry.poly.to_text() == "ell"
        assert entry.pairs == ((1, 2),)

    def test_bilinear_degree_one(self):
        system = zii_equations(bilinear_box(), 1)
        (entry,) = system.nontrivial()
        assert entry.poly.to_text() == "a00*a11 - a01*a10"

    def test_disk_degree_one(self):
        system = zii_equations(disk_quadratic(), 1)
        (entry,) = system.nontrivial()
        assert entry.poly.to_text() == "b + c"

    def test_disk_degree_two_parity_pairs_vanish(self):
        # mask pairs joining odd-degree with even-degree monomials hit
        # structurally zero cofactors
        m = build_matrix(disk_quadratic(), 2)
        rows = m.rows()
        for r, c in ((1, 5), (2, 3)):
            assert cofactor(rows, c, r).is_zero

    def test_provenance_merging_keeps_all_pairs(self):
        # equal stripped equations coming from different positions merge
        system = zii_equations(disk_quadratic(), 2)
        all_pairs = [p for e in system.entries for p in e.pairs]
        assert sorted(all_pairs) == sorted(compute_mask(2).pairs)
        assert len(all_pairs) == len(set(all_pairs))

    def test_reduction_divides_out_determinant_gcd(self):
        fam = sum_power_exp()
        m = build_matrix(fam, 1)
        rows = m.rows()
        det = det_bareiss(rows)
        raw = cofactor(rows, 2, 1)  # adjugate entry for mask position (1, 2)
        reduced = reduce_by_determinant(raw, det)
        # raw = -ell*(ell+2)/12 shares the factor (ell+2) with the determinant
        assert reduced.total_degree() < raw.total_degree()
        quotient = raw.exact_divide(reduced)
        assert quotient * reduced == raw
        # the quotient is a unit times (ell+2): nonzero on the whole range
        for ell in range(0, 11):
            assert quotient.evaluate({"ell": ell}) != 0

    def test_reduced_times_gcd_equals_raw(self):
        # reduce=False keeps the raw adjugate numerators; dividing raw by the
        # reduced equation must be exact for every nontrivial position
        fam = disk_quadratic()
        raw_sys = zii_equations(fam, 2, reduce=False)
        red_sys = zii_equations(fam, 2, reduce=True)
        raw_by_pair = {p: e.poly for e in raw_sys.entries for p in e.pairs}
        red_by_pair = {p: e.poly for e in red_sys.entries for p in e.pairs}
        for pair, raw in raw_by_pair.items():
            red = red_by_pair[pair]
            if raw.is_zero:
                assert red.is_zero
                continue
            quotient = raw.exact_divide(red)
            assert (red * quotient) == raw

    def test_scaling_invariance_of_stripped_equations(self):
        for ctor in (product_exponential, sum_power_exp, bilinear_box, disk_quadratic):
            fam = ctor()
            for d in (1, 2):
                base = zii_equations(fam, d)
                for c in (Fraction(2), Fraction(7, 3)):
                    scaled = zii_equations(fam.scaled(c), d)
                    assert scaled.texts() == base.texts()

    def test_matrix_input_equals_family_input(self):
        fam = sum_power_exp()
        via_family = zii_equations(fam, 1)
        via_matrix = zii_equations(build_matrix(fam, 1))
        assert via_family.texts() == via_matrix.texts()
