"""Exact determinants and adjugate inverses, cross-checked against oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zii.errors import SingularMatrix, SymbolTableMismatch
from zii.inverse import (
    blocked_cofactors,
    connected_components,
    det_and_cofactors,
    determinant,
    invert_exact,
)
from zii.measures import BUILTIN_FAMILIES, product_exponential, sum_power_exp
from zii.moments import build_matrix
from zii.poly import Poly
from zii.symbols import SymbolTable

from oracle_defs import cofactor, det_bareiss, det_cofactor, det_oracle, minor_det

T = SymbolTable.build(["s", "t"])


def const_rows(values):
    return [[Poly.const(T, v) for v in row] for row in values]


def rational_matrix(draw_fraction, n):
    return [[draw_fraction() for _ in range(n)] for _ in range(n)]


frac = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4)


@st.composite
def square_matrices(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return [[draw(frac) for _ in range(n)] for _ in range(n)]


@st.composite
def poly_matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    small = st.integers(-4, 4)

    def entry():
        c0 = draw(small)
        cs = draw(small)
        ct = draw(small)
        return (
            Poly.const(T, c0)
            + Poly.const(T, cs) * Poly.symbol(T, "s")
            + Poly.const(T, ct) * Poly.symbol(T, "t")
        )

    return [[entry() for _ in range(n)] for _ in range(n)]


class TestDeterminants:
    @given(square_matrices())
    def test_bareiss_matches_laplace_oracle(self, m):
        rows = const_rows(m)
        assert det_bareiss(rows).constant_value() == det_oracle(m)

    @settings(max_examples=40, deadline=None)
    @given(poly_matrices(max_n=3))
    def test_bareiss_matches_cofactor_on_polynomials(self, rows):
        assert det_bareiss(rows) == det_cofactor(rows)

    @given(square_matrices(max_n=4))
    def test_block_determinant_matches_dense(self, m):
        rows = const_rows(m)
        assert determinant(rows) == det_bareiss(rows)

    def test_block_determinant_on_disconnected_pattern(self):
        # rows 0,2 talk only to each other; rows 1,3 likewise
        z = Fraction(0)
        m = [
            [Fraction(2), z, Fraction(1), z],
            [z, Fraction(3), z, Fraction(1)],
            [Fraction(1), z, Fraction(4), z],
            [z, Fraction(1), z, Fraction(5)],
        ]
        rows = const_rows(m)
        comps = connected_components(rows)
        assert comps == ((0, 2), (1, 3))
        assert determinant(rows).constant_value() == det_oracle(m) == 7 * 14

    def test_mixed_symbol_tables_rejected(self):
        other = SymbolTable.build(["u"])
        rows = [[Poly.const(T, 1), Poly.const(T, 2)], [Poly.const(other, 3), Poly.const(T, 4)]]
        with pytest.raises(SymbolTableMismatch):
            determinant(rows)

    def test_zero_dimension_edge(self):
        one = [[Poly.const(T, 5)]]
        assert det_bareiss(one).constant_value() == 5
        assert determinant(one).constant_value() == 5


class TestComponents:
    def test_dense_matrix_is_one_block(self):
        rows = const_rows([[1, 1], [1, 1]])
        assert connected_components(rows) == ((0, 1),)

    def test_diagonal_matrix_is_singletons(self):
        rows = const_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert connected_components(rows) == ((0,), (1,), (2,))

    def test_asymmetric_zero_still_links(self):
        # a one-sided nonzero entry must connect the pair
        rows = const_rows([[1, 1], [0, 1]])
        assert connected_components(rows) == ((0, 1),)

    def test_disk_degree_three_splits_by_parity(self):
        from zii.measures import disk_quadratic

        rows = build_matrix(disk_quadratic(), 3).rows()
        comps = connected_components(rows)
        assert comps == ((0, 3, 4, 5), (1, 2, 6, 7, 8, 9))


class TestCofactors:
    @given(square_matrices(max_n=4))
    def test_blocked_matches_dense(self, m):
        rows = const_rows(m)
        n = len(m)
        positions = [(r, c) for r in range(n) for c in range(n)]
        blocked = blocked_cofactors(rows, positions)
        dense = [cofactor(rows, r, c) for r, c in positions]
        assert blocked == dense

    def test_cross_block_cofactor_is_zero(self):
        z = Fraction(0)
        m = [
            [Fraction(2), z, Fraction(1), z],
            [z, Fraction(3), z, Fraction(1)],
            [Fraction(1), z, Fraction(4), z],
            [z, Fraction(1), z, Fraction(5)],
        ]
        rows = const_rows(m)
        got = blocked_cofactors(rows, [(0, 1), (1, 0), (2, 3)])
        assert all(p.is_zero for p in got)
        # and the dense computation agrees
        assert all(cofactor(rows, r, c).is_zero for r, c in [(0, 1), (1, 0), (2, 3)])

    def test_minor_strikes_row_and_column(self):
        rows = const_rows([[1, 2], [3, 4]])
        assert minor_det(rows, 0, 0).constant_value() == 4
        assert minor_det(rows, 0, 1).constant_value() == 3
        assert cofactor(rows, 0, 1).constant_value() == -3


class TestInverse:
    def test_frozen_degree_one(self):
        inv = invert_exact(build_matrix(product_exponential(), 1))
        assert inv.determinant.constant_value() == 1
        assert inv.rational_entries() == [
            [3, -1, -1],
            [-1, 1, 0],
            [-1, 0, 1],
        ]

    def test_frozen_degree_two(self):
        inv = invert_exact(build_matrix(product_exponential(), 2))
        assert inv.determinant.constant_value() == 16
        want = [
            [6, -4, -4, Fraction(1, 2), 1, Fraction(1, 2)],
            [-4, 6, 1, -1, -1, 0],
            [-4, 1, 6, 0, -1, -1],
            [Fraction(1, 2), -1, 0, Fraction(1, 4), 0, 0],
            [1, -1, -1, 0, 1, 0],
            [Fraction(1, 2), 0, -1, 0, 0, Fraction(1, 4)],
        ]
        assert inv.rational_entries() == want

    @settings(max_examples=30, deadline=None)
    @given(poly_matrices(max_n=3))
    def test_adjugate_identity(self, rows):
        # M * adj(M) == det(M) * I, including singular M
        n = len(rows)
        det = det_bareiss(rows)
        adj = [[cofactor(rows, c, r) for c in range(n)] for r in range(n)]
        for i in range(n):
            for j in range(n):
                acc = Poly.zero(T)
                for k in range(n):
                    acc = acc + rows[i][k] * adj[k][j]
                assert acc == (det if i == j else Poly.zero(T))

    def test_symbolic_inverse_times_matrix(self):
        fam = sum_power_exp()
        m = build_matrix(fam, 1)
        inv = invert_exact(m)
        rows = m.rows()
        n = len(rows)
        for ell in range(4):
            at = {"ell": ell}
            det = inv.determinant.evaluate(at)
            for i in range(n):
                for j in range(n):
                    acc = sum(
                        rows[i][k].evaluate(at) * inv.adjugate[k][j].evaluate(at)
                        for k in range(n)
                    )
                    assert acc == (det if i == j else 0)

    def test_singular_matrix_raises(self):
        rows = const_rows([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrix):
            invert_exact(rows)

    def test_self_check_passes_on_random_invertible(self):
        rng = random.Random(7)
        for _ in range(5):
            while True:
                m = [
                    [Fraction(rng.randint(-6, 6)) for _ in range(4)]
                    for _ in range(4)
                ]
                if det_oracle(m) != 0:
                    break
            inv = invert_exact(const_rows(m), self_check=True)
            assert inv.determinant.constant_value() == det_oracle(m)


def assert_matches_bareiss(rows, symmetric=False):
    """The engine's determinant and every cofactor equal the Bareiss oracle."""
    n = len(rows)
    positions = [(r, c) for r in range(n) for c in range(n)]
    det, cofactors = det_and_cofactors(rows, positions)
    assert det == det_bareiss(rows)
    got = dict(zip(positions, cofactors))
    for r, c in positions:
        if symmetric and r > c:
            # C(r, c) == C(c, r) on a symmetric matrix; the oracle checks one
            assert got[r, c] == got[c, r]
        else:
            assert got[r, c] == cofactor(rows, r, c), (r, c)


class TestEngineAgainstBareiss:
    @pytest.mark.parametrize("family", sorted(BUILTIN_FAMILIES))
    @pytest.mark.parametrize("degree", [1, 2])
    def test_every_family_low_degree(self, family, degree):
        assert_matches_bareiss(build_matrix(BUILTIN_FAMILIES[family](), degree).rows())

    @pytest.mark.parametrize("family", ["product-exponential", "sum-power-exp", "disk-quadratic"])
    def test_degree_three_per_block(self, family):
        # plain Bareiss on the interleaved disk matrix takes minutes, so the
        # oracle runs on each diagonal block; the assembly across blocks is
        # checked by TestCofactors
        rows = build_matrix(BUILTIN_FAMILIES[family](), 3).rows()
        for comp in connected_components(rows):
            block = [[rows[i][j] for j in comp] for i in comp]
            assert_matches_bareiss(block, symmetric=True)

    def test_singular_node_takes_the_minor_fallback(self):
        # det = s^2 - 1 vanishes at s = 1, the first interpolation node
        s = Poly.symbol(T, "s")
        one = Poly.const(T, 1)
        rows = [[s, one], [one, s]]
        assert determinant(rows).evaluate({"s": 1}) == 0
        assert_matches_bareiss(rows)

    def test_non_symmetric_inverse(self):
        s, t = Poly.symbol(T, "s"), Poly.symbol(T, "t")
        two = Poly.const(T, 2)
        rows = [[s, Poly.const(T, 1)], [two, t]]
        inv = invert_exact(rows)
        assert inv.determinant == s * t - two
        assert inv.adjugate == ((t, Poly.const(T, -1)), (-two, s))
        assert_matches_bareiss(rows)


@st.composite
def shared_power_matrices(draw, max_n=4):
    """Small integer polynomials in s and t, some sharing a monomial factor.

    With `homogeneous` every entry has the same total degree, which makes
    the engine drop one symbol and restore it afterwards.
    """
    n = draw(st.integers(1, max_n))
    homogeneous = draw(st.booleans())
    degree = draw(st.integers(0, 2))
    shared = Poly.symbol(T, "s") ** draw(st.integers(0, 2)) * Poly.symbol(T, "t") ** draw(
        st.integers(0, 1)
    )
    monomials = [(i, j) for i in range(3) for j in range(3 - i)]
    if homogeneous:
        monomials = [(i, j) for i, j in monomials if i + j == degree]

    def entry():
        terms = draw(st.lists(st.sampled_from(monomials), max_size=3, unique=True))
        p = Poly.zero(T)
        for i, j in terms:
            coeff = draw(st.integers(-3, 3))
            p = p + Poly.const(T, coeff) * Poly.symbol(T, "s") ** i * Poly.symbol(T, "t") ** j
        return p * shared if draw(st.booleans()) else p

    return [[entry() for _ in range(n)] for _ in range(n)]


class TestAdjugateProperty:
    @settings(max_examples=60, deadline=None)
    @given(shared_power_matrices())
    def test_matrix_times_adjugate_is_determinant(self, rows):
        n = len(rows)
        positions = [(c, r) for r in range(n) for c in range(n)]
        det, values = det_and_cofactors(rows, positions)
        adj = [values[r * n:(r + 1) * n] for r in range(n)]
        for i in range(n):
            for j in range(n):
                acc = Poly.zero(T)
                for k in range(n):
                    acc = acc + rows[i][k] * adj[k][j]
                assert acc == (det if i == j else Poly.zero(T))
