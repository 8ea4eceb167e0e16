"""Exact determinants and adjugate inverses, cross-checked against oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zii.dsl import parse_density_spec
from zii.errors import SingularMatrix, SymbolTableMismatch
from zii import inverse
from zii.inverse import (
    ExactInverse,
    _verify_adjugate,
    block_cofactors,
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

from oracle_defs import (
    cofactor,
    det_adj_gauss_jordan,
    det_bareiss,
    det_cofactor,
    det_oracle,
    minor_det,
)

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
            inv = invert_exact(const_rows(m))
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

    def test_block_cofactors_are_the_blocks_own(self):
        # disk d=2 splits into {0, 3, 4, 5} and {1, 2}: each block determinant
        # and in-block cofactor is that of the block alone, cross pairs are None
        rows = build_matrix(BUILTIN_FAMILIES["disk-quadratic"](), 2).rows()
        comps = connected_components(rows)
        n = len(rows)
        positions = [(r, c) for r in range(n) for c in range(n)]
        blocks = block_cofactors(rows, positions)
        subs = [[[rows[i][j] for j in comp] for i in comp] for comp in comps]
        assert blocks.determinants == tuple(det_bareiss(sub) for sub in subs)
        for (r, c), item in zip(positions, blocks.cofactors):
            (b,) = [k for k, comp in enumerate(comps) if r in comp]
            if c not in comps[b]:
                assert item is None
            else:
                assert item == (b, cofactor(subs[b], comps[b].index(r), comps[b].index(c)))

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


@st.composite
def graded_matrices(draw, max_n=4):
    """Integer polynomials in s and t whose (i, j) entry has degree at most about (d_i + d_j)/2.

    The degrees d_i are drawn first; an entry sometimes exceeds its cap by
    one, or is zero, so the row and column bounds vary around the
    determinant's degree.
    """
    n = draw(st.integers(1, max_n))
    diag = [draw(st.integers(0, 3)) for _ in range(n)]
    s, t = Poly.symbol(T, "s"), Poly.symbol(T, "t")

    def entry(cap):
        monomials = [(i, j) for i in range(cap + 1) for j in range(cap + 1 - i)]
        p = Poly.zero(T)
        for i, j in draw(st.lists(st.sampled_from(monomials), max_size=3, unique=True)):
            p = p + draw(st.integers(-3, 3)) * s**i * t**j
        return p

    return [
        [entry((diag[i] + diag[j]) // 2 + draw(st.sampled_from([0, 0, 0, 1]))) for j in range(n)]
        for i in range(n)
    ]


class TestDegreeBound:
    """Interpolation on the smaller of the row and column degree bounds."""

    def _simplex_calls(self, monkeypatch):
        calls = []
        simplex = inverse._simplex

        def recorded(k, bound):
            calls.append((k, bound))
            return simplex(k, bound)

        monkeypatch.setattr(inverse, "_simplex", recorded)
        return calls

    def test_row_bound_is_reached(self):
        # the row and column bounds are 4, the degree of the determinant
        s, one = Poly.symbol(T, "s"), Poly.const(T, 1)
        rows = [[one, s**2], [s**2, one]]
        assert determinant(rows) == one - s**4
        assert_matches_bareiss(rows)

    def test_zero_diagonal_entry(self):
        # the determinant reaches the row and column bounds, 4
        s, t, one = Poly.symbol(T, "s"), Poly.symbol(T, "t"), Poly.const(T, 1)
        zero = Poly.zero(T)
        rows = [[zero, s, one], [s, zero, t], [one, t, s * t]]
        assert determinant(rows).total_degree() == 4
        assert_matches_bareiss(rows)

    def test_column_bound_below_the_row_bound(self, monkeypatch):
        # row bound 3 + 3 = 6, column bound 3 + 1 = 4; det = s^4 - t^3
        calls = self._simplex_calls(monkeypatch)
        s, t, one = Poly.symbol(T, "s"), Poly.symbol(T, "t"), Poly.const(T, 1)
        rows = [[s**3, one], [t**3, s]]
        assert determinant(rows) == s**4 - t**3
        assert calls[0] == (2, 4)
        assert_matches_bareiss(rows)

    def test_sum_power_exp_degree_three_uses_the_divided_column_bound(self, monkeypatch):
        calls = self._simplex_calls(monkeypatch)
        rows = build_matrix(sum_power_exp(), 3).rows()
        block_cofactors(rows)
        # one symbol; the block divided by its row contents has a column
        # bound of 20 and a row bound of 30
        assert [c for c in calls if c[0]] == [(1, 20)]

    @settings(max_examples=60, deadline=None)
    @given(graded_matrices())
    def test_graded_matrices_equal_bareiss(self, rows):
        assert_matches_bareiss(rows)


class TestIntegerSelfCheck:
    """_verify_adjugate: M(v) adj(v) == det(v) I on integer rescalings."""

    def setup_method(self):
        s, t = Poly.symbol(T, "s"), Poly.symbol(T, "t")
        self.rows = [[s, Poly.const(T, Fraction(1, 3))], [Poly.const(T, 2), t]]
        self.inverse = invert_exact(self.rows)
        self.point = {"s": Fraction(3, 2), "t": Fraction(5, 2)}

    def test_passes_with_a_fractional_determinant(self):
        assert self.inverse.determinant.evaluate(self.point) == Fraction(37, 12)
        _verify_adjugate(self.rows, self.inverse, self.point)

    @pytest.mark.parametrize("r,c", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_corrupted_adjugate_entry_raises(self, r, c):
        adj = [list(row) for row in self.inverse.adjugate]
        adj[r][c] = adj[r][c] + Fraction(1, 7)
        corrupted = ExactInverse(tuple(map(tuple, adj)), self.inverse.determinant)
        with pytest.raises(AssertionError):
            _verify_adjugate(self.rows, corrupted, self.point)

    def test_corrupted_determinant_raises(self):
        corrupted = ExactInverse(self.inverse.adjugate, self.inverse.determinant * 2)
        with pytest.raises(AssertionError):
            _verify_adjugate(self.rows, corrupted, self.point)

    def test_integer_determinant_with_fractional_entries(self):
        rows = const_rows([[Fraction(1, 2), 1], [Fraction(-1, 2), 1]])
        inv = invert_exact(rows)
        assert inv.determinant.constant_value() == 1
        _verify_adjugate(rows, inv, {})

    def test_each_distinct_entry_is_evaluated_once(self, monkeypatch):
        # entries s, s + t, t and adjugate t, -(s + t), s: four distinct, plus det
        s, t = Poly.symbol(T, "s"), Poly.symbol(T, "t")
        shared = s + t
        rows = [[s, shared], [shared, t]]
        inv = invert_exact(rows)
        evaluated = []
        real = Poly.evaluate
        monkeypatch.setattr(Poly, "evaluate", lambda p, at: evaluated.append(p) or real(p, at))
        _verify_adjugate(rows, inv, self.point)
        assert len(evaluated) == 5


def wide_box_matrix():
    """M_1 of a unit-box density with 16 parameters: 17 symbols with PI."""
    terms = " + ".join(f"p{i}*x^{i // 4}*y^{i % 4}" for i in range(16))
    params = ", ".join(f"p{i}:none" for i in range(16))
    spec = f"family: wide\ndomain: unit-box\ndensity: {terms}\nparams: {params}\n"
    matrix = build_matrix(parse_density_spec(spec), 1)
    assert len(matrix.rows()[0][0].table) == 17
    return matrix


class TestSelfCheckOnWideTables:
    """invert_exact runs the adjugate self-check however many symbols there are."""

    def test_check_runs(self, monkeypatch):
        calls = []
        real = inverse._verify_adjugate
        monkeypatch.setattr(
            inverse, "_verify_adjugate", lambda *args: calls.append(args) or real(*args)
        )
        invert_exact(wide_box_matrix())
        assert len(calls) == 1

    def test_corrupted_adjugate_raises(self, monkeypatch):
        real = inverse.det_and_cofactors

        def corrupted(rows, positions):
            det, cofactors = real(rows, positions)
            return det, [cofactors[0] + 1, *cofactors[1:]]

        monkeypatch.setattr(inverse, "det_and_cofactors", corrupted)
        with pytest.raises(AssertionError):
            invert_exact(wide_box_matrix())


@st.composite
def integer_matrices(draw, max_n=8):
    """Integer matrices of order 1 to 8, with a subset of their columns.

    Small entries and an optional repeated or scaled row make singular
    matrices common.
    """
    n = draw(st.integers(1, max_n))
    a = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[dst] = [draw(st.integers(-2, 2)) * x for x in a[src]]
    columns = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return a, columns


class TestKernel:
    """_det_adj: forward elimination on [A | e_j] and back substitution, per node."""

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_matches_gauss_jordan(self, case):
        a, columns = case
        det, adj = det_adj_gauss_jordan(a)
        got_det, got = inverse._det_adj([list(row) for row in a], columns)
        assert got_det == det
        if adj is None:
            assert got is None
        else:
            assert got == [[row[j] for row in adj] for j in columns]

    def test_no_columns_gives_the_determinant(self):
        a = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
        assert inverse._det_adj(a) == (det_adj_gauss_jordan(a)[0], [])
        assert inverse._det_adj([]) == (1, [])

    def _kernel_columns(self, monkeypatch):
        calls = []
        kernel = inverse._det_adj

        def spy(a, columns=()):
            if columns:
                calls.append(tuple(columns))
            return kernel(a, columns)

        monkeypatch.setattr(inverse, "_det_adj", spy)
        return calls

    def test_symmetric_block_is_read_transposed(self, monkeypatch):
        # C(r, 0) = adj(0, r): the wanted pairs touch one row and three
        # columns, so on a symmetric block each node solves for column 0 only
        calls = self._kernel_columns(monkeypatch)
        s, t, one = Poly.symbol(T, "s"), Poly.symbol(T, "t"), Poly.const(T, 1)
        rows = [[s + one, t, one], [t, s * t, s], [one, s, t + one + one]]
        positions = [(r, 0) for r in range(3)]
        blocks = block_cofactors(rows, positions)
        assert calls and set(calls) == {(0,)}
        assert [c for _, c in blocks.cofactors] == [cofactor(rows, r, c) for r, c in positions]

    def test_non_symmetric_block_is_not_transposed(self, monkeypatch):
        calls = self._kernel_columns(monkeypatch)
        s, t, one = Poly.symbol(T, "s"), Poly.symbol(T, "t"), Poly.const(T, 1)
        rows = [[s + one, t, one], [one, s * t, s], [one, s, t + one + one]]
        positions = [(r, 0) for r in range(3)]
        blocks = block_cofactors(rows, positions)
        assert calls and set(calls) == {(0, 1, 2)}
        assert [c for _, c in blocks.cofactors] == [cofactor(rows, r, c) for r, c in positions]


class TestRowContent:
    """One-symbol blocks are divided by their row contents and multiplied back."""

    def _contents(self, monkeypatch):
        seen = []
        divide = inverse._divide_row_content

        def spy(terms, slots):
            out = divide(terms, slots)
            seen.append(out[2])
            return out

        monkeypatch.setattr(inverse, "_divide_row_content", spy)
        return seen

    def test_content_vanishing_at_the_first_node(self, monkeypatch):
        # row 0 times (s - 1), which is 0 at s = 1, the first node
        seen = self._contents(monkeypatch)
        s, one = Poly.symbol(T, "s"), Poly.const(T, 1)
        base = [[s + one + one, one, s], [one, s**2 + one, one + one], [s, one + one, s + one]]
        rows = [[p * (s - one) for p in base[0]], base[1], base[2]]
        assert_matches_bareiss(rows)
        assert seen == [[[-1, 1], [1], [1]]]

    def test_zero_row(self, monkeypatch):
        s, one, zero = Poly.symbol(T, "s"), Poly.const(T, 1), Poly.zero(T)
        rows = [[s * (s + one), s, s**2], [zero, zero, zero], [s + one, s**2, one]]
        assert determinant(rows).is_zero
        seen = self._contents(monkeypatch)
        assert_matches_bareiss(rows)
        assert seen == [[[0, 1], [1], [1]]]

    def test_non_symmetric_block(self, monkeypatch):
        seen = self._contents(monkeypatch)
        s, one = Poly.symbol(T, "s"), Poly.const(T, 1)
        g = s**2 + one
        rows = [[g * s, g * (one + one), g], [s, s**2, one], [one + one, s, g * (s + one)]]
        assert_matches_bareiss(rows)
        assert seen == [[[1, 0, 1], [1], [1]]]

    def test_homogeneous_block_left_with_one_symbol(self, monkeypatch):
        # degree 2 in s and t: s is set to 1 and t kept, where row 0 has
        # the content 1 + t and row 1 the content t
        seen = self._contents(monkeypatch)
        s, t = Poly.symbol(T, "s"), Poly.symbol(T, "t")
        rows = [
            [(s + t) * s, (s + t) * t, (s + t) * (s + t + t)],
            [t * s, t * t, t * (s + s + t)],
            [s * s + t * t, s * t, s * s],
        ]
        assert_matches_bareiss(rows)
        assert seen == [[[1, 1], [0, 1], [1]]]

    def test_multivariate_block_takes_no_content(self, monkeypatch):
        calls = []
        gcd = inverse.primitive_gcd

        def spy(a, b):
            calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(inverse, "primitive_gcd", spy)
        s, t, one = Poly.symbol(T, "s"), Poly.symbol(T, "t"), Poly.const(T, 1)
        rows = [[(s + t) * s, (s + t) * one], [t, s * t + one]]
        assert_matches_bareiss(rows)
        assert calls == []

