"""Mask computation and equation extraction, pinned and brute-forced."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zii import equations, inverse
from zii.equations import (
    compute_mask,
    mask_predicate,
    reduce_by_determinant,
    zii_equations,
)
from zii.dsl import parse_density_spec
from zii.errors import SingularMatrix
from zii.inverse import block_cofactors, det_and_cofactors
from zii.measures import (
    BUILTIN_FAMILIES,
    DensityFamily,
    UnitBox,
    UnitDisk,
    bilinear_box,
    coefficient_coordinates,
    disk_quadratic,
    product_exponential,
    sum_power_exp,
)
from zii.moments import MomentMatrix, build_basis, build_matrix
from zii.poly import Poly
from zii.symbols import SymbolTable

from oracle_defs import (
    cofactor,
    det_bareiss,
    equations_full_det_oracle,
    mask_bruteforce_oracle,
    raw_equations_oracle,
    sympy_reduce_oracle,
)


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

    def test_one_system_keeps_one_copy_of_each_exponent_vector_and_coefficient(self):
        first = zii_equations(disk_quadratic(), 2)
        second = zii_equations(disk_quadratic(), 2)
        assert first == second
        stored = [
            [obj for p in system.polys() for item in p.terms.items() for obj in item]
            for system in (first, second)
        ]
        for objs in stored:
            assert len({id(o) for o in objs}) == len(set(objs)) < len(objs)
        # the table lives for one call: two calls share no storage
        assert not {id(o) for o in stored[0]} & {id(o) for o in stored[1]}

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
        # the oracle keeps the raw adjugate numerators; dividing raw by the
        # reduced equation must be exact for every nontrivial position
        fam = disk_quadratic()
        raw_sys = raw_equations_oracle(fam, 2)
        red_sys = zii_equations(fam, 2)
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

    @pytest.mark.parametrize("ctor,d", [(sum_power_exp, 1), (disk_quadratic, 2)])
    def test_matrix_input_equals_family_input(self, ctor, d):
        # a matrix runs on its own entries; an eligible family in coefficient coordinates
        fam = ctor()
        via_family = zii_equations(fam, d)
        via_matrix = zii_equations(build_matrix(fam, d))
        assert via_family.texts() == via_matrix.texts()
        assert [e.pairs for e in via_family.entries] == [e.pairs for e in via_matrix.entries]


DIFFERENTIAL_CASES = [(name, d) for name in sorted(BUILTIN_FAMILIES) for d in (1, 2)] + [
    ("sum-power-exp", 3),
    ("product-exponential", 3),
    ("bilinear-box", 3),
]


class TestBlockReductionAgainstFullDeterminant:
    """Reducing against the block determinant equals reducing against det."""

    @pytest.mark.parametrize("name,d", DIFFERENTIAL_CASES)
    def test_texts_and_provenance_equal_oracle(self, name, d):
        system = zii_equations(BUILTIN_FAMILIES[name](), d)
        got = [(e.poly.to_text(), e.pairs) for e in system.entries]
        assert got == equations_full_det_oracle(BUILTIN_FAMILIES[name](), d)

    def test_disk_degree_three_reduced_divides_raw(self):
        # blocks of order 4 and 6; each equation divides its full cofactor
        matrix = build_matrix(disk_quadratic(), 3)
        mask = compute_mask(matrix.basis)
        assert len(block_cofactors(matrix.rows()).determinants) == 2
        _, raws = det_and_cofactors(matrix.rows(), mask.pairs)
        system = zii_equations(matrix)
        reduced = {p: e.poly for e in system.entries for p in e.pairs}
        for pair, raw in zip(mask.pairs, raws):
            red = reduced[pair]
            if raw.is_zero:
                assert red.is_zero
                continue
            assert red * raw.exact_divide(red) == raw


T = SymbolTable.build(["s", "t"])
S, TT, ONE, ZERO = Poly.symbol(T, "s"), Poly.symbol(T, "t"), Poly.const(T, 1), Poly.zero(T)


def degree_one_matrix(rows) -> MomentMatrix:
    # a hand-built 3 x 3 "moment matrix"; the degree-1 mask is position (1, 2)
    return MomentMatrix(None, build_basis(1), tuple(tuple(r) for r in rows))


class TestHandBuiltBlocks:
    def test_other_block_factor_shared_with_cofactor_is_kept(self):
        # blocks {0} and {1, 2}; C(1, 2) = -(s+1)^2 and det = (s+1)(t^2 - (s+1)^2),
        # so M^-1[1][2] = -(s+1) / (t^2 - (s+1)^2).  The in-block cofactor
        # -(s+1) shares s+1 with the other block's determinant, which must
        # not be divided out of it.
        a = S + ONE
        rows = [[a, ZERO, ZERO], [ZERO, TT, a], [ZERO, a, TT]]
        blocks = block_cofactors(rows, [(1, 2)])
        assert blocks.determinants == (a, TT * TT - a * a)
        assert blocks.cofactors == ((1, -a),)
        (entry,) = zii_equations(degree_one_matrix(rows)).entries
        assert entry.poly.to_text() == "s + 1"
        assert entry.pairs == ((1, 2),)
        det, (raw,) = det_and_cofactors(rows, [(1, 2)])
        assert reduce_by_determinant(raw, det).strip_known_nonzero_factors() == entry.poly

    def test_position_across_blocks_gives_zero_equation(self):
        # blocks {0, 1} and {2}; the mask position (1, 2) joins them
        rows = [[S, ONE, ZERO], [ONE, TT, ZERO], [ZERO, ZERO, S + TT]]
        assert block_cofactors(rows, [(1, 2)]).cofactors == (None,)
        for equations in (zii_equations, raw_equations_oracle):
            (entry,) = equations(degree_one_matrix(rows)).entries
            assert entry.is_trivial
            assert entry.pairs == ((1, 2),)

    def test_identically_singular_block_raises(self):
        # block {1, 2} has equal rows; block {0} is regular
        rows = [[S, ZERO, ZERO], [ZERO, TT, TT], [ZERO, TT, TT]]
        assert block_cofactors(rows).determinants == (S, ZERO)
        for equations in (zii_equations, raw_equations_oracle):
            with pytest.raises(SingularMatrix, match="identically singular"):
                equations(degree_one_matrix(rows))


def count_sympy_fallbacks(monkeypatch) -> list:
    calls = []
    real = equations._sympy_gcd

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(equations, "_sympy_gcd", counted)
    return calls


def equal_up_to_unit(p: Poly, q: Poly) -> bool:
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    return p * q.leading()[1] == q * p.leading()[1]


U = SymbolTable.build(["a", "b", "x"])
A, B, X = (Poly.symbol(U, n) for n in ("a", "b", "x"))


@st.composite
def gcd_pairs(draw):
    """(M*G*U, M^k*G*V): integer polynomials in 2 or 3 symbols, M a monomial, G often 1."""
    names = ["a", "b", "x"][: draw(st.integers(2, 3))]
    syms = [Poly.symbol(U, n) for n in names]

    def poly(max_terms):
        p = Poly.zero(U)
        for _ in range(draw(st.integers(0, max_terms))):
            term = Poly.const(U, draw(st.integers(-4, 4)))
            for s in syms:
                term = term * s ** draw(st.integers(0, 2))
            p = p + term
        return p

    shared = Poly.const(U, 1)
    for s in syms:
        shared = shared * s ** draw(st.integers(0, 2))
    g = poly(2) if draw(st.booleans()) else Poly.const(U, 1)
    g = g if not g.is_zero else Poly.const(U, 1)
    v = poly(3)
    v = v if not v.is_zero else Poly.const(U, 1)
    return shared * g * poly(3), g * v * shared ** draw(st.integers(0, 2))


class TestReductionCertificate:
    """reduce_by_determinant against a whole-polynomial sympy gcd."""

    @pytest.mark.parametrize(
        "name,d", [(n, d) for n in sorted(BUILTIN_FAMILIES) for d in (1, 2, 3)]
    )
    def test_in_block_cofactors_equal_sympy_without_fallback(self, monkeypatch, name, d):
        matrix = build_matrix(BUILTIN_FAMILIES[name](), d)
        blocks = block_cofactors(matrix.rows(), compute_mask(matrix.basis).pairs)
        in_block = [item for item in blocks.cofactors if item is not None]
        expected = [sympy_reduce_oracle(c, blocks.determinants[b]) for b, c in in_block]
        calls = count_sympy_fallbacks(monkeypatch)
        got = [reduce_by_determinant(c, blocks.determinants[b]) for b, c in in_block]
        assert got == expected
        assert calls == []

    @settings(max_examples=80, deadline=None)
    @given(gcd_pairs())
    def test_random_shared_factors_equal_sympy_up_to_a_unit(self, pair):
        raw, det = pair
        assert equal_up_to_unit(reduce_by_determinant(raw, det), sympy_reduce_oracle(raw, det))

    def test_common_monomial_is_the_only_one_divided_out(self, monkeypatch):
        raw, det = A**3 * X * (A + X + 1), A * X**2 * (B * X - 2)
        calls = count_sympy_fallbacks(monkeypatch)
        assert reduce_by_determinant(raw, det) == A**2 * (A + X + 1)
        assert calls == []

    def test_shared_multivariate_factor_takes_the_sympy_fallback(self, monkeypatch):
        raw, det = (A + B) * (A - 2 * B + 1), (A + B) * (A * B + 3)
        assert not equations._certify_coprime(raw, det)
        calls = count_sympy_fallbacks(monkeypatch)
        assert reduce_by_determinant(raw, det) == A - 2 * B + 1
        assert len(calls) == 1

    def test_univariate_remainder_takes_the_euclidean_path_alone(self, monkeypatch):
        # one symbol left after the monomial split: no F_p certificate
        raw, det = A * B * (X + 1) * (X - 3), A**2 * (X + 1) ** 2 * (X + 5)
        monkeypatch.setattr(equations, "_certify_coprime", None)
        calls = count_sympy_fallbacks(monkeypatch)
        assert reduce_by_determinant(raw, det) == B * (X - 3)
        assert calls == []

    def test_vanishing_leading_coefficient_gives_up(self, monkeypatch):
        # at a = 0 the shared factor a*x + 1 becomes 1 and the images are
        # coprime; the lost x-degree must stop the certificate
        raw, det = (A * X + 1) * (X + 2), (A * X + 1) * (X - 3)
        monkeypatch.setattr(equations, "_residues", lambda width: [0] * width)
        assert not equations._certify_coprime(raw, det)
        calls = count_sympy_fallbacks(monkeypatch)
        assert reduce_by_determinant(raw, det) == X + 2
        assert len(calls) == 1

    def test_prime_in_a_denominator_gives_up(self):
        p = equations._PRIME
        raw, det = A * X + Fraction(1, p), A * X + 2
        assert not equations._certify_coprime(raw, det)
        assert reduce_by_determinant(raw, det) == raw


@st.composite
def one_symbol_pairs(draw):
    """(M*G*U, N*G*V): G, U, V rational in x alone, M and N monomials in a, b and x."""
    coeff = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)

    def uni(max_degree):
        return sum((draw(coeff) * X**k for k in range(draw(st.integers(0, max_degree)) + 1)),
                   Poly.zero(U))

    def monomial():
        return A ** draw(st.integers(0, 2)) * B ** draw(st.integers(0, 1)) * X ** draw(
            st.integers(0, 2)
        )

    g, u, v = uni(2), uni(2), uni(2)
    g = g if not g.is_zero else Poly.const(U, Fraction(2, 3))
    v = v if not v.is_zero else Poly.const(U, 1)
    return monomial() * g * u, monomial() * g * v


class TestOneSymbolReduction:
    """Euclid over Z and an integer quotient when one symbol is left."""

    @settings(max_examples=80, deadline=None)
    @given(one_symbol_pairs())
    def test_equals_the_sympy_oracle_exactly(self, pair):
        raw, det = pair
        assert reduce_by_determinant(raw, det) == sympy_reduce_oracle(raw, det)

    def test_rational_gcd_content_is_divided_out_monic(self):
        # gcd (2x/3 + 1/2) is taken monic, x + 3/4, so the quotient keeps its 2/3
        g = Fraction(2, 3) * X + Fraction(1, 2)
        raw, det = A * g * (X - 1), B * g * (3 * X + 5)
        assert reduce_by_determinant(raw, det) == A * Fraction(2, 3) * (X - 1)

    def test_one_prepared_determinant_serves_every_cofactor(self):
        det = A * (X + 1) ** 2 * (X - 2)
        prepared = equations._Determinant(det)
        for raw in (X + 1, A * (X - 2) * (X + 3), B * X, A * B + X, Poly.zero(U)):
            assert prepared.reduce(raw) == sympy_reduce_oracle(raw, det)


def spec_family(domain: str, density: str, params: str):
    return parse_density_spec(
        f"family: f\ndomain: {domain}\ndensity: {density}\nparams: {params}\n"
    )


def theta_equations(family, degree: int):
    """zii_equations in the family's own parameters: the coefficient check says no."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equations, "coefficient_coordinates", lambda family: None)
        return zii_equations(family, degree)


def summary(system) -> list:
    return [(e.poly.to_text(), e.pairs) for e in system.entries]


def spy_tables(monkeypatch) -> list:
    tables = []
    real = equations.block_cofactors

    def spy(rows, positions=()):
        tables.append(rows[0][0].table)
        return real(rows, positions)

    monkeypatch.setattr(equations, "block_cofactors", spy)
    return tables


ELIGIBLE_SPECS = [
    ("unit-disk", "v + (a+b)*x^2 + (a-c)*y^2", "a:none, b:none, c:none, v:positive:1..1"),
    ("unit-box", "1 + (c-a-b+1)*x + (a+b+c)*x*y", "a:none, b:none, c:none"),
]

INELIGIBLE_SPECS = [
    ("unit-box", "1 + a*b*x", "a:none, b:none"),
    ("unit-box", "1 + (a+b)*x + (2*a+2*b)*y", "a:none, b:none"),
    ("unit-disk", "1 + (a+b+c)*x^2 + (2*a+2*b+2*c)*y^2", "a:none, b:none, c:none"),
    ("unit-box", "1 + (a+PI)*x + b*y + c*x*y", "a:none, b:none, c:none"),
]

AFFINE_SYMBOLS = ("p", "q", "r", "s")


@st.composite
def affine_families(draw):
    """2-3 rational affine coefficients over 3-4 symbols on the box or the disk."""
    names = AFFINE_SYMBOLS[: draw(st.integers(3, 4))]
    table = SymbolTable.build(names)
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def form():
        p = Poly.const(table, draw(rational))
        for n in names:
            p = p + Poly.symbol(table, n) * draw(rational)
        return p

    keys = draw(st.lists(st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
                         min_size=2, max_size=3, unique=True))
    coeffs = {key: form() for key in keys}
    coeffs.setdefault((0, 0), Poly.const(table, 1))
    base = draw(st.sampled_from([UnitBox(), UnitDisk()]))
    family = DensityFamily("affine", table, base, coeffs=tuple(sorted(coeffs.items())))
    return family, draw(st.integers(1, 2))


def outcome(equations_of, family, degree):
    try:
        return summary(equations_of(family, degree))
    except SingularMatrix as exc:
        return str(exc)


class TestCoefficientCoordinates:
    """One symbol per affine coefficient: equal equations, and only where it applies."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_disk_equals_parameter_coordinates(self, d):
        family = disk_quadratic()
        assert coefficient_coordinates(family) is not None
        assert summary(zii_equations(family, d)) == summary(theta_equations(family, d))

    def test_disk_spec_equals_parameter_coordinates(self, spec_dir):
        family = parse_density_spec((spec_dir / "disk-quadratic.zii").read_text())
        assert summary(zii_equations(family, 3)) == summary(theta_equations(family, 3))

    @pytest.mark.parametrize("domain,density,params", ELIGIBLE_SPECS)
    def test_eligible_specs_equal_parameter_coordinates(self, monkeypatch, domain, density, params):
        family = spec_family(domain, density, params)
        tables = spy_tables(monkeypatch)
        for d in (1, 2, 3):
            got = zii_equations(family, d)
            assert tables.pop() != family.table
            # back in the parameters, so no text can name a t_k
            assert {p.table for p in got.polys()} == {family.table}
            assert summary(got) == summary(theta_equations(family, d))

    @pytest.mark.parametrize("domain,density,params", INELIGIBLE_SPECS)
    def test_ineligible_specs_run_in_their_own_table(self, monkeypatch, domain, density, params):
        family = spec_family(domain, density, params)
        assert coefficient_coordinates(family) is None
        tables = spy_tables(monkeypatch)
        zii_equations(family, 2)
        assert tables == [family.table]

    @pytest.mark.parametrize("name", sorted(set(BUILTIN_FAMILIES) - {"disk-quadratic"}))
    def test_other_builtins_run_in_their_own_table(self, monkeypatch, name):
        family = BUILTIN_FAMILIES[name]()
        assert coefficient_coordinates(family) is None
        tables = spy_tables(monkeypatch)
        zii_equations(family, 1)
        assert tables == [family.table]

    def test_each_symbol_stands_for_a_primitive_integer_form(self):
        family = spec_family("unit-box", "1 - (2*a + 4*b)*x - 1/3*c*y", "a:none, b:none, c:none")
        coordinates, values = coefficient_coordinates(family)
        assert coordinates.table.names == ("PI", "t0", "t1")
        assert [str(c) for _, c in coordinates.coeffs] == ["1", "1/3*t0", "2*t1"]
        assert [str(v) for v in values] == ["PI", "-c", "-a - 2*b"]

    @settings(max_examples=40, deadline=None)
    @given(affine_families())
    def test_random_affine_coefficients_equal_parameter_coordinates(self, case):
        family, d = case
        assert outcome(zii_equations, family, d) == outcome(theta_equations, family, d)

    def test_disk_degree_three_interpolates_in_three_symbols(self, monkeypatch):
        # in the parameters: 4 symbols, 70 + 210 = 280 nodes
        calls, depth = [], [0]
        real = inverse._simplex

        def spy(k, bound):
            depth[0] += 1
            try:
                grid = real(k, bound)
            finally:
                depth[0] -= 1
            if not depth[0]:
                calls.append((k, len(grid)))
            return grid

        monkeypatch.setattr(inverse, "_simplex", spy)
        zii_equations(disk_quadratic(), 3)
        assert calls == [(3, 35), (3, 84)]


def equations_digest(system) -> str:
    """sha256 over each equation's canonical text and its mask positions."""
    h = hashlib.sha256()
    for entry in system.entries:
        h.update(f"{entry.poly.to_text()} {entry.pairs}\n".encode())
    return h.hexdigest()


class TestEquationPins:
    """Equations above the goldens' degrees, pinned by digests recorded before
    the engine divided out row contents and solved only the wanted columns."""

    @pytest.mark.parametrize(
        "family, degree, digest",
        [
            ("sum-power-exp", 5, "d237565ecea758452dd69fc74bae7869c7f862fe3467dbd20948d0d8a5ef4f67"),
            ("disk-quadratic", 5, "a258ff554fe120169a0983126bf52c16b25be9a504c57cee78772c10ae27dad8"),
            ("bilinear-box", 4, "282ab02768dfb8e91ef1cb4633fb3f57f2aefedaad4d160a298673d938fed767"),
        ],
    )
    def test_digest(self, family, degree, digest):
        assert equations_digest(zii_equations(BUILTIN_FAMILIES[family](), degree)) == digest

