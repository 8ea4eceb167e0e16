"""Exact polynomial arithmetic: pins for documented values, then properties."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_defs import evaluate_float, substitute_chain
from zii.errors import InexactDivision, MissingSymbol, NotUnivariate, SymbolTableMismatch
from zii.poly import Poly
from zii.symbols import Assumption, PI_NAME, SymbolTable

AD = SymbolTable.build({"a": Assumption.NONE, "d": Assumption.NONE})
ABC = SymbolTable.build(
    {"a": Assumption.NONE, "b": Assumption.NONE, "c": Assumption.NONE}
)


def sym(table, name):
    return Poly.symbol(table, name)


def const(table, v):
    return Poly.const(table, v)


def quadratic_ad() -> Poly:
    a, d = sym(AD, "a"), sym(AD, "d")
    return (
        const(AD, 3) * a * a
        + const(AD, 22) * a * d
        + const(AD, 3) * d * d
        + const(AD, 36) * a
        + const(AD, 36) * d
        + const(AD, 48)
    )


class TestPinnedValues:
    def test_difference_of_squares(self):
        a = sym(AD, "a")
        one = const(AD, 1)
        assert (a + one) * (a - one) == a * a - one

    def test_quadratic_constant_term(self):
        assert quadratic_ad().evaluate({"a": 0, "d": 0}) == 48

    def test_canonical_text_graded_lex(self):
        # degree-2 terms first (a^2, a*d, d^2 in descending exponent order),
        # then the linear terms, then the constant
        assert quadratic_ad().to_text() == "3*a^2 + 22*a*d + 3*d^2 + 36*a + 36*d + 48"

    def test_text_rationals_and_unit_coefficients(self):
        a, d = sym(AD, "a"), sym(AD, "d")
        assert (a - d).to_text() == "a - d"
        assert (const(AD, Fraction(1, 2)) * a).to_text() == "1/2*a"
        assert (const(AD, -1) * a * d).to_text() == "-a*d"
        assert Poly.zero(AD).to_text() == "0"
        assert const(AD, Fraction(-7, 3)).to_text() == "-7/3"

    def test_strip_positive_monomial_and_content(self):
        table = SymbolTable.build({"b": Assumption.NONE, "c": Assumption.NONE})
        pi = sym(table, PI_NAME)
        b, c = sym(table, "b"), sym(table, "c")
        p = const(table, 12) * pi * pi * (b + c)
        assert p.strip_known_nonzero_factors() == b + c

    def test_strip_sign_and_content(self):
        t = SymbolTable.build(["a00", "a01", "a10", "a11"])
        a00, a01, a10, a11 = (sym(t, n) for n in ("a00", "a01", "a10", "a11"))
        target = a00 * a11 - a10 * a01
        p = const(t, Fraction(-1, 4)) * target
        assert p.strip_known_nonzero_factors() == target

    def test_strip_does_not_touch_unsigned_symbols(self):
        # a carries no positivity assumption, so the factor a stays
        a, d = sym(AD, "a"), sym(AD, "d")
        p = a * a * d + a * a
        assert p.strip_known_nonzero_factors() == a * a * d + a * a

    def test_strip_zero(self):
        assert Poly.zero(AD).strip_known_nonzero_factors().is_zero

    def test_content(self):
        a, d = sym(AD, "a"), sym(AD, "d")
        assert (const(AD, 6) * a + const(AD, 9) * d).content() == 3
        assert (const(AD, Fraction(1, 2)) * a + const(AD, Fraction(3, 4)) * d).content() == Fraction(1, 4)

    def test_evaluate_float_fills_pi(self):
        pi = sym(AD, PI_NAME)
        assert evaluate_float(pi * pi) == pytest.approx(math.pi**2)
        assert evaluate_float(pi * sym(AD, "a"), {"a": Fraction(1, 2)}) == pytest.approx(math.pi / 2)

    def test_evaluate_missing_symbol(self):
        with pytest.raises(MissingSymbol):
            quadratic_ad().evaluate({"a": 1})

    def test_table_mismatch(self):
        with pytest.raises(SymbolTableMismatch):
            sym(AD, "a") + sym(ABC, "a")

    def test_leading_is_graded_lex(self):
        a, d = sym(AD, "a"), sym(AD, "d")
        exps, coeff = (a * d + d + const(AD, 5)).leading()
        assert coeff == 1
        assert sum(exps) == 2

    def test_exact_divide_error(self):
        a, d = sym(AD, "a"), sym(AD, "d")
        with pytest.raises(InexactDivision):
            (a * d + const(AD, 1)).exact_divide(d)

    def test_as_univariate_requires_one_symbol(self):
        a, d = sym(AD, "a"), sym(AD, "d")
        with pytest.raises(NotUnivariate):
            (a + d).as_univariate("a")
        assert (a * a + const(AD, 2)).as_univariate("a") == [Fraction(2), Fraction(0), Fraction(1)]


# -- hypothesis strategies ----------------------------------------------------

coeffs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=6
).filter(lambda f: f != 0)


@st.composite
def polys(draw, table=ABC, max_terms=5, max_exp=3):
    n = len(table)
    terms = draw(
        st.dictionaries(
            st.tuples(*([st.integers(0, max_exp)] * n)),
            coeffs,
            max_size=max_terms,
        )
    )
    return Poly(table, terms)


points = st.fixed_dictionaries(
    {
        name: st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4)
        for name in ABC.names
    }
)


class TestRingProperties:
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Poly.zero(ABC) == p
        assert p * Poly.const(ABC, 1) == p
        assert (p - p).is_zero

    @given(polys(), polys(), points)
    def test_evaluation_is_a_homomorphism(self, p, q, at):
        assert (p + q).evaluate(at) == p.evaluate(at) + q.evaluate(at)
        assert (p * q).evaluate(at) == p.evaluate(at) * q.evaluate(at)

    @given(polys(), polys())
    def test_exact_divide_inverts_multiplication(self, p, q):
        if q.is_zero:
            return
        assert (p * q).exact_divide(q) == p

    @given(polys(), st.integers(0, 4))
    def test_pow_is_repeated_multiplication(self, p, k):
        expected = Poly.const(ABC, 1)
        for _ in range(k):
            expected = expected * p
        assert p**k == expected

    @given(polys())
    def test_hash_consistent_with_eq(self, p):
        q = Poly(ABC, dict(p.terms))
        assert p == q and hash(p) == hash(q)

    @given(polys(), points)
    def test_substitute_matches_evaluation(self, p, at):
        assert p.substitute(at).constant_value() == p.evaluate(at)

    @given(
        polys(),
        st.dictionaries(
            st.sampled_from([n for n in ABC.names if n != PI_NAME]),
            st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=5),
        ),
    )
    def test_substitute_matches_the_subs_symbol_chain(self, p, at):
        # partial assignments, PI never among them, so it stays symbolic
        assert p.substitute(at) == substitute_chain(p, at)

    @given(polys(), polys(), points)
    def test_subs_symbol_matches_composition(self, p, r, at):
        composed = p.subs_symbol("b", r)
        shifted = dict(at)
        shifted["b"] = r.evaluate(at)
        assert composed.evaluate(at) == p.evaluate(shifted)

    @given(polys())
    def test_strip_output_is_normalized(self, p):
        s = p.strip_known_nonzero_factors()
        if s.is_zero:
            assert p.is_zero
            return
        assert s.content() == 1
        assert s.leading()[1] > 0
        # PI is the only positive symbol here: it must not divide the result
        idx = ABC.index(PI_NAME)
        assert min(e[idx] for e in s.terms) == 0

    @given(polys(), st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7))
    def test_strip_ignores_a_rational_unit(self, p, c):
        # integer and rational coefficients strip to the same representative
        if c == 0:
            return
        scaled = p * const(ABC, math.lcm(*(v.denominator for v in p.terms.values())))
        assert scaled.strip_known_nonzero_factors() == p.strip_known_nonzero_factors()
        assert (p * const(ABC, c)).strip_known_nonzero_factors() == p.strip_known_nonzero_factors()

    @given(polys(), points)
    def test_strip_preserves_zero_sets(self, p, at):
        # stripping only removes factors that cannot vanish (at PI > 0)
        s = p.strip_known_nonzero_factors()
        if p.is_zero:
            return
        at_full = dict(at)
        val_p = p.evaluate({**at_full, PI_NAME: Fraction(355, 113)})
        val_s = s.evaluate({**at_full, PI_NAME: Fraction(355, 113)})
        assert (val_p == 0) == (val_s == 0)

    @given(st.lists(st.fractions(max_denominator=8, min_value=Fraction(-9), max_value=Fraction(9)), max_size=6))
    def test_univariate_round_trip(self, cs):
        t = SymbolTable.build(["z"])
        p = Poly.from_univariate(t, "z", cs)
        back = p.as_univariate("z") if not p.is_zero else []
        q = Poly.from_univariate(t, "z", back)
        assert p == q
