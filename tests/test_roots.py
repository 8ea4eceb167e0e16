"""Univariate real-root machinery: rational roots, Sturm chains, isolation."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympy

from zii.errors import InexactDivision
from zii.roots import (
    ISOLATION_WIDTH,
    count_real_roots,
    exact_quotient,
    isolate_real_roots,
    primitive,
    primitive_gcd,
    rational_roots,
    real_roots,
    squarefree_part,
    sturm_chain,
    uni_derivative,
    uni_eval,
    uni_gcd,
)

from oracle_defs import real_roots_fraction, sturm_chain_fraction, uni_gcd_fraction
from test_imports import run_python

F = Fraction


def poly_from_roots(roots):
    """Coefficients (ascending) of prod (x - r)."""
    coeffs = [F(1)]
    for r in roots:
        coeffs = [F(0)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    return coeffs


small_fracs = st.fractions(
    min_value=F(-12), max_value=F(12), max_denominator=6
)


@st.composite
def factored_polys(draw):
    """(integer coefficients, rational roots, extra factor) of a product.

    Up to six factors d*x - n with |n|, d <= 10**6, drawn from a pool of
    at most three so that roots repeat, times 1, x^2 + 1 or x^2 - 2.
    """
    linear = st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    pool = draw(st.lists(linear, min_size=1, max_size=3))
    factors = draw(st.lists(st.sampled_from(pool), max_size=6))
    extra = draw(st.sampled_from([[1], [1, 0, 1], [-2, 0, 1]]))
    coeffs = extra
    for n, d in factors:
        coeffs = mul(coeffs, [-n, d])
    return coeffs, [F(n, d) for n, d in factors], extra


class TestRationalRoots:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_fracs, min_size=1, max_size=4))
    def test_recovers_constructed_roots(self, roots):
        coeffs = poly_from_roots(roots)
        got = rational_roots(coeffs)
        assert set(got) == set(roots)

    def test_no_rational_roots(self):
        # x^2 + 1 and x^2 - 2 have none
        assert rational_roots([F(1), F(0), F(1)]) == []
        assert rational_roots([F(-2), F(0), F(1)]) == []

    def test_zero_root(self):
        assert rational_roots([F(0), F(0), F(1)]) == [F(0)]

    def test_within_filters(self):
        coeffs = poly_from_roots([F(-3), F(0), F(2), F(5)])
        assert set(rational_roots(coeffs, within=(F(0), F(4)))) == {F(0), F(2)}
        assert set(rational_roots(coeffs, within=(None, F(0)))) == {F(-3), F(0)}
        assert set(rational_roots(coeffs, within=(F(1), None))) == {F(2), F(5)}

    def test_pinned_range(self):
        coeffs = poly_from_roots([F(2), F(7)])
        assert rational_roots(coeffs, within=(F(2), F(2))) == [F(2)]
        assert rational_roots(coeffs, within=(F(3), F(3))) == []

    def test_repeated_roots(self):
        # multiple roots fall on bisection points, where a chain that is not
        # square-free vanishes in every member and miscounts
        assert rational_roots(poly_from_roots([F(-1), F(-1), F(1)])) == [F(-1), F(1)]
        assert rational_roots(mul([1, 0, 1], poly_from_roots([F(0)] * 3))) == [F(0)]

    def test_denominator_roots(self):
        coeffs = poly_from_roots([F(1, 3), F(-5, 7)])
        assert set(rational_roots(coeffs)) == {F(1, 3), F(-5, 7)}

    def test_linear_roots(self):
        assert rational_roots([0, 5]) == [F(0)]
        assert rational_roots([F(1, 2), F(3, 4)]) == [F(-2, 3)]
        assert rational_roots([-3, 1], within=(F(0), F(2))) == []
        assert rational_roots([-3, 1], within=(F(3), None)) == [F(3)]
        assert rational_roots([-3, 1], within=(F(3), F(3))) == [F(3)]

    @settings(max_examples=80, deadline=None)
    @given(
        c0=st.integers(-30, 30) | small_fracs,
        c1=(st.integers(-30, 30) | small_fracs).filter(bool),
        lo=st.none() | small_fracs,
        hi=st.none() | small_fracs,
        pinned=st.booleans(),
    )
    def test_linear_fast_path_agrees_with_isolation_path(self, c0, c1, lo, hi, pinned):
        # (c0 + c1*x)(1 + x^2) has the same real roots, and as a cubic it
        # goes through the Sturm isolation unless the range is pinned
        if pinned:
            hi = lo
        line = [c0, c1]
        cubic = [c0, c1, c0, c1]
        got = rational_roots(line, within=(lo, hi))
        assert got == rational_roots(cubic, within=(lo, hi))
        assert all(isinstance(r, Fraction) for r in got)

    @settings(max_examples=60, deadline=None)
    @given(factored_polys())
    def test_large_roots_with_repeats(self, case):
        coeffs, roots, extra = case
        want = sorted(set(roots))
        assert rational_roots(coeffs) == want
        rr = real_roots(coeffs)
        assert rr.rational == tuple(want)
        assert len(rr.irrational_intervals) == (2 if extra == [-2, 0, 1] else 0)

    @settings(max_examples=60, deadline=None)
    @given(factored_polys(), st.data())
    def test_within_ends_are_inclusive(self, case, data):
        # both ends drawn on the roots themselves, so a root sits on each end
        coeffs, roots, _ = case
        end = st.none() | st.sampled_from(roots) if roots else st.none()
        lo, hi = data.draw(end), data.draw(end)
        want = sorted(
            r for r in set(roots) if (lo is None or lo <= r) and (hi is None or r <= hi)
        )
        assert rational_roots(coeffs, within=(lo, hi)) == want

    def test_work_is_bounded_by_the_isolation(self):
        # (N*x - 1)(x^2 + 1) with N the product of two 21-digit primes: a
        # divisor test would have to factor N; the isolation takes milliseconds
        code = (
            "from fractions import Fraction\n"
            "from zii.roots import rational_roots\n"
            "N = (10**20 + 39) * (10**20 + 129)\n"
            "assert rational_roots([-1, N, -1, N]) == [Fraction(1, N)]\n"
        )
        result = run_python(code, timeout=20)
        assert result.returncode == 0, result.stderr

    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_fracs, min_size=1, max_size=4))
    def test_agrees_with_sympy(self, coeffs):
        if all(c == 0 for c in coeffs):
            return
        x = sympy.Symbol("x")
        expr = sum(sympy.Rational(c) * x**i for i, c in enumerate(coeffs))
        want = {
            F(int(r.p), int(r.q))
            for r in sympy.roots(sympy.Poly(expr, x), multiple=True)
            if r.is_rational
        }
        assert set(rational_roots(list(coeffs))) == want


class TestSturm:
    def test_count_on_known_polynomial(self):
        # (x-1)(x+2)(x-1/2): three real roots
        coeffs = poly_from_roots([F(1), F(-2), F(1, 2)])
        chain = sturm_chain(coeffs)
        assert count_real_roots(chain, F(-10), F(10)) == 3
        assert count_real_roots(chain, F(0), F(10)) == 2
        assert count_real_roots(chain, F(-10), F(0)) == 1

    def test_no_real_roots(self):
        chain = sturm_chain([F(1), F(0), F(1)])  # x^2 + 1
        assert count_real_roots(chain, F(-100), F(100)) == 0

    def test_isolation_of_sqrt2(self):
        intervals = isolate_real_roots([F(-2), F(0), F(1)])
        assert len(intervals) == 2
        for lo, hi in intervals:
            assert hi - lo <= ISOLATION_WIDTH
        (lo1, hi1), (lo2, hi2) = sorted(intervals)
        assert float(lo1) <= -math.sqrt(2) <= float(hi1)
        assert float(lo2) <= math.sqrt(2) <= float(hi2)

    def test_isolation_width_is_tight(self):
        assert ISOLATION_WIDTH == F(1, 10**12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(small_fracs, min_size=2, max_size=5))
    def test_interval_count_matches_sympy_real_roots(self, roots_in):
        coeffs = poly_from_roots(roots_in)
        x = sympy.Symbol("x")
        expr = sum(sympy.Rational(c) * x**i for i, c in enumerate(coeffs))
        want = len(sympy.Poly(expr, x).real_roots())  # with multiplicity
        distinct = len(set(roots_in))
        rr = real_roots(coeffs)
        assert rr.count == distinct
        assert want == len(roots_in)

    def test_multiple_root_on_a_bisection_point_terminates(self):
        # x^3 - x^2: the double root 0 is the midpoint of the first interval,
        # where every member of the chain of x^3 - x^2 vanishes
        code = (
            "from zii.roots import isolate_real_roots\n"
            "(a, b), (c, d) = isolate_real_roots([0, 0, -1, 1])\n"
            "assert a < 0 <= b and c < 1 <= d\n"
        )
        result = run_python(code, timeout=20)
        assert result.returncode == 0, result.stderr

    @settings(max_examples=30, deadline=None)
    @given(st.lists(small_fracs, min_size=1, max_size=3), st.integers(1, 3), st.booleans())
    def test_isolation_of_repeated_roots(self, roots_in, repeat, complex_pair):
        # each distinct root lies in exactly one interval; x^2 + 1 adds none
        coeffs = poly_from_roots([r for r in roots_in for _ in range(repeat)])
        if complex_pair:
            coeffs = [a + b for a, b in zip(coeffs + [F(0)] * 2, [F(0)] * 2 + coeffs)]
        intervals = isolate_real_roots(coeffs)
        assert len(intervals) == len(set(roots_in))
        for r in roots_in:
            assert sum(lo < r <= hi for lo, hi in intervals) == 1


class TestHelpers:
    def test_uni_eval_horner(self):
        # 2 - x + 3x^2 at x = 1/2
        assert uni_eval([F(2), F(-1), F(3)], F(1, 2)) == F(2) - F(1, 2) + F(3, 4)

    def test_derivative(self):
        assert uni_derivative([F(5), F(4), F(3)]) == [F(4), F(6)]

    def test_gcd_of_shared_factor(self):
        a = poly_from_roots([F(1), F(2)])
        b = poly_from_roots([F(2), F(3)])
        g = uni_gcd(a, b)
        # monic gcd is (x - 2)
        assert len(g) == 2
        assert uni_eval(g, F(2)) == 0

    def test_squarefree_part_drops_multiplicity(self):
        # (x-1)^3 -> (x-1) up to constant
        cubed = poly_from_roots([F(1), F(1), F(1)])
        sf = squarefree_part(cubed)
        assert len(sf) == 2
        assert uni_eval(sf, F(1)) == 0

    def test_real_roots_mixed(self):
        # (x-2)(x^2-3): one rational root, two irrational
        coeffs = poly_from_roots([F(2)])
        x2m3 = [F(-3), F(0), F(1)]
        # multiply (x-2) * (x^2-3)
        prod = [F(0)] * 4
        for i, a in enumerate(coeffs):
            for j, b in enumerate(x2m3):
                prod[i + j] += a * b
        rr = real_roots(prod)
        assert rr.rational == (F(2),)
        assert len(rr.irrational_intervals) == 2
        assert rr.count == 3


def mul(a, b):
    """Product of two ascending coefficient lists; [] is the zero polynomial."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


rational_lists = st.lists(
    st.fractions(min_value=F(-6), max_value=F(6), max_denominator=5), max_size=4
)
integer_lists = st.lists(st.integers(-9, 9), max_size=4)


class TestIntegerGcd:
    """Euclid over Z on primitive parts against Euclid over Fractions."""

    @settings(max_examples=150, deadline=None)
    @given(rational_lists, rational_lists, rational_lists)
    def test_shared_factor_equals_the_fraction_oracle(self, g, u, v):
        a, b = mul(g, u), mul(g, v)
        assert uni_gcd(a, b) == uni_gcd_fraction(a, b)

    def test_zero_and_constant_edges(self):
        assert uni_gcd([], []) == []
        assert uni_gcd([], [F(4), F(-2)]) == [F(-2), F(1)]
        assert uni_gcd([F(3), F(6)], []) == [F(1, 2), F(1)]
        assert uni_gcd([F(5, 3)], [F(1), F(1)]) == [F(1)]

    def test_gcd_is_monic_with_a_rational_content(self):
        # (2x/3 + 1/2)(x - 1) and (2x/3 + 1/2)(x + 5): gcd x + 3/4
        g = [F(1, 2), F(2, 3)]
        assert uni_gcd(mul(g, [F(-1), F(1)]), mul(g, [F(5), F(1)])) == [F(3, 4), F(1)]

    @settings(max_examples=100, deadline=None)
    @given(rational_lists)
    def test_primitive_splits_off_the_content(self, coeffs):
        content, part = primitive(coeffs)
        assert [content * c for c in part] == [F(c) for c in coeffs[: len(part)]]
        assert all(c == 0 for c in coeffs[len(part):])
        if part:
            assert part[-1] > 0 and math.gcd(*part) == 1

    @settings(max_examples=100, deadline=None)
    @given(integer_lists, integer_lists, integer_lists)
    def test_primitive_gcd_is_primitive(self, g, u, v):
        got = primitive_gcd(mul(g, u), mul(g, v))
        if got:
            assert got[-1] > 0 and math.gcd(*got) == 1


class TestExactQuotient:
    @settings(max_examples=100, deadline=None)
    @given(integer_lists, integer_lists)
    def test_product_divided_by_a_factor(self, p, q):
        while q and not q[-1]:
            q.pop()
        while p and not p[-1]:
            p.pop()
        if q:
            assert exact_quotient(mul(p, q), q) == p

    def test_remainder_raises(self):
        with pytest.raises(InexactDivision):
            exact_quotient([1, 0, 1], [1, 1])  # x^2 + 1 by x + 1

    def test_leading_coefficient_not_divisible_raises(self):
        with pytest.raises(InexactDivision):
            exact_quotient([1, 3], [1, 2])  # 3x + 1 by 2x + 1

    def test_zero_divisor_raises(self):
        with pytest.raises(InexactDivision):
            exact_quotient([1, 1], [0])


@st.composite
def mixed_root_polys(draw):
    """A rational multiple of prod (x - r)^m times integer quadratics.

    The linear factors give rational roots, repeated when m > 1; the
    quadratics give irrational, complex or further rational roots.
    """
    p = [draw(small_fracs.filter(bool))]
    for r in draw(st.lists(small_fracs, max_size=3)):
        for _ in range(draw(st.integers(1, 3))):
            p = mul(p, [-r, F(1)])
    quadratic = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-4, 4).filter(bool))
    for c, b, a in draw(st.lists(quadratic, max_size=2)):
        p = mul(p, [F(c), F(b), F(a)])
    return p


class TestFractionOracle:
    """The integer Sturm, square-free and deflation path against the Fraction one."""

    @settings(max_examples=80, deadline=None)
    @given(mixed_root_polys())
    def test_real_roots_equal_the_fraction_oracle(self, coeffs):
        got, want = real_roots(coeffs), real_roots_fraction(coeffs)
        assert got.rational == want.rational
        assert got.irrational_intervals == want.irrational_intervals
        assert all(type(end) is Fraction for iv in got.irrational_intervals for end in iv)

    @settings(max_examples=150, deadline=None)
    @given(mixed_root_polys() | st.lists(small_fracs, min_size=2, max_size=7).filter(any))
    def test_sturm_members_are_positive_multiples(self, coeffs):
        chain, want = sturm_chain(coeffs), sturm_chain_fraction(coeffs)
        assert len(chain) == len(want)
        for member, rational in zip(chain, want):
            assert len(member) == len(rational)
            assert all(type(c) is int for c in member) and math.gcd(*member) == 1
            ratio = F(member[-1]) / rational[-1]
            assert ratio > 0 and all(m == ratio * r for m, r in zip(member, rational))
