"""Spec-text parser: round trips, positioned errors, caps, and a fuzz sweep."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zii.dsl import (
    MAX_DEPTH,
    MAX_POW,
    MAX_PRODUCT_PAIRS,
    MAX_TERMS,
    MAX_XY_EXP,
    parse_density_spec,
    render_spec,
)
from zii.errors import (
    DslError,
    DslSyntaxError,
    ExponentBoundExceeded,
    NonPolynomialInXY,
    UndeclaredSymbol,
)
from zii import cli, dsl
from zii.measures import BUILTIN_FAMILIES

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def box_spec(density, params=None, constraints=None):
    parts = ["family: t", "domain: unit-box", f"density: {density}"]
    if params:
        parts.append(f"params: {params}")
    if constraints:
        parts.append(f"constraints: {constraints}")
    return "\n".join(parts) + "\n"


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILTIN_FAMILIES))
    def test_builtin_families_round_trip(self, name):
        path = SPEC_DIR / f"{name}.zii"
        text = path.read_text()
        fam = parse_density_spec(text)
        assert fam.name == name
        again = parse_density_spec(render_spec(fam))
        assert again.coeffs == fam.coeffs
        assert again.params == fam.params
        assert again.constraints == fam.constraints
        assert again.base == fam.base
        # rendering is a fixed point after one pass
        assert render_spec(again) == render_spec(fam)

    def test_builtin_specs_match_library_constructors(self):
        for name, ctor in BUILTIN_FAMILIES.items():
            parsed = parse_density_spec((SPEC_DIR / f"{name}.zii").read_text())
            built = ctor()
            assert parsed.coeffs == built.coeffs
            assert parsed.params == built.params
            assert parsed.base == built.base

    def test_random_coefficient_maps_round_trip(self):
        rng = random.Random(20260816)
        names = ["p", "q", "r"]
        for _ in range(50):
            terms = []
            for i in range(rng.randint(1, 4)):
                for j in range(rng.randint(1, 3)):
                    coeff = rng.choice(names)
                    k = rng.randint(0, 5)
                    terms.append(
                        f"{coeff}*x^{rng.randint(0, 4)}*y^{rng.randint(0, 4)}"
                        if k
                        else coeff
                    )
            density = " + ".join(terms)
            text = box_spec(density, params="p:none, q:none, r:none")
            fam = parse_density_spec(text)
            again = parse_density_spec(render_spec(fam))
            assert again.coeffs == fam.coeffs


class TestGrammar:
    def test_parenthesized_coefficients(self):
        fam = parse_density_spec(
            box_spec("(u + w)*x*y + 2*u", params="u:none, w:none")
        )
        grid = dict(fam.coeffs)
        assert grid[(1, 1)].to_text() == "u + w"
        assert grid[(0, 0)].to_text() == "2*u"

    def test_rational_literals(self):
        fam = parse_density_spec(box_spec("1/2 + 3/4*x"))
        grid = dict(fam.coeffs)
        assert grid[(0, 0)].constant_value() == Fraction(1, 2)
        assert grid[(1, 0)].constant_value() == Fraction(3, 4)

    def test_binomial_power_expansion(self):
        fam = parse_density_spec(box_spec("(x + y)^3"))
        grid = {k: v.constant_value() for k, v in fam.coeffs}
        assert grid == {
            (0, 3): 1,
            (1, 2): 3,
            (2, 1): 3,
            (3, 0): 1,
        }

    def test_named_density(self):
        fam = parse_density_spec(
            "family: s\ndomain: orthant-gamma\nshapes: k1=1 k2=1\n"
            "density: named:sum-power-exp(ell)\nparams: ell:nonneg-int:0..10\n"
        )
        assert fam.kind == "sum-power-exp"
        assert fam.kind_symbol == "ell"

    def test_shapes_accept_fractions(self):
        fam = parse_density_spec(
            "family: s\ndomain: orthant-gamma\nshapes: k1=5/2 k2=3\ndensity: 1\n"
        )
        assert fam.base.shape_x == Fraction(5, 2)
        assert fam.base.shape_y == Fraction(3)

    def test_unknown_domain(self):
        with pytest.raises(DslSyntaxError, match="domain"):
            parse_density_spec("family: f\ndomain: torus\ndensity: 1\n")

    def test_duplicate_key(self):
        with pytest.raises(DslSyntaxError):
            parse_density_spec(
                "family: f\nfamily: g\ndomain: unit-box\ndensity: 1\n"
            )


class TestPositionedErrors:
    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_density_spec(box_spec("a +* x", params="a:none"))
        assert "line 3" in str(exc.value)
        assert "col" in str(exc.value)

    def test_undeclared_symbol_names_it(self):
        with pytest.raises(UndeclaredSymbol, match="'q'"):
            parse_density_spec(box_spec("q*x"))

    def test_reserved_variable_names(self):
        with pytest.raises(DslSyntaxError, match="reserved"):
            parse_density_spec(box_spec("x", params="x:none"))
        with pytest.raises(DslSyntaxError, match="reserved"):
            parse_density_spec(box_spec("y", params="PI:none"))

    def test_negative_exponent(self):
        with pytest.raises(NonPolynomialInXY, match="non-polynomial"):
            parse_density_spec(box_spec("x^-1"))

    def test_division_only_between_integers(self):
        with pytest.raises(DslSyntaxError, match="between integer literals"):
            parse_density_spec(box_spec("1/x"))


class TestCaps:
    def test_xy_exponent_cap(self):
        assert MAX_XY_EXP == 32
        parse_density_spec(box_spec(f"x^{MAX_XY_EXP}"))
        with pytest.raises(ExponentBoundExceeded):
            parse_density_spec(box_spec(f"x^{MAX_XY_EXP + 1}"))

    def test_power_cap(self):
        assert MAX_POW == 64
        with pytest.raises(ExponentBoundExceeded):
            parse_density_spec(
                box_spec(f"a^{MAX_POW + 1}", params="a:none")
            )

    def test_depth_cap(self):
        assert MAX_DEPTH == 64
        deep = "(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1)
        with pytest.raises(DslError):
            parse_density_spec(box_spec(deep))

    def test_term_cap_documented(self):
        assert MAX_TERMS == 20000

    def test_product_pair_cap_is_checked_before_multiplying(self, monkeypatch):
        assert MAX_PRODUCT_PAIRS == 10**6
        spec = box_spec("(a + b)*(c + d)", params="a:none, b:none, c:none, d:none")
        monkeypatch.setattr(dsl, "MAX_PRODUCT_PAIRS", 4)
        parse_density_spec(spec)
        monkeypatch.setattr(dsl, "MAX_PRODUCT_PAIRS", 3)
        with pytest.raises(ExponentBoundExceeded, match="exceeds 3 term products"):
            parse_density_spec(spec)

    def test_huge_product_exits_two_quickly(self, tmp_path, capsys):
        # 19448 x 19448 term products would take minutes to form
        power = "(a+b+c+d+e+f+g+h)^10"
        spec = tmp_path / "huge.zii"
        spec.write_text(
            box_spec(f"{power} * {power}", params=", ".join(f"{p}:none" for p in "abcdefgh"))
        )
        start = time.perf_counter()
        assert cli.main(["equations", "--spec", str(spec), "--degree", "1"]) == 2
        assert time.perf_counter() - start < 10
        assert "exceeds 1000000 term products" in capsys.readouterr().err


class TestFuzz:
    ALPHABET = "xy+-*/^()0123456789ab :\n."

    def test_ten_thousand_random_inputs_do_not_crash(self):
        rng = random.Random(99)
        header = "family: f\ndomain: unit-box\n"
        for _ in range(10_000):
            body = "".join(
                rng.choice(self.ALPHABET) for _ in range(rng.randint(0, 60))
            )
            text = header + "density: " + body + "\nparams: a:none, b:none\n"
            try:
                parse_density_spec(text)
            except DslError as err:
                # every rejection is a positioned, typed error
                assert str(err)
            # any non-DslError escape would fail the test by raising

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=ALPHABET, max_size=80))
    def test_hypothesis_driven_inputs(self, body):
        text = f"family: f\ndomain: unit-box\ndensity: {body}\nparams: a:none, b:none\n"
        try:
            parse_density_spec(text)
        except DslError:
            pass
