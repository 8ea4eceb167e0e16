"""Collapse-order search and product-form verdicts for the shipped families."""

from __future__ import annotations

import functools
import hashlib
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_defs import sampled_analysis_fraction, sampled_analysis_slices
from zii import collapse
from zii.collapse import (
    DEFAULT_GRID_POINTS,
    ProductVerdict,
    SolveStatus,
    Witness,
    analyze_system,
    check_product_form,
    collapse_order,
    default_bounds,
    grid_lattice,
    grid_values,
    moment_factorization_check,
)
from zii.dsl import parse_density_spec, parse_expression
from zii.errors import ArgumentOutOfRange, ConstraintViolation, MissingSymbol
from zii.poly import Poly
from zii.reports import collapse_payload, to_json_text
from zii.roots import rational_roots
from zii.measures import (
    BUILTIN_FAMILIES,
    Assumption,
    ParamDecl,
    bilinear_box,
    disk_quadratic,
    product_exponential,
    sum_power_exp,
)

F = Fraction


class TestGrids:
    def test_default_bounds_by_assumption(self):
        assert default_bounds(ParamDecl("t", Assumption.NONE, None, None)) == (
            F(-2),
            F(2),
        )
        assert default_bounds(ParamDecl("t", Assumption.POSITIVE, None, None)) == (
            F(1, 10),
            F(2),
        )
        assert default_bounds(ParamDecl("t", Assumption.NONNEG_INT, None, None)) == (
            F(0),
            F(10),
        )

    def test_declared_bounds_win(self):
        decl = ParamDecl("t", Assumption.NONE, F(-1), F(3))
        assert default_bounds(decl) == (F(-1), F(3))

    def test_grid_is_uniform_and_inclusive(self):
        decl = ParamDecl("t", Assumption.NONE, F(0), F(1))
        vals = grid_values(decl, 5)
        assert vals == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]

    def test_nonneg_int_grid_is_integers(self):
        decl = ParamDecl("ell", Assumption.NONNEG_INT, F(0), F(10))
        vals = grid_values(decl, DEFAULT_GRID_POINTS)
        assert vals == [F(k) for k in range(11)]

    def test_pinned_parameter_single_value(self):
        decl = ParamDecl("v", Assumption.POSITIVE, F(1), F(1))
        assert grid_values(decl, 21) == [F(1)]

    @pytest.mark.parametrize(
        "decl, points, lattice",
        [
            (ParamDecl("t", Assumption.NONE, F(0), F(1)), 5, (F(0), F(1, 4), 5)),
            (ParamDecl("v", Assumption.POSITIVE, F(1), F(1)), 21, (F(1), F(1), 1)),
            (ParamDecl("n", Assumption.NONNEG_INT, F(0), F(40)), 21, (F(0), F(2), 21)),
            (ParamDecl("n", Assumption.NONNEG_INT, F(3), F(50)), 21, (F(3), F(3), 16)),
            (ParamDecl("n", Assumption.NONNEG_INT, F(1, 2), F(3, 2)), 21, (F(1), F(1), 1)),
            (ParamDecl("n", Assumption.NONNEG_INT, F(1, 3), F(2, 3)), 21, (F(1), F(1), 0)),
        ],
    )
    def test_lattice_generates_the_grid(self, decl, points, lattice):
        a, b, n = grid_lattice(decl, points)
        assert (a, b, n) == lattice
        assert b > 0
        assert grid_values(decl, points) == [a + b * k for k in range(n)]


class TestCollapseOrders:
    def test_product_exponential_collapses_immediately(self):
        report = collapse_order(product_exponential(), 3)
        assert report.order == 1
        entry = report.entry(1)
        assert entry.analysis.status is SolveStatus.TRIVIAL
        assert entry.collapsed

    def test_sum_power_exp_order_one_with_integer_witness(self):
        report = collapse_order(sum_power_exp(), 3)
        assert report.order == 1
        entry = report.entry(1)
        assert entry.analysis.status is SolveStatus.EXACT
        witnesses = [w for w, _ in entry.verdicts]
        assert [w.text() for w in witnesses] == ["ell = 0"]
        verdicts = [v for _, v in entry.verdicts]
        assert verdicts == [ProductVerdict.PRODUCT_FORM]

    def test_bilinear_order_one_sampled(self):
        report = collapse_order(bilinear_box(), 2)
        assert report.order == 1
        entry = report.entry(1)
        assert entry.analysis.status is SolveStatus.SAMPLED
        assert entry.collapsed
        assert len(entry.analysis.witnesses) > 0
        for w, verdict in entry.verdicts:
            assert verdict is ProductVerdict.PRODUCT_FORM

    def test_disk_never_collapses(self):
        report = collapse_order(disk_quadratic(), 2)
        assert report.order is None
        d1 = report.entry(1)
        # b + c = 0 has solutions, but the carrier region is not a product
        assert d1.analysis.status is SolveStatus.EXACT
        assert len(d1.verdicts) >= 1
        assert all(v is ProductVerdict.DOMAIN_NOT_PRODUCT for _, v in d1.verdicts)
        assert not d1.collapsed
        d2 = report.entry(2)
        assert not d2.collapsed

    def test_stop_at_first_prunes_later_degrees(self):
        report = collapse_order(sum_power_exp(), 3, stop_at_first=True)
        assert [e.degree for e in report.entries] == [1]
        full = collapse_order(sum_power_exp(), 3, stop_at_first=False)
        assert [e.degree for e in full.entries] == [1, 2, 3]
        assert full.order == 1

    def test_cumulative_union_grows(self):
        report = collapse_order(disk_quadratic(), 2, stop_at_first=False)
        c1 = set(report.entry(1).cumulative)
        c2 = set(report.entry(2).cumulative)
        assert c1 <= c2


class TestArguments:
    @pytest.mark.parametrize("kwargs", [
        {"grid_points": 1}, {"grid_points": 0}, {"witness_cap": 0}, {"witness_cap": -1},
    ])
    def test_collapse_order_rejects_out_of_range(self, kwargs):
        with pytest.raises(ArgumentOutOfRange):
            collapse_order(bilinear_box(), 1, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"grid_points": 1}, {"grid_points": 0}, {"witness_cap": 0}, {"witness_cap": -1},
    ])
    def test_analyze_system_rejects_out_of_range(self, kwargs):
        fam = bilinear_box()
        with pytest.raises(ArgumentOutOfRange):
            analyze_system([residual(fam, "a00*a11 - a01*a10")], fam, **kwargs)

    def test_smallest_values_are_accepted(self):
        report = collapse_order(bilinear_box(), 1, grid_points=2, witness_cap=1)
        analysis = report.entry(1).analysis
        assert analysis.grid.axis_sizes == (2, 2, 2, 2)
        assert len(analysis.witnesses) == 1


class TestWitnessVerdicts:
    def test_spe_witness_is_product_form(self):
        fam = sum_power_exp()
        assert check_product_form(fam, {"ell": 0}) is ProductVerdict.PRODUCT_FORM
        assert check_product_form(fam, {"ell": 2}) is ProductVerdict.NOT_PRODUCT_FORM

    def test_bilinear_rank_one_is_product_form(self):
        fam = bilinear_box()
        ok = {"a00": 1, "a01": 2, "a10": 3, "a11": 6}
        bad = {"a00": 1, "a01": 1, "a10": 1, "a11": 2}
        assert check_product_form(fam, ok) is ProductVerdict.PRODUCT_FORM
        assert check_product_form(fam, bad) is ProductVerdict.NOT_PRODUCT_FORM
        # x (3 + 6y): the grid's first row is zero and its rank is still 1
        zero_row = {"a00": 0, "a01": 0, "a10": 3, "a11": 6}
        assert check_product_form(fam, zero_row) is ProductVerdict.PRODUCT_FORM
        # x + y: a zero corner and rank 2
        anti_diagonal = {"a00": 0, "a01": 1, "a10": 1, "a11": 0}
        assert check_product_form(fam, anti_diagonal) is ProductVerdict.NOT_PRODUCT_FORM

    def test_disk_is_domain_limited(self):
        fam = disk_quadratic()
        at = {"a": 2, "b": 1, "c": 1, "d": 1, "v": 1}
        assert check_product_form(fam, at) is ProductVerdict.DOMAIN_NOT_PRODUCT

    def test_check_rejects_invalid_point(self):
        with pytest.raises(ConstraintViolation):
            check_product_form(sum_power_exp(), {"ell": -3})


class TestFactorization:
    def test_spe_zero_is_exactly_product(self):
        rep = moment_factorization_check(sum_power_exp(), {"ell": 0}, 3, 3)
        assert rep.max_abs == 0
        assert all(v == 0 for _, v in rep.residuals)

    def test_spe_one_known_residual(self):
        rep = moment_factorization_check(sum_power_exp(), {"ell": 1}, 3, 3)
        assert rep.residual(1, 1) == F(-1, 4)
        assert rep.residual(0, 0) == 0
        assert rep.residual(2, 0) == 0  # marginals match themselves
        assert rep.max_abs > 0

    def test_bilinear_product_point_all_zero(self):
        rep = moment_factorization_check(
            bilinear_box(), {"a00": 1, "a01": 2, "a10": 3, "a11": 6}, 3, 3
        )
        assert rep.max_abs == 0

    def test_disk_residual_is_rational_after_pi_cancels(self):
        rep = moment_factorization_check(
            disk_quadratic(), {"a": 2, "b": 1, "c": 1, "d": 1, "v": 1}, 2, 2
        )
        # covariance survives: E[xy] - E[x]E[y) != 0
        assert rep.residual(1, 1) != 0
        assert isinstance(rep.residual(1, 1), F)

    def test_symmetry_of_residual_table(self):
        rep = moment_factorization_check(sum_power_exp(), {"ell": 2}, 3, 3)
        for p in range(4):
            for q in range(4):
                assert rep.residual(p, q) == rep.residual(q, p)


class TestAnalysisDetails:
    def test_trivial_note_present(self):
        report = collapse_order(product_exponential(), 1)
        notes = " ".join(report.entry(1).analysis.notes)
        assert "stripped to zero" in notes

    def test_spe_elimination_or_exact_solution(self):
        report = collapse_order(sum_power_exp(), 1)
        analysis = report.entry(1).analysis
        assert analysis.status is SolveStatus.EXACT
        assert analysis.residual == ()

    def test_disk_sampled_grid_summary(self):
        report = collapse_order(disk_quadratic(), 2, stop_at_first=False)
        analysis = report.entry(2).analysis
        assert analysis.status is SolveStatus.SAMPLED
        assert analysis.witnesses == ()
        assert analysis.grid is not None
        # only parameters appearing in the residual equations are walked
        assert set(analysis.grid.symbols) <= {"a", "b", "c", "d", "v"}
        assert analysis.grid.total_points > 0

    def test_witness_text_empty(self):
        assert Witness(()).text() == "(empty)"


def residual(family, text):
    return parse_expression(text, family.table, allow_xy=False)[(0, 0)]


def family_from(params, density="1 + x*y", constraints=None):
    spec = f"family: walk\ndomain: unit-box\ndensity: {density}\nparams: {params}\n"
    if constraints:
        spec += f"constraints: {constraints}\n"
    return parse_density_spec(spec)


def walks_agree(monkeypatch, equations, family, **kwargs):
    """The lattice walk and the Fraction-walk oracle give equal analyses."""
    lattice = analyze_system(equations, family, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(collapse, "_sampled_analysis", sampled_analysis_fraction)
        fraction = analyze_system(equations, family, **kwargs)
    assert lattice.status is SolveStatus.SAMPLED
    assert lattice == fraction
    return lattice


class TestLatticeWalkMatchesFractionWalk:
    """Differential checks of the integer lattice walk against the oracle."""

    def reports_agree(self, monkeypatch, family, degree):
        lattice = collapse_order(family, degree, stop_at_first=False)
        with monkeypatch.context() as m:
            m.setattr(collapse, "_sampled_analysis", sampled_analysis_fraction)
            fraction = collapse_order(family, degree, stop_at_first=False)
        for a, b in zip(lattice.entries, fraction.entries):
            assert a.analysis == b.analysis
        assert lattice == fraction
        return lattice

    def test_bilinear_degree_one(self, monkeypatch):
        report = self.reports_agree(monkeypatch, bilinear_box(), 1)
        analysis = report.entry(1).analysis
        assert analysis.status is SolveStatus.SAMPLED
        assert analysis.grid.total_points == 21**4
        assert len(analysis.witnesses) == collapse.WITNESS_CAP

    def test_disk_degree_two_with_pinned_last_axis(self, monkeypatch):
        report = self.reports_agree(monkeypatch, disk_quadratic(), 2)
        grid = report.entry(2).analysis.grid
        assert grid.symbols[-1] == "v"
        assert grid.axis_sizes[-1] == 1

    def test_strided_nonneg_int_axes(self, monkeypatch):
        # z runs over 0, 2, ..., 40 and is the last axis; a*z = 4 and
        # a^2*z = 8 meet at the grid point a = 2, z = 2
        fam = family_from("a:none, z:nonneg-int:0..40")
        analysis = walks_agree(
            monkeypatch, [residual(fam, "a*z - 4"), residual(fam, "a^2*z - 8")], fam
        )
        assert analysis.grid.axis_sizes == (21, 21)
        assert [w.text() for w in analysis.witnesses] == ["a = 2, z = 2"]

    def test_one_integer_range_that_is_not_pinned(self, monkeypatch):
        # m in [1/2, 3/2] holds the one integer 1; off-grid roots of a*m = 1
        # must respect the declared range mapped onto the lattice index
        fam = family_from("a:none, m:nonneg-int:1/2..3/2")
        analysis = walks_agree(monkeypatch, [residual(fam, "a*m - 1")], fam)
        assert analysis.grid.axis_sizes == (21, 1)
        assert [w.text() for w in analysis.witnesses] == ["a = 1, m = 1"]

    def test_last_axis_of_degree_two(self, monkeypatch):
        # t^2 = (a + 2)/a^2 has rational roots at a = -1 and a = 2, among others
        fam = family_from("a:none, t:none")
        analysis = walks_agree(monkeypatch, [residual(fam, "a^2*t^2 - a - 2")], fam)
        assert "a = -1, t = 1" in [w.text() for w in analysis.witnesses]

    def test_fractional_coefficients_and_fractional_lattice(self, monkeypatch):
        # the walk itself sees an unstripped residual with fractional
        # coefficients on axes with fractional starts and steps
        fam = family_from("a:none:1/3..7/4, t:none:-5/6..1/2")
        eq = residual(fam, "1/3*a*t + 1/7*t^2 - 1/2*a + 5/9")
        texts = (eq.to_text(),)
        args = (fam, [eq], ["a", "t"], [], [eq], texts, [], 9, 64)
        assert collapse._sampled_analysis(*args) == sampled_analysis_fraction(*args)

    def test_witness_cap_one(self, monkeypatch):
        fam = family_from("a:none, t:none")
        analysis = walks_agree(
            monkeypatch, [residual(fam, "a*t - 1")], fam, witness_cap=1
        )
        assert len(analysis.witnesses) == 1
        assert "witness collection capped at 1" in analysis.notes

    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.integers(-4, 4),
            max_size=6,
        ),
        st_coeff=st.integers(1, 3) | st.integers(-3, -1),
        second=st.booleans(),
        bounds=st.sampled_from(["", ":-1..3", ":1/2..5/2", ":1..1", ":-3/4.."]),
        grid_points=st.integers(2, 9),
        witness_cap=st.integers(1, 4),
    )
    def test_random_bivariate_systems(
        self, coeffs, st_coeff, second, bounds, grid_points, witness_cap
    ):
        # an s*t term keeps both symbols out of the linear elimination, so
        # every system reaches the sampled walk
        fam = family_from(f"s:none, t:none{bounds}")
        coeffs = {**coeffs, (1, 1): st_coeff}
        text = " + ".join(f"({c})*s^{i}*t^{j}" for (i, j), c in sorted(coeffs.items()))
        equations = [residual(fam, text)]
        if second:
            equations.append(residual(fam, "s*t - 1"))
        with pytest.MonkeyPatch.context() as m:
            walks_agree(
                m, equations, fam, grid_points=grid_points, witness_cap=witness_cap
            )


# declarations of a walked axis: one-point grids (declared or from a
# default bound), one-sided and pinned ranges, strided and empty integer axes
AXIS_DECLS = [
    "none", "none:-1..3", "none:1/3..7/4", "none:1..1", "none:-3/4..", "none:..1/2",
    "none:2..", "positive", "nonneg-int:0..40", "nonneg-int:1/2..3/2",
    "nonneg-int:3..3", "nonneg-int:1/2..1/2",
]


@st.composite
def walked_systems(draw):
    """(family, equations) over 1-4 parameters, degree at most 3 in each.

    Each equation is a random polynomial of degree at most 2 in each
    parameter times a linear form, which vanishes on whole lines of
    lattice points, so on-grid witnesses turn up as well as solved ones.
    """
    names = ["p", "q", "r", "s"][: draw(st.integers(1, 4))]
    decls = [draw(st.sampled_from(AXIS_DECLS)) for _ in names]
    fam = family_from(", ".join(f"{n}:{d}" for n, d in zip(names, decls)))
    small = st.integers(-3, 3)

    def poly(max_exp, max_terms):
        terms = draw(
            st.dictionaries(
                st.tuples(*[st.integers(0, max_exp)] * len(names)), small, min_size=1,
                max_size=max_terms,
            )
        )
        width = [fam.table.names.index(n) for n in names]
        out = {}
        for exps, c in terms.items():
            full = [0] * len(fam.table)
            for i, e in zip(width, exps):
                full[i] = e
            out[tuple(full)] = Fraction(c, draw(st.sampled_from([1, 1, 2, 3])))
        return Poly(fam.table, out)

    equations = [
        poly(2, 4) * poly(1, 2) for _ in range(draw(st.integers(1, 3)))
    ]
    assume(any(e.free_symbols() for e in equations))
    return fam, equations


class TestBlockWalkMatchesSliceWalk:
    """The block walk against the slice-at-a-time walk it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        system=walked_systems(),
        grid_points=st.integers(2, 5),
        witness_cap=st.integers(1, 6),
    )
    def test_random_systems(self, system, grid_points, witness_cap):
        fam, equations = system
        texts = tuple(e.to_text() for e in equations)
        args = (
            fam, equations, list(fam.param_names), [], equations, texts, [],
            grid_points, witness_cap,
        )
        assert collapse._sampled_analysis(*args) == sampled_analysis_slices(*args)

    def test_cap_binds_inside_a_block(self):
        # s*t = 1 on the block s, t in {-2, ..., 2}: row s = -2 gives the
        # solved witness t = -1/2, row s = -1 the on-grid t = -1, and a cap
        # of 2 binds there with three rows of the block left
        fam = family_from("s:none, t:none")
        eq = residual(fam, "s*t - 1")
        args = (fam, [eq], ["s", "t"], [], [eq], (eq.to_text(),), [], 5, 2)
        analysis = collapse._sampled_analysis(*args)
        assert analysis == sampled_analysis_slices(*args)
        assert [w.text() for w in analysis.witnesses] == ["s = -2, t = -1/2", "s = -1, t = -1"]

    def test_single_walked_axis(self):
        fam = family_from("t:none:-3/4..")
        eq = residual(fam, "4*t^2 - 1")
        args = (fam, [eq], ["t"], [], [eq], (eq.to_text(),), [], 7, 64)
        analysis = collapse._sampled_analysis(*args)
        assert analysis == sampled_analysis_slices(*args)
        assert [w.text() for w in analysis.witnesses] == ["t = -1/2", "t = 1/2"]


class TestPinnedLastAxis:
    """The off-grid solve is skipped only where the declared range is one point."""

    def test_one_point_grid_of_a_one_sided_range_is_still_solved(self):
        # b has the declared range [2, oo) and the default upper bound 2, so
        # its grid is the one point 2, but a*b = 6 has solutions with b > 2
        fam = parse_density_spec(
            "family: edge\ndomain: unit-box\ndensity: 1 + a*x + b*y\n"
            "params: a:none, b:none:2..\n"
        )
        analysis = analyze_system([residual(fam, "a*b - 6")], fam)
        assert analysis.grid.axis_sizes == (21, 1)
        assert [w.text() for w in analysis.witnesses] == [
            "a = 1/5, b = 30", "a = 2/5, b = 15", "a = 3/5, b = 10", "a = 4/5, b = 15/2",
            "a = 1, b = 6", "a = 6/5, b = 5", "a = 7/5, b = 30/7", "a = 8/5, b = 15/4",
            "a = 9/5, b = 10/3", "a = 2, b = 3",
        ]

    def test_declared_point_makes_no_solve(self, monkeypatch):
        # disk-quadratic's last walked axis is v, declared 1..1; the slice walk
        # made 441 rational_roots calls here, each one evaluation at v = 1
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return rational_roots(*args, **kwargs)

        monkeypatch.setattr(collapse, "rational_roots", spy)
        report = collapse_order(disk_quadratic(), 2)
        assert report.entry(2).analysis.grid.symbols[-1] == "v"
        assert calls == []


class TestWitnessStorage:
    def test_equal_values_and_pairs_are_shared_within_an_analysis(self):
        first, second = (collapse_order(bilinear_box(), 1).entry(1).analysis for _ in range(2))

        def parts(analysis):
            pairs = [pair for w in analysis.witnesses for pair in w.values]
            return pairs, [v for _, v in pairs]

        for analysis in (first, second):
            pairs, values = parts(analysis)
            assert len(set(pairs)) < len(pairs)
            assert len({id(p) for p in pairs}) == len(set(pairs))
            assert len({id(v) for v in values}) == len(set(values))
        ids = [{id(x) for part in parts(a) for x in part} for a in (first, second)]
        assert not ids[0] & ids[1]

    def test_witness_has_no_instance_dict(self):
        assert not hasattr(Witness(()), "__dict__")


# sha256 of to_json_text(collapse_payload(collapse_order(family, d,
# stop_at_first=False))), recorded with the slice-at-a-time walk
COLLAPSE_PINS = {
    ("product-exponential", 1): "e3cb7e7a7ea651738a4bdc1c6f7979b91529fdc2748354e8d90462d71fbf30d4",
    ("product-exponential", 2): "427c96855bc4db9ee054be28332513d7e5167bd37b193364a5400bf4327dae6a",
    ("product-exponential", 3): "f5a55f9250adfc0300ae30edbcbc06838f875ee3d518be1eb6b32e6dacf2121e",
    ("sum-power-exp", 1): "1d7c9c340aaf6d1d144be3b30c521b6b2233e7e71278980cef1d81e7660837ee",
    ("sum-power-exp", 2): "bf548e55c1f2c8bbe3ebfb413ef85fde392a942d1df63a3e54cde511ccffecdd",
    ("sum-power-exp", 3): "dd61d0c9e0a7bfe35e5ff2693409d53e976263349c216aadbb1cfb56f187388e",
    ("bilinear-box", 1): "0c9d1709426ed2523c64cfa57be1f5d15427604fa15fc17df6d54c10f52fe4ab",
    ("bilinear-box", 2): "8228b47dc6e37a31dd9c134c9b0c61f9458e051dead9d7e6190697228e78dcd9",
    ("bilinear-box", 3): "7519b2a7a1c7255b110fd08b4587e1432021b7134a1f020c32c81c26fc348c8c",
    ("disk-quadratic", 1): "9f650a360c30c5fc6e744f31eba084f0af1114751d2c011131e85c6ac5c8c0ef",
    ("disk-quadratic", 2): "6911940006e3e844d25d7be7502c85e88c1a239c6ec957ae79e387452375c41b",
    ("disk-quadratic", 3): "aa451a740597f04c76f4f5579b43c43afa7005e32648cfe4251a6098c76907d0",
}
SPECS = Path(__file__).resolve().parent.parent / "specs"


@functools.lru_cache(maxsize=None)
def payload_digest(family, degree: int) -> str:
    # cached on the family's value: a spec file equal to its built-in
    # (bilinear-box at d=3 takes seconds) is analyzed once
    report = collapse_order(family, degree, stop_at_first=False)
    return hashlib.sha256(to_json_text(collapse_payload(report)).encode()).hexdigest()


class TestCollapsePins:
    @pytest.mark.parametrize("name, degree", sorted(COLLAPSE_PINS))
    def test_builtin(self, name, degree):
        family = BUILTIN_FAMILIES[name]()
        assert payload_digest(family, degree) == COLLAPSE_PINS[name, degree]

    @pytest.mark.parametrize("name, degree", sorted(COLLAPSE_PINS))
    def test_spec_file(self, name, degree):
        family = parse_density_spec((SPECS / f"{name}.zii").read_text())
        assert payload_digest(family, degree) == COLLAPSE_PINS[name, degree]

    def test_every_spec_file_is_pinned(self):
        assert {p.stem for p in SPECS.glob("*.zii")} == {n for n, _ in COLLAPSE_PINS}


class TestAdmission:
    """Every analysis branch completes witnesses over one admission budget."""

    def test_univariate_roots_complete_another_free_parameter(self):
        # t appears only in a constraint; its first admissible grid value
        # above 1 is 6/5 on the default grid over [-2, 2]
        fam = family_from("a:none, t:none", constraints="t - 1 > 0")
        analysis = analyze_system([residual(fam, "a^2 - 1")], fam)
        assert analysis.status is SolveStatus.EXACT
        assert [w.text() for w in analysis.witnesses] == [
            "a = -1, t = 6/5",
            "a = 1, t = 6/5",
        ]
        assert not any("admission" in n for n in analysis.notes)

    def test_sampled_completion_over_an_inactive_parameter(self, monkeypatch):
        fam = family_from("e:none, s:none, t:none", constraints="e - 1 > 0")
        analysis = walks_agree(monkeypatch, [residual(fam, "s*t - 1")], fam)
        assert analysis.grid.symbols == ("s", "t")
        assert analysis.witnesses
        assert {w.as_dict()["e"] for w in analysis.witnesses} == {F(6, 5)}
        assert "parameters not in the residual equations (e) are gridded only " \
            "when completing a witness" in analysis.notes

    def test_no_equation_scan_notes(self, monkeypatch):
        # a = 3 is forced by the constraint but outside the declared range
        fam = family_from("a:none:-2..2", constraints="a - 3 = 0")
        analysis = analyze_system([], fam)
        assert analysis.status is SolveStatus.EXACT
        assert analysis.witnesses == ()
        assert "determined point fails constraints" in analysis.notes

        # e*f > 100 has no point on the 3 x 3 grid over [-2, 2]^2
        fam = family_from("e:none, f:none", constraints="e*f - 100 > 0")
        analysis = analyze_system([], fam, grid_points=3)
        assert analysis.status is SolveStatus.TRIVIAL
        assert "no admissible grid point satisfies the constraints" in analysis.notes

        # a budget equal to the grid scans it all; one less stops short
        monkeypatch.setattr(collapse, "ADMISSION_BUDGET", 9)
        analysis = analyze_system([], fam, grid_points=3)
        assert "no admissible grid point satisfies the constraints" in analysis.notes
        monkeypatch.setattr(collapse, "ADMISSION_BUDGET", 8)
        analysis = analyze_system([], fam, grid_points=3)
        assert "no admissible point in the first 8 grid points" in analysis.notes
        assert analysis.witnesses == ()

    def test_budget_is_shared_by_every_root(self, monkeypatch):
        # t runs over -2, 0, 2 and only t = 2 is admissible: the first root
        # spends 3 attempts, and the second root is refused its second one
        fam = family_from("a:none, t:none", constraints="t - 1 > 0")
        monkeypatch.setattr(collapse, "ADMISSION_BUDGET", 4)
        analysis = analyze_system([residual(fam, "a^2 - 1")], fam, grid_points=3)
        assert [w.text() for w in analysis.witnesses] == ["a = -1, t = 2"]
        assert "witness admission stopped after 4 attempts" in analysis.notes

    def test_budget_binds_in_the_walk_but_tallies_the_whole_grid(self):
        # the constraint on e, f, g cannot hold on their grids; each candidate
        # would scan 21^3 points, so only the budget ends the search
        fam = family_from(
            "a00:none, a01:none, a10:none, a11:none, e:none, f:none, g:none",
            density="a00 + a10*x + a01*y + a11*x*y",
            constraints="e*f*g - 100 > 0",
        )
        start = time.perf_counter()
        analysis = collapse_order(fam, 1).entry(1).analysis
        assert time.perf_counter() - start < 30
        assert analysis.witnesses == ()
        assert f"witness admission stopped after {collapse.ADMISSION_BUDGET} attempts" \
            in analysis.notes
        assert collapse.ADMISSION_BUDGET == 20_000
        plain = collapse_order(bilinear_box(), 1).entry(1).analysis
        assert analysis.grid == plain.grid

    def test_pi_in_an_elimination_is_rejected(self):
        fam = family_from("a:none, e:none", constraints="e - PI = 0")
        with pytest.raises(ConstraintViolation, match="eliminating e .* PI"):
            analyze_system([residual(fam, "a^2 - 1")], fam)

    @pytest.mark.parametrize("constraint", ["e - PI > 0", "e^2 - PI = 0"])
    def test_pi_in_a_constraint_without_pivot_is_rejected(self, constraint):
        # every admission check would fail on it, so it must not reach the walk
        fam = family_from("a:none, e:none", constraints=constraint)
        with pytest.raises(ConstraintViolation, match="involves the constant PI"):
            analyze_system([residual(fam, "a^2 - 1")], fam)

    def test_admission_faults_are_not_swallowed(self):
        # an elimination that refers to a symbol with no value is a bug in
        # the caller, not an inadmissible point
        fam = family_from("a:none, t:none")
        elim = [("a", Poly.symbol(fam.table, "t"))]
        with pytest.raises(MissingSymbol):
            collapse._admit(fam, {}, elim, [])
