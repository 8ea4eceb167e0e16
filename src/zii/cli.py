"""Command-line surface: mask, matrix, inverse, equations, collapse, check.

Output on stdout is byte-deterministic for identical inputs; wall-clock
timing goes to stderr only.
Exit codes: 0 success, 2 parse errors, 3 singular matrix, 4 unsupported
request, 5 constraint violation at a point.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from itertools import chain
from pathlib import Path

from .collapse import (
    DEFAULT_GRID_POINTS,
    check_product_form,
    collapse_order,
    moment_factorization_check,
)
from .dsl import parse_density_spec
from .equations import compute_mask, zii_equations
from .errors import (
    ArgumentOutOfRange,
    ConstraintViolation,
    DegreeOutOfRange,
    DslError,
    DslSyntaxError,
    SingularMatrix,
    ZiiError,
)
from .inverse import det_and_cofactors, invert_exact
from .measures import BUILTIN_FAMILIES, DensityFamily
from .moments import build_matrix
from .reports import (
    collapse_payload,
    equations_payload,
    finalize,
    frac,
    human_lines,
    inverse_payload,
    mask_payload,
    matrix_payload,
    point_payload,
    render_mask_ascii,
    render_mask_svg,
    to_json_text,
)
from .symbols import PI_NAME

MASK_DEGREE_CAP = 14


def _add_family_args(sub: argparse.ArgumentParser):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", metavar="FILE", help="density spec file")
    group.add_argument(
        "--family",
        choices=sorted(BUILTIN_FAMILIES),
        help="one of the built-in families",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zii",
        description="moment matrices, zeros-in-the-inverse equations, collapse search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="render the forced-zero pattern of the inverse")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--format", choices=("ascii", "svg", "report"), default="ascii")
    p.add_argument("--out", metavar="FILE", help="write the machine-readable report")

    for name, help_text in (
        ("matrix", "print the exact moment matrix"),
        ("inverse", "print determinant and adjugate (and inverse when constant)"),
        ("equations", "print the stripped mask equations"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_family_args(p)
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("collapse", help="search for the parameter collapse order")
    _add_family_args(p)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--witnesses", type=int, default=None, metavar="N",
                   help="cap on admitted witnesses per degree (at least 1)")
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS, metavar="N",
                   help="sample points per parameter in the grid fallback (at least 2)")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("check", help="product-form and inverse-mask checks at a point")
    _add_family_args(p)
    p.add_argument("--at", default="", metavar="k=v,...",
                   help="parameter assignment (exact rationals)")
    p.add_argument("--degree", type=int, default=None,
                   help="also report the exact mask entries of the inverse "
                        f"moment matrix at this degree (0..{MASK_DEGREE_CAP})")
    p.add_argument("--max-pq", type=int, default=3, metavar="N",
                   help="orders covered by the factorization residual table "
                        f"(0..{MASK_DEGREE_CAP})")
    p.add_argument("--out", metavar="FILE")
    return parser


def _load_family(args) -> DensityFamily:
    if args.family:
        return BUILTIN_FAMILIES[args.family]()
    try:
        text = Path(args.spec).read_text()
    except OSError as e:
        raise DslSyntaxError(f"cannot read spec file: {e}")
    return parse_density_spec(text)


def _family_argument(args) -> dict:
    return {"family": args.family} if args.family else {"spec": args.spec}


def _parse_point(text: str) -> dict[str, Fraction]:
    point: dict[str, Fraction] = {}
    if not text.strip():
        return point
    for chunk in text.split(","):
        if "=" not in chunk:
            raise DslSyntaxError(f"expected name=value, got {chunk.strip()!r}")
        name, value = chunk.split("=", 1)
        name = name.strip()
        try:
            point[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise DslSyntaxError(f"bad rational {value.strip()!r} for {name!r}") from None
    return point


def _check_degree_cap(degree: int, cap: int = MASK_DEGREE_CAP):
    if degree < 0 or degree > cap:
        raise DegreeOutOfRange(f"degree must lie in 0..{cap}, got {degree}")


def _check_range(flag: str, value: int, low: int, high: int | None = None):
    if value < low or (high is not None and value > high):
        allowed = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ArgumentOutOfRange(f"{flag} must be {allowed}, got {value}")


def _run_mask(args) -> tuple[dict, str]:
    _check_degree_cap(args.degree)
    mask = compute_mask(args.degree)
    payload = finalize("mask", {"degree": args.degree, "format": args.format},
                       mask_payload(mask))
    if args.format == "ascii":
        return payload, render_mask_ascii(mask)
    if args.format == "svg":
        return payload, render_mask_svg(mask)
    return payload, human_lines(payload)


def _run_matrix(args) -> tuple[dict, str]:
    family = _load_family(args)
    matrix = build_matrix(family, args.degree)
    payload = finalize(
        "matrix", {**_family_argument(args), "degree": args.degree},
        matrix_payload(matrix),
    )
    return payload, human_lines(payload)


def _run_inverse(args) -> tuple[dict, str]:
    family = _load_family(args)
    matrix = build_matrix(family, args.degree)
    inv = invert_exact(matrix)
    payload = finalize(
        "inverse", {**_family_argument(args), "degree": args.degree},
        inverse_payload(matrix, inv),
    )
    return payload, human_lines(payload)


def _run_equations(args) -> tuple[dict, str]:
    family = _load_family(args)
    system = zii_equations(family, args.degree)
    payload = finalize(
        "equations", {**_family_argument(args), "degree": args.degree},
        equations_payload(system),
    )
    return payload, human_lines(payload)


def _run_collapse(args) -> tuple[dict, str]:
    _check_degree_cap(args.max_degree)
    _check_range("--grid-points", args.grid_points, 2)
    if args.witnesses is not None:
        _check_range("--witnesses", args.witnesses, 1)
    family = _load_family(args)
    kwargs = {"grid_points": args.grid_points}
    if args.witnesses is not None:
        kwargs["witness_cap"] = args.witnesses
    report = collapse_order(family, args.max_degree, **kwargs)
    arguments = {
        **_family_argument(args),
        "max_degree": args.max_degree,
        "grid_points": args.grid_points,
    }
    if args.witnesses is not None:
        arguments["witnesses"] = args.witnesses
    payload = finalize("collapse", arguments, collapse_payload(report))
    return payload, human_lines(payload)


def _inverse_mask(family: DensityFamily, point: dict[str, Fraction], degree: int) -> dict:
    """The mask entries of M_d^(-1) at a checked point, exactly.

    Every moment at the point must be a rational times one power PI^k
    (k = 1 on the disk, 0 elsewhere); then each entry of the inverse, a
    cofactor over the determinant, is a rational over PI^k.
    """
    matrix = build_matrix(family, degree)
    at = {p: p.substitute(point) for p in set(chain.from_iterable(matrix.entries))}
    pi = family.table.index(PI_NAME)
    powers = {e[pi] for p in at.values() for e in p.terms}
    if len(powers) > 1:
        raise ConstraintViolation("the moments at this point mix powers of the constant PI")
    mask = compute_mask(degree)
    rows = [[at[p] for p in row] for row in matrix.entries]
    det, cofactors = det_and_cofactors(rows, mask.pairs)
    if det.is_zero:
        raise SingularMatrix(f"the moment matrix at degree {degree} is singular at this point")
    (d,) = det.terms.values()
    entries = [sum(c.terms.values(), Fraction(0)) / d for c in cofactors]
    k = powers.pop()
    return {
        "degree": degree,
        "unit": "1" if k == 0 else "1/PI" if k == 1 else f"1/PI^{k}",
        "max_abs": frac(max(map(abs, entries), default=Fraction(0))),
        "entries": [
            {"row": r + 1, "col": c + 1, "value": frac(v)}
            for (r, c), v in zip(mask.pairs, entries)
        ],
    }


def _run_check(args) -> tuple[dict, str]:
    _check_range("--max-pq", args.max_pq, 0, MASK_DEGREE_CAP)
    if args.degree is not None:
        _check_degree_cap(args.degree)
    family = _load_family(args)
    point = _parse_point(args.at)
    verdict = check_product_form(family, point)
    point = family.check_point(point)
    results = {
        "family": family.name,
        "point": point_payload(point),
        "verdict": verdict.value,
    }
    fact = moment_factorization_check(family, point, args.max_pq, args.max_pq)
    results["factorization"] = {
        "max_p": args.max_pq,
        "max_q": args.max_pq,
        "max_abs": frac(fact.max_abs),
        "residuals": [
            {"p": p, "q": q, "residual": frac(v)} for (p, q), v in fact.residuals
        ],
    }
    arguments = {**_family_argument(args), "at": args.at, "max_pq": args.max_pq}
    if args.degree is not None:
        results["inverse_mask"] = _inverse_mask(family, point, args.degree)
        arguments["degree"] = args.degree
    payload = finalize("check", arguments, results)
    return payload, human_lines(payload)


_RUNNERS = {
    "mask": _run_mask,
    "matrix": _run_matrix,
    "inverse": _run_inverse,
    "equations": _run_equations,
    "collapse": _run_collapse,
    "check": _run_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        payload, text = _RUNNERS[args.command](args)
    except DslError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SingularMatrix as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ConstraintViolation as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except ZiiError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    if getattr(args, "out", None):
        Path(args.out).write_text(to_json_text(payload))
    sys.stdout.write(text)
    print(f"elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
