"""Deterministic report rendering, shared by the CLI and the tests.

Every report exists in two forms built from one payload: stable
human-readable text and machine-readable JSON (sorted keys, exact
rationals as strings).  Neither form contains timing, paths, or
anything else that could differ between runs configured identically;
a short digest of the payload makes reproducibility checks one-line.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Mapping

from . import __version__
from .collapse import CollapseReport, SolutionAnalysis
from .equations import EquationSystem, ZiiMask
from .inverse import ExactInverse
from .moments import MomentMatrix

__all__ = [
    "finalize",
    "to_json_text",
    "mask_payload",
    "matrix_payload",
    "inverse_payload",
    "equations_payload",
    "collapse_payload",
    "render_mask_ascii",
    "render_mask_svg",
    "human_lines",
]


def frac(value: Fraction) -> str:
    return str(value)


def point_payload(point: Mapping[str, Fraction]) -> dict:
    return {name: frac(v) for name, v in point.items()}


def finalize(command: str, arguments: dict, results: dict) -> dict:
    payload = {
        "version": __version__,
        "command": command,
        "arguments": arguments,
        "results": results,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    payload["digest"] = digest
    return payload


def to_json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- payload builders -------------------------------------------------------


def mask_payload(mask: ZiiMask) -> dict:
    return {
        "degree": mask.degree,
        "basis": list(mask.basis.labels),
        "size": len(mask.basis),
        "pairs": [
            {
                "row": r + 1,
                "col": c + 1,
                "labels": [mask.basis.label(r), mask.basis.label(c)],
            }
            for r, c in mask.pairs
        ],
        "count": len(mask.pairs),
    }


def matrix_payload(matrix: MomentMatrix) -> dict:
    return {
        "family": matrix.family.name,
        "degree": matrix.degree,
        "basis": list(matrix.basis.labels),
        "entries": [[e.to_text() for e in row] for row in matrix.entries],
    }


def inverse_payload(matrix: MomentMatrix, inv: ExactInverse) -> dict:
    payload = {
        "family": matrix.family.name,
        "degree": matrix.degree,
        "basis": list(matrix.basis.labels),
        "determinant": inv.determinant.to_text(),
        "adjugate": [[e.to_text() for e in row] for row in inv.adjugate],
    }
    try:
        payload["inverse"] = [[frac(v) for v in row] for row in inv.rational_entries()]
    except ValueError:
        pass  # symbolic entries: the adjugate/determinant pair is the answer
    return payload


def equations_payload(system: EquationSystem) -> dict:
    return {
        "degree": system.degree,
        "count": len(system.entries),
        "equations": [
            {
                "poly": entry.poly.to_text(),
                "pairs": [
                    {
                        "row": r + 1,
                        "col": c + 1,
                        "labels": [system.basis.label(r), system.basis.label(c)],
                    }
                    for r, c in entry.pairs
                ],
            }
            for entry in system.entries
        ],
    }


def analysis_payload(analysis: SolutionAnalysis) -> dict:
    out = {
        "status": analysis.status.value,
        "residual": list(analysis.residual),
        "eliminations": [{"symbol": s, "value": t} for s, t in analysis.eliminations],
        "witnesses": [point_payload(w.as_dict()) for w in analysis.witnesses],
        "intervals": [
            {"symbol": s, "low": frac(lo), "high": frac(hi)}
            for s, lo, hi in analysis.intervals
        ],
        "notes": list(analysis.notes),
    }
    if analysis.grid is not None:
        g = analysis.grid
        out["grid"] = {
            "symbols": list(g.symbols),
            "axis_sizes": list(g.axis_sizes),
            "total_points": g.total_points,
            "sign_counts": [
                {"negative": n, "zero": z, "positive": p} for n, z, p in g.sign_counts
            ],
        }
    return out


def collapse_payload(report: CollapseReport) -> dict:
    return {
        "family": report.family_name,
        "max_degree": report.max_degree,
        "order": report.order,
        "degrees": [
            {
                "degree": e.degree,
                "new_equations": [p.to_text() for p in e.system.polys()],
                "cumulative": list(e.cumulative),
                "analysis": analysis_payload(e.analysis),
                "verdicts": [
                    {"witness": point_payload(w.as_dict()), "verdict": v.value}
                    for w, v in e.verdicts
                ],
                "collapsed": e.collapsed,
            }
            for e in report.entries
        ],
    }


# -- mask pictures ---------------------------------------------------------------


def render_mask_ascii(mask: ZiiMask) -> str:
    """Dot pattern: '•' marks entries allowed to be nonzero, '.' forced zeros."""
    n = len(mask.basis)
    masked = set(mask.pairs) | {(c, r) for r, c in mask.pairs}
    lines = []
    width = max(len(lbl) for lbl in mask.basis.labels)
    for r in range(n):
        cells = ["." if (r, c) in masked else "•" for c in range(n)]
        lines.append(f"{mask.basis.label(r):>{width}}  " + " ".join(cells))
    return "\n".join(lines) + "\n"


def render_mask_svg(mask: ZiiMask, cell: int = 20) -> str:
    """Blue dots mark entries allowed to be nonzero; forced zeros stay blank."""
    n = len(mask.basis)
    masked = set(mask.pairs) | {(c, r) for r, c in mask.pairs}
    margin = 4
    size = n * cell + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for r in range(n):
        for c in range(n):
            cx = margin + c * cell + cell // 2
            cy = margin + r * cell + cell // 2
            if (r, c) in masked:
                parts.append(
                    f'<circle cx="{cx}" cy="{cy}" r="{cell // 8}" fill="none" '
                    f'stroke="#bbbbbb" stroke-width="1">'
                    f"<title>({mask.basis.label(r)}, {mask.basis.label(c)}): forced zero"
                    f"</title></circle>"
                )
            else:
                parts.append(
                    f'<circle cx="{cx}" cy="{cy}" r="{cell // 3}" fill="#2b6cb0">'
                    f"<title>({mask.basis.label(r)}, {mask.basis.label(c)})</title>"
                    f"</circle>"
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- human text --------------------------------------------------------------------


def _human_mask(results: dict) -> list[str]:
    lines = [f"degree: {results['degree']}", f"basis: {', '.join(results['basis'])}"]
    lines.append(f"mask positions ({results['count']}):")
    for p in results["pairs"]:
        lines.append(
            f"  ({p['row']}, {p['col']})  =  ({p['labels'][0]}, {p['labels'][1]})"
        )
    return lines


def _human_matrix(results: dict) -> list[str]:
    lines = [
        f"family: {results['family']}",
        f"degree: {results['degree']}",
        f"basis: {', '.join(results['basis'])}",
        "entries:",
    ]
    for label, row in zip(results["basis"], results["entries"]):
        lines.append(f"  row {label}:")
        for col_label, e in zip(results["basis"], row):
            lines.append(f"    [{label} | {col_label}]  {e}")
    return lines


def _human_inverse(results: dict) -> list[str]:
    lines = [
        f"family: {results['family']}",
        f"degree: {results['degree']}",
        f"determinant: {results['determinant']}",
    ]
    if "inverse" in results:
        lines.append("inverse (rational entries):")
        for label, row in zip(results["basis"], results["inverse"]):
            lines.append(f"  {label}:  " + "  ".join(row))
    lines.append("adjugate:")
    for label, row in zip(results["basis"], results["adjugate"]):
        lines.append(f"  row {label}:")
        for col_label, e in zip(results["basis"], row):
            lines.append(f"    [{label} | {col_label}]  {e}")
    return lines


def _human_equations(results: dict) -> list[str]:
    lines = [f"degree: {results['degree']}", f"equations: {results['count']}"]
    for k, entry in enumerate(results["equations"], start=1):
        lines.append(f"  [{k}] {entry['poly']} = 0")
        for p in entry["pairs"]:
            lines.append(
                f"      from ({p['labels'][0]}, {p['labels'][1]}) "
                f"at ({p['row']}, {p['col']})"
            )
    return lines


def _human_analysis(analysis: dict, indent: str) -> list[str]:
    lines = [f"{indent}status: {analysis['status']}"]
    for e in analysis["eliminations"]:
        lines.append(f"{indent}eliminated: {e['symbol']} = {e['value']}")
    if analysis["residual"]:
        lines.append(f"{indent}residual system:")
        for t in analysis["residual"]:
            lines.append(f"{indent}  {t} = 0")
    if analysis["witnesses"]:
        lines.append(f"{indent}witnesses: {len(analysis['witnesses'])}")
        first = analysis["witnesses"][0]
        shown = ", ".join(f"{k} = {v}" for k, v in sorted(first.items()))
        lines.append(f"{indent}  first: {shown if shown else '(empty)'}")
    for iv in analysis["intervals"]:
        lines.append(
            f"{indent}irrational root of {iv['symbol']} in ({iv['low']}, {iv['high']}]"
        )
    if "grid" in analysis:
        g = analysis["grid"]
        lines.append(
            f"{indent}grid: {g['total_points']} points over {', '.join(g['symbols'])}"
        )
        for t, sc in zip(analysis["residual"], g["sign_counts"]):
            lines.append(
                f"{indent}  signs of {t}: {sc['negative']} neg, "
                f"{sc['zero']} zero, {sc['positive']} pos"
            )
    for note in analysis["notes"]:
        lines.append(f"{indent}note: {note}")
    return lines


def _human_collapse(results: dict) -> list[str]:
    lines = [f"family: {results['family']}", f"max degree: {results['max_degree']}"]
    for d in results["degrees"]:
        lines.append(f"degree {d['degree']}:")
        lines.append(f"  new equations: {len(d['new_equations'])}")
        for t in d["new_equations"]:
            lines.append(f"    {t} = 0")
        lines.extend(_human_analysis(d["analysis"], "  "))
        for v in d["verdicts"]:
            shown = ", ".join(f"{k} = {val}" for k, val in sorted(v["witness"].items()))
            lines.append(f"  witness {shown if shown else '(empty)'}: {v['verdict']}")
        lines.append(f"  collapsed: {'yes' if d['collapsed'] else 'no'}")
    order = results["order"]
    lines.append(f"collapse order: {order if order is not None else 'not found'}")
    return lines


def _human_check(results: dict) -> list[str]:
    lines = [f"family: {results['family']}"]
    shown = ", ".join(f"{k} = {v}" for k, v in sorted(results["point"].items()))
    lines.append(f"point: {shown if shown else '(empty)'}")
    lines.append(f"product form: {results['verdict']}")
    if "factorization" in results:
        f = results["factorization"]
        lines.append(
            f"moment factorization residuals E[x^p y^q] - E[x^p] E[y^q] "
            f"up to ({f['max_p']}, {f['max_q']}), rows p, columns q = 0..{f['max_q']}:"
        )
        table = {(r["p"], r["q"]): r["residual"] for r in f["residuals"]}
        for p in range(f["max_p"] + 1):
            row = "  ".join(table[(p, q)] for q in range(f["max_q"] + 1))
            lines.append(f"  p={p}:  {row}")
        lines.append(f"max |residual| = {f['max_abs']}")
    if "inverse_mask" in results:
        m = results["inverse_mask"]
        unit = "" if m["unit"] == "1" else f", in units of {m['unit']}"
        lines.append(
            f"mask entries of the inverse at degree {m['degree']}{unit}: "
            f"max |entry| = {m['max_abs']}"
        )
    return lines


_HUMAN = {
    "mask": _human_mask,
    "matrix": _human_matrix,
    "inverse": _human_inverse,
    "equations": _human_equations,
    "collapse": _human_collapse,
    "check": _human_check,
}


def human_lines(payload: dict) -> str:
    body = _HUMAN[payload["command"]](payload["results"])
    body.append(f"digest: {payload['digest']}")
    return "\n".join(body) + "\n"
