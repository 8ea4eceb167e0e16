"""The density spec mini-language.

A spec file is line based.  Blank lines and lines starting with '#' are
ignored; every other line is `key: value`.  Keys:

    family:       optional name for reports
    domain:       orthant-gamma | unit-box | unit-disk
    shapes:       k1=<rational-or-param> k2=<rational-or-param>
                  (orthant-gamma only; default 1 1)
    density:      polynomial expression in x, y and declared parameters,
                  or the special form named:sum-power-exp(<param>)
    params:       comma separated declarations
                  name[:assumption[:lo..hi]]  with assumption one of
                  none | positive | nonneg-int; either bound may be empty
    constraints:  one relation per line, <expr> (=|>|>=) <expr>,
                  parameters only (x and y are not allowed here)
    scale:        positive rational multiplier for the whole density

Expression grammar (ASCII only; a leading '-' is the one unary form):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ['^' exponent]
    base   := INT ['/' INT] | IDENT | '(' expr ')'

'/' exists only between integer literals, so densities are polynomials
by construction; a negative exponent, as in x^(-1), is reported as
non-polynomial rather than a syntax error.  Hard caps keep parsing total
on arbitrary input: exponents on x and y at most 32, any '^' exponent at
most 64, parenthesis depth at most 64, at most 20000 expanded terms, and
at most 10^6 term products in any one multiplication.
Everything the parser accepts round-trips: render_spec produces canonical
text whose parse compares equal to the original family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DslSyntaxError,
    ExponentBoundExceeded,
    NonPolynomialInXY,
    UndeclaredSymbol,
)
from .measures import (
    SUM_POWER_EXP,
    Constraint,
    DensityFamily,
    OrthantGamma,
    ParamDecl,
    UnitBox,
    UnitDisk,
)
from .poly import Poly
from .symbols import Assumption, PI_NAME, SymbolTable

__all__ = ["parse_density_spec", "parse_expression", "render_spec"]

MAX_XY_EXP = 32
MAX_POW = 64
MAX_DEPTH = 64
MAX_TERMS = 20_000
MAX_PRODUCT_PAIRS = 1_000_000

_RESERVED = ("x", "y", PI_NAME)
_ASSUMPTION_NAMES = {a.value: a for a in Assumption}
_DOMAINS = ("orthant-gamma", "unit-box", "unit-disk")


# -- tokens ---------------------------------------------------------------


@dataclass(frozen=True)
class _Tok:
    kind: str  # INT, IDENT, OP, END
    text: str
    pos: int


_OPS = set("+-*/^()=<>,")


def _tokenize(text: str, line: int) -> list[_Tok]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if not (" " <= ch <= "~") and ch != "\t":
            raise DslSyntaxError(f"non-ASCII character {ch!r}", i, line)
        if ch in " \t":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("IDENT", text[i:j], i))
            i = j
            continue
        if text[i : i + 2] == ">=":
            toks.append(_Tok("OP", ">=", i))
            i += 2
            continue
        if ch in _OPS:
            toks.append(_Tok("OP", ch, i))
            i += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", i, line)
    toks.append(_Tok("END", "", n))
    return toks


# -- polynomial-in-x-y values -------------------------------------------------


class _XY:
    """Intermediate value: map (i, j) -> parameter-polynomial coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], Poly]):
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero}

    def size(self) -> int:
        return sum(max(len(p.terms), 1) for p in self.coeffs.values())

    def add(self, other: "_XY") -> "_XY":
        out = dict(self.coeffs)
        for key, p in other.coeffs.items():
            out[key] = out[key] + p if key in out else p
        return _XY(out)

    def neg(self) -> "_XY":
        return _XY({k: -p for k, p in self.coeffs.items()})

    def mul(self, other: "_XY", pos: int, line: int) -> "_XY":
        # bound the work before it is done: every term pair is one product
        if self.size() * other.size() > MAX_PRODUCT_PAIRS:
            raise ExponentBoundExceeded(
                f"product of {self.size()} and {other.size()} terms exceeds "
                f"{MAX_PRODUCT_PAIRS} term products",
                pos,
                line,
            )
        out: dict[tuple[int, int], Poly] = {}
        for (i1, j1), p1 in self.coeffs.items():
            for (i2, j2), p2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i > MAX_XY_EXP or j > MAX_XY_EXP:
                    raise ExponentBoundExceeded(
                        f"monomial x^{i}*y^{j} exceeds the degree cap {MAX_XY_EXP}",
                        pos,
                        line,
                    )
                prod = p1 * p2
                out[(i, j)] = out[(i, j)] + prod if (i, j) in out else prod
        result = _XY(out)
        if result.size() > MAX_TERMS:
            raise ExponentBoundExceeded(
                f"expansion exceeds {MAX_TERMS} terms", pos, line
            )
        return result

    def pow(self, n: int, pos: int, line: int, table: SymbolTable) -> "_XY":
        result = _XY({(0, 0): Poly.const(table, 1)})
        for _ in range(n):
            result = result.mul(self, pos, line)
        return result


# -- expression parser ----------------------------------------------------------


class _ExprParser:
    def __init__(self, toks: list[_Tok], table: SymbolTable, line: int, allow_xy: bool):
        self.toks = toks
        self.i = 0
        self.table = table
        self.line = line
        self.allow_xy = allow_xy
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, text: str) -> _Tok:
        t = self.peek()
        if t.kind != "OP" or t.text != text:
            raise DslSyntaxError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.pos, self.line)
        return self.take()

    def parse_expr(self) -> _XY:
        t = self.peek()
        if t.kind == "OP" and t.text == "-":
            self.take()
            value = self.parse_term().neg()
        else:
            value = self.parse_term()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text in ("+", "-"):
                self.take()
                rhs = self.parse_term()
                value = value.add(rhs if t.text == "+" else rhs.neg())
            else:
                return value

    def parse_term(self) -> _XY:
        value = self.parse_factor()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text == "*":
                self.take()
                value = value.mul(self.parse_factor(), t.pos, self.line)
            else:
                return value

    def parse_factor(self) -> _XY:
        base = self.parse_base()
        t = self.peek()
        if t.kind == "OP" and t.text == "^":
            self.take()
            n = self.parse_exponent()
            return base.pow(n, t.pos, self.line, self.table)
        return base

    def parse_exponent(self) -> int:
        t = self.peek()
        negative = False
        parens = False
        if t.kind == "OP" and t.text == "(":
            parens = True
            self.take()
            t = self.peek()
        if t.kind == "OP" and t.text == "-":
            negative = True
            self.take()
            t = self.peek()
        if t.kind != "INT":
            raise DslSyntaxError(
                f"exponent must be an integer, found {t.text or 'end of input'!r}",
                t.pos,
                self.line,
            )
        self.take()
        if parens:
            self.expect_op(")")
        value = int(t.text)
        if negative:
            raise NonPolynomialInXY(
                f"negative exponent -{value} makes the expression non-polynomial",
                t.pos,
                self.line,
            )
        if value > MAX_POW:
            raise ExponentBoundExceeded(
                f"exponent {value} exceeds the cap {MAX_POW}", t.pos, self.line
            )
        return value

    def parse_base(self) -> _XY:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise DslSyntaxError("expression nested too deeply", self.peek().pos, self.line)
        try:
            t = self.take()
            if t.kind == "INT":
                num = int(t.text)
                nxt = self.peek()
                if nxt.kind == "OP" and nxt.text == "/":
                    self.take()
                    dt = self.peek()
                    if dt.kind != "INT":
                        raise DslSyntaxError(
                            "'/' is only allowed between integer literals", dt.pos, self.line
                        )
                    self.take()
                    den = int(dt.text)
                    if den == 0:
                        raise DslSyntaxError("zero denominator", dt.pos, self.line)
                    value = Fraction(num, den)
                else:
                    value = Fraction(num)
                return _XY({(0, 0): Poly.const(self.table, value)})
            if t.kind == "IDENT":
                name = t.text
                if name in ("x", "y"):
                    if not self.allow_xy:
                        raise DslSyntaxError(
                            f"{name} may not appear in constraints", t.pos, self.line
                        )
                    key = (1, 0) if name == "x" else (0, 1)
                    return _XY({key: Poly.const(self.table, 1)})
                if name not in self.table:
                    raise UndeclaredSymbol(f"undeclared symbol {name!r}", t.pos, self.line)
                return _XY({(0, 0): Poly.symbol(self.table, name)})
            if t.kind == "OP" and t.text == "(":
                value = self.parse_expr()
                self.expect_op(")")
                return value
            raise DslSyntaxError(
                f"unexpected {t.text or 'end of input'!r}", t.pos, self.line
            )
        finally:
            self.depth -= 1

    def at_end(self) -> bool:
        return self.peek().kind == "END"


def parse_expression(
    text: str, table: SymbolTable, line: int = -1, allow_xy: bool = True
) -> dict[tuple[int, int], Poly]:
    """Parse an expression into its x-y coefficient map of parameter polys."""
    parser = _ExprParser(_tokenize(text, line), table, line, allow_xy)
    value = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "END":
        raise DslSyntaxError(f"trailing input starting at {tok.text!r}", tok.pos, line)
    return value.coeffs


# -- spec files ----------------------------------------------------------------


_KEYS = ("family", "domain", "shapes", "density", "params", "constraints", "scale")


def _parse_rational(text: str, line: int) -> Fraction:
    toks = _tokenize(text, line)
    i = 0
    sign = 1
    if toks[i].kind == "OP" and toks[i].text == "-":
        sign = -1
        i += 1
    if toks[i].kind != "INT":
        raise DslSyntaxError(f"expected a rational, found {text!r}", toks[i].pos, line)
    num = int(toks[i].text)
    i += 1
    den = 1
    if toks[i].kind == "OP" and toks[i].text == "/":
        i += 1
        if toks[i].kind != "INT":
            raise DslSyntaxError("expected denominator", toks[i].pos, line)
        den = int(toks[i].text)
        if den == 0:
            raise DslSyntaxError("zero denominator", toks[i].pos, line)
        i += 1
    if toks[i].kind != "END":
        raise DslSyntaxError(f"trailing input in rational {text!r}", toks[i].pos, line)
    return Fraction(sign * num, den)


def _parse_param_decl(chunk: str, line: int) -> ParamDecl:
    parts = [p.strip() for p in chunk.split(":")]
    if not parts[0]:
        raise DslSyntaxError("empty parameter declaration", -1, line)
    name = parts[0]
    if not (name[0].isalpha() or name[0] == "_") or not all(
        c.isalnum() or c == "_" for c in name
    ):
        raise DslSyntaxError(f"bad parameter name {name!r}", -1, line)
    if name in _RESERVED:
        raise DslSyntaxError(f"{name!r} is reserved and cannot be a parameter", -1, line)
    assumption = Assumption.NONE
    lower = upper = None
    if len(parts) >= 2:
        if parts[1] not in _ASSUMPTION_NAMES:
            raise DslSyntaxError(
                f"unknown assumption {parts[1]!r} (use none, positive, nonneg-int)", -1, line
            )
        assumption = _ASSUMPTION_NAMES[parts[1]]
    if len(parts) >= 3:
        if ".." not in parts[2]:
            raise DslSyntaxError(f"bounds must look like lo..hi, got {parts[2]!r}", -1, line)
        lo_text, hi_text = parts[2].split("..", 1)
        lower = _parse_rational(lo_text.strip(), line) if lo_text.strip() else None
        upper = _parse_rational(hi_text.strip(), line) if hi_text.strip() else None
        if lower is not None and upper is not None and lower > upper:
            raise DslSyntaxError(f"empty bound interval {parts[2]!r}", -1, line)
    if len(parts) > 3:
        raise DslSyntaxError(f"too many ':' parts in {chunk!r}", -1, line)
    return ParamDecl(name, assumption, lower, upper)


def _parse_shape(token: str, decls: dict[str, ParamDecl], line: int):
    try:
        return _parse_rational(token, line)
    except DslSyntaxError:
        pass
    if token in decls:
        if decls[token].assumption is not Assumption.POSITIVE:
            raise DslSyntaxError(
                f"shape parameter {token!r} must carry the positive assumption", -1, line
            )
        return token
    raise DslSyntaxError(f"shape must be a rational or a declared positive parameter, got {token!r}", -1, line)


def _parse_constraint(text: str, table: SymbolTable, line: int) -> Constraint:
    toks = _tokenize(text, line)
    # split at the single top-level relation token
    rel_idx = [k for k, t in enumerate(toks) if t.kind == "OP" and t.text in ("=", ">", ">=")]
    if len(rel_idx) != 1:
        raise DslSyntaxError("constraint needs exactly one of =, >, >=", -1, line)
    k = rel_idx[0]
    rel = toks[k].text
    lhs_toks = toks[:k] + [_Tok("END", "", toks[k].pos)]
    rhs_toks = toks[k + 1 :]
    lp = _ExprParser(lhs_toks, table, line, allow_xy=False)
    lhs = lp.parse_expr()
    if not lp.at_end():
        raise DslSyntaxError("trailing input before the relation", lp.peek().pos, line)
    rp = _ExprParser(rhs_toks, table, line, allow_xy=False)
    rhs = rp.parse_expr()
    if not rp.at_end():
        raise DslSyntaxError("trailing input after constraint", rp.peek().pos, line)
    diff = lhs.add(rhs.neg()).coeffs
    poly = diff.get((0, 0))
    if poly is None:
        table_zero = Poly.zero(table)
        poly = table_zero
    return Constraint(poly, rel)


def parse_density_spec(text: str) -> DensityFamily:
    """Parse a complete spec file into a DensityFamily."""
    single: dict[str, tuple[str, int]] = {}
    param_chunks: list[tuple[str, int]] = []
    constraint_lines: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        for ch in line:
            if not (" " <= ch <= "~") and ch != "\t":
                raise DslSyntaxError(f"non-ASCII character {ch!r}", raw.index(ch), lineno)
        if ":" not in line:
            raise DslSyntaxError("expected 'key: value'", -1, lineno)
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise DslSyntaxError(f"unknown key {key!r}", -1, lineno)
        if key == "params":
            param_chunks.extend((chunk, lineno) for chunk in value.split(","))
        elif key == "constraints":
            constraint_lines.append((value, lineno))
        else:
            if key in single:
                raise DslSyntaxError(f"duplicate key {key!r}", -1, lineno)
            single[key] = (value, lineno)

    if "domain" not in single:
        raise DslSyntaxError("missing required key 'domain'")
    if "density" not in single:
        raise DslSyntaxError("missing required key 'density'")

    decls: dict[str, ParamDecl] = {}
    for chunk, lineno in param_chunks:
        chunk = chunk.strip()
        if not chunk:
            continue
        decl = _parse_param_decl(chunk, lineno)
        if decl.name in decls:
            raise DslSyntaxError(f"parameter {decl.name!r} declared twice", -1, lineno)
        decls[decl.name] = decl
    params = tuple(sorted(decls.values(), key=lambda d: d.name))
    table = SymbolTable.build({d.name: d.assumption for d in params})

    domain_text, domain_line = single["domain"]
    if domain_text not in _DOMAINS:
        raise DslSyntaxError(
            f"unknown domain {domain_text!r} (use one of {', '.join(_DOMAINS)})",
            -1,
            domain_line,
        )
    if domain_text == "orthant-gamma":
        shape_x = shape_y = Fraction(1)
        if "shapes" in single:
            stext, sline = single["shapes"]
            fields = stext.split()
            named = {}
            for f in fields:
                if "=" not in f:
                    raise DslSyntaxError(f"shapes need k1=.. k2=.., got {f!r}", -1, sline)
                k, v = f.split("=", 1)
                named[k.strip()] = v.strip()
            if set(named) != {"k1", "k2"}:
                raise DslSyntaxError("shapes must set exactly k1 and k2", -1, sline)
            shape_x = _parse_shape(named["k1"], decls, sline)
            shape_y = _parse_shape(named["k2"], decls, sline)
        base: OrthantGamma | UnitBox | UnitDisk = OrthantGamma(shape_x, shape_y)
    else:
        if "shapes" in single:
            raise DslSyntaxError(
                "shapes are only meaningful for orthant-gamma", -1, single["shapes"][1]
            )
        base = UnitBox() if domain_text == "unit-box" else UnitDisk()

    scale = Fraction(1)
    if "scale" in single:
        stext, sline = single["scale"]
        scale = _parse_rational(stext, sline)
        if scale <= 0:
            raise DslSyntaxError("scale must be positive", -1, sline)

    constraints = tuple(
        _parse_constraint(ctext, table, cline) for ctext, cline in constraint_lines
    )

    name = single.get("family", ("unnamed", 0))[0]
    density_text, density_line = single["density"]
    if density_text.startswith("named:"):
        spec = density_text[len("named:") :].strip()
        if not (spec.startswith(SUM_POWER_EXP + "(") and spec.endswith(")")):
            raise DslSyntaxError(
                f"unknown named density {spec!r} (only {SUM_POWER_EXP}(<param>) exists)",
                -1,
                density_line,
            )
        arg = spec[len(SUM_POWER_EXP) + 1 : -1].strip()
        if arg not in decls:
            raise UndeclaredSymbol(f"undeclared symbol {arg!r}", -1, density_line)
        if decls[arg].assumption is not Assumption.NONNEG_INT:
            raise DslSyntaxError(
                f"{arg!r} must be declared nonneg-int for {SUM_POWER_EXP}", -1, density_line
            )
        if not isinstance(base, OrthantGamma) or base.shape_x != 1 or base.shape_y != 1:
            raise DslSyntaxError(
                f"{SUM_POWER_EXP} requires orthant-gamma with unit shapes", -1, density_line
            )
        return DensityFamily(
            name=name,
            table=table,
            base=base,
            kind=SUM_POWER_EXP,
            kind_symbol=arg,
            params=params,
            constraints=constraints,
            scale=scale,
        )

    coeff_map = parse_expression(density_text, table, density_line, allow_xy=True)
    coeffs = tuple(sorted(coeff_map.items()))
    return DensityFamily(
        name=name,
        table=table,
        base=base,
        coeffs=coeffs,
        params=params,
        constraints=constraints,
        scale=scale,
    )


# -- rendering -------------------------------------------------------------------


def _render_coeff_term(key: tuple[int, int], coeff: Poly) -> tuple[str, str]:
    """Returns (sign, body) for one x^i y^j term of the density line."""
    i, j = key
    mono = []
    if i == 1:
        mono.append("x")
    elif i > 1:
        mono.append(f"x^{i}")
    if j == 1:
        mono.append("y")
    elif j > 1:
        mono.append(f"y^{j}")
    if len(coeff.terms) == 1:
        text = coeff.to_text()
        sign = "+"
        if text.startswith("-"):
            sign = "-"
            text = text[1:]
        if text == "1" and mono:
            parts = mono
        else:
            parts = [text] + mono
        return sign, "*".join(parts)
    body = f"({coeff.to_text()})"
    return "+", "*".join([body] + mono)


def render_spec(family: DensityFamily) -> str:
    """Canonical spec text; parse_density_spec(render_spec(f)) == f."""
    lines = [f"family: {family.name}"]
    base = family.base
    lines.append(f"domain: {base.tag}")
    if isinstance(base, OrthantGamma):
        lines.append(f"shapes: k1={base.shape_x} k2={base.shape_y}")
    if family.kind == SUM_POWER_EXP:
        lines.append(f"density: named:{SUM_POWER_EXP}({family.kind_symbol})")
    else:
        pieces = []
        ordered = sorted(family.coeffs, key=lambda kv: (sum(kv[0]), kv[0][1]))
        for key, coeff in ordered:
            sign, body = _render_coeff_term(key, coeff)
            if not pieces:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f"{'+' if sign == '+' else '-'} {body}")
        lines.append("density: " + (" ".join(pieces) if pieces else "0"))
    if family.params:
        rendered = []
        for d in family.params:
            s = f"{d.name}:{d.assumption.value}"
            if d.lower is not None or d.upper is not None:
                lo = "" if d.lower is None else str(d.lower)
                hi = "" if d.upper is None else str(d.upper)
                s += f":{lo}..{hi}"
            rendered.append(s)
        lines.append("params: " + ", ".join(rendered))
    for c in family.constraints:
        lines.append(f"constraints: {c.poly.to_text()} {c.relation} 0")
    if family.scale != 1:
        lines.append(f"scale: {family.scale}")
    return "\n".join(lines) + "\n"
