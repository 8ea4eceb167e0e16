"""Sparse exact polynomials over the rationals in a fixed symbol table.

Terms map exponent vectors (indexed by table order, i.e. alphabetically)
to nonzero Fraction coefficients.  The term order everywhere is graded
lexicographic: higher total degree first, ties broken by the exponent
vector compared lexicographically, descending.  Canonical serialization
walks terms in that order, which makes rendered text (and hence reports,
goldens, and equality-by-text) independent of construction history.

Division is only ever exact division by a known factor; anything else
raises InexactDivision rather than returning a remainder.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InexactDivision, MissingSymbol, NotUnivariate, SymbolTableMismatch
from .symbols import Assumption, SymbolTable, coerce_rational

__all__ = ["Poly", "Exponents"]

Exponents = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


class Poly:
    """Immutable sparse polynomial; do not mutate `terms` after creation."""

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: SymbolTable, terms: Mapping[Exponents, Fraction]):
        width = len(table)
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise ValueError(f"exponent vector {exps} does not match table width {width}")
            c = coerce_rational(coeff)
            if c != 0:
                clean[exps] = c
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(table: SymbolTable) -> "Poly":
        return Poly(table, {})

    @staticmethod
    def const(table: SymbolTable, value) -> "Poly":
        return Poly(table, {(0,) * len(table): coerce_rational(value)})

    @staticmethod
    def symbol(table: SymbolTable, name: str) -> "Poly":
        exps = [0] * len(table)
        exps[table.index(name)] = 1
        return Poly(table, {tuple(exps): _ONE})

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        # degree of the zero polynomial reported as -1
        return max((sum(e) for e in self.terms), default=-1)

    def leading(self) -> tuple[Exponents, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def constant_value(self) -> Fraction:
        """The value if this is a constant; raises otherwise."""
        if self.is_zero:
            return _ZERO
        if len(self.terms) == 1:
            exps, coeff = next(iter(self.terms.items()))
            if not any(exps):
                return coeff
        raise ValueError(f"not a constant polynomial: {self}")

    def free_symbols(self) -> tuple[str, ...]:
        width = len(self.table)
        seen = [False] * width
        for exps in self.terms:
            for i in range(width):
                if exps[i]:
                    seen[i] = True
        return tuple(n for n, s in zip(self.table.names, seen) if s)

    def degree_in(self, name: str) -> int:
        idx = self.table.index(name)
        return max((e[idx] for e in self.terms), default=-1)

    # -- ring arithmetic -----------------------------------------------

    def _check_table(self, other: "Poly"):
        if self.table != other.table:
            raise SymbolTableMismatch(
                f"cannot combine polynomials over {self.table.names} and {other.table.names}"
            )

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            self._check_table(other)
            return other
        return Poly.const(self.table, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            s = out.get(exps, _ZERO) + coeff
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Poly(self.table, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, _ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.table, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = Poly.const(self.table, 1)
        for _ in range(n):
            result = result * self
        return result

    def exact_divide(self, divisor: "Poly") -> "Poly":
        """Quotient self/divisor when divisor divides exactly.

        Leading-term division loop; the grlex leading term of the
        remainder strictly decreases, so this terminates.  Any step where
        the divisor's leading monomial does not divide the remainder's
        proves the division inexact.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero:
            raise InexactDivision("division by the zero polynomial")
        if self.is_zero:
            return self
        div_exps, div_coeff = divisor.leading()
        quotient: dict[Exponents, Fraction] = {}
        rem = self
        while not rem.is_zero:
            r_exps, r_coeff = rem.leading()
            t_exps = tuple(a - b for a, b in zip(r_exps, div_exps))
            if any(e < 0 for e in t_exps):
                raise InexactDivision(f"{divisor} is not an exact factor of {self}")
            t_coeff = r_coeff / div_coeff
            quotient[t_exps] = t_coeff
            rem = rem - Poly(self.table, {t_exps: t_coeff}) * divisor
        return Poly(self.table, quotient)

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, assignment: Mapping[str, object]) -> Fraction:
        """Exact value at a rational point; every free symbol must be given."""
        values: list[Fraction | None] = [None] * len(self.table)
        for name, value in assignment.items():
            values[self.table.index(name)] = coerce_rational(value)
        total = _ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if not e:
                    continue
                if values[i] is None:
                    raise MissingSymbol(
                        f"no value supplied for {self.table.names[i]!r} in exact evaluation"
                    )
                term *= values[i] ** e
            total += term
        return total

    def substitute(self, assignment: Mapping[str, object]) -> "Poly":
        """Partially evaluate some symbols at exact rational values.

        One pass over the terms in integers: each term is multiplied by its
        values' powers and regrouped by the exponents of the symbols left
        free.  Every term is scaled to one common denominator (the lcm of
        the coefficients' denominators times each value's denominator to
        its top exponent), so each regrouped sum is one integer.
        """
        given = [
            (self.table.index(name), coerce_rational(value))
            for name, value in assignment.items()
        ]
        if not given or self.is_zero:
            return self
        tops = [max(column) for column in zip(*self.terms)]
        lcd = math.lcm(*(c.denominator for c in self.terms.values()))
        den = lcd * math.prod(v.denominator ** tops[i] for i, v in given)
        # n**e * d**(top - e) is (n/d)**e scaled by d**top
        scaled = [
            (i, [v.numerator**e * v.denominator ** (tops[i] - e) for e in range(tops[i] + 1)])
            for i, v in given
        ]
        out: dict[Exponents, int] = {}
        for exps, coeff in self.terms.items():
            term = coeff.numerator * (lcd // coeff.denominator)
            rest = list(exps)
            for i, powers in scaled:
                term *= powers[rest[i]]
                rest[i] = 0
            rest = tuple(rest)
            out[rest] = out.get(rest, 0) + term
        return Poly(self.table, {e: Fraction(s, den) for e, s in out.items()})

    def subs_symbol(self, name: str, replacement: "Poly") -> "Poly":
        """Replace one symbol by a polynomial (used for constraint elimination)."""
        replacement = self._coerce(replacement)
        idx = self.table.index(name)
        # group by exponent of the replaced symbol, then Horner over powers
        by_power: dict[int, dict[Exponents, Fraction]] = {}
        for exps, coeff in self.terms.items():
            rest = exps[:idx] + (0,) + exps[idx + 1:]
            by_power.setdefault(exps[idx], {})[rest] = coeff
        result = Poly.zero(self.table)
        power_cache: dict[int, Poly] = {0: Poly.const(self.table, 1)}

        def repl_power(k: int) -> Poly:
            if k not in power_cache:
                power_cache[k] = repl_power(k - 1) * replacement
            return power_cache[k]

        for power, bucket in sorted(by_power.items()):
            result = result + Poly(self.table, bucket) * repl_power(power)
        return result

    # -- normalization ---------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        if self.is_zero:
            return _ONE
        num = 0
        den = 1
        for coeff in self.terms.values():
            num = math.gcd(num, abs(coeff.numerator))
            den = den * coeff.denominator // math.gcd(den, coeff.denominator)
        return Fraction(num, den)

    def strip_known_nonzero_factors(self) -> "Poly":
        """Canonical representative of the equation 'self = 0'.

        Removes the rational content, divides out any monomial in symbols
        assumed positive (PI included), and flips the sign so the grlex
        leading coefficient is positive.  Symbols without a positivity
        assumption are never stripped: their vanishing is information.
        """
        if self.is_zero:
            return self
        width = len(self.table)
        shift = [
            min(e[i] for e in self.terms) if a is Assumption.POSITIVE else 0
            for i, a in enumerate(self.table.assumptions)
        ]
        # a common monomial shift keeps the grlex order, so the leading
        # coefficient's sign can be folded into the content beforehand; the
        # content num/den (the gcd of the numerators over the lcm of the
        # denominators) divides every n/d to the integer (n/num)(den/d)
        terms = self.terms.values()
        num = math.gcd(*(c.numerator for c in terms))
        if self.leading()[1] < 0:
            num = -num
        den = math.lcm(*(c.denominator for c in terms))
        return Poly(
            self.table,
            {
                tuple(e[i] - shift[i] for i in range(width)): Fraction(
                    (c.numerator // num) * (den // c.denominator)
                )
                for e, c in self.terms.items()
            },
        )

    # -- univariate view ---------------------------------------------------

    def as_univariate(self, name: str) -> list[Fraction]:
        """Ascending coefficient list; rejects polynomials in other symbols."""
        extra = [s for s in self.free_symbols() if s != name]
        if extra:
            raise NotUnivariate(f"{self} involves {extra}, not only {name!r}")
        idx = self.table.index(name)
        deg = self.degree_in(name)
        coeffs = [_ZERO] * (max(deg, 0) + 1)
        for exps, coeff in self.terms.items():
            coeffs[exps[idx]] = coeff
        return coeffs

    @staticmethod
    def from_univariate(table: SymbolTable, name: str, coeffs: Iterable) -> "Poly":
        idx = table.index(name)
        width = len(table)
        terms = {}
        for k, c in enumerate(coeffs):
            exps = [0] * width
            exps[idx] = k
            terms[tuple(exps)] = coerce_rational(c)
        return Poly(table, terms)

    # -- canonical text -----------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.table.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not pieces:
                pieces.append(("-" if coeff < 0 else "") + body)
            else:
                pieces.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"

    # -- equality -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            try:
                return self.constant_value() == other
            except ValueError:
                return False
        if not isinstance(other, Poly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.table, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h
