"""Parameter symbols and their positivity assumptions.

A SymbolTable fixes, once per density family, the ordered set of parameter
names a polynomial may mention.  Order is always alphabetical: canonical
serialization and term ordering both key off table order, so making the
order a function of the name set alone keeps output independent of how a
family happened to be constructed.

The constant PI is treated as an ordinary table symbol with a positivity
assumption.  Keeping it symbolic is what lets disk-domain moments stay
exact; it only ever leaves through known-nonzero stripping, or factored
out as a stated power PI^k.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import MissingSymbol

PI_NAME = "PI"


class Assumption(enum.Enum):
    """What is known about a symbol's admissible values."""

    NONE = "none"
    POSITIVE = "positive"
    NONNEG_INT = "nonneg-int"


@dataclass(frozen=True)
class SymbolTable:
    """Immutable, alphabetically ordered symbol set with assumptions.

    `names` always contains PI_NAME (assumption POSITIVE).  Equality and
    hashing are structural, so two families over the same parameters share
    interoperable polynomials.
    """

    names: tuple[str, ...]
    assumptions: tuple[Assumption, ...]

    @staticmethod
    def build(symbols: Mapping[str, Assumption] | Iterable[str] = ()) -> "SymbolTable":
        if isinstance(symbols, Mapping):
            amap = dict(symbols)
        else:
            amap = {name: Assumption.NONE for name in symbols}
        amap.setdefault(PI_NAME, Assumption.POSITIVE)
        if amap[PI_NAME] is not Assumption.POSITIVE:
            raise ValueError("PI must carry the positive assumption")
        names = tuple(sorted(amap))
        return SymbolTable(names, tuple(amap[n] for n in names))

    def __post_init__(self):
        if len(self.names) != len(self.assumptions):
            raise ValueError("names and assumptions length mismatch")
        if tuple(sorted(self.names)) != self.names:
            raise ValueError("symbol table must be alphabetically sorted")
        if PI_NAME not in self.names:
            raise ValueError("symbol table must contain PI")

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MissingSymbol(f"symbol {name!r} not in table {self.names}") from None

    def assumption(self, name: str) -> Assumption:
        return self.assumptions[self.index(name)]


def coerce_rational(value) -> Fraction:
    """Accept int / Fraction / 'p/q' string; reject floats (exactness)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")
