"""Exception hierarchy for the zii package.

Every error raised on purpose derives from ZiiError so callers (and the
CLI exit-code mapping) can tell deliberate failures from genuine bugs.
"""


class ZiiError(Exception):
    """Base class for all errors raised by this package."""


class SymbolTableMismatch(ZiiError):
    """Two polynomials from different symbol tables were combined."""


class MissingSymbol(ZiiError):
    """An evaluation or substitution referenced a symbol not in the table."""


class InexactDivision(ZiiError):
    """Polynomial division requested where the divisor is not an exact factor."""


class SingularMatrix(ZiiError):
    """The moment matrix is identically singular, so no inverse exists."""


class NotUnivariate(ZiiError):
    """An exact root solve was requested on a polynomial in more than one symbol."""


class ConstraintViolation(ZiiError):
    """A parameter point fails one of the family's declared constraints."""


class DegreeOutOfRange(ZiiError):
    """A truncation degree outside the supported range was requested."""


class ArgumentOutOfRange(ZiiError):
    """A count or order argument outside its documented range was requested."""


class NoConvergence(ZiiError):
    """Adaptive quadrature hit its node cap before reaching the tolerance."""


class IllConditioned(ZiiError):
    """Floating-point inversion refused: condition number above the cutoff."""


class DslError(ZiiError):
    """Base class for density-spec parsing errors; carries a text position."""

    def __init__(self, message: str, pos: int = -1, line: int = -1):
        self.pos = pos
        self.line = line
        where = ""
        if line >= 0:
            where = f" (line {line}"
            where += f", col {pos})" if pos >= 0 else ")"
        elif pos >= 0:
            where = f" (at position {pos})"
        super().__init__(message + where)


class DslSyntaxError(DslError):
    """Malformed token stream or grammar violation in a density spec."""


class UndeclaredSymbol(DslError):
    """An identifier in an expression was never declared as a parameter."""


class NonPolynomialInXY(DslError):
    """The density expression is not a polynomial in the two variables."""


class ExponentBoundExceeded(DslError):
    """An exponent (or expansion size) exceeds the documented hard caps."""
