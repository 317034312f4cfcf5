"""Exception hierarchy shared by all modules."""

# characters of an input value that an error message quotes
ECHO_CHARS = 64


def echo(text: str) -> str:
    """``text``, a value from the input, as an error message quotes it: whole
    up to ECHO_CHARS characters, else its first ECHO_CHARS and its length, so
    that no report grows with the input it quotes."""
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


class SweedlerError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SweedlerError):
    pass


class FieldMismatch(SweedlerError):
    pass


class Singular(SweedlerError):
    """A square map is not invertible; carries the rank found."""

    def __init__(self, rank: int):
        super().__init__(f"map is singular (rank {rank})")
        self.rank = rank


class UnsupportedField(SweedlerError):
    pass


class BudgetExceeded(SweedlerError):
    """An enumeration of p^e candidates would exceed the configured budget.

    The message writes ``needed`` = p^e in decimal when it has at most 4,300
    digits (CPython writes no longer int in decimal), and as ``p^e`` beyond;
    a power far beyond is not computed."""

    def __init__(self, p: int, e: int, budget: int):
        # p^e >= 2^(e * (bits of p - 1)), and 2^14300 > 10^4300
        needed = f"{p}^{e}"
        if e * (p.bit_length() - 1) < 14300 and p ** e < 10 ** 4300:
            needed = p ** e
        super().__init__(f"enumeration needs {needed} candidates, budget is {budget}")
        self.base, self.exponent = p, e
        self.budget = budget

    @property
    def needed(self) -> int:
        return self.base ** self.exponent


class InvalidStructure(SweedlerError):
    """An operation received a structure that fails its axioms."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvalidBialgebra(InvalidStructure):
    pass


class InvalidHopf(InvalidStructure):
    pass


class NotAGroup(SweedlerError):
    pass


class NotAMorphism(SweedlerError):
    pass


class NotAComodule(SweedlerError):
    pass


class NotCommutative(SweedlerError):
    pass


class IncompatibleMeasurings(SweedlerError):
    pass


class PreconditionViolated(SweedlerError):
    pass


class NegativeDegree(SweedlerError):
    pass


class NotClosed(SweedlerError):
    pass


class InducedStructureIllDefined(SweedlerError):
    """Quotient structure failed a well-definedness check.

    With valid inputs this can never happen; seeing it means either a bug
    or that a caller-supplied morphism was not actually a morphism.
    """


class ParseError(SweedlerError):
    def __init__(self, message, line=None, column=None, path=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}, column {column}"
        elif path:
            loc = f" at {path}"
        super().__init__(message + loc)
        self.line = line
        self.column = column
        self.path = path


class ValidationError(SweedlerError):
    """A parsed document fails its structure axioms."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
