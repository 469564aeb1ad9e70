"""Exception types shared across the package.

Domain errors all derive from QowsError so callers (and the command-line
front end) can distinguish bad inputs from genuine bugs.
"""
import operator


class QowsError(Exception):
    """Base class for all domain errors raised by this package."""


class NotSquare(QowsError):
    """The multiplication table is not an s-by-s matrix."""


class EntryOutOfRange(QowsError):
    """A table entry is not a symbol in [0, s). An integer entry (numpy
    integers and bools count) is shown as printed, any other by its repr,
    so the string '0' does not read as the integer 0."""

    def __init__(self, row, col, value):
        self.row = row
        self.col = col
        self.value = value
        try:
            operator.index(value)
            shown = value
        except TypeError:
            shown = repr(value)
        super().__init__(f"entry {shown} at row {row}, col {col} is out of range")


class RowNotPermutation(QowsError):
    """A table row repeats or omits a symbol."""

    def __init__(self, row):
        self.row = row
        super().__init__(f"row {row} is not a permutation")


class ColNotPermutation(QowsError):
    """A table column repeats or omits a symbol."""

    def __init__(self, col):
        self.col = col
        super().__init__(f"column {col} is not a permutation")


class SymbolOutOfRange(QowsError):
    """An operand is not a symbol of the quasigroup."""


class OrderMismatch(QowsError):
    """A string carries symbols outside the quasigroup's symbol set."""


class EmptyString(QowsError):
    """Transformations require at least one symbol."""


class LengthMismatch(QowsError):
    """The input string length disagrees with the function's N."""


class IndexLeaderOutOfRange(QowsError):
    """An index leader refers to a position outside the input string."""


class OrderNotSupported(QowsError):
    """The operation is only defined for a specific quasigroup order."""


class BudgetExceeded(QowsError):
    """The requested enumeration is larger than the configured budget."""


class FormatError(QowsError):
    """A text input does not follow the documented format."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
