"""Exception types shared across the package, each naming the exit code
of a command it stops (`exit_code`, the README's table), and the file
readers that report bytes that are not UTF-8, and JSON syntax errors, as
ParseError."""

import json


class XfvarError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ParseError(XfvarError):
    """Syntax or name error in a clause or formula string, or a malformed
    field in a file that parsed as JSON.

    Attributes
    ----------
    offset : int or None
        Byte offset into the UTF-8 encoding of the source where the
        problem was detected; None for a malformed field.
    """

    exit_code = 2

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (at byte offset {offset})")
        self.offset = offset


def read_text(path, what):
    """The text of a UTF-8 file; bytes that are not UTF-8 are a ParseError
    at the offset of the first bad byte. what names the file kind."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"invalid {what} file: not UTF-8", e.start) from None


def read_json(path, what):
    """Load a UTF-8 JSON file; bytes that are not UTF-8 and syntax errors
    are a ParseError at their byte offset, and nesting past the
    interpreter's recursion limit a ParseError without one."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        offset = len(text[: e.pos].encode("utf-8"))
        raise ParseError(f"invalid {what} file: {e.msg}", offset) from None
    except RecursionError:
        raise ParseError(f"invalid {what} file: nesting too deep") from None


class CycleError(XfvarError):
    """The graph contains a directed cycle; `cycle` lists one."""

    exit_code = 3

    def __init__(self, cycle):
        super().__init__("cycle detected: " + " -> ".join(list(cycle) + [cycle[0]]))
        self.cycle = list(cycle)


class ZeroVarianceError(XfvarError):
    """The outcome has zero (estimated) variance; ratios are undefined."""

    exit_code = 4


class FormulaEvalError(XfvarError):
    """Evaluation produced a non-finite value or hit a missing variable."""

    exit_code = 2


class DomainError(XfvarError):
    """Invalid or over-budget discrete domain."""

    exit_code = 2


class VennError(DomainError):
    """A report the Venn diagram cannot draw: other than 2 or 3 variables
    besides the outcome."""

    exit_code = 7


class ModelError(XfvarError):
    """Structural problem in a causal model: bad mechanism, bad file,
    unseen parent cell, or a non-finite node value."""

    exit_code = 2


class FitError(XfvarError):
    """A mechanism could not be fitted from the data (e.g. undersized cell)."""

    exit_code = 5


class NotReducibleError(XfvarError):
    """Model cannot be reduced to a finite independent domain for exact analysis."""

    exit_code = 6
