"""Exception types shared across the package, and the one reader of input
files, which reports a file that does not decode as an InputError."""

import json


class CrookedError(Exception):
    """Base class for all package errors."""


class InputError(CrookedError):
    """Malformed user input: files, arguments, out-of-range indices."""


class UsageError(CrookedError):
    """API misuse, e.g. looking up a set that is not an element of a lattice."""


class ParseError(InputError):
    """Syntax error in the formula language, with a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnboundVariableError(ParseError):
    """A free identifier was used where only bound variables are allowed."""


class EvaluationError(CrookedError):
    """Evaluation failed, e.g. a constant without an interpretation."""


class PreconditionError(CrookedError):
    """A documented operation precondition does not hold."""


class DegeneracyError(PreconditionError):
    """A construction hit a degenerate configuration; the input needs a
    minimal edge-length nudge before retrying."""

    def __init__(self, message: str, edge_id=None):
        super().__init__(message)
        self.edge_id = edge_id


class ResourceLimitError(CrookedError):
    """A configured cap (element count, budget, cells) was exceeded."""


class InvariantViolationError(CrookedError):
    """A property the theory guarantees failed; signals a bug, not bad input."""


def read_input(path: str, parse=json.loads):
    """`parse` applied to the UTF-8 text of the file at `path`.  A file that
    is not UTF-8, or that is not JSON when `parse` reads JSON, is an
    InputError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
