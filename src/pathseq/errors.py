"""Exception types shared across the library.

Every error the library raises deliberately derives from PathseqError, so
callers (and the CLI) can distinguish domain failures from genuine bugs.
"""


class PathseqError(Exception):
    """Base class for all library errors."""


class VertexOutOfRangeError(PathseqError):
    """An edge endpoint is not a valid vertex index."""


class SelfLoopError(PathseqError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(PathseqError):
    """The same undirected edge was given more than once."""


class DisconnectedError(PathseqError):
    """The graph is not connected (or has an isolated vertex)."""


class BudgetExceededError(PathseqError):
    """An enumeration exceeded its node-expansion budget."""


class FormatError(PathseqError):
    """An input file or document does not match its declared format."""


class UnreadableFileError(PathseqError, OSError):
    """An input file cannot be opened or read; an OSError too, with its text."""


class InvalidSpecError(PathseqError):
    """A branch spec violates a structural constraint."""


class UnknownIndexError(PathseqError):
    """No index function is registered under the requested name."""


class SymmetryError(PathseqError):
    """A candidate index function failed the symmetry check."""


class IndexEvaluationError(PathseqError):
    """An index function raised an arithmetic error (overflow, division by zero)."""


class FamilyMismatchError(PathseqError):
    """Two specs from different families were compared."""


class SizeMismatchError(PathseqError):
    """Two specs with different size parameters were compared."""


class ReconstructionError(PathseqError):
    """Base class for failures while rebuilding a spec from a profile."""


class NoCandidateRootError(ReconstructionError):
    """No integer root degree matches the order-0 invariant."""


class AmbiguousRootError(ReconstructionError):
    """More than one integer root degree matches the order-0 invariant."""


class NonIntegerBranchCountError(ReconstructionError):
    """A recovered branch count is not close enough to an integer."""


class BudgetMismatchError(ReconstructionError):
    """Recovered branches cannot account for the declared vertex count."""


class ProfileMismatchError(ReconstructionError):
    """The rebuilt spec does not reproduce the input profile."""


def _is_int(value: object) -> bool:
    """An int that is not a bool: json.load gives true/false as bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _need_int(name: str, value: object, least: int | None = None) -> None:
    """ValueError unless a size, order, degree or budget is an int, not a bool, >= least."""
    if not _is_int(value) or least is not None and value < least:
        bound = "" if least is None else f">= {least} and "
        raise ValueError(f"{name} must be {bound}an int (not a bool); got {value!r}")
