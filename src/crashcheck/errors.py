"""Exception types shared across the package."""


class CrashCheckError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CrashCheckError):
    """A trace record is malformed or violates a trace invariant."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownOperationKind(CrashCheckError):
    """A trace record names an operation kind this tool does not know."""


class SequenceOrderError(CrashCheckError):
    """Sequence numbers in a trace file are not strictly increasing."""


class DslError(CrashCheckError):
    """A workload program is not well-formed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ModeMismatch(CrashCheckError):
    """An operation's kind does not match the storage mode in effect."""


class GraphBuildError(CrashCheckError):
    """An edge references a node the graph does not contain, or is malformed."""


class NodeNotFound(CrashCheckError):
    """A node id was passed that is not a member of the graph."""


class ReplayError(CrashCheckError):
    """A schedule could not be applied to a storage image.

    Hitting this on a schedule produced by the enumerator indicates the
    persistence model and the replayer disagree; tests treat it as a failure.
    """


class ExplosionLimit(CrashCheckError):
    """Schedule enumeration visited its budget of subsets and more remain."""

    def __init__(self, budget: int):
        super().__init__(f"budget of {budget} subsets exhausted")
        self.budget = budget


class CheckerError(CrashCheckError):
    """The consistency checker could not be spawned."""
