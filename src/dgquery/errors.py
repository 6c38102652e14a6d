"""Exception types shared across the package."""


class DgqError(Exception):
    """Base class for every error this package raises deliberately."""


class StreamOrderError(DgqError):
    """An edge arrived with a timestamp older than the newest stored edge."""


class LabelConflictError(DgqError):
    """A vertex id reappeared carrying a different vertex label, or a
    self-loop gave its one vertex two labels."""


class ContractError(DgqError):
    """An operation was invoked outside its stated contract."""


class UnsupportedPrimitiveError(DgqError):
    """A subgraph is not a supported search or estimation primitive."""


class ParseError(DgqError):
    """A malformed input file (stream, query, plan, or stats)."""

    def __init__(self, message: str, *, line: int | None = None, source: str | None = None):
        self.line = line
        self.source = source
        prefix = ""
        if source is not None:
            prefix += f"{source}: "
        if line is not None:
            prefix += f"line {line}: "
        super().__init__(prefix + message)


class PlanError(ParseError):
    """A decomposition plan failed structural validation."""


class MismatchError(DgqError):
    """Benchmark strategies disagreed on what they emitted."""
