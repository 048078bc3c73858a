"""Exception types shared across the package."""


class HypersetError(Exception):
    """Base class for all errors raised by this package."""


class MalformedGraph(HypersetError):
    """A pointed graph violates its structural invariants."""


class UnknownHandle(HypersetError):
    """A set handle does not belong to the universe it was used with."""


class UniverseFull(HypersetError):
    """The configured universe size cap was reached."""


class ValidationError(HypersetError):
    """Input data (system, reduct mode, pattern) failed validation."""


class PreconditionError(HypersetError):
    """An operation was called outside its stated preconditions."""


class ContractViolation(HypersetError):
    """A pluggable component (oracle, witness) broke its contract."""


class DomainError(HypersetError):
    """A value lies outside the domain of a partial operation."""


class ParseError(ValidationError):
    """Positioned syntax or scoping error in a text input."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
