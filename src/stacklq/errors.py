"""Exception types shared across the package."""


class StackLQError(Exception):
    """Base class for all package errors."""


class SpecFormatError(StackLQError):
    """A spec document could not be parsed into a GameSpec."""


class DomainError(StackLQError):
    """A spec fails validation; the message lists every violation."""


class SingularCoefficientError(StackLQError):
    """A control-weight matrix is numerically singular at some node."""

    def __init__(self, name, t):
        super().__init__(f"{name} is singular at t={t:.12g}")
        self.name = name
        self.t = t


class BlowUpError(StackLQError):
    """An integration or simulation produced non-finite or huge values."""

    def __init__(self, what, t, path=None):
        where = f"t={t:.12g}" if path is None else f"t={t:.12g}, path={path}"
        super().__init__(f"{what} blew up at {where}")
        self.what = what
        self.t = t
        self.path = path


class ConsistencyError(StackLQError):
    """An internal identity that must hold numerically was violated."""


class ReductionError(StackLQError):
    """Spec does not satisfy the single-controller reduction preconditions."""
