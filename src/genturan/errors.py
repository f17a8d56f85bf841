"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A precondition on the arguments was violated.

    The message always names the offending parameter so callers (and the
    CLI) can report which hypothesis failed.
    """


class DisconnectedGraphError(ParameterError):
    """An operation that requires a connected graph received one that is not."""


class WitnessOrderError(ParameterError):
    """n is below the order of the witness that a formula's value needs."""


class SizeLimitError(ParameterError):
    """Input exceeds the size an exact subroutine is willing to handle."""


class OracleSizeError(SizeLimitError):
    """An oracle query would pass its budget of one-vertex extensions."""


class BudgetExceededError(RuntimeError):
    """A bounded exact search ran out of its node-expansion budget.

    Callers can fall back to a structural argument (e.g. per-block checks)
    or retry with a larger budget.
    """


class GraphFormatError(ValueError):
    """Malformed graph6 or edge-list input."""
