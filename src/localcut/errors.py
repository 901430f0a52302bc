"""Exception types shared across the package.

The CLI maps these onto exit codes: parameter problems exit 2, budget and
construction problems exit 3, failed verification and failed internal
cross-checks exit 1.
"""


class LocalcutError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(LocalcutError, ValueError):
    """Input violates a documented precondition."""


class UnsupportedDegreeError(InvalidParameterError):
    """Algorithm needs a degree parity the graph does not have."""


class ConstructionError(LocalcutError):
    """A generator could not realize the requested instance."""


class BudgetError(LocalcutError):
    """Instance exceeds an enumeration or search budget."""


class CongestionError(LocalcutError):
    """A message exceeded the per-round bit limit."""

    def __init__(self, node, port, round_index, bits, limit):
        super().__init__(
            f"node {node} sent {bits} bits on port {port} in round "
            f"{round_index}, limit is {limit}"
        )
        self.node = node
        self.port = port
        self.round_index = round_index
        self.bits = bits
        self.limit = limit


class NonTerminationError(LocalcutError):
    """A node program did not produce output within the round limit."""


class InvariantError(LocalcutError):
    """An internal cross-check failed: a bug in localcut, not bad input."""
