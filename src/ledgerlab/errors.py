"""Exception types shared across the package."""


class LedgerError(Exception):
    """Base class for every error raised by ledgerlab."""


class ConfigError(LedgerError):
    """Bad scenario configuration; message names the offending key."""


class NotFoundError(LedgerError):
    """A referenced entity (transaction, send, validator) is unknown."""


class InvariantViolation(LedgerError):
    """A run-level invariant was breached. Aborts the simulation."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        self.detail = detail
        msg = f"invariant breached: {invariant}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def at_node(self, node_id: int) -> "InvariantViolation":
        """The same breach, its detail prefixed with the node it was found on."""
        return InvariantViolation(self.invariant, f"node {node_id}: {self.detail}")
