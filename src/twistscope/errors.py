"""Exception types shared across twistscope modules."""


class TwistscopeError(Exception):
    """Base class for all twistscope-specific failures."""


class NotSquarefreeError(TwistscopeError):
    """A polynomial expected to be squarefree mod p has a repeated factor.

    Callers computing splitting data treat the offending prime as
    ramified/excluded rather than aborting a whole scan.
    """


class BadReductionError(TwistscopeError):
    """A count or L-polynomial was requested at a prime of bad reduction."""

    def __init__(self, label: str, p: int):
        super().__init__(f"curve {label!r} has bad reduction at p={p}")
        self.label = label
        self.p = p

    def __reduce__(self):
        # rebuilt from (label, p) when a worker process sends it back
        return BadReductionError, (self.label, self.p)


class BudgetExceededError(TwistscopeError):
    """An enumeration would exceed the configured work budget.

    ``required`` is the total number of field evaluations the refused
    computation would have needed, so callers can report how much budget
    would suffice.
    """

    def __init__(self, required: int, budget: int, context: str = ""):
        msg = f"enumeration needs {required} field evaluations, budget is {budget}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)
        self.required = required
        self.budget = budget


class InconsistentCountsError(TwistscopeError):
    """Point counts cannot come from any curve: Newton division left a
    remainder or a Weil bound is violated."""


class RamifiedPrimeError(TwistscopeError):
    """Residue-degree computation was attempted at a guarded prime."""


class NotGaloisConsistentError(TwistscopeError):
    """A polynomial declared Galois factored with mixed degrees mod p."""
