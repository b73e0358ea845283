"""Exception types shared across the package."""


class GenusMismatch(ValueError):
    """Operands live over surfaces of different genus."""


class DomainError(ValueError):
    """Input violates a documented precondition (bad op tag, non-homogeneous
    element where a homogeneous one is required, ...)."""


class UnsupportedOperation(RuntimeError):
    """The request is well-formed but deliberately not provided
    (e.g. integer kernel bases through the public field-only interface)."""


class ExtendedScaleRequired(RuntimeError):
    """The computation exceeds the desk-scale resource cap; rerun with the
    extended flag (and a time budget) to force it."""


class BudgetExceeded(RuntimeError):
    """A computation ran past its time budget."""


class Deadline:
    """Wall-clock budget checked from inner loops via tick()."""

    __slots__ = ("t_end", "label")

    def __init__(self, seconds, label=""):
        import time
        self.t_end = time.monotonic() + seconds
        self.label = label

    def tick(self):
        import time
        if time.monotonic() > self.t_end:
            raise BudgetExceeded(f"time budget exhausted {self.label}".strip())
