"""Exception types shared across the package, the time budget, the genus cap."""

from contextvars import ContextVar
from time import monotonic

HARD_GENUS_CAP = 10  # no command computes beyond this genus


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


_ACTIVE = ContextVar("deadline", default=None)
active = _ACTIVE.get  # the innermost entered Deadline, or None


class Deadline:
    """Wall-clock budget: `with Deadline(seconds):` makes it the active one,
    which tick() checks, and restores the one before when the block ends."""

    __slots__ = ("t_end", "label", "_outer")

    def __init__(self, seconds, label=""):
        if seconds != seconds:  # NaN: no time would ever compare past it
            raise DomainError("a time budget must be a number of seconds, got nan")
        self.t_end = monotonic() + seconds
        self.label = label

    def __enter__(self):
        # the outer Deadline, not a contextvars.Token: verify --jobs pickles
        # the active deadline into its workers, and a Token cannot be pickled
        self._outer = _ACTIVE.get()
        _ACTIVE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.set(self._outer)

    def tick(self):
        if monotonic() > self.t_end:
            raise BudgetExceeded(f"time budget exhausted {self.label}".strip())


def tick():
    """Raise BudgetExceeded if the active deadline has passed, else nothing
    ("ticks once per ..." in the docstrings of the loops that call it).
    Generators tick while iterated: iterate them inside the `with` block."""
    dl = _ACTIVE.get()
    if dl is not None:
        dl.tick()
