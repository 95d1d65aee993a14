"""Exception types shared across the package."""


class RingInvError(Exception):
    """Base class for all library errors."""


class RingMismatchError(RingInvError):
    """Operands belong to different rings."""


class UnsupportedInvolutionError(RingInvError):
    """The ring has no involution but the operation needs one."""


class NotEnumerableError(RingInvError):
    """An exhaustive scan was requested on an infinite ring."""


class PreconditionError(RingInvError):
    """An explicit precondition of the operation does not hold."""


class BudgetError(RingInvError):
    """An exact answer is out of the library's reach (such as a modulus
    too large to factor with certainty)."""


class VerificationError(RingInvError):
    """A constructed result failed its own defining equations (library bug)."""
