"""Exception hierarchy shared by all hallalg modules."""


class HallAlgError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HallAlgError):
    """Malformed input: bad dimensions, schema violations, non-prime moduli."""


class EnumerationCapError(HallAlgError):
    """An exhaustive enumeration would exceed the configured candidate cap.

    Raised instead of silently truncating; truncated enumerations would fake
    algebraic identities downstream.
    """


class OutOfUniverseError(HallAlgError):
    """A computed object leaves the configured catalog bound or shift window."""


class InvariantError(HallAlgError):
    """A mathematical invariant the computation relies on failed to hold.

    Raised explicitly rather than asserted, so the check survives python -O.
    """
