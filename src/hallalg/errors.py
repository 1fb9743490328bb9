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


def frozen_field_error(action: str, name: str) -> AttributeError:
    """The dataclasses.FrozenInstanceError an immutable value class raises
    when a field is assigned to or deleted; dataclasses is imported here,
    when one is raised, so that no run of the package pays for it."""
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(f"cannot {action} field {name!r}")


class Frozen:
    """An immutable value, with the protocol of a frozen dataclass: a
    __slots__ subclass names its value fields, in order, in `_fields` and
    sets them in its constructor through object.__setattr__.

    Assignment and deletion raise frozen_field_error.  A value equals only
    a value of its own class with equal fields, and hashes as the tuple of
    its fields; repr reads `Name(field=value, ...)`, and a pickle rebuilds
    the value through the constructor, called with the fields in order."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise frozen_field_error("assign to", name)

    def __delattr__(self, name):
        raise frozen_field_error("delete", name)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __reduce__(self):
        return (self.__class__, self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
