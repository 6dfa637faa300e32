"""Exception types shared by every module of the kernel, and its record base.

Errors are reserved for malformed inputs and out-of-range requests.  Law
violations found by the checkers are data (reports), not exceptions.

:class:`Record` is the immutable value type the other modules build their
cells, tables and results on.  It lives here because every command loads
this module, and it keeps ``dataclasses`` (with ``inspect`` and ``ast``
behind it) out of every command's import floor.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Immutable record: equality, hash and repr over the attributes in ``_fields``.

    Each subclass names its fields, in order, in ``_fields`` and sets them in
    its own ``__init__`` through ``self.__dict__``.  Two records are equal
    when they are of the same class and their fields are equal, and the hash
    is that of the tuple of fields, so a record holding a dict has none.
    Assigning or deleting any attribute raises ``AttributeError``.  Other
    attributes (derived data and caches) stay out of equality and repr.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if len(cls._fields) == 1:  # attrgetter of one name gives the value, not a tuple
            one = attrgetter(*cls._fields)
            cls._values = staticmethod(lambda record: (one(record),))
        else:
            cls._values = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other is self:  # equal fields, as a tuple compares its items by identity first
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class KernelError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(KernelError):
    """Input data is structurally malformed (bad keys, missing tables, ...)."""


class MissingCell(ValidationError):
    """A map refers to a cell that was never declared."""


class GlobularViolation(ValidationError):
    """Source/target maps break the globular relations.

    Carries the full list of offending ``(dimension, cell)`` pairs in
    ``self.violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ", ".join(f"dim {i}: {u} ({which})" for i, u, which in self.violations)
        super().__init__(f"globular relations violated at {lines}")


class DimOutOfRange(KernelError):
    """A dimension beyond the declared truncation was requested."""


class IndexOutOfRange(KernelError):
    """A tuple position outside 1..width was requested."""


class ParseError(ValidationError):
    """Text input could not be parsed."""


class ShapeViolation(ValidationError):
    """A dimension table breaks the shape constraint i_k > i'_k, i_{k+1} > i'_k."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"at k={position}: {message}")


class NotComposable(KernelError):
    """Two cells were composed whose iterated boundaries do not match."""

    def __init__(self, message: str, left_boundary=None, right_boundary=None):
        self.left_boundary = left_boundary
        self.right_boundary = right_boundary
        super().__init__(message)


class InversesAbsent(KernelError):
    """An inverse table was requested on a structure that has none."""


class NotAGroup(ValidationError):
    """A multiplication table fails the group laws."""


class NotAbelian(ValidationError):
    """A commutative multiplication table was required but not supplied."""


class GluingViolation(KernelError):
    """Entries of a tuple fail a gluing equation.

    ``self.position`` is the 1-based index of the first failing equation.
    """

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"gluing equation {position}: {message}")


class NotNatural(ValidationError):
    """A family of per-object choices fails naturality."""
