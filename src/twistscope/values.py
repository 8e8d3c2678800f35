"""Base classes for the package's value classes, built on ``__slots__``.

A subclass names its fields in ``__slots__``, in constructor order, and
writes its own ``__init__``, which is where it validates them.  ``Value``
compares field by field and is unhashable, like any mutable value;
``FrozenValue`` is hashable and refuses assignment, so its ``__init__``
sets the fields with ``_set``.  Plain immutable records are
namedtuples instead.  The package avoids ``dataclasses`` because every
command would pay its import (with ``inspect``) and each decorated class
at start-up.
"""


class Value:
    """Field-wise equality and repr over ``__slots__``; unhashable."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"


class FrozenValue(Value):
    """An immutable Value: hashable, and unpickled without running ``__init__`` again."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is immutable")

    def _set(self, *values) -> None:
        """Set every field, in ``__slots__`` order, past the assignment guard."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)
