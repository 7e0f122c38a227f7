"""Plain value classes: field-wise ==, hash and repr over a declared field tuple.

A subclass lists its fields, in order, in _FIELDS and sets them in its own
__init__.  Two values are equal when they have the same class and equal
fields, and the repr reads like a call, ``FreeWord(n=3, letters=(1, -2))``.
A Value is mutable and unhashable; a FrozenValue refuses assignment and
deletion and hashes its field tuple, so one holding a dict is unhashable.
Frozen values set their fields with object.__setattr__, which keeps the
interpreter's inline attribute storage; writing to __dict__ would not.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, ClassVar


class Value:
    _FIELDS: ClassVar[tuple[str, ...]]
    _field_values: ClassVar[Callable[[Any], tuple]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "_FIELDS" in cls.__dict__:
            # every value class has at least two fields, so this returns a tuple
            cls._field_values = attrgetter(*cls._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._field_values(self) == self._field_values(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"


class FrozenValue(Value):
    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
