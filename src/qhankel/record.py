"""Base of the package's small value classes: fields named in ``__slots__``
and set by :meth:`Record._init`, equality by type and fields, repr by fields;
frozen records refuse assignment and hash by their fields.  Unlike
``dataclasses``, it loads no ``inspect`` at ``import qhankel``."""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _init(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]  # mutable, so unhashable

    def __reduce__(self) -> tuple:  # copy and pickle through __init__
        return type(self), self._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())
