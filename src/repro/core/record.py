"""Plain records: what ``@dataclass`` generated, with no code generated.

``dataclasses`` imports ``inspect`` (with ``ast`` and ``dis``) and
compiles each class's methods from generated source: ≈ 19 ms of an
agent's boot for its 22 records (DESIGN.md §6).  A record on this base
writes its own ``__init__`` and lists its fields in ``__slots__``;
``_fields`` (base classes' first) is what ``repr``, ``==``, the hash and
``_init`` walk, and ``type(r)(**r._asdict())`` copies ``r``.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    """A mutable record: ``==`` field by field between instances of one
    class, ``repr`` as ``Name(field=value, ...)``, unhashable."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict:
        """``{field: value}`` in field order (values are not copied)."""
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A record whose fields are set once, by ``_init``, and refuse
    assignment after; hashable by value."""

    __slots__ = ()

    def _init(self, *values) -> None:
        """Set every field, in ``_fields`` order (``__init__`` calls this)."""
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
