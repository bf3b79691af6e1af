"""Small value classes with equality, hash and repr by their fields.

They behave like dataclasses (equality only between instances of one
class, the repr ``Name(field=value, ...)``, a frozen class hashing like the
tuple of its fields) without importing `dataclasses`, which loads `inspect`
and adds several milliseconds to every start-up.
"""

__all__ = ["Record", "FrozenRecord"]


class Record:
    """Equal to an instance of the same class with equal ``_fields``;
    unhashable, as its fields may change."""

    _fields: tuple = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields are set once, by `_set` in ``__init__``; it
    hashes like the tuple of its fields."""

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
