"""Plain records: instances that are a fixed tuple of named fields.

A record names its fields, in order, in ``__slots__`` and fills them in
its own ``__init__`` with ``_set``.  This base compares, shows and
pickles a record by those fields as ``@dataclass`` would, but makes no
code when the class is defined.  A ``Frozen`` record also refuses
assignment and hashes by its fields.  ``trusted`` fills an instance of
any slotted class the same way, without its constructor's checks.
"""

__all__ = ["Record", "Frozen", "trusted"]


class Record:
    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


def trusted(cls, *values):
    """The instance of ``cls`` whose slots hold ``values`` in order, built
    without its constructor, for data that passed its checks elsewhere (on
    a stack of rows) or that it refuses on purpose (a vanishing derived
    form).  Plain ``setattr`` keeps the orbit's image rate, which ``_set``'s
    ``object.__setattr__`` cut by about 10%; so no ``Frozen`` record is
    built here."""
    instance = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        setattr(instance, name, value)
    return instance
