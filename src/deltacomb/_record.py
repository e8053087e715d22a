"""Immutable slotted records, the base of the library's value types.

They replace frozen dataclasses, whose import pulls in inspect, ast, dis and
tokenize (8 ms of a cold `deltacomb energy` on Python 3.11) and whose classes
cost about 1 ms each to build; a namedtuple's fields read slower than slots.
"""


class Record:
    """Fields are _fields, the nearest non-empty __slots__ of the class and
    its bases (a subclass that declares none keeps its base's), set once by
    _set from an __init__ with the real signature.  A record cannot change,
    compares and hashes by type and values (never equal to a tuple), and
    prints as a dataclass does."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        slots = vars(cls).get("__slots__")
        if slots:
            cls._fields = tuple(slots)

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete field {name!r} of a record")
    __delattr__ = __setattr__

    def _astuple(self) -> tuple[object, ...]:
        return tuple([getattr(self, name) for name in self._fields])
    __getstate__ = _astuple  # what copy and pickle keep, at every protocol

    def __setstate__(self, state: tuple[object, ...]) -> None:
        self._set(*state)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash((self.__class__, self._astuple()))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"
