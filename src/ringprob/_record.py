"""Immutable result records, built without importing `dataclasses`, which
loads `inspect`, `ast` and `dis` into every process that imports it."""


class Record:
    """Fields are the subclass's annotations, set once by position or
    keyword and then checked by _check.  Equality, hashing, copying and
    repr go by the field values, as for a frozen dataclass."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(f) for f in fields[len(args):] if f in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        self.__setstate__(args)
        self._check()

    def _check(self) -> None:
        """Reject invalid field values; the default accepts any."""

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self._fields, state):
            object.__setattr__(self, name, value)

    _key = __getstate__     # the values equality and hashing go by

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self.__getstate__()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__
