"""The base class of the package's immutable records.

Records are plain classes, not dataclasses: ``@dataclass`` imports
``dataclasses`` and ``inspect`` and ``exec``s five generated methods per
class, about a millisecond a class on every cold start.  A record without
validation is a ``typing.NamedTuple``; one whose constructor checks its
arguments, or that compares by identity, subclasses ``Record``.
"""

import operator


class Record:
    """Value equality and hashing over the fields ``_fields``, a
    dataclass-style repr, and no assignment: ``__init__`` sets each field
    with ``object.__setattr__``, any later assignment raises AttributeError."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field values of an instance, read in C: points are cache keys
        cls._values = staticmethod(operator.attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
