"""The bases of the package's immutable value types.

A value type subclasses `CheckedTuple` and a `collections.namedtuple`, in
that order, with `__slots__ = ()` and one checked `__new__`. Its fields are
read through the namedtuple's C-level descriptors; hash and `==` are the
tuple's unless the type says otherwise, so a value equals a plain tuple of
its items; and setting any attribute raises `AttributeError`.

A value that is not a tuple subclasses `Frozen` and sets its slots once,
in `__init__`, with `object.__setattr__`.
"""


class Frozen:
    """Setting or deleting any attribute raises `AttributeError`."""

    __slots__ = ()

    def _frozen(self, name, *value):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot change {name}")

    __setattr__ = __delattr__ = _frozen


class CheckedTuple:
    """Routes `_make`, and so `_replace`, and copy and pickle through the
    type's constructor, so that none of them can build a value the
    constructor rejects. `+` and `*` are refused: a tuple's would
    concatenate or repeat the items into a plain tuple. A plain tuple on
    the left of `+` still concatenates, and `StableCell` and the
    `NamedTuple`s are tuples that keep both operators."""

    __slots__ = ()

    def _no_arithmetic(self, other):
        return NotImplemented

    __add__ = __mul__ = __rmul__ = _no_arithmetic

    @classmethod
    def _make(cls, items):
        return cls(*items)

    def __reduce__(self):
        # an item after the namedtuple's fields is derived: made again
        return type(self), self[:len(self._fields)]
