"""The base of the package's immutable value types.

A value type subclasses `CheckedTuple` and a `collections.namedtuple`, in
that order, with `__slots__ = ()` and one checked `__new__`. Its fields are
read through the namedtuple's C-level descriptors; hash and `==` are the
tuple's unless the type says otherwise, so a value equals a plain tuple of
its items; and setting any attribute raises `AttributeError`.
"""


class CheckedTuple:
    """Routes `_make`, and so `_replace`, and copy and pickle through the
    type's constructor, so that none of them can build a value the
    constructor rejects."""

    __slots__ = ()

    @classmethod
    def _make(cls, items):
        return cls(*items)

    def __reduce__(self):
        # an item after the namedtuple's fields is derived: made again
        return type(self), self[:len(self._fields)]
