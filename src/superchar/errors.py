"""Exception types shared across the package."""


class GroupConstructionError(ValueError):
    """A multiplication table, subgroup, or partition is not what it claims to be."""


class OrderBoundError(GroupConstructionError):
    """A group is larger than the order bound it was asked to respect.

    `order` is the group's order, or, where a closure stopped as soon as it
    passed the bound, the number of elements it had found: a lower bound.
    """

    def __init__(self, message: str, order: int):
        super().__init__(message)
        self.order = order

    def __reduce__(self):
        # a pool worker pickles the exception that stopped its group for the parent
        return type(self), (str(self), self.order)


class CharacterTableError(ValueError):
    """A character table failed validation or could not be built/parsed."""


class SuperTheoryError(ValueError):
    """A supercharacter-theory operation was called outside its contract."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.

    Raised when two independent computations of the same quantity disagree.
    This never indicates bad input; it indicates a bug (or, for the
    theorem-level cross-checks, a genuine counterexample) and is therefore
    not an exception callers are expected to handle.
    """
