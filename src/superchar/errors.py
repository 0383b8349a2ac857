"""Exception types shared across the package."""


class GroupConstructionError(ValueError):
    """A multiplication table, subgroup, or partition is not what it claims to be."""


class OrderBoundError(GroupConstructionError):
    """A group is larger than the order bound it was asked to respect."""


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
