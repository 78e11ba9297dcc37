"""Exception types raised across the package.

Everything derives from :class:`RprNmfError` so callers can catch the whole
family; most types also derive from the closest builtin (``ValueError``,
``IndexError``, ...) so untargeted handling keeps working.

An error that carries fields passes them to ``Exception.__init__``, keeps
them as attributes and formats its message in ``__str__``.  Its ``args``
are then its constructor's arguments, so it pickles and unpickles whole,
and one raised in a worker process reaches the parent as it was raised.
"""


class RprNmfError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(RprNmfError, ValueError):
    pass


class NegativeEntryError(RprNmfError, ValueError):
    def __init__(self, index: int, value: float):
        super().__init__(index, value)
        self.index, self.value = index, value

    def __str__(self) -> str:
        return f"negative entry {self.value!r} at flat index {self.index}"


class NonFiniteEntryError(RprNmfError, ValueError):
    def __init__(self, index: int, value: float):
        super().__init__(index, value)
        self.index, self.value = index, value

    def __str__(self) -> str:
        return f"non-finite entry {self.value!r} at flat index {self.index}"


class InvalidRangeError(RprNmfError, ValueError):
    pass


class LengthMismatchError(RprNmfError, ValueError):
    pass


class IndexOutOfRangeError(RprNmfError, IndexError):
    pass


class NoConstraintsError(RprNmfError, ValueError):
    pass


class InsufficientIndicesError(RprNmfError, ValueError):
    pass


class CycleDetectedError(RprNmfError, ValueError):
    """Constraint pair graph contains a cycle; node depth is undefined.

    ``edges`` lists the (pair -> pair) edges lying on a detected cycle so the
    caller can drop them and retry.
    """

    def __init__(self, edges):
        self.edges = list(edges)
        super().__init__(self.edges)

    def __str__(self) -> str:
        return f"constraint graph is cyclic; offending edges: {self.edges}"


class PenaltyOverflowError(RprNmfError, OverflowError):
    def __init__(self, exponent: float):
        super().__init__(exponent)
        self.exponent = exponent

    def __str__(self) -> str:
        return (f"exp argument {self.exponent:.3g} exceeds 700; rescale the input matrix "
                "so squared row/column distances stay representable")


class NonPositiveModelEntryError(RprNmfError, ValueError):
    pass


class TooFewPointsError(RprNmfError, ValueError):
    pass


class EmptyMaskError(RprNmfError, ValueError):
    pass


class DegenerateMaskError(RprNmfError, ValueError):
    """A mask used for factorisation has an all-zero row or column; ``args``
    are the lists of such rows and of such columns, 0-based."""

    def __str__(self) -> str:
        return "mask has empty rows {} / columns {}".format(*self.args)


class NoObservedRatingsError(RprNmfError, ValueError):
    def __init__(self, user: int):
        super().__init__(user)
        self.user = user

    def __str__(self) -> str:
        return f"user {self.user} has no observed ratings; threshold undefined"


class MalformedLineError(RprNmfError, ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(line, message)
        self.line, self.message = line, message

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


class TooSparseError(RprNmfError, ValueError):
    pass


class InvalidConfigError(RprNmfError, ValueError):
    pass


class SweepBuildError(RprNmfError, RuntimeError):
    """The compiled kernels could not be built or loaded."""
