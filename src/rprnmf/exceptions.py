"""Exception types raised across the package.

Everything derives from :class:`RprNmfError` so callers can catch the whole
family; most types also derive from the closest builtin (``ValueError``,
``IndexError``, ...) so untargeted handling keeps working.
"""


class RprNmfError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(RprNmfError, ValueError):
    pass


class NegativeEntryError(RprNmfError, ValueError):
    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"negative entry {value!r} at flat index {index}")


class NonFiniteEntryError(RprNmfError, ValueError):
    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"non-finite entry {value!r} at flat index {index}")


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
        super().__init__(f"constraint graph is cyclic; offending edges: {self.edges}")


class PenaltyOverflowError(RprNmfError, OverflowError):
    def __init__(self, exponent: float):
        self.exponent = exponent
        super().__init__(
            f"exp argument {exponent:.3g} exceeds 700; rescale the input matrix "
            "so squared row/column distances stay representable"
        )


class NonPositiveModelEntryError(RprNmfError, ValueError):
    pass


class TooFewPointsError(RprNmfError, ValueError):
    pass


class EmptyMaskError(RprNmfError, ValueError):
    pass


class DegenerateMaskError(RprNmfError, ValueError):
    """A mask used for factorisation has an all-zero row or column."""


class NoObservedRatingsError(RprNmfError, ValueError):
    def __init__(self, user: int):
        self.user = user
        super().__init__(f"user {user} has no observed ratings; threshold undefined")


class RaggedCsvError(RprNmfError, ValueError):
    def __init__(self, line: int, message: str = "ragged row"):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NonNumericCsvError(RprNmfError, ValueError):
    def __init__(self, line: int, token: str):
        self.line = line
        self.token = token
        super().__init__(f"line {line}: non-numeric value {token!r}")


class MalformedLineError(RprNmfError, ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class TooSparseError(RprNmfError, ValueError):
    pass


class InvalidConfigError(RprNmfError, ValueError):
    pass


class SweepBuildError(RprNmfError, RuntimeError):
    """The compiled kernels could not be built or loaded."""
