import math
import pickle

import pytest

from rprnmf import cli, constraints  # noqa: F401  (their errors join the family)
from rprnmf.exceptions import (
    CycleDetectedError,
    DegenerateMaskError,
    MalformedLineError,
    NegativeEntryError,
    NoObservedRatingsError,
    NonFiniteEntryError,
    PenaltyOverflowError,
    RprNmfError,
)

# constructor arguments of each error with fields; the others take a message
FIELDS = {
    NegativeEntryError: (3, -1.5),
    NonFiniteEntryError: (0, math.inf),
    CycleDetectedError: ([((1, 2), (1, 3)), ((1, 3), (1, 2))],),
    PenaltyOverflowError: (3.12e9,),
    NoObservedRatingsError: (4,),
    MalformedLineError: (2, "expected 2 fields, got 1"),
    DegenerateMaskError: ([1], []),
}


def family(cls=RprNmfError):
    for sub in cls.__subclasses__():
        yield sub
        yield from family(sub)


ERRORS = sorted(set(family()), key=lambda c: c.__name__)


def test_family_includes_the_module_errors():
    names = {c.__name__ for c in ERRORS}
    assert {"UsageError", "InvalidTripleError", "SweepBuildError"} <= names
    assert set(FIELDS) <= set(ERRORS)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    # an error raised in a --threads worker crosses to the parent this way
    err = cls(*FIELDS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args and vars(back) == vars(err)


@pytest.mark.parametrize("err, message", [
    (NegativeEntryError(1, -1.0), "negative entry -1.0 at flat index 1"),
    (NonFiniteEntryError(0, math.nan), "non-finite entry nan at flat index 0"),
    (CycleDetectedError([((1, 2), (1, 3))]), "constraint graph is cyclic; offending edges: [((1, 2), (1, 3))]"),
    (PenaltyOverflowError(3.12e9), "exp argument 3.12e+09 exceeds 700; rescale the input matrix "
                                   "so squared row/column distances stay representable"),
    (NoObservedRatingsError(4), "user 4 has no observed ratings; threshold undefined"),
    (MalformedLineError(2, "empty file"), "line 2: empty file"),
    (DegenerateMaskError([1], []), "mask has empty rows [1] / columns []"),
], ids=["negative", "non-finite", "cycle", "overflow", "no-ratings", "malformed-line", "degenerate-mask"])
def test_messages(err, message):
    assert str(err) == message
