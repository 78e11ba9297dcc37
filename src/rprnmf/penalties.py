"""Constraint penalty values.

Euclidean objective: each triple adds exp(E(q,r)) + exp(-E(q,s)), pulling
(q, r) together and pushing (q, s) apart.  Divergence objective: each triple
adds the hinge max(0, SD(q,r) - SD(q,s)), inert once the constraint holds.

The multiplicative updates that descend these penalties live in
``solver._sweep``.
"""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintSet, Measure, triple_distances
from .exceptions import PenaltyOverflowError

MAX_EXP = 700.0


def euc_penalty_value(factor, cset: ConstraintSet) -> float:
    """Sum over triples of exp(E(q,r)) + exp(-E(q,s))."""
    e1, e2 = triple_distances(cset, factor, Measure.EUCLIDEAN)
    top = float(np.max(e1, initial=0.0))
    if top > MAX_EXP:
        raise PenaltyOverflowError(top)
    return float(np.sum(np.exp(e1) + np.exp(-e2)))


def div_penalty_value(factor, cset: ConstraintSet) -> float:
    """Sum over triples of the hinge max(0, SD(q,r) - SD(q,s))."""
    d1, d2 = triple_distances(cset, factor, Measure.DIVERGENCE)
    return float(np.sum(np.maximum(0.0, d1 - d2)))
