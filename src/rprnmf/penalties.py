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


def penalty_value(d1, d2, measure: Measure) -> float:
    """The measure's penalty summed over triples, from each triple's pair
    distances d1 = dis(q, r) and d2 = dis(q, s)."""
    if measure is Measure.EUCLIDEAN:
        top = float(np.max(d1, initial=0.0))
        if top > MAX_EXP:
            raise PenaltyOverflowError(top)
        return float(np.sum(np.exp(d1) + np.exp(-d2)))
    return float(np.sum(np.maximum(0.0, d1 - d2)))


def euc_penalty_value(factor, cset: ConstraintSet) -> float:
    """Sum over triples of exp(E(q,r)) + exp(-E(q,s))."""
    return penalty_value(*triple_distances(cset, factor, Measure.EUCLIDEAN), Measure.EUCLIDEAN)


def div_penalty_value(factor, cset: ConstraintSet) -> float:
    """Sum over triples of the hinge max(0, SD(q,r) - SD(q,s))."""
    return penalty_value(*triple_distances(cset, factor, Measure.DIVERGENCE), Measure.DIVERGENCE)
