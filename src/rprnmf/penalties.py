"""Constraint penalty values.

Euclidean objective: each triple adds exp(E(q,r)) + exp(-E(q,s)), pulling
(q, r) together and pushing (q, s) apart.  Divergence objective: each triple
adds the hinge max(0, SD(q,r) - SD(q,s)), inert once the constraint holds.

The multiplicative updates that descend these penalties live in
``solver._sweep``.
"""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintSet, Measure, _pair_distances, constrained_vectors
from .exceptions import PenaltyOverflowError

MAX_EXP = 700.0


def _vectors(factor, cset: ConstraintSet) -> np.ndarray:
    v = constrained_vectors(cset.target, factor)
    cset.check_bounds(v.shape[0])
    return v


def _checked_exp(e: np.ndarray) -> np.ndarray:
    top = float(np.max(e, initial=0.0))
    if top > MAX_EXP:
        raise PenaltyOverflowError(top)
    return np.exp(e)


def euc_penalty_value(factor, cset: ConstraintSet) -> float:
    """Sum over triples of exp(E(q,r)) + exp(-E(q,s))."""
    if len(cset) == 0:
        return 0.0
    vec = _vectors(factor, cset)
    q, r, s = cset.index_arrays()
    e1 = _pair_distances(vec, q, r, Measure.EUCLIDEAN)
    e2 = _pair_distances(vec, q, s, Measure.EUCLIDEAN)
    return float(np.sum(_checked_exp(e1) + np.exp(-e2)))


def div_penalty_value(factor, cset: ConstraintSet) -> float:
    """Sum over triples of the hinge max(0, SD(q,r) - SD(q,s))."""
    if len(cset) == 0:
        return 0.0
    vec = _vectors(factor, cset)
    q, r, s = cset.index_arrays()
    d1 = _pair_distances(vec, q, r, Measure.DIVERGENCE)
    d2 = _pair_distances(vec, q, s, Measure.DIVERGENCE)
    return float(np.sum(np.maximum(0.0, d1 - d2)))
