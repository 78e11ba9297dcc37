"""Reference oracles the tests hold the package to.

Each is a literal, per-triple transcription of a rule, written for clarity
rather than speed: the two penalty gradients, the triple-satisfaction test
and the sequential entry rule of one constrained sweep.  The package itself
applies these rules in one place only, ``solver._sweep``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from rprnmf.constraints import (
    ConstraintSet,
    ConstraintTriple,
    Measure,
    Target,
    constrained_vectors,
    euclidean_sq,
    symmetric_divergence,
)
from rprnmf.exceptions import IndexOutOfRangeError, PenaltyOverflowError
from rprnmf.matrix import EPS
from rprnmf.penalties import MAX_EXP


class EucPenaltyGrad(NamedTuple):
    positive_part: float
    negative_part: float


def _vectors(factor, cset: ConstraintSet, a: int, b: int) -> np.ndarray:
    vec = constrained_vectors(cset.target, factor)
    cset.check_bounds(vec.shape[0])
    n, dim = vec.shape
    if not (0 <= a < n) or not (0 <= b < dim):
        raise IndexOutOfRangeError(f"entry ({a}, {b}) outside {vec.shape}")
    return vec


def _checked_dist(x: np.ndarray, y: np.ndarray, check: bool = True) -> float:
    d = x - y
    e = float(np.dot(d, d))
    if check and e > MAX_EXP:
        raise PenaltyOverflowError(e)
    return e


def euc_penalty_grad(factor, cset: ConstraintSet, a: int, b: int) -> EucPenaltyGrad:
    """Positive/negative gradient parts at entry (a, b) of the constrained factor.

    ``a`` indexes the constrained axis (0-based), ``b`` the latent axis.  Both
    parts are sums of exponential-weighted non-negative entries, and
    2*(positive_part - negative_part) is the derivative of
    ``euc_penalty_value`` with respect to that entry.
    """
    vec = _vectors(factor, cset, a, b)
    pos = neg = 0.0
    for t in cset.triples:
        q, r, s = t.q - 1, t.r - 1, t.s - 1
        if a not in (q, r, s):
            continue
        e1 = math.exp(_checked_dist(vec[q], vec[r]))
        e2 = math.exp(-_checked_dist(vec[q], vec[s], check=False))
        wq, wr, ws = vec[q, b], vec[r, b], vec[s, b]
        if a == q:
            pos += e1 * wq + e2 * ws
            neg += e1 * wr + e2 * wq
        elif a == r:
            pos += e1 * wr
            neg += e1 * wq
        else:
            pos += e2 * wq
            neg += e2 * ws
    return EucPenaltyGrad(pos, neg)


def g_kernel(x: float, y: float) -> float:
    """log(x/y) + (x - y)/x with both arguments clamped at EPS."""
    x = max(x, EPS)
    y = max(y, EPS)
    return math.log(x / y) + (x - y) / x


def div_penalty_grad(factor, cset: ConstraintSet, a: int, b: int) -> float:
    """Signed hinge-gradient accumulator P at entry (a, b).

    Satisfied triples (strict SD(q,r) < SD(q,s) on the current factor) are
    skipped entirely; for the rest the q-anchored contribution is
    g(q,r) - g(q,s), the r-anchored one +g(r,q) and the s-anchored one
    -g(s,q), all evaluated on the latent-b entries.  P/2 is the derivative of
    ``div_penalty_value`` wherever the hinge is strictly active.
    """
    vec = _vectors(factor, cset, a, b)
    p = 0.0
    for t in cset.triples:
        q, r, s = t.q - 1, t.r - 1, t.s - 1
        if a not in (q, r, s):
            continue
        if symmetric_divergence(vec[q], vec[r]) < symmetric_divergence(vec[q], vec[s]):
            continue
        wq, wr, ws = float(vec[q, b]), float(vec[r, b]), float(vec[s, b])
        if a == q:
            p += g_kernel(wq, wr) - g_kernel(wq, ws)
        elif a == r:
            p += g_kernel(wr, wq)
        else:
            p -= g_kernel(ws, wq)
    return p


def distance(measure: Measure, x, y) -> float:
    return euclidean_sq(x, y) if measure is Measure.EUCLIDEAN else symmetric_divergence(x, y)


def is_satisfied(triple: ConstraintTriple, vectors, measure: Measure) -> bool:
    """Strict test dis(v_q, v_r) < dis(v_q, v_s) on an (n, dim) family of vectors."""
    va = np.asarray(vectors, float)
    n = va.shape[0]
    if max(triple.q, triple.r, triple.s) > n:
        raise IndexOutOfRangeError(f"triple {triple} out of range for {n} vectors")
    dqr = distance(measure, va[triple.q - 1], va[triple.r - 1])
    dqs = distance(measure, va[triple.q - 1], va[triple.s - 1])
    return dqr < dqs


def reference_ordered_sweep(fac, num, den, cset, lam, measure):
    """Literal sequential reference of one constrained sweep, in place.

    ``fac`` is (vectors x latent), the orientation ``solver._sweep`` takes: W
    itself, or a transposed view of H.  Latent columns go outer, every index
    inner, and each entry's penalty gradient comes fresh from the oracles
    above on the live factor.  Divergence entries whose penalised denominator
    is negative fall back to the plain multiplicative step.
    """
    nvec, kdim = fac.shape
    factor = fac if cset.target is Target.W_ROWS else fac.T
    for k in range(kdim):
        for a in range(nvec):
            old = fac[a, k]
            if measure is Measure.EUCLIDEAN:
                cpos, cneg = euc_penalty_grad(factor, cset, a, k)
                fac[a, k] = old * (num[a, k] + lam * cneg) / max(den[a, k] + lam * cpos, EPS)
            else:
                pen = 0.5 * lam * div_penalty_grad(factor, cset, a, k) + den[a, k]
                if pen < 0:
                    fac[a, k] = old * num[a, k] / max(den[a, k], EPS)
                else:
                    fac[a, k] = old * num[a, k] / max(pen, EPS)
