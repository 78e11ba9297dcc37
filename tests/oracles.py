"""Reference oracles the tests hold the package to.

Each is a literal transcription of a rule, written for clarity rather than
speed: the two vector distances, the two penalty gradients, the
triple-satisfaction test, the sequential entry rule of one constrained
sweep, classic (lambda = 0) multiplicative NMF with an optional mask, the
two data fits as plain array expressions, the two-reduction entry check of
the data, the CSR layout of observed cells, W @ H at those cells, and the
widest-margin ordering of a chain, by brute force and by the pruned search.
The package itself applies each rule in one place only: the distances in
``constraints._pair_distances``, the entry rules in ``solver._sweep``, the
fits in ``matrix.frobenius_sq_diff`` and ``matrix.matrix_divergence``, the
entry check in ``matrix.check_data``, the layout and the model in
``matrix.ObservedCells``, and the ordering in
``constraints._increasing_ordering``.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from rprnmf.constraints import (
    ConstraintSet,
    ConstraintTriple,
    Measure,
    Target,
    constrained_vectors,
)
from rprnmf.exceptions import (
    IndexOutOfRangeError,
    LengthMismatchError,
    NegativeEntryError,
    NonFiniteEntryError,
    PenaltyOverflowError,
)
from rprnmf.matrix import EPS
from rprnmf.solver import MAX_EXP


def euclidean_sq(x, y) -> float:
    """Squared Euclidean distance between two vectors."""
    xa, ya = np.asarray(x, float), np.asarray(y, float)
    if xa.shape != ya.shape:
        raise LengthMismatchError(f"vector lengths {xa.shape} vs {ya.shape}")
    d = xa - ya
    return float(np.dot(d, d))


def symmetric_divergence(x, y) -> float:
    """Symmetrised KL divergence 0.5*sum((x-y)*log(x/y)), entries clamped at EPS."""
    xa, ya = np.asarray(x, float), np.asarray(y, float)
    if xa.shape != ya.shape:
        raise LengthMismatchError(f"vector lengths {xa.shape} vs {ya.shape}")
    xc = np.maximum(xa, EPS)
    yc = np.maximum(ya, EPS)
    return float(0.5 * np.sum((xc - yc) * np.log(xc / yc)))


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
    ``euc_penalty_value`` of the set's ``triple_distances`` with respect to
    that entry.
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
    ``div_penalty_value`` of the set's ``triple_distances`` wherever the hinge
    is strictly active.
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


def dense_masked_terms(v, bits, w, h, measure, side):
    """Masked data-fit terms as dense N x M products with the 0/1 mask ``bits``."""
    wh = w @ h
    if measure is Measure.EUCLIDEAN:
        if side == "w":
            return (bits * v) @ h.T, (bits * wh) @ h.T
        return w.T @ (bits * v), w.T @ (bits * wh)
    ratio = bits * v / np.maximum(wh, EPS)
    if side == "w":
        return ratio @ h.T, bits @ h.T
    return w.T @ ratio, w.T @ bits


def lee_seung(v, w, h, measure, iters, bits=None):
    """(W, H) after ``iters`` classic multiplicative iterations from (w, h).

    Each iteration updates W, then H from the new W.  Unmasked, the terms are
    Lee and Seung's; given a 0/1 mask ``bits``, they are
    :func:`dense_masked_terms`, so only observed cells enter.
    """
    for _ in range(iters):
        if bits is not None:
            num, den = dense_masked_terms(v, bits, w, h, measure, "w")
            w = w * num / np.maximum(den, EPS)
            num, den = dense_masked_terms(v, bits, w, h, measure, "h")
            h = h * num / np.maximum(den, EPS)
        elif measure is Measure.EUCLIDEAN:
            w = w * (v @ h.T) / np.maximum(w @ (h @ h.T), EPS)
            h = h * (w.T @ v) / np.maximum((w.T @ w) @ h, EPS)
        else:
            w = w * ((v / np.maximum(w @ h, EPS)) @ h.T) / np.maximum(h.sum(axis=1), EPS)
            h = h * (w.T @ (v / np.maximum(w @ h, EPS))) / np.maximum(w.sum(axis=0)[:, None], EPS)
    return w, h


def sq_diff_fit(v, wh) -> float:
    """sum((v - wh)^2) as one expression, a fresh array per step."""
    d = v - wh
    return float(np.sum(d * d))


def divergence_fit(v, wh) -> float:
    """sum(v*log(v/wh) - v + wh) as one expression, a fresh array per step:
    model entries clamped at EPS in both terms, 0*log(0/y) taken as 0."""
    wc = np.maximum(wh, EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.where(v > 0, v * np.log(np.maximum(v, EPS) / wc), 0.0)
    return float(np.sum(lg - v + wc))


def two_reduction_check(v: np.ndarray) -> None:
    """Refuse a float array unless min >= 0 and max < inf, naming the first
    bad entry in row-major order: the first negative if there is one, else
    the first non-finite.  min and max propagate NaN, and -0.0 passes."""
    if v.size and not (v.min() >= 0 and v.max() < np.inf):
        flat = v.ravel()
        neg = np.flatnonzero(flat < 0)
        if neg.size:
            raise NegativeEntryError(int(neg[0]), float(flat[neg[0]]))
        i = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise NonFiniteEntryError(i, float(flat[i]))


def cell_layout(flat, shape) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, cols) of the ascending row-major flat indices ``flat`` in an
    N x M matrix: each cell's row and column by divmod, rows counted."""
    n, m = shape
    rows, cols = np.divmod(np.asarray(flat, dtype=np.int64), m)
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))), cols


def ordered_model(w, h, bits) -> np.ndarray:
    """W @ H at the nonzero cells of ``bits``, row-major: each cell's products
    added one at a time in ascending latent index, from 0.0."""
    out = []
    for i, j in zip(*np.nonzero(bits)):
        acc = 0.0
        for l in range(w.shape[1]):
            acc += float(w[i, l]) * float(h[l, j])
        out.append(acc)
    return np.array(out)


def widest_increasing_ordering(dist) -> tuple[list[int] | None, float]:
    """Every ordering of the points, in lexicographic order: the first whose
    consecutive distances strictly increase with the widest smallest gap
    between them, and that gap; (None, -inf) when none does.  A path's first
    hop has no predecessor, so it counts as a gap of +inf."""
    best, best_gap = None, -math.inf
    for path in itertools.permutations(range(len(dist))):
        hops = [dist[a, b] for a, b in zip(path, path[1:])]
        gap = min([math.inf] + [d - c for c, d in zip(hops, hops[1:])])
        if gap > 0 and gap > best_gap:
            best, best_gap = list(path), gap
    return best, best_gap


def pruned_increasing_ordering(dist) -> tuple[list[int] | None, float]:
    """The search ``constraints._increasing_ordering`` makes in compiled code,
    as a Python recursion over the distances as Python floats (the same
    doubles): the points in ascending order at every depth, a hop pruned when
    the path's smallest gap is not positive or not wider than the best path's,
    and a whole path kept only when strictly wider, so the lexicographically
    first of equally wide paths wins.  A path starts at last distance -inf,
    so its first hop's gap is +inf, and the gap is ``min(min_gap, x)``, which
    keeps ``min_gap`` unless ``x`` is strictly smaller, so a NaN ``x`` is
    ignored.  (None, -inf) when no ordering increases."""
    dist = np.asarray(dist, dtype=np.float64).tolist()
    n = len(dist)
    path = [0] * n
    used = [False] * n
    best, best_gap = None, -math.inf

    def extend(depth: int, last_d: float, min_gap: float) -> None:
        nonlocal best, best_gap
        if depth == n:
            if min_gap > best_gap:
                best_gap = min_gap
                best = list(path)
            return
        row = dist[path[depth - 1]]
        for cand in range(n):
            if used[cand]:
                continue
            d = row[cand]
            gap = min(min_gap, d - last_d)
            if gap <= 0 or gap <= best_gap:
                continue
            path[depth] = cand
            used[cand] = True
            extend(depth + 1, d, gap)
            used[cand] = False

    for first in range(n):
        path[0] = first
        used[first] = True
        extend(1, -math.inf, math.inf)
        used[first] = False
    return best, best_gap
