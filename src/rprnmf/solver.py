"""Multiplicative-update solvers for constraint-penalised factorisation.

Both solvers alternate a full W sweep with a full H sweep.  Within a sweep
the data-fit numerator/denominator come from the sweep-start factors (so the
unconstrained case collapses exactly to the classic multiplicative rules),
while penalty terms are re-evaluated from the freshest entries, walking
latent columns outermost and constrained indices innermost.

Within one latent column that pinned order is a sparse triangular
dependency, so the sweep is level-scheduled the way sparse triangular solves
are (Anderson & Saad 1989; Saltz 1990).  A constrained vector's level is
1 + the highest level of the earlier vectors it shares a triple with.
Vectors on one level share no triple and read exactly what the sequential
walk reads, so a level is one numpy step: gathers of the column, the exp or
hinge-log terms, ``np.bincount`` sums per vector, and conflict-free
scatter-adds into the pair distances.  Levels narrower than
``WIDTH_CROSSOVER`` are walked one vector at a time instead, on Python list
copies of the entries and distances they read, through the same gather
tables as a level step.  On 5000
triples over 3706 vectors, k = 20 (21 levels of 472 down to 38 vectors, then
a walk of 15), one H sweep took 32-40 ms (Euclidean) and 36-51 ms
(divergence), against 370 ms and 563 ms for the vector-by-vector walk, on a
2-core VM with BLAS on one thread.  Syn-1's chain sets (levels of at most
about 21 vectors) are walked whole, as before.

The divergence solver adapts its penalty coefficients: an iteration that
increases the objective is rolled back and both coefficients are halved,
otherwise they grow by 1%.  The Euclidean solver keeps its coefficients
fixed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constraints import ConstraintSet, Measure, _pair_distances, csr as csr_of
from .exceptions import (
    InvalidConfigError,
    NegativeEntryError,
    NonFiniteEntryError,
    PenaltyOverflowError,
    ShapeMismatchError,
)
from .matrix import (
    EPS,
    DenseMatrix,
    MaskMatrix,
    ObservedCells,
    as_array,
    as_mask,
    frobenius_sq_diff,
    matrix_divergence,
)
from .penalties import MAX_EXP, div_penalty_value, euc_penalty_value

# Objective comparisons tolerate this much relative float noise before a
# divergence-mode iteration is treated as an increase and rolled back.
ACCEPT_REL_SLACK = 1e-12

# run() draws the starting W, then H, uniformly on [INIT_LOW, INIT_HIGH) from the seed
INIT_LOW, INIT_HIGH = 0.01, 1.0


@dataclass
class SolverConfig:
    """Hyperparameters for one factorisation run."""

    k: int
    measure: Measure
    lambda_w: float = 0.0
    lambda_h: float = 0.0
    max_iters: int = 500
    rel_tol: float = 1e-6
    seed: int = 0
    mask: MaskMatrix | None = None

    def __post_init__(self):
        if self.mask is not None:
            self.mask = as_mask(self.mask)
        if self.k < 1:
            raise InvalidConfigError(f"latent dimension must be >= 1, got {self.k}")
        if self.lambda_w < 0 or self.lambda_h < 0:
            raise InvalidConfigError("penalty coefficients must be non-negative")
        if self.max_iters < 1:
            raise InvalidConfigError("max_iters must be >= 1")
        if self.rel_tol < 0:
            raise InvalidConfigError("rel_tol must be non-negative")

    @property
    def adapt_lambda(self) -> bool:
        """Coefficient adaptation runs for the divergence objective only."""
        return self.measure is Measure.DIVERGENCE


@dataclass
class FactorisationReport:
    """Final factors plus run bookkeeping."""

    w: DenseMatrix
    h: DenseMatrix
    iterations: int
    final_objective: float
    objective_trace: list[float]
    csr: float | None
    rollback_iters: list[int]
    wall_time_s: float


def masked_update_terms(v, cells: ObservedCells | None, w, h, measure: Measure, side: str,
                        wh=None) -> tuple[np.ndarray, np.ndarray]:
    """Snapshot numerator/denominator of the data-fit ratio for one factor side.

    ``side`` is "w" (terms shaped like W) or "h" (shaped like H).  Without
    ``cells`` these are the classic multiplicative-update terms; given the
    :class:`ObservedCells` of ``v``, only those cells contribute, including
    the plain row/column sums of the divergence denominator, so unobserved
    cells are inert.  ``wh``, if given, is W @ H at the cells, so the
    caller's copy is used instead of a new one.
    """
    wa, ha = as_array(w), as_array(h)
    if cells is None:
        va = as_array(v)
        _check_factors(va.shape, wa, ha)
        n, m = va.shape
        k = wa.shape[1]
        if measure is Measure.EUCLIDEAN:
            if side == "w":
                return va @ ha.T, wa @ (ha @ ha.T)
            return wa.T @ va, (wa.T @ wa) @ ha
        ratio = va / np.maximum(wa @ ha, EPS)
        if side == "w":
            return ratio @ ha.T, np.broadcast_to(ha.sum(axis=1), (n, k))
        return wa.T @ ratio, np.broadcast_to(wa.sum(axis=0)[:, None], (k, m))
    _check_factors(cells.shape, wa, ha)
    if wh is None:
        wh = cells.model(wa, ha)
    if measure is Measure.EUCLIDEAN:
        num, den = cells.csr(cells.v), cells.csr(wh)
    else:
        num, den = cells.csr(cells.v / np.maximum(wh, EPS)), cells.csr(np.ones(wh.size))
    if side == "w":
        return num @ ha.T, den @ ha.T
    return (num.T @ wa).T, (den.T @ wa).T


def _check_factors(shape, wa, ha):
    n, m = shape
    if wa.shape[0] != n or ha.shape[1] != m or wa.shape[1] != ha.shape[0]:
        raise ShapeMismatchError(f"factor shapes {wa.shape}, {ha.shape} do not fit data {shape}")


def objective(v, w, h, sets, config: SolverConfig) -> float:
    """Data-fit term plus coefficient-weighted penalties of both factor sides."""
    set_w, set_h = sets
    cells = None if config.mask is None else ObservedCells(v, config.mask)
    return _objective_value(
        as_array(v), as_array(w), as_array(h), set_w, set_h,
        config.lambda_w, config.lambda_h, config.measure, cells,
    )[0]


def _objective_value(va, wa, ha, set_w, set_h, lam_w, lam_h, measure, cells):
    """Objective at (W, H), and W @ H at the observed cells (None if unmasked)."""
    if cells is None:
        v, wh = va, wa @ ha
    else:
        v, wh = cells.v, cells.model(wa, ha)
    if measure is Measure.EUCLIDEAN:
        total = frobenius_sq_diff(v, wh)
        pen_value = euc_penalty_value
    else:
        total = matrix_divergence(v, np.maximum(wh, EPS))
        pen_value = div_penalty_value
    if set_w is not None and len(set_w) and lam_w > 0:
        total += lam_w * pen_value(wa, set_w)
    if set_h is not None and len(set_h) and lam_h > 0:
        total += lam_h * pen_value(ha, set_h)
    return float(total), None if cells is None else wh


# Levels at least this wide take one numpy step; narrower ones are walked.
# Measured on levels of one triple per vector (where a walk is cheapest), k =
# 20, 2-core VM: a level step cost 18-22 us (Euclidean) and 24-28 us
# (divergence) at widths 4 to 40, a walk 1.0 and 1.4 us per vector, so they
# met at a width of 20.  A level between walks also makes each walk copy its
# slice of the column and distances in and out; on Syn-1's 70-vector chain
# set one 20-wide level made the sweep 14% slower, which moves the crossover
# to 24.
WIDTH_CROSSOVER = 24


class _Level(NamedTuple):
    """Index arrays of one level step; index ``dim`` gathers the column's zero slot."""

    vec: np.ndarray       # the level's vectors, ascending
    pos: np.ndarray       # per (vector, triple) entry: its vector's place in ``vec``
    tri: np.ndarray       # per entry: its triple
    ops: np.ndarray       # per entry: cpos/cneg partners (4 rows), or hinge x, y, z (3 rows)
    sign: np.ndarray      # divergence only, per entry: +1, or -1 for an s-anchored hinge term
    upd_pos: np.ndarray   # per distance the level changes: the vector's place
    upd_slot: np.ndarray  # its slot in [d1; d2]
    upd_other: np.ndarray # the vector at the pair's other end


class _Walk(NamedTuple):
    """A run of narrow levels, walked one vector at a time on local copies.

    Every index is local: into ``nodes`` for column entries (the zero slot
    is last) and into ``slots`` for distances.  Each link of a vector lists
    its triple's d1 and d2 slots and then its gather operands, as in
    :class:`_Level`: the four partners of cpos and cneg (Euclidean), or x,
    y, z and the sign of its hinge term (divergence).
    """

    vec: np.ndarray   # the walked vectors, ascending
    nodes: np.ndarray # every vector of their triples, then the zero slot
    slots: np.ndarray # the d1 and then the d2 slots of those triples in [d1; d2]
    pos: list         # per vector: its place in ``nodes``
    links: list       # per vector: (d1, d2, g0, g1, g2, g3) or (d1, d2, x, y, z, sign) per triple
    upd: list         # per vector: (slot, other end) per distance it changes


# per role (q, r, s): which of (q, r, s, zero slot) each gather row reads
_EUC_ROWS = np.array([[0, 1, 3], [2, 3, 0], [1, 0, 3], [0, 3, 2]])
_DIV_ROWS = np.array([[2, 1, 2], [1, 0, 0], [0, 1, 2]])
_DIV_SIGN = np.array([1.0, 1.0, -1.0])


class _PreparedSet:
    """Constraint indices and the level plan of the constrained sweep (0-based).

    A touched vector's level is 1 + the highest level of the earlier vectors
    (in ``touched`` order) that share a triple with it.  Vectors on one level
    share no triple, and each sits above its earlier neighbours and below its
    later ones, so sweeping level by level reads exactly the values the
    sequential walk reads.  ``steps`` is that walk: a :class:`_Level` for each
    level of at least ``WIDTH_CROSSOVER`` vectors, and a :class:`_Walk` for
    each run of narrower levels between them, each with the gather operands of
    ``measure``'s update only.  Role 0/1/2 means a vector is its triple's q/r/s.
    """

    __slots__ = ("touched", "n", "q_arr", "r_arr", "s_arr", "steps")

    def __init__(self, cset: ConstraintSet, dim: int, measure: Measure):
        cset.check_bounds(dim)
        q_arr, r_arr, s_arr = cset.index_arrays()
        self.q_arr, self.r_arr, self.s_arr = q_arr, r_arr, s_arr
        n = self.n = len(cset)

        # longest chain of earlier neighbours, by relaxing over each triple's
        # three (earlier, later) pairs; triple indices are pairwise distinct,
        # so this settles after (deepest level + 2) passes
        lo = np.concatenate([np.minimum(q_arr, r_arr), np.minimum(q_arr, s_arr),
                             np.minimum(r_arr, s_arr)])
        hi = np.concatenate([np.maximum(q_arr, r_arr), np.maximum(q_arr, s_arr),
                             np.maximum(r_arr, s_arr)])
        level = np.zeros(dim, dtype=np.int64)
        while True:
            deeper = np.zeros(dim, dtype=np.int64)
            np.maximum.at(deeper, hi, level[lo] + 1)
            if np.array_equal(deeper, level):
                break
            level = deeper

        # one entry per (vector, triple, role), ordered by level, vector, triple
        ent_vec = np.concatenate([q_arr, r_arr, s_arr])
        ent_tri = np.tile(np.arange(n), 3)
        ent_role = np.repeat(np.arange(3), n)
        order = np.lexsort((ent_tri, ent_vec, level[ent_vec]))
        ent_vec, ent_tri, ent_role = ent_vec[order], ent_tri[order], ent_role[order]
        ent_level = level[ent_vec]
        starts = np.diff(ent_vec, prepend=-1) != 0
        first = np.append(np.flatnonzero(starts), ent_vec.size)  # vector -> its entries
        vecs = ent_vec[first[:-1]]
        self.touched = np.sort(vecs).tolist()
        vec_idx = np.cumsum(starts) - 1  # entry -> its vector's index in vecs
        ent_bounds = np.flatnonzero(np.diff(ent_level, prepend=-1)).tolist() + [ent_vec.size]
        vec_bounds = np.searchsorted(first, ent_bounds).tolist()

        qrs = np.stack([q_arr, r_arr, s_arr, np.full(n, dim)])
        ends = qrs[:, ent_tri]  # (q, r, s, zero slot) of each entry's triple
        cols = np.arange(ent_vec.size)
        euclid = measure is Measure.EUCLIDEAN
        ops = ends[(_EUC_ROWS if euclid else _DIV_ROWS)[:, ent_role], cols]
        sign = None if euclid else _DIV_SIGN[ent_role]
        # the pair distance the entry changes and the vector at the pair's
        # other end: the q entry changes d1 and d2, r only d1, s only d2
        other = np.where(ent_role == 0, ends[1:3], ends[0])

        def walk(e0: int, e1: int, v0: int, v1: int) -> _Walk:
            tris, at = np.unique(ent_tri[e0:e1], return_inverse=True)
            nodes = np.append(np.unique(qrs[:3, tris]), dim)  # the zero slot last
            s1, s2 = at.tolist(), (at + tris.size).tolist()

            def local(a):
                return np.searchsorted(nodes, a).tolist()

            signs = [] if euclid else [sign[e0:e1].tolist()]
            links = list(zip(s1, s2, *local(ops[:, e0:e1]), *signs))
            o1, o2 = local(other[:, e0:e1])
            pairs = [[(a, x)] * (role != 2) + [(b, y)] * (role != 1) for a, b, x, y, role
                     in zip(s1, s2, o1, o2, ent_role[e0:e1].tolist())]
            order = np.argsort(vecs[v0:v1])  # walked in touched order
            cuts = (first[v0:v1 + 1] - e0).tolist()
            cuts = [(cuts[i], cuts[i + 1]) for i in order.tolist()]  # vector -> its links
            vec = vecs[v0:v1][order]
            return _Walk(
                vec=vec, nodes=nodes, slots=np.concatenate([tris, n + tris]), pos=local(vec),
                links=[links[b:c] for b, c in cuts],
                upd=[[p for ps in pairs[b:c] for p in ps] for b, c in cuts],
            )

        steps: list = []
        run = None  # (first entry, first vector) of the narrow levels since the last wide one
        for lv in range(len(ent_bounds) - 1):
            e0, e1 = ent_bounds[lv], ent_bounds[lv + 1]
            v0, v1 = vec_bounds[lv], vec_bounds[lv + 1]
            if v1 - v0 < WIDTH_CROSSOVER:
                run = run or (e0, v0)
                continue
            if run:
                steps.append(walk(run[0], e0, run[1], v0))
                run = None
            pos, tri, role = vec_idx[e0:e1] - v0, ent_tri[e0:e1], ent_role[e0:e1]
            on_d1, on_d2 = role != 2, role != 1
            steps.append(_Level(
                vec=vecs[v0:v1], pos=pos, tri=tri,
                ops=ops[:, e0:e1], sign=None if euclid else sign[e0:e1],
                upd_pos=np.concatenate([pos[on_d1], pos[on_d2]]),
                upd_slot=np.concatenate([tri[on_d1], n + tri[on_d2]]),
                upd_other=np.concatenate([other[0, e0:e1][on_d1], other[1, e0:e1][on_d2]]),
            ))
        if run:
            steps.append(walk(run[0], ent_vec.size, run[1], vecs.size))
        self.steps = steps


def _prepare(cset: ConstraintSet | None, dim: int, lam: float,
             measure: Measure) -> _PreparedSet | None:
    """The ``measure`` sweep plan of a non-empty set with a positive coefficient, else None.

    Coefficients only scale, so a side that starts at 0 stays unpenalised and
    needs no plan; its set's bounds are still checked before any iteration.
    """
    if cset is None or not len(cset):
        return None
    if lam == 0:
        cset.check_bounds(dim)
        return None
    return _PreparedSet(cset, dim, measure)


def _sweep(fac: np.ndarray, num: np.ndarray, den: np.ndarray,
           prep: _PreparedSet | None, lam: float, measure: Measure) -> None:
    """One full in-place sweep of ``fac`` (vectors x latent orientation).

    ``num``/``den`` are the sweep-start data-fit terms in the same
    orientation.  Unconstrained entries are applied in one vectorised step;
    constrained entries follow ``prep.steps``, latent column by latent column,
    with the pair distances d1 = dis(q, r) and d2 = dis(q, s) kept up to date,
    so penalties always see the freshest values.  Between steps the current
    column lives in ``colz`` and the distances in ``dd``.  A wide level is
    one numpy step on them; a walk gathers its ``nodes`` and ``slots`` into
    Python lists, updates one vector at a time, and scatters both back.
    """
    if prep is None or lam == 0.0:
        fac *= num / np.maximum(den, EPS)
        return

    nvec, kdim = fac.shape
    plain = fac * (num / np.maximum(den, EPS))
    untouched = np.ones(nvec, dtype=bool)
    untouched[prep.touched] = False
    fac[untouched, :] = plain[untouched, :]

    n = prep.n
    dd = np.concatenate([_pair_distances(fac, prep.q_arr, prep.r_arr, measure),
                         _pair_distances(fac, prep.q_arr, prep.s_arr, measure)])
    euclid = measure is Measure.EUCLIDEAN
    exp = math.exp
    log = math.log
    colz = np.zeros(nvec + 1)  # the current latent column, then a zero slot
    # each step's data-fit terms, one row per latent column (lists for walks)
    fit = []
    for step in prep.steps:
        nk, dk = num[step.vec].T, den[step.vec].T
        fit.append((nk, dk) if isinstance(step, _Level) else (nk.tolist(), dk.tolist()))

    for k in range(kdim):
        colz[:nvec] = fac[:, k]
        for step, (nk, dk) in zip(prep.steps, fit):
            if isinstance(step, _Level):
                old = colz[step.vec]
                nk_v = nk[k]
                dk_v = dk[k]
                width = step.vec.size
                if euclid:
                    e = dd[step.tri]
                    if e.max() > MAX_EXP:
                        raise PenaltyOverflowError(float(e[np.argmax(e > MAX_EXP)]))
                    e1 = np.exp(e)
                    e2 = np.exp(-dd[n + step.tri])
                    g = colz[step.ops]
                    cpos = np.bincount(step.pos, e1 * g[0] + e2 * g[1], width)
                    cneg = np.bincount(step.pos, e1 * g[2] + e2 * g[3], width)
                    new = old * (nk_v + lam * cneg) / np.maximum(dk_v + lam * cpos, EPS)
                else:
                    x, y, z = np.maximum(colz[step.ops], EPS)
                    t = (np.log(x / y) + (x - y) / z) * step.sign
                    active = dd[step.tri] >= dd[n + step.tri]
                    p = np.bincount(step.pos, np.where(active, t, 0.0), width)
                    pen_den = 0.5 * lam * p + dk_v
                    new = np.where(pen_den < 0, old * nk_v / np.maximum(dk_v, EPS),
                                   old * nk_v / np.maximum(pen_den, EPS))
                colz[step.vec] = new
                other = colz[step.upd_other]
                now, was = new[step.upd_pos], old[step.upd_pos]
                if euclid:
                    dd[step.upd_slot] += (other - now) ** 2 - (other - was) ** 2
                else:
                    co = np.maximum(other, EPS)
                    cn = np.maximum(now, EPS)
                    cw = np.maximum(was, EPS)
                    dd[step.upd_slot] += (0.5 * (co - cn) * np.log(co / cn)
                                          - 0.5 * (co - cw) * np.log(co / cw))
                continue
            c = colz[step.nodes].tolist()
            d = dd[step.slots].tolist()
            for a, links_a, upd, nka, dka in zip(step.pos, step.links, step.upd, nk[k], dk[k]):
                old = c[a]
                if euclid:
                    cpos = cneg = 0.0
                    for s1, s2, g0, g1, g2, g3 in links_a:
                        e = d[s1]
                        if e > MAX_EXP:
                            raise PenaltyOverflowError(e)
                        e1 = exp(e)
                        e2 = exp(-d[s2])
                        cpos += e1 * c[g0] + e2 * c[g1]
                        cneg += e1 * c[g2] + e2 * c[g3]
                    new = old * (nka + lam * cneg) / max(dka + lam * cpos, EPS)
                else:
                    p = 0.0
                    for s1, s2, x, y, z, sign in links_a:
                        if d[s1] < d[s2]:
                            continue
                        x, y, z = c[x], c[y], c[z]
                        x = x if x > EPS else EPS
                        y = y if y > EPS else EPS
                        z = z if z > EPS else EPS
                        p += sign * (log(x / y) + (x - y) / z)
                    pen_den = 0.5 * lam * p + dka
                    if pen_den < 0:
                        new = old * nka / max(dka, EPS)
                    else:
                        new = old * nka / max(pen_den, EPS)
                c[a] = new
                if new == old:
                    continue
                if euclid:
                    for slot, o in upd:
                        other = c[o]
                        d[slot] += (other - new) ** 2 - (other - old) ** 2
                else:
                    cn = new if new > EPS else EPS
                    cw = old if old > EPS else EPS
                    for slot, o in upd:
                        co = c[o]
                        co = co if co > EPS else EPS
                        d[slot] += 0.5 * (co - cn) * log(co / cn) - 0.5 * (co - cw) * log(co / cw)
            colz[step.nodes] = c
            dd[step.slots] = d
        fac[:, k] = colz[:nvec]


def run(v, sets: tuple[ConstraintSet | None, ConstraintSet | None], config: SolverConfig) -> FactorisationReport:
    """Factorise ``v`` into non-negative W (N x K) and H (K x M).

    ``sets`` carries the optional row constraints on W and column constraints
    on H.  With zero coefficients and empty sets this is exactly classic
    multiplicative NMF.  Non-convergence within ``max_iters`` is not an
    error; the report is returned regardless.
    """
    t_start = time.perf_counter()
    va = as_array(v)
    if va.ndim != 2:
        raise ShapeMismatchError(f"expected 2-D data, got ndim={va.ndim}")
    # min and max propagate NaN, so the two reductions catch every bad entry
    if va.size and not (va.min() >= 0 and va.max() < np.inf):
        flat = va.ravel()
        neg = np.flatnonzero(flat < 0)
        if neg.size:
            raise NegativeEntryError(int(neg[0]), float(flat[neg[0]]))
        i = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise NonFiniteEntryError(i, float(flat[i]))
    n, m = va.shape
    set_w, set_h = sets if sets is not None else (None, None)
    cells = None
    if config.mask is not None:
        cells = ObservedCells(va, config.mask)
        cells.require_coverage()

    rng = np.random.default_rng(config.seed)
    w = rng.uniform(INIT_LOW, INIT_HIGH, size=(n, config.k))
    h = rng.uniform(INIT_LOW, INIT_HIGH, size=(config.k, m))
    lam_w, lam_h = config.lambda_w, config.lambda_h
    measure = config.measure
    prep_w = _prepare(set_w, n, lam_w, measure)
    prep_h = _prepare(set_h, m, lam_h, measure)

    def current_objective():
        return _objective_value(va, w, h, set_w, set_h, lam_w, lam_h, measure, cells)

    # wh is W @ H at the observed cells for the current factors (None if
    # unmasked): the objective computes it, the next W-side terms reuse it
    accepted, wh = current_objective()
    trace = [accepted]
    rollback_iters = []

    for it in range(1, config.max_iters + 1):
        if config.adapt_lambda:
            last_accepted = (w.copy(), h.copy())
        num, den = masked_update_terms(va, cells, w, h, measure, "w", wh)
        _sweep(w, num, den, prep_w, lam_w, measure)
        num, den = masked_update_terms(va, cells, w, h, measure, "h")
        _sweep(h.T, num.T, den.T, prep_h, lam_h, measure)
        obj, new_wh = current_objective()
        if config.adapt_lambda:
            if obj <= accepted * (1.0 + ACCEPT_REL_SLACK) + ACCEPT_REL_SLACK:
                rel_change = abs(obj - accepted) / max(abs(accepted), EPS)
                accepted, wh = obj, new_wh
                trace.append(obj)
                lam_w *= 1.01
                lam_h *= 1.01
                if rel_change < config.rel_tol:
                    break
            else:
                w[:], h[:] = last_accepted  # wh still matches them
                lam_w *= 0.5
                lam_h *= 0.5
                rollback_iters.append(it)
                trace.append(accepted)
        else:
            wh = new_wh
            prev = trace[-1]
            trace.append(obj)
            if abs(obj - prev) / max(abs(prev), EPS) < config.rel_tol:
                break

    final_csr = None
    if (set_w is not None and len(set_w)) or (set_h is not None and len(set_h)):
        final_csr = csr_of(set_w, w, set_h, h, measure)
    return FactorisationReport(
        w=DenseMatrix(w),
        h=DenseMatrix(h),
        iterations=len(trace) - 1,
        final_objective=trace[-1],
        objective_trace=trace,
        csr=final_csr,
        rollback_iters=rollback_iters,
        wall_time_s=time.perf_counter() - t_start,
    )
