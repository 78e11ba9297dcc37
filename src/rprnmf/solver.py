"""Multiplicative-update solvers for constraint-penalised factorisation.

Both solvers alternate a full W sweep with a full H sweep.  Within a sweep
the data-fit numerator/denominator come from the sweep-start factors (so the
unconstrained case collapses exactly to the classic multiplicative rules),
while penalty terms are re-evaluated from the freshest entries, walking
latent columns outermost and constrained indices innermost.

The divergence solver adapts its penalty coefficients: an iteration that
increases the objective is rolled back and both coefficients are halved,
otherwise they grow by 1%.  The Euclidean solver keeps its coefficients
fixed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

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
    frobenius_sq_diff,
    matrix_divergence,
)
from .penalties import MAX_EXP, div_penalty_value, euc_penalty_value

# Objective comparisons tolerate this much relative float noise before a
# divergence-mode iteration is treated as an increase and rolled back.
ACCEPT_REL_SLACK = 1e-12


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
    init_low: float = 0.01
    init_high: float = 1.0

    def __post_init__(self):
        if self.mask is not None and not isinstance(self.mask, MaskMatrix):
            self.mask = MaskMatrix(as_array(self.mask))
        if self.k < 1:
            raise InvalidConfigError(f"latent dimension must be >= 1, got {self.k}")
        if self.lambda_w < 0 or self.lambda_h < 0:
            raise InvalidConfigError("penalty coefficients must be non-negative")
        if self.max_iters < 1:
            raise InvalidConfigError("max_iters must be >= 1")
        if self.rel_tol < 0:
            raise InvalidConfigError("rel_tol must be non-negative")
        if not (0 < self.init_low < self.init_high):
            raise InvalidConfigError("need 0 < init_low < init_high")

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


def masked_update_terms(v, mask, w, h, measure: Measure, side: str,
                        wh=None) -> tuple[np.ndarray, np.ndarray]:
    """Snapshot numerator/denominator of the data-fit ratio for one factor side.

    ``side`` is "w" (terms shaped like W) or "h" (shaped like H).  Without a
    mask these are the classic multiplicative-update terms; with one, only
    observed cells contribute, including the plain row/column sums of the
    divergence denominator, so unobserved cells are inert.  ``mask`` may be
    the :class:`ObservedCells` of ``v`` already; ``wh``, if given, is W @ H
    at those cells, so the caller's copy is used instead of a new one.
    """
    wa, ha = as_array(w), as_array(h)
    if mask is None:
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
    cells = mask if isinstance(mask, ObservedCells) else ObservedCells(v, mask)
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


class _PreparedSet:
    """Constraint indices flattened for the inner sweep loop (all 0-based)."""

    __slots__ = ("q", "r", "s", "touched", "adj", "n", "q_arr", "r_arr", "s_arr")

    def __init__(self, cset: ConstraintSet, dim: int):
        cset.check_bounds(dim)
        q_arr, r_arr, s_arr = cset.index_arrays()
        self.q_arr, self.r_arr, self.s_arr = q_arr, r_arr, s_arr
        self.q = q_arr.tolist()
        self.r = r_arr.tolist()
        self.s = s_arr.tolist()
        self.n = len(cset)
        adj: dict[int, list[tuple[int, int]]] = {}
        for l in range(self.n):
            adj.setdefault(self.q[l], []).append((l, 0))
            adj.setdefault(self.r[l], []).append((l, 1))
            adj.setdefault(self.s[l], []).append((l, 2))
        self.touched = sorted(adj)
        self.adj = adj


def _sd_term(x: float, y: float) -> float:
    cx = x if x > EPS else EPS
    cy = y if y > EPS else EPS
    return 0.5 * (cx - cy) * math.log(cx / cy)


def _sweep(fac: np.ndarray, num: np.ndarray, den: np.ndarray,
           prep: _PreparedSet | None, lam: float, measure: Measure) -> None:
    """One full in-place sweep of ``fac`` (vectors x latent orientation).

    ``num``/``den`` are the sweep-start data-fit terms in the same
    orientation.  Unconstrained entries are applied in one vectorised step;
    constrained entries walk the pinned order with distance caches kept
    incrementally up to date, so penalties always see the freshest values.
    """
    if prep is None or lam == 0.0 or prep.n == 0:
        fac *= num / np.maximum(den, EPS)
        return

    nvec, kdim = fac.shape
    plain = fac * (num / np.maximum(den, EPS))
    untouched = np.ones(nvec, dtype=bool)
    untouched[prep.touched] = False
    fac[untouched, :] = plain[untouched, :]

    d1 = _pair_distances(fac, prep.q_arr, prep.r_arr, measure).tolist()
    d2 = _pair_distances(fac, prep.q_arr, prep.s_arr, measure).tolist()
    qs, rs, ss, adj = prep.q, prep.r, prep.s, prep.adj
    euclid = measure is Measure.EUCLIDEAN
    exp = math.exp
    log = math.log

    for k in range(kdim):
        col = fac[:, k].tolist()
        nk = num[:, k].tolist()
        dk = den[:, k].tolist()
        for a in prep.touched:
            old = col[a]
            if euclid:
                cpos = cneg = 0.0
                for l, role in adj[a]:
                    e = d1[l]
                    if e > MAX_EXP:
                        raise PenaltyOverflowError(e)
                    e1 = exp(e)
                    e2 = exp(-d2[l])
                    wq = col[qs[l]]
                    if role == 0:
                        cpos += e1 * wq + e2 * col[ss[l]]
                        cneg += e1 * col[rs[l]] + e2 * wq
                    elif role == 1:
                        cpos += e1 * old
                        cneg += e1 * wq
                    else:
                        cpos += e2 * wq
                        cneg += e2 * old
                new = old * (nk[a] + lam * cneg) / max(dk[a] + lam * cpos, EPS)
            else:
                p = 0.0
                for l, role in adj[a]:
                    if d1[l] < d2[l]:
                        continue
                    wq = col[qs[l]]
                    wq = wq if wq > EPS else EPS
                    if role == 0:
                        wr = col[rs[l]]
                        wr = wr if wr > EPS else EPS
                        ws = col[ss[l]]
                        ws = ws if ws > EPS else EPS
                        p += log(ws / wr) + (ws - wr) / wq
                    elif role == 1:
                        wr = col[rs[l]]
                        wr = wr if wr > EPS else EPS
                        p += log(wr / wq) + (wr - wq) / wr
                    else:
                        ws = col[ss[l]]
                        ws = ws if ws > EPS else EPS
                        p -= log(ws / wq) + (ws - wq) / ws
                pen_den = 0.5 * lam * p + dk[a]
                if pen_den < 0:
                    new = old * nk[a] / max(dk[a], EPS)
                else:
                    new = old * nk[a] / max(pen_den, EPS)
            col[a] = new
            if new != old:
                for l, role in adj[a]:
                    if role == 0:
                        other_r = col[rs[l]]
                        other_s = col[ss[l]]
                        if euclid:
                            d1[l] += (other_r - new) ** 2 - (other_r - old) ** 2
                            d2[l] += (other_s - new) ** 2 - (other_s - old) ** 2
                        else:
                            d1[l] += _sd_term(other_r, new) - _sd_term(other_r, old)
                            d2[l] += _sd_term(other_s, new) - _sd_term(other_s, old)
                    elif role == 1:
                        other = col[qs[l]]
                        if euclid:
                            d1[l] += (other - new) ** 2 - (other - old) ** 2
                        else:
                            d1[l] += _sd_term(other, new) - _sd_term(other, old)
                    else:
                        other = col[qs[l]]
                        if euclid:
                            d2[l] += (other - new) ** 2 - (other - old) ** 2
                        else:
                            d2[l] += _sd_term(other, new) - _sd_term(other, old)
        fac[:, k] = col


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
    w = rng.uniform(config.init_low, config.init_high, size=(n, config.k))
    h = rng.uniform(config.init_low, config.init_high, size=(config.k, m))
    lam_w, lam_h = config.lambda_w, config.lambda_h
    prep_w = _PreparedSet(set_w, n) if set_w is not None and len(set_w) else None
    prep_h = _PreparedSet(set_h, m) if set_h is not None and len(set_h) else None
    measure = config.measure

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
