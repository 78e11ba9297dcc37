"""Multiplicative-update solvers for constraint-penalised factorisation.

Both solvers alternate a full W sweep with a full H sweep.  Within a sweep
the data-fit numerator/denominator come from the sweep-start factors (so the
unconstrained case collapses exactly to the classic multiplicative rules),
while penalty terms are re-evaluated from the freshest entries, walking
latent columns outermost and constrained indices innermost.

Within one latent column that pinned order is a chain of dependencies: an
entry's update reads the entries and pair distances its earlier neighbours
just changed.  The constrained entries are therefore walked one at a time,
by ``rpr_sweep`` in the compiled kernel library (``_sweep.c``, built and
loaded by :mod:`rprnmf._kernels`).  It reads flat link tables built once per
run and applies each link's rule per role (q, r, s), as the reference
oracles in ``tests/oracles.py`` state them.  Unconstrained entries and the
start-of-sweep pair distances stay numpy steps.  A masked run computes
W @ H at its observed cells with the same library's ``rpr_model``, so it
needs the library even with zero coefficients.

Each iteration ends in one accept step.  In divergence mode an iteration
that increases the objective is rolled back and both coefficients are
halved, otherwise they grow by 1%; Euclidean mode keeps every iteration
and its coefficients fixed.  Both stop once the objective's relative change
from the last accepted value falls below ``rel_tol``.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, Measure, Target, _pair_distances, csr as csr_of
from .exceptions import (
    InvalidConfigError,
    NegativeEntryError,
    NonFiniteEntryError,
    PenaltyOverflowError,
    ShapeMismatchError,
)
from ._kernels import _load
from .matrix import (
    EPS,
    DenseMatrix,
    MaskMatrix,
    ObservedCells,
    as_array,
    as_mask,
    check_factors,
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
        if not isinstance(self.measure, Measure):
            raise InvalidConfigError(f"measure must be a Measure, got {self.measure!r}")
        for name in ("k", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
        if self.k < 1:
            raise InvalidConfigError(f"latent dimension must be >= 1, got {self.k}")
        if self.max_iters < 1:
            raise InvalidConfigError("max_iters must be >= 1")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("lambda_w", "lambda_h", "rel_tol"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:  # NaN fails too
                raise InvalidConfigError(f"{name} must be a finite number >= 0, got {value!r}")

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
        check_factors(va.shape, wa, ha)
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
    check_factors(cells.shape, wa, ha)
    if wh is None:
        wh = cells.model(wa, ha)
    if measure is Measure.EUCLIDEAN:
        num, den = cells.csr(cells.v), cells.csr(wh)
    else:
        num, den = cells.csr(cells.v / np.maximum(wh, EPS)), cells.csr(np.ones(wh.size))
    if side == "w":
        return num @ ha.T, den @ ha.T
    return (num.T @ wa).T, (den.T @ wa).T


def _checked_data(v, sets, mask):
    """The entry checks of ``run`` and ``objective``: (V array, W set, H set, cells).

    V must be 2-D with finite non-negative entries, masked cells included;
    each constraint set must target its own side.  An empty set comes back
    as None, so a set is either absent or has triples.  ``cells`` is the
    :class:`ObservedCells` of V under ``mask``, or None when unmasked.
    """
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
    set_w, set_h = sets if sets is not None else (None, None)
    for cset, side, target in ((set_w, "W", Target.W_ROWS), (set_h, "H", Target.H_COLS)):
        if cset is not None and cset.target is not target:
            raise InvalidConfigError(f"the {side}-side constraint set targets "
                                     f"{cset.target.name}, not {target.name}")
    cells = None if mask is None else ObservedCells(va, mask)
    return va, set_w or None, set_h or None, cells


def objective(v, w, h, sets, config: SolverConfig) -> float:
    """Data-fit term plus coefficient-weighted penalties of both factor sides.

    ``v`` and ``sets`` are checked as :func:`run` checks them, and ``w`` and
    ``h`` must fit ``v``.
    """
    va, set_w, set_h, cells = _checked_data(v, sets, config.mask)
    wa, ha = as_array(w), as_array(h)
    check_factors(va.shape, wa, ha)
    return _objective_value(va, wa, ha, set_w, set_h,
                            config.lambda_w, config.lambda_h, config.measure, cells)[0]


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
        total = matrix_divergence(v, wh)
        pen_value = div_penalty_value
    if set_w is not None and lam_w > 0:
        total += lam_w * pen_value(wa, set_w)
    if set_h is not None and lam_h > 0:
        total += lam_h * pen_value(ha, set_h)
    return float(total), None if cells is None else wh


class _PreparedSet:
    """Constraint indices and link tables of the constrained sweep (0-based).

    ``touched`` lists the vectors some triple names, ascending; ``first``
    cuts ``tri``/``role`` into each one's links, in triple order, where role
    0/1/2 means the vector is its triple's q/r/s.  ``qrs`` is 3 x n: the q,
    r and s of each triple.  ``args`` are these tables as the compiled sweep
    takes them.
    """

    __slots__ = ("touched", "n", "qrs", "first", "tri", "role", "args")

    def __init__(self, cset: ConstraintSet, dim: int):
        cset.check_bounds(dim)
        n = self.n = len(cset)
        self.qrs = np.vstack(cset.index_arrays()).astype(np.int64)
        # one link per (vector, triple, role), ordered by vector, then triple
        vec = self.qrs.ravel()
        order = np.lexsort((np.tile(np.arange(n), 3), vec))
        self.tri = np.tile(np.arange(n, dtype=np.int64), 3)[order]
        self.role = np.repeat(np.arange(3, dtype=np.int64), n)[order]
        self.touched, counts = np.unique(vec, return_counts=True)
        self.first = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.args = (self.touched.size, self.touched.ctypes.data, self.first.ctypes.data,
                     self.tri.ctypes.data, self.role.ctypes.data, n, self.qrs.ctypes.data)


def _prepare(cset: ConstraintSet | None, dim: int, lam: float) -> _PreparedSet | None:
    """The sweep plan of a set with a positive coefficient, else None.

    Coefficients only scale, so a side that starts at 0 stays unpenalised and
    needs no plan; its set's bounds are still checked before any iteration.
    """
    if cset is None:
        return None
    if lam == 0:
        cset.check_bounds(dim)
        return None
    return _PreparedSet(cset, dim)


def _strides(a: np.ndarray) -> tuple[int, int]:
    return a.strides[0] // a.itemsize, a.strides[1] // a.itemsize


def _sweep(fac: np.ndarray, num: np.ndarray, den: np.ndarray,
           prep: _PreparedSet | None, lam: float, measure: Measure) -> None:
    """One full in-place sweep of ``fac`` (vectors x latent orientation, float64).

    ``num``/``den`` are the sweep-start data-fit terms in the same
    orientation; any strides do, zero strides included.  Untouched vectors
    take the plain multiplicative step in one numpy step.  The touched ones
    are then walked by the compiled ``rpr_sweep``, latent column by latent
    column, with the pair distances d1 = dis(q, r) and d2 = dis(q, s) kept up
    to date, so penalties always see the freshest values.
    """
    if prep is None or lam == 0.0:
        fac *= num / np.maximum(den, EPS)
        return
    sweep = _load().rpr_sweep
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    nvec, kdim = fac.shape
    # the compiled walk reads and writes through these unchecked
    if (fac.dtype != np.float64 or num.shape != fac.shape or den.shape != fac.shape
            or prep.touched[-1] >= nvec):
        raise ShapeMismatchError(f"sweep of a {fac.dtype} {fac.shape} factor with terms {num.shape} "
                                 f"and {den.shape} and constraint index {prep.touched[-1] + 1}")
    untouched = np.ones(nvec, dtype=bool)
    untouched[prep.touched] = False
    fac[untouched, :] *= num[untouched, :] / np.maximum(den[untouched, :], EPS)

    q, r, s = prep.qrs
    dd = np.concatenate([_pair_distances(fac, q, r, measure), _pair_distances(fac, q, s, measure)])
    exponent = ctypes.c_double()
    status = sweep(fac.ctypes.data, *_strides(fac), kdim,
                   num.ctypes.data, *_strides(num), den.ctypes.data, *_strides(den),
                   *prep.args, dd.ctypes.data, lam, measure is Measure.EUCLIDEAN,
                   EPS, MAX_EXP, ctypes.byref(exponent))
    if status:
        raise PenaltyOverflowError(exponent.value)


def run(v, sets: tuple[ConstraintSet | None, ConstraintSet | None], config: SolverConfig) -> FactorisationReport:
    """Factorise ``v`` into non-negative W (N x K) and H (K x M).

    ``sets`` carries the optional row constraints on W (a ``Target.W_ROWS``
    set) and column constraints on H (a ``Target.H_COLS`` set); a set on the
    other side raises :class:`InvalidConfigError`, and a negative or
    non-finite entry of ``v`` a typed error.  With zero coefficients and
    empty sets this is exactly classic multiplicative NMF.  Non-convergence
    within ``max_iters`` is not an error; the report is returned regardless.
    """
    t_start = time.perf_counter()
    va, set_w, set_h, cells = _checked_data(v, sets, config.mask)
    if cells is not None:
        cells.require_coverage()
    n, m = va.shape

    rng = np.random.default_rng(config.seed)
    w = rng.uniform(INIT_LOW, INIT_HIGH, size=(n, config.k))
    h = rng.uniform(INIT_LOW, INIT_HIGH, size=(config.k, m))
    lam_w, lam_h = config.lambda_w, config.lambda_h
    measure = config.measure
    prep_w = _prepare(set_w, n, lam_w)
    prep_h = _prepare(set_h, m, lam_h)

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
        # written so that a NaN objective is rolled back too
        if config.adapt_lambda and not obj <= accepted * (1.0 + ACCEPT_REL_SLACK) + ACCEPT_REL_SLACK:
            w[:], h[:] = last_accepted  # wh still matches them
            lam_w *= 0.5
            lam_h *= 0.5
            rollback_iters.append(it)
            trace.append(accepted)
            continue
        rel_change = abs(obj - accepted) / max(abs(accepted), EPS)
        accepted, wh = obj, new_wh
        trace.append(obj)
        if config.adapt_lambda:
            lam_w *= 1.01
            lam_h *= 1.01
        if rel_change < config.rel_tol:
            break

    final_csr = None
    if set_w is not None or set_h is not None:
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
