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
oracles in ``tests/oracles.py`` state them; its q, r, s table is the set's
own 3 x n index array.  Unconstrained entries stay a numpy step.  A masked
run computes W @ H at its observed cells with the same library's
``rpr_model``, so it needs the library even with zero coefficients.  Its
update terms are ``scipy.sparse`` products over the cells' int32 layout,
which scipy takes without a copy; the W side shares one C-contiguous H.T
between its two products.

Each accepted factor state is evaluated once.  The objective forms W @ H (at
the observed cells when masked) and each penalised side's triple distances;
the next W-side data-fit terms reuse that W @ H, and each side's sweep starts
from that side's distances, which the other side's sweep leaves unchanged.
A rolled-back iteration restores them along with the factors.  The fits and
the divergence ratio work in place, in one fresh array each.

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

from .constraints import ConstraintSet, Measure, Target, csr as csr_of, triple_distances
from .exceptions import InvalidConfigError, PenaltyOverflowError, ShapeMismatchError
from ._kernels import _load
from .matrix import (
    EPS,
    DenseMatrix,
    MaskMatrix,
    ObservedCells,
    as_array,
    as_mask,
    check_data,
    check_factors,
    frobenius_sq_diff,
    matrix_divergence,
)

# Objective comparisons tolerate this much relative float noise before a
# divergence-mode iteration is treated as an increase and rolled back.
ACCEPT_REL_SLACK = 1e-12

# run() draws the starting W, then H, uniformly on [INIT_LOW, INIT_HIGH) from the seed
INIT_LOW, INIT_HIGH = 0.01, 1.0

# largest d1 whose exp() the Euclidean penalty and sweep take
MAX_EXP = 700.0


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
    cells are inert.  ``wh``, if given, is W @ H (at the cells when masked),
    so the caller's copy is used instead of a new one; it is not written to.
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
        ratio = _divergence_ratio(va, wa @ ha if wh is None else wh)
        if side == "w":
            return ratio @ ha.T, np.broadcast_to(ha.sum(axis=1), (n, k))
        return wa.T @ ratio, np.broadcast_to(wa.sum(axis=0)[:, None], (k, m))
    check_factors(cells.shape, wa, ha)
    if wh is None:
        wh = cells.model(wa, ha)
    if measure is Measure.EUCLIDEAN:
        num, den = cells.csr(cells.v), cells.csr(wh)
    else:
        num, den = cells.csr(_divergence_ratio(cells.v, wh)), cells.csr(np.ones(wh.size))
    if side == "w":
        # scipy would copy a non-contiguous H.T for each product; make one to share
        ht = np.ascontiguousarray(ha.T)
        return num @ ht, den @ ht
    return (num.T @ wa).T, (den.T @ wa).T


def _divergence_ratio(v, wh) -> np.ndarray:
    """v / max(wh, EPS), formed in one fresh array."""
    ratio = np.maximum(wh, EPS)
    np.divide(v, ratio, out=ratio)
    return ratio


def _checked_data(v, sets, mask):
    """The entry checks of ``run`` and ``objective``: (V array, W set, H set, cells).

    V passes :func:`check_data`, masked cells included; each constraint set
    must target its own side and, whatever its coefficient, name only V's
    rows (W) or columns (H).  An empty set comes back as None, so a set is
    either absent or has triples.  ``cells`` is the :class:`ObservedCells` of
    V under ``mask``, or None when unmasked.
    """
    va = check_data(v)
    set_w, set_h = sets if sets is not None else (None, None)
    for cset, side, target, dim in ((set_w, "W", Target.W_ROWS, va.shape[0]),
                                    (set_h, "H", Target.H_COLS, va.shape[1])):
        if cset is not None:
            if cset.target is not target:
                raise InvalidConfigError(f"the {side}-side constraint set targets "
                                         f"{cset.target.name}, not {target.name}")
            cset.check_bounds(dim)
    cells = None if mask is None else ObservedCells(va, mask)
    return va, set_w or None, set_h or None, cells


def objective(v, w, h, sets, config: SolverConfig) -> float:
    """Data-fit term plus coefficient-weighted penalties of both factor sides.

    ``v`` and ``sets`` are checked as :func:`run` checks them, and ``w`` and
    ``h`` must fit ``v``.
    """
    return _evaluate(v, w, h, sets, config.mask, config.lambda_w, config.lambda_h, config.measure)


def _evaluate(v, w, h, sets, mask, lam_w, lam_h, measure) -> float:
    """:func:`objective` with its settings given one by one; ``msl`` and ``md``
    are its value at zero coefficients, divided by N*M."""
    va, set_w, set_h, cells = _checked_data(v, sets, mask)
    wa, ha = as_array(w), as_array(h)
    check_factors(va.shape, wa, ha)
    return _objective_value(va, wa, ha, set_w, set_h, lam_w, lam_h, measure, cells)[0]


def _objective_value(va, wa, ha, set_w, set_h, lam_w, lam_h, measure, cells):
    """Objective at (W, H), and what the next iteration reuses of it.

    That is (wh, dist_w, dist_h): W @ H, at the observed cells when masked,
    and each penalised side's 2 x n ``triple_distances``, None for a side
    without a set or with a zero coefficient.
    """
    if cells is None:
        v, wh = va, wa @ ha
    else:
        v, wh = cells.v, cells.model(wa, ha)
    if measure is Measure.EUCLIDEAN:
        total = frobenius_sq_diff(v, wh)
    else:
        total = matrix_divergence(v, wh)
    dist_w = dist_h = None
    # looked up at each call, so a wrapper set on the module is the one that runs
    penalty = euc_penalty_value if measure is Measure.EUCLIDEAN else div_penalty_value
    if set_w is not None and lam_w > 0:
        dist_w = triple_distances(set_w, wa, measure)
        total += lam_w * penalty(dist_w)
    if set_h is not None and lam_h > 0:
        dist_h = triple_distances(set_h, ha, measure)
        total += lam_h * penalty(dist_h)
    return float(total), (wh, dist_w, dist_h)


def euc_penalty_value(dist: np.ndarray) -> float:
    """Sum over the triples of ``dist = triple_distances(...)`` of exp(d1) + exp(-d2)."""
    d1, d2 = dist
    top = float(np.max(d1, initial=0.0))
    if top > MAX_EXP:
        raise PenaltyOverflowError(top)
    return float(np.sum(np.exp(d1) + np.exp(-d2)))


def div_penalty_value(dist: np.ndarray) -> float:
    """Sum over the triples of ``dist = triple_distances(...)`` of the hinge max(0, d1 - d2)."""
    d1, d2 = dist
    return float(np.sum(np.maximum(0.0, d1 - d2)))


class _PreparedSet:
    """Constraint indices and link tables of the constrained sweep (0-based).

    ``touched`` lists the vectors some triple names, ascending; ``first``
    cuts ``tri``/``role`` into each one's links, in triple order, where role
    0/1/2 means the vector is its triple's q/r/s.  ``qrs`` is the set's own
    3 x n table of each triple's q, r and s.  ``args`` are these tables as
    the compiled sweep takes them.  :func:`run` has checked the set's bounds.
    """

    __slots__ = ("touched", "n", "qrs", "first", "tri", "role", "args")

    def __init__(self, cset: ConstraintSet):
        n = self.n = len(cset)
        self.qrs = cset.index_arrays()
        # one link per entry role * n + triple of qrs, by vector, then triple
        vec = self.qrs.ravel()
        order = np.argsort(vec * n + np.tile(np.arange(n), 3))
        self.tri, self.role = order % n, order // n
        self.touched, counts = np.unique(vec, return_counts=True)
        self.first = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.args = (self.touched.size, self.touched.ctypes.data, self.first.ctypes.data,
                     self.tri.ctypes.data, self.role.ctypes.data, n, self.qrs.ctypes.data)


def _strides(a: np.ndarray) -> tuple[int, int]:
    return a.strides[0] // a.itemsize, a.strides[1] // a.itemsize


def _sweep(fac: np.ndarray, num: np.ndarray, den: np.ndarray,
           prep: _PreparedSet | None, lam: float, measure: Measure,
           dist: np.ndarray | None) -> None:
    """One full in-place sweep of ``fac`` (vectors x latent orientation, float64).

    ``num``/``den`` are the sweep-start data-fit terms in the same
    orientation; any strides do, zero strides included.  ``dist`` is the
    2 x n ``triple_distances`` of the sweep-start factor, rows d1 = dis(q, r)
    and d2 = dis(q, s), read only when the side is penalised.  Untouched
    vectors take the plain multiplicative step in one numpy step.  The
    touched ones are then walked by the compiled ``rpr_sweep``, latent column
    by latent column, with a flat copy of ``dist`` kept up to date, so
    penalties always see the freshest values.
    """
    if prep is None or lam == 0.0:
        fac *= num / np.maximum(den, EPS)
        return
    sweep = _load().rpr_sweep
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    dd = np.concatenate(dist, dtype=np.float64)
    nvec, kdim = fac.shape
    # the compiled walk reads and writes through these unchecked
    if (fac.dtype != np.float64 or num.shape != fac.shape or den.shape != fac.shape
            or prep.touched[-1] >= nvec or dd.shape != (2 * prep.n,)):
        raise ShapeMismatchError(f"sweep of a {fac.dtype} {fac.shape} factor with terms {num.shape} "
                                 f"and {den.shape}, constraint index {prep.touched[-1] + 1} "
                                 f"and {dd.size} distances for {prep.n} triples")
    untouched = np.ones(nvec, dtype=bool)
    untouched[prep.touched] = False
    fac[untouched, :] *= num[untouched, :] / np.maximum(den[untouched, :], EPS)

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
    # coefficients only scale, so a side that starts at 0 stays unpenalised
    # and needs no sweep plan
    prep_w = _PreparedSet(set_w) if set_w is not None and lam_w > 0 else None
    prep_h = _PreparedSet(set_h) if set_h is not None and lam_h > 0 else None

    def current_objective():
        return _objective_value(va, w, h, set_w, set_h, lam_w, lam_h, measure, cells)

    # the accepted state's objective and its evaluation: W @ H, which the
    # next W-side terms reuse, and each penalised side's sweep-start distances
    accepted, evaluation = current_objective()
    trace = [accepted]
    rollback_iters = []

    for it in range(1, config.max_iters + 1):
        if config.adapt_lambda:
            last_accepted = (w.copy(), h.copy())
        wh, dist_w, dist_h = evaluation
        num, den = masked_update_terms(va, cells, w, h, measure, "w", wh)
        _sweep(w, num, den, prep_w, lam_w, measure, dist_w)
        num, den = masked_update_terms(va, cells, w, h, measure, "h")
        _sweep(h.T, num.T, den.T, prep_h, lam_h, measure, dist_h)
        obj, new_evaluation = current_objective()
        # written so that a NaN objective is rolled back too
        if config.adapt_lambda and not obj <= accepted * (1.0 + ACCEPT_REL_SLACK) + ACCEPT_REL_SLACK:
            w[:], h[:] = last_accepted  # evaluation still matches them
            lam_w *= 0.5
            lam_h *= 0.5
            rollback_iters.append(it)
            trace.append(accepted)
            continue
        rel_change = abs(obj - accepted) / max(abs(accepted), EPS)
        accepted, evaluation = obj, new_evaluation
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
