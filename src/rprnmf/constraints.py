"""Triplet distance constraints over factor rows/columns.

A triple (q, r, s) asserts that vector q is strictly closer to r than to s
under the chosen distance.  Indices are 1-based in triples and in the text
file format; all other function arguments in this package are 0-based.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._kernels import _load
from .exceptions import (
    CycleDetectedError,
    IndexOutOfRangeError,
    InsufficientIndicesError,
    InvalidConfigError,
    InvalidRangeError,
    MalformedLineError,
    NoConstraintsError,
    RprNmfError,
)
from .io import data_lines
from .matrix import EPS, DenseMatrix, as_array


class Target(Enum):
    """Which factor axis a constraint set applies to."""

    W_ROWS = "W"
    H_COLS = "H"


class Measure(Enum):
    """Distance family: squared Euclidean, or symmetric divergence."""

    EUCLIDEAN = "euc"
    DIVERGENCE = "div"


class InvalidTripleError(RprNmfError, ValueError):
    pass


@dataclass(frozen=True)
class ConstraintTriple:
    """1-based indices (q, r, s) with q closer to r than to s."""

    q: int
    r: int
    s: int

    def __post_init__(self):
        for name, v in (("q", self.q), ("r", self.r), ("s", self.s)):
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise InvalidTripleError(f"{name}={v!r} is not a positive integer index")
        if self.q == self.r or self.r == self.s or self.q == self.s:
            raise InvalidTripleError(f"indices must be pairwise distinct, got {self}")


@dataclass(frozen=True)
class ConstraintSet:
    """Ordered, de-duplicated collection of triples for one target axis."""

    target: Target
    triples: tuple[ConstraintTriple, ...]

    def __init__(self, target: Target, triples):
        seen = set()
        kept = []
        for t in triples:
            if not isinstance(t, ConstraintTriple):
                t = ConstraintTriple(*t)
            key = (t.q, t.r, t.s)
            if key not in seen:
                seen.add(key)
                kept.append(t)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "triples", tuple(kept))
        # 0-based q, r and s rows; not a field, so equality and hash ignore it
        idx = np.array([(t.q, t.r, t.s) for t in kept], dtype=np.int64).reshape(-1, 3).T.copy() - 1
        idx.flags.writeable = False
        object.__setattr__(self, "_idx", idx)

    def __len__(self) -> int:
        return len(self.triples)

    def index_arrays(self) -> np.ndarray:
        """0-based q, r and s rows of one read-only, C-contiguous int64 3 x n array."""
        return self._idx

    def max_index(self) -> int:
        return int(self._idx.max()) + 1 if len(self) else 0

    def check_bounds(self, dim: int) -> None:
        top = self.max_index()
        if top > dim:
            raise IndexOutOfRangeError(f"constraint index {top} exceeds dimension {dim}")


def constrained_vectors(target: Target, m) -> np.ndarray:
    """The constrained family as an (n_vectors, dim) array: W rows or H columns."""
    a = as_array(m)
    return a if target is Target.W_ROWS else a.T


def _pair_distances(vectors: np.ndarray, i: np.ndarray, j: np.ndarray, measure: Measure) -> np.ndarray:
    """dis(vectors[i], vectors[j]), ``i`` broadcast over ``j``: the package's one distance.

    Squared Euclidean, or the symmetric divergence 0.5*sum((x-y)*log(x/y))
    with entries clamped at EPS, worked out in place in the fresh gathers.
    """
    a, b = vectors[i], vectors[j]
    if measure is Measure.EUCLIDEAN:
        b -= a
        b *= b
        return np.sum(b, axis=-1)
    if measure is not Measure.DIVERGENCE:
        raise InvalidConfigError(f"measure must be a Measure, got {measure!r}")
    np.maximum(a, EPS, out=a)
    np.maximum(b, EPS, out=b)
    log_ratio = np.divide(a, b)
    np.log(log_ratio, out=log_ratio)
    np.subtract(a, b, out=b)
    b *= log_ratio
    return 0.5 * np.sum(b, axis=-1)


def triple_distances(cset: ConstraintSet, m, measure: Measure) -> np.ndarray:
    """Per triple of ``cset`` in ``m``, one 2 x n array: d1 = dis(q, r), d2 = dis(q, s)."""
    vectors = constrained_vectors(cset.target, m)
    cset.check_bounds(vectors.shape[0])
    idx = cset.index_arrays()
    return _pair_distances(vectors, idx[0], idx[1:], measure)


def satisfaction_flags(cset: ConstraintSet, m, measure: Measure) -> np.ndarray:
    """Boolean vector: strict dis(q,r) < dis(q,s) per triple (ties unsatisfied)."""
    d1, d2 = triple_distances(cset, m, measure)
    return d1 < d2


def csr(set_w: ConstraintSet | None, w, set_h: ConstraintSet | None, h, measure: Measure) -> float:
    """Constraint satisfied rate: mean of the present sets' satisfied fractions.

    With both sets present this is the usual half-sum of per-set fractions;
    with only one non-empty set it is that set's fraction alone.
    """
    fractions = []
    for cset, m in ((set_w, w), (set_h, h)):
        if cset is not None and len(cset) > 0:
            fractions.append(float(satisfaction_flags(cset, m, measure).mean()))
    if not fractions:
        raise NoConstraintsError("no non-empty constraint set supplied")
    return float(np.mean(fractions))


# longest chain generate_chain_plan accepts: the ordering search below is
# exhaustive, so one chain (its six candidate draws) takes about 0.006 s at
# length 10 and 0.03 s at 12 (2-core VM), growing 2-3x with every further link
MAX_CHAIN_LEN = 12


def _increasing_ordering(dist: np.ndarray) -> tuple[list[int] | None, float]:
    """Ordering of all points whose consecutive distances strictly increase, and its margin.

    Among all valid orderings of the candidate set, the one maximising the
    smallest consecutive-distance gap is returned with that gap (ties broken
    towards the lexicographically smaller path), so emitted chains carry the
    widest margins the sample permits.  Deterministic; (None, -inf) when no
    ordering exists.  The search is ``rpr_ordering`` in the compiled kernels.
    """
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    n = dist.shape[0]
    work = np.zeros(3 * n, dtype=np.int64)
    gap = _load().rpr_ordering(dist.ctypes.data, n, work.ctypes.data)
    return (work[:n].tolist() if gap > -np.inf else None), gap


# chain sampling: index sets drawn per chain before giving up, and the number
# of orderable draws compared for the widest margin
MAX_RESAMPLES = 100
CANDIDATE_DRAWS = 6


def generate_chain_constraints(
    ground_truth,
    target: Target,
    chain_len: int,
    n_chains: int,
    measure: Measure,
    seed,
) -> ConstraintSet:
    """Sample disjoint constraint chains already satisfied by ``ground_truth``.

    ``chain_len`` counts consecutive distances in a chain, so each chain uses
    chain_len+1 distinct indices and yields chain_len-1 triples.  Indices for
    a chain are drawn without replacement from the unused pool, then reordered
    so the consecutive distances strictly increase under the ground-truth
    vectors; a chain with no such ordering is resampled (up to
    ``MAX_RESAMPLES`` times).  ``chain_len`` above ``MAX_CHAIN_LEN`` is
    refused with InvalidRangeError before any search runs.
    """
    if n_chains < 1:
        raise InvalidRangeError(f"n_chains must be >= 1, got {n_chains}")
    return generate_chain_plan(ground_truth, target, [chain_len] * n_chains, measure, seed)


def generate_chain_plan(
    ground_truth,
    target: Target,
    chain_lens,
    measure: Measure,
    seed,
) -> ConstraintSet:
    """Like :func:`generate_chain_constraints` with one length per chain.

    For each chain, ``CANDIDATE_DRAWS`` index sets are sampled from the unused
    pool and the orderable one with the widest minimum margin is kept, so the
    emitted inequalities are not knife-edge artefacts of a single draw.
    """
    chain_lens = list(chain_lens)
    if not chain_lens:
        raise InvalidRangeError("need at least one chain")
    for c in chain_lens:
        if c < 2:
            raise InvalidRangeError(f"chain_len must be >= 2, got {c}")
        if c > MAX_CHAIN_LEN:
            raise InvalidRangeError(f"chain_len must be <= {MAX_CHAIN_LEN}, got {c}")
    vectors = constrained_vectors(target, ground_truth)
    n = vectors.shape[0]
    needed = sum(c + 1 for c in chain_lens)
    if needed > n:
        raise InsufficientIndicesError(
            f"{len(chain_lens)} disjoint chains need {needed} indices, only {n} available"
        )
    rng = np.random.default_rng(seed)
    pool = list(range(n))
    triples: list[ConstraintTriple] = []
    for chain_len in chain_lens:
        per_chain = chain_len + 1
        iu, ju = np.triu_indices(per_chain, 1)
        ordered = None
        ordered_gap = -np.inf
        attempts = 0
        while attempts < MAX_RESAMPLES and (ordered is None or attempts < CANDIDATE_DRAWS):
            attempts += 1
            picked = rng.choice(len(pool), size=per_chain, replace=False)
            cand = [pool[i] for i in sorted(picked.tolist())]
            sub = np.array(cand)
            dist = np.zeros((per_chain, per_chain))
            dist[iu, ju] = dist[ju, iu] = _pair_distances(vectors, sub[iu], sub[ju], measure)
            order, gap = _increasing_ordering(dist)
            if gap > ordered_gap:
                ordered_gap = gap
                ordered = [cand[i] for i in order]
        if ordered is None:
            raise InsufficientIndicesError(
                f"no satisfiable ordering found in {MAX_RESAMPLES} resamples"
            )
        for v in ordered:
            pool.remove(v)
        for i in range(1, chain_len):
            triples.append(
                ConstraintTriple(ordered[i] + 1, ordered[i - 1] + 1, ordered[i + 1] + 1)
            )
    return ConstraintSet(target, triples)


@dataclass
class WeightMatrix:
    """Pairwise-similarity matrix built from constraint chain depth."""

    s: DenseMatrix
    max_depth: int
    step: float
    mins: float
    maxs: float


def constraints_to_weight_matrix(m: int, cset: ConstraintSet, mins: float, maxs: float) -> WeightMatrix:
    """Convert triples to a symmetric pairwise weight matrix.

    Each triple contributes a directed edge (q,r) -> (q,s) between unordered
    index pairs; pair depth is the longest path to a sink (sinks have depth 1)
    and weights interpolate linearly from ``mins`` at depth 1 to ``maxs`` at
    the maximum depth.  A cyclic pair graph has no depth and is rejected.
    The matrix depends on the indices alone, so ``cset`` may target either
    side; ``m`` is the number of its side's vectors.
    """
    if mins > maxs:
        raise InvalidRangeError(f"need mins <= maxs, got {mins} > {maxs}")
    cset.check_bounds(m)

    def pair(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i < j else (j, i)

    edges: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for t in cset.triples:
        edges.setdefault(pair(t.q, t.r), set()).add(pair(t.q, t.s))

    # children passed as predecessors, so the order starts at the sinks and
    # every child's depth is known before its parents'
    depth: dict[tuple[int, int], int] = {}
    try:
        for node in graphlib.TopologicalSorter(edges).static_order():
            depth[node] = 1 + max((depth[c] for c in edges.get(node, ())), default=0)
    except graphlib.CycleError as exc:
        cyc = exc.args[1][::-1]  # reported against the edges
        raise CycleDetectedError(list(zip(cyc[:-1], cyc[1:]))) from None

    max_depth = max(depth.values(), default=1)
    step = (maxs - mins) / (max_depth - 1) if max_depth > 1 else 0.0
    s = np.eye(m)
    for node, d in depth.items():
        i, j = node[0] - 1, node[1] - 1
        s[i, j] = mins + (d - 1) * step
        s[j, i] = s[i, j]
    return WeightMatrix(DenseMatrix(s), max_depth, step, mins, maxs)


@dataclass
class LabelMatrix:
    """Hard class assignment derived from (q, r) similarity pairs.

    ``b`` has one row per class and one column per point; ``assignments`` maps
    1-based point index to its row in ``b``.
    """

    b: np.ndarray
    assignments: dict[int, int] = field(default_factory=dict)

    @property
    def n_classes(self) -> int:
        return self.b.shape[0]


def constraints_to_label_matrix(m: int, cset: ConstraintSet) -> LabelMatrix:
    """Convert triples to a binary label matrix by unioning (q, r) pairs.

    For each triple only (q, r) carries label information: both labelled with
    different classes merges the classes, one labelled lets the other inherit,
    neither labelled opens a fresh class.  Classes that end up empty are
    dropped from the output.
    """
    cset.check_bounds(m)
    labels: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    next_label = 0
    for t in cset.triples:
        lq, lr = labels.get(t.q), labels.get(t.r)
        if lq is not None and lr is not None:
            if lq != lr:
                for p in members.pop(lr):
                    labels[p] = lq
                    members[lq].append(p)
        elif lq is not None:
            labels[t.r] = lq
            members[lq].append(t.r)
        elif lr is not None:
            labels[t.q] = lr
            members[lr].append(t.q)
        else:
            labels[t.q] = labels[t.r] = next_label
            members[next_label] = [t.q, t.r]
            next_label += 1
    surviving = sorted(members.keys())
    row_of = {lab: i for i, lab in enumerate(surviving)}
    b = np.zeros((len(surviving), m))
    assignments = {}
    for p, lab in labels.items():
        b[row_of[lab], p - 1] = 1.0
        assignments[p] = row_of[lab]
    return LabelMatrix(b, assignments)


def write_constraints(path, set_w: ConstraintSet | None = None, set_h: ConstraintSet | None = None) -> None:
    """Write triples as text lines ``target q r s`` (target W or H)."""
    with open(path, "w", encoding="utf-8") as fh:
        for cset in (set_w, set_h):
            if cset is None:
                continue
            tag = cset.target.value
            for t in cset.triples:
                fh.write(f"{tag} {t.q} {t.r} {t.s}\n")


def read_constraints(path) -> tuple[ConstraintSet | None, ConstraintSet | None]:
    """Inverse of :func:`write_constraints`, under the line rule of :func:`rprnmf.io.data_lines`."""
    by_target: dict[Target, list[ConstraintTriple]] = {Target.W_ROWS: [], Target.H_COLS: []}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in data_lines(fh):
            parts = line.split()
            if len(parts) != 4:
                raise MalformedLineError(lineno, f"expected 'target q r s', got {line!r}")
            tag = parts[0].upper()
            if tag not in ("W", "H"):
                raise MalformedLineError(lineno, f"unknown target {parts[0]!r}")
            try:
                q, r, s = (int(p) for p in parts[1:])
                triple = ConstraintTriple(q, r, s)
            except (ValueError, InvalidTripleError) as exc:
                raise MalformedLineError(lineno, str(exc)) from exc
            by_target[Target.W_ROWS if tag == "W" else Target.H_COLS].append(triple)
    set_w = ConstraintSet(Target.W_ROWS, by_target[Target.W_ROWS]) if by_target[Target.W_ROWS] else None
    set_h = ConstraintSet(Target.H_COLS, by_target[Target.H_COLS]) if by_target[Target.H_COLS] else None
    return set_w, set_h
