"""The benchmark's three workloads: seeded inputs, timed set-up, factorisations.

Program functions are looked up as module attributes at call time, so the
traced mode can wrap them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from rprnmf import constraints as rc
from rprnmf import io as rio
from rprnmf import metrics as rm
from rprnmf import solver
from rprnmf.matrix import DenseMatrix

MEASURES = ("euc", "div")
# run() draws its initial factors uniformly from this range with config.seed;
# the reference runs in the checks start from the same draw.
INIT_LOW, INIT_HIGH = 0.01, 1.0


def _measure(name: str) -> rc.Measure:
    return rc.Measure.EUCLIDEAN if name == "euc" else rc.Measure.DIVERGENCE


def _derive(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _triple_arrays(cset):
    """0-based (q, r, s) arrays of a program ConstraintSet, or None."""
    if cset is None:
        return None
    t = np.array([(x.q, x.r, x.s) for x in cset.triples], dtype=int) - 1
    return t[:, 0], t[:, 1], t[:, 2]


def oriented_triples(rng, vectors: np.ndarray, count: int) -> np.ndarray:
    """``count`` distinct random triples (0-based rows of ``vectors``).

    Each is oriented so that ``vectors`` satisfies it under both measures;
    draws on which the two measures disagree are discarded.  Triples overlap
    freely: a vector may sit in several.
    """
    n = vectors.shape[0]
    kept: dict[tuple[int, int, int], None] = {}
    while len(kept) < count:
        cand = np.array([rng.choice(n, 3, replace=False) for _ in range(2 * count)])
        q, a, b = cand.T
        euc = checks.sq_dist(vectors[q], vectors[a]) < checks.sq_dist(vectors[q], vectors[b])
        div = checks.sym_div(vectors[q], vectors[a]) < checks.sym_div(vectors[q], vectors[b])
        for i in np.flatnonzero(euc == div):
            r, s = (a[i], b[i]) if euc[i] else (b[i], a[i])
            kept[(int(q[i]), int(r), int(s))] = None
            if len(kept) == count:
                break
    return np.array(list(kept), dtype=int)


def _write_constraints(path: Path, target: str, triples: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{target} {q + 1} {r + 1} {s + 1}\n" for q, r, s in triples.tolist())


@dataclass
class Case:
    """One factorisation: program inputs plus the plain-array problem for the checks."""

    name: str
    constrained: bool
    v: object
    sets: tuple
    config: solver.SolverConfig
    problem: checks.Problem
    heldout: np.ndarray | None = None

    def initial_factors(self):
        n, m = self.problem.v.shape
        rng = np.random.default_rng(self.config.seed)
        w0 = rng.uniform(INIT_LOW, INIT_HIGH, size=(n, self.config.k))
        h0 = rng.uniform(INIT_LOW, INIT_HIGH, size=(self.config.k, m))
        return w0, h0


def _case(name, v, v_array, cells, sets, measure, lam_w, lam_h, iters, seed, k, mask=None):
    config = solver.SolverConfig(k=k, measure=_measure(measure), lambda_w=lam_w,
                                 lambda_h=lam_h, max_iters=iters, rel_tol=0.0,
                                 seed=seed, mask=mask)
    problem = checks.Problem(v_array, cells, _triple_arrays(sets[0]), _triple_arrays(sets[1]),
                             measure, lam_w, lam_h)
    return Case(name, lam_w > 0 or lam_h > 0, v, sets, config, problem)


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _set_digest(*csets) -> bytes:
    return _digest(*[np.array([(t.q, t.r, t.s) for t in c.triples]) for c in csets if c is not None])


class Workload:
    """Inputs made from the seed alone (arrays, and files in ``workdir``).

    ``setup()`` makes the program calls that turn them into factorisation
    inputs; it is what ``setup_s`` times.  ``setup_failures(prepared)``
    checks its output against what the workload generated or wrote, and
    ``fingerprint(prepared)`` gives bytes every set-up repetition must
    repeat.  ``cases(prepared)`` lists the factorisations, each one
    ``solver.run`` call with a fixed iteration count (``rel_tol`` 0).
    """

    setup_reps: int

    def extra_failures(self, cases, reports) -> list[str]:
        """Checks that need the factorisation output beyond the per-case ones."""
        return []


class Synthetic(Workload):
    """Syn-1 at 10 groups and the param-sweep corner on one 100x100, k=20 matrix."""

    setup_reps = 20
    iters = 20
    k = 20

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.w0 = rng.uniform(0.0, 1.0, size=(100, self.k))
        self.h0 = rng.uniform(0.0, 1.0, size=(self.k, 100))
        self.v = self.w0 @ self.h0

    def setup(self):
        w0, h0 = DenseMatrix(self.w0), DenseMatrix(self.h0)
        sets = {}
        for i, name in enumerate(MEASURES):
            meas = _measure(name)
            # 10 chains of 5 triples: chain_len counts distances, 6 per chain
            sets[name, "syn1"] = rc.generate_chain_plan(h0, rc.Target.H_COLS, [6] * 10, meas,
                                                        seed=[self.seed, 1, i])
            # 10 single-triple chains on each side
            sets[name, "corner_w"] = rc.generate_chain_constraints(
                w0, rc.Target.W_ROWS, 2, 10, meas, seed=[self.seed, 2, i])
            sets[name, "corner_h"] = rc.generate_chain_constraints(
                h0, rc.Target.H_COLS, 2, 10, meas, seed=[self.seed, 3, i])
        return sets

    def setup_failures(self, sets):
        out = []
        for (name, kind), cset in sets.items():
            vectors = self.w0 if kind == "corner_w" else self.h0.T
            expected = 50 if kind == "syn1" else 10
            out += [f"{name} {kind}: {msg}" for msg in
                    checks.chain_failures(vectors, _triple_arrays(cset), name, expected)]
        return out

    def fingerprint(self, sets):
        return _set_digest(*sets.values())

    def cases(self, sets):
        v = DenseMatrix(self.v)
        out = []
        for i, name in enumerate(MEASURES):
            syn1 = (None, sets[name, "syn1"])
            corner = (sets[name, "corner_w"], sets[name, "corner_h"])
            for j, (label, cs, lw, lh) in enumerate((("syn1-nmf", syn1, 0.0, 0.0),
                                                     ("syn1-rpr", syn1, 0.0, 1.0),
                                                     ("corner-rpr", corner, 100.0, 100.0))):
                out.append(_case(f"{label}-{name}", v, self.v, None, cs, name, lw, lh,
                                 self.iters, _derive(self.seed, 4, i, j), self.k))
        return out


class WideConstrained(Workload):
    """200x3706, k=20, 5000 overlapping triples on H, read from CSV and constraints files."""

    setup_reps = 8
    iters = 1
    k = 20

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.w0 = rng.uniform(0.0, 1.0, size=(200, self.k))
        self.h0 = rng.uniform(0.0, 1.0, size=(self.k, 3706))
        self.v = self.w0 @ self.h0
        self.triples = oriented_triples(rng, self.h0.T, 5000)
        self.matrix_path = workdir / "v.csv"
        self.constraints_path = workdir / "constraints.txt"
        np.savetxt(self.matrix_path, self.v, fmt="%.17g", delimiter=",")
        _write_constraints(self.constraints_path, "H", self.triples)

    def setup(self):
        v = rio.read_dense_csv(self.matrix_path)
        sets = rc.read_constraints(self.constraints_path)
        return v, sets

    def setup_failures(self, prepared):
        v, (set_w, set_h) = prepared
        out = []
        if not np.array_equal(v.a, self.v):
            out.append("read_dense_csv does not return the matrix written")
        if set_w is not None or set_h is None or not np.array_equal(
                np.column_stack(_triple_arrays(set_h)), self.triples):
            out.append("read_constraints does not return the triples written")
        return out

    def fingerprint(self, prepared):
        v, sets = prepared
        return _digest(v.a) + _set_digest(*sets)

    def cases(self, prepared):
        v, sets = prepared
        return [_case(f"wide-{label}-{name}", v, v.a, None, sets, name, 0.0, lh,
                      self.iters, _derive(self.seed, 4, i, j), self.k)
                for i, name in enumerate(MEASURES)
                for j, (label, lh) in enumerate((("nmf", 0.0), ("rpr", 1.0)))]


class Ml1mMasked(Workload):
    """Synthetic ratings at MovieLens-1M shape, CV fold 0 as the training mask."""

    setup_reps = 2
    iters = 1
    k = 20
    users, items, observed = 6040, 3706, 1_000_209
    folds = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        n, m = self.users, self.items
        cells = np.sort(rng.choice(n * m, size=self.observed, replace=False))
        self.rows, self.cols = np.divmod(cells, m)
        w0 = rng.uniform(0.0, 1.0, size=(n, self.k))
        h0 = rng.uniform(0.0, 1.0, size=(self.k, m))
        model = np.einsum("ij,ji->i", w0[self.rows], h0[:, self.cols])
        # the model's mean is k/4 = 5; shifting by 2 centres ratings near 3
        self.ratings = np.clip(np.rint(model - 2.0), 1, 5)
        stamps = 956_703_932 + rng.integers(0, 10**7, size=self.observed)
        self.path = workdir / "ratings.dat"
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in zip(
                (self.rows + 1).tolist(), (self.cols + 1).tolist(),
                self.ratings.astype(int).tolist(), stamps.tolist()))
        self.triples_w = oriented_triples(rng, w0, 1000)
        self.triples_h = oriented_triples(rng, h0.T, 1000)
        self.sets = (rc.ConstraintSet(rc.Target.W_ROWS, (self.triples_w + 1).tolist()),
                     rc.ConstraintSet(rc.Target.H_COLS, (self.triples_h + 1).tolist()))
        self.split_seed = _derive(seed, 5)

    def setup(self):
        table = rio.read_ratings(self.path, "ml1m")
        v, observed = rio.ratings_to_matrix(table)
        split = rio.make_cv_split(observed, self.folds, self.split_seed)
        training = split.training_mask(0)
        return table, v, split, training

    def setup_failures(self, prepared):
        # sparse comparisons only, so the checks add nothing to peak memory
        table, v, split, training = prepared
        out = []
        n, m = self.users, self.items
        cells = (self.rows, self.cols)
        if not (table.n_users == n and table.n_items == m
                and np.array_equal(table.users, self.rows + 1)
                and np.array_equal(table.items, self.cols + 1)
                and np.array_equal(table.ratings, self.ratings)):
            out.append("read_ratings does not return the ratings written")
        bits = split.observed.bits
        if not (np.array_equal(v.a[cells], self.ratings) and np.count_nonzero(v.a) == self.observed
                and np.all(bits[cells] == 1.0) and np.count_nonzero(bits) == self.observed):
            out.append("ratings_to_matrix does not place the ratings written")
        folds = [np.nonzero(f.bits) for f in split.fold_masks]
        out += checks.split_failures((n, m), cells, folds, split.reassigned)
        in_fold0 = split.fold_masks[0].bits[cells] > 0
        if not (np.array_equal(training.bits[cells], np.where(in_fold0, 0.0, 1.0))
                and np.count_nonzero(training.bits) == self.observed - np.count_nonzero(in_fold0)):
            out.append("training mask of fold 0 is not observed minus fold 0")
        return out

    def fingerprint(self, prepared):
        # positions and values of the non-zero cells: hashing the dense
        # N x M arrays whole would take seconds per repetition
        table, v, split, training = prepared
        masks = [v.a, training.bits] + [f.bits for f in split.fold_masks]
        nonzero = [np.flatnonzero(a) for a in masks]
        return _digest(*nonzero, *[a.ravel()[i] for a, i in zip(masks, nonzero)])

    def cases(self, prepared):
        _, v, split, training = prepared
        cells = np.nonzero(training.bits)
        out = [_case(f"ml1m-{label}-{name}", v, v.a, cells, self.sets, name, lam, lam,
                     self.iters, _derive(self.seed, 4, i, j), self.k, mask=training)
               for i, name in enumerate(MEASURES)
               for j, (label, lam) in enumerate((("nmf", 0.0), ("rpr", 200.0)))]
        out[0].heldout = split.fold_masks[0].bits
        return out

    def extra_failures(self, cases, reports):
        """Program rmse and F1 on fold 0's held-out cells against a recomputation."""
        case = cases[0]
        report = reports[case.name]
        if report is None:
            return []
        v = case.problem.v
        wh = report.w.a @ report.h.a
        return checks.metric_failures(
            v, wh, case.problem.cells, np.nonzero(case.heldout),
            rm.rmse(v, wh, case.heldout), rm.f1_score(v, wh, case.config.mask, case.heldout).f1)


WORKLOADS = {
    "synthetic": Synthetic,
    "wide-constrained": WideConstrained,
    "ml1m-masked": Ml1mMasked,
}
