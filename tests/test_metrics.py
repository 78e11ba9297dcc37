import itertools
import math

import numpy as np
import pytest

from rprnmf import (
    ClusterAssignment,
    DenseMatrix,
    MaskMatrix,
    Measure,
    SolverConfig,
    clustering_accuracy,
    f1_score,
    kmeans,
    md,
    msl,
    nmi,
    objective,
    rmse,
    run,
)
from rprnmf.exceptions import (
    EmptyMaskError,
    LengthMismatchError,
    NegativeEntryError,
    NoObservedRatingsError,
    NonFiniteEntryError,
    ShapeMismatchError,
    TooFewPointsError,
)


def brute_force_accuracy(pred, truth):
    """Best accuracy over all injections of pred labels into truth labels."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    pl = sorted(set(pred.tolist()))
    tl = sorted(set(truth.tolist()))
    big = max(len(pl), len(tl))
    # pad the smaller side with dummy labels so permutations are bijections
    pl = pl + [f"p{i}" for i in range(big - len(pl))]
    tl = tl + [f"t{i}" for i in range(big - len(tl))]
    best = 0
    for perm in itertools.permutations(tl):
        mapping = dict(zip(pl, perm))
        best = max(best, sum(mapping[p] == t for p, t in zip(pred.tolist(), truth.tolist())))
    return best / len(pred)


def nmi_oracle(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    n = len(pred)
    mi = 0.0
    for a in set(pred.tolist()):
        for b in set(truth.tolist()):
            pab = np.sum((pred == a) & (truth == b)) / n
            if pab > 0:
                pa = np.sum(pred == a) / n
                pb = np.sum(truth == b) / n
                mi += pab * math.log(pab / (pa * pb))
    hs = []
    for labels in (pred, truth):
        h = 0.0
        for a in set(labels.tolist()):
            p = np.sum(labels == a) / n
            h -= p * math.log(p)
        hs.append(h)
    if max(hs) == 0:
        return 1.0
    return max(0.0, mi) / max(hs)


class TestApproximationMetrics:
    def test_msl_exact_factorisation(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 1, (5, 2))
        h = rng.uniform(0, 1, (2, 4))
        assert msl(w @ h, w, h) == pytest.approx(0.0, abs=1e-15)

    def test_msl_direct(self):
        v = DenseMatrix([[1, 2], [3, 4]])
        w = DenseMatrix([[1, 0], [0, 1]])
        h = DenseMatrix([[1, 2], [3, 5]])
        assert msl(v, w, h) == pytest.approx(0.25)

    def test_msl_equals_normalised_objective(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(0, 1, (6, 5))
        w = rng.uniform(0, 1, (6, 3))
        h = rng.uniform(0, 1, (3, 5))
        cfg = SolverConfig(k=3, measure=Measure.EUCLIDEAN)
        assert msl(v, w, h) == pytest.approx(objective(v, w, h, (None, None), cfg) / 30, rel=1e-12)

    def test_md_exact_and_direct(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(0.1, 1, (4, 2))
        h = rng.uniform(0.1, 1, (2, 4))
        assert md(w @ h, w, h) == pytest.approx(0.0, abs=1e-12)
        v = DenseMatrix([[1.0]])
        got = md(v, DenseMatrix([[1.0]]), DenseMatrix([[2.0]]))
        assert got == pytest.approx(1 - math.log(2), rel=1e-12)

    def test_md_equals_normalised_objective(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0.1, 1, (6, 5))
        w = rng.uniform(0.1, 1, (6, 3))
        h = rng.uniform(0.1, 1, (3, 5))
        cfg = SolverConfig(k=3, measure=Measure.DIVERGENCE)
        assert md(v, w, h) == pytest.approx(objective(v, w, h, (None, None), cfg) / 30, rel=1e-12)
        # a zero row of W gives model cells below EPS: both clamp them alike
        w[2] = 0.0
        v = w @ h
        assert md(v, w, h) * 30 == pytest.approx(objective(v, w, h, (None, None), cfg), rel=1e-12)

    def test_masked_msl_is_the_solver_fit_at_the_cells(self):
        # masked, msl forms W @ H at the observed cells only, as the solver's
        # objective does, so at lambda = 0 the two agree exactly
        rng = np.random.default_rng(4)
        v = rng.uniform(0, 1, (40, 30))
        bits = (rng.random((40, 30)) < 0.3).astype(float)
        bits[:, 0] = bits[0, :] = 1.0
        mask = MaskMatrix(bits)
        cfg = SolverConfig(k=4, measure=Measure.EUCLIDEAN, max_iters=20, seed=1, mask=mask)
        report = run(v, (None, None), cfg)
        assert msl(v, report.w, report.h, mask) * v.size == report.final_objective
        with pytest.raises(ShapeMismatchError):
            msl(v, report.w.a[1:], report.h, mask)
        # unmasked, factors that do not fit meet the same check
        for fit in (msl, md):
            for bad_w, bad_h in ((report.w.a, report.h.a[1:]), (report.w.a[:, 0], report.h.a)):
                with pytest.raises(ShapeMismatchError, match="factor shapes"):
                    fit(v, bad_w, bad_h)

    @pytest.mark.parametrize("bad, error", [(-1.0, NegativeEntryError), (np.nan, NonFiniteEntryError)])
    def test_bad_data_refused_as_objective_refuses_it(self, bad, error):
        # msl and md are the lambda = 0 objective / N*M, so they take the
        # objective's entry check, masked cells included
        v = np.array([[1.0, bad], [0.5, 2.0]])
        w, h = np.ones((2, 1)), np.ones((1, 2))
        unobserved = np.array([[1.0, 0.0], [1.0, 1.0]])
        for fit, measure in ((msl, Measure.EUCLIDEAN), (md, Measure.DIVERGENCE)):
            with pytest.raises(error):
                objective(v, w, h, (None, None), SolverConfig(k=1, measure=measure))
            for mask in (None, unobserved):
                with pytest.raises(error):
                    fit(v, w, h, mask)


class TestRmse:
    def test_perfect_prediction(self):
        v = np.ones((3, 3))
        assert rmse(v, v, MaskMatrix(np.eye(3))) == 0.0

    def test_direct(self):
        v = DenseMatrix([[1, 2], [3, 4]])
        wh = DenseMatrix([[1, 2], [3, 5]])
        assert rmse(v, wh, MaskMatrix(np.ones((2, 2)))) == pytest.approx(0.5)

    def test_empty_mask(self):
        with pytest.raises(EmptyMaskError):
            rmse(np.ones((2, 2)), np.ones((2, 2)), MaskMatrix(np.zeros((2, 2))))

    def test_shape_mismatch(self):
        mask = MaskMatrix(np.eye(2))
        for v, wh in ((np.ones((2, 2)), np.ones((2, 3))), (np.ones((3, 3)), np.ones((3, 3)))):
            with pytest.raises(ShapeMismatchError):
                rmse(v, wh, mask)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rng.uniform(0, 5, (6, 7))
            wh = rng.uniform(0, 5, (6, 7))
            bits = (rng.uniform(0, 1, (6, 7)) < 0.5).astype(float)
            if bits.sum() == 0:
                bits[0, 0] = 1.0
            total = count = 0.0
            for i in range(6):
                for j in range(7):
                    if bits[i, j]:
                        total += (v[i, j] - wh[i, j]) ** 2
                        count += 1
            want = math.sqrt(total / count)
            assert rmse(v, wh, MaskMatrix(bits)) == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestF1:
    def test_perfect_prediction(self):
        v = np.array([[5.0, 1.0, 4.0], [2.0, 4.0, 1.0]])
        observed = MaskMatrix([[1, 1, 0], [1, 1, 0]])
        heldout = MaskMatrix([[0, 0, 1], [0, 0, 1]])
        got = f1_score(v, v, observed, heldout)
        assert got.f1 == pytest.approx(1.0)
        assert not got.undefined

    def test_recall_zero_gives_zero(self):
        v = np.array([[4.0, 2.0, 5.0]])
        pred = np.array([[4.0, 2.0, 0.0]])  # never recommends the held-out item
        observed = MaskMatrix([[1, 1, 0]])
        heldout = MaskMatrix([[0, 0, 1]])
        got = f1_score(v, pred, observed, heldout)
        assert got.f1 == 0.0
        assert got.recall == 0.0

    def test_two_user_hand_count(self):
        # both users have observed mean 3.0; held-out truths {4, 2}; predictions {3.5, 2.5}
        v = np.array([[2.0, 4.0, 4.0], [3.0, 3.0, 2.0]])
        pred = np.array([[0.0, 0.0, 3.5], [0.0, 0.0, 2.5]])
        observed = MaskMatrix([[1, 1, 0], [1, 1, 0]])
        heldout = MaskMatrix([[0, 0, 1], [0, 0, 1]])
        got = f1_score(v, pred, observed, heldout)
        assert (got.precision, got.recall, got.f1) == (1.0, 1.0, 1.0)

    def test_no_observed_ratings_error(self):
        v = np.array([[1.0, 2.0]])
        with pytest.raises(NoObservedRatingsError):
            f1_score(v, v, MaskMatrix([[0, 0]]), MaskMatrix([[1, 0]]))

    def test_undefined_flag_when_no_positives(self):
        v = np.array([[4.0, 4.0, 1.0]])
        pred = np.array([[0.0, 0.0, 1.0]])
        observed = MaskMatrix([[1, 1, 0]])
        heldout = MaskMatrix([[0, 0, 1]])
        got = f1_score(v, pred, observed, heldout)
        assert got.undefined and got.f1 == 0.0

    def test_shift_invariance_with_threshold(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(1, 5, (4, 8))
        pred = rng.uniform(1, 5, (4, 8))
        bits = np.zeros((4, 8))
        bits[:, :5] = 1.0
        observed = MaskMatrix(bits)
        heldout = MaskMatrix(1.0 - bits)
        base = f1_score(v, pred, observed, heldout)
        shift = np.zeros((4, 8))
        shift[2, :] = 11.5  # shift one user's world by a constant
        shifted = f1_score(v + shift, pred + shift, observed, heldout)
        assert shifted == base

    def test_matches_per_user_loop_oracle(self):
        rng = np.random.default_rng(6)
        undefined = 0
        for _ in range(60):
            n, m = rng.integers(1, 7), rng.integers(2, 9)
            v = rng.uniform(1, 5, (n, m))
            pred = rng.uniform(1, 5, (n, m))
            obs = (rng.uniform(0, 1, (n, m)) < 0.5).astype(float)
            obs[np.arange(n), rng.integers(0, m, n)] = 1.0  # every user has a training rating
            held = (1.0 - obs) * (rng.uniform(0, 1, (n, m)) < 0.7)
            tp = fp = fn = 0
            for i in range(n):
                rated = [v[i, j] for j in range(m) if obs[i, j]]
                threshold = sum(rated) / len(rated)
                for j in range(m):
                    if held[i, j]:
                        t, p = v[i, j] > threshold, pred[i, j] > threshold
                        tp += t and p
                        fp += p and not t
                        fn += t and not p
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            got = f1_score(v, pred, MaskMatrix(obs), MaskMatrix(held))
            assert got.precision == precision and got.recall == recall
            assert got.undefined == (precision + recall == 0)
            if not got.undefined:
                assert got.f1 == pytest.approx(2 * precision * recall / (precision + recall),
                                               rel=1e-15)
            undefined += got.undefined
        assert undefined < 30


class TestKmeans:
    def test_two_blobs_perfect_split(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0.0, 0.05, (3, 20))
        b = rng.normal(5.0, 0.05, (3, 20))
        points = DenseMatrix(np.hstack([a, b]))
        got = kmeans(points, 2, seed=1)
        left, right = set(got.labels[:20].tolist()), set(got.labels[20:].tolist())
        assert len(left) == 1 and len(right) == 1 and left != right

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(0, 1, (2, 6))
        got = kmeans(DenseMatrix(points), 6, seed=2)
        assert sorted(got.labels.tolist()) == [1, 2, 3, 4, 5, 6]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        points = DenseMatrix(rng.uniform(0, 1, (4, 30)))
        a = kmeans(points, 4, seed=3)
        b = kmeans(points, 4, seed=3)
        assert np.array_equal(a.labels, b.labels)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            kmeans(DenseMatrix(np.ones((2, 3))), 4, seed=0)

    def test_labels_in_range(self):
        rng = np.random.default_rng(9)
        got = kmeans(DenseMatrix(rng.uniform(0, 1, (3, 25))), 5, seed=4)
        assert got.labels.min() >= 1 and got.labels.max() <= 5


class TestClusteringAccuracy:
    def test_identical(self):
        labels = [1, 2, 3, 1, 2, 3]
        assert clustering_accuracy(labels, labels) == 1.0

    def test_permuted_labels(self):
        truth = [1, 1, 2, 2, 3, 3]
        pred = [3, 3, 1, 1, 2, 2]
        assert clustering_accuracy(pred, truth) == 1.0

    def test_matches_bruteforce_on_random_cases(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(6, 14))
            pred = rng.integers(1, k + 1, n)
            truth = rng.integers(1, k + 1, n)
            assert clustering_accuracy(pred, truth) == pytest.approx(
                brute_force_accuracy(pred, truth), abs=1e-12)

    def test_relabelling_invariance(self):
        rng = np.random.default_rng(11)
        truth = rng.integers(1, 4, 30)
        pred = rng.integers(1, 4, 30)
        base = clustering_accuracy(pred, truth)
        remap = {1: 3, 2: 1, 3: 2}
        pred2 = np.array([remap[p] for p in pred.tolist()])
        assert clustering_accuracy(pred2, truth) == pytest.approx(base, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            clustering_accuracy([1, 2], [1, 2, 3])

    def test_accepts_cluster_assignment(self):
        a = ClusterAssignment(np.array([1, 2, 1]), 2)
        b = ClusterAssignment(np.array([2, 1, 2]), 2)
        assert clustering_accuracy(a, b) == 1.0


class TestNmi:
    def test_identical_partitions(self):
        labels = [1, 1, 2, 2, 3, 3]
        assert nmi(labels, labels) == pytest.approx(1.0)
        assert nmi(labels, [2, 2, 3, 3, 1, 1]) == pytest.approx(1.0)

    def test_independent_partitions_near_zero(self):
        rng = np.random.default_rng(12)
        a = rng.integers(1, 3, 10_000)
        b = rng.integers(1, 3, 10_000)
        assert abs(nmi(a, b)) < 0.02

    def test_single_cluster_vs_nontrivial_is_zero(self):
        assert nmi([1, 1, 1, 1], [1, 2, 1, 2]) == 0.0

    def test_both_trivial_is_one(self):
        assert nmi([1, 1, 1], [2, 2, 2]) == 1.0

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(6, 12))
            pred = rng.integers(1, 4, n)
            truth = rng.integers(1, 4, n)
            assert nmi(pred, truth) == pytest.approx(nmi_oracle(pred, truth), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            pred = rng.integers(1, 5, 40)
            truth = rng.integers(1, 5, 40)
            value = nmi(pred, truth)
            assert 0.0 <= value <= 1.0 + 1e-12
            assert 0.0 <= clustering_accuracy(pred, truth) <= 1.0


class TestMetricBounds:
    def test_error_metrics_nonnegative(self):
        rng = np.random.default_rng(15)
        v = rng.uniform(0, 2, (5, 5))
        w = rng.uniform(0, 2, (5, 2))
        h = rng.uniform(0, 2, (2, 5))
        assert msl(v, w, h) >= 0.0
        assert md(v, w, h) >= 0.0
        assert rmse(v, w @ h, MaskMatrix(np.ones((5, 5)))) >= 0.0
