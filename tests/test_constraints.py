import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rprnmf import (
    ConstraintSet,
    ConstraintTriple,
    DenseMatrix,
    Measure,
    Target,
    constraints_to_label_matrix,
    constraints_to_weight_matrix,
    csr,
    generate_chain_constraints,
    generate_chain_plan,
    read_constraints,
    write_constraints,
)
from rprnmf import constraints
from rprnmf.constraints import (
    InvalidTripleError,
    constrained_vectors,
    satisfaction_flags,
    triple_distances,
)
from rprnmf.exceptions import (
    CycleDetectedError,
    IndexOutOfRangeError,
    InsufficientIndicesError,
    InvalidConfigError,
    InvalidRangeError,
    MalformedLineError,
    NoConstraintsError,
)

from oracles import (
    euclidean_sq,
    is_satisfied,
    pruned_increasing_ordering,
    symmetric_divergence,
    widest_increasing_ordering,
)


def kl(x, y):
    x = np.maximum(x, 1e-12)
    y = np.maximum(y, 1e-12)
    return float(np.sum(x * np.log(x / y) - x + y))


def dis(x, y, measure):
    """dis(x, y) as the package computes it: d1 of the triple (1, 2, 3) over rows x, y, y."""
    d1, _ = triple_distances(ConstraintSet(Target.W_ROWS, [(1, 2, 3)]), np.array([x, y, y], float),
                             measure)
    return float(d1[0])


class TestDistances:
    def test_euclidean_identity(self):
        assert dis([1.0, 2.0], [1.0, 2.0], Measure.EUCLIDEAN) == 0.0

    def test_euclidean_direct(self):
        assert dis([1, 2], [3, 4], Measure.EUCLIDEAN) == pytest.approx(8.0)

    def test_euclidean_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.uniform(-2, 2, (2, 5))
            want = dis(y, x, Measure.EUCLIDEAN)
            assert dis(x, y, Measure.EUCLIDEAN) == pytest.approx(want, rel=1e-12)

    def test_sd_identity(self):
        assert dis([1.0, 2.0], [1.0, 2.0], Measure.DIVERGENCE) == 0.0

    def test_sd_direct(self):
        assert dis([1.0], [math.e], Measure.DIVERGENCE) == pytest.approx((math.e - 1) / 2, rel=1e-12)

    def test_sd_is_half_sum_of_kl(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.uniform(0.05, 3, (2, 6))
            want = 0.5 * (kl(x, y) + kl(y, x))
            assert dis(x, y, Measure.DIVERGENCE) == pytest.approx(want, abs=1e-12, rel=1e-12)

    def test_sd_nonneg_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(0.05, 3, 5)
            y = rng.uniform(0.05, 3, 5)
            assert dis(x, y, Measure.DIVERGENCE) >= 0.0
            assert dis(x, x, Measure.DIVERGENCE) == 0.0
            if not np.allclose(x, y):
                assert dis(x, y, Measure.DIVERGENCE) > 0.0

    def test_measure_must_be_a_member(self):
        # a measure's value is not a measure: refused, not read as divergence
        rng = np.random.default_rng(3)
        m = rng.uniform(0.1, 1, (4, 6))
        cset = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
        for call in (lambda: triple_distances(cset, m, "euc"),
                     lambda: csr(cset, m, None, None, "euc"),
                     lambda: generate_chain_plan(m, Target.W_ROWS, [2], "div", seed=0)):
            with pytest.raises(InvalidConfigError, match="must be a Measure"):
                call()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_triple_distances_is_one_stacked_call(self, data):
        # overlapping triples on few vectors, and zero entries for the EPS clamp
        n_vec, k = data.draw(st.integers(3, 8)), data.draw(st.integers(1, 20))
        target, measure = data.draw(st.sampled_from(Target)), data.draw(st.sampled_from(Measure))
        triple = st.lists(st.integers(1, n_vec), min_size=3, max_size=3, unique=True)
        cset = ConstraintSet(target, data.draw(st.lists(triple, max_size=16)))
        entry = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
        m = np.array(data.draw(st.lists(entry, min_size=n_vec * k, max_size=n_vec * k)))
        m = m.reshape((n_vec, k) if target is Target.W_ROWS else (k, n_vec))
        before = m.tobytes()
        got = triple_distances(cset, m, measure)
        assert m.tobytes() == before
        assert got.dtype == np.float64 and got.shape == (2, len(cset)) and got.flags.c_contiguous
        idx = cset.index_arrays()
        assert idx.dtype == np.int64 and idx.shape == (3, len(cset))
        assert idx.flags.c_contiguous and not idx.flags.writeable
        q, r, s = idx
        vectors = constrained_vectors(target, m)
        want = np.stack([constraints._pair_distances(vectors, q, r, measure),
                         constraints._pair_distances(vectors, q, s, measure)])
        assert got.tobytes() == want.tobytes()

    def test_factor_bytes_unchanged(self):
        # the in-place work of the distance stays inside its own gathers
        rng = np.random.default_rng(13)
        w, h = rng.uniform(0, 1, (30, 4)), rng.uniform(0, 1, (4, 30))
        w[::3, 1] = h[2, ::4] = 0.0
        before = w.tobytes(), h.tobytes()
        set_w = ConstraintSet(Target.W_ROWS, [(1, 2, 3), (2, 3, 1), (4, 2, 9)])
        set_h = ConstraintSet(Target.H_COLS, [(5, 6, 7), (7, 5, 6)])
        for measure in Measure:
            triple_distances(set_w, w, measure)
            triple_distances(set_h, h, measure)
            csr(set_w, w, set_h, h, measure)
            generate_chain_plan(w, Target.W_ROWS, [3, 4], measure, seed=1)
            generate_chain_plan(h, Target.H_COLS, [5], measure, seed=2)
            assert (w.tobytes(), h.tobytes()) == before


class TestTriples:
    def test_distinctness_enforced(self):
        with pytest.raises(InvalidTripleError):
            ConstraintTriple(1, 1, 2)
        with pytest.raises(InvalidTripleError):
            ConstraintTriple(1, 2, 1)

    def test_positive_indices(self):
        with pytest.raises(InvalidTripleError):
            ConstraintTriple(0, 1, 2)

    def test_set_dedupes_preserving_order(self):
        s = ConstraintSet(Target.W_ROWS, [(1, 2, 3), (4, 5, 6), (1, 2, 3)])
        assert len(s) == 2
        assert s.triples[0] == ConstraintTriple(1, 2, 3)
        assert s.triples[1] == ConstraintTriple(4, 5, 6)

    def test_set_identity_and_index_arrays(self):
        a = ConstraintSet(Target.H_COLS, [(2, 7, 3), (4, 5, 6), (2, 7, 3)])
        b = ConstraintSet(Target.H_COLS, [ConstraintTriple(2, 7, 3), (4, 5, 6)])
        assert a == b and hash(a) == hash(b)
        assert a != ConstraintSet(Target.W_ROWS, a.triples)
        assert a != ConstraintSet(Target.H_COLS, [(4, 5, 6), (2, 7, 3)])
        assert [x.tolist() for x in a.index_arrays()] == [[1, 3], [6, 4], [2, 5]]
        assert a.max_index() == 7 and ConstraintSet(Target.H_COLS, []).max_index() == 0
        a.check_bounds(7)
        with pytest.raises(IndexOutOfRangeError, match="index 7 exceeds dimension 6"):
            a.check_bounds(6)


class TestSatisfaction:
    def test_equal_to_r_strictly_closer(self):
        vectors = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        assert is_satisfied(ConstraintTriple(1, 2, 3), vectors, Measure.EUCLIDEAN)

    def test_tie_is_unsatisfied(self):
        vectors = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        assert not is_satisfied(ConstraintTriple(1, 2, 3), vectors, Measure.EUCLIDEAN)

    def test_agrees_with_direct_comparison(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            vectors = rng.uniform(0.05, 2, (3, 4))
            for measure, dist in ((Measure.EUCLIDEAN, euclidean_sq), (Measure.DIVERGENCE, symmetric_divergence)):
                want = dist(vectors[0], vectors[1]) < dist(vectors[0], vectors[2])
                assert is_satisfied(ConstraintTriple(1, 2, 3), vectors, measure) == want


class TestCsr:
    def test_two_set_average(self):
        # satisfied fractions 3/5 and 4/5 average to 0.7
        w = DenseMatrix(np.array([[0.0], [1.0], [2.0], [4.0], [8.0], [16.0], [32.0]]))
        # dis(q,r) vs dis(q,s): construct 5 triples, 3 satisfied
        sw = ConstraintSet(Target.W_ROWS, [
            (1, 2, 3),  # 1 < 4 satisfied
            (2, 3, 4),  # 1 < 9 satisfied
            (3, 4, 5),  # 4 < 36 satisfied
            (4, 5, 1),  # 16 > 16 tie -> unsatisfied
            (5, 6, 2),  # 64 > 49 unsatisfied
        ])
        h = DenseMatrix(np.array([[0.0, 1.0, 3.0, 9.0, 2.0]]))
        sh = ConstraintSet(Target.H_COLS, [
            (1, 2, 3),  # 1 < 9 sat
            (2, 3, 4),  # 4 < 64 sat
            (3, 1, 4),  # 9 < 36 sat
            (2, 5, 3),  # 1 < 4 sat
            (4, 1, 5),  # 81 > 49 unsat
        ])
        flags_w = satisfaction_flags(sw, w, Measure.EUCLIDEAN)
        flags_h = satisfaction_flags(sh, h, Measure.EUCLIDEAN)
        assert flags_w.sum() == 3 and flags_h.sum() == 4
        got = csr(sw, w, sh, h, Measure.EUCLIDEAN)
        assert got == pytest.approx(0.5 * (3 / 5 + 4 / 5))  # = 0.7

    def test_single_set_fraction(self):
        h = DenseMatrix(np.vstack([np.arange(10.0) ** 2]))
        triples = [(i, i + 1, i + 2) for i in range(1, 9)]
        sh = ConstraintSet(Target.H_COLS, triples)
        frac = satisfaction_flags(sh, h, Measure.EUCLIDEAN).mean()
        assert csr(None, None, sh, h, Measure.EUCLIDEAN) == pytest.approx(frac)

    def test_no_constraints_rejected(self):
        with pytest.raises(NoConstraintsError):
            csr(None, None, None, None, Measure.EUCLIDEAN)

    def test_matches_bruteforce_recount(self):
        rng = np.random.default_rng(4)
        w = DenseMatrix(rng.uniform(0.05, 1, (12, 4)))
        h = DenseMatrix(rng.uniform(0.05, 1, (4, 10)))
        sw = ConstraintSet(Target.W_ROWS, [tuple(rng.choice(12, 3, replace=False) + 1) for _ in range(7)])
        sh = ConstraintSet(Target.H_COLS, [tuple(rng.choice(10, 3, replace=False) + 1) for _ in range(5)])
        for measure in Measure:
            count_w = sum(is_satisfied(t, w.a, measure) for t in sw.triples)
            count_h = sum(is_satisfied(t, h.a.T, measure) for t in sh.triples)
            want = 0.5 * (count_w / len(sw) + count_h / len(sh))
            assert csr(sw, w, sh, h, measure) == pytest.approx(want, rel=1e-12)


class TestChainGeneration:
    def test_min_chain_yields_one_triple(self):
        gt = DenseMatrix(np.random.default_rng(5).uniform(0, 1, (4, 20)))
        s = generate_chain_constraints(gt, Target.H_COLS, chain_len=2, n_chains=1,
                                       measure=Measure.EUCLIDEAN, seed=0)
        assert len(s) == 1

    def test_ten_chains_of_length_five(self):
        gt = DenseMatrix(np.random.default_rng(6).uniform(0, 1, (6, 80)))
        s = generate_chain_constraints(gt, Target.H_COLS, chain_len=5, n_chains=10,
                                       measure=Measure.EUCLIDEAN, seed=1)
        assert len(s) == 40
        assert all(is_satisfied(t, gt.a.T, Measure.EUCLIDEAN) for t in s.triples)

    def test_satisfied_under_sd_too(self):
        gt = DenseMatrix(np.random.default_rng(7).uniform(0.05, 1, (6, 60)))
        s = generate_chain_constraints(gt, Target.H_COLS, chain_len=6, n_chains=5,
                                       measure=Measure.DIVERGENCE, seed=2)
        assert len(s) == 25
        assert satisfaction_flags(s, gt, Measure.DIVERGENCE).all()

    def test_same_seed_same_set(self):
        gt = DenseMatrix(np.random.default_rng(8).uniform(0, 1, (5, 40)))
        a = generate_chain_constraints(gt, Target.H_COLS, 4, 3, Measure.EUCLIDEAN, seed=9)
        b = generate_chain_constraints(gt, Target.H_COLS, 4, 3, Measure.EUCLIDEAN, seed=9)
        assert a.triples == b.triples

    def test_chains_are_disjoint(self):
        gt = DenseMatrix(np.random.default_rng(9).uniform(0, 1, (5, 50)))
        s = generate_chain_constraints(gt, Target.H_COLS, 4, 6, Measure.EUCLIDEAN, seed=3)
        used = [i for t in s.triples for i in (t.q, t.r, t.s)]
        # each chain of 5 indices contributes 3 triples touching its indices only
        chains = [used[i * 9:(i + 1) * 9] for i in range(6)]
        seen = set()
        for chain in chains:
            assert not (set(chain) & seen)
            seen |= set(chain)

    def test_insufficient_indices(self):
        gt = DenseMatrix(np.random.default_rng(10).uniform(0, 1, (3, 10)))
        with pytest.raises(InsufficientIndicesError):
            generate_chain_constraints(gt, Target.H_COLS, 5, 2, Measure.EUCLIDEAN, seed=0)

    def test_long_chain_rejected_before_any_search(self, monkeypatch):
        def no_search(dist):
            raise AssertionError("ordering search ran")

        monkeypatch.setattr(constraints, "_increasing_ordering", no_search)
        gt = DenseMatrix(np.random.default_rng(12).uniform(0, 1, (4, 60)))
        too_long = constraints.MAX_CHAIN_LEN + 1
        # the valid first chain is not searched either: every length is checked first
        with pytest.raises(InvalidRangeError, match="chain_len"):
            constraints.generate_chain_plan(gt, Target.H_COLS, [3, too_long], Measure.EUCLIDEAN, 0)
        with pytest.raises(InvalidRangeError, match="chain_len"):
            generate_chain_constraints(gt, Target.H_COLS, too_long, 1, Measure.DIVERGENCE, seed=0)

    def test_generated_set_has_full_csr_on_ground_truth(self):
        gt = DenseMatrix(np.random.default_rng(11).uniform(0, 1, (8, 70)))
        for measure in Measure:
            s = generate_chain_constraints(gt, Target.H_COLS, 6, 8, measure, seed=4)
            assert csr(None, None, s, gt, measure) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_ordering_search_matches_brute_force(self, data):
        # integer-valued distances make ties in both the hops and the gaps
        n = data.draw(st.integers(2, 7))
        value = st.integers(0, 4).map(float) if data.draw(st.booleans()) else st.floats(0.0, 10.0)
        iu, ju = np.triu_indices(n, 1)
        dist = np.zeros((n, n))
        dist[iu, ju] = dist[ju, iu] = data.draw(st.lists(value, min_size=iu.size,
                                                         max_size=iu.size))
        assert constraints._increasing_ordering(dist) == widest_increasing_ordering(dist)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_compiled_search_matches_python_search(self, data):
        # up to 9 points, symmetric or not; integer values tie hops and gaps,
        # and an inf entry makes an inf - inf hop, whose NaN gap is ignored
        n = data.draw(st.integers(0, 9))
        value = st.integers(0, 4).map(float) if data.draw(st.booleans()) else st.floats(0.0, 10.0)
        dist = np.array(data.draw(st.lists(value, min_size=n * n, max_size=n * n))).reshape(n, n)
        if data.draw(st.booleans()):
            dist = np.triu(dist, 1) + np.triu(dist, 1).T
        if n:
            cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            for i, j in data.draw(st.lists(cell, max_size=3)):
                dist[i, j] = np.inf
        assert constraints._increasing_ordering(dist) == pruned_increasing_ordering(dist)


class TestWeightConversion:
    def test_single_triple_trace(self):
        s = ConstraintSet(Target.H_COLS, [(1, 2, 3)])
        wm = constraints_to_weight_matrix(3, s, mins=0.0, maxs=1.0)
        assert wm.max_depth == 2
        assert wm.step == pytest.approx(1.0)
        a = wm.s.a
        assert a[0, 2] == 0.0 and a[2, 0] == 0.0
        assert a[0, 1] == 1.0 and a[1, 0] == 1.0
        assert np.array_equal(np.diag(a), np.ones(3))

    def test_independent_constraints_two_levels(self):
        s = ConstraintSet(Target.H_COLS, [(1, 2, 3), (4, 5, 6)])
        wm = constraints_to_weight_matrix(6, s, mins=0.25, maxs=0.75)
        assert wm.max_depth == 2
        a = wm.s.a
        # sink pairs (q, s) at depth 1 take mins, source pairs (q, r) take maxs
        for i, j in ((0, 2), (3, 5)):
            assert a[i, j] == 0.25 and a[j, i] == 0.25
        for i, j in ((0, 1), (3, 4)):
            assert a[i, j] == 0.75 and a[j, i] == 0.75

    def test_empty_set_degenerate_interpolation(self):
        wm = constraints_to_weight_matrix(4, ConstraintSet(Target.H_COLS, []), mins=0.2, maxs=0.9)
        assert wm.max_depth == 1
        assert wm.step == 0.0
        assert np.array_equal(wm.s.a, np.eye(4))

    def test_two_chain_trace(self):
        s = ConstraintSet(Target.H_COLS, [(2, 1, 3), (3, 2, 4)])
        wm = constraints_to_weight_matrix(4, s, mins=0.0, maxs=1.0)
        assert wm.max_depth == 3
        assert wm.step == pytest.approx(0.5)
        a = wm.s.a
        assert a[2, 3] == pytest.approx(0.0)    # pair (3,4) depth 1
        assert a[1, 2] == pytest.approx(0.5)    # pair (2,3) depth 2
        assert a[0, 1] == pytest.approx(1.0)    # pair (1,2) depth 3
        assert np.array_equal(a, a.T)

    def test_deeper_nodes_get_strictly_larger_weights(self):
        triples = [(2, 1, 3), (3, 2, 4), (4, 3, 5), (5, 4, 6)]
        s = ConstraintSet(Target.H_COLS, triples)
        wm = constraints_to_weight_matrix(6, s, mins=0.1, maxs=0.9)
        a = wm.s.a
        chain_weights = [a[4, 5], a[3, 4], a[2, 3], a[1, 2], a[0, 1]]
        assert all(x < y for x, y in zip(chain_weights, chain_weights[1:]))
        assert chain_weights[0] == pytest.approx(0.1)
        assert chain_weights[-1] == pytest.approx(0.9)

    def test_cycle_detected_with_edges(self):
        # (b,a,c): {a,b} -> {b,c}; (b,c,a): {b,c} -> {a,b} closes the loop
        s = ConstraintSet(Target.H_COLS, [(2, 1, 3), (2, 3, 1)])
        with pytest.raises(CycleDetectedError) as exc:
            constraints_to_weight_matrix(3, s, 0.0, 1.0)
        assert len(exc.value.edges) >= 2
        # {1,2} -> {1,3} -> {1,4} -> {1,2}: the edges are reported in their own direction
        s = ConstraintSet(Target.H_COLS, [(1, 2, 3), (1, 3, 4), (1, 4, 2)])
        with pytest.raises(CycleDetectedError) as exc:
            constraints_to_weight_matrix(4, s, 0.0, 1.0)
        assert sorted(exc.value.edges) == [((1, 2), (1, 3)), ((1, 3), (1, 4)), ((1, 4), (1, 2))]


class TestLabelConversion:
    def test_two_disjoint_classes(self):
        s = ConstraintSet(Target.H_COLS, [(1, 2, 3), (4, 5, 6)])
        lm = constraints_to_label_matrix(6, s)
        assert lm.n_classes == 2
        assert lm.assignments[1] == lm.assignments[2]
        assert lm.assignments[4] == lm.assignments[5]
        assert 3 not in lm.assignments and 6 not in lm.assignments
        assert lm.b.sum() == 4

    def test_chained_pairs_merge(self):
        s = ConstraintSet(Target.H_COLS, [(1, 2, 9), (2, 3, 8)])
        lm = constraints_to_label_matrix(9, s)
        assert lm.n_classes == 1
        assert lm.assignments[1] == lm.assignments[2] == lm.assignments[3]

    def test_merge_of_two_existing_classes(self):
        s = ConstraintSet(Target.H_COLS, [(1, 2, 9), (3, 4, 9), (1, 3, 9)])
        lm = constraints_to_label_matrix(9, s)
        assert lm.n_classes == 1
        assert len({lm.assignments[i] for i in (1, 2, 3, 4)}) == 1

    def test_empty_set_empty_matrix(self):
        lm = constraints_to_label_matrix(5, ConstraintSet(Target.H_COLS, []))
        assert lm.n_classes == 0
        assert lm.assignments == {}

    def test_columns_have_at_most_one_label(self):
        rng = np.random.default_rng(13)
        triples = [tuple(rng.choice(12, 3, replace=False) + 1) for _ in range(20)]
        lm = constraints_to_label_matrix(12, ConstraintSet(Target.H_COLS, triples))
        assert np.all(lm.b.sum(axis=0) <= 1.0)
        assert not np.any(lm.b.sum(axis=1) == 0.0)
        # every (q, r) pair ends up in one class
        for q, r, _ in triples:
            assert lm.assignments[q] == lm.assignments[r]


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        sw = ConstraintSet(Target.W_ROWS, [(1, 2, 3), (4, 5, 6)])
        sh = ConstraintSet(Target.H_COLS, [(7, 8, 9)])
        path = tmp_path / "c.txt"
        write_constraints(path, sw, sh)
        rw, rh = read_constraints(path)
        assert rw.triples == sw.triples
        assert rh.triples == sh.triples

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\nW 1 2 3  # trailing\nH 4 5 6\n")
        rw, rh = read_constraints(path)
        assert rw.triples == (ConstraintTriple(1, 2, 3),)
        assert rh.triples == (ConstraintTriple(4, 5, 6),)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        # both sides, either possibly empty, read back through comments and blank lines
        triple = st.lists(st.integers(1, 10**9), min_size=3, max_size=3, unique=True)
        w_triples, h_triples = (data.draw(st.lists(triple, max_size=6)) for _ in range(2))
        # an empty set is written as no set, and read back as None
        sets = tuple(cset or None for cset in (ConstraintSet(Target.W_ROWS, w_triples),
                                               ConstraintSet(Target.H_COLS, h_triples)))
        noise = st.sampled_from(["", "  ", "\t", "# a comment", "  # W 1 2 3", "#"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "c.txt")
            write_constraints(path, *sets)
            lines = []
            for line in path.read_text(encoding="utf-8").splitlines():
                lines += data.draw(st.lists(noise, max_size=2))
                lines.append(line + data.draw(st.sampled_from(["", " ", "  # trailing"])))
            lines += data.draw(st.lists(noise, max_size=2))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            back = read_constraints(path)
        assert back == sets

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("W 1 2 3\nX 1 2 3\n")
        with pytest.raises(MalformedLineError) as exc:
            read_constraints(path)
        assert exc.value.line == 2
