import math

import numpy as np
import pytest

from rprnmf import (
    ConstraintSet,
    DenseMatrix,
    Measure,
    Target,
    csr,
    div_penalty_value,
    euc_penalty_value,
)
from rprnmf.constraints import triple_distances
from rprnmf.exceptions import IndexOutOfRangeError, PenaltyOverflowError

from oracles import div_penalty_grad, euc_penalty_grad, g_kernel, symmetric_divergence


def random_set(rng, dim, count, target=Target.W_ROWS):
    triples = [tuple(rng.choice(dim, 3, replace=False) + 1) for _ in range(count)]
    return ConstraintSet(target, triples)


def fd_derivative(value_fn, factor, a, b, h=1e-6):
    up = factor.copy()
    up[a, b] += h
    down = factor.copy()
    down[a, b] -= h
    return (value_fn(up) - value_fn(down)) / (2 * h)


class TestEucValue:
    def test_empty_set_zero(self):
        f = DenseMatrix(np.ones((4, 3)))
        dist = triple_distances(ConstraintSet(Target.W_ROWS, []), f, Measure.EUCLIDEAN)
        assert euc_penalty_value(dist) == 0.0

    def test_identical_rows_give_two_per_triple(self):
        f = DenseMatrix(np.ones((6, 3)))
        s = ConstraintSet(Target.W_ROWS, [(1, 2, 3), (4, 5, 6), (2, 4, 6)])
        assert euc_penalty_value(triple_distances(s, f, Measure.EUCLIDEAN)) == pytest.approx(2 * len(s))

    def test_single_triple_direct(self):
        f = DenseMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
        s = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
        dist = triple_distances(s, f, Measure.EUCLIDEAN)
        assert euc_penalty_value(dist) == pytest.approx(math.e + math.exp(-9), rel=1e-12)

    def test_overflow_rejected(self):
        f = DenseMatrix(np.array([[0.0], [30.0], [1.0]]))
        s = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
        with pytest.raises(PenaltyOverflowError):
            euc_penalty_value(triple_distances(s, f, Measure.EUCLIDEAN))

    def test_column_target_orientation(self):
        h = DenseMatrix(np.array([[0.0, 1.0, 3.0], [0.0, 0.0, 0.0]]))
        s = ConstraintSet(Target.H_COLS, [(1, 2, 3)])
        dist = triple_distances(s, h, Measure.EUCLIDEAN)
        assert euc_penalty_value(dist) == pytest.approx(math.e + math.exp(-9), rel=1e-12)


class TestEucGrad:
    def test_untouched_index_zero(self):
        rng = np.random.default_rng(0)
        f = DenseMatrix(rng.uniform(0.1, 2, (6, 3)))
        s = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
        assert euc_penalty_grad(f, s, 4, 1) == (0.0, 0.0)

    def test_parts_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            f = DenseMatrix(rng.uniform(0.0, 2, (7, 4)))
            s = random_set(rng, 7, 4)
            for a in range(7):
                for b in range(4):
                    pos, neg = euc_penalty_grad(f, s, a, b)
                    assert pos >= 0.0 and neg >= 0.0

    def test_single_triple_symbolic_expansion(self):
        rng = np.random.default_rng(2)
        f = rng.uniform(0.1, 2, (4, 3))
        s = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
        b = 1
        e1 = math.exp(float(np.sum((f[0] - f[1]) ** 2)))
        e2 = math.exp(-float(np.sum((f[0] - f[2]) ** 2)))
        pos, neg = euc_penalty_grad(DenseMatrix(f), s, 0, b)
        assert pos == pytest.approx(e1 * f[0, b] + e2 * f[2, b], rel=1e-12)
        assert neg == pytest.approx(e1 * f[1, b] + e2 * f[0, b], rel=1e-12)

    def test_finite_difference_identity(self):
        rng = np.random.default_rng(3)
        s_checked = 0
        for _ in range(50):
            n, k = 8, 4
            f = rng.uniform(0.1, 2, (n, k))
            s = random_set(rng, n, 3)
            a = int(rng.integers(n))
            b = int(rng.integers(k))
            pos, neg = euc_penalty_grad(DenseMatrix(f), s, a, b)
            fd = fd_derivative(
                lambda m: euc_penalty_value(triple_distances(s, m, Measure.EUCLIDEAN)), f, a, b)
            if abs(fd) > 1e-9:
                assert 2 * (pos - neg) == pytest.approx(fd, rel=1e-5)
                s_checked += 1
        assert s_checked >= 25

    def test_index_out_of_range(self):
        f = DenseMatrix(np.ones((3, 2)))
        s = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
        with pytest.raises(IndexOutOfRangeError):
            euc_penalty_grad(f, s, 3, 0)


class TestDivValue:
    def test_all_satisfied_zero(self):
        f = DenseMatrix(np.array([[1.0, 1.0], [1.1, 1.0], [9.0, 4.0]]))
        s = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
        assert div_penalty_value(triple_distances(s, f, Measure.DIVERGENCE)) == 0.0

    def test_empty_set_zero(self):
        dist = triple_distances(ConstraintSet(Target.W_ROWS, []), DenseMatrix(np.ones((3, 2))),
                                Measure.DIVERGENCE)
        assert div_penalty_value(dist) == 0.0

    def test_single_violation_equals_direct_recompute(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = rng.uniform(0.1, 2, (5, 3))
            s = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
            d1 = symmetric_divergence(f[0], f[1])
            d2 = symmetric_divergence(f[0], f[2])
            want = max(0.0, d1 - d2)
            dist = triple_distances(s, DenseMatrix(f), Measure.DIVERGENCE)
            assert div_penalty_value(dist) == pytest.approx(want, abs=1e-12)

    def test_zero_iff_full_csr(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            f = DenseMatrix(rng.uniform(0.1, 2, (7, 4)))
            s = random_set(rng, 7, 5)
            value = div_penalty_value(triple_distances(s, f, Measure.DIVERGENCE))
            full = csr(s, f, None, None, Measure.DIVERGENCE) == 1.0
            if full:
                assert value == 0.0
            if value > 0.0:
                assert not full


class TestDivGrad:
    def test_all_satisfied_gate_closes(self):
        f = DenseMatrix(np.array([[1.0, 1.0], [1.05, 1.0], [6.0, 3.0]]))
        s = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
        for a in range(3):
            assert div_penalty_grad(f, s, a, 0) == 0.0

    def test_g_kernel_zero_on_diagonal(self):
        for x in (0.3, 1.0, 2.5):
            assert g_kernel(x, x) == 0.0

    def test_finite_difference_identity_at_active_hinge(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 50:
            f = rng.uniform(0.1, 2, (6, 3))
            s = random_set(rng, 6, 2)
            # need an active hinge with margin, away from the kink
            margins = []
            for t in s.triples:
                d1 = symmetric_divergence(f[t.q - 1], f[t.r - 1])
                d2 = symmetric_divergence(f[t.q - 1], f[t.s - 1])
                margins.append(d1 - d2)
            if not any(m > 1e-3 for m in margins):
                continue
            if any(0 < m <= 1e-3 for m in margins):
                continue
            a = int(rng.integers(6))
            b = int(rng.integers(3))
            p = div_penalty_grad(DenseMatrix(f), s, a, b)
            fd = fd_derivative(
                lambda m: div_penalty_value(triple_distances(s, m, Measure.DIVERGENCE)), f, a, b)
            if abs(fd) > 1e-7:
                assert 0.5 * p == pytest.approx(fd, rel=1e-4)
                checked += 1

    def test_untouched_zero(self):
        f = DenseMatrix(np.random.default_rng(7).uniform(0.1, 2, (5, 3)))
        s = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
        assert div_penalty_grad(f, s, 3, 0) == 0.0
