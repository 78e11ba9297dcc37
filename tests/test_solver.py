import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rprnmf import (
    ConstraintSet,
    DenseMatrix,
    MaskMatrix,
    Measure,
    Target,
    div_penalty_value,
    euc_penalty_value,
    frobenius_sq_diff,
    masked_update_terms,
    matrix_divergence,
    objective,
    run,
)
from rprnmf.constraints import generate_chain_constraints, triple_distances
from rprnmf.exceptions import (
    InvalidConfigError,
    NegativeEntryError,
    NonFiniteEntryError,
    PenaltyOverflowError,
    RprNmfError,
    ShapeMismatchError,
    SweepBuildError,
)
from rprnmf.io import read_ratings
from rprnmf.matrix import EPS, ObservedCells
from rprnmf import _kernels, constraints, solver
from rprnmf.solver import SolverConfig, _PreparedSet, _sweep

import mutate_kernels
from oracles import dense_masked_terms, div_penalty_grad, lee_seung, reference_ordered_sweep

# ---------------------------------------------------------------- oracles


def classic_euc_step(v, w, h):
    return lee_seung(v, w, h, Measure.EUCLIDEAN, 1)


def classic_div_step(v, w, h):
    return lee_seung(v, w, h, Measure.DIVERGENCE, 1)


def dense_masked_fit(v, bits, w, h, measure):
    """Masked data fit summed over the dense N x M matrix, unobserved cells zeroed.

    W @ H is formed as k rank-1 adds in ascending latent index, so each cell
    is the sum the package's ``rpr_model`` forms, bit for bit; the two fits
    then differ only in the order in which their (non-negative) cell terms
    are summed.
    """
    wh = np.zeros(v.shape)
    for l in range(w.shape[1]):
        wh += np.outer(w[:, l], h[l])
    if measure is Measure.EUCLIDEAN:
        d = bits * (v - wh)
        return float(np.sum(d * d))
    wc = np.maximum(wh, EPS)
    lg = np.where(v > 0, v * np.log(np.maximum(v, EPS) / wc), 0.0)
    return float(np.sum(bits * (lg - v + wc)))


def random_instance(rng, n=12, m=9, k=4):
    v = rng.uniform(0.05, 1.5, (n, m))
    w = rng.uniform(0.05, 1.5, (n, k))
    h = rng.uniform(0.05, 1.5, (k, m))
    return v, w, h


# ----------------------------------------------------------- update terms


class TestUpdateTerms:
    def test_all_ones_mask_matches_unmasked(self):
        rng = np.random.default_rng(0)
        v, w, h = random_instance(rng)
        mask = MaskMatrix(np.ones_like(v))
        for measure in Measure:
            for side in ("w", "h"):
                num0, den0 = masked_update_terms(v, None, w, h, measure, side)
                num1, den1 = masked_update_terms(v, ObservedCells(v, mask), w, h, measure, side)
                assert np.allclose(num0, num1, rtol=1e-13, atol=0)
                assert np.allclose(den0, den1, rtol=1e-13, atol=0)

    def test_masked_terms_ignore_unobserved(self):
        rng = np.random.default_rng(1)
        v, w, h = random_instance(rng)
        bits = (rng.uniform(0, 1, v.shape) < 0.6).astype(float)
        mask = MaskMatrix(bits)
        v2 = v + (1 - bits) * rng.uniform(1, 5, v.shape)
        for measure in Measure:
            for side in ("w", "h"):
                num1, den1 = masked_update_terms(v, ObservedCells(v, mask), w, h, measure, side)
                num2, den2 = masked_update_terms(v2, ObservedCells(v2, mask), w, h, measure, side)
                assert np.allclose(num1, num2, rtol=1e-12)
                assert np.allclose(den1, den2, rtol=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        v, w, h = random_instance(rng)
        with pytest.raises(ShapeMismatchError):
            masked_update_terms(v, ObservedCells(v, np.ones((3, 3))), w, h, Measure.EUCLIDEAN, "w")
        # a 1-D factor meets the same check, masked or not
        for cells in (None, ObservedCells(v, np.ones(v.shape))):
            for bad_w, bad_h in ((w[:, 0], h), (w, h[0])):
                with pytest.raises(ShapeMismatchError, match="factor shapes"):
                    masked_update_terms(v, cells, bad_w, bad_h, Measure.DIVERGENCE, "h")
        # and so do factors objective() is given
        for mask in (None, MaskMatrix(np.ones(v.shape))):
            cfg = SolverConfig(k=w.shape[1], measure=Measure.EUCLIDEAN, mask=mask)
            with pytest.raises(ShapeMismatchError, match="factor shapes"):
                objective(v, w, h[:-1], (None, None), cfg)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 9), m=st.integers(1, 9), k=st.integers(1, 4),
           density=st.floats(0.1, 1.0), seed=st.integers(0, 2**32 - 1))
    # divergence cell terms cancel here, so a last-bit difference in W @ H
    # showed as 1.4e-11 relative when the reference formed it another way
    @example(n=3, m=3, k=3, density=0.25, seed=3)
    def test_observed_cells_match_dense_reference(self, n, m, k, density, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.0, 2.0, (n, m))
        v[rng.uniform(0, 1, v.shape) < 0.2] = 0.0
        w = rng.uniform(0.01, 1.0, (n, k))
        h = rng.uniform(0.01, 1.0, (k, m))
        bits = (rng.uniform(0, 1, (n, m)) < density).astype(float)
        # unobserved cells of the second matrix differ, wildly
        v2 = np.where(bits > 0, v, rng.uniform(0.0, 1e6, v.shape))
        for measure in Measure:
            config = SolverConfig(k=k, measure=measure, mask=MaskMatrix(bits))
            fit = dense_masked_fit(v, bits, w, h, measure)
            for data in (v, v2):
                got = objective(data, w, h, (None, None), config)
                assert got == pytest.approx(fit, rel=1e-12, abs=1e-300)
            for side in ("w", "h"):
                want = dense_masked_terms(v, bits, w, h, measure, side)
                for data in (v, v2):
                    got = masked_update_terms(data, ObservedCells(data, MaskMatrix(bits)), w, h,
                                              measure, side)
                    for g, r in zip(got, want):
                        assert g.shape == r.shape
                        assert np.allclose(g, r, rtol=1e-12, atol=1e-300)


# --------------------------------------------------------- per-entry ops


def sweep_side(v, w, h, cset, lam, measure, side):
    """One sweep of one side, as run() does it: terms at the sweep start, H
    swept through its transposed view.  Updates ``w`` or ``h`` in place."""
    num, den = masked_update_terms(v, None, w, h, measure, side)
    fac = w if side == "w" else h
    dist = triple_distances(cset, fac, measure) if cset is not None else None
    if side == "w":
        prep = _PreparedSet(cset, w.shape[0]) if cset is not None else None
        _sweep(w, num, den, prep, lam, measure, dist)
    else:
        prep = _PreparedSet(cset, h.shape[1]) if cset is not None else None
        _sweep(h.T, num.T, den.T, prep, lam, measure, dist)


class TestEntryUpdates:
    def test_euc_single_entry_exact_step(self):
        w = np.array([[0.5]])
        sweep_side(np.array([[1.0]]), w, np.array([[1.0]]), None, 0.0, Measure.EUCLIDEAN, "w")
        assert w[0, 0] == pytest.approx(1.0)

    def test_div_single_entry_exact_step(self):
        w = np.array([[0.5]])
        sweep_side(np.array([[1.0]]), w, np.array([[1.0]]), None, 0.0, Measure.DIVERGENCE, "w")
        assert w[0, 0] == pytest.approx(1.0)

    def test_untouched_entry_equals_classic(self):
        rng = np.random.default_rng(3)
        v, w, h = random_instance(rng)
        cset = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
        wc, _ = classic_euc_step(v, w.copy(), h.copy())
        sweep_side(v, w, h, cset, 2.0, Measure.EUCLIDEAN, "w")
        assert w[5, 1] == pytest.approx(wc[5, 1], rel=1e-12)
        assert np.allclose(w[3:], wc[3:], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("measure", list(Measure))
    def test_full_sweep_matches_classic_at_lambda_zero(self, measure):
        rng = np.random.default_rng(4)
        v = rng.uniform(0.05, 1.5, (5, 4))
        w = rng.uniform(0.05, 1.5, (5, 3))
        h = rng.uniform(0.05, 1.5, (3, 4))
        if measure is Measure.EUCLIDEAN:
            wc = w * (v @ h.T) / np.maximum(w @ (h @ h.T), EPS)
        else:
            wc = w * ((v / np.maximum(w @ h, EPS)) @ h.T) / np.maximum(h.sum(axis=1), EPS)
        # a constraint set with a zero coefficient is inert too
        for cset in (None, ConstraintSet(Target.W_ROWS, [(1, 2, 3), (3, 4, 5)])):
            new = w.copy()
            sweep_side(v, new, h, cset, 0.0, measure, "w")
            assert np.max(np.abs(new - wc)) <= 1e-12

    @pytest.mark.parametrize("measure", list(Measure))
    def test_h_update_transpose_duality(self, measure):
        rng = np.random.default_rng(5)
        v, w, h = random_instance(rng, 7, 6, 3)
        triples = [(1, 2, 3), (4, 5, 6)]
        direct = h.copy()
        sweep_side(v, w, direct, ConstraintSet(Target.H_COLS, triples), 0.7, measure, "h")
        dual = h.T.copy()
        sweep_side(v.T, dual, w.T, ConstraintSet(Target.W_ROWS, triples), 0.7, measure, "w")
        assert np.allclose(direct.T, dual, rtol=1e-12, atol=0)

    def test_zero_column_denominator_floored(self):
        # an all-zero latent column in W floors the H-update denominator at EPS
        # instead of dividing by zero; the numerator is zero too, so the entries
        # land at zero rather than blowing up
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = np.array([[0.5, 0.0], [0.25, 0.0]])
        h = np.array([[1.0, 1.0], [1.0, 1.0]])
        sweep_side(v, w, h, None, 0.0, Measure.EUCLIDEAN, "h")
        assert np.all(np.isfinite(h))
        assert np.array_equal(h[1], [0.0, 0.0])

    def test_div_fallback_drops_penalty(self):
        # force 0.5*lam*P + sum(H) < 0 through a strongly negative P at the
        # s-anchored row; s is the lowest index, so the sweep updates it first,
        # from the factor as given
        v = np.ones((3, 2))
        h = np.array([[0.1, 0.1]])
        cset = ConstraintSet(Target.W_ROWS, [(2, 3, 1)])
        # violated: q (row 2) is far from r (row 3) and close to s (row 1)
        w = np.array([[1.05], [1.0], [0.01]])
        lam = 1e4
        p = div_penalty_grad(w, cset, 0, 0)
        assert p < 0
        plain_den = h.sum(axis=1)[0]
        assert 0.5 * lam * p + plain_den < 0
        num = ((v / np.maximum(w @ h, EPS)) @ h.T)[0, 0]
        want = w[0, 0] * num / plain_den
        sweep_side(v, w, h, cset, lam, Measure.DIVERGENCE, "w")
        assert w[0, 0] == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------ full sweep


class TestOrderedSweep:
    @pytest.mark.parametrize("measure", list(Measure))
    def test_fast_sweep_matches_sequential_reference(self, measure):
        rng = np.random.default_rng(6)
        for trial in range(10):
            v, w, h = random_instance(rng)
            cset = ConstraintSet(Target.W_ROWS, [(1, 2, 3), (3, 4, 5), (5, 2, 7), (8, 9, 1)])
            num, den = masked_update_terms(v, None, w, h, measure, "w")
            fast = w.copy()
            _sweep(fast, num, den, _PreparedSet(cset, 12), 0.7, measure,
                   triple_distances(cset, w, measure))
            slow = w.copy()
            reference_ordered_sweep(slow, np.asarray(num), np.asarray(den), cset, 0.7, measure)
            assert np.max(np.abs(fast - slow) / np.maximum(np.abs(slow), 1e-30)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 9), m=st.integers(3, 9), k=st.integers(1, 4),
           n_triples=st.integers(1, 8), lam=st.floats(0.05, 2.0),
           side=st.sampled_from(["w", "h"]), zeros=st.floats(0.0, 0.5),
           seed=st.integers(0, 2**32 - 1))
    def test_sweep_matches_reference_property(self, n, m, k, n_triples, lam, side, zeros, seed):
        rng = np.random.default_rng(seed)
        v, w, h = random_instance(rng, n, m, k)
        # zero entries run the EPS clamps of the divergence terms and distances
        w[rng.random(w.shape) < zeros] = 0.0
        h[rng.random(h.shape) < zeros] = 0.0
        # W is swept as is, H through its transposed view, the way run() does
        if side == "w":
            start, dim, target, orient = w, n, Target.W_ROWS, (lambda a: a)
        else:
            start, dim, target, orient = h, m, Target.H_COLS, (lambda a: a.T)
        cset = ConstraintSet(target, [tuple(rng.choice(dim, 3, replace=False) + 1)
                                      for _ in range(n_triples)])
        for measure in Measure:
            num, den = masked_update_terms(v, None, w, h, measure, side)
            slow = start.copy()
            reference_ordered_sweep(orient(slow), orient(num), orient(den), cset, lam, measure)
            fast = start.copy()
            _sweep(orient(fast), orient(num), orient(den), _PreparedSet(cset, dim), lam,
                   measure, triple_distances(cset, start, measure))
            assert np.max(np.abs(fast - slow) / np.maximum(np.abs(slow), 1e-30)) < 1e-10

    @pytest.mark.parametrize("side", ["w", "h"])
    def test_mixed_plan_matches_reference(self, side):
        """300 vectors and 400 triples: most vectors have several links, in mixed roles."""
        rng = np.random.default_rng(11)
        v, w, h = random_instance(rng, 300, 300, 2)
        if side == "w":
            start, target, orient = w, Target.W_ROWS, (lambda a: a)
        else:
            start, target, orient = h, Target.H_COLS, (lambda a: a.T)
        cset = ConstraintSet(target, [tuple(rng.choice(300, 3, replace=False) + 1)
                                      for _ in range(400)])
        for measure in Measure:
            prep = _PreparedSet(cset, 300)
            num, den = masked_update_terms(v, None, w, h, measure, side)
            fast, slow = start.copy(), start.copy()
            _sweep(orient(fast), orient(num), orient(den), prep, 0.7, measure,
                   triple_distances(cset, start, measure))
            reference_ordered_sweep(orient(slow), orient(num), orient(den), cset, 0.7, measure)
            assert np.max(np.abs(fast - slow) / np.maximum(np.abs(slow), 1e-30)) < 1e-10

    def test_exact_hinge_tie_counts_as_unsatisfied(self):
        # r and s are identical columns of H, so d1 == d2 exactly when r, the
        # lowest index, is updated first: a tie is not satisfied, so r takes
        # its hinge term
        rng = np.random.default_rng(21)
        v, w, h = random_instance(rng, 6, 7, 3)
        h[:, 4] = h[:, 0]
        cset = ConstraintSet(Target.H_COLS, [(3, 1, 5)])
        d1, d2 = triple_distances(cset, h, Measure.DIVERGENCE)
        assert d1[0] == d2[0]
        num, den = masked_update_terms(v, None, w, h, Measure.DIVERGENCE, "h")
        slow, fast = h.copy(), h.copy()
        reference_ordered_sweep(slow.T, num.T, den.T, cset, 2.0, Measure.DIVERGENCE)
        _sweep(fast.T, num.T, den.T, _PreparedSet(cset, 7), 2.0, Measure.DIVERGENCE, (d1, d2))
        plain = h[0, 0] * num[0, 0] / den[0, 0]
        assert abs(slow[0, 0] - plain) > 1e-3 * plain  # the hinge term moved r
        assert np.max(np.abs(fast - slow) / np.maximum(np.abs(slow), 1e-30)) < 1e-10

    def test_link_tables_match_triples(self):
        rng = np.random.default_rng(12)
        dim = 200
        triples = [tuple(rng.choice(dim, 3, replace=False) + 1) for _ in range(300)]
        cset = ConstraintSet(Target.W_ROWS, triples)
        prep = _PreparedSet(cset, dim)
        want = np.array(triples).T - 1
        assert np.array_equal(prep.qrs, want)
        assert prep.qrs is cset.index_arrays()  # the kernel reads the set's own table
        assert prep.touched.tolist() == sorted({x - 1 for t in triples for x in t})
        assert prep.first[0] == 0 and prep.first[-1] == 3 * len(triples)
        seen = []
        for i, a in enumerate(prep.touched.tolist()):
            tri = prep.tri[prep.first[i]:prep.first[i + 1]].tolist()
            role = prep.role[prep.first[i]:prep.first[i + 1]].tolist()
            assert tri == sorted(tri)  # triple order
            # each link names its vector in its role
            assert all(want[ro, t] == a for t, ro in zip(tri, role))
            seen += zip(tri, role)
        # every (triple, role) once
        assert sorted(seen) == [(t, ro) for t in range(len(triples)) for ro in range(3)]

    def test_overflow_carries_exponent(self):
        w = np.array([[0.0], [30.0], [1.0]])
        num = den = np.ones_like(w)
        cset = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
        prep = _PreparedSet(cset, 3)
        with pytest.raises(PenaltyOverflowError, match="exp argument 900 exceeds 700") as exc:
            _sweep(w, num, den, prep, 1.0, Measure.EUCLIDEAN,
                   triple_distances(cset, w, Measure.EUCLIDEAN))
        assert exc.value.exponent == 900.0

    def test_operands_that_do_not_fit_are_refused(self):
        # checked before the compiled walk reads or writes through them
        cset = ConstraintSet(Target.W_ROWS, [(1, 2, 4)])
        prep = _PreparedSet(cset, 4)
        w = np.ones((4, 2))
        dist = triple_distances(cset, w, Measure.EUCLIDEAN)
        for fac, num, d in ((np.ones((3, 2)), np.ones((3, 2)), dist), (w.astype(np.float32), w, dist),
                            (w.copy(), np.ones((4, 1)), dist), (w.copy(), w, (dist[0], dist[1][:0]))):
            with pytest.raises(ShapeMismatchError):
                _sweep(fac, num, num, prep, 1.0, Measure.EUCLIDEAN, d)

    @pytest.mark.parametrize("compiler", ["no-such-cc", "false"])
    def test_failed_build_raises_typed_error(self, tmp_path, monkeypatch, compiler):
        # a missing compiler, and one that exits non-zero, met by a penalised
        # sweep, by a masked run with no penalty, by chain generation and by
        # a clean ratings read, which does not fall back to the line loop
        cc = str(tmp_path / compiler) if compiler == "no-such-cc" else compiler
        ratings = tmp_path / "r.dat"
        ratings.write_text("1::2::3::4\n")
        monkeypatch.setattr(_kernels, "CC", cc)
        cache = _kernels._SOURCE.parent / "__pycache__"
        before = set(cache.glob("*.so"))
        w = np.ones((3, 1))
        cset = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])
        prep = _PreparedSet(cset, 3)
        dist = triple_distances(cset, w, Measure.EUCLIDEAN)
        config = SolverConfig(k=1, measure=Measure.EUCLIDEAN, max_iters=1, mask=np.ones((3, 3)))
        for call in (lambda: _sweep(w, w.copy(), w.copy(), prep, 1.0, Measure.EUCLIDEAN, dist),
                     lambda: run(np.ones((3, 3)), None, config),
                     lambda: constraints.generate_chain_plan(w, Target.W_ROWS, [2],
                                                             Measure.EUCLIDEAN, 0),
                     lambda: read_ratings(ratings)):
            monkeypatch.setattr(_kernels, "_compiled", None)
            with pytest.raises(SweepBuildError, match=cc) as exc:
                call()
            assert isinstance(exc.value, RprNmfError)
            assert set(cache.glob("*.so")) == before  # no half-built file left

    def test_two_processes_build_into_empty_cache(self, tmp_path):
        package = Path(solver.__file__).parent
        shutil.copytree(package, tmp_path / "rprnmf", ignore=shutil.ignore_patterns("__pycache__"))
        script = ("import numpy as np\n"
                  "from rprnmf import ConstraintSet, Measure, Target\n"
                  "from rprnmf.matrix import ObservedCells\n"
                  "from rprnmf.constraints import triple_distances\n"
                  "from rprnmf.solver import _PreparedSet, _sweep\n"
                  "w = np.ones((3, 2))\n"
                  "cset = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])\n"
                  "_sweep(w, w.copy(), w.copy(), _PreparedSet(cset, 3), 1.0, Measure.DIVERGENCE,\n"
                  "       triple_distances(cset, w, Measure.DIVERGENCE))\n"
                  "cells = ObservedCells(np.ones((3, 3)), np.eye(3))\n"
                  "print(w.sum(), cells.model(w, w.T).sum())\n")
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env, cwd=tmp_path,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [proc.communicate(timeout=120) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], outs
        assert outs[0][0] == outs[1][0]
        assert len(list((tmp_path / "rprnmf" / "__pycache__").glob("*.so"))) == 1

    def test_build_removes_older_libraries(self, tmp_path):
        package = Path(solver.__file__).parent
        shutil.copytree(package, tmp_path / "rprnmf", ignore=shutil.ignore_patterns("__pycache__"))
        cache = tmp_path / "rprnmf" / "__pycache__"
        cache.mkdir()
        stale = cache / "_sweep-0123456789abcdef.so"
        stale.write_bytes(b"a library of an older source")
        script = ("import numpy as np\n"
                  "from rprnmf import ConstraintSet, Measure, Target\n"
                  "from rprnmf.constraints import triple_distances\n"
                  "from rprnmf.solver import _PreparedSet, _sweep\n"
                  "w = np.ones((3, 2))\n"
                  "cset = ConstraintSet(Target.W_ROWS, [(1, 2, 3)])\n"
                  "_sweep(w, w.copy(), w.copy(), _PreparedSet(cset, 3), 1.0, Measure.EUCLIDEAN,\n"
                  "       triple_distances(cset, w, Measure.EUCLIDEAN))\n")
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        libs = list(cache.glob("*.so"))
        assert len(libs) == 1 and libs[0] != stale

    def test_source_compiles_without_warnings(self):
        flags = ["-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only"]
        proc = subprocess.run([_kernels.CC, *flags, str(_kernels._SOURCE)], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr

    def test_sweep_preserves_nonnegativity(self):
        rng = np.random.default_rng(7)
        for measure in Measure:
            v, w, h = random_instance(rng)
            cset = ConstraintSet(Target.W_ROWS, [(1, 2, 3), (4, 5, 6)])
            num, den = masked_update_terms(v, None, w, h, measure, "w")
            _sweep(w, num, den, _PreparedSet(cset, 12), 1.0, measure,
                   triple_distances(cset, w, measure))
            assert np.all(w >= 0.0)


def test_mutation_gate_texts_each_occur_once():
    # the gate stops on a text the kernels no longer hold; this finds it sooner
    assert mutate_kernels.orphans(_kernels._SOURCE.read_text()) == []


# -------------------------------------------------------------- objective


class TestObjective:
    def test_lambda_zero_reduces_to_fit_term(self):
        rng = np.random.default_rng(8)
        v, w, h = random_instance(rng)
        sets = (ConstraintSet(Target.W_ROWS, [(1, 2, 3)]), None)
        cfg = SolverConfig(k=4, measure=Measure.EUCLIDEAN)
        assert objective(v, w, h, sets, cfg) == pytest.approx(frobenius_sq_diff(v, w @ h), rel=1e-12)
        cfg = SolverConfig(k=4, measure=Measure.DIVERGENCE)
        assert objective(v, w, h, sets, cfg) == pytest.approx(matrix_divergence(v, w @ h), rel=1e-12)

    def test_exact_fit_and_satisfied_constraints_divergence_zero(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(0.1, 1, (6, 3))
        h = rng.uniform(0.1, 1, (3, 5))
        v = w @ h
        set_w = generate_chain_constraints(DenseMatrix(w), Target.W_ROWS, 2, 1, Measure.DIVERGENCE, seed=0)
        cfg = SolverConfig(k=3, measure=Measure.DIVERGENCE, lambda_w=1.0)
        assert objective(v, w, h, (set_w, None), cfg) == pytest.approx(0.0, abs=1e-9)

    def test_matches_term_by_term_sum(self):
        rng = np.random.default_rng(10)
        v, w, h = random_instance(rng)
        set_w = ConstraintSet(Target.W_ROWS, [(1, 2, 3), (4, 5, 6)])
        set_h = ConstraintSet(Target.H_COLS, [(2, 4, 6)])
        cfg = SolverConfig(k=4, measure=Measure.EUCLIDEAN, lambda_w=0.3, lambda_h=0.9)
        want = (frobenius_sq_diff(v, w @ h)
                + 0.3 * euc_penalty_value(w, set_w)
                + 0.9 * euc_penalty_value(h, set_h))
        assert objective(v, w, h, (set_w, set_h), cfg) == pytest.approx(want, rel=1e-12)
        cfg = SolverConfig(k=4, measure=Measure.DIVERGENCE, lambda_w=0.3, lambda_h=0.9)
        want = (matrix_divergence(v, w @ h)
                + 0.3 * div_penalty_value(w, set_w)
                + 0.9 * div_penalty_value(h, set_h))
        assert objective(v, w, h, (set_w, set_h), cfg) == pytest.approx(want, rel=1e-12)


# -------------------------------------------------------------------- run


class TestRun:
    @pytest.mark.parametrize("measure,step", [(Measure.EUCLIDEAN, classic_euc_step),
                                              (Measure.DIVERGENCE, classic_div_step)])
    def test_lambda_zero_matches_classic_iterates(self, measure, step):
        rng = np.random.default_rng(11)
        v = rng.uniform(0, 1, (10, 8))
        for iters in (1, 7, 40):
            cfg = SolverConfig(k=3, measure=measure, max_iters=iters, rel_tol=0.0, seed=21)
            rep = run(DenseMatrix(v), (None, None), cfg)
            rng2 = np.random.default_rng(21)
            w = rng2.uniform(0.01, 1.0, (10, 3))
            h = rng2.uniform(0.01, 1.0, (3, 8))
            for _ in range(iters):
                w, h = step(v, w, h)
            assert np.max(np.abs(rep.w.a - w)) <= 1e-12
            assert np.max(np.abs(rep.h.a - h)) <= 1e-12

    def test_divergence_rank_revealing_recovery(self):
        # exact low-rank data with matching K drives the mean divergence to noise level
        for seed in range(10):
            rng = np.random.default_rng([9000, seed])
            w0 = rng.uniform(0, 1, (30, 2))
            h0 = rng.uniform(0, 1, (2, 30))
            v = DenseMatrix(w0 @ h0)
            cfg = SolverConfig(k=2, measure=Measure.DIVERGENCE, max_iters=500, rel_tol=0.0, seed=seed)
            rep = run(v, (None, None), cfg)
            assert matrix_divergence(v, rep.w.a @ rep.h.a) / 900 <= 1e-6

    def test_trace_length_is_iterations_plus_one(self):
        rng = np.random.default_rng(12)
        v = DenseMatrix(rng.uniform(0, 1, (6, 5)))
        cfg = SolverConfig(k=2, measure=Measure.EUCLIDEAN, max_iters=9, rel_tol=0.0, seed=0)
        rep = run(v, (None, None), cfg)
        assert rep.iterations == 9
        assert len(rep.objective_trace) == 10

    def test_rel_tol_stops_early(self):
        rng = np.random.default_rng(13)
        v = DenseMatrix(rng.uniform(0, 1, (6, 5)))
        cfg = SolverConfig(k=2, measure=Measure.EUCLIDEAN, max_iters=5000, rel_tol=1e-4, seed=0)
        rep = run(v, (None, None), cfg)
        assert rep.iterations < 5000
        tr = rep.objective_trace
        assert abs(tr[-1] - tr[-2]) / max(abs(tr[-2]), EPS) < 1e-4

    def test_nonnegativity_every_mode(self):
        rng = np.random.default_rng(14)
        v = DenseMatrix(rng.uniform(0, 1, (15, 12)))
        sw = generate_chain_constraints(DenseMatrix(rng.uniform(0.1, 1, (15, 4))), Target.W_ROWS, 3, 2,
                                        Measure.EUCLIDEAN, seed=1)
        sh = generate_chain_constraints(DenseMatrix(rng.uniform(0.1, 1, (4, 12))), Target.H_COLS, 3, 2,
                                        Measure.EUCLIDEAN, seed=2)
        for measure in Measure:
            cfg = SolverConfig(k=4, measure=measure, lambda_w=0.5, lambda_h=0.5,
                               max_iters=30, rel_tol=0.0, seed=3)
            rep = run(v, (sw, sh), cfg)
            assert np.all(rep.w.a >= 0.0)
            assert np.all(rep.h.a >= 0.0)
            assert rep.csr is not None

    def test_fixed_point_euclidean_lambda_zero(self):
        rng = np.random.default_rng(15)
        w0 = rng.uniform(0.1, 1, (8, 3))
        h0 = rng.uniform(0.1, 1, (3, 7))
        v = w0 @ h0
        num, den = masked_update_terms(v, None, w0, h0, Measure.EUCLIDEAN, "w")
        w1 = w0.copy()
        _sweep(w1, num, den, None, 0.0, Measure.EUCLIDEAN, None)
        assert np.max(np.abs(w1 - w0) / np.abs(w0)) < 1e-10

    def test_fixed_point_divergence_with_satisfied_constraints(self):
        rng = np.random.default_rng(16)
        w0 = rng.uniform(0.1, 1, (8, 3))
        h0 = rng.uniform(0.1, 1, (3, 7))
        v = w0 @ h0
        set_w = generate_chain_constraints(DenseMatrix(w0), Target.W_ROWS, 2, 2, Measure.DIVERGENCE, seed=4)
        num, den = masked_update_terms(v, None, w0, h0, Measure.DIVERGENCE, "w")
        w1 = w0.copy()
        prep = _PreparedSet(set_w, 8)
        _sweep(w1, np.asarray(num), np.asarray(den), prep, 5.0, Measure.DIVERGENCE,
               triple_distances(set_w, w1, Measure.DIVERGENCE))
        assert np.max(np.abs(w1 - w0) / np.abs(w0)) < 1e-10

    def test_divergence_rollback_logged_and_trace_monotone(self):
        rng = np.random.default_rng(17)
        w0 = rng.uniform(0, 1, (30, 6))
        h0 = rng.uniform(0, 1, (6, 25))
        v = DenseMatrix(w0 @ h0)
        sh = generate_chain_constraints(DenseMatrix(h0), Target.H_COLS, 6, 3, Measure.DIVERGENCE, seed=5)
        cfg = SolverConfig(k=6, measure=Measure.DIVERGENCE, lambda_h=1.0,
                           max_iters=400, rel_tol=0.0, seed=6)
        rep = run(v, (None, sh), cfg)
        tr = rep.objective_trace
        assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(tr, tr[1:]))
        # the adaptation fights the hinge early on: rollbacks occur and are logged
        assert len(rep.rollback_iters) > 0
        assert all(1 <= i <= rep.iterations for i in rep.rollback_iters)

    @pytest.mark.parametrize("measure, rollback", [(Measure.EUCLIDEAN, False),
                                                   (Measure.DIVERGENCE, False),
                                                   (Measure.DIVERGENCE, True)])
    def test_each_state_evaluated_once(self, monkeypatch, measure, rollback):
        # every sweep starts from its own factor's distances, bit for bit, and
        # the W-side terms from that state's W @ H; only the objective forms
        # distances, one call per penalised side
        real_sweep, real_terms = solver._sweep, solver.masked_update_terms
        real_objective, real_pairs = solver._objective_value, constraints._pair_distances
        calls = {"pairs": 0, "pairs_in_sweep": 0, "objective": 0, "checked": 0}
        in_sweep = []

        def pairs(*args):
            calls["pairs"] += 1
            calls["pairs_in_sweep"] += bool(in_sweep)
            return real_pairs(*args)

        def sweep(fac, num, den, prep, lam, measure, dist):
            q, r, s = prep.qrs
            want = real_pairs(fac, q, r, measure), real_pairs(fac, q, s, measure)
            assert [d.tobytes() for d in dist] == [d.tobytes() for d in want]
            calls["checked"] += 1
            in_sweep.append(True)
            try:
                return real_sweep(fac, num, den, prep, lam, measure, dist)
            finally:
                in_sweep.pop()

        def terms(v, cells, w, h, measure, side, wh=None):
            assert (wh is not None) == (side == "w")
            if wh is not None:
                assert np.array_equal(wh, w @ h)
            return real_terms(v, cells, w, h, measure, side, wh)

        def objective(*args):
            # with rollback, iteration 2 is refused: its objective reads NaN
            calls["objective"] += 1
            value, evaluation = real_objective(*args)
            return (np.nan if rollback and calls["objective"] == 3 else value), evaluation

        monkeypatch.setattr(constraints, "_pair_distances", pairs)
        monkeypatch.setattr(solver, "_sweep", sweep)
        monkeypatch.setattr(solver, "masked_update_terms", terms)
        monkeypatch.setattr(solver, "_objective_value", objective)
        rng = np.random.default_rng(24)
        v, w0, h0 = random_instance(rng, 12, 10, 3)
        sets = (ConstraintSet(Target.W_ROWS, [(1, 2, 3), (3, 4, 5), (6, 2, 9), (10, 11, 12)]),
                ConstraintSet(Target.H_COLS, [(1, 2, 3), (4, 6, 5), (8, 9, 10)]))
        cfg = SolverConfig(k=3, measure=measure, lambda_w=1.0, lambda_h=2.0, max_iters=6,
                           rel_tol=0.0, seed=3)
        rep = run(v, sets, cfg)
        assert (2 in rep.rollback_iters) == rollback
        assert calls["objective"] == rep.iterations + 1
        assert calls["checked"] == 2 * rep.iterations
        # one call per penalised side per objective, then one per set for the CSR
        assert calls["pairs"] == 2 * calls["objective"] + 2
        assert calls["pairs_in_sweep"] == 0

    def test_nan_objective_rolled_back(self, monkeypatch):
        # the accept test is written so that NaN fails it
        real, values = solver._objective_value, []

        def nan_at_iteration_2(*args):
            value, evaluation = real(*args)
            values.append(value)
            return (np.nan if len(values) == 3 else value), evaluation

        monkeypatch.setattr(solver, "_objective_value", nan_at_iteration_2)
        v = np.random.default_rng(23).uniform(0.1, 1, (6, 5))
        cfg = SolverConfig(k=2, measure=Measure.DIVERGENCE, max_iters=4, rel_tol=0.0, seed=1)
        rep = run(v, None, cfg)
        assert rep.rollback_iters == [2]
        assert np.all(np.isfinite(rep.objective_trace))

    @pytest.mark.parametrize("measure", list(Measure))
    def test_set_on_wrong_side_refused(self, monkeypatch, measure):
        def refuse(*args, **kwargs):
            raise AssertionError("an iteration ran")
        monkeypatch.setattr(solver, "masked_update_terms", refuse)
        v = np.random.default_rng(22).uniform(0.1, 1, (6, 5))
        wrong_w = (ConstraintSet(Target.H_COLS, [(1, 2, 3)]), None)
        wrong_h = (None, ConstraintSet(Target.W_ROWS, [(1, 2, 3)]))
        w, h = np.ones((6, 4)), np.ones((4, 5))
        for sets, side, lam in ((wrong_w, "W", {"lambda_w": 1.0}), (wrong_h, "H", {"lambda_h": 1.0})):
            cfg = SolverConfig(k=4, measure=measure, **lam)
            with pytest.raises(InvalidConfigError, match=f"{side}-side"):
                run(v, sets, cfg)
            with pytest.raises(InvalidConfigError, match=f"{side}-side"):
                objective(v, w, h, sets, cfg)

    def test_negative_data_rejected(self):
        cfg = SolverConfig(k=2, measure=Measure.EUCLIDEAN)
        v = np.array([[1.0, -0.5], [0.2, 0.1]])
        with pytest.raises(NegativeEntryError):
            run(v, (None, None), cfg)
        # objective() runs the same entry checks
        with pytest.raises(NegativeEntryError):
            objective(v, np.ones((2, 2)), np.ones((2, 2)), (None, None), cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        v = np.array([[1.0, 0.5], [0.2, 0.1]])
        v[1, 0] = bad
        # hidden by the mask, but still rejected: V must be finite everywhere
        bits = np.array([[1.0, 1.0], [0.0, 1.0]])
        w, h = np.ones((2, 1)), np.ones((1, 2))
        for mask in (None, MaskMatrix(bits)):
            cfg = SolverConfig(k=1, measure=Measure.DIVERGENCE, mask=mask)
            for call in (lambda: run(v, (None, None), cfg),
                         lambda: objective(v, w, h, (None, None), cfg)):
                with pytest.raises(RprNmfError) as info:
                    call()
                expected = NegativeEntryError if bad < 0 else NonFiniteEntryError
                assert type(info.value) is expected and info.value.index == 2

    def test_array_mask_coerced(self):
        rng = np.random.default_rng(21)
        v = rng.uniform(0.1, 1, (5, 4))
        bits = np.ones((5, 4))
        bits[0, 0] = bits[3, 2] = 0.0
        cfg = SolverConfig(k=2, measure=Measure.EUCLIDEAN, max_iters=5, seed=3, mask=bits)
        assert isinstance(cfg.mask, MaskMatrix)
        ref = run(v, (None, None), SolverConfig(k=2, measure=Measure.EUCLIDEAN, max_iters=5,
                                                seed=3, mask=MaskMatrix(bits)))
        assert run(v, (None, None), cfg).objective_trace == ref.objective_trace
        with pytest.raises(ShapeMismatchError):
            SolverConfig(k=2, measure=Measure.EUCLIDEAN, mask=0.5 * bits)

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            SolverConfig(k=0, measure=Measure.EUCLIDEAN)
        with pytest.raises(InvalidConfigError):
            SolverConfig(k=2, measure=Measure.EUCLIDEAN, lambda_w=-1.0)
        with pytest.raises(InvalidConfigError):
            SolverConfig(k=2, measure=Measure.EUCLIDEAN, max_iters=0)
        # a measure's value is not a measure, counts and the seed are integers,
        # and the seed, coefficients and rel_tol are finite and non-negative
        for bad in ({"measure": "euc"}, {"measure": None}, {"k": 2.5}, {"k": True},
                    {"max_iters": 3.0}, {"max_iters": False}, {"seed": -1}, {"seed": 1.0},
                    {"lambda_w": np.nan}, {"lambda_h": np.inf}, {"rel_tol": np.nan},
                    {"rel_tol": np.inf}):
            with pytest.raises(InvalidConfigError):
                SolverConfig(**{"k": 2, "measure": Measure.EUCLIDEAN, **bad})
        cfg = SolverConfig(k=np.int64(2), measure=Measure.DIVERGENCE, max_iters=np.int32(3))
        assert run(np.ones((3, 2)), None, cfg).iterations <= 3

    def test_adapt_lambda_follows_measure(self):
        assert not SolverConfig(k=2, measure=Measure.EUCLIDEAN).adapt_lambda
        assert SolverConfig(k=2, measure=Measure.DIVERGENCE).adapt_lambda


class TestMaskedRun:
    def test_all_ones_mask_equivalent(self):
        rng = np.random.default_rng(18)
        v = DenseMatrix(rng.uniform(0, 1, (8, 6)))
        cfg0 = SolverConfig(k=3, measure=Measure.EUCLIDEAN, max_iters=15, rel_tol=0.0, seed=7)
        cfg1 = SolverConfig(k=3, measure=Measure.EUCLIDEAN, max_iters=15, rel_tol=0.0, seed=7,
                            mask=MaskMatrix(np.ones((8, 6))))
        rep0 = run(v, (None, None), cfg0)
        rep1 = run(v, (None, None), cfg1)
        assert np.allclose(rep0.w.a, rep1.w.a, rtol=1e-11, atol=1e-13)
        assert np.allclose(rep0.h.a, rep1.h.a, rtol=1e-11, atol=1e-13)

    def test_unobserved_entries_inert(self):
        rng = np.random.default_rng(19)
        v = rng.uniform(0.2, 1, (7, 6))
        bits = (rng.uniform(0, 1, (7, 6)) < 0.7).astype(float)
        bits[bits.sum(axis=1) == 0, 0] = 1.0
        mask = MaskMatrix(bits)
        v2 = v + (1 - bits) * 3.0
        for measure in Measure:
            cfg = SolverConfig(k=3, measure=measure, max_iters=25, rel_tol=0.0, seed=8, mask=mask)
            rep1 = run(DenseMatrix(v), (None, None), cfg)
            cfg2 = SolverConfig(k=3, measure=measure, max_iters=25, rel_tol=0.0, seed=8, mask=mask)
            rep2 = run(DenseMatrix(v2), (None, None), cfg2)
            assert np.allclose(rep1.w.a, rep2.w.a, rtol=1e-12)
            assert rep1.objective_trace == pytest.approx(rep2.objective_trace, rel=1e-12)

    @pytest.mark.parametrize("measure", list(Measure))
    def test_masked_objective_monotone_200_iters(self, measure):
        rng = np.random.default_rng(20)
        v = rng.uniform(0.1, 1, (6, 6))
        while True:
            bits = (rng.uniform(0, 1, (6, 6)) < 0.5).astype(float)
            if bits.sum(axis=0).min() > 0 and bits.sum(axis=1).min() > 0:
                break
        cfg = SolverConfig(k=2, measure=measure, max_iters=200, rel_tol=0.0, seed=9,
                           mask=MaskMatrix(bits))
        rep = run(DenseMatrix(v), (None, None), cfg)
        tr = rep.objective_trace
        assert all(b <= a * (1 + 1e-10) + 1e-12 for a, b in zip(tr, tr[1:]))


class TestRunProperties:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 8), m=st.integers(3, 8), k=st.integers(1, 3),
           observed=st.floats(0.3, 1.0), n_w=st.integers(0, 4), n_h=st.integers(0, 4),
           lam_w=st.floats(0.0, 2.0), lam_h=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_factors_and_accepted_trace(self, n, m, k, observed, n_w, n_h, lam_w, lam_h, seed):
        """Finite non-negative factors in both measures; divergence never accepts an increase.

        The Euclidean solver has no rollback, and its trace can rise once the
        penalty is on, so only the divergence trace is held to descent here;
        the Euclidean one is held to it at lambda = 0 below.
        """
        rng = np.random.default_rng(seed)
        v = rng.uniform(0, 1, (n, m))
        bits = rng.random((n, m)) < observed
        # coverage: every row and every column keeps an observed cell
        bits[np.arange(n), rng.integers(0, m, n)] = True
        bits[rng.integers(0, n, m), np.arange(m)] = True
        set_w = ConstraintSet(Target.W_ROWS, [tuple(rng.choice(n, 3, replace=False) + 1)
                                              for _ in range(n_w)])
        set_h = ConstraintSet(Target.H_COLS, [tuple(rng.choice(m, 3, replace=False) + 1)
                                              for _ in range(n_h)])
        for measure in Measure:
            cfg = SolverConfig(k=k, measure=measure, lambda_w=lam_w, lambda_h=lam_h, max_iters=30,
                               rel_tol=0.0, seed=seed, mask=MaskMatrix(bits.astype(float)))
            rep = run(v, (set_w, set_h), cfg)
            for f in (rep.w.a, rep.h.a):
                assert np.all(np.isfinite(f)) and np.all(f >= 0.0)
            if measure is Measure.DIVERGENCE:
                slack = solver.ACCEPT_REL_SLACK
                tr = rep.objective_trace
                assert all(b <= a * (1 + slack) + slack for a, b in zip(tr, tr[1:]))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 9), m=st.integers(1, 9), k=st.integers(1, 4), masked=st.booleans(),
           observed=st.floats(0.2, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_lambda_zero_euclidean_trace_never_rises(self, n, m, k, masked, observed, seed):
        """At lambda = 0 the Euclidean trace is non-increasing, masked or not, to the
        divergence accept test's slack; with a penalty on it may rise (no rollback)."""
        rng = np.random.default_rng(seed)
        v = rng.uniform(0, 1, (n, m))
        mask = None
        if masked:
            bits = rng.random((n, m)) < observed
            bits[np.arange(n), rng.integers(0, m, n)] = True
            bits[rng.integers(0, n, m), np.arange(m)] = True
            mask = MaskMatrix(bits.astype(float))
        cfg = SolverConfig(k=k, measure=Measure.EUCLIDEAN, max_iters=60, rel_tol=0.0, seed=seed,
                           mask=mask)
        tr = run(v, (None, None), cfg).objective_trace
        slack = solver.ACCEPT_REL_SLACK
        assert all(b <= a * (1 + slack) + slack for a, b in zip(tr, tr[1:]))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 9), m=st.integers(1, 9), k=st.integers(1, 4), masked=st.booleans(),
           observed=st.floats(0.2, 1.0), iters=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_lambda_zero_is_lee_seung(self, n, m, k, masked, observed, iters, seed):
        """At lambda = 0 both measures are classic multiplicative NMF, masked or not,
        from the same starting draw, and no divergence iteration is rolled back."""
        rng = np.random.default_rng(seed)
        v = rng.uniform(0, 1, (n, m))
        bits = None
        if masked:
            b = rng.random((n, m)) < observed
            b[np.arange(n), rng.integers(0, m, n)] = True
            b[rng.integers(0, n, m), np.arange(m)] = True
            bits = b.astype(float)
        for measure in Measure:
            cfg = SolverConfig(k=k, measure=measure, max_iters=iters, rel_tol=0.0, seed=seed,
                               mask=None if bits is None else MaskMatrix(bits))
            rep = run(v, (None, None), cfg)
            init = np.random.default_rng(seed)
            w = init.uniform(solver.INIT_LOW, solver.INIT_HIGH, (n, k))
            h = init.uniform(solver.INIT_LOW, solver.INIT_HIGH, (k, m))
            w, h = lee_seung(v, w, h, measure, iters, bits)
            assert rep.rollback_iters == [] and rep.iterations == iters
            for got, want in ((rep.w.a, w), (rep.h.a, h)):
                assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) <= 1e-10
