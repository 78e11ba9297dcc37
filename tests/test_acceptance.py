"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -v -s`` or in the
captured output) and enforces its own runtime budget.  The two experiment
reproductions drive the CLI itself so the full pipeline is covered.
"""

import csv
import itertools
import math
import os
import time

import numpy as np
import pytest

from rprnmf import (
    ConstraintSet,
    ConstraintTriple,
    DenseMatrix,
    MaskMatrix,
    Measure,
    SolverConfig,
    Target,
    constraints_to_label_matrix,
    constraints_to_weight_matrix,
    div_penalty_value,
    euc_penalty_value,
    f1_score,
    nmi,
    rmse,
    run,
)
from rprnmf.cli import main as cli_main
from rprnmf.metrics import clustering_accuracy

from oracles import div_penalty_grad, euc_penalty_grad, lee_seung, symmetric_divergence

THREADS = str(min(2, os.cpu_count() or 1))


def _announce(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(l for l in fh if not l.startswith("#")))


# ------------------------------------------------------------- criterion 1


def test_criterion_1_lambda_zero_oracle_equivalence():
    t0 = time.perf_counter()
    iters = 100
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        v = rng.uniform(0, 1, (20, 15))
        for measure in Measure:
            cfg = SolverConfig(k=5, measure=measure, max_iters=iters, rel_tol=0.0, seed=seed)
            rep = run(DenseMatrix(v), (None, None), cfg)
            rng2 = np.random.default_rng(seed)
            w = rng2.uniform(0.01, 1.0, (20, 5))
            h = rng2.uniform(0.01, 1.0, (5, 15))
            w, h = lee_seung(v, w, h, measure, iters)
            assert np.max(np.abs(rep.w.a - w)) <= 1e-12
            assert np.max(np.abs(rep.h.a - h)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(1, f"both solvers reproduce the classic oracle over {iters} iterations "
                 f"x 10 seeds within 1e-12 ({elapsed:.1f}s)")


# ------------------------------------------------------------- criterion 2


def _fd(value_fn, factor, a, b, h=1e-6):
    up = factor.copy()
    up[a, b] += h
    down = factor.copy()
    down[a, b] -= h
    return (value_fn(up) - value_fn(down)) / (2 * h)


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    n, k = 8, 4

    euc_checked = 0
    while euc_checked < 100:
        f = rng.uniform(0.1, 2, (n, k))
        cset = ConstraintSet(Target.W_ROWS, [tuple(rng.choice(n, 3, replace=False) + 1)
                                             for _ in range(3)])
        touched = sorted({i - 1 for t in cset.triples for i in (t.q, t.r, t.s)})
        a = int(rng.choice(touched))
        b = int(rng.integers(k))
        pos, neg = euc_penalty_grad(DenseMatrix(f), cset, a, b)
        fd = _fd(lambda m: euc_penalty_value(DenseMatrix(m), cset), f, a, b)
        if abs(fd) < 1e-8:
            continue
        assert abs(2 * (pos - neg) - fd) / abs(fd) <= 1e-5
        euc_checked += 1

    div_checked = 0
    while div_checked < 100:
        f = rng.uniform(0.1, 2, (n, k))
        cset = ConstraintSet(Target.W_ROWS, [tuple(rng.choice(n, 3, replace=False) + 1)
                                             for _ in range(2)])
        margins = [symmetric_divergence(f[t.q - 1], f[t.r - 1])
                   - symmetric_divergence(f[t.q - 1], f[t.s - 1]) for t in cset.triples]
        if not any(m > 1e-3 for m in margins) or any(0 < m <= 1e-3 for m in margins):
            continue
        touched = sorted({i - 1 for t in cset.triples for i in (t.q, t.r, t.s)})
        a = int(rng.choice(touched))
        b = int(rng.integers(k))
        p = div_penalty_grad(DenseMatrix(f), cset, a, b)
        fd = _fd(lambda m: div_penalty_value(DenseMatrix(m), cset), f, a, b)
        if abs(fd) < 1e-7:
            continue
        assert abs(0.5 * p - fd) / abs(fd) <= 1e-4
        div_checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _announce(2, f"100 Euclidean cases at rel 1e-5 and 100 hinge-active divergence cases "
                 f"at rel 1e-4 match finite differences ({elapsed:.1f}s)")


# ------------------------------------------------------------- criterion 3


def _random_triples(rng, dim, count):
    return [tuple(rng.choice(dim, 3, replace=False) + 1) for _ in range(count)]


def test_criterion_3_monotonicity():
    t0 = time.perf_counter()
    rollback_seen = 0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        v = DenseMatrix(rng.uniform(0, 1, (50, 40)))
        sw = ConstraintSet(Target.W_ROWS, _random_triples(rng, 50, 10))
        sh = ConstraintSet(Target.H_COLS, _random_triples(rng, 40, 10))
        cfg = SolverConfig(k=10, measure=Measure.EUCLIDEAN, lambda_w=1.0, lambda_h=1.0,
                           max_iters=60, rel_tol=0.0, seed=seed)
        rep = run(v, (sw, sh), cfg)
        tr = rep.objective_trace
        assert all(b <= a * (1 + 1e-8) for a, b in zip(tr, tr[1:]))

        cfg2 = SolverConfig(k=10, measure=Measure.DIVERGENCE, lambda_w=1.0, lambda_h=1.0,
                            max_iters=60, rel_tol=0.0, seed=seed)
        rep2 = run(v, (sw, sh), cfg2)
        tr2 = rep2.objective_trace
        assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(tr2, tr2[1:]))
        rollback_seen += len(rep2.rollback_iters)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(3, f"Euclidean trace non-increasing (slack 1e-8) and divergence accepted trace "
                 f"non-increasing with {rollback_seen} rollbacks logged over 20 instances "
                 f"({elapsed:.1f}s)")


# ------------------------------------------------------------- criterion 4


@pytest.mark.slow
def test_criterion_4_synthetic_experiment_1(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "syn1.csv"
    code = cli_main(["syn1", "--out", str(out), "--groups", "10", "--reps", "10",
                     "--seed", "41", "--threads", THREADS])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 10 * 10 * 2 * 2

    def mean_of(algorithm, measure, field):
        vals = [float(r[field]) for r in rows
                if r["algorithm"] == algorithm and r["measure"] == measure]
        assert len(vals) == 100
        return float(np.mean(vals))

    csr_div_rpr = mean_of("rprnmf", "div", "csr")
    csr_euc_rpr = mean_of("rprnmf", "euc", "csr")
    csr_euc_nmf = mean_of("nmf", "euc", "csr")
    msl_rpr = mean_of("rprnmf", "euc", "msl_or_md")
    msl_nmf = mean_of("nmf", "euc", "msl_or_md")

    assert csr_div_rpr >= 0.95
    assert csr_euc_rpr >= 0.80
    assert 0.70 <= csr_euc_nmf <= 0.90
    assert msl_rpr <= 2.0 * msl_nmf

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _announce(4, f"CSR means rpr-div={csr_div_rpr:.3f} rpr-euc={csr_euc_rpr:.3f} "
                 f"nmf-euc={csr_euc_nmf:.3f}; MSL ratio={msl_rpr / msl_nmf:.2f} "
                 f"({elapsed / 60:.1f} min)")


# ------------------------------------------------------------- criterion 5


@pytest.mark.slow
def test_criterion_5_parameter_insensitivity(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "grid.csv"
    code = cli_main(["param-sweep", "--out", str(out), "--reps", "10",
                     "--max-iters", "1000", "--seed", "51", "--threads", THREADS])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 15 * 2 * 10

    spreads = {}
    for measure in ("euc", "div"):
        by_lambda = {}
        for r in rows:
            if r["measure"] == measure:
                by_lambda.setdefault(float(r["lambda"]), []).append(float(r["csr"]))
        means = {lam: np.mean(v) for lam, v in by_lambda.items()}
        assert len(means) == 15
        spreads[measure] = max(means.values()) - min(means.values())
        assert spreads[measure] <= 0.05

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _announce(5, f"CSR spread across the coefficient grid: euc={spreads['euc']:.3f} "
                 f"div={spreads['div']:.3f} (both <= 0.05) ({elapsed / 60:.1f} min)")


# ------------------------------------------------------------- criterion 6


def test_criterion_6_converter_hand_traces():
    t0 = time.perf_counter()

    # weight conversion: single triple
    wm = constraints_to_weight_matrix(3, ConstraintSet(Target.H_COLS, [(1, 2, 3)]), 0.0, 1.0)
    a = wm.s.a
    assert a[0, 2] == 0.0 and a[0, 1] == 1.0 and np.all(np.diag(a) == 1.0)
    # weight conversion: independent constraints, sinks take mins, sources maxs
    wm = constraints_to_weight_matrix(6, ConstraintSet(Target.H_COLS, [(1, 2, 3), (4, 5, 6)]),
                                      0.25, 0.75)
    a = wm.s.a
    assert a[0, 2] == 0.25 and a[3, 5] == 0.25 and a[0, 1] == 0.75 and a[3, 4] == 0.75
    # weight conversion: two-chain, depths 1..3 interpolate with t = (maxs-mins)/2
    wm = constraints_to_weight_matrix(4, ConstraintSet(Target.H_COLS, [(2, 1, 3), (3, 2, 4)]),
                                      0.0, 1.0)
    a = wm.s.a
    assert wm.max_depth == 3 and wm.step == pytest.approx(0.5)
    assert a[2, 3] == 0.0 and a[1, 2] == pytest.approx(0.5) and a[0, 1] == pytest.approx(1.0)

    # label conversion: two disjoint classes, 3 and 6 unlabelled
    lm = constraints_to_label_matrix(6, ConstraintSet(Target.H_COLS, [(1, 2, 3), (4, 5, 6)]))
    assert lm.n_classes == 2
    assert lm.assignments[1] == lm.assignments[2] != lm.assignments[4] == lm.assignments[5]
    assert 3 not in lm.assignments and 6 not in lm.assignments
    # label conversion: chained pairs merge into one class
    lm = constraints_to_label_matrix(9, ConstraintSet(Target.H_COLS, [(1, 2, 9), (2, 3, 9)]))
    assert lm.n_classes == 1
    assert lm.assignments[1] == lm.assignments[2] == lm.assignments[3]
    # label conversion: empty set gives an empty label matrix
    lm = constraints_to_label_matrix(5, ConstraintSet(Target.H_COLS, []))
    assert lm.n_classes == 0 and lm.assignments == {}

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(6, f"all six converter hand-traces reproduce ({elapsed:.2f}s)")


# ------------------------------------------------------------- criterion 7


def _bruteforce_acc(pred, truth):
    pl = sorted(set(pred.tolist()))
    tl = sorted(set(truth.tolist()))
    size = max(len(pl), len(tl))
    pl = pl + [f"p{i}" for i in range(size - len(pl))]
    tl = tl + [f"t{i}" for i in range(size - len(tl))]
    best = 0
    for perm in itertools.permutations(tl):
        mapping = dict(zip(pl, perm))
        best = max(best, sum(mapping[p] == t for p, t in zip(pred.tolist(), truth.tolist())))
    return best / len(pred)


def test_criterion_7_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    for _ in range(50):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(6, 14))
        pred = rng.integers(1, k + 1, n)
        truth = rng.integers(1, k + 1, n)
        assert clustering_accuracy(pred, truth) == pytest.approx(
            _bruteforce_acc(pred, truth), abs=1e-12)

    for _ in range(50):
        v = rng.uniform(0, 5, (5, 6))
        wh = rng.uniform(0, 5, (5, 6))
        bits = (rng.uniform(0, 1, (5, 6)) < 0.5).astype(float)
        bits[0, 0] = 1.0
        total = count = 0.0
        for i in range(5):
            for j in range(6):
                if bits[i, j]:
                    total += (v[i, j] - wh[i, j]) ** 2
                    count += 1
        assert rmse(v, wh, MaskMatrix(bits)) == pytest.approx(
            math.sqrt(total / count), abs=1e-12, rel=1e-12)

    for _ in range(50):
        users, items = 4, 7
        v = rng.uniform(1, 5, (users, items))
        pred_m = rng.uniform(1, 5, (users, items))
        obs = np.zeros((users, items))
        obs[:, :4] = 1.0
        held = 1.0 - obs
        got = f1_score(v, pred_m, MaskMatrix(obs), MaskMatrix(held))
        tp = fp = fn = 0
        for i in range(users):
            thr = v[i, :4].mean()
            for j in range(4, items):
                t_pos = v[i, j] > thr
                p_pos = pred_m[i, j] > thr
                tp += t_pos and p_pos
                fp += (not t_pos) and p_pos
                fn += t_pos and (not p_pos)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        want = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert got.f1 == pytest.approx(want, abs=1e-12)

    for _ in range(50):
        n = int(rng.integers(6, 12))
        pred = rng.integers(1, 4, n)
        truth = rng.integers(1, 4, n)
        mi = 0.0
        for a in set(pred.tolist()):
            for b in set(truth.tolist()):
                pab = np.sum((pred == a) & (truth == b)) / n
                if pab > 0:
                    mi += pab * math.log(pab / ((np.sum(pred == a) / n) * (np.sum(truth == b) / n)))
        hp = -sum((np.sum(pred == a) / n) * math.log(np.sum(pred == a) / n)
                  for a in set(pred.tolist()))
        ht = -sum((np.sum(truth == b) / n) * math.log(np.sum(truth == b) / n)
                  for b in set(truth.tolist()))
        want = 1.0 if max(hp, ht) == 0 else max(0.0, mi) / max(hp, ht)
        assert nmi(pred, truth) == pytest.approx(want, abs=1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _announce(7, f"ACC equals factorial brute force and RMSE/F1/NMI match scalar oracles "
                 f"on 50 cases each ({elapsed:.1f}s)")


# ------------------------------------------------------------- criterion 8


def test_criterion_8_masked_construct_and_recover():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(8000 + seed)
        w0 = rng.uniform(0, 0.4, (30, 5))
        h0 = rng.uniform(0, 0.4, (5, 30))
        v = w0 @ h0
        while True:
            bits = np.zeros(900)
            bits[rng.choice(900, 450, replace=False)] = 1.0
            bits = bits.reshape(30, 30)
            if bits.sum(axis=0).min() > 0 and bits.sum(axis=1).min() > 0:
                break
        training = MaskMatrix(bits)
        heldout = MaskMatrix(1.0 - bits)
        cfg = SolverConfig(k=5, measure=Measure.EUCLIDEAN, max_iters=1000, rel_tol=0.0,
                           seed=seed, mask=training)
        rep = run(DenseMatrix(v), (None, None), cfg)
        err = rmse(v, rep.w.a @ rep.h.a, heldout)
        assert err <= 0.05
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(8, f"held-out RMSE <= 0.05 on all 10 masked rank-5 instances "
                 f"(worst {worst:.4f}, {elapsed:.1f}s)")


# -------------------------------------------- conditional Movielens check


ML1M_PATH = os.environ.get("RPRNMF_ML1M", "")


@pytest.mark.skipif(not (ML1M_PATH and os.path.exists(ML1M_PATH)),
                    reason="Movielens-1M ratings file not present (set RPRNMF_ML1M)")
def test_movielens_shape_and_density():
    from rprnmf.io import read_ratings, ratings_to_matrix

    table = read_ratings(ML1M_PATH, "ml1m")
    assert (table.n_users, table.n_items) == (6040, 3706)
    _, mask = ratings_to_matrix(table)
    density = mask.count / (6040 * 3706)
    assert abs(density - 0.0447) <= 0.0005
    _announce("ml1m", f"shape 6040x3706, density {density:.4f}")
