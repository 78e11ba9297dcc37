import csv
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rprnmf import (DenseMatrix, Measure, SolverConfig, Target, csr, generate_chain_plan, md,
                    msl, read_constraints, run)
from rprnmf.cli import _chain_plan, main
from rprnmf.io import read_dense_csv, write_dense_csv


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    return list(csv.DictReader(lines))


def trailing_comment(path):
    with open(path) as fh:
        return [l for l in fh if l.startswith("#")]


@pytest.fixture
def toy_matrix(tmp_path):
    rng = np.random.default_rng(0)
    v = rng.uniform(0.1, 1.0, (12, 10))
    path = tmp_path / "v.csv"
    write_dense_csv(path, DenseMatrix(v))
    return path


@pytest.fixture
def toy_constraints(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("H 1 2 3\nH 4 5 6\nW 1 2 3\n")
    return path


# every command's file flags, a readable 3 x 3 input for each flag (the
# constraints fit a 3 x 3 matrix), a malformed line for each, and each
# command's other arguments bar --out
FILE_FLAGS = [("factorize", "--matrix"), ("factorize", "--mask"), ("factorize", "--constraints"),
              ("crossvalidate", "--ratings"), ("crossvalidate", "--constraints"),
              ("convert", "--constraints"), ("extract-constraints", "--labels")]
GOOD_FILES = {"--matrix": b"1,2,3\n4,5,6\n7,8,9\n", "--mask": b"1,1,1\n1,0,1\n1,1,1\n",
              "--constraints": b"H 1 2 3\nW 3 2 1\n",
              "--ratings": b"".join(b"%d::%d::%d\n" % (u, i, u + i) for u in (1, 2, 3)
                                    for i in (1, 2, 3)),
              "--labels": b"1\n1\n2\n2\n"}
MALFORMED = {"--matrix": b"1,2,3\n4,5\n", "--mask": b"1,x,1\n", "--constraints": b"H 1 2\n",
             "--ratings": b"1::1\n", "--labels": b"1\nx\n"}
OTHER_ARGV = {"factorize": ["--k", 1, "--max-iters", 1],
              "crossvalidate": ["--folds", 2, "--k", 1, "--max-iters", 1],
              "convert": ["--to", "weights"], "extract-constraints": []}


def _file_argv(tmp_path, command, bad_flag=None):
    """``command``'s argv with each file flag's good file, ``bad_flag``'s path
    left to the caller to fill, and ``--out``; returns (argv, paths by flag)."""
    paths = {}
    argv = [command]
    for cmd, flag in FILE_FLAGS:
        if cmd == command:
            paths[flag] = tmp_path / ("bad" if flag == bad_flag else flag[2:])
            if flag != bad_flag:
                paths[flag].write_bytes(GOOD_FILES[flag])
            argv += [flag, paths[flag]]
    return argv + OTHER_ARGV[command] + ["--out", tmp_path / "out"], paths


class TestChainPlan:
    def test_exact_multiples(self):
        assert _chain_plan(10) == [5, 5]

    def test_remainder(self):
        assert _chain_plan(13) == [5, 5, 3]

    def test_small(self):
        assert _chain_plan(4) == [4]


class TestFactorize:
    def test_writes_report_with_metrics(self, tmp_path, toy_matrix, toy_constraints, capsys):
        out = tmp_path / "r.json"
        code = run_cli("factorize", "--matrix", toy_matrix, "--constraints", toy_constraints,
                       "--k", 3, "--measure", "euc", "--lambda-h", 1, "--max-iters", 20,
                       "--seed", 1, "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "rprnmf-report/1"
        assert doc["msl"] is not None
        assert doc["csr"] is not None
        lines = capsys.readouterr().out
        assert "msl=" in lines and "csr=" in lines

    def test_missing_constraints_file_exit_2(self, tmp_path, toy_matrix, capsys):
        code = run_cli("factorize", "--matrix", toy_matrix, "--constraints",
                       tmp_path / "absent.txt", "--k", 2)
        assert code == 2
        assert "absent.txt" in capsys.readouterr().err

    def test_deterministic_reports(self, tmp_path, toy_matrix, toy_constraints):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert run_cli("factorize", "--matrix", toy_matrix, "--constraints", toy_constraints,
                           "--k", 3, "--measure", "div", "--lambda-h", 0.5, "--max-iters", 15,
                           "--seed", 9, "--out", out) == 0
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        d1.pop("wall_time_s"), d2.pop("wall_time_s")
        assert d1 == d2

    def test_malformed_matrix_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        assert run_cli("factorize", "--matrix", bad, "--k", 2) == 2

    def test_treat_zero_as_missing(self, tmp_path):
        rng = np.random.default_rng(2)
        v = rng.uniform(0.5, 1.0, (8, 6))
        v[rng.uniform(0, 1, (8, 6)) < 0.3] = 0.0
        v[:, 0] = 0.9  # keep every row and column covered
        v[0, :] = 0.9
        path = tmp_path / "v.csv"
        write_dense_csv(path, DenseMatrix(v))
        out = tmp_path / "r.json"
        code = run_cli("factorize", "--matrix", path, "--treat-zero-as-missing",
                       "--k", 2, "--max-iters", 30, "--seed", 3, "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["masked"] is True

    def test_explicit_mask_file(self, tmp_path, toy_matrix):
        bits = np.ones((12, 10))
        bits[3, 4] = 0.0
        mpath = tmp_path / "mask.csv"
        write_dense_csv(mpath, DenseMatrix(bits))
        out = tmp_path / "r.json"
        code = run_cli("factorize", "--matrix", toy_matrix, "--mask", mpath,
                       "--k", 2, "--max-iters", 10, "--seed", 0, "--out", out)
        assert code == 0
        assert json.loads(out.read_text())["config"]["masked"] is True


class TestSyn1:
    def test_row_count_and_metadata(self, tmp_path):
        out = tmp_path / "syn1.csv"
        code = run_cli("syn1", "--out", out, "--groups", 2, "--reps", 2, "--n", 30, "--m", 30,
                       "--k", 4, "--triples-per-group", 2, "--max-iters", 10, "--seed", 3)
        assert code == 0
        rows = read_rows(out)
        # groups 1..2 x 2 reps x 2 measures x 2 algorithms
        assert len(rows) == 2 * 2 * 2 * 2
        assert {r["algorithm"] for r in rows} == {"nmf", "rprnmf"}
        assert {r["measure"] for r in rows} == {"euc", "div"}
        comments = trailing_comment(out)
        assert len(comments) == 1 and "experiment=" in comments[0] and "rprnmf/" in comments[0]

    def test_rerun_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_cli("syn1", "--out", out, "--groups", 1, "--reps", 1, "--n", 24, "--m", 24,
                    "--k", 3, "--triples-per-group", 2, "--max-iters", 8, "--seed", 5)
        rows1, rows2 = read_rows(out1), read_rows(out2)
        for r1, r2 in zip(rows1, rows2):
            r1.pop("wall_time_s"), r2.pop("wall_time_s")
            assert r1 == r2
        # the digest ignores --out
        assert trailing_comment(out1) == trailing_comment(out2)

    def test_constraint_counts_scale_with_groups(self, tmp_path):
        out = tmp_path / "syn1.csv"
        run_cli("syn1", "--out", out, "--groups", 3, "--reps", 1, "--n", 40, "--m", 40,
                "--k", 5, "--triples-per-group", 3, "--max-iters", 5, "--seed", 1)
        rows = read_rows(out)
        got = sorted({int(r["n_constraints"]) for r in rows})
        assert got == [3, 6, 9]

    def test_each_syn_problem_drawn_once(self, tmp_path, monkeypatch):
        # one data draw and chain plan per (group, rep, measure), solved for
        # its nmf row and then its rprnmf row
        plans = []

        def counted(*args):
            plans.append(args[4])  # the chain seed
            return generate_chain_plan(*args)

        monkeypatch.setattr("rprnmf.cli.generate_chain_plan", counted)
        out = tmp_path / "syn1.csv"
        assert run_cli("syn1", "--out", out, "--groups", 2, "--reps", 2, "--n", 20, "--m", 20,
                       "--k", 3, "--triples-per-group", 2, "--max-iters", 3) == 0
        rows = read_rows(out)
        assert plans == [[0, g, rep, 2] for g in (1, 2) for rep in (0, 1) for _ in range(2)]
        keys = [(r["n_constraints"], r["repetition"], r["measure"], r["algorithm"]) for r in rows]
        assert keys == [(str(2 * g), str(rep), meas, alg) for g in (1, 2) for rep in (0, 1)
                        for meas in ("euc", "div") for alg in ("nmf", "rprnmf")]


class TestSyn2:
    def test_row_count_and_columns(self, tmp_path):
        out = tmp_path / "syn2.csv"
        code = run_cli("syn2", "--out", out, "--sizes", "20,30", "--reps", 2,
                       "--max-iters", 8, "--seed", 2)
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 2 * 2 * 2 * 2
        assert {r["n"] for r in rows} == {"20", "30"}
        for r in rows:
            if r["n"] == "20":
                assert int(r["n_constraints"]) == 4  # k = n/5


class TestParamSweep:
    def test_grid_row_count(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run_cli("param-sweep", "--out", out, "--lambdas", "0.5,2.0", "--reps", 2,
                       "--n", 30, "--m", 30, "--k", 4, "--n-constraints", 3,
                       "--max-iters", 8, "--seed", 4)
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 2 * 2 * 2  # lambdas x measures x reps
        assert {r["lambda"] for r in rows} == {"0.5", "2"}


def derive_seed(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class TestSeedWiring:
    """One row of each synthetic experiment, recomputed from the seeds that feed each draw.

    The data W0/H0, the chains on each side and the solver start each come
    from their own seed; a row must be the one solve those seeds define.
    """

    @pytest.mark.parametrize("argv, pick, solve", [
        # syn1 group 2, rep 1: chains on H only
        (("syn1", "--groups", 2, "--reps", 2, "--n", 20, "--m", 20, "--k", 3,
          "--triples-per-group", 2, "--measures", "div", "--max-iters", 10, "--seed", 5),
         {"n_constraints": "4", "repetition": "1", "algorithm": "rprnmf"},
         dict(data_seed=[5, 2, 1, 1], n=20, m=20, k=3, measure=Measure.DIVERGENCE,
              chains_w=([], None), chains_h=([3, 3], [5, 2, 1, 2]), lam_w=0.0, lam_h=1.0,
              seed=derive_seed(5, 2, 1, 3))),
        # syn2 size 25, rep 1: k = 5 triples in one chain of 6 distances
        (("syn2", "--sizes", "20,25", "--reps", 2, "--measures", "euc", "--max-iters", 10,
          "--seed", 6),
         {"n": "25", "repetition": "1", "algorithm": "rprnmf"},
         dict(data_seed=[6, 25, 1, 1], n=25, m=25, k=5, measure=Measure.EUCLIDEAN,
              chains_w=([], None), chains_h=([6], [6, 25, 1, 2]), lam_w=0.0, lam_h=1.0,
              seed=derive_seed(6, 25, 1, 3))),
        # param-sweep grid index 1, rep 1: n/10 single-triple chains on each side
        (("param-sweep", "--lambdas", "0.5,2.0", "--reps", 2, "--n", 20, "--m", 20, "--k", 3,
          "--measures", "div", "--max-iters", 10, "--seed", 7),
         {"lambda": "2", "repetition": "1"},
         dict(data_seed=[7, 1, 1, 1], n=20, m=20, k=3, measure=Measure.DIVERGENCE,
              chains_w=([2, 2], [7, 1, 2]), chains_h=([2, 2], [7, 1, 3]), lam_w=2.0, lam_h=2.0,
              seed=derive_seed(7, 1, 4))),
    ])
    def test_row_is_the_seeded_solve(self, tmp_path, argv, pick, solve):
        out = tmp_path / "rows.csv"
        assert run_cli(argv[0], "--out", out, *argv[1:]) == 0
        [row] = [r for r in read_rows(out) if pick.items() <= r.items()]
        rng = np.random.default_rng(solve["data_seed"])
        w0 = rng.uniform(0.0, 1.0, size=(solve["n"], solve["k"]))
        h0 = rng.uniform(0.0, 1.0, size=(solve["k"], solve["m"]))
        v = DenseMatrix(w0 @ h0)
        measure = solve["measure"]
        sets = []
        for factor, target, (lens, seed) in ((w0, Target.W_ROWS, solve["chains_w"]),
                                             (h0, Target.H_COLS, solve["chains_h"])):
            sets.append(generate_chain_plan(DenseMatrix(factor), target, lens, measure, seed)
                        if lens else None)
        config = SolverConfig(k=solve["k"], measure=measure, lambda_w=solve["lam_w"],
                              lambda_h=solve["lam_h"], max_iters=10, rel_tol=1e-9,
                              seed=solve["seed"])
        report = run(v, tuple(sets), config)
        err = (msl if measure is Measure.EUCLIDEAN else md)(v, report.w, report.h)
        assert float(row["msl_or_md"]) == err
        assert float(row["csr"]) == report.csr


class TestConvert:
    def test_weights_single_triple_trace(self, tmp_path, capsys):
        cfile = tmp_path / "c.txt"
        cfile.write_text("H 1 2 3\n")
        out = tmp_path / "w.csv"
        assert run_cli("convert", "--constraints", cfile, "--to", "weights",
                       "--m", 3, "--mins", 0, "--maxs", 1, "--out", out) == 0
        a = read_dense_csv(out).a
        assert a[0, 1] == 1.0 and a[0, 2] == 0.0
        assert np.array_equal(a, a.T)
        assert "max_depth=2" in capsys.readouterr().out

    def test_weights_long_chain(self, tmp_path, capsys):
        # 1500 linked triples: deeper than Python's default recursion limit
        cfile = tmp_path / "c.txt"
        cfile.write_text("".join(f"H 1 {k} {k + 1}\n" for k in range(2, 1502)))
        out = tmp_path / "w.csv"
        assert run_cli("convert", "--constraints", cfile, "--to", "weights",
                       "--mins", 0, "--maxs", 1, "--out", out) == 0
        assert "max_depth=1501" in capsys.readouterr().out

    def test_weights_two_chain_trace(self, tmp_path):
        cfile = tmp_path / "c.txt"
        cfile.write_text("H 2 1 3\nH 3 2 4\n")
        out = tmp_path / "w.csv"
        run_cli("convert", "--constraints", cfile, "--to", "weights",
                "--m", 4, "--mins", 0, "--maxs", 1, "--out", out)
        a = read_dense_csv(out).a
        assert a[2, 3] == 0.0
        assert a[1, 2] == 0.5
        assert a[0, 1] == 1.0

    def test_labels_trace(self, tmp_path, capsys):
        cfile = tmp_path / "c.txt"
        cfile.write_text("H 1 2 7\nH 4 5 7\n")
        out = tmp_path / "b.csv"
        assert run_cli("convert", "--constraints", cfile, "--to", "labels",
                       "--m", 7, "--out", out) == 0
        b = read_dense_csv(out).a
        assert b.shape == (2, 7)
        assert b[0, 0] == 1.0 and b[0, 1] == 1.0
        assert b[1, 3] == 1.0 and b[1, 4] == 1.0
        assert "classes=2" in capsys.readouterr().out

    def test_labels_merge_trace(self, tmp_path):
        cfile = tmp_path / "c.txt"
        cfile.write_text("H 1 2 9\nH 2 3 9\n")
        out = tmp_path / "b.csv"
        run_cli("convert", "--constraints", cfile, "--to", "labels", "--m", 9, "--out", out)
        b = read_dense_csv(out).a
        assert b.shape == (1, 9)
        assert b[0, :3].sum() == 3.0

    def test_cyclic_constraints_exit_1(self, tmp_path, capsys):
        cfile = tmp_path / "c.txt"
        cfile.write_text("H 2 1 3\nH 2 3 1\n")
        out = tmp_path / "w.csv"
        code = run_cli("convert", "--constraints", cfile, "--to", "weights", "--m", 3, "--out", out)
        assert code == 1
        assert "cyclic" in capsys.readouterr().err


class TestCrossValidate:
    def _write_ratings(self, tmp_path, n=10, m=8, k=3, seed=0):
        rng = np.random.default_rng(seed)
        w0 = rng.uniform(0.05, 0.5, (n, k))
        h0 = rng.uniform(0.05, 0.5, (k, m))
        v = w0 @ h0
        path = tmp_path / "r.csv"
        with open(path, "w") as fh:
            for i in range(n):
                for j in range(m):
                    fh.write(f"{i + 1},{j + 1},{v[i, j]:.9f}\n")
        return path

    def test_rank3_recovery_rmse(self, tmp_path):
        ratings = self._write_ratings(tmp_path)
        out = tmp_path / "cv.csv"
        code = run_cli("crossvalidate", "--ratings", ratings, "--format", "csv",
                       "--folds", 5, "--k", 3, "--measure", "euc",
                       "--max-iters", 800, "--rel-tol", 0, "--seed", 11, "--out", out)
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 5  # 5 folds x 1 algorithm (no constraints)
        for row in rows:
            assert float(row["rmse"]) <= 0.05

    def test_row_count_with_constraints(self, tmp_path):
        ratings = self._write_ratings(tmp_path, seed=1)
        cfile = tmp_path / "c.txt"
        cfile.write_text("H 1 2 3\nW 1 2 3\n")
        out = tmp_path / "cv.csv"
        code = run_cli("crossvalidate", "--ratings", ratings, "--format", "csv",
                       "--constraints", cfile, "--folds", 3, "--k", 3,
                       "--lambda-w", 0.5, "--lambda-h", 0.5,
                       "--max-iters", 30, "--seed", 2, "--out", out)
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 3 * 2  # folds x {nmf, rprnmf}
        assert {r["algorithm"] for r in rows} == {"nmf", "rprnmf"}

    def test_parallel_matches_sequential(self, tmp_path):
        # the workers receive the fold masks pickled as index arrays
        ratings = self._write_ratings(tmp_path, seed=4)
        cfile = tmp_path / "c.txt"
        cfile.write_text("H 1 2 3\nW 1 2 3\n")
        outs = [tmp_path / "s.csv", tmp_path / "p.csv"]
        for out, threads in zip(outs, (1, 2)):
            assert run_cli("crossvalidate", "--ratings", ratings, "--format", "csv",
                           "--constraints", cfile, "--folds", 3, "--k", 3, "--lambda-w", 0.5,
                           "--lambda-h", 0.5, "--max-iters", 20, "--seed", 3, "--out", out,
                           "--threads", threads) == 0
        assert len(read_rows(outs[0])) == 6
        assert read_rows(outs[0]) == read_rows(outs[1])
        assert trailing_comment(outs[0]) == trailing_comment(outs[1])

    def test_zero_coefficients_solve_each_fold_once(self, tmp_path):
        ratings = self._write_ratings(tmp_path, seed=1)
        cfile = tmp_path / "c.txt"
        cfile.write_text("H 1 2 3\nW 1 2 3\n")
        out = tmp_path / "cv.csv"
        assert run_cli("crossvalidate", "--ratings", ratings, "--format", "csv",
                       "--constraints", cfile, "--folds", 3, "--k", 3, "--max-iters", 10,
                       "--seed", 2, "--out", out) == 0
        rows = read_rows(out)
        assert [r["fold"] for r in rows] == ["0", "1", "2"]
        assert {r["algorithm"] for r in rows} == {"nmf"}
        assert all(r["csr"] != "" for r in rows)


class TestExtractConstraints:
    def _labels(self, tmp_path, labels):
        path = tmp_path / "labels.txt"
        path.write_text("\n".join(str(l) for l in labels) + "\n")
        return path

    def test_intra_mode_full_csr_on_onehot(self, tmp_path):
        labels = [1, 1, 1, 2, 2, 2, 3, 3, 3]
        lfile = self._labels(tmp_path, labels)
        out = tmp_path / "c.txt"
        assert run_cli("extract-constraints", "--labels", lfile, "--per-class", 2,
                       "--seed", 3, "--out", out) == 0
        _, set_h = read_constraints(out)
        assert set_h is not None and len(set_h) >= 3
        onehot = np.zeros((3, len(labels)))
        for j, lab in enumerate(labels):
            onehot[lab - 1, j] = 1.0
        assert csr(None, None, set_h, DenseMatrix(onehot), Measure.EUCLIDEAN) == 1.0
        # every selected image appears in a triple
        picked = {i for t in set_h.triples for i in (t.q, t.r)}
        assert len(picked) >= 6

    def test_triples_have_distinct_indices(self, tmp_path):
        lfile = self._labels(tmp_path, [1, 1, 2, 2, 3, 3, 4, 4])
        out = tmp_path / "c.txt"
        run_cli("extract-constraints", "--labels", lfile, "--per-class", 2,
                "--both-ways", "--seed", 4, "--out", out)
        _, set_h = read_constraints(out)
        for t in set_h.triples:
            assert len({t.q, t.r, t.s}) == 3

    def test_deterministic(self, tmp_path):
        lfile = self._labels(tmp_path, [1, 1, 1, 2, 2, 2])
        out1, out2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
        run_cli("extract-constraints", "--labels", lfile, "--seed", 5, "--out", out1)
        run_cli("extract-constraints", "--labels", lfile, "--seed", 5, "--out", out2)
        assert out1.read_text() == out2.read_text()

    def test_class_too_small_exit_2(self, tmp_path, capsys):
        lfile = self._labels(tmp_path, [1, 1, 2])
        out = tmp_path / "c.txt"
        assert run_cli("extract-constraints", "--labels", lfile, "--per-class", 2,
                       "--seed", 0, "--out", out) == 2
        assert capsys.readouterr().err == (f"error: --labels {lfile}: class 2 has 1 members, "
                                           "fewer than --per-class 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("labels", [[], [4, 4, 4]], ids=["empty", "one-class"])
    def test_fewer_than_two_classes_exit_2(self, tmp_path, capsys, labels):
        lfile = tmp_path / "labels.txt"
        lfile.write_text("".join(f"{lab}\n" for lab in labels))
        out = tmp_path / "c.txt"
        assert run_cli("extract-constraints", "--labels", lfile, "--out", out) == 2
        assert capsys.readouterr().err == (f"error: --labels {lfile}: need at least two classes "
                                           f"to build triples, got {len(set(labels))}\n")
        assert not out.exists()


class TestThreads:
    def test_triples_per_group_out_of_range_exit_2(self, tmp_path, capsys):
        out = tmp_path / "syn1.csv"
        for tpg in (12, -1, 0):
            assert run_cli("syn1", "--out", out, "--groups", 1, "--reps", 1,
                           "--triples-per-group", tpg) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "--triples-per-group" in err and "11" in err
        assert not out.exists()

    def test_parallel_matches_sequential(self, tmp_path):
        seq, par = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["--groups", 1, "--reps", 2, "--n", 20, "--m", 20, "--k", 3,
                "--triples-per-group", 2, "--max-iters", 5, "--seed", 7]
        run_cli("syn1", "--out", seq, *args, "--threads", 1)
        run_cli("syn1", "--out", par, *args, "--threads", 2)
        rows_s, rows_p = read_rows(seq), read_rows(par)
        assert len(rows_s) == len(rows_p) == 8  # 2 reps x 2 measures x {nmf, rprnmf}
        for r1, r2 in zip(rows_s, rows_p):
            r1.pop("wall_time_s"), r2.pop("wall_time_s")
            assert r1 == r2
        # the digest ignores --out and --threads
        assert trailing_comment(seq) == trailing_comment(par)

    def test_worker_error_matches_sequential(self, tmp_path, capsys):
        # ratings near 1e5 overflow the Euclidean penalty's exp; the error
        # raised in a worker process reaches the parent whole
        ratings, cfile = tmp_path / "big.dat", tmp_path / "c.txt"
        ratings.write_text("".join(f"{i}::{j}::{1e5 + 37 * i + 11 * j}\n"
                                   for i in range(1, 9) for j in range(1, 9)))
        cfile.write_text("W 1 2 3\nH 1 2 3\nH 4 5 6\n")
        results = []
        for threads in (1, 2):
            code = run_cli("crossvalidate", "--ratings", ratings, "--constraints", cfile,
                           "--lambda-w", 1, "--lambda-h", 1, "--folds", 2, "--k", 2,
                           "--max-iters", 50, "--threads", threads, "--out", tmp_path / "cv.csv")
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        code, err = results[0]
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("error: exp argument 3.12e+09 exceeds 700; ")


class TestUsageErrors:
    """Flag values no command can use fail with exit code 2 before any task runs."""

    @pytest.fixture(autouse=True)
    def no_tasks(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a task ran")
        monkeypatch.setattr("rprnmf.cli._run_tasks", refuse)
        monkeypatch.setattr("rprnmf.cli.run_solver", refuse)

    def _exit_2_naming(self, capsys, name, *argv):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err
        return err

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "absent" / "x.csv"
        err = self._exit_2_naming(capsys, "--out", "syn1", "--out", out, "--groups", 1, "--reps", 1)
        assert str(out) in err
        assert not out.parent.exists()

    def test_out_is_a_directory(self, tmp_path, capsys):
        self._exit_2_naming(capsys, "--out", "syn2", "--out", tmp_path, "--sizes", 20)

    @pytest.mark.parametrize("argv", [
        ("syn1", "--groups", "0"), ("syn1", "--groups", "1,0"), ("syn1", "--groups", "x"),
        ("syn2", "--sizes", "0"), ("syn2", "--sizes", "20,2"), ("syn2", "--sizes", ""),
        ("param-sweep", "--lambdas", "0.4,-1"), ("param-sweep", "--lambdas", "nan"),
        ("syn1", "--reps", "0"), ("syn2", "--measures", "euc,foo"),
        ("syn1", "--m", "5"), ("param-sweep", "--n-constraints", "60", "--m", "100"),
        ("param-sweep", "--n", "20", "--m", "5"),
        ("extract-constraints", "--per-class", "1", "--labels", "absent-labels.txt"),
        ("extract-constraints", "--per-class", "-1", "--labels", "absent-labels.txt"),
        ("crossvalidate", "--folds", "1", "--ratings", "absent-ratings.dat"),
        ("convert", "--mins", "nan", "--constraints", "absent-c.txt", "--to", "weights"),
        ("convert", "--maxs", "inf", "--constraints", "absent-c.txt", "--to", "weights"),
        ("syn1", "--threads", "0"),
        ("factorize", "--seed", "-1", "--matrix", "absent-v.csv"), ("syn1", "--seed", "-3"),
    ])
    def test_empty_or_bad_sizes(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        self._exit_2_naming(capsys, argv[1], argv[0], "--out", out, *argv[1:])
        assert not out.exists()

    def test_empty_ratings_file(self, tmp_path, capsys):
        ratings = tmp_path / "empty.dat"
        ratings.write_text("# no ratings\n")
        self._exit_2_naming(capsys, str(ratings), "crossvalidate", "--ratings", ratings,
                            "--out", tmp_path / "cv.csv")

    def test_constraints_file_without_triples(self, tmp_path, capsys):
        cfile = tmp_path / "c.txt"
        cfile.write_text("# no triples\n")
        out = tmp_path / "w.csv"
        self._exit_2_naming(capsys, str(cfile), "convert", "--constraints", cfile,
                            "--to", "weights", "--out", out)
        assert not out.exists()

    def test_malformed_labels_file(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("1\nx\n")
        out = tmp_path / "c.txt"
        err = self._exit_2_naming(capsys, "line 2", "extract-constraints", "--labels", labels,
                                  "--out", out)
        assert "labels must be integers" in err
        assert not out.exists()

    def test_fold_emptied_by_coverage_repair(self, tmp_path, capsys):
        # each entry is its row's only one, so both move to always-train
        ratings = tmp_path / "r.dat"
        ratings.write_text("1::2::3\n2::3::4\n")
        out = tmp_path / "cv.csv"
        err = self._exit_2_naming(capsys, "fold 0", "crossvalidate", "--ratings", ratings,
                                  "--folds", 2, "--out", out)
        assert "2 are moved" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["factorize", "crossvalidate"])
    @pytest.mark.parametrize("flag, value", [
        ("--k", 0), ("--max-iters", 0), ("--rel-tol", -1), ("--lambda-w", -1),
        ("--lambda-h", -1), ("--lambda-h", "inf"),
    ])
    def test_solver_flag_out_of_range(self, tmp_path, capsys, command, flag, value):
        # the input files do not exist: the flag is refused before any is read
        inputs = (("--matrix", tmp_path / "v.csv") if command == "factorize"
                  else ("--ratings", tmp_path / "r.dat", "--out", tmp_path / "cv.csv"))
        self._exit_2_naming(capsys, flag, command, *inputs, flag, value)

    def _parser_exit_2_naming(self, capsys, names, *argv):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names)

    @pytest.mark.parametrize("command, flag, value", [
        ("syn1", "--measure", "div"), ("syn1", "--lambda-w", 5),
        ("syn2", "--k", 3), ("syn2", "--measure", "div"), ("syn2", "--lambda-w", 5),
        ("param-sweep", "--measure", "div"), ("param-sweep", "--lambda-w", 5),
        ("param-sweep", "--lambda-h", 5),
    ])
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, command, flag, value):
        # --measure is refused, not taken as a prefix of --measures
        out = tmp_path / "x.csv"
        self._parser_exit_2_naming(capsys, [flag], command, "--out", out, flag, value)
        assert not out.exists()

    def test_mask_with_treat_zero_as_missing(self, tmp_path, capsys):
        # the input files do not exist: the pair is refused before any is read
        self._parser_exit_2_naming(capsys, ["--mask", "--treat-zero-as-missing"], "factorize",
                                   "--matrix", tmp_path / "v.csv", "--mask", tmp_path / "m.csv",
                                   "--treat-zero-as-missing")

    def test_convert_m_below_largest_index(self, tmp_path, capsys):
        cfile = tmp_path / "c.txt"
        cfile.write_text("H 1 2 3\nH 4 5 6\n")
        out = tmp_path / "w.csv"
        err = self._exit_2_naming(capsys, "--m", "convert", "--constraints", cfile,
                                  "--to", "weights", "--m", 3, "--out", out)
        assert str(cfile) in err
        assert not out.exists()

    def test_mask_shape_differs_from_matrix(self, tmp_path, capsys):
        matrix, mask = tmp_path / "v.csv", tmp_path / "m.csv"
        write_dense_csv(matrix, DenseMatrix(np.ones((2, 2))))
        write_dense_csv(mask, DenseMatrix(np.ones((2, 3))))
        err = self._exit_2_naming(capsys, "--mask", "factorize", "--matrix", matrix, "--mask", mask)
        assert str(matrix) in err and str(mask) in err

    def test_mask_entry_not_0_or_1(self, tmp_path, capsys):
        matrix, mask = tmp_path / "v.csv", tmp_path / "m.csv"
        write_dense_csv(matrix, DenseMatrix(np.ones((2, 2))))
        write_dense_csv(mask, DenseMatrix(np.array([[1.0, 0.5], [1.0, 1.0]])))
        err = self._exit_2_naming(capsys, "--mask", "factorize", "--matrix", matrix, "--mask", mask)
        assert str(mask) in err and "0 or 1" in err

    @pytest.mark.parametrize("flag", ["--matrix", "--mask"])
    @pytest.mark.parametrize("text, message", [
        (b"1,1\n1\n", "line 2: expected 2 fields, got 1"), (b"", "line 1: empty file"),
        (b"1,x\n1,1\n", "line 1: non-numeric value 'x'"), (b"\xff\xfe\n", "can't decode")])
    def test_malformed_csv_names_its_flag_and_file(self, tmp_path, capsys, flag, text, message):
        # with two CSV inputs, the message says which one is bad
        files = {"--matrix": tmp_path / "v.csv", "--mask": tmp_path / "m.csv"}
        write_dense_csv(files["--matrix"], DenseMatrix(np.ones((2, 2))))
        write_dense_csv(files["--mask"], DenseMatrix(np.ones((2, 2))))
        files[flag].write_bytes(text)
        err = self._exit_2_naming(capsys, flag, "factorize", "--matrix", files["--matrix"],
                                  "--mask", files["--mask"])
        assert err.startswith(f"error: {flag} {files[flag]}: ") and message in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "undecodable", "malformed"])
    @pytest.mark.parametrize("command, flag", FILE_FLAGS)
    def test_every_file_flag_names_itself(self, tmp_path, capsys, command, flag, kind):
        argv, paths = _file_argv(tmp_path, command, flag)
        if kind == "directory":
            paths[flag].mkdir()
        elif kind != "missing":
            paths[flag].write_bytes(b"\xff\xfe" if kind == "undecodable" else MALFORMED[flag])
        err = self._exit_2_naming(capsys, flag, *argv)
        assert err.startswith(f"error: {flag} {paths[flag]}: ")

    @pytest.mark.parametrize("command, data", [("factorize", "--matrix"),
                                               ("crossvalidate", "--ratings")])
    @pytest.mark.parametrize("line, reason", [("W 1 2 4", "W index 4 exceeds the 3 rows"),
                                              ("H 4 2 1", "H index 4 exceeds the 3 columns")])
    def test_constraints_that_do_not_fit_the_data(self, tmp_path, capsys, command, data,
                                                  line, reason):
        argv, paths = _file_argv(tmp_path, command)
        paths["--constraints"].write_text(f"H 1 2 3\n{line}\n")
        err = self._exit_2_naming(capsys, "--constraints", *argv)
        assert err.startswith(f"error: --constraints {paths['--constraints']}: {reason} "
                              f"of {data} {paths[data]}, shape (3, 3)")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, data, good, bad, reason", [
        ("factorize", "--matrix", "4,5,6", "4,-1,6", "negative value -1.0 at row 2, column 2"),
        ("factorize", "--matrix", "7,8,9", "7,8,nan", "non-finite value nan at row 3, column 3"),
        ("crossvalidate", "--ratings", "2::3::5", "2::3::-1", "negative value -1.0 at user 2, item 3"),
        ("crossvalidate", "--ratings", "3::1::4", "3::1::inf", "non-finite value inf at user 3, item 1"),
    ], ids=["matrix-negative", "matrix-nan", "ratings-negative", "ratings-inf"])
    def test_bad_value_names_its_cell(self, tmp_path, capsys, command, data, good, bad, reason):
        argv, paths = _file_argv(tmp_path, command)
        text = paths[data].read_text()
        assert good in text
        paths[data].write_text(text.replace(good, bad))
        err = self._exit_2_naming(capsys, data, *argv)
        assert err == f"error: {data} {paths[data]}: {reason}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mask, empty", [("1,1\n0,0\n", "row 2"), ("0,1\n0,1\n", "column 1")],
                             ids=["row", "column"])
    def test_mask_that_empties_a_row_or_column(self, tmp_path, capsys, mask, empty):
        matrix, mfile, out = tmp_path / "v.csv", tmp_path / "m.csv", tmp_path / "r.json"
        matrix.write_text("1,2\n3,4\n")
        mfile.write_text(mask)
        err = self._exit_2_naming(capsys, "--mask", "factorize", "--matrix", matrix, "--mask", mfile,
                                  "--k", 1, "--out", out)
        assert err == f"error: --mask {mfile}: {empty} observes no entry\n"
        assert not out.exists()

    @pytest.mark.parametrize("v, empty", [("1,2\n0,0\n", "row 2"), ("0,1\n0,2\n", "column 1")],
                             ids=["row", "column"])
    def test_zero_as_missing_that_empties_a_row_or_column(self, tmp_path, capsys, v, empty):
        matrix, out = tmp_path / "v.csv", tmp_path / "r.json"
        matrix.write_text(v)
        err = self._exit_2_naming(capsys, "--treat-zero-as-missing", "factorize", "--matrix", matrix,
                                  "--treat-zero-as-missing", "--k", 1, "--out", out)
        assert err == (f"error: --matrix {matrix}: {empty} is all zeros, so "
                       "--treat-zero-as-missing observes no entry of it\n")
        assert not out.exists()

    def test_folds_above_ratings_count(self, tmp_path, capsys):
        # a duplicate pair counts once
        ratings = tmp_path / "r.dat"
        ratings.write_text("1::2::3\n2::3::4\n1::3::5\n1::2::4\n")
        out = tmp_path / "cv.csv"
        err = self._exit_2_naming(capsys, "--folds", "crossvalidate", "--ratings", ratings,
                                  "--folds", 4, "--out", out)
        assert str(ratings) in err and "3 distinct ratings" in err
        assert not out.exists()

    def test_help_and_version_exit_0(self, capsys):
        assert run_cli("--help") == 0
        assert run_cli("--version") == 0
        assert "rprnmf" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["factorize", "crossvalidate"])
    @pytest.mark.parametrize("flag", ["--lambda-w", "--lambda-h"])
    def test_coefficient_without_constraints(self, tmp_path, capsys, command, flag):
        inputs = (("--matrix", tmp_path / "v.csv") if command == "factorize"
                  else ("--ratings", tmp_path / "r.dat", "--out", tmp_path / "cv.csv"))
        err = self._exit_2_naming(capsys, flag, command, *inputs, flag, 0.5)
        assert "--constraints" in err


@pytest.mark.parametrize("command", sorted(OTHER_ARGV))
def test_file_flag_inputs_are_readable(tmp_path, command):
    # the inputs that TestUsageErrors spoils one file at a time
    argv, _ = _file_argv(tmp_path, command)
    assert run_cli(*argv) == 0


def _ratings_lines(sep, stamp):
    return "".join(f"{u}{sep}{i}{sep}{(u * i) % 5 + 1}{stamp}\n" for u in range(1, 7)
                   for i in range(1, 6)).encode()


# contents of each fuzzed input file: a well-formed one first, then malformed ones
FUZZ_FILES = {
    "matrix": [b"0.5,1,0.2\n1,0.1,0.3\n0.2,0.9,1\n0.4,0.6,0.7\n", b"1,0,0.2\n0,0.5,1\n1,1,0\n",
               b"1,2\n3\n", b"1,x\n", b"", b"1,-1\n2,2\n", b"nan,1\n1,1\n", b"\xff\xfe\n"],
    "mask": [b"1,1,0\n1,1,1\n1,0,1\n1,1,1\n", b"1,1\n1,1\n", b"1,2,1\n1,1,1\n1,1,1\n1,1,1\n",
             b"0,0,0\n1,1,1\n1,1,1\n1,1,1\n"],
    "constraints": [b"H 1 2 3\nW 1 2 3\n", b"H 2 1 3\nH 2 3 1\n", b"H 1 2\n", b"H 1 1 2\n",
                    b"X 1 2 3\n", b"H 9 2 3\n", b"# none\n"],
    "ratings": [_ratings_lines("::", "::978300760"), _ratings_lines(",", ""), b"1::1\n", b"",
                b"a,b,c\n", b"1::1::5\n"],
    "labels": [b"1\n1\n2\n2\n3\n3\n", b"1\nx\n", b"1\n", b""],
}

# per command: the flags always given (bounding the work: small sizes, few
# iterations and repetitions) and the flags drawn, each with the values drawn
# from; "@name" is a path filled in by the test, None a switch
SOLVE = {"--k": ["1", "2", "0"], "--rel-tol": ["0", "1e-3", "-1"], "--seed": ["0", "3"]}
SYNTHETIC = dict(SOLVE, **{"--measures": ["euc", "div", "euc,div", "foo"],
                           "--threads": ["1", "0"]})
FUZZ_ARGV = {
    "factorize": (
        {"--matrix": ["@matrix", "@absent"], "--max-iters": ["1", "4", "0"]},
        dict(SOLVE, **{"--constraints": ["@constraints"], "--mask": ["@mask"],
                       "--treat-zero-as-missing": None, "--out": ["@out", "@dir"],
                       "--measure": ["euc", "div", "kl"], "--lambda-w": ["0", "0.5", "-1"],
                       "--lambda-h": ["0", "0.5", "nan"]})),
    "syn1": (
        {"--out": ["@out", "@missing"], "--groups": ["1", "2", "1,2", "0", "x", ""],
         "--reps": ["1", "0"], "--n": ["8", "0"], "--m": ["10", "5"],
         "--triples-per-group": ["1", "2", "0", "12"], "--max-iters": ["1", "3"]},
        dict(SYNTHETIC, **{"--lambda-h": ["0", "1", "-1"], "--measure": ["div"],
                           "--lambda-w": ["1"]})),
    "syn2": (
        {"--out": ["@out", "@dir"], "--sizes": ["3", "5,6", "2", "x", "4,"], "--reps": ["1"],
         "--max-iters": ["1", "3"]},
        dict(SYNTHETIC, **{"--lambda-h": ["0", "1"], "--k": ["3"], "--measure": ["euc"],
                           "--lambda-w": ["1"]})),
    "param-sweep": (
        {"--out": ["@out"], "--lambdas": ["0.5", "0,2", "-1", "x"], "--reps": ["1"],
         "--n": ["6", "9"], "--m": ["6", "4"], "--max-iters": ["1", "3"]},
        dict(SYNTHETIC, **{"--n-constraints": ["1", "2", "0", "5"], "--measure": ["div"],
                           "--lambda-w": ["1"], "--lambda-h": ["1"]})),
    "convert": (
        {"--constraints": ["@constraints", "@absent"], "--to": ["weights", "labels"],
         "--out": ["@out", "@dir"]},
        {"--m": ["3", "9", "0"], "--mins": ["0", "0.5", "nan"], "--maxs": ["1", "-1", "inf"]}),
    "crossvalidate": (
        {"--ratings": ["@ratings", "@absent"], "--format": ["ml1m", "csv"], "--out": ["@out"],
         "--folds": ["2", "3", "1"], "--max-iters": ["1", "3"]},
        dict(SOLVE, **{"--constraints": ["@constraints"], "--measure": ["euc", "div"],
                       "--lambda-w": ["0", "0.5"], "--lambda-h": ["0", "0.5", "-1"]})),
    "extract-constraints": (
        {"--labels": ["@labels", "@absent"], "--out": ["@out", "@missing"]},
        {"--per-class": ["2", "3", "1"], "--both-ways": None, "--seed": ["0", "1"]}),
}
# the largest index of each readable constraints file, and the shape of each
# matrix or mask file that reads as a 0/1 mask
FUZZ_MAX_INDEX = {b"H 1 2 3\nW 1 2 3\n": 3, b"H 2 1 3\nH 2 3 1\n": 3, b"H 9 2 3\n": 9}
FUZZ_SHAPE = {b"0.5,1,0.2\n1,0.1,0.3\n0.2,0.9,1\n0.4,0.6,0.7\n": (4, 3),
              b"1,0,0.2\n0,0.5,1\n1,1,0\n": (3, 3), b"1,-1\n2,2\n": (2, 2),
              b"nan,1\n1,1\n": (2, 2), b"1,1,0\n1,1,1\n1,0,1\n1,1,1\n": (4, 3),
              b"1,1\n1,1\n": (2, 2), b"0,0,0\n1,1,1\n1,1,1\n1,1,1\n": (4, 3)}
REMOVED = {"syn1": {"--measure", "--lambda-w"}, "syn2": {"--k", "--measure", "--lambda-w"},
           "param-sweep": {"--measure", "--lambda-w", "--lambda-h"}}


def _read_or_none(path):
    return path.read_bytes() if path is not None and path.exists() else None


class TestFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_argv_exits_0_1_or_2(self, tmp_path, capsys, data):
        command = data.draw(st.sampled_from(sorted(FUZZ_ARGV)))
        given_flags, drawn = FUZZ_ARGV[command]
        flags = list(given_flags) + data.draw(st.lists(st.sampled_from(sorted(drawn)),
                                                       unique=True, max_size=4))
        paths = {"@out": tmp_path / "out", "@dir": tmp_path, "@absent": tmp_path / "absent",
                 "@missing": tmp_path / "absent" / "out"}
        argv = [command]
        for flag in flags:
            values = given_flags.get(flag, drawn.get(flag))
            argv.append(flag)
            if values is None:
                continue
            value = data.draw(st.sampled_from(values))
            if value[1:] in FUZZ_FILES:
                paths[value] = tmp_path / value[1:]
                paths[value].write_bytes(data.draw(st.sampled_from(FUZZ_FILES[value[1:]])))
            argv.append(str(paths.get(value, value)))
        code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err
        refused = REMOVED.get(command, set()) & set(flags)
        if refused or {"--mask", "--treat-zero-as-missing"} <= set(flags):
            assert code == 2
        if command == "convert" and "--m" in flags:
            # a --m below the largest index of a readable constraints file
            top = FUZZ_MAX_INDEX.get(_read_or_none(paths.get("@constraints")))
            if top is not None and int(argv[argv.index("--m") + 1]) < top:
                assert code == 2
        if command == "factorize" and "--mask" in flags and "--matrix" in argv:
            shapes = {name: FUZZ_SHAPE.get(_read_or_none(paths.get(name)))
                      for name in ("@matrix", "@mask")}
            if None not in shapes.values() and shapes["@matrix"] != shapes["@mask"]:
                assert code == 2
