"""One digest of the program's outputs on fixed small inputs, wall times removed.

    python tests/parity.py        # prints the digest
    python tests/parity.py -v     # also one digest per output, to find the one that differs

It imports ``rprnmf`` from the ``src/`` of its own checkout.  It runs a fixed
list of CLI commands (``syn1``, ``syn2``, ``param-sweep``, ``factorize`` with
and without ``--mask``, ``crossvalidate`` on a CSV, on a ``::`` ratings
file and on one that mixes lines with and without a timestamp, and
``convert``) on inputs it writes into a temporary directory, which
it runs them in so that every path they name is relative, then a seeded set of ``run()``
configurations: masked and unmasked, both measures, zero and positive
coefficients, some with rollbacks, and 24 triples on each of 8 W rows and
8 H columns in both measures.  Two checkouts that print the same digest
wrote byte-identical outputs on all of them.  Each output is hashed with its
wall times taken out: the ``wall_time_s`` column and report key, and
``factorize``'s ``wall_time_s=`` line.  Pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rprnmf import ConstraintSet, DenseMatrix, Measure, SolverConfig, Target, md, msl, run  # noqa: E402
from rprnmf.cli import main  # noqa: E402
from rprnmf.constraints import write_constraints  # noqa: E402
from rprnmf.io import write_dense_csv  # noqa: E402

N, M = 14, 12


def write_inputs(d: Path) -> None:
    """The factorize, crossvalidate and convert inputs in ``d``: V, a mask, constraints, ratings."""
    rng = np.random.default_rng(20260)
    write_dense_csv(d / "v.csv", DenseMatrix(rng.uniform(0.0, 1.0, (N, 3)) @ rng.uniform(0.0, 1.0, (3, M))))
    mask = (rng.random((N, M)) < 0.75).astype(float)
    np.fill_diagonal(mask, 1.0)  # every row and column observed
    mask[:, M - 1] = mask[:, M - 2] = 1.0
    write_dense_csv(d / "mask.csv", DenseMatrix(mask))
    # chains on both sides: q r s with r nearer q than s in index order
    write_constraints(d / "c.txt",
                      set_w=ConstraintSet(Target.W_ROWS, [(2, 1, 5), (3, 2, 6), (9, 10, 13)]),
                      set_h=ConstraintSet(Target.H_COLS, [(2, 1, 4), (3, 2, 5), (4, 3, 6), (8, 9, 12)]))
    with open(d / "ratings.csv", "w", encoding="utf-8") as fh:
        for user in range(1, N + 1):
            for item in range(1, M + 1):
                if rng.random() < 0.8:
                    fh.write(f"{user},{item},{rng.integers(1, 6)},{rng.integers(10**8)}\n")
    # a "::" file with raw ids that skip values, lines out of order,
    # duplicate pairs (the last wins), and one user and one item with a
    # single rating, so that both repair phases of the CV split run
    lines = [f"{3 * u + 1}::{5 * i + 2}::{rng.integers(1, 6)}::{rng.integers(10**8)}"
             for u in range(N - 1) for i in range(M - 1) if rng.random() < 0.7]
    lines += [f"{line.rsplit('::', 2)[0]}::{rng.integers(1, 6)}::{rng.integers(10**8)}"
              for line in rng.choice(lines, 6, replace=False)]
    lines += [f"{3 * (N - 1) + 1}::2::4::7", f"1::{5 * (M - 1) + 2}::2::9"]
    rng.shuffle(lines)
    (d / "ratings.dat").write_text("\n".join(lines) + "\n", encoding="utf-8")
    # the same lines, every third one without its timestamp
    mixed = [line.rsplit("::", 1)[0] if i % 3 == 0 else line for i, line in enumerate(lines)]
    (d / "mixed.dat").write_text("\n".join(mixed) + "\n", encoding="utf-8")


def cli_argv() -> list[list[str]]:
    """The CLI commands, each reading the inputs and writing ``out`` in the working directory."""
    out = "out"
    solve = ["--max-iters", "40", "--rel-tol", "0"]
    argv = [
        ["syn1", "--out", out, "--groups", "2", "--reps", "1", "--n", "20", "--m", "20",
         "--triples-per-group", "3", "--k", "3", "--seed", "3", *solve],
        ["syn2", "--out", out, "--sizes", "15,25", "--reps", "2", "--seed", "5", *solve],
        ["param-sweep", "--out", out, "--lambdas", "0,0.4,20", "--reps", "1", "--n", "18",
         "--m", "18", "--n-constraints", "3", "--k", "3", "--seed", "7", *solve],
        ["convert", "--constraints", "c.txt", "--to", "weights", "--m", str(M),
         "--mins", "0.1", "--maxs", "0.9", "--out", out],
        ["convert", "--constraints", "c.txt", "--to", "labels", "--out", out],
    ]
    argv.append(["crossvalidate", "--ratings", "ratings.dat", "--folds", "4", "--k", "2",
                 "--seed", "19", "--out", out, *solve])
    argv.append(["crossvalidate", "--ratings", "mixed.dat", "--folds", "3", "--k", "2",
                 "--measure", "div", "--seed", "23", "--out", out, *solve])
    for measure in ("euc", "div"):
        fact = ["factorize", "--matrix", "v.csv", "--k", "3", "--measure", measure,
                "--seed", "11", "--out", out, *solve]
        argv += [
            fact,
            [*fact, "--constraints", "c.txt", "--lambda-w", "0.5", "--lambda-h", "2"],
            [*fact, "--mask", "mask.csv"],
            [*fact, "--mask", "mask.csv", "--constraints", "c.txt",
             "--lambda-h", "30"],
            ["crossvalidate", "--ratings", "ratings.csv", "--format", "csv",
             "--constraints", "c.txt", "--folds", "3", "--k", "3", "--measure", measure,
             "--lambda-w", "1", "--lambda-h", "5", "--threads", "2", "--seed", "13", "--out", out,
             *solve],
        ]
    return argv


def without_wall_times(text: str) -> str:
    """``text`` (stdout, a results CSV or a JSON report) with its wall times taken out."""
    if text.startswith("{"):
        doc = json.loads(text)
        doc.pop("wall_time_s")
        return json.dumps(doc, sort_keys=True)
    lines = [line for line in text.splitlines(keepends=True) if not line.startswith("wall_time_s=")]
    header = lines[0].rstrip("\r\n").split(",") if lines else []
    if "wall_time_s" in header:
        col = header.index("wall_time_s")
        rows = csv.reader(line for line in lines if not line.startswith("#"))
        kept = "\n".join(",".join(row[:col] + row[col + 1:]) for row in rows)
        lines = [kept] + [line for line in lines if line.startswith("#")]
    return "".join(lines)


def cli_outputs():
    """(name, bytes) of each CLI command's exit code, stdout and ``--out`` file."""
    for argv in cli_argv():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        text = Path("out").read_text(encoding="utf-8")
        os.remove("out")
        blob = f"{code}\n{without_wall_times(stdout.getvalue())}\n{without_wall_times(text)}"
        yield " ".join(argv), blob.encode()


def run_outputs():
    """(name, bytes) of each seeded ``run()`` report, with its msl or md."""
    rng = np.random.default_rng(16)
    for case in range(24):
        n, m, k = (int(x) for x in rng.integers((6, 6, 1), (16, 16, 5)))
        v = rng.uniform(0.0, 1.0, (n, k)) @ rng.uniform(0.0, 1.0, (k, m)) + rng.uniform(0.0, 0.1, (n, m))
        measure = (Measure.EUCLIDEAN, Measure.DIVERGENCE)[case % 2]
        mask = None
        if case % 4 >= 2:
            mask = rng.random((n, m)) < 0.7
            mask[np.arange(n), np.arange(n) % m] = mask[np.arange(m) % n, np.arange(m)] = True
        # coefficients: none, one side, both sides, and large ones that force rollbacks
        lam_w, lam_h = ((0.0, 0.0), (0.0, 1.0), (0.5, 2.0), (40.0, 80.0))[case // 4 % 4]
        sets = (ConstraintSet(Target.W_ROWS, [tuple(rng.choice(n, 3, replace=False) + 1) for _ in range(4)]),
                ConstraintSet(Target.H_COLS, [tuple(rng.choice(m, 3, replace=False) + 1) for _ in range(5)]))
        config = SolverConfig(k=k, measure=measure, lambda_w=lam_w, lambda_h=lam_h, max_iters=60,
                              rel_tol=0.0 if case % 3 else 1e-5, seed=case, mask=mask)
        yield f"run case {case}", run_blob(v, sets if case % 8 else (None, None), config)
    # 24 triples on 8 W rows and on 8 H columns, out of vector order: every
    # vector plays several roles, which pins the order of the sweep's links
    rng = np.random.default_rng(21)
    v = rng.uniform(0.0, 1.0, (8, 3)) @ rng.uniform(0.0, 1.0, (3, 8)) + rng.uniform(0.0, 0.1, (8, 8))
    sets = tuple(ConstraintSet(target, [tuple(rng.choice(8, 3, replace=False) + 1) for _ in range(24)])
                 for target in (Target.W_ROWS, Target.H_COLS))
    for measure in Measure:
        config = SolverConfig(k=3, measure=measure, lambda_w=0.3, lambda_h=0.6, max_iters=60,
                              rel_tol=0.0, seed=5)
        yield f"run dense triples {measure.value}", run_blob(v, sets, config)


def run_blob(v, sets, config: SolverConfig) -> bytes:
    """A ``run()`` report's factors, trace, rollbacks, CSR and msl or md, as bytes."""
    report = run(v, sets, config)
    fit = (msl if config.measure is Measure.EUCLIDEAN else md)(v, report.w, report.h, config.mask)
    return b"".join([report.w.a.tobytes(), report.h.a.tobytes(),
                     repr((report.objective_trace, report.rollback_iters, report.csr,
                           report.final_objective, report.iterations, fit)).encode()])


def main_parity(verbose: bool) -> str:
    total = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            outputs = [*cli_outputs(), *run_outputs()]
        finally:
            os.chdir(home)
    for name, blob in outputs:
        total.update(hashlib.sha256(blob).digest())
        if verbose:
            print(hashlib.sha256(blob).hexdigest()[:16], name)
    return total.hexdigest()


if __name__ == "__main__":
    print(main_parity("-v" in sys.argv[1:]))
