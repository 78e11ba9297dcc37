"""Mutation gate for the compiled kernels of ``src/rprnmf/_sweep.c``.

    python tests/mutate_kernels.py      # exits 0 when the gate holds

Each mutant is one textual edit of ``_sweep.c``: a plausible slip in
``rpr_sweep``, ``rpr_model``, ``rpr_ordering``, ``rpr_read_ratings`` or
``rpr_read_dense``.  The unmutated source and then each mutant are written
to a temporary directory, and a fresh Python process (a loaded library
cannot be unloaded) points ``rprnmf._kernels._SOURCE`` at that copy, builds
it and runs the sweep, model, chain, ratings and dense CSV tests with
pytest, hypothesis derandomised and without its example database.  The
gate holds when the unmutated source passes and every mutant fails.  A
mutant whose text is no longer in the source stops the script, so the list
follows the kernels.  The list only grows: a surviving mutant needs a new
test, or a note on why it is equivalent.  Pytest does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "rprnmf" / "_sweep.c"

# the sweep, masked-terms, model, chain, ratings and dense CSV tests, less those
# that build the library another way (another compiler, a copy of the package,
# -Werror)
TESTS = [str(ROOT / "tests" / t) for t in (
    "test_solver.py::TestEntryUpdates", "test_solver.py::TestOrderedSweep",
    "test_solver.py::TestUpdateTerms", "test_matrix.py::TestObservedModel",
    "test_constraints.py::TestChainGeneration",
    "test_io.py::TestRatingsWholeFile", "test_io.py::TestRatings", "test_io.py::TestDenseCsv")]
DESELECT = "not build and not compiles and not two_processes"

TAIL_LOOP = """        for (; c < end; c++) {
            const double *hj = ht + cols[c] * k;
            double acc = 0.0;
            for (int64_t l = 0; l < k; l++)
                acc += wi[l] * hj[l];
            out[c] = acc;
        }
"""

# (name, text in the source, its replacement)
MUTANTS = [
    # rpr_sweep
    ("role r takes the wrong exponential", "pos += e1 * wr;", "pos += e2 * wr;"),
    ("role s takes the wrong operand", "neg += e2 * ws;", "neg += e2 * wr;"),
    ("the s term's sign flipped", "p -= log(ws / wq)", "p += log(ws / wq)"),
    ("g's divisor in role r", "(wr - wq) / wr;", "(wr - wq) / wq;"),
    ("no clamp on q", "double wq = at_least(col[q[t] * f0], eps)", "double wq = col[q[t] * f0]"),
    ("the squared-distance update drops the old square", "dn * dn - dw * dw", "dn * dn"),
    ("the wrong other end for q", "half ? s[t] : r[t]", "half ? r[t] : s[t]"),
    ("no EPS floor on the denominator", "/ at_least(dka + lam * pos, eps)", "/ (dka + lam * pos)"),
    ("a hinge tie counts as satisfied", "if (dd[t] < dd[n + t])", "if (dd[t] <= dd[n + t])"),
    # rpr_model
    ("wrong row base", "*wi = w + i * k;", "*wi = w + i;"),
    ("the block skips the last latent index", "l < k; l++) {", "l < k - 1; l++) {"),
    ("cols read as rows", "*hj = ht + cols[c] * k;", "*hj = ht + i * k;"),
    ("the block's accumulators not reset", "double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;",
     "static double a0, a1, a2, a3;"),
    ("a lane reads its neighbour's column", "*h3 = ht + cols[c + 3] * k", "*h3 = ht + cols[c + 2] * k"),
    ("the tail loop dropped", TAIL_LOOP, ""),
    ("the tail skips the last latent index", "l < k; l++)\n", "l < k - 1; l++)\n"),
    ("the block sums in descending latent index", "l = 0; l < k; l++) {", "l = k - 1; l >= 0; l--) {"),
    # rpr_ordering; its leaf takes every path it reaches, since the prune
    # passes only strictly wider ones, so the tie rule is the prune's alone
    ("a zero gap passes", "if (gap <= 0 ||", "if (gap < 0 ||"),
    ("a gap as wide as the best passes: ties go to the later path", "gap <= o->best_gap)",
     "gap < o->best_gap)"),
    ("min keeps the wrong operand", "x < min_gap ? x : min_gap", "x < min_gap ? min_gap : x"),
    ("the leaf keeps the path but not its gap", "        o->best_gap = min_gap;\n", ""),
    ("the first hop starts at distance 0", "extend(&o, 1, -INFINITY, INFINITY)",
     "extend(&o, 1, 0.0, INFINITY)"),
    ("a point stays used after its subtree", "        o->used[cand] = 0;\n", ""),
    ("the row offset misses its stride", "o->dist + o->path[depth - 1] * o->n",
     "o->dist + o->path[depth - 1]"),
    # rpr_read_ratings
    ("the value fast path takes 20 digits", "digits(&t, end, 15, &u)", "digits(&t, end, 20, &u)"),
    ("an id's sign dropped", "int neg = t < end && *t == '-';", "int neg = 0;"),
    ("a value's sign dropped", "*out = *s == '-' ? -(double)u : (double)u;", "*out = (double)u;"),
    ("no int64 limit on ids", "\n        || u > (neg ? (uint64_t)INT64_MAX + 1 : (uint64_t)INT64_MAX))", ")"),
    ("the end-of-line check dropped", "        if (p < end && !is_eol(*p))\n            goto undecided;\n", ""),
    ("the separator compared one byte short", "memcmp(p, sep, (size_t)seplen)",
     "memcmp(p, sep, (size_t)seplen - 1)"),
    ("an empty value read as 0", "len == 0 || ", ""),
    ("hex accepted: no x refusal", "memchr(s, 'x', len) || ", ""),
    ("hex accepted: no X refusal", " || memchr(s, 'X', len)", ""),
    ("nan(...) accepted: no ( refusal", "\n        || memchr(s, '(', len))", ")"),
    ("a line of two fields accepted", "if (f != 3 && f != 4)", "if (f < 2 || f > 4)"),
    ("the timestamp written over the rating", "c_locale, &stamp)", "c_locale, ratings + rows)"),
    # rpr_read_dense
    ("rows of unequal width accepted", "        if (rows > 0 && f != *width)\n            goto undecided;\n", ""),
    ("a trailing comma accepted", "if (*p++ != ',')\n                goto undecided;\n",
     "if (*p++ != ',')\n                goto undecided;\n            if (p == end || is_eol(*p))\n"
     "                break;\n"),
    ("no cap on the values written", "if (count == cap || parse_value", "if (parse_value"),
]

RUNNER = """import sys
from pathlib import Path
from hypothesis import settings
settings.register_profile("mutants", database=None, derandomize=True)
settings.load_profile("mutants")
from rprnmf import _kernels
_kernels._SOURCE = Path(sys.argv[1])
try:
    _kernels._load()
except Exception as exc:
    print(exc)
    sys.exit(3)
import pytest
sys.exit(pytest.main(sys.argv[2:]))
"""


def first_failure(text: str, workdir: Path) -> str | None:
    """The first test that fails against ``text`` as ``_sweep.c``, built in
    ``workdir``, or the signal that ended the run; None when all pass."""
    workdir.mkdir()
    source = workdir / "_sweep.c"
    source.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(source), "-q", "-x", "-p",
                           "no:cacheprovider", *TESTS, "-k", DESELECT],
                          cwd=workdir, env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode == 0:
        return None
    if proc.returncode < 0:
        return f"killed by signal {-proc.returncode}"
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    if proc.returncode != 1 or not failed:  # a build, collection or usage error
        raise SystemExit(f"{workdir.name}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return failed[0].split("::", 1)[1]


def orphans(source: str) -> list[str]:
    """The mutants whose text does not occur exactly once in ``source``."""
    return [name for name, old, _ in MUTANTS if source.count(old) != 1]


def main() -> int:
    original = SOURCE.read_text()
    if orphans(original):
        raise SystemExit(f"mutants whose text does not occur once: {orphans(original)}")
    with tempfile.TemporaryDirectory(prefix="rprnmf-mutants-") as tmp:
        failure = first_failure(original, Path(tmp, "original"))
        print(f"unmutated source: {'passes' if failure is None else 'FAILS ' + failure}")
        ok = failure is None
        for i, (name, old, new) in enumerate(MUTANTS):
            failure = first_failure(original.replace(old, new), Path(tmp, f"mutant-{i}"))
            print(f"{'SURVIVED' if failure is None else 'killed'}: {name}"
                  f"{'' if failure is None else ' (' + failure + ')'}", flush=True)
            ok &= failure is not None
    print(f"{len(MUTANTS)} mutants: gate {'holds' if ok else 'FAILS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
