"""Command-line front end.

Subcommands: factorize, syn1, syn2, param-sweep, convert, crossvalidate,
extract-constraints.  Every command is a deterministic function of its input
files, flags and seed; results CSVs carry a header row and a trailing
comment with the experiment digest and tool version.

Exit codes: 0 success, 1 runtime error, 2 usage or file error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .constraints import (
    MAX_CHAIN_LEN,
    ConstraintSet,
    ConstraintTriple,
    Measure,
    Target,
    constraints_to_label_matrix,
    constraints_to_weight_matrix,
    generate_chain_plan,
    read_constraints,
    write_constraints,
)
from .exceptions import (
    MalformedLineError,
    NonNumericCsvError,
    RaggedCsvError,
    RprNmfError,
    ShapeMismatchError,
    TooFewPointsError,
)
from .io import (
    make_cv_split,
    read_dense_csv,
    read_labels_file,
    read_mask_csv,
    read_ratings,
    ratings_to_matrix,
    write_dense_csv,
    write_report,
    zeros_as_missing,
)
from .matrix import DenseMatrix
from .metrics import f1_score, md, msl, rmse
from .solver import SolverConfig, run as run_solver


class UsageError(RprNmfError, ValueError):
    """A command-line setting the program cannot use (exit code 2)."""


def _run_tasks(worker, tasks, threads):
    """Run worker over tasks, results ordered by task index regardless of pool."""
    if threads <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, tasks))


def _experiment(args, kind: str, worker, tasks, fields) -> int:
    """Run ``tasks`` through ``worker``, which returns a list of rows per task, and
    write the ``fields`` of each row to ``--out``, in task order.

    The CSV has a header row, floats at 17 significant digits and a trailing
    comment with the tool version and the digest of the command and its flags,
    ``--out`` and ``--threads`` aside, since they change no row.
    """
    rows = [row for task_rows in _run_tasks(worker, tasks, args.threads) for row in task_rows]
    params = {k: v for k, v in vars(args).items() if k not in ("func", "out", "threads")}
    blob = json.dumps({"kind": kind, "params": params}, sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([format(row[f], ".17g") if isinstance(row[f], float) else row[f]
                             for f in fields])
        fh.write(f"# experiment={digest} tool=rprnmf/{__version__}\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _check_args(args) -> None:
    """Reject flag values no command can use, naming the flag (exit code 2).

    Runs before the command does any work, so a long experiment cannot fail
    at its end for want of a writable ``--out``.
    """
    lowest = {"k": 1, "max_iters": 1, "reps": 1, "n": 1, "m": 1, "n_constraints": 1,
              "per_class": 2, "folds": 2, "threads": 1, "seed": 0}
    for dest, low in lowest.items():
        value = getattr(args, dest, None)
        if value is not None and value < low:
            raise UsageError(f"--{dest.replace('_', '-')} must be >= {low}, got {value}")
    for dest in ("rel_tol", "lambda_w", "lambda_h"):
        value = getattr(args, dest, None)
        if value is not None and not 0 <= value < math.inf:
            raise UsageError(f"--{dest.replace('_', '-')} must be a finite number >= 0, got {value}")
    for dest in ("mins", "maxs"):
        value = getattr(args, dest, None)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{dest} must be a finite number, got {value}")
    # factorize and crossvalidate, the commands that take --lambda-w and --constraints
    if "lambda_w" in vars(args) and max(args.lambda_w, args.lambda_h) > 0 and not args.constraints:
        raise UsageError(f"--lambda-w {args.lambda_w} and --lambda-h {args.lambda_h}: "
                         "a positive coefficient needs --constraints")
    measures = getattr(args, "measures", None)
    if measures is not None and not set(measures.split(",")) <= {"euc", "div"}:
        raise UsageError(f"--measures must be a comma list of euc and div, got {measures!r}")
    out = getattr(args, "out", None)
    if out:
        parent = os.path.dirname(os.path.abspath(out))
        if os.path.isdir(out):
            raise UsageError(f"--out {out} is a directory")
        if not os.path.isdir(parent):
            raise UsageError(f"--out {out}: directory {parent} does not exist")
        if not os.access(parent, os.W_OK) or (os.path.exists(out) and not os.access(out, os.W_OK)):
            raise UsageError(f"--out {out} is not writable")


def _number_list(flag: str, text: str, kind=int, low=1) -> list:
    """The comma list of finite ``kind`` values >= ``low`` given to ``flag``."""
    try:
        values = [kind(x) for x in text.split(",")]
    except ValueError:
        values = []
    if not values or not all(low <= x < math.inf for x in values):
        noun = "integers" if kind is int else "numbers"
        raise UsageError(f"{flag} must be a comma list of {noun} >= {low}, got {text!r}")
    return values


def _derive_seed(*parts: int) -> int:
    """Stable child seed from integer components."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _err_metric(measure: Measure, v, w, h, mask=None) -> float:
    return msl(v, w, h, mask) if measure is Measure.EUCLIDEAN else md(v, w, h, mask)


def _chain_plan(n_triples: int, per_chain: int = 5) -> list[int]:
    """Split a triple budget into chain sizes (triples per chain)."""
    full, left = divmod(n_triples, per_chain)
    return [per_chain] * full + ([left] if left else [])


# ---------------------------------------------------------------- factorize


def _read_csv(flag: str, path, reader):
    """``reader(path)``, with an error in the file's text or entries (exit code 2)
    naming ``flag`` and ``path``, since a command may read two CSV files."""
    try:
        return reader(path)
    except (UnicodeDecodeError, RaggedCsvError, NonNumericCsvError,
            ShapeMismatchError) as exc:  # the last: a mask entry other than 0 or 1
        raise UsageError(f"{flag} {path}: {exc}") from None


def cmd_factorize(args) -> int:
    v = _read_csv("--matrix", args.matrix, read_dense_csv)
    mask = _read_csv("--mask", args.mask, read_mask_csv) if args.mask else None
    if mask is not None and mask.shape != v.a.shape:
        raise UsageError(f"--mask {args.mask} has shape {mask.shape}, "
                         f"--matrix {args.matrix} has shape {v.a.shape}")
    if args.treat_zero_as_missing:
        mask = zeros_as_missing(v)
    set_w, set_h = read_constraints(args.constraints) if args.constraints else (None, None)
    measure = Measure(args.measure)
    config = SolverConfig(
        k=args.k, measure=measure, lambda_w=args.lambda_w, lambda_h=args.lambda_h,
        max_iters=args.max_iters, rel_tol=args.rel_tol, seed=args.seed, mask=mask,
    )
    report = run_solver(v, (set_w, set_h), config)
    err = _err_metric(measure, v, report.w, report.h, mask)
    metrics = {"msl" if measure is Measure.EUCLIDEAN else "md": err, "csr": report.csr}
    if args.out:
        write_report(args.out, report, config, metrics)
    print(f"iterations={report.iterations}")
    print(f"objective={report.final_objective:.10g}")
    for key, value in metrics.items():
        print(f"{key}={'n/a' if value is None else format(value, '.10g')}")
    print(f"wall_time_s={report.wall_time_s:.3f}")
    return 0


# ------------------------------------------------------ synthetic experiments


def _synthetic_run(task: dict) -> list[dict]:
    """One synthetic problem, V = W0 @ H0 with chains drawn on W0 and H0, solved once per config.

    ``chains_w`` and ``chains_h`` are (chain lengths, seed) pairs; no lengths
    leaves that side unconstrained.  ``solves`` holds (config, row) pairs
    that share k and measure, so they share the problem.  Returns each
    ``row`` plus its error, CSR and wall time, in order.
    """
    k, measure = task["solves"][0][0].k, task["solves"][0][0].measure
    rng = np.random.default_rng(task["data_seed"])
    w0 = rng.uniform(0.0, 1.0, size=(task["n"], k))
    h0 = rng.uniform(0.0, 1.0, size=(k, task["m"]))
    v = DenseMatrix(w0 @ h0)
    sets = []
    for factor, target, (lens, seed) in ((w0, Target.W_ROWS, task["chains_w"]),
                                         (h0, Target.H_COLS, task["chains_h"])):
        sets.append(generate_chain_plan(DenseMatrix(factor), target, lens, measure, seed)
                    if lens else None)
    rows = []
    for config, row in task["solves"]:
        report = run_solver(v, tuple(sets), config)
        rows.append(dict(row, msl_or_md=_err_metric(measure, v, report.w, report.h),
                         csr=report.csr, wall_time_s=report.wall_time_s))
    return rows


def _syn_tasks(args, shapes) -> list[dict]:
    """syn1/syn2 tasks: chains on H only, one problem per group, rep and measure,
    solved at lambda_h 0 and then at --lambda-h.

    ``shapes`` holds one (group, n, m, k, triples, triples per chain) per group.
    """
    tasks = []
    for group, n, m, k, n_constraints, per_chain in shapes:
        # chain_len counts distances: t triples need t+1 distances
        lens = [t + 1 for t in _chain_plan(n_constraints, per_chain)]
        for rep in range(args.reps):
            for meas in args.measures.split(","):
                solves = []
                for lam in (0.0, args.lambda_h):
                    config = SolverConfig(
                        k=k, measure=Measure(meas), lambda_h=lam, max_iters=args.max_iters,
                        rel_tol=args.rel_tol, seed=_derive_seed(args.seed, group, rep, 3),
                    )
                    solves.append((config, {
                        "algorithm": "rprnmf" if lam > 0 else "nmf", "measure": meas,
                        "n": n, "m": m, "n_constraints": n_constraints, "repetition": rep}))
                tasks.append({
                    "solves": solves, "n": n, "m": m, "data_seed": [args.seed, group, rep, 1],
                    "chains_w": ([], None), "chains_h": (lens, [args.seed, group, rep, 2]),
                })
    return tasks


def cmd_syn1(args) -> int:
    # a chain of t triples orders t + 1 distances between t + 2 columns
    per_group = args.triples_per_group
    if not 1 <= per_group <= MAX_CHAIN_LEN - 1:
        raise UsageError(
            f"--triples-per-group must be between 1 and {MAX_CHAIN_LEN - 1}, got {per_group}"
        )
    groups = _number_list("--groups", args.groups)
    if len(groups) == 1 and "," not in args.groups:
        groups = list(range(1, groups[0] + 1))
    if max(groups) * (per_group + 2) > args.m:
        raise UsageError(
            f"--groups {max(groups)} with --triples-per-group {per_group} needs "
            f"--m >= {max(groups) * (per_group + 2)}, got {args.m}"
        )
    shapes = [(g, args.n, args.m, args.k, g * per_group, per_group) for g in groups]
    return _experiment(args, "syn1", _synthetic_run, _syn_tasks(args, shapes),
                       ["algorithm", "measure", "n_constraints", "repetition", "msl_or_md",
                        "csr", "wall_time_s"])


def cmd_syn2(args) -> int:
    # each size holds at least one chain triple, which takes 3 columns
    sizes = _number_list("--sizes", args.sizes, low=3)
    shapes = [(size, size, size, max(1, size // 5), max(1, size // 5), 5) for size in sizes]
    return _experiment(args, "syn2", _synthetic_run, _syn_tasks(args, shapes),
                       ["algorithm", "measure", "n", "m", "n_constraints", "repetition",
                        "msl_or_md", "csr", "wall_time_s"])


def default_lambda_grid() -> list[float]:
    return [round(0.4 * i, 10) for i in range(1, 11)] + [20.0, 40.0, 60.0, 80.0, 100.0]


def cmd_param_sweep(args) -> int:
    grid = (_number_list("--lambdas", args.lambdas, float, 0) if args.lambdas
            else default_lambda_grid())
    # each side holds n_constraints disjoint triples of 3 indices
    n_constraints = args.n_constraints or max(1, args.n // 10)
    if 3 * n_constraints > min(args.n, args.m):
        raise UsageError(
            f"--n-constraints {n_constraints} needs --n and --m >= {3 * n_constraints}, "
            f"got --n {args.n} --m {args.m}"
        )
    # independent triples (single-triple chains): the coefficient sweep varies
    # penalty strength, so the constraints themselves carry no chain coupling
    lens = [2] * n_constraints
    tasks = []
    for gi, lam in enumerate(grid):
        for rep in range(args.reps):
            for meas in args.measures.split(","):
                config = SolverConfig(
                    k=args.k, measure=Measure(meas), lambda_w=lam, lambda_h=lam,
                    max_iters=args.max_iters, rel_tol=args.rel_tol,
                    seed=_derive_seed(args.seed, rep, 4),
                )
                tasks.append({
                    "solves": [(config, {"lambda": lam, "measure": meas, "repetition": rep})],
                    "n": args.n, "m": args.m, "data_seed": [args.seed, gi, rep, 1],
                    "chains_w": (lens, [args.seed, rep, 2]),
                    "chains_h": (lens, [args.seed, rep, 3]),
                })
    return _experiment(args, "param-sweep", _synthetic_run, tasks,
                       ["lambda", "measure", "repetition", "msl_or_md", "csr"])


# ----------------------------------------------------------------- convert


def cmd_convert(args) -> int:
    set_w, set_h = read_constraints(args.constraints)
    cset = set_h if set_h is not None else set_w
    if cset is None:
        raise UsageError(f"--constraints {args.constraints}: no constraints in the file")
    if cset.target is not Target.H_COLS:
        cset = ConstraintSet(Target.H_COLS, cset.triples)
    if args.m is not None and args.m < cset.max_index():
        raise UsageError(f"--m {args.m} is below the largest index {cset.max_index()} "
                         f"in {args.constraints}")
    m = args.m or cset.max_index()
    if args.to == "weights":
        wm = constraints_to_weight_matrix(m, cset, args.mins, args.maxs)
        write_dense_csv(args.out, wm.s)
        print(f"max_depth={wm.max_depth}")
    else:
        lm = constraints_to_label_matrix(m, cset)
        write_dense_csv(args.out, DenseMatrix(lm.b) if lm.b.size else DenseMatrix(np.zeros((1, m))))
        print(f"classes={lm.n_classes}")
    return 0


# ----------------------------------------------------------- crossvalidate


def _cv_task(task: dict) -> list[dict]:
    """One fold's masked solve, trained on ``config.mask``; returns ``row`` plus its scores."""
    v, config, heldout = task["v"], task["config"], task["heldout"]
    report = run_solver(v, task["sets"], config)
    wh = report.w.a @ report.h.a
    return [dict(task["row"], msl_or_md=_err_metric(config.measure, v, report.w, report.h, config.mask),
                 csr=report.csr if report.csr is not None else "", rmse=rmse(v, wh, heldout),
                 f1=f1_score(v, wh, config.mask, heldout).f1)]


def cmd_crossvalidate(args) -> int:
    table = read_ratings(args.ratings, args.format)
    if table.ratings.size < args.folds:
        raise UsageError(f"--folds {args.folds} is more than the {table.ratings.size} "
                         f"distinct ratings in --ratings {args.ratings}")
    v, observed = ratings_to_matrix(table)
    set_w, set_h = read_constraints(args.constraints) if args.constraints else (None, None)
    split = make_cv_split(observed, args.folds, args.seed)
    empty = [f for f, heldout in enumerate(split.fold_masks) if not heldout.count]
    if empty:
        raise UsageError(f"--folds {args.folds}: fold {empty[0]} holds no entries once "
                         f"{split.reassigned} are moved to always-train for coverage")
    lambdas = [(0.0, 0.0)]
    if args.lambda_w or args.lambda_h:  # positive, so --constraints is given (_check_args)
        lambdas.append((args.lambda_w, args.lambda_h))
    tasks = []
    for fold in range(split.n_folds):
        for lam_w, lam_h in lambdas:
            config = SolverConfig(
                k=args.k, measure=Measure(args.measure), lambda_w=lam_w, lambda_h=lam_h,
                max_iters=args.max_iters, rel_tol=args.rel_tol, seed=args.seed + fold,
                mask=split.training_mask(fold),
            )
            tasks.append({
                "config": config, "v": v, "sets": (set_w, set_h),
                "heldout": split.fold_masks[fold],
                "row": {"fold": fold, "algorithm": "rprnmf" if lam_w or lam_h else "nmf",
                        "measure": args.measure},
            })
    return _experiment(args, "crossvalidate", _cv_task, tasks,
                       ["fold", "algorithm", "measure", "msl_or_md", "csr", "rmse", "f1"])


# ---------------------------------------------------- extract-constraints


def cmd_extract_constraints(args) -> int:
    labels = read_labels_file(args.labels)
    rng = np.random.default_rng(args.seed)
    by_class: dict[int, list[int]] = {}
    for idx, lab in enumerate(labels, start=1):
        by_class.setdefault(lab, []).append(idx)
    classes = sorted(by_class)
    if len(classes) < 2:
        raise TooFewPointsError("need at least two classes to build triples")
    triples = []
    for lab in classes:
        members = by_class[lab]
        if len(members) < args.per_class:
            raise TooFewPointsError(
                f"class {lab} has {len(members)} members, need {args.per_class}")
        chosen = sorted(rng.choice(len(members), size=args.per_class, replace=False).tolist())
        picked = [members[i] for i in chosen]
        other_classes = [c for c in classes if c != lab]
        for a, b in zip(picked[:-1], picked[1:]):
            oc = other_classes[rng.integers(len(other_classes))]
            s = by_class[oc][rng.integers(len(by_class[oc]))]
            triples.append(ConstraintTriple(a, b, s))
    if args.both_ways:
        # cross-class similarity ordered by class-id distance; chains of these
        # typically close cycles in the pair graph
        for lab in classes:
            ranked = sorted((c for c in classes if c != lab), key=lambda c: abs(c - lab))
            if len(ranked) < 2:
                continue
            near, far = ranked[0], ranked[-1]
            q = by_class[lab][rng.integers(len(by_class[lab]))]
            r = by_class[near][rng.integers(len(by_class[near]))]
            s = by_class[far][rng.integers(len(by_class[far]))]
            if len({q, r, s}) == 3:
                triples.append(ConstraintTriple(q, r, s))
    cset = ConstraintSet(Target.H_COLS, triples)
    write_constraints(args.out, set_h=cset)
    print(f"wrote {len(cset)} triples to {args.out}")
    return 0


# ------------------------------------------------------------------ parser


def _add_solver_flags(p, flags, lambda_h=0.0, max_iters=500, rel_tol=1e-6):
    """Add --max-iters, --rel-tol and --seed, and the space-separated ``flags`` among
    k, measure, lambda-w and lambda-h: those the command reads."""
    optional = {
        "k": dict(type=int, default=20),
        "measure": dict(choices=("euc", "div"), default="euc"),
        "lambda-w": dict(type=float, default=0.0),
        "lambda-h": dict(type=float, default=lambda_h),
    }
    for name in flags.split():
        p.add_argument(f"--{name}", **optional[name])
    p.add_argument("--max-iters", dest="max_iters", type=int, default=max_iters)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=rel_tol)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rprnmf", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rprnmf {__version__}")
    # no prefix matching of long flags, or a flag a command does not take could
    # pass as one it does (--measure as --measures)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("factorize", help="factorise one matrix and write a JSON report")
    p.add_argument("--matrix", required=True)
    p.add_argument("--constraints")
    masks = p.add_mutually_exclusive_group()
    masks.add_argument("--mask")
    masks.add_argument("--treat-zero-as-missing", action="store_true")
    p.add_argument("--out")
    _add_solver_flags(p, "k measure lambda-w lambda-h")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("syn1", help="sweep the constraint-group count on synthetic data")
    p.add_argument("--out", required=True)
    p.add_argument("--groups", default="10", help="max group count, or explicit comma list")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--triples-per-group", dest="triples_per_group", type=int, default=5)
    p.add_argument("--measures", default="euc,div")
    p.add_argument("--threads", type=int, default=1)
    _add_solver_flags(p, "k lambda-h", lambda_h=1.0, max_iters=800, rel_tol=1e-9)
    p.set_defaults(func=cmd_syn1)

    p = sub.add_parser("syn2", help="sweep the matrix size on synthetic data")
    p.add_argument("--out", required=True)
    p.add_argument("--sizes", default="20,40,60,80,100,120,140,160,180,200")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--measures", default="euc,div")
    p.add_argument("--threads", type=int, default=1)
    _add_solver_flags(p, "lambda-h", lambda_h=1.0, max_iters=800, rel_tol=1e-9)  # k = size // 5
    p.set_defaults(func=cmd_syn2)

    p = sub.add_parser("param-sweep", help="sweep the penalty coefficient grid")
    p.add_argument("--out", required=True)
    p.add_argument("--lambdas", help="comma list; default 0.4..4 step 0.4 plus 20..100 step 20")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--n-constraints", dest="n_constraints", type=int, default=None,
                   help="triples per side (default n/10)")
    p.add_argument("--measures", default="euc,div")
    p.add_argument("--threads", type=int, default=1)
    _add_solver_flags(p, "k", max_iters=1000, rel_tol=1e-9)  # the grid sets both coefficients
    p.set_defaults(func=cmd_param_sweep)

    p = sub.add_parser("convert", help="convert constraints to a weight or label matrix")
    p.add_argument("--constraints", required=True)
    p.add_argument("--to", choices=("weights", "labels"), required=True)
    p.add_argument("--m", type=int, default=None, help="column dimension (default: max index)")
    p.add_argument("--mins", type=float, default=0.0)
    p.add_argument("--maxs", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("crossvalidate", help="masked factorisation over CV folds of a ratings file")
    p.add_argument("--ratings", required=True)
    p.add_argument("--format", choices=("ml1m", "csv"), default="ml1m")
    p.add_argument("--constraints")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    _add_solver_flags(p, "k measure lambda-w lambda-h")
    p.set_defaults(func=cmd_crossvalidate)

    p = sub.add_parser("extract-constraints", help="build triples from a class-label file")
    p.add_argument("--labels", required=True)
    p.add_argument("--per-class", dest="per_class", type=int, default=2)
    p.add_argument("--both-ways", dest="both_ways", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract_constraints)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's own exit: 0 for --help, 2 for a usage error
        return exc.code
    try:
        _check_args(args)
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, RaggedCsvError, NonNumericCsvError, MalformedLineError,
            UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RprNmfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
