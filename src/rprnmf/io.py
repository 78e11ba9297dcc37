"""File formats: dense CSV matrices, ratings tables, CV splits, JSON reports.

Readers reject malformed input rather than coercing it, and error messages
carry 1-based line numbers.  Splitters are deterministic functions of their
seed.
"""

from __future__ import annotations

import io
import json
import logging
import re
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    InvalidRangeError,
    MalformedLineError,
    NonNumericCsvError,
    RaggedCsvError,
    TooSparseError,
)
from .matrix import DenseMatrix, MaskMatrix, as_array, as_mask
from .solver import FactorisationReport, SolverConfig

log = logging.getLogger(__name__)

REPORT_SCHEMA = "rprnmf-report/1"
_METRIC_KEYS = ("msl", "md", "csr", "rmse", "f1")


def write_dense_csv(path, m) -> None:
    """One row per line, comma separated, 17 significant digits (round-trip exact)."""
    a = as_array(m)
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")


def read_dense_csv(path) -> DenseMatrix:
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split(",")
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise RaggedCsvError(lineno, f"expected {width} fields, got {len(tokens)}")
            try:
                rows.append([float(t) for t in tokens])
            except ValueError:
                bad = next(t for t in tokens if not _is_float(t))
                raise NonNumericCsvError(lineno, bad) from None
    if not rows:
        raise RaggedCsvError(1, "empty file")
    return DenseMatrix(rows)


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_mask_csv(path) -> MaskMatrix:
    return MaskMatrix(read_dense_csv(path).a)


def zeros_as_missing(m) -> MaskMatrix:
    """Mask that hides exactly-zero entries (opt-in zero-means-missing reading)."""
    return MaskMatrix((as_array(m) != 0).astype(float))


@dataclass
class RatingsTable:
    """Sparse ratings with densified contiguous 1-based user/item ids, one per
    (user, item) pair in ascending order, which :func:`ratings_to_matrix` relies on."""

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    timestamps: np.ndarray | None
    user_ids: list[int]
    item_ids: list[int]
    duplicates_dropped: int = 0

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)


def read_ratings(path, fmt: str = "ml1m") -> RatingsTable:
    """Parse ``user::item::rating[::timestamp]`` lines or the CSV equivalent.

    Blank lines and lines starting with ``#`` are skipped.  Duplicate (user,
    item) pairs keep the last occurrence; ids are densified to contiguous
    1-based indices in ascending raw-id order, which drops any user/item that
    no surviving rating references.
    """
    if fmt not in ("ml1m", "csv"):
        raise InvalidRangeError(f"unknown ratings format {fmt!r}")
    sep = "::" if fmt == "ml1m" else ","
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    columns = _ratings_whole(text, sep)
    if columns is None:
        columns = _ratings_by_line(text, sep)
    return _ratings_table(*columns)


_RATINGS_DTYPE = [("user", "i8"), ("item", "i8"), ("rating", "f8"), ("stamp", "f8")]


def _ratings_whole(text: str, sep: str):
    """The columns of a ratings text parsed whole, or None where the line
    loop must decide.

    This accepts a subset of what :func:`_ratings_by_line` accepts, with the
    same values: every line empty or with the field count of the first
    non-blank line, ids that parse as int64 and no ``#`` anywhere.  Timestamps
    are None when the lines have three fields.
    """
    if "#" in text:
        return None
    if sep != ",":
        # the separator's split points become the commas; a comma already
        # there would not split a field in the loop
        if "," in text:
            return None
        text = text.replace(sep, ",")
    first = re.search(r"\S[^\n]*", text)
    fields = first.group().count(",") + 1 if first else 0
    if fields not in (3, 4):
        return None
    try:
        a = np.loadtxt(io.StringIO(text), dtype=_RATINGS_DTYPE[:fields], delimiter=",",
                       comments=None, ndmin=1)
    except ValueError:
        return None
    return a["user"], a["item"], a["rating"], a["stamp"] if fields == 4 else None


def _ratings_by_line(text: str, sep: str):
    """The columns of a ratings text, line by line; raises
    :class:`MalformedLineError` naming the first bad line.  Timestamps are an
    object array holding None for each line without one."""
    rows: list[tuple[int, int, float, float | None]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(sep)
        if len(parts) not in (3, 4):
            raise MalformedLineError(lineno, f"expected 3 or 4 fields, got {len(parts)}")
        try:
            rows.append((int(parts[0]), int(parts[1]), float(parts[2]),
                         float(parts[3]) if len(parts) == 4 else None))
        except ValueError as exc:
            raise MalformedLineError(lineno, str(exc)) from exc
    # stamps is an object array when some line has no timestamp
    return tuple(np.array([row[c] for row in rows]) for c in range(4))


def _ratings_table(users, items, ratings, stamps) -> RatingsTable:
    user_ids, users = np.unique(users, return_inverse=True)
    item_ids, items = np.unique(items, return_inverse=True)
    # the first of each key in reverse line order is its last line
    key = users * item_ids.size + items
    _, first = np.unique(key[::-1], return_index=True)
    keep = key.size - 1 - first
    dupes = key.size - keep.size
    if dupes:
        log.warning("read_ratings: %d duplicate (user, item) pairs dropped (last wins)", dupes)
    timestamps = None
    if stamps is not None and keep.size:
        stamps = stamps[keep]
        if None not in stamps:
            timestamps = stamps.astype(float)
    return RatingsTable(users[keep] + 1, items[keep] + 1, ratings[keep], timestamps,
                        user_ids.tolist(), item_ids.tolist(), dupes)


def ratings_to_matrix(table: RatingsTable) -> tuple[DenseMatrix, MaskMatrix]:
    """Dense matrix with zeros at unobserved cells, plus the observation mask."""
    shape = (table.n_users, table.n_items)
    cells = (table.users - 1, table.items - 1)
    v = np.zeros(shape)
    v[cells] = table.ratings
    return DenseMatrix(v), MaskMatrix.from_flat(shape, np.ravel_multi_index(cells, shape))


@dataclass
class CvSplit:
    """Disjoint held-out masks over the observed entries of a matrix."""

    observed: MaskMatrix
    fold_masks: list[MaskMatrix]
    reassigned: int = 0

    @property
    def n_folds(self) -> int:
        return len(self.fold_masks)

    def training_mask(self, fold: int) -> MaskMatrix:
        return MaskMatrix.from_flat(self.observed.shape, np.setdiff1d(
            self.observed.flat, self.fold_masks[fold].flat, assume_unique=True))


def make_cv_split(mask, folds: int, seed: int) -> CvSplit:
    """Partition observed entries into folds of near-equal size, deterministically.

    Entries whose removal would leave a training row or column empty are
    pulled out of their fold entirely (they train in every fold); the move
    count is logged and reported on the split.  Rows are repaired first, then
    columns, each by moving back its first held entry in row-major order.
    """
    if folds < 2:
        raise InvalidRangeError(f"need at least 2 folds, got {folds}")
    observed = as_mask(mask)
    n, m = observed.shape
    cells = observed.flat
    if len(cells) < folds:
        raise TooSparseError(f"{len(cells)} observed entries cannot fill {folds} folds")
    rows, cols = np.divmod(cells, m)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(cells))
    # the entry at position p of the permutation goes to fold p % folds
    fold_of = np.empty(len(cells), dtype=int)
    fold_of[order] = np.arange(len(cells)) % folds

    reassigned = 0
    fold_masks = []
    for f in range(folds):
        held = fold_of == f
        # a row (then column) with no training entry has all its entries held:
        # the first of them, in row-major order, goes back to training
        for line, count in ((rows, n), (cols, m)):
            training = np.bincount(line[~held], minlength=count)
            gaps = np.flatnonzero(training[line] == 0)
            _, first = np.unique(line[gaps], return_index=True)
            held[gaps[first]] = False
            reassigned += first.size
        fold_masks.append(MaskMatrix.from_flat((n, m), cells[held]))
    if reassigned:
        log.info("make_cv_split: %d entries moved to always-train for coverage", reassigned)
    return CvSplit(observed, fold_masks, reassigned)


def _config_echo(config: SolverConfig | None) -> dict | None:
    if config is None:
        return None
    return {
        "k": config.k,
        "measure": config.measure.value,
        "lambda_w": config.lambda_w,
        "lambda_h": config.lambda_h,
        "max_iters": config.max_iters,
        "rel_tol": config.rel_tol,
        "seed": config.seed,
        "masked": config.mask is not None,
    }


def write_report(path, report: FactorisationReport, config: SolverConfig | None = None,
                 metrics: dict | None = None) -> None:
    """Serialise a factorisation report plus metric values as JSON."""
    metrics = metrics or {}
    doc = {
        "schema": REPORT_SCHEMA,
        "config": _config_echo(config),
        "seed": config.seed if config is not None else None,
        "iterations": report.iterations,
        "final_objective": report.final_objective,
        "objective_trace": list(report.objective_trace),
        "rollback_iters": list(report.rollback_iters),
        "wall_time_s": report.wall_time_s,
    }
    for key in _METRIC_KEYS:
        value = metrics.get(key, report.csr if key == "csr" else None)
        doc[key] = None if value is None else float(value)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != REPORT_SCHEMA:
        raise MalformedLineError(1, f"unexpected report schema {doc.get('schema')!r}")
    return doc
