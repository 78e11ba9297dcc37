"""File formats: dense CSV matrices, ratings tables, CV splits, JSON reports.

Every text reader takes its lines from :func:`data_lines` and rejects
malformed input rather than coercing it: a bad line raises
:class:`MalformedLineError`, which carries its 1-based line number.  A
ratings file goes first to the compiled ``rpr_read_ratings`` and a dense or
mask CSV to ``rpr_read_dense``, so either read builds the compiled kernels;
both scans read values by one rule, and a file a scan does not take whole
goes through its line loop, which names the first bad line.  Splitters are
deterministic functions of their seed.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._kernels import _load
from .exceptions import (
    InvalidRangeError,
    MalformedLineError,
    TooSparseError,
)
from .matrix import DenseMatrix, MaskMatrix, as_array, as_mask

if TYPE_CHECKING:  # at run time, solver imports constraints, which imports data_lines
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


def data_lines(lines):
    """Each line of ``lines`` that holds more than blanks and a ``#`` comment,
    as its 1-based number and its stripped text without the comment."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_dense_csv(path) -> DenseMatrix:
    """A comma-separated matrix, one row per line, read by the compiled scan
    where it takes the file whole and by the line loop otherwise."""
    with open(path, "rb") as fh:
        data = fh.read()
    a = _dense_whole(data)
    if a is None:
        # the lines open(path, encoding="utf-8") gives: universal newlines
        return DenseMatrix(_dense_by_line(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")))
    return DenseMatrix.wrap(a)


def _dense_whole(data: bytes):
    """The matrix in a dense CSV file's bytes, parsed whole by the compiled
    ``rpr_read_dense``, or None where the line loop must decide.

    This accepts a subset of what :func:`_dense_by_line` accepts, with the
    same values: lines empty or of one common width, values padded by spaces
    and tabs and read by the ratings scan's value rule.  A file with a ``#``
    anywhere is left to the loop, which owns comments.
    """
    # every row has the first's width and there is one row per line at most,
    # and n values take at least 2n - 1 bytes; a text with lone \r line ends
    # may hold more, and is then left to the loop
    head = data.lstrip(b" \t\r\n")  # the text itself unless it starts blank
    eol = head.find(b"\n")
    fields = head.count(b",", 0, eol if eol >= 0 else len(head)) + 1
    cap = min((data.count(b"\n") + 1) * fields, (len(data) + 1) // 2)
    del head
    out, width = np.empty(cap), np.zeros(1, dtype=np.int64)
    rows = _load().rpr_read_dense(data, len(data), cap, out.ctypes.data, width.ctypes.data)
    if rows < 0:
        return None
    return out[:rows * width[0]].reshape(rows, width[0])


def _dense_by_line(lines) -> list[list[float]]:
    """The rows of a dense CSV file's lines; raises :class:`MalformedLineError`
    naming the first bad line."""
    rows: list[list[float]] = []
    for lineno, line in data_lines(lines):
        tokens = line.split(",")
        if rows and len(tokens) != len(rows[0]):
            raise MalformedLineError(lineno, f"expected {len(rows[0])} fields, got {len(tokens)}")
        try:
            rows.append([float(t) for t in tokens])
        except ValueError:
            bad = next(t for t in tokens if not _is_float(t))
            raise MalformedLineError(lineno, f"non-numeric value {bad!r}") from None
    if not rows:
        raise MalformedLineError(1, "empty file")
    return rows


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


def read_labels_file(path) -> list[int]:
    """One integer label per line."""
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in data_lines(fh):
            try:
                labels.append(int(line))
            except ValueError:
                raise MalformedLineError(lineno, "labels must be integers") from None
    return labels


@dataclass
class RatingsTable:
    """Sparse ratings with densified contiguous 1-based user/item ids, one per
    (user, item) pair in ascending order, which :func:`ratings_to_matrix` relies on.
    A file's timestamps are checked on reading and not kept."""

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
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

    A timestamp must read as a number and is then dropped; lines with and
    without one may mix.  Duplicate (user, item) pairs keep the last
    occurrence; ids are densified to contiguous 1-based indices in ascending
    raw-id order, which drops any user/item that no surviving rating references.
    """
    if fmt not in ("ml1m", "csv"):
        raise InvalidRangeError(f"unknown ratings format {fmt!r}")
    sep = "::" if fmt == "ml1m" else ","
    with open(path, "rb") as fh:
        data = fh.read()
    columns = _ratings_whole(data, sep)
    if columns is None:
        # the text open(path, encoding="utf-8").read() gives: universal newlines
        columns = _ratings_by_line(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read(), sep)
    del data  # freed before the table's temporaries, which lowers the heap's high-water mark
    return _ratings_table(*columns)


def _ratings_whole(data: bytes, sep: str):
    """The columns of a ratings file's bytes, parsed whole by the compiled
    ``rpr_read_ratings``, or None where the line loop must decide.

    This accepts a subset of what :func:`_ratings_by_line` accepts, with the
    same values: lines empty or of 3 or 4 fields, in any mix, fields padded
    by spaces and tabs, int64 ids and values that ``strtod_l`` reads whole
    in the C locale, less empty ones, hex and ``nan(...)``: ``float()``'s
    grammar less underscores.  A timestamp is checked as a value and dropped.
    A file with a ``#`` anywhere is left to the loop, which owns comments.
    """
    # one row per line at most; a text with lone \r line ends may have more
    # lines, and is then left to the loop
    cap = data.count(b"\n") + 1
    users, items, ratings = np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64), np.empty(cap)
    rows = _load().rpr_read_ratings(data, len(data), sep.encode(), len(sep), cap, users.ctypes.data,
                                    items.ctypes.data, ratings.ctypes.data)
    if rows < 0:
        return None
    return users[:rows], items[:rows], ratings[:rows]


def _ratings_by_line(text: str, sep: str):
    """The user, item and rating columns of a ratings text, line by line;
    raises :class:`MalformedLineError` naming the first bad line.  A
    timestamp is checked by ``float()`` and dropped."""
    rows: list[tuple[int, int, float]] = []
    for lineno, line in data_lines(text.split("\n")):
        parts = line.split(sep)
        if len(parts) not in (3, 4):
            raise MalformedLineError(lineno, f"expected 3 or 4 fields, got {len(parts)}")
        try:
            row = (int(parts[0]), int(parts[1]), float(parts[2]))
            if len(parts) == 4:
                float(parts[3])
            # the scan's id domain; a wider id would make its column float or object
            for i in row[:2]:
                if not -2**63 <= i < 2**63:
                    raise ValueError(f"id {i} does not fit int64")
        except ValueError as exc:
            raise MalformedLineError(lineno, str(exc)) from exc
        rows.append(row)
    return tuple(np.array([row[c] for row in rows]) for c in range(3))


def _densified(ids):
    """``np.unique(ids, return_inverse=True)`` of an int64 id column: its
    distinct ids ascending and each entry's place among them.  Where the ids
    span at most ``4 * ids.size`` values, a presence map over that span gives
    both without sorting."""
    # Python ints, so hi - lo cannot overflow; an empty column takes np.unique
    lo, hi = (int(ids.min()), int(ids.max())) if ids.size else (0, 0)
    if hi - lo >= 4 * ids.size:
        return np.unique(ids, return_inverse=True)
    offset = ids - lo
    seen = np.zeros(hi - lo + 1, dtype=bool)
    seen[offset] = True
    return np.flatnonzero(seen) + lo, (np.cumsum(seen) - 1)[offset]


def _ratings_table(users, items, ratings) -> RatingsTable:
    user_ids, users = _densified(users)
    item_ids, items = _densified(items)
    key = users * item_ids.size + items
    # a stable sort keeps each key's lines in file order, so the last line
    # of each run of equal keys is the one kept
    order = np.argsort(key, kind="stable")
    key = key[order]
    last = np.ones(key.size, dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    keep = order[last]
    dupes = key.size - keep.size
    if dupes:
        log.warning("read_ratings: %d duplicate (user, item) pairs dropped (last wins)", dupes)
    return RatingsTable(users[keep] + 1, items[keep] + 1, ratings[keep],
                        user_ids.tolist(), item_ids.tolist(), dupes)


def ratings_to_matrix(table: RatingsTable) -> tuple[DenseMatrix, MaskMatrix]:
    """Dense matrix with zeros at unobserved cells, plus the observation mask."""
    shape = (table.n_users, table.n_items)
    # the table's rows are in ascending (user, item) order, so flat ascends
    flat = (table.users - 1) * shape[1] + (table.items - 1)
    v = np.zeros(shape)
    v.ravel()[flat] = table.ratings
    return DenseMatrix.wrap(v), MaskMatrix.from_flat(shape, flat)


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
        """The observed cells outside fold ``fold``'s held-out cells, which are among them."""
        train = np.ones(self.observed.count, dtype=bool)
        train[np.searchsorted(self.observed.flat, self.fold_masks[fold].flat)] = False
        return MaskMatrix.from_flat(self.observed.shape, self.observed.flat[train])


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
    indptr, cols = observed.csr_layout()
    row_size = np.diff(indptr)
    rows = np.repeat(np.arange(n), row_size)
    order = np.random.default_rng(seed).permutation(len(cells))
    # the entry at position p of the permutation goes to fold p % folds
    fold_of = np.empty(len(cells), dtype=np.intp)
    for f in range(folds):
        fold_of[order[f::folds]] = f

    # a row with no training entry in its fold has all its entries held
    # there: the first of them, in row-major order, goes back to training
    held_rows = np.bincount(fold_of * n + rows, minlength=folds * n).reshape(folds, n)
    moved_rows = indptr[np.flatnonzero((held_rows == row_size).any(axis=0) & (row_size > 0))]
    # then the same for columns, counted without the entries just moved
    col_size = np.bincount(cols, minlength=m)
    held_cols = np.bincount(fold_of * m + cols, minlength=folds * m)
    held_cols -= np.bincount(fold_of[moved_rows] * m + cols[moved_rows], minlength=folds * m)
    gap = (held_cols.reshape(folds, m) == col_size).any(axis=0) & (col_size > 0)
    # every entry of a gap column is held, so its first is the column's first
    in_gap = np.flatnonzero(gap[cols])
    _, first = np.unique(cols[in_gap], return_index=True)
    moved = np.concatenate([moved_rows, in_gap[first]])
    fold_of[moved] = folds  # always train

    reassigned = moved.size
    if reassigned:
        log.info("make_cv_split: %d entries moved to always-train for coverage", reassigned)
    # on a scattered mask, flatnonzero then a take is faster than a boolean index
    return CvSplit(observed, [MaskMatrix.from_flat((n, m), cells[np.flatnonzero(fold_of == f)])
                              for f in range(folds)], reassigned)


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

