"""File formats: dense CSV matrices, ratings tables, CV splits, JSON reports.

Readers reject malformed input rather than coercing it, and error messages
carry 1-based line numbers.  Splitters are deterministic functions of their
seed.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    InvalidRangeError,
    MalformedLineError,
    NonNumericCsvError,
    RaggedCsvError,
    TooSparseError,
)
from .matrix import DenseMatrix, MaskMatrix, as_array, as_mask_array
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
    """Sparse ratings with densified contiguous 1-based user/item ids."""

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

    Duplicate (user, item) pairs keep the last occurrence; ids are densified
    to contiguous 1-based indices in ascending raw-id order, which drops any
    user/item that no surviving rating references.
    """
    if fmt not in ("ml1m", "csv"):
        raise InvalidRangeError(f"unknown ratings format {fmt!r}")
    sep = "::" if fmt == "ml1m" else ","
    entries: dict[tuple[int, int], tuple[float, float | None]] = {}
    dupes = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(sep)
            if len(parts) not in (3, 4):
                raise MalformedLineError(lineno, f"expected 3 or 4 fields, got {len(parts)}")
            try:
                user = int(parts[0])
                item = int(parts[1])
                rating = float(parts[2])
                ts = float(parts[3]) if len(parts) == 4 else None
            except ValueError as exc:
                raise MalformedLineError(lineno, str(exc)) from exc
            key = (user, item)
            if key in entries:
                dupes += 1
            entries[key] = (rating, ts)
    if dupes:
        log.warning("read_ratings: %d duplicate (user, item) pairs dropped (last wins)", dupes)
    user_ids = sorted({u for u, _ in entries})
    item_ids = sorted({i for _, i in entries})
    u_dense = {u: i + 1 for i, u in enumerate(user_ids)}
    i_dense = {it: i + 1 for i, it in enumerate(item_ids)}
    keys = sorted(entries)
    users = np.array([u_dense[u] for u, _ in keys], dtype=int)
    items = np.array([i_dense[i] for _, i in keys], dtype=int)
    ratings = np.array([entries[k][0] for k in keys])
    has_ts = all(entries[k][1] is not None for k in keys)
    timestamps = np.array([entries[k][1] for k in keys]) if has_ts and keys else None
    return RatingsTable(users, items, ratings, timestamps, user_ids, item_ids, dupes)


def ratings_to_matrix(table: RatingsTable) -> tuple[DenseMatrix, MaskMatrix]:
    """Dense matrix with zeros at unobserved cells, plus the observation mask."""
    v = np.zeros((table.n_users, table.n_items))
    bits = np.zeros_like(v)
    v[table.users - 1, table.items - 1] = table.ratings
    bits[table.users - 1, table.items - 1] = 1.0
    return DenseMatrix(v), MaskMatrix(bits)


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
        return MaskMatrix(self.observed.bits - self.fold_masks[fold].bits)


def make_cv_split(mask, folds: int, seed: int) -> CvSplit:
    """Partition observed entries into folds of near-equal size, deterministically.

    Entries whose removal would leave a training row or column empty are
    pulled out of their fold entirely (they train in every fold); the move
    count is logged and reported on the split.  Rows are repaired first, then
    columns, each by moving back its first held entry in row-major order.
    """
    if folds < 2:
        raise InvalidRangeError(f"need at least 2 folds, got {folds}")
    observed = MaskMatrix(as_mask_array(mask))
    n, m = observed.bits.shape
    cells = np.flatnonzero(observed.bits)
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
        bits = np.zeros((n, m))
        bits.ravel()[cells[held]] = 1.0
        fold_masks.append(MaskMatrix(bits))
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
