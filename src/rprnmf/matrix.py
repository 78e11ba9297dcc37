"""Dense matrix and mask types plus the elementwise/product primitives.

Matrices are thin wrappers around row-major float64 numpy arrays.  The
:class:`DenseMatrix` constructor accepts signed values; non-negativity of
data is checked where it matters, by the solver.  A masked data matrix
reduces to :class:`ObservedCells`, so work on it scales with the observed
cells rather than with N x M.

``EPS`` is the single clamping constant shared by every divisor and log
argument in this package.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    DegenerateMaskError,
    NonPositiveModelEntryError,
    ShapeMismatchError,
)

EPS = 1e-12


class DenseMatrix:
    """2-D real matrix with row-major storage.

    Parameters
    ----------
    array : array-like
        Anything numpy can turn into a 2-D float array.  The data is copied
        into a C-contiguous float64 array.
    """

    __slots__ = ("a",)

    def __init__(self, array):
        a = np.array(array, dtype=float, order="C")
        if a.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-D array, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeMismatchError(f"matrix dimensions must be positive, got {a.shape}")
        self.a = a

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def data(self) -> np.ndarray:
        """Entries in row-major order (flat view)."""
        return self.a.ravel()

    def __getitem__(self, key):
        return self.a[key]

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


class MaskMatrix:
    """Binary indicator of observed entries (1 = observed)."""

    __slots__ = ("bits",)

    def __init__(self, array):
        b = np.array(array, dtype=float, order="C")
        if b.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-D mask, got ndim={b.ndim}")
        if not np.isin(b, (0.0, 1.0)).all():
            raise ShapeMismatchError("mask entries must be 0 or 1")
        self.bits = b

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    @property
    def count(self) -> int:
        """Number of observed entries."""
        return int(self.bits.sum())

    def __repr__(self) -> str:
        return f"MaskMatrix({self.rows}x{self.cols}, observed={self.count})"


class ObservedCells:
    """A data matrix reduced to the cells its mask observes.

    The cells are in row-major order, the layout of CSR storage: ``rows`` and
    ``cols`` index them, ``indptr`` is the CSR row pointer and ``v`` holds the
    data there.  Cells of ``v`` outside the mask are never read, so they may
    hold anything.
    """

    __slots__ = ("shape", "rows", "cols", "indptr", "v")

    # cells per chunk of :meth:`model`; bounds its two gathered k-column
    # temporaries to a few MB each
    CHUNK = 65536

    def __init__(self, v, mask):
        va, ma = as_array(v), as_mask_array(mask)
        if ma.shape != va.shape:
            raise ShapeMismatchError(f"mask shape {ma.shape} vs data shape {va.shape}")
        n, m = self.shape = va.shape
        flat = np.flatnonzero(ma != 0)
        self.rows, self.cols = np.divmod(flat, m)
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(self.rows, minlength=n))))
        self.v = va.take(flat)

    def require_coverage(self) -> None:
        """Reject masks with an all-zero row or column.

        Such masks leave a row/column of the factorisation entirely
        unconstrained, so they are refused wherever a mask feeds a solve.
        """
        row_gap = np.flatnonzero(np.diff(self.indptr) == 0)
        col_gap = np.flatnonzero(np.bincount(self.cols, minlength=self.shape[1]) == 0)
        if row_gap.size or col_gap.size:
            raise DegenerateMaskError(
                f"mask has empty rows {row_gap.tolist()} / columns {col_gap.tolist()}"
            )

    def csr(self, values) -> sp.csr_matrix:
        """N x M sparse matrix holding ``values`` (one per cell) at the cells."""
        return sp.csr_matrix((values, self.cols, self.indptr), shape=self.shape)

    def model(self, w: np.ndarray, h: np.ndarray) -> np.ndarray:
        """W @ H at the cells only: row-wise dots of W[rows] with H[:, cols].T."""
        ht = np.ascontiguousarray(h.T)
        out = np.empty(self.rows.size)
        for lo in range(0, out.size, self.CHUNK):
            sl = slice(lo, lo + self.CHUNK)
            out[sl] = np.einsum("ij,ij->i", w[self.rows[sl]], ht[self.cols[sl]])
        return out


def as_array(m) -> np.ndarray:
    """Accept a DenseMatrix or any array-like; return the float ndarray."""
    if isinstance(m, DenseMatrix):
        return m.a
    return np.asarray(m, dtype=float)


def as_mask_array(mask) -> np.ndarray | None:
    if mask is None:
        return None
    if isinstance(mask, MaskMatrix):
        return mask.bits
    return np.asarray(mask, dtype=float)


def _observed(v, wh, mask) -> tuple[np.ndarray, np.ndarray]:
    """``v`` and ``wh`` at the observed entries: all of them when unmasked."""
    va, wa, ma = as_array(v), as_array(wh), as_mask_array(mask)
    if va.shape != wa.shape:
        raise ShapeMismatchError(f"shape {va.shape} vs {wa.shape}")
    if ma is None:
        return va, wa
    if ma.shape != va.shape:
        raise ShapeMismatchError(f"mask shape {ma.shape} vs data shape {va.shape}")
    keep = ma != 0
    return va[keep], wa[keep]


def frobenius_sq_diff(v, wh, mask=None) -> float:
    """Sum of squared differences, restricted to observed entries when masked."""
    va, wa = _observed(v, wh, mask)
    d = va - wa
    return float(np.sum(d * d))


def matrix_divergence(v, wh, mask=None) -> float:
    """Generalised KL divergence sum(v*log(v/wh) - v + wh) over observed entries.

    Zero data entries contribute ``wh`` only (0*log(0/y) = 0).  Model entries
    below EPS are clamped; negative model entries are rejected outright.
    """
    va, wa = _observed(v, wh, mask)
    if np.any(wa < 0):
        raise NonPositiveModelEntryError("model matrix has negative entries at observed cells")
    wc = np.maximum(wa, EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.where(va > 0, va * np.log(np.maximum(va, EPS) / wc), 0.0)
    return float(np.sum(lg - va + wa))
