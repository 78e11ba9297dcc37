"""Dense matrix and mask types plus the elementwise/product primitives.

Matrices are thin wrappers around row-major float64 numpy arrays.  The
:class:`DenseMatrix` constructor accepts signed values; non-negativity of
data is checked where it matters, by the solver.  A masked data matrix
reduces to :class:`ObservedCells`, so work on it scales with the observed
cells rather than with N x M.  Its model W @ H at the cells comes from the
compiled ``rpr_model`` in ``_sweep.c`` (see :mod:`rprnmf._kernels`), so a
masked run builds the C library even when no penalty is on.  The two fits,
:func:`frobenius_sq_diff` and :func:`matrix_divergence`, compare two arrays
of one shape: V and W @ H whole, or their values at the observed cells.

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
from ._kernels import _load

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

    def __getitem__(self, key):
        return self.a[key]

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


class MaskMatrix:
    """Indicator of observed entries: a shape and the observed cells.

    ``flat`` holds the observed cells' row-major flat indices, ascending, as a
    read-only array.  ``MaskMatrix(array)`` checks a dense 0/1 array given
    from outside; :meth:`from_flat` wraps indices the package built itself.
    """

    __slots__ = ("shape", "flat")

    def __init__(self, array):
        b = np.asarray(array, dtype=float)
        if b.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-D mask, got ndim={b.ndim}")
        if not np.isin(b, (0.0, 1.0)).all():
            raise ShapeMismatchError("mask entries must be 0 or 1")
        self.shape, self.flat = b.shape, np.flatnonzero(b)
        self.flat.flags.writeable = False

    @classmethod
    def from_flat(cls, shape, flat) -> MaskMatrix:
        """Unchecked mask of ``shape`` at the ascending flat indices ``flat``, made read-only."""
        mask = cls.__new__(cls)
        mask.shape, mask.flat = tuple(shape), np.asarray(flat, dtype=np.intp)
        mask.flat.flags.writeable = False
        return mask

    def __reduce__(self):
        return MaskMatrix.from_flat, (self.shape, self.flat)

    @property
    def bits(self) -> np.ndarray:
        """The dense N x M 0/1 float array, built anew on each read."""
        b = np.zeros(self.shape)
        b.ravel()[self.flat] = 1.0
        return b

    @property
    def count(self) -> int:
        """Number of observed entries."""
        return self.flat.size

    def __repr__(self) -> str:
        n, m = self.shape
        return f"MaskMatrix({n}x{m}, observed={self.count})"


class ObservedCells:
    """A data matrix reduced to the cells its mask observes.

    The cells are in row-major order, the layout of CSR storage: ``indptr`` is
    the CSR row pointer, ``cols`` holds each cell's column and ``v`` the data
    there.  Cells of ``v`` outside the mask are never read, so they may
    hold anything.
    """

    __slots__ = ("shape", "cols", "indptr", "v")

    def __init__(self, v, mask):
        va, ma = as_array(v), as_mask(mask)
        if ma.shape != va.shape:
            raise ShapeMismatchError(f"mask shape {ma.shape} vs data shape {va.shape}")
        n, m = self.shape = va.shape
        rows, self.cols = np.divmod(ma.flat, m)
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        self.v = va.take(ma.flat)

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
        """W @ H at the cells: each the dot of W's row and H's column, summed
        in ascending latent index by the compiled ``rpr_model``."""
        # the compiled kernel reads both factors row by row, unchecked
        check_factors(self.shape, w, h)
        if w.dtype != np.float64 or h.dtype != np.float64:
            raise ShapeMismatchError(f"factors must be float64, got {w.dtype} and {h.dtype}")
        w, ht = np.ascontiguousarray(w), np.ascontiguousarray(h.T)
        out = np.empty(self.cols.size)
        _load().rpr_model(w.ctypes.data, ht.ctypes.data, w.shape[1], self.shape[0],
                          self.indptr.ctypes.data, self.cols.ctypes.data, out.ctypes.data)
        return out


def as_array(m) -> np.ndarray:
    """Accept a DenseMatrix or any array-like; return the float ndarray."""
    if isinstance(m, DenseMatrix):
        return m.a
    return np.asarray(m, dtype=float)


def as_mask(mask) -> MaskMatrix:
    """Accept a MaskMatrix, or a 0/1 DenseMatrix or array-like (checked); return the MaskMatrix."""
    return mask if isinstance(mask, MaskMatrix) else MaskMatrix(as_array(mask))


def check_factors(shape, w: np.ndarray, h: np.ndarray) -> None:
    """Refuse factors other than a 2-D W (N x K) and H (K x M) for data of ``shape`` (N, M)."""
    if w.ndim != 2 or h.ndim != 2 or (w.shape[0], h.shape[1]) != tuple(shape) or w.shape[1] != h.shape[0]:
        raise ShapeMismatchError(f"factor shapes {w.shape}, {h.shape} do not fit data {shape}")


def _same_shape(v, wh) -> tuple[np.ndarray, np.ndarray]:
    va, wa = as_array(v), as_array(wh)
    if va.shape != wa.shape:
        raise ShapeMismatchError(f"shape {va.shape} vs {wa.shape}")
    return va, wa


def frobenius_sq_diff(v, wh) -> float:
    """Sum of squared differences of two arrays of one shape."""
    va, wa = _same_shape(v, wh)
    d = va - wa
    return float(np.sum(d * d))


def matrix_divergence(v, wh) -> float:
    """Generalised KL divergence sum(v*log(v/wh) - v + wh) of two arrays of one shape.

    Model entries below EPS are clamped to EPS in both terms, so zero data
    entries contribute that clamped ``wh`` only (0*log(0/y) = 0); negative
    model entries are rejected outright.
    """
    va, wa = _same_shape(v, wh)
    if np.any(wa < 0):
        raise NonPositiveModelEntryError("model matrix has negative entries at observed cells")
    wc = np.maximum(wa, EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.where(va > 0, va * np.log(np.maximum(va, EPS) / wc), 0.0)
    return float(np.sum(lg - va + wc))
