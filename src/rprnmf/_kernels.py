"""The compiled kernels: ``_sweep.c`` built with the system's C compiler on first use.

The library holds ``rpr_sweep``, the constrained walk of a sweep
(:func:`rprnmf.solver._sweep`), ``rpr_model``, W @ H at the observed
cells (:meth:`rprnmf.matrix.ObservedCells.model`), ``rpr_ordering``, the
widest increasing ordering of a chain's points
(:func:`rprnmf.constraints._increasing_ordering`), ``rpr_read_ratings``,
the whole-file ratings scan (:func:`rprnmf.io.read_ratings`), and
``rpr_read_dense``, the whole-file dense CSV scan
(:func:`rprnmf.io.read_dense_csv`).  ``rpr_model``
reads the cells' int64 row pointer and int32 columns and walks a row's cells
four at a time, one accumulator per cell, so each sum is bit for bit the
one-cell loop's.  ``rpr_ordering`` visits, prunes and breaks ties as the
Python search in ``tests/oracles.py``, so it returns the same path and gap.
The two scans share one value grammar, and each returns -1 for any text it
does not take whole, which its line loop then reads.  The four modules
import this one, and the library is built and loaded once per process, so
the first chain generation, ratings read or dense CSV read builds it too.
``tests/mutate_kernels.py`` checks that the sweep, model, chain, ratings
and dense CSV tests fail on each of a list of mutants of the source.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

from .exceptions import SweepBuildError

# the compiler and flags of the library, built on first use
CC = "gcc"
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_SOURCE = Path(__file__).with_name("_sweep.c")
_compiled = None  # the loaded library


def _build(path: Path) -> None:
    try:
        proc = subprocess.run([CC, *CFLAGS, "-o", str(path), str(_SOURCE), "-lm"],
                              capture_output=True, text=True)
    except OSError as exc:
        raise SweepBuildError(f"cannot run C compiler {CC!r} to build {_SOURCE.name}: {exc}") from None
    if proc.returncode != 0:
        raise SweepBuildError(f"C compiler {CC!r} failed to build {_SOURCE.name} "
                              f"(exit {proc.returncode}): {proc.stderr.strip()}")


def _load() -> ctypes.CDLL:
    """The compiled library, built on first use and cached by source, compiler and flags.

    The library lives in the package's ``__pycache__``, or in a directory of
    this process's own when that is not writable.  Each build writes a fresh
    temporary name and renames it into place, so processes that build at
    once do not see each other's half-written files, and then removes the
    libraries of older sources or flags.
    """
    global _compiled
    if _compiled is not None:
        return _compiled
    key = hashlib.sha256(_SOURCE.read_bytes() + repr((CC, CFLAGS)).encode()).hexdigest()[:16]
    lib_path = _SOURCE.parent / "__pycache__" / f"_sweep-{key}.so"
    own_dir = None
    if not lib_path.exists():
        try:
            lib_path.parent.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib_path.parent)
        except OSError:
            own_dir = tempfile.mkdtemp(prefix="rprnmf-")
            lib_path = Path(own_dir, lib_path.name)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=own_dir)
        os.close(fd)
        try:
            _build(Path(tmp))
            os.replace(tmp, lib_path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        for stale in lib_path.parent.glob("_sweep-*.so"):
            if stale != lib_path:
                try:
                    stale.unlink()
                except OSError:
                    pass  # removed by another build, or in a read-only cache
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError as exc:
        raise SweepBuildError(f"cannot load {lib_path} built by {CC!r}: {exc}") from None
    finally:
        if own_dir is not None:
            shutil.rmtree(own_dir)  # a loaded library outlives its file
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.rpr_sweep.argtypes = ([ptr, i64, i64, i64] + [ptr, i64, i64] * 2 + [i64] + [ptr] * 4
                              + [i64] + [ptr] * 2 + [f64, ctypes.c_int, f64, f64, ptr])
    lib.rpr_sweep.restype = ctypes.c_int
    lib.rpr_model.argtypes = [ptr, ptr, i64, i64, ptr, ptr, ptr]
    lib.rpr_model.restype = None
    lib.rpr_ordering.argtypes = [ptr, i64, ptr]
    lib.rpr_ordering.restype = f64
    lib.rpr_read_ratings.argtypes = [ctypes.c_char_p, i64, ctypes.c_char_p, i64, i64] + [ptr] * 3
    lib.rpr_read_ratings.restype = i64
    lib.rpr_read_dense.argtypes = [ctypes.c_char_p, i64, i64, ptr, ptr]
    lib.rpr_read_dense.restype = i64
    _compiled = lib
    return lib
