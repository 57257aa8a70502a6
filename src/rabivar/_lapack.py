"""LAPACK's symmetric tridiagonal eigensolvers, loaded without ``scipy.linalg``.

rabivar needs exactly two of ``scipy.linalg.eigh_tridiagonal``'s paths: the
lowest eigenpair (``select="i", select_range=(0, 0)``: ``dstebz``, then
``dstein``) and the full spectrum (``dstevd``).  Importing ``scipy.linalg``
for them runs its package ``__init__``, which loads ``scipy._lib``, the
array-API layer and parts of numpy (``f2py``, ``testing``, ``ma``,
``random``) that rabivar never uses, about 0.3 s and 20 MB per process.
This module loads only the compiled extension those routines live in,
``scipy/linalg/_flapack``, found through ``importlib.util.find_spec``, which
does not import scipy, and calls them with the arguments
``eigh_tridiagonal`` passes, so the results are bit-identical to it.  Every
check ``eigh_tridiagonal`` makes on these paths is kept: finite 1-D input of
matching lengths, the size-1 quick exit, and every LAPACK ``info``
(negative: ``ValueError``; positive: ``numpy.linalg.LinAlgError``, the error
scipy raises).

The extension is private to scipy and its f2py signatures may change; this
module was checked against scipy 1.17.1 (the dependency floor is 1.10).  A
missing extension or routine raises :class:`LapackUnavailable` naming the
file; there is no fallback to ``scipy.linalg``.
"""

from __future__ import annotations

import importlib.util
import os
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .errors import LapackUnavailable

_ROUTINES = ("dstebz", "dstein", "dstevd")


def _load_flapack():
    """The extension module scipy.linalg._flapack, loaded from its file alone."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise LapackUnavailable("scipy is not installed; rabivar loads LAPACK from scipy/linalg/_flapack")
    stem = os.path.join(os.path.dirname(spec.origin), "linalg", "_flapack")
    paths = [stem + suffix for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise LapackUnavailable(f"no LAPACK extension at {paths[0]}", path=paths[0])
    # The spec carries the real name: the init symbol is PyInit__flapack.
    ext_spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(ext_spec)
    ext_spec.loader.exec_module(module)
    missing = [name for name in _ROUTINES if not hasattr(module, name)]
    if missing:
        raise LapackUnavailable(f"{path} has no {', '.join(missing)}", path=path)
    return module


_flapack = _load_flapack()


def _check_info(info: int, routine: str, positive: str = "did not converge (LAPACK info=%d)") -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} " + positive % info)


def _chain(d, e):
    """Validated (diagonal, off-diagonal) of a symmetric tridiagonal matrix."""
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    return d, e


def lowest_eigenpair(d, e) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and its unit eigenvector, as eigh_tridiagonal(d, e, select="i", select_range=(0, 0))."""
    d, e = _chain(d, e)
    if d.size == 1:
        return float(d[0]), np.array([1.0])
    # Index range il = iu = 1 (range 2; vl, vu unused), tolerance 0 (eps |T|),
    # eigenvalues in block order as dstein needs them.
    m, w, iblock, isplit, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    _check_info(info, "dstebz")
    w = w[:m]
    v, info = _flapack.dstein(d, e, w, iblock, isplit)
    _check_info(info, "dstein", positive="%d eigenvectors failed to converge")
    k = int(np.argsort(w)[0])  # block order to matrix order
    return float(w[k]), v[:, k]


def eigenpairs(d, e) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues (ascending) and eigenvectors (columns), as eigh_tridiagonal(d, e)."""
    d, e = _chain(d, e)
    if d.size == 1:
        return np.array([d[0]]), np.array([[1.0]])
    w, v, info = _flapack.dstevd(d, e, compute_v=1)
    _check_info(info, "dstevd")
    return w, v
