"""Dense-matrix and SVD backend used by every other module.

All matrices are plain 2D float ndarrays. The thin SVD (k = min(m, n))
is used everywhere; sign/rotation ambiguity of the factors is accepted
since downstream code only consumes the spectrum or the composed matrix.

`svd` is the one place that decides how LAPACK is called:

- Orientation. A wide matrix (m < n) is factored through its tall
  transpose, x.T = U S V^T, so x = V S U^T; LAPACK's tall path is the
  faster one, and the spectrum moves only in the last digits.
- One BLAS thread. The call runs with OpenBLAS set to a single thread:
  at the sizes this package solves (32x512 to 128x2048), two threads
  made the thin SVD 1.7 to 2.4 times as slow as one on a 2-vCPU
  machine. The count in force before the call is read first and
  restored when the call returns or LAPACK raises; nested or concurrent
  calls restore it once, when the last of them exits. The library's
  SVDs therefore run single-threaded whatever OPENBLAS_NUM_THREADS
  says; that variable is read only when OpenBLAS loads, which is before
  this module imports.

The OpenBLAS thread controls are found once, at import, in the library
numpy has already loaded (on Linux, the `openblas` entry of
/proc/self/maps). Where none is found (MKL, Accelerate, non-Linux),
the scope does nothing.
"""

import ctypes
import threading
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

__all__ = ["SvdFactors", "svd", "compose", "check_matrix"]

# (get, set) symbol pairs, in the order tried: numpy's own wheel
# (scipy-openblas, 64-bit integer build), then a plain OpenBLAS.
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD factors: u (m x k), spectrum (k,), v (n x k)."""

    u: np.ndarray
    spectrum: np.ndarray
    v: np.ndarray


class _OneBlasThread:
    """Context manager that runs its body with OpenBLAS on one thread.

    The thread count is process-wide, so entries are counted under a
    lock: the first to enter saves the count and sets 1, and the last to
    exit restores the saved count.
    """

    def __init__(self, get, set_):
        self.get = get
        self.set = set_
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = self.get()
                self.set(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                self.set(self._saved)


def _find_openblas():
    """A _OneBlasThread for the OpenBLAS this process loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(
                {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
            )
    except OSError:
        return None
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    for get_name, set_name in _THREAD_SYMBOLS:
        for lib in libs:
            try:
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return _OneBlasThread(get, set_)
    return None


_BLAS = _find_openblas()


def check_matrix(x):
    """Coerce to a finite 2D float array, raising ValueError otherwise."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("expected a non-empty 2D matrix, got shape %s" % (x.shape,))
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix contains non-finite entries")
    return x


def svd(x, compute_uv=True):
    """Thin singular value decomposition of a dense matrix.

    Returns
    -------
    SvdFactors or ndarray
        Orthonormal u, v and the non-increasing, non-negative spectrum;
        with compute_uv=False, the spectrum alone (numpy's convention).
    """
    x = check_matrix(x)
    wide = x.shape[0] < x.shape[1]
    tall = x.T if wide else x
    with _BLAS or nullcontext():
        if not compute_uv:
            return np.linalg.svd(tall, compute_uv=False)
        u, s, vt = np.linalg.svd(tall, full_matrices=False)
    if wide:
        return SvdFactors(u=vt.T, spectrum=s, v=u)
    return SvdFactors(u=u, spectrum=s, v=vt.T)


def compose(u, spectrum, v):
    """Form u @ diag(spectrum) @ v.T, validating shapes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    spectrum = np.asarray(spectrum, dtype=float)
    if u.ndim != 2 or v.ndim != 2 or spectrum.ndim != 1:
        raise ValueError("compose expects 2D factors and a 1D spectrum")
    k = spectrum.shape[0]
    if u.shape[1] != k or v.shape[1] != k:
        raise ValueError(
            "shape mismatch: u %s, v %s, spectrum length %d" % (u.shape, v.shape, k)
        )
    return (u * spectrum) @ v.T
