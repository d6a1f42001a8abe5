"""Dense-matrix and SVD backend used by every other module.

All matrices are plain 2D float ndarrays. The thin SVD (k = min(m, n))
is used everywhere; sign/rotation ambiguity of the factors is accepted
since downstream code only consumes the spectrum or matrices composed
from the factors.

`svd` is the one place that decides how LAPACK is called:

- Orientation. A wide matrix (m < n) is factored through its tall
  transpose, x.T = U S V^T, so x = V S U^T; LAPACK's tall path is the
  faster one, and the spectrum moves only in the last digits.
- Zero matrix. When max|x| = 0 the spectrum is zero and the factors are
  eye(m, k) and eye(n, k); no LAPACK routine is called. ADMM's first
  prox input is such a matrix.
- Gram route, under a certificate. Let t be the tall orientation scaled
  by 1/max|x|, so t's entries lie in [-1, 1] and the p x p Gram matrix
  g = t^T t (p = min(m, n)) has entries of at most max(m, n). Its
  eigenpairs (eigh; eigvalsh for values only) give sigma = sqrt(lambda)
  in descending order, the eigenvectors W as t's right factor and
  t W / sigma as its left factor; the spectrum is scaled back by max|x|.
  The left factor is the long one, a max(m, n) x p x p product, so it
  is formed the first time it is read (as v of a wide x, u of a tall
  one): `prox_Rh` reads only the short factor W and never pays for it.
  Forming g squares the condition number kappa = sigma_1 / sigma_p:
  sigma_i carries an absolute error of about eps * kappa * sigma_1, and
  t W / sigma loses orthogonality like eps * kappa^2 (Golub & Van Loan,
  Matrix Computations, sec. 8.6; Higham, Accuracy and Stability of
  Numerical Algorithms, ch. 20). So the route is taken only when every
  lambda is finite, lambda_max > 0 and lambda_min >= _GRAM_MIN_RATIO *
  lambda_max, i.e. kappa <= 447. Otherwise, also when eigh raises, the
  call falls back to LAPACK's SVD. The check is reliable because eigh's
  absolute error is about eps * lambda_max, far below _GRAM_MIN_RATIO *
  lambda_max. The scaling is what makes it reliable at any magnitude:
  unscaled, entries near 1e-160 give a subnormal g whose small
  eigenvalues are lost, and the check passes on a wrong spectrum.
  Timed against the LAPACK route alone (one BLAS thread, 2-vCPU
  machine, both factors formed), `svd` on matrices that pass the
  certificate (kappa = 10) is 2.0x as fast at 32x512 and 3.7x at
  128x2048 (values only: 1.8x and 3.4x), and breaks even near 12x12. A
  matrix that fails it pays for the attempt: +38% for a rank-one
  128x2048, +79% values only for a rank-one 32x512. Below 16x16, either
  route takes up to twice as long as the LAPACK route alone.
- One BLAS thread. Either route runs with OpenBLAS set to a single
  thread: at the sizes this package solves (32x512 to 128x2048), two
  threads made the thin SVD 1.7 to 2.4 times as slow as one on a 2-vCPU
  machine. The count in force before the call is read first and
  restored when the call returns or LAPACK raises; nested or concurrent
  calls restore it once, when the last of them exits. The library's
  SVDs therefore run single-threaded whatever OPENBLAS_NUM_THREADS
  says; that variable is read only when OpenBLAS loads, which is before
  this module imports. A long factor formed on read is a plain product,
  like compose's, and runs at OpenBLAS's own thread count.

The OpenBLAS thread controls are found once, at import, in the library
numpy has already loaded (on Linux, the `openblas` entry of
/proc/self/maps), under the names of numpy 2's wheels, of numpy 1's
wheels or of a plain OpenBLAS. Where none is found (MKL, Accelerate,
non-Linux), the scope does nothing.
"""

import ctypes
import threading
from contextlib import nullcontext

import numpy as np

__all__ = ["SvdFactors", "svd", "compose", "check_matrix"]

# (get, set) symbol pairs, in the order tried: numpy 2's wheel
# (scipy-openblas, 64-bit integer build), numpy 1's wheel (OpenBLAS's
# own 64-bit integer build, whose symbols carry the suffix 64_), then a
# plain OpenBLAS.
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# Smallest lambda_min / lambda_max of the scaled Gram matrix that the Gram
# route accepts, i.e. kappa <= 447; the tests' tolerances set it. The
# left factor t W / sigma loses orthogonality by about eps * kappa^2 <=
# 4.4e-11 (at most 5.0e-11 measured over 6,000 matrices at the bound),
# under the 1e-10 to which the factors are held; at 1e-6 (kappa <= 1000)
# 11 of 6,000 such matrices exceeded it. The spectrum's error, about
# eps * kappa * sigma_1 <= 1e-13 * sigma_1, is under their 1e-12 * sigma_1.
_GRAM_MIN_RATIO = 5e-6


class SvdFactors:
    """Thin SVD factors: u (m x k), spectrum (k,), v (n x k).

    A factor may be passed as a function of no arguments, called the
    first time the factor is read; the Gram route passes its long factor
    so.
    """

    __slots__ = ("_u", "spectrum", "_v")

    def __init__(self, u, spectrum, v):
        self._u, self.spectrum, self._v = u, spectrum, v

    def _read(self, name):
        factor = getattr(self, name)
        if callable(factor):
            factor = factor()
            setattr(self, name, factor)
        return factor

    u = property(lambda self: self._read("_u"))
    v = property(lambda self: self._read("_v"))


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


def _loaded_openblas():
    """The OpenBLAS libraries this process loaded, as ctypes handles."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(
                {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
            )
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libs


def _find_openblas(libs):
    """A _OneBlasThread for the first _THREAD_SYMBOLS pair that one of
    libs exports, or None."""
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


_BLAS = _find_openblas(_loaded_openblas())


def check_matrix(x, shape=None):
    """Coerce to a finite 2D float array, of the given shape if one is
    given, raising ValueError otherwise."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("expected a non-empty 2D matrix, got shape %s" % (x.shape,))
    if shape is not None and x.shape != shape:
        raise ValueError("expected shape %s, got %s" % (shape, x.shape))
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix contains non-finite entries")
    return x


def _gram_svd(tall, scale, compute_uv):
    """(u, spectrum, v) or the spectrum of tall by the Gram route, or None
    when its certificate fails; scale is max|tall| > 0. u is a function
    that forms the long factor when called."""
    t = tall / scale
    g = t.T @ t
    try:
        if compute_uv:
            lam, w = np.linalg.eigh(g)
        else:
            lam = np.linalg.eigvalsh(g)
    except np.linalg.LinAlgError:
        return None
    if not (
        lam[-1] > 0 and np.all(np.isfinite(lam)) and lam[0] >= _GRAM_MIN_RATIO * lam[-1]
    ):
        return None
    s = np.sqrt(lam[::-1])
    if not compute_uv:
        return scale * s
    w = w[:, ::-1]
    return lambda: t @ (w / s), scale * s, w


def _lapack_svd(tall, compute_uv):
    """(u, spectrum, v) or the spectrum of tall by LAPACK's SVD."""
    if not compute_uv:
        return np.linalg.svd(tall, compute_uv=False)
    u, s, vt = np.linalg.svd(tall, full_matrices=False)
    return u, s, vt.T


def svd(x, compute_uv=True):
    """Thin singular value decomposition of a dense matrix.

    Returns
    -------
    SvdFactors or ndarray
        Orthonormal u, v and the non-increasing, non-negative spectrum;
        with compute_uv=False, the spectrum alone (numpy's convention).
    """
    x = check_matrix(x)
    (m, n), k = x.shape, min(x.shape)
    wide = m < n
    tall = x.T if wide else x
    scale = max(tall.max(), -tall.min())  # max|x|, without an |x| temporary
    if scale == 0.0:
        if not compute_uv:
            return np.zeros(k)
        return SvdFactors(u=np.eye(m, k), spectrum=np.zeros(k), v=np.eye(n, k))
    with _BLAS or nullcontext():
        out = _gram_svd(tall, scale, compute_uv)
        if out is None:
            out = _lapack_svd(tall, compute_uv)
    if not compute_uv:
        return out
    u, s, v = out
    if wide:
        return SvdFactors(u=v, spectrum=s, v=u)
    return SvdFactors(u=u, spectrum=s, v=v)


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
