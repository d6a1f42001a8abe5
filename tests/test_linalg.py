import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankrelax import compose, linalg, svd


def test_identity_spectrum():
    f = svd(np.eye(2))
    assert np.allclose(f.spectrum, [1.0, 1.0])


def test_diagonal_spectrum_and_factors():
    f = svd(np.diag([3.0, 1.0]))
    assert np.allclose(f.spectrum, [3.0, 1.0])
    # factors are axis-aligned up to sign
    assert np.allclose(np.abs(f.u), np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(f.v), np.eye(2), atol=1e-12)


def test_reconstruction_random():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 5))
    f = svd(x)
    err = np.linalg.norm(compose(f.u, f.spectrum, f.v) - x)
    assert err <= 1e-8 * (1.0 + f.spectrum[0])


def test_orthonormal_factors():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 6))
    f = svd(x)
    assert np.allclose(f.u.T @ f.u, np.eye(4), atol=1e-10)
    assert np.allclose(f.v.T @ f.v, np.eye(4), atol=1e-10)
    assert np.all(np.diff(f.spectrum) <= 0)
    assert np.all(f.spectrum >= 0)


def test_compose_diagonal_cases():
    eye = np.eye(2)
    assert np.allclose(compose(eye, np.array([2.0, 1.0]), eye), np.diag([2.0, 1.0]))
    assert np.allclose(compose(eye, np.zeros(2), eye), np.zeros((2, 2)))


def test_compose_svd_roundtrip_spectrum():
    rng = np.random.default_rng(2)
    q1, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 3)))
    s = np.array([2.5, 1.0, 0.3])
    f = svd(compose(q1, s, q2))
    assert np.allclose(f.spectrum[:3], s, atol=1e-10)
    assert f.spectrum[3] <= 1e-10


def test_frobenius_matches_spectrum():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 4))
    f = svd(x)
    lhs = np.sum(x**2)
    rhs = np.sum(f.spectrum**2)
    assert abs(lhs - rhs) <= 1e-8 * lhs


def test_svd_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        svd(bad)


def test_compose_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        compose(np.eye(2), np.array([1.0, 2.0, 3.0]), np.eye(2))


# Shapes from 1 x n through n x 1, square, and the study's wide and tall
# shapes; entries span scales from 1e-150 to 1e150.
SHAPES = st.one_of(
    st.sampled_from([(32, 512), (512, 32)]),
    st.integers(1, 12).flatmap(lambda n: st.sampled_from([(1, n), (n, 1), (n, n)])),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
)


@settings(max_examples=80, deadline=None)
@given(shape=SHAPES, exponent=st.integers(-150, 150), seed=st.integers(0, 2**32 - 1))
def test_svd_properties_across_shapes_and_scales(shape, exponent, seed):
    x = 10.0**exponent * np.random.default_rng(seed).standard_normal(shape)
    f = svd(x)
    k = min(shape)
    s = f.spectrum
    assert f.u.shape == (shape[0], k) and f.v.shape == (shape[1], k) and s.shape == (k,)
    assert np.all(s >= 0) and np.all(np.diff(s) <= 0)
    # max-abs errors: squaring entries near 1e-150 would underflow
    assert np.max(np.abs(compose(f.u, s, f.v) - x)) <= 1e-12 * s[0]
    assert np.allclose(f.u.T @ f.u, np.eye(k), atol=1e-10)
    assert np.allclose(f.v.T @ f.v, np.eye(k), atol=1e-10)
    values = svd(x, compute_uv=False)
    assert values.shape == (k,)
    assert np.max(np.abs(values - s)) <= 1e-12 * s[0]


def test_svd_without_thread_controls(monkeypatch):
    monkeypatch.setattr(linalg, "_BLAS", None)
    x = np.random.default_rng(5).standard_normal((6, 9))
    f = svd(x)
    assert np.max(np.abs(compose(f.u, f.spectrum, f.v) - x)) <= 1e-12 * f.spectrum[0]
    assert np.allclose(svd(x, compute_uv=False), f.spectrum, rtol=0, atol=1e-12 * f.spectrum[0])


def test_no_thread_controls_without_process_maps(monkeypatch):
    def missing(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    monkeypatch.setattr(linalg, "open", missing, raising=False)
    assert linalg._find_openblas() is None


needs_openblas = pytest.mark.skipif(
    linalg._BLAS is None, reason="no OpenBLAS thread controls found in this process"
)


@pytest.fixture
def blas_threads():
    """OpenBLAS set to two threads for the test, restored afterwards."""
    blas = linalg._BLAS
    before = blas.get()
    blas.set(2)
    try:
        yield blas.get()
    finally:
        blas.set(before)


@pytest.fixture
def lapack_threads(monkeypatch):
    """Thread counts seen by each np.linalg.svd call."""
    seen = []
    real = np.linalg.svd

    def spy(*args, **kwargs):
        seen.append(linalg._BLAS.get())
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


@needs_openblas
def test_svd_runs_on_one_thread_and_restores(blas_threads, lapack_threads):
    x = np.random.default_rng(6).standard_normal((8, 20))
    svd(x)
    svd(x.T, compute_uv=False)
    assert lapack_threads == [1, 1]
    assert linalg._BLAS.get() == blas_threads


@needs_openblas
def test_thread_count_restored_when_lapack_raises(blas_threads, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(np.linalg.LinAlgError):
        svd(np.eye(3))
    with pytest.raises(np.linalg.LinAlgError):
        svd(np.eye(3), compute_uv=False)
    assert linalg._BLAS.get() == blas_threads


@needs_openblas
def test_nested_scopes_restore_once(blas_threads):
    with linalg._BLAS:
        with linalg._BLAS:
            assert linalg._BLAS.get() == 1
        assert linalg._BLAS.get() == 1
    assert linalg._BLAS.get() == blas_threads


@needs_openblas
def test_concurrent_svds_restore_thread_count(blas_threads, lapack_threads):
    x = np.random.default_rng(7).standard_normal((6, 40))
    errors = []

    def work():
        try:
            for _ in range(50):
                svd(x)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    assert len(lapack_threads) == 200 and set(lapack_threads) == {1}
    assert linalg._BLAS.get() == blas_threads
