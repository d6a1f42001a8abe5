import sys
import threading
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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


LAPACK_ROUTINES = ("svd", "eigh", "eigvalsh")


@contextmanager
def lapack_spy():
    """Records [routine, OpenBLAS thread count, result] for each call to a
    LAPACK routine svd can reach, in call order."""
    calls = []
    real = {name: getattr(np.linalg, name) for name in LAPACK_ROUTINES}

    def spy(name):
        def call(*args, **kwargs):
            record = [name, linalg._BLAS.get() if linalg._BLAS else None, None]
            calls.append(record)
            record[2] = real[name](*args, **kwargs)
            return record[2]

        return call

    for name in LAPACK_ROUTINES:
        setattr(np.linalg, name, spy(name))
    try:
        yield calls
    finally:
        for name, fn in real.items():
            setattr(np.linalg, name, fn)


def certified(lam):
    """The Gram route's certificate on the eigenvalues of the scaled Gram matrix."""
    return bool(
        lam[-1] > 0
        and np.all(np.isfinite(lam))
        and lam[0] >= linalg._GRAM_MIN_RATIO * lam[-1]
    )


# Shapes from 1 x n through n x 1, square, and the study's wide and tall
# shapes.
SHAPES = st.one_of(
    st.sampled_from([(32, 512), (512, 32)]),
    st.integers(1, 12).flatmap(lambda n: st.sampled_from([(1, n), (n, 1), (n, n)])),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
)


def conditioned(shape, log_kappa, rank, exponent, seed):
    """10^exponent * Q1 diag(s) Q2^T, s from 1 down to 10^-log_kappa, and
    zero past the first `rank` values (all of them kept when rank is None)."""
    rng = np.random.default_rng(seed)
    k = min(shape)
    s = 10.0 ** -np.sort(np.r_[0.0, log_kappa, rng.uniform(0.0, log_kappa, max(k - 2, 0))])[:k]
    s[k if rank is None else rank :] = 0.0
    q1, _ = np.linalg.qr(rng.standard_normal((shape[0], k)))
    q2, _ = np.linalg.qr(rng.standard_normal((shape[1], k)))
    return 10.0**exponent * ((q1 * s) @ q2.T)


@settings(max_examples=200, deadline=None)
@given(
    shape=SHAPES,
    log_kappa=st.floats(0.0, 12.0),
    rank=st.none() | st.integers(0, 12),
    exponent=st.integers(-200, 200),
    seed=st.integers(0, 2**32 - 1),
)
# unscaled, this Gram matrix is subnormal and its certificate passes on
# eigenvalues that have lost their low digits
@example(shape=(32, 512), log_kappa=1.0, rank=None, exponent=-158, seed=0)
# past the certificate's kappa bound: the Gram route's left factor would
# lose orthogonality by about 1e-9
@example(shape=(32, 512), log_kappa=4.0, rank=None, exponent=0, seed=0)
def test_svd_properties_across_shapes_and_scales(shape, log_kappa, rank, exponent, seed):
    x = conditioned(shape, log_kappa, rank, exponent, seed)
    results = []
    for compute_uv in (True, False):
        with lapack_spy() as calls:
            results.append(svd(x, compute_uv=compute_uv))
        routines = [name for name, _, _ in calls]
        if not np.any(x):
            # a zero matrix calls no LAPACK routine
            assert routines == []
            continue
        lam = calls[0][2][0] if compute_uv else calls[0][2]
        # the Gram route is taken exactly when its certificate holds
        fallback = [] if certified(lam) else ["svd"]
        assert routines == ["eigh" if compute_uv else "eigvalsh"] + fallback
    f, values = results
    k = min(shape)
    s = f.spectrum
    assert f.u.shape == (shape[0], k) and f.v.shape == (shape[1], k) and s.shape == (k,)
    assert np.all(s >= 0) and np.all(np.diff(s) <= 0)
    # max-abs errors: squaring entries near 1e-200 would underflow
    assert np.max(np.abs(compose(f.u, s, f.v) - x)) <= 1e-12 * s[0]
    assert np.allclose(f.u.T @ f.u, np.eye(k), atol=1e-10)
    assert np.allclose(f.v.T @ f.v, np.eye(k), atol=1e-10)
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
    assert linalg._loaded_openblas() == []
    assert linalg._find_openblas([]) is None


def test_thread_controls_of_a_numpy_1_wheel():
    """numpy 1.x wheels bundle an OpenBLAS whose symbols all end in 64_."""
    threads = [4]

    def get():
        return threads[0]

    def set_(n):
        threads[0] = n

    wheel = SimpleNamespace(openblas_get_num_threads64_=get, openblas_set_num_threads64_=set_)
    scope = linalg._find_openblas([SimpleNamespace(), wheel])
    with scope:
        assert threads == [1]
    assert threads == [4]


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
def lapack_calls():
    """[routine, thread count, result] of each LAPACK call svd makes."""
    with lapack_spy() as calls:
        yield calls


@needs_openblas
def test_svd_runs_on_one_thread_and_restores(blas_threads, lapack_calls):
    x = np.random.default_rng(6).standard_normal((8, 20))
    svd(x)
    svd(x.T, compute_uv=False)
    svd(np.ones((8, 20)))  # rank one: the Gram route falls back to LAPACK's SVD
    assert [(name, threads) for name, threads, _ in lapack_calls] == [
        ("eigh", 1),
        ("eigvalsh", 1),
        ("eigh", 1),
        ("svd", 1),
    ]
    assert linalg._BLAS.get() == blas_threads


def fail(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


@needs_openblas
def test_thread_count_restored_when_lapack_raises(blas_threads, monkeypatch):
    for name in LAPACK_ROUTINES:
        monkeypatch.setattr(np.linalg, name, fail)
    with pytest.raises(np.linalg.LinAlgError):
        svd(np.eye(3))
    with pytest.raises(np.linalg.LinAlgError):
        svd(np.eye(3), compute_uv=False)
    assert linalg._BLAS.get() == blas_threads


def test_svd_falls_back_to_lapack_when_eigh_raises(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    x = np.random.default_rng(8).standard_normal((6, 9))
    with lapack_spy() as calls:
        f = svd(x)
        values = svd(x, compute_uv=False)
    assert [name for name, _, _ in calls] == ["eigh", "svd", "eigvalsh", "svd"]
    assert np.max(np.abs(compose(f.u, f.spectrum, f.v) - x)) <= 1e-12 * f.spectrum[0]
    assert np.allclose(f.u.T @ f.u, np.eye(6), atol=1e-10)
    assert np.allclose(f.v.T @ f.v, np.eye(6), atol=1e-10)
    assert np.allclose(values, np.linalg.svd(x, compute_uv=False), rtol=0, atol=1e-12 * values[0])


@needs_openblas
def test_nested_scopes_restore_once(blas_threads):
    with linalg._BLAS:
        with linalg._BLAS:
            assert linalg._BLAS.get() == 1
        assert linalg._BLAS.get() == 1
    assert linalg._BLAS.get() == blas_threads


@needs_openblas
def test_concurrent_svds_restore_thread_count(blas_threads, lapack_calls):
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
    assert len(lapack_calls) == 200 and {threads for _, threads, _ in lapack_calls} == {1}
    assert linalg._BLAS.get() == blas_threads
