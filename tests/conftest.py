import contextlib
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from gmdecomp import decomp


def align_signs(a, b):
    """Flip columns of `a` to match the signs of `b` (for comparisons that
    are only defined up to per-column reflection)."""
    a = np.asarray(a, dtype=float).copy()
    for j in range(a.shape[1]):
        if np.dot(a[:, j], b[:, j]) < 0:
            a[:, j] = -a[:, j]
    return a


def random_spd(rng, n, ridge=0.5):
    """Random symmetric positive-definite matrix."""
    a = rng.normal(size=(n, n))
    return a.T @ a + ridge * np.eye(n)


def chi_square_over_n(counts):
    """chi-square statistic of a contingency table divided by the grand
    total, by direct summation over cells."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    acc = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            expected = counts[i].sum() * counts[:, j].sum() / total
            acc += (counts[i, j] - expected) ** 2 / expected
    return acc / total


def categorical_table(rng, n_rows, level_counts):
    """Random categorical table where every level of every variable appears
    at least once (the first rows cycle through all levels)."""
    table = []
    for i in range(n_rows):
        row = []
        for n_lev in level_counts:
            if i < n_lev:
                row.append(f"L{i + 1}")
            else:
                row.append(f"L{rng.integers(1, n_lev + 1)}")
        table.append(row)
    return table


def mca_fixture(seed=20240817, n_rows=60):
    """Four categorical variables with 4+4+4+3 = 15 indicator columns."""
    rng = np.random.default_rng(seed)
    return categorical_table(rng, n_rows, (4, 4, 4, 3))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _record_shapes(monkeypatch, name):
    calls = []
    real = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of every np.linalg.eigh call made while the test runs."""
    return _record_shapes(monkeypatch, "eigh")


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of every np.linalg.svd call made while the test runs."""
    return _record_shapes(monkeypatch, "svd")


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Shapes of every np.linalg.cholesky call made while the test runs."""
    return _record_shapes(monkeypatch, "cholesky")


@contextlib.contextmanager
def blas_threads(one):
    """While the block runs, the process's BLAS thread settings pinned to one thread, under
    which dense metrics passed as matrices take their Cholesky frames, or, if not `one`, unset,
    under which they take their roots."""
    with mock.patch.dict(os.environ):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            os.environ.pop(var, None)
            if one:
                os.environ[var] = "1"
        yield


@pytest.fixture
def blas_one_thread():
    """The process's BLAS settings pinned to one thread (see blas_threads)."""
    with blas_threads(True):
        yield


@pytest.fixture
def blas_default(monkeypatch):
    """The process's BLAS thread settings unset, with numpy's BLAS taken as OpenBLAS: BLAS
    runs its default threads, and no dense metric takes a Cholesky frame."""
    monkeypatch.setattr(decomp, "_OPENBLAS", True)
    with blas_threads(False):
        yield


@pytest.fixture
def traced_peak():
    """peak(fn, *args, **kwargs): the most bytes tracemalloc saw allocated at once while
    fn(*args, **kwargs) ran, above what was allocated when it started."""
    def peak(fn, *args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
    return peak
