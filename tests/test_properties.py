"""Bounded property tests over random data for five of the paper's claims:
identity constraints reduce each generalized decomposition to its plain
counterpart, the four PCA routes agree, the gsvd treats rows and columns
alike, permuting the rows of its data and row metric permutes only its row
outputs, and scaling its data by c > 0 scales only its singular values."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gmdecomp import recipes
from gmdecomp.decomp import geigen, gplssvd, gsvd

from conftest import align_signs, random_spd

BOUNDED = settings(max_examples=30, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
TOL = 1e-9


def _close(a, b, tol=TOL):
    return np.abs(np.asarray(a) - np.asarray(b)).max() < tol * max(1.0, np.abs(b).max())


def _match_svd(out, m):
    u, d, vt = np.linalg.svd(m, full_matrices=False)
    r = out.n_retained
    assert r == d.size and _close(out.d, d)
    assert _close(align_signs(out.u, u), u) and _close(align_signs(out.v, vt.T), vt.T)
    # identity metrics leave the generalized vectors equal to the plain ones
    assert np.array_equal(out.p, out.u) and np.array_equal(out.q, out.v)


@BOUNDED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(2, 6))
def test_gsvd_with_identity_constraints_is_the_svd(seed, n, m):
    x = np.random.default_rng(seed).normal(size=(n, m))
    _match_svd(gsvd(x), x)


@BOUNDED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), mx=st.integers(2, 5),
       my=st.integers(2, 5))
def test_gplssvd_with_identity_constraints_is_the_svd_of_the_crossproduct(seed, n, mx, my):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(n, mx)), rng.normal(size=(n, my))
    out = gplssvd(x, y)
    if out.n_retained == min(mx, my):  # a rank-deficient x'y drops components
        _match_svd(out, x.T @ y)
    assert _close(out.lx, x @ out.p) and _close(out.ly, y @ out.q)


@BOUNDED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7))
def test_geigen_with_identity_constraint_is_the_eigendecomposition(seed, n):
    s = random_spd(np.random.default_rng(seed), n)
    values, vectors = np.linalg.eigh(s)
    values, vectors = values[::-1], vectors[:, ::-1]
    out = geigen(s)
    assert _close(out.l, values)
    assert _close(align_signs(out.v, vectors), vectors)
    assert np.array_equal(out.q, out.v)


@BOUNDED
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), extra=st.integers(2, 10))
def test_pca_routes_agree(seed, m, extra):
    data = np.random.default_rng(seed).normal(size=(m + extra, m))
    cov = recipes.pca(data, route="eigen_cov")
    cor = recipes.pca(data, route="eigen_cor")
    scaled = recipes.pca(data, route="triplet_scaled")
    metric = recipes.pca(data, route="triplet_metric")
    centered = data - data.mean(axis=0)
    assert _close(cov.l, np.linalg.eigvalsh(centered.T @ centered / (m + extra - 1))[::-1])
    assert _close(cor.l, scaled.l)
    assert _close(metric.l, scaled.l)
    for name in ("u", "p", "fi"):
        a, b = getattr(metric, name), getattr(scaled, name)
        assert _close(align_signs(a, b), b), name


METRICS = ("identity", "diagonal", "dense", "singular")


def _metric(rng, kind, n):
    """None, positive weights, an SPD matrix, or a PSD matrix of rank about n/2."""
    if kind == "identity":
        return None
    if kind == "diagonal":
        return rng.uniform(0.5, 2.0, n)
    if kind == "dense":
        return random_spd(rng, n)
    a = rng.normal(size=(n, max(1, n // 2)))
    return a @ a.T


@pytest.mark.parametrize("lw_kind", METRICS)
@BOUNDED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(2, 6),
       rw_kind=st.sampled_from(METRICS))
def test_gsvd_of_the_transpose_swaps_the_sides(lw_kind, seed, n, m, rw_kind):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    lw, rw = _metric(rng, lw_kind, n), _metric(rng, rw_kind, m)
    out, swapped = gsvd(x, lw=lw, rw=rw).fields(), gsvd(x.T, lw=rw, rw=lw).fields()
    assert _close(swapped["d"], out["d"], 1e-10)
    for a, b in (("p", "q"), ("fi", "fj"), ("u", "v")):
        for mine, theirs in ((a, b), (b, a)):
            assert _close(align_signs(swapped[mine], out[theirs]), out[theirs], 1e-10), mine


def _permuted(lw, perm):
    """A row metric for the rows of its data taken in the order `perm`."""
    if lw is None:
        return None
    return lw[perm] if lw.ndim == 1 else lw[np.ix_(perm, perm)]


@pytest.mark.parametrize("lw_kind", METRICS)
@BOUNDED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(2, 6),
       rw_kind=st.sampled_from(METRICS))
def test_gsvd_of_permuted_rows_permutes_the_row_outputs(lw_kind, seed, n, m, rw_kind):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    lw, rw = _metric(rng, lw_kind, n), _metric(rng, rw_kind, m)
    perm = rng.permutation(n)
    out = gsvd(x, lw=lw, rw=rw).fields()
    permuted = gsvd(x[perm], lw=_permuted(lw, perm), rw=rw).fields()
    assert _close(permuted["d"], out["d"], 1e-10)
    for name in ("u", "p", "fi", "v", "q", "fj"):
        want = out[name][perm] if name in ("u", "p", "fi") else out[name]
        assert _close(align_signs(permuted[name], want), want, 1e-10), name


@pytest.mark.parametrize("lw_kind", METRICS)
@BOUNDED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(2, 6),
       rw_kind=st.sampled_from(METRICS), c=st.floats(1e-3, 1e3))
def test_gsvd_of_scaled_data_scales_only_the_singular_values(lw_kind, seed, n, m, rw_kind, c):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    lw, rw = _metric(rng, lw_kind, n), _metric(rng, rw_kind, m)
    out, scaled = gsvd(x, lw=lw, rw=rw).fields(), gsvd(c * x, lw=lw, rw=rw).fields()
    d = out["d"]
    assert np.abs(scaled["d"] - c * d).max(initial=0.0) <= 1e-10 * c * d.max(initial=0.0)
    for name in ("p", "q"):
        assert _close(align_signs(scaled[name], out[name]), out[name], 1e-10), name
