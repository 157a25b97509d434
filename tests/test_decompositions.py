import numpy as np
import pytest

from gmdecomp import kernel, recipes
from gmdecomp.decomp import geigen, gplssvd, gsvd
from gmdecomp.errors import DimensionMismatchError, EmptyMatrixError

from conftest import mca_fixture, random_spd


def test_geigen_hand_worked_diagonal():
    # X = diag(2, 8), W = diag(1/2, 1/2): Xt = diag(1, 4), so l = (4, 1)
    # and the generalized vectors are scaled unit vectors with Q' W Q = I.
    out = geigen(np.diag([2.0, 8.0]), w=np.array([0.5, 0.5]))
    assert np.allclose(out.l, [4.0, 1.0])
    assert np.allclose(out.q, [[0.0, np.sqrt(2)], [np.sqrt(2), 0.0]])
    assert np.allclose(out.fj, np.diag([0.5, 0.5]) @ out.q @ np.diag(out.d))


def test_geigen_identity_constraint_equals_plain_eigen(rng):
    a = rng.normal(size=(5, 5))
    s = a @ a.T
    out = geigen(s)
    ref = kernel.tolerance_eigen(s, tol=kernel.SQRT_EPS)
    assert np.array_equal(out.l_full, ref.values)
    assert np.array_equal(out.v, ref.vectors)
    assert np.array_equal(out.q, ref.vectors)
    assert np.allclose(out.fj, ref.vectors * np.sqrt(ref.values)[None, :])


def test_geigen_reconstruction_and_w_orthogonality(rng):
    for _ in range(5):
        s = random_spd(rng, 5)
        w = random_spd(rng, 5)
        out = geigen(s, w=w)
        assert np.abs(out.q.T @ w @ out.q - np.eye(out.n_retained)).max() < 1e-9
        recon = out.q @ np.diag(out.l) @ out.q.T
        assert np.abs(recon - s).max() < 1e-8 * np.abs(s).max()


def test_geigen_rejects_non_square(rng):
    with pytest.raises(DimensionMismatchError):
        geigen(rng.normal(size=(3, 4)))
    with pytest.raises(EmptyMatrixError):
        geigen(np.zeros((0, 0)))


def test_gsvd_identity_equals_plain_svd(rng):
    x = rng.normal(size=(6, 4))
    out = gsvd(x)
    ref = kernel.tolerance_svd(x, tol=kernel.EPS)
    assert np.array_equal(out.d_full, ref.d)
    assert np.array_equal(out.u, ref.u)
    assert np.array_equal(out.v, ref.v)
    assert np.array_equal(out.p, ref.u)
    assert np.array_equal(out.q, ref.v)


def test_gsvd_metric_orthogonality_and_reconstruction(rng):
    for _ in range(5):
        x = rng.normal(size=(7, 4))
        lw = random_spd(rng, 7)
        rw = random_spd(rng, 4)
        out = gsvd(x, lw=lw, rw=rw)
        kk = out.n_retained
        assert np.abs(out.p.T @ lw @ out.p - np.eye(kk)).max() < 1e-9
        assert np.abs(out.q.T @ rw @ out.q - np.eye(kk)).max() < 1e-9
        recon = out.p @ np.diag(out.d) @ out.q.T
        assert np.abs(recon - x).max() < 1e-9 * np.abs(x).max()


def test_gsvd_scores_are_metric_weighted_vectors(rng):
    x = rng.normal(size=(5, 3))
    lw = rng.uniform(0.5, 2.0, size=5)
    rw = rng.uniform(0.5, 2.0, size=3)
    out = gsvd(x, lw=lw, rw=rw)
    assert np.allclose(out.fi, np.diag(lw) @ out.p @ np.diag(out.d))
    assert np.allclose(out.fj, np.diag(rw) @ out.q @ np.diag(out.d))
    assert np.allclose(out.l, out.d**2)


def test_gplssvd_identity_equals_svd_of_crossproduct(rng):
    x = rng.normal(size=(10, 4))
    y = rng.normal(size=(10, 3))
    out = gplssvd(x, y)
    ref = kernel.tolerance_svd(x.T @ y, tol=kernel.EPS)
    assert np.array_equal(out.d_full, ref.d)
    assert np.array_equal(out.u, ref.u)
    assert np.array_equal(out.v, ref.v)
    assert np.allclose(out.lx, x @ ref.u)
    assert np.allclose(out.ly, y @ ref.v)


def test_gplssvd_latent_crossproduct_diagonal_is_d(rng):
    x = rng.normal(size=(12, 5))
    y = rng.normal(size=(12, 4))
    xlw = rng.uniform(0.5, 2.0, size=12)
    ylw = xlw
    xrw = random_spd(rng, 5)
    yrw = random_spd(rng, 4)
    out = gplssvd(x, y, xlw=xlw, ylw=ylw, xrw=xrw, yrw=yrw)
    assert np.allclose(np.diag(out.lx.T @ out.ly), out.d, atol=1e-9)


def test_gplssvd_rejects_row_mismatch(rng):
    with pytest.raises(DimensionMismatchError):
        gplssvd(rng.normal(size=(5, 3)), rng.normal(size=(6, 3)))


def test_truncation_is_prefix_of_full_run(rng):
    x = rng.normal(size=(8, 5))
    lw = rng.uniform(0.5, 2.0, size=8)
    full = gsvd(x, lw=lw)
    part = gsvd(x, lw=lw, k=2)
    assert part.n_retained == 2
    assert np.array_equal(part.d, full.d[:2])
    assert np.array_equal(part.fi, full.fi[:, :2])
    assert np.array_equal(part.fj, full.fj[:, :2])
    assert np.array_equal(part.d_full, full.d_full)
    assert np.array_equal(part.l_full, full.l_full)


def test_truncation_clamps_with_warning(rng):
    x = rng.normal(size=(4, 3))
    with pytest.warns(UserWarning):
        out = gsvd(x, k=10)
    assert out.n_retained == out.n_total_components == 3


_X, _Y = np.random.default_rng(3).normal(size=(2, 12, 4))
_DIST = np.abs(_X[:, None, 0] - _X[None, :, 0])
_CATEGORIES = mca_fixture(n_rows=12)


@pytest.mark.parametrize("call", [
    lambda k: geigen(_X.T @ _X, k=k),
    lambda k: gsvd(_X, k=k),
    lambda k: gplssvd(_X, _Y, k=k),
    *(lambda k, route=route: recipes.pca(_X, route=route, k=k) for route in recipes.PCA_ROUTES),
    lambda k: recipes.mds(_DIST, k=k),
    lambda k: recipes.weighted_mds(_DIST, np.linspace(0.5, 2.0, 12), k=k),
    lambda k: recipes.ca(np.abs(_X) + 1.0, k=k),
    lambda k: recipes.mca(_CATEGORIES, k=k),
    lambda k: recipes.rmca(recipes.disjunctive_coding(_CATEGORIES), 1.0, k=k),
    lambda k: recipes.plsca(_CATEGORIES, [row[:2] for row in _CATEGORIES], k=k),
    lambda k: recipes.pls(_X, _Y, k=k),
    lambda k: recipes.rrr(_X, _Y, k=k),
    lambda k: recipes.cca(_X, _Y, k=k),
], ids=["geigen", "gsvd", "gplssvd", *(f"pca-{r}" for r in recipes.PCA_ROUTES), "mds",
        "weighted_mds", "ca", "mca", "rmca", "plsca", "pls", "rrr", "cca"])
def test_the_clamping_warning_points_at_the_callers_line(call):
    with pytest.warns(UserWarning, match="clamping") as record:
        call(50)
    assert len(record) == 1 and record[0].filename == __file__


def test_result_fields_per_method(rng):
    e = geigen(random_spd(rng, 3))
    assert set(e.fields()) == {"d", "d_full", "l", "l_full", "v", "q", "fj"}
    s = gsvd(rng.normal(size=(4, 3)))
    assert set(s.fields()) == {
        "d", "d_full", "l", "l_full", "u", "v", "p", "q", "fi", "fj",
    }
    g = gplssvd(rng.normal(size=(6, 3)), rng.normal(size=(6, 2)))
    assert set(g.fields()) == {
        "d", "d_full", "l", "l_full", "u", "v", "p", "q", "fi", "fj", "lx", "ly",
    }
