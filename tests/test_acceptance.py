"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``acceptance NN <label>: PASS|FAIL`` line on the
real stdout so the verdicts are visible even under pytest's capture.
"""

import csv
import json
import sys
from contextlib import contextmanager

import numpy as np

from gmdecomp import cli, kernel, recipes
from gmdecomp.decomp import geigen, gplssvd, gsvd
from gmdecomp.kernel import tolerance_svd

from conftest import align_signs, chi_square_over_n, mca_fixture, random_spd

SEED = 20240817


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"acceptance {num:02d} {label}: FAIL", file=sys.__stdout__)
        raise
    print(f"acceptance {num:02d} {label}: PASS", file=sys.__stdout__)


def test_01_identity_reduction():
    rng = np.random.default_rng(SEED)
    with criterion(1, "identity reduction"):
        for _ in range(25):
            x = rng.normal(size=(rng.integers(4, 12), rng.integers(3, 8)))
            out = gsvd(x)
            ref = tolerance_svd(x, tol=kernel.EPS)
            assert np.abs(align_signs(out.u, ref.u) - ref.u).max() < 1e-10
            assert np.abs(out.d_full - ref.d).max() < 1e-10
            assert np.abs(align_signs(out.v, ref.v) - ref.v).max() < 1e-10
        a = rng.normal(size=(6, 6))
        s = a @ a.T
        eig = geigen(s)
        ref = kernel.tolerance_eigen(s, tol=kernel.SQRT_EPS)
        assert np.abs(eig.l_full - ref.values).max() < 1e-10
        assert np.abs(align_signs(eig.q, ref.vectors) - ref.vectors).max() < 1e-10
        x = rng.normal(size=(15, 5))
        y = rng.normal(size=(15, 4))
        gp = gplssvd(x, y, xlw=np.ones(15), ylw=np.ones(15),
                     xrw=np.ones(5), yrw=np.ones(4))
        ref = tolerance_svd(x.T @ y, tol=kernel.EPS)
        assert np.abs(gp.d_full - ref.d).max() < 1e-10
        assert np.abs(align_signs(gp.u, ref.u) - ref.u).max() < 1e-10
        assert np.abs(align_signs(gp.v, ref.v) - ref.v).max() < 1e-10


def test_02_pca_route_equivalence():
    rng = np.random.default_rng(SEED)
    data = rng.normal(size=(60, 7))
    with criterion(2, "PCA route equivalence"):
        a = recipes.pca(data, route="eigen_cor")
        b = recipes.pca(data, route="triplet_scaled")
        c = recipes.pca(data, route="triplet_metric")
        for field in ("l_full", "d_full"):
            assert np.abs(getattr(a, field) - getattr(b, field)).max() < 1e-9
            assert np.abs(getattr(b, field) - getattr(c, field)).max() < 1e-9
        for field in ("v", "q", "fj"):
            assert np.abs(getattr(a, field) - getattr(b, field)).max() < 1e-9
        for field in ("u", "v", "p", "fi"):
            assert np.abs(getattr(b, field) - getattr(c, field)).max() < 1e-9
        # the metric route changes the column geometry, so q and fj differ
        assert np.abs(b.q - c.q).max() > 1e-6
        assert np.abs(b.fj - c.fj).max() > 1e-6


def test_03_gsvd_orthogonality_and_reconstruction():
    rng = np.random.default_rng(SEED)
    with criterion(3, "GSVD orthogonality and reconstruction"):
        for _ in range(25):
            n, m = int(rng.integers(5, 12)), int(rng.integers(3, 8))
            x = rng.normal(size=(n, m))
            lw = random_spd(rng, n)
            rw = random_spd(rng, m)
            out = gsvd(x, lw=lw, rw=rw)
            kk = out.n_retained
            assert np.abs(out.p.T @ lw @ out.p - np.eye(kk)).max() < 1e-9
            assert np.abs(out.q.T @ rw @ out.q - np.eye(kk)).max() < 1e-9
            recon = out.p @ np.diag(out.d) @ out.q.T
            assert np.abs(recon - x).max() <= 1e-9 * np.abs(x).max()


def test_04_ca_inertia():
    rng = np.random.default_rng(SEED)
    with criterion(4, "CA inertia equals chi-square over N"):
        for _ in range(20):
            shape = (int(rng.integers(3, 9)), int(rng.integers(3, 7)))
            counts = rng.integers(1, 60, size=shape).astype(float)
            out = recipes.ca(counts)
            assert abs(out.l_full.sum() - chi_square_over_n(counts)) < 1e-10
        independent = np.outer(rng.integers(5, 20, size=5).astype(float),
                               rng.integers(5, 20, size=4).astype(float))
        assert recipes.ca(independent).n_retained == 0


def test_05_mca_rank():
    with criterion(5, "MCA component count"):
        table = mca_fixture()
        tab = recipes.disjunctive_coding(table)
        assert tab.indicator.shape[1] == 15
        assert len(tab.variable_spans) == 4
        out = recipes.mca(table)
        assert out.n_retained == 11


def test_06_rmca_regularization_path():
    with criterion(6, "RMCA regularization path"):
        table = mca_fixture()
        tab = recipes.disjunctive_coding(table)
        m = recipes.mca(table)
        base = recipes.rmca(tab, 0.0)
        assert base.n_retained == m.n_retained
        for j in range(m.n_retained):
            ratio = base.fj[:, j] / m.fj[:, j]
            assert np.allclose(ratio, ratio[0], rtol=1e-8)
        grid = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 25.0, 50.0)
        runs = [recipes.rmca(tab, omega) for omega in grid]
        norms = [np.abs(r.fj).max() for r in runs]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        # ridge flattens the spectrum monotonically: the share of variance
        # explained by the leading dimension shrinks as omega grows
        leading = [r.l_full[0] / r.l_full.sum() for r in runs]
        assert all(b < a for a, b in zip(leading, leading[1:]))


def test_07_cca_oracle_and_latent_identity():
    rng = np.random.default_rng(SEED)
    with criterion(7, "CCA oracle and latent cross-products"):
        for _ in range(10):
            x = rng.normal(size=(40, 4))
            y = rng.normal(size=(40, 3))
            out = recipes.cca(x, y)
            zx = recipes.center_scale(x)
            zy = recipes.center_scale(y)
            m = np.linalg.solve(zx.T @ zx, zx.T @ zy) @ np.linalg.solve(
                zy.T @ zy, zy.T @ zx
            )
            lam = np.sort(np.linalg.eigvals(m).real)[::-1]
            ref = np.sqrt(np.clip(lam, 0.0, None))
            assert np.abs(out.d_full - ref[: out.d_full.size]).max() < 1e-8
            assert np.all(out.d <= 1.0 + 1e-10)
            for fn in (recipes.pls, recipes.rrr, recipes.cca):
                r = fn(x, y)
                assert np.abs(np.diag(r.lx.T @ r.ly) - r.d).max() < 1e-9


def test_08_rrr_invariance():
    rng = np.random.default_rng(SEED)
    with criterion(8, "RRR invariance to X recombination"):
        x = rng.normal(size=(35, 5))
        y = rng.normal(size=(35, 3))
        base = recipes.rrr(x, y, scale=False)
        for _ in range(5):
            t = rng.normal(size=(5, 5)) + 3 * np.eye(5)
            mixed = recipes.rrr(x @ t, y, scale=False)
            assert np.abs(base.d_full - mixed.d_full).max() < 1e-8


def test_09_weighted_mds():
    rng = np.random.default_rng(SEED)
    with criterion(9, "weighted MDS"):
        ages = rng.uniform(20.0, 70.0, size=12)
        pts = np.column_stack([ages, rng.normal(size=12)])
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        out = recipes.weighted_mds(dist, 1.0 / ages)
        assert out.l_full.min() < -1e-8  # indefinite without tolerance
        n = dist.shape[0]
        uniform = recipes.weighted_mds(dist, np.full(n, 1.0 / n))
        classical = recipes.mds(dist)
        scores = recipes.mds_score_sets(uniform)["generalized"]
        scores = scores[:, : classical.n_retained]
        assert np.abs(align_signs(scores, classical.fj) - classical.fj).max() < 1e-9


def test_10_truncation(tmp_path):
    rng = np.random.default_rng(SEED)
    with criterion(10, "k=2 truncation is a bit-exact prefix"):
        data = rng.normal(size=(30, 6))
        y = rng.normal(size=(30, 4))
        pts = rng.normal(size=(10, 3))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        counts = rng.integers(1, 40, size=(7, 5)).astype(float)
        table = mca_fixture()
        tab = recipes.disjunctive_coding(table)
        runs = [
            *[(lambda k, r=r: recipes.pca(data, route=r, k=k))
              for r in recipes.PCA_ROUTES],
            lambda k: recipes.mds(dist, k=k),
            lambda k: recipes.weighted_mds(dist, np.full(10, 0.1), k=k),
            lambda k: recipes.ca(counts, k=k),
            lambda k: recipes.mca(table, k=k),
            lambda k: recipes.rmca(tab, 2.0, k=k),
            lambda k: recipes.pls(data, y, k=k),
            lambda k: recipes.rrr(data, y, k=k),
            lambda k: recipes.cca(data, y, k=k),
            lambda k: recipes.plsca(table, table, k=k),
        ]
        for run in runs:
            full = run(0)
            part = run(2)
            assert part.n_retained == 2
            for name, value in part.fields().items():
                ref = full.fields()[name]
                if name in ("d_full", "l_full"):
                    assert np.array_equal(value, ref), name
                elif value.ndim == 1:
                    assert np.array_equal(value, ref[:2]), name
                else:
                    assert np.array_equal(value, ref[:, :2]), name
        # the CLI reports the truncation in summary.json
        path = tmp_path / "x.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([[repr(float(v)) for v in row] for row in data])
        assert cli.main(["pca", "--x", str(path), "--k", "2",
                         "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["n_retained"] == 2


def test_11_cli_round_trip(tmp_path):
    rng = np.random.default_rng(SEED)
    with criterion(11, "CLI round trip and determinism"):
        x = rng.normal(size=(9, 5))
        result = gsvd(x, lw=rng.uniform(0.5, 2.0, size=9))
        outdir = tmp_path / "direct"
        cli.write_result(result, outdir)
        for name, value in result.fields().items():
            loaded = cli.load_matrix_csv(
                outdir / f"{name}.csv", has_header=(value.ndim == 2)
            ).values
            if value.ndim == 1:
                loaded = loaded[:, 0]
            assert np.array_equal(loaded, value), name
        path = tmp_path / "x.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([[repr(float(v)) for v in row] for row in x])
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert cli.main(["gsvd", "--x", str(path), "--out", str(out),
                             "--plot"]) == 0
        for p in sorted(out1.iterdir()):
            if p.suffix in (".csv", ".svg"):
                assert p.read_bytes() == (out2 / p.name).read_bytes(), p.name
