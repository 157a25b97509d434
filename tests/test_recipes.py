import warnings

import numpy as np
import pytest

from gmdecomp import constraints, kernel, recipes
from gmdecomp.decomp import geigen
from gmdecomp.errors import (
    DimensionMismatchError,
    EmptyMarginError,
    NegativeCountError,
    NonPositiveWeightError,
    NotADistanceMatrixError,
    NumericalError,
    SingleLevelVariableError,
    ZeroVarianceColumnError,
)

from conftest import align_signs, chi_square_over_n, mca_fixture

# the oracles below do not depend on the scale of the data, which the recipes take at the ends of
# the range too
RANGE_ENDS = pytest.mark.parametrize("j", [0, 540, -540, 1000, -1000],
                                     ids=lambda j: f"2^{j}")


# ---------------------------------------------------------------------------
# preprocessing helpers


def test_center_scale_moments(rng):
    data = rng.normal(loc=3.0, scale=2.0, size=(40, 5))
    z = recipes.center_scale(data)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0, ddof=1), 1.0)
    c = recipes.center_scale(data, scale=False)
    assert np.allclose(c.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(c + data.mean(axis=0), data)


def test_center_scale_zero_variance(rng):
    data = rng.normal(size=(10, 3))
    data[:, 1] = 7.0
    with pytest.raises(ZeroVarianceColumnError):
        recipes.center_scale(data)


def test_center_scale_refuses_a_centred_column_past_dbl_max_with_no_warning():
    # the column centres to about -2/3 * 3.4e308 in the caller's units, which no float64 holds
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="^centring a column overflowed$"):
            recipes.center_scale([[1.7e308], [-1.7e308], [1.7e308]], scale=False)
    assert caught == []


@pytest.mark.parametrize("call", [
    lambda t: recipes.pca(t, route="eigen_cor"),
    lambda t: recipes.pca(t, route="triplet_scaled"),
    lambda t: recipes.pca(t, route="triplet_metric"),
    lambda t: recipes.pls(t[:, :2], t),
    recipes.center_scale,
], ids=["eigen_cor", "triplet_scaled", "triplet_metric", "pls", "center_scale"])
def test_a_column_far_below_its_tables_scale_is_refused_where_its_variance_is_taken(rng, call):
    # the table is normalized as a whole, so the last column's sum of squares, about 2^-1076,
    # underflows; ROADMAP item 13 (one power of 2 per column) turns these refusals into answers
    table = rng.normal(size=(30, 4))
    table[:, -1] *= 2.0**-540
    with pytest.raises(NumericalError, match="^a column's sum of squares underflowed$"):
        call(table)


def test_pseudo_inverse_moore_penrose(rng):
    a = rng.normal(size=(6, 4)) @ rng.normal(size=(4, 5))
    gram = a.T @ a  # 5 x 5 of rank 4
    c = constraints.pinv_constraint(gram, "xrw")
    half = constraints.apply_sqrt_metric(c, np.eye(5))
    g = half @ half
    assert c.kind == constraints.DENSE
    assert np.allclose(gram @ g @ gram, gram, atol=1e-9)
    assert np.allclose(g @ gram @ g, g, atol=1e-9)
    assert np.allclose((gram @ g).T, gram @ g, atol=1e-9)
    assert np.allclose((g @ gram).T, g @ gram, atol=1e-9)
    # its eigenpairs are the inverted ones of the Gram matrix and rebuild it
    lam, vec = c.weights, c.basis
    assert np.count_nonzero(lam) == 4
    assert np.allclose((vec * lam) @ vec.T, g, atol=1e-12)
    # exact inverse for invertible input
    b = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    half = constraints.apply_sqrt_metric(constraints.pinv_constraint(b.T @ b), np.eye(4))
    inv = half @ half
    assert np.allclose(inv, np.linalg.inv(b.T @ b), atol=1e-9)


# ---------------------------------------------------------------------------
# PCA


def test_pca_eigen_cov_matches_covariance_spectrum(rng):
    data = rng.normal(size=(50, 6))
    out = recipes.pca(data, route="eigen_cov")
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / 49
    ref = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.allclose(out.l_full, ref, atol=1e-10)
    assert np.isclose(out.l_full.sum(), np.trace(cov))


@RANGE_ENDS
def test_pca_cor_and_scaled_triplet_agree(rng, j):
    data = np.ldexp(rng.normal(size=(40, 5)), j)
    a = recipes.pca(data, route="eigen_cor")
    b = recipes.pca(data, route="triplet_scaled")
    assert np.allclose(a.l_full, b.l_full, atol=1e-9)
    assert np.allclose(a.d_full, b.d_full, atol=1e-9)
    for field in ("v", "q", "fj"):
        assert np.allclose(getattr(a, field), getattr(b, field), atol=1e-9)


def test_pca_metric_triplet_same_spectrum_different_columns(rng):
    data = rng.normal(size=(40, 5))
    b = recipes.pca(data, route="triplet_scaled")
    c = recipes.pca(data, route="triplet_metric")
    assert np.allclose(b.d_full, c.d_full, atol=1e-9)
    assert np.allclose(b.u, c.u, atol=1e-9)
    assert np.allclose(b.p, c.p, atol=1e-9)
    assert np.allclose(b.fi, c.fi, atol=1e-9)
    assert not np.allclose(b.q, c.q)


def test_pca_rejects_bad_input(rng):
    with pytest.raises(ValueError):
        recipes.pca(rng.normal(size=(10, 3)), route="nope")
    with pytest.raises(DimensionMismatchError):
        recipes.pca(rng.normal(size=(1, 3)))


@pytest.mark.parametrize("route", recipes.PCA_ROUTES)
def test_pca_constant_column_fails_every_route_that_scales(rng, route):
    # 2.0 is exactly representable, so the column centres to exactly zero
    data = rng.normal(size=(10, 3))
    data[:, 1] = 2.0
    if route == "eigen_cov":
        assert recipes.pca(data, route=route).l_full.shape == (2,)
    else:
        with pytest.raises(ZeroVarianceColumnError, match="^column 1 has zero variance"):
            recipes.pca(data, route=route)


# ---------------------------------------------------------------------------
# multidimensional scaling


def pairwise_distances(points):
    n = points.shape[0]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = np.sqrt(np.sum((points[i] - points[j]) ** 2))
    return d


def loop_double_center(dist):
    """Gram matrix -0.5 * C D^2 C computed entry by entry."""
    n = dist.shape[0]
    d2 = dist**2
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = -0.5 * (
                d2[i, j] - d2[i].mean() - d2[:, j].mean() + d2.mean()
            )
    return out


def test_double_centered_gram_matches_loop_oracle(rng):
    dist = pairwise_distances(rng.normal(size=(7, 3)))
    assert np.allclose(recipes.double_centered_gram(dist), loop_double_center(dist))


def test_weighted_double_centered_gram_matches_centering_matrix(rng):
    dist = pairwise_distances(rng.normal(size=(7, 2)))
    w = rng.uniform(0.2, 2.0, size=7)
    cw = np.eye(7) - np.outer(np.ones(7), w)
    explicit = -0.5 * cw @ dist**2 @ cw.T
    assert np.allclose(recipes.double_centered_gram(dist, w), explicit, rtol=1e-12, atol=1e-12)


def test_mds_recovers_configuration(rng):
    points = rng.normal(size=(10, 3))
    dist = pairwise_distances(points)
    out = recipes.mds(dist)
    assert out.n_retained == 3  # intrinsic dimensionality
    coords = out.fj
    assert np.allclose(pairwise_distances(coords), dist, atol=1e-8)


def test_mds_input_validation(rng):
    with pytest.raises(NotADistanceMatrixError):
        recipes.mds(rng.normal(size=(4, 3)))
    with pytest.raises(NotADistanceMatrixError):
        recipes.mds(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(NotADistanceMatrixError):
        recipes.mds(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(NotADistanceMatrixError):
        recipes.mds(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_weighted_mds_uniform_weights_match_classical(rng):
    points = rng.normal(size=(9, 3))
    dist = pairwise_distances(points)
    n = dist.shape[0]
    classical = recipes.mds(dist)
    weighted = recipes.weighted_mds(dist, np.full(n, 1.0 / n))
    scores = recipes.mds_score_sets(weighted)["generalized"][:, : classical.n_retained]
    aligned = align_signs(scores, classical.fj)
    assert np.allclose(aligned, classical.fj, atol=1e-9)


def test_weighted_mds_negative_trailing_eigenvalues(rng):
    ages = rng.uniform(20.0, 70.0, size=(12, 1))
    dist = pairwise_distances(ages)
    out = recipes.weighted_mds(dist, 1.0 / ages[:, 0])
    assert out.l_full.min() < -1e-6  # genuinely indefinite, not just noise
    assert out.l_full[0] > 0


def test_weighted_mds_rejects_bad_weights(rng):
    dist = pairwise_distances(rng.normal(size=(5, 2)))
    with pytest.raises(NonPositiveWeightError):
        recipes.weighted_mds(dist, np.array([1.0, 1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(DimensionMismatchError):
        recipes.weighted_mds(dist, np.ones(4))


def assert_same_bits(a, b):
    fa, fb = a.fields(), b.fields()
    assert fa.keys() == fb.keys()
    for name in fa:
        assert np.array_equal(fa[name], fb[name]), name
    assert (a.n_retained, a.n_total_components, a.tol) == (b.n_retained, b.n_total_components, b.tol)


@pytest.mark.parametrize("n", [4, 13, 40])
@pytest.mark.parametrize("k", [0, 2])
def test_mds_equals_geigen_of_its_gram_bit_for_bit(rng, n, k):
    # the recipes hand the matrix they form to geigen's core, past geigen's input checks
    dist = pairwise_distances(rng.normal(size=(n, 3)))
    w = rng.uniform(0.2, 2.0, n)
    assert_same_bits(recipes.weighted_mds(dist, w, k=k),
                     geigen(recipes.double_centered_gram(dist, w), w=w, k=k, tol=None))
    assert_same_bits(recipes.mds(dist, k=k),
                     geigen(recipes.double_centered_gram(dist), k=k, tol=kernel.SQRT_EPS))


@pytest.mark.parametrize("shape", [(10, 3), (60, 12), (8, 11)])
@pytest.mark.parametrize("k", [0, 2])
def test_pca_eigen_routes_equal_geigen_of_the_written_out_matrix(rng, shape, k):
    data = rng.normal(size=shape) * rng.uniform(0.5, 5.0, shape[1]) + 2.0
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (shape[0] - 1)
    sd = np.sqrt(np.diag(cov))
    assert_same_bits(recipes.pca(data, route="eigen_cov", k=k), geigen(cov, k=k))
    assert_same_bits(recipes.pca(data, route="eigen_cor", k=k),
                     geigen(cov / np.outer(sd, sd), k=k))


@pytest.mark.parametrize("route", ["eigen_cov", "eigen_cor"])
def test_pca_hands_its_eigen_route_an_exactly_symmetric_matrix(rng, monkeypatch, route):
    # what lets pca skip geigen's symmetry check: numpy forms centered' centered as one
    # symmetric product, and sd_i sd_j = sd_j sd_i
    seen = []
    real = kernel.tolerance_eigen
    monkeypatch.setattr(kernel, "tolerance_eigen",
                        lambda s, tol, **kw: seen.append(s.copy()) or real(s, tol=tol, **kw))
    for shape in ((10, 3), (60, 12), (8, 11), (500, 40)):
        for order in "CF":
            data = np.asarray(rng.normal(size=shape) * rng.uniform(0.5, 5.0, shape[1]), order=order)
            recipes.pca(data, route=route)
    assert len(seen) == 8
    assert all(np.array_equal(s, s.T) for s in seen)


def test_mds_score_sets_keys(rng):
    dist = pairwise_distances(rng.normal(size=(6, 2)))
    sets = recipes.mds_score_sets(recipes.mds(dist))
    assert set(sets) == {"vector", "generalized", "component"}


# ---------------------------------------------------------------------------
# correspondence analysis family


@RANGE_ENDS
def test_ca_inertia_equals_chi_square_over_n(rng, j):
    counts = rng.integers(1, 50, size=(7, 5)).astype(float)
    out = recipes.ca(np.ldexp(counts, j))
    assert np.isclose(out.l_full.sum(), chi_square_over_n(counts), atol=1e-12)


def test_ca_independent_table_has_no_components():
    # exact rank-one table: observed == expected
    counts = np.outer([10.0, 20.0, 30.0], [1.0, 2.0, 3.0, 4.0])
    out = recipes.ca(counts)
    assert out.n_retained == 0


def test_ca_transition_formula(rng):
    counts = rng.integers(1, 40, size=(6, 4)).astype(float)
    prof = recipes.ca_preprocess(counts)
    out = recipes.ca(counts)
    fi_from_fj = np.diag(1.0 / prof.row_prob) @ prof.deviations @ out.fj @ np.diag(
        1.0 / out.d
    )
    assert np.allclose(fi_from_fj, out.fi, atol=1e-10)


def test_ca_preprocess_validation():
    with pytest.raises(NegativeCountError):
        recipes.ca_preprocess(np.array([[1.0, -2.0], [3.0, 4.0]]))
    with pytest.raises(EmptyMarginError):
        recipes.ca_preprocess(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(EmptyMarginError):
        recipes.ca_preprocess(np.zeros((2, 2)))


def test_disjunctive_coding_shape_and_labels():
    table = [["a", "x"], ["b", "y"], ["a", "x"]]
    tab = recipes.disjunctive_coding(table, variable_names=["u", "w"])
    assert tab.indicator.shape == (3, 4)
    assert np.allclose(tab.indicator.sum(axis=1), 2.0)
    assert tab.level_labels == ("ua", "ub", "wx", "wy")
    assert tab.variable_spans == (("u", 0, 2), ("w", 2, 4))
    # level order is first appearance
    assert np.array_equal(tab.indicator[:, 0], [1.0, 0.0, 1.0])


def test_disjunctive_coding_rejects_degenerate():
    with pytest.raises(SingleLevelVariableError):
        recipes.disjunctive_coding([["a"], ["a"], ["a"]])
    with pytest.raises(DimensionMismatchError):
        recipes.disjunctive_coding([["a", "x"], ["b"]])
    with pytest.raises(SingleLevelVariableError):
        recipes.disjunctive_coding([])


def test_disjunctive_coding_rejects_a_name_count_that_differs():
    with pytest.raises(DimensionMismatchError, match="^1 names for 2 variables"):
        recipes.disjunctive_coding([["a", "x"], ["b", "y"]], variable_names=["u"])


def test_mca_rank_drops_one_dimension_per_variable():
    table = mca_fixture()
    out = recipes.mca(table)
    # 15 indicator columns, 4 variables: 15 - 4 = 11 informative dimensions
    assert out.n_retained == 11


def test_rmca_omega_zero_proportional_to_mca():
    table = mca_fixture()
    tab = recipes.disjunctive_coding(table)
    m = recipes.mca(table)
    r = recipes.rmca(tab, 0.0)
    assert r.n_retained == m.n_retained
    for j in range(m.n_retained):
        ratio = r.fj[:, j] / m.fj[:, j]
        assert np.allclose(ratio, ratio[0], rtol=1e-8)


def test_rmca_scores_shrink_with_omega():
    tab = recipes.disjunctive_coding(mca_fixture())
    norms = [
        np.abs(recipes.rmca(tab, omega).fj).max()
        for omega in (0.0, 1.0, 5.0, 25.0)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_rmca_rejects_negative_omega():
    with pytest.raises(ValueError):
        recipes.rmca(recipes.disjunctive_coding(mca_fixture()), -1.0)


# ---------------------------------------------------------------------------
# two-table methods


@RANGE_ENDS
def test_pls_crossproduct_spectrum(rng, j):
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=(30, 3))
    out = recipes.pls(np.ldexp(x, j), np.ldexp(y, j))
    zx = recipes.center_scale(x)
    zy = recipes.center_scale(y)
    ref = np.linalg.svd(zx.T @ zy, compute_uv=False)
    assert np.allclose(out.d_full, ref, atol=1e-10)
    assert np.allclose(np.diag(out.lx.T @ out.ly), out.d, atol=1e-9)


def classical_canonical_correlations(x, y):
    """Canonical correlations by the textbook eigenproblem
    inv(Sxx) Sxy inv(Syy) Syx."""
    sxx, syy = x.T @ x, y.T @ y
    sxy = x.T @ y
    m = np.linalg.solve(sxx, sxy) @ np.linalg.solve(syy, sxy.T)
    lam = np.sort(np.linalg.eigvals(m).real)[::-1]
    return np.sqrt(np.clip(lam, 0.0, None))


@RANGE_ENDS
def test_cca_matches_classical_oracle(rng, j):
    x = rng.normal(size=(40, 4))
    y = rng.normal(size=(40, 3))
    out = recipes.cca(np.ldexp(x, j), np.ldexp(y, j))
    ref = classical_canonical_correlations(
        recipes.center_scale(x), recipes.center_scale(y)
    )
    assert np.allclose(out.d_full, ref[: out.d_full.size], atol=1e-8)
    assert np.all(out.d <= 1.0 + 1e-10)


@RANGE_ENDS
def test_rrr_d_is_the_spectrum_of_the_x_basis_times_y(rng, j):
    # with Q the thin QR factor of the centred x, d is the spectrum of Q' z(y), z(y) y's z-scores.
    # x's last column repeats its first: x'x is singular, and pinv_constraint's sqrt(eps) cutoff
    # must drop the null direction; Q is taken from the distinct columns, which span x's space
    x, y = rng.normal(size=(40, 3)), rng.normal(size=(40, 2))
    out = recipes.rrr(np.ldexp(np.column_stack([x, x[:, 0]]), j), np.ldexp(y, j))
    q = np.linalg.qr(x - x.mean(axis=0))[0]
    zy = (y - y.mean(axis=0)) / y.std(axis=0, ddof=1)
    ref = np.linalg.svd(q.T @ zy, compute_uv=False)
    assert out.d_full.shape == ref.shape
    assert np.allclose(out.d_full, ref, rtol=0, atol=1e-10 * ref.max())


def test_cca_coefficients_reproduce_latent_scores(rng):
    x = rng.normal(size=(35, 3))
    y = rng.normal(size=(35, 3))
    out = recipes.cca(x, y)
    ax, ay = recipes.cca_coefficients(out)
    zx = recipes.center_scale(x)
    zy = recipes.center_scale(y)
    assert np.allclose(zx @ ax, out.lx, atol=1e-9)
    assert np.allclose(zy @ ay, out.ly, atol=1e-9)
    assert np.allclose(recipes.canonical_correlations(out), out.d)


def test_rrr_invariant_to_x_recombination(rng):
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=(30, 3))
    t = rng.normal(size=(4, 4)) + 3 * np.eye(4)  # invertible mixing
    a = recipes.rrr(x, y, scale=False)
    b = recipes.rrr(x @ t, y, scale=False)
    assert np.allclose(a.d_full, b.d_full, atol=1e-8)


def test_rrr_coefficients_shape(rng):
    x = rng.normal(size=(25, 4))
    y = rng.normal(size=(25, 3))
    out = recipes.rrr(x, y)
    coef = recipes.rrr_coefficients(out)
    assert coef.shape == (4, out.n_retained)
    assert np.allclose(coef, out.p * out.d[None, :])


def test_plsca_self_comparison_recovers_mca_spectrum():
    table = mca_fixture()
    m = recipes.mca(table)
    p = recipes.plsca(table, table)
    assert np.allclose(p.d_full[: m.n_retained], m.l_full, atol=1e-10)


def test_plsca_independent_tables_near_zero_association():
    rng = np.random.default_rng(20240817)
    n = 200
    cat_x = [[rng.choice(list("abc")), rng.choice(list("de"))] for _ in range(n)]
    cat_y = [[rng.choice(list("pqr")), rng.choice(list("st"))] for _ in range(n)]
    out = recipes.plsca(cat_x, cat_y)
    # seed-pinned fixture: observed leading d ~= 0.116
    assert out.d_full[0] < 0.12


def test_plsca_rejects_row_mismatch():
    with pytest.raises(DimensionMismatchError):
        recipes.plsca([["a", "x"], ["b", "y"]], [["p", "s"], ["q", "t"], ["p", "s"]])


# ---------------------------------------------------------------------------
# each caller table is converted once


@pytest.mark.parametrize("recipe, names", [
    (lambda x, y, cx, cy: recipes.ca(np.abs(x) + 1), ["counts"]),
    (lambda x, y, cx, cy: recipes.mca(cx), ["counts"]),
    (lambda x, y, cx, cy: recipes.pca(x, route="triplet_scaled"), ["data"]),
    (lambda x, y, cx, cy: recipes.pca(x, route="triplet_metric"), ["data"]),
    (lambda x, y, cx, cy: recipes.pls(x, y), ["x", "y"]),
    (lambda x, y, cx, cy: recipes.rrr(x, y), ["x", "y"]),
    (lambda x, y, cx, cy: recipes.cca(x, y), ["x", "y"]),
    (lambda x, y, cx, cy: recipes.plsca(cx, cy), ["counts", "counts"]),
], ids=["ca", "mca", "triplet_scaled", "triplet_metric", "pls", "rrr", "cca", "plsca"])
def test_a_recipe_converts_each_caller_table_once(rng, monkeypatch, recipe, names):
    # a recipe hands the tables it formed to a decomposition's core, which converts nothing
    converted, as_matrix = [], kernel.as_matrix

    def counting(a, name):
        converted.append(name)
        return as_matrix(a, name)

    monkeypatch.setattr(kernel, "as_matrix", counting)
    cx = [[rng.choice(list("abc")), rng.choice(list("de"))] for _ in range(20)]
    cy = [[rng.choice(list("pqr")), rng.choice(list("st"))] for _ in range(20)]
    recipe(rng.normal(size=(20, 4)), rng.normal(size=(20, 3)), cx, cy)
    assert converted == names
