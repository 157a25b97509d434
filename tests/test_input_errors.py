"""Bad inputs raise typed errors that name the slot at fault."""

import functools
import warnings

import numpy as np
import pytest

from gmdecomp import decomp, recipes
from gmdecomp.decomp import geigen, gplssvd, gsvd
from gmdecomp.errors import (
    DimensionMismatchError,
    EmptyMatrixError,
    GmdError,
    InvalidArgumentError,
    NonFiniteError,
    NotPSDError,
    NotSymmetricError,
    NumericalError,
    ValidationError,
)

from conftest import align_signs, blas_threads, categorical_table, mca_fixture, random_spd


@pytest.fixture
def no_eigh(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("eigh ran before the non-finite input was rejected")

    monkeypatch.setattr(np.linalg, "eigh", fail)


def test_nan_weight_vector_names_its_slot(rng):
    with pytest.raises(NonFiniteError, match=r"^lw contains NaN"):
        gsvd(rng.normal(size=(5, 3)), lw=[1.0, np.nan, 1.0, 1.0, 1.0])


def test_nan_in_dense_metric_names_its_slot(rng, no_eigh):
    w = random_spd(rng, 4)
    w[1, 2] = w[2, 1] = np.nan
    with pytest.raises(NonFiniteError, match=r"^w contains NaN"):
        geigen(random_spd(rng, 4), w=w)
    with pytest.raises(NonFiniteError, match=r"^lw contains NaN"):
        gsvd(rng.normal(size=(4, 3)), lw=w)


@pytest.mark.parametrize("call, slot", [
    (lambda x, w: gsvd(x, lw=w, rw=[1.0, np.nan, 1.0]), "rw"),
    (lambda x, w: gplssvd(x, x, xlw=w, yrw=[1.0, np.inf, 1.0]), "yrw"),
], ids=["gsvd", "gplssvd"])
def test_a_bad_slot_is_named_before_any_slot_is_factorized(rng, eigh_calls, call, slot):
    with pytest.raises(NonFiniteError, match=f"^{slot} contains NaN"):
        call(rng.normal(size=(6, 3)), random_spd(rng, 6))
    assert eigh_calls == []


_SPD = random_spd(np.random.default_rng(5), 6)
_TABLE = recipes.disjunctive_coding(mca_fixture())


@pytest.mark.parametrize("arg, call", [
    ("k", lambda x: gsvd(x, lw=_SPD, k="a")),
    ("k", lambda x: gsvd(x, lw=_SPD, k=None)),
    ("k", lambda x: gsvd(x, lw=_SPD, k=2.7)),
    ("k", lambda x: geigen(_SPD, w=_SPD, k=np.float64(2.0))),
    ("k", lambda x: gplssvd(x, x, xlw=_SPD, k="2")),
    ("k", lambda x: recipes.rmca(_TABLE, 1.0, k=2.7)),
    ("tol", lambda x: gsvd(x, lw=_SPD, tol=-1.0)),
    ("tol", lambda x: geigen(_SPD, w=_SPD, tol="a")),
    ("tol", lambda x: gsvd(x, lw=_SPD, tol="1e-3")),
    ("tol", lambda x: gplssvd(x, x, xlw=_SPD, tol=float("nan"))),
    ("tol", lambda x: recipes.rmca(_TABLE, 1.0, tol=-1.0)),
    ("omega", lambda x: recipes.rmca(_TABLE, "a")),
    ("omega", lambda x: recipes.rmca(_TABLE, None)),
], ids=["gsvd-k-str", "gsvd-k-none", "gsvd-k-float", "geigen-k-np-float", "gplssvd-k-str",
        "rmca-k-float", "gsvd-tol-negative", "geigen-tol-str", "gsvd-tol-numeric-str",
        "gplssvd-tol-nan", "rmca-tol-negative", "rmca-omega-str", "rmca-omega-none"])
def test_a_bad_scalar_argument_is_named_before_any_slot_is_factorized(rng, eigh_calls, arg, call):
    with pytest.raises(InvalidArgumentError, match=f"^{arg} must be"):
        call(rng.normal(size=(6, 3)))
    assert eigh_calls == []


def test_an_integer_k_of_any_integer_type_is_taken(rng):
    x = rng.normal(size=(6, 3))
    full = gsvd(x, lw=_SPD)
    for k in (2, np.int64(2), np.int32(2)):
        assert np.array_equal(gsvd(x, lw=_SPD, k=k).p, full.p[:, :2])


def test_a_dense_metric_is_checked_for_finiteness_once(rng, monkeypatch):
    lw = random_spd(rng, 6)
    seen = []
    real = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a, *args, **kw: seen.append(a is lw) or real(a))
    gsvd(rng.normal(size=(6, 3)), lw=lw)
    assert sum(seen) == 1


def test_a_dense_metric_past_the_range_gives_the_fields_of_its_normalized_copy(rng):
    # finite, symmetric and PSD: in 2^1022 full(1.5), the largest eigenvalue, 4.5 * 2^1022,
    # overflows; in 2^1022 (2 m), w + w' does. Each is normalized by 4^-511, so every field is
    # the unscaled metric's times its power of 2, bit for bit, with d^2 and the scores finite
    # (the tolerance is off: tol is in the caller's units, and would keep more at 2^1022)
    x = rng.normal(size=(3, 2)) / 16
    a = rng.normal(size=(3, 3))
    for m in (np.full((3, 3), 1.5), 2 * (a @ a.T / 3 + np.eye(3)) / np.abs(a @ a.T / 3).max()):
        huge = gsvd(x, lw=np.ldexp(m, 1022), tol=None).fields()
        base = gsvd(x, lw=m, tol=None).fields()
        powers = dict(d=511, d_full=511, l=1022, l_full=1022, p=-511, fi=1022, fj=511)
        assert {k: a.tobytes() for k, a in huge.items()} == {
            k: np.ldexp(a, powers.get(k, 0)).tobytes() for k, a in base.items()}


def _unwrapped(call):
    """`call` under numpy's default error handling, outside the test's errstate wrapper: a
    warning it gives fails the test."""
    def run():
        with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
            return call()
    return run


# finite distances near 1e200 give eigenvalues past DBL_MAX, as do finite data near 1e200 in a
# covariance; the routes whose d does not depend on the data's scale answer
_FAR = 1e200 * (1.0 - np.eye(4))
_HUGE = 1e200 * np.random.default_rng(6).normal(size=(6, 3))
_Y = np.random.default_rng(7).normal(size=(6, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: geigen(np.diag([1e300, 1.0]), w=[1e10, 1.0]), "geigen: the result field l_full"),
    (lambda: gsvd(np.diag([1e300, 1.0]), lw=[1e20, 1.0]), "gsvd: the result field d_full"),
    (lambda: gplssvd(np.full((3, 2), 1e200), np.full((3, 2), 1e200)),
     "gplssvd: the result field d_full"),
    (lambda: recipes.mds(_FAR), "geigen: the result field l_full"),
    (lambda: recipes.weighted_mds(_FAR, np.ones(4)), "geigen: the result field l_full"),
    (lambda: recipes.pca(_HUGE, route="eigen_cov"), "geigen: the result field l_full"),
], ids=["geigen", "gsvd", "gplssvd", "mds", "weighted_mds", "pca-eigen_cov"])
def test_a_result_field_past_dbl_max_is_numerical_with_no_warning(call, message):
    # every input is finite, and so is every matrix the library forms from its normalized
    # copies: only the result, scaled back, overflows
    with pytest.raises(NumericalError, match=f"^{message} holds NaN or Inf values"):
        _unwrapped(call)()


@pytest.mark.parametrize("call, j", [
    (lambda x, y: recipes.pca(x, route="eigen_cor"), 664),
    (lambda x, y: recipes.pca(x, route="triplet_scaled"), 664),
    (lambda x, y: recipes.pca(x, route="triplet_metric"), 664),
    (recipes.pls, 664), (recipes.rrr, 664), (lambda x, y: recipes.cca(y, x), 664),
    (functools.partial(recipes.rrr, scale=False), 664),
    (lambda x, y: recipes.cca(y, x, scale=False), 664),
    # near 2^-532, x'x underflows: its pseudo-inverse is taken from normalized data
    (functools.partial(recipes.rrr, scale=False), -532),
    (functools.partial(recipes.cca, scale=False), -532),
    (lambda x, y: recipes.cca(y, x, scale=False), -532),
], ids=["pca-eigen_cor", "pca-triplet_scaled", "pca-triplet_metric", "pls", "rrr", "cca",
        "rrr-unscaled", "cca-unscaled", "rrr-tiny", "cca-x-tiny", "cca-y-tiny"])
def test_a_d_that_does_not_depend_on_the_data_scale_is_given_at_its_ends(call, j):
    # _HUGE is 2^664 times a table x in the normal range: at x 2^j, d is x's, bit for bit
    x = np.ldexp(_HUGE, -664)
    want = _unwrapped(lambda: call(x, _Y))().d
    assert _unwrapped(lambda: call(np.ldexp(x, j), _Y))().d.tobytes() == want.tobytes()


def test_inf_in_each_gplssvd_constraint_names_its_slot(rng, no_eigh):
    x, y = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    for slot, dim in (("xlw", 4), ("xrw", 3), ("ylw", 4), ("yrw", 2)):
        bad = np.ones(dim)
        bad[-1] = np.inf
        with pytest.raises(NonFiniteError, match=f"^{slot} contains"):
            gplssvd(x, y, **{slot: bad})


def test_non_finite_data_names_its_slot(rng, no_eigh):
    x = rng.normal(size=(4, 3))
    x[0, 0] = np.nan
    with pytest.raises(NonFiniteError, match=r"^x contains NaN"):
        gsvd(x)
    with pytest.raises(NonFiniteError, match=r"^x contains NaN"):
        geigen(np.array([[1.0, np.inf], [np.inf, 1.0]]))
    with pytest.raises(NonFiniteError, match=r"^y contains NaN"):
        gplssvd(rng.normal(size=(4, 3)), x)


def test_non_finite_result_is_numerical():
    # x and the matrix the solver gets are finite; d = 1e305 overflows in
    # d^2 (l) and in lw^(1/2) u d (fi)
    with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match=r"^gsvd: the result field l_full holds NaN or Inf"):
        gsvd([[1e300, 0], [0, 1]], lw=[1e10, 1])
    # d = 1e308 overflows in d^2; blamed on gplssvd, not on the gsvd inside it
    with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match=r"^gplssvd: the result field l_full holds NaN or Inf"):
        gplssvd([[1e154, 0], [0, 1]], [[1e154, 0], [0, 1]])


@pytest.mark.parametrize("one", [True, False], ids=["blas-pinned", "blas-default"])
def test_a_column_metric_that_is_not_psd_is_named_whatever_the_data_scale(
        rng, monkeypatch, one):
    # near 1e160, x' y would overflow, but x and y are normalized first: a yrw that is not PSD
    # is named, whichever route the dense metrics take; a PSD one gives a d past DBL_MAX
    monkeypatch.setattr(decomp, "_OPENBLAS", True)
    x, y = rng.normal(size=(20, 3)) * 1e160, rng.normal(size=(20, 4)) * 1e160
    xrw, yrw = random_spd(rng, 3), random_spd(rng, 4)
    with blas_threads(one):
        for scale in (1.0, 1e-160):
            with pytest.raises(NotPSDError, match=r"^yrw is not positive semi-definite"):
                gplssvd(x * scale, y * scale, xrw=xrw, yrw=yrw - 10.0 * np.eye(4))
        with pytest.raises(NumericalError, match=r"^gplssvd: the result field d_full holds"):
            gplssvd(x, y, xrw=xrw, yrw=yrw)


def test_a_cross_product_that_underflows_through_zero_row_weights_keeps_no_component():
    # x and y have their largest rows where the row metrics weigh 0, and their other rows near
    # 2^-600: d, 2^-1200, underflows in the caller's units, and the tolerance drops it
    x = y = np.array([[1.0], [2.0**-600]])
    assert gplssvd(x, y, xlw=[0.0, 1.0], ylw=[0.0, 1.0]).n_retained == 0


def test_bad_arguments_raise_invalid_argument_error(rng):
    with pytest.raises(InvalidArgumentError, match="unknown PCA route"):
        recipes.pca(rng.normal(size=(10, 3)), route="nope")
    x = rng.normal(size=(10, 3))
    for call in (lambda: gsvd(x, k=-1), lambda: geigen(x.T @ x, k=-1),
                 lambda: gplssvd(x, x, k=np.int64(-1)), lambda: recipes.pca(x, k=-1)):
        with pytest.raises(InvalidArgumentError, match="^k must be a nonnegative integer, got -1$"):
            call()
    table = recipes.disjunctive_coding(mca_fixture())
    for omega in (-1.0, float("nan"), float("inf")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # named before any arithmetic warns
            with pytest.raises(InvalidArgumentError, match="omega must be nonnegative"):
                recipes.rmca(table, omega)
    assert issubclass(InvalidArgumentError, GmdError)
    assert issubclass(InvalidArgumentError, ValueError)


def test_geigen_asymmetric_input_is_not_symmetric_error():
    with pytest.raises(NotSymmetricError) as info:
        geigen(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert isinstance(info.value, ValidationError)


@pytest.mark.parametrize("method", [recipes.pls, recipes.rrr, recipes.cca])
def test_one_row_table_is_a_dimension_error(method):
    one_row = np.array([[1.0, 2.0, 3.0]])
    with pytest.raises(DimensionMismatchError, match="at least 2 rows"):
        method(one_row, one_row)


_NAN_TABLE = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, np.nan], [1.0, 1.0, 0.0]])
_NAN_DIST = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, np.nan], [2.0, np.nan, 0.0]])
_DIST = np.nan_to_num(_NAN_DIST, nan=1.5)


@pytest.mark.parametrize("slot, call", [
    ("disjunctive", lambda: recipes.rmca(_NAN_TABLE, 1.0)),
    ("counts", lambda: recipes.ca([[1.0, np.inf], [2.0, 3.0]])),
    ("counts", lambda: recipes.ca(_NAN_TABLE)),
    ("dist", lambda: recipes.mds(_NAN_DIST)),
    ("dist", lambda: recipes.weighted_mds(_NAN_DIST, np.ones(3))),
    ("row_weights", lambda: recipes.weighted_mds(_DIST, [1.0, np.nan, 1.0])),
], ids=["rmca-nan", "ca-inf", "ca-nan", "mds-nan", "wmds-nan", "wmds-nan-weight"])
def test_recipe_raw_input_non_finite_names_its_slot(slot, call):
    with pytest.raises(NonFiniteError, match=f"^{slot} contains NaN or Inf"):
        call()


@pytest.fixture
def lapack_calls(monkeypatch):
    """The names of the np.linalg.eigh, svd and cholesky calls made while the test runs. One
    given a NaN or Inf fails the test in place of LAPACK, which may not return on it."""
    calls = []
    for name in ("eigh", "svd", "cholesky"):
        def finite_only(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            assert np.isfinite(a).all(), f"{_name} was given a NaN or Inf"
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, finite_only)
    return calls


_DBL_MAX = float(np.finfo(np.float64).max)
_RNG = np.random.default_rng(4)
_X, _Y2 = _RNG.normal(size=(30, 3)), _RNG.normal(size=(30, 2))
# rows near 2^600 that never meet, so that x' y comes from the rows near 1 alone
_DX, _DY = _X.copy(), _Y2.copy()
_DX[:10], _DX[10:20], _DY[:10] = np.ldexp(_X[:10], 600), 0.0, 0.0
_DY[10:20] = np.ldexp(_Y2[10:20], 600)


@pytest.mark.parametrize("call, error", [
    (lambda: recipes.weighted_mds(_DIST, np.full(3, 1e200)), NumericalError),
    (lambda: recipes.rmca(_X[:20], _DBL_MAX), None),
    (lambda: recipes.rmca(recipes.disjunctive_coding(
        categorical_table(np.random.default_rng(1), 12, (3, 2, 3))), _DBL_MAX), None),
    (lambda: recipes.rmca(recipes.DisjunctiveTable(_NAN_TABLE, (), ()), 1.0), NonFiniteError),
    *[(lambda j=j: recipes.pls(np.ldexp(_X, j), _Y2), None) for j in (1000, -1000)],
    *[(lambda j=j: recipes.cca(np.ldexp(_X, j), _Y2), None) for j in (1000, -1000)],
    *[(lambda j=j: recipes.pca(np.ldexp(_X, j)), None) for j in (1000, -1000)],
    (lambda: gplssvd(_DX, _DY), None),
    # rmca's centred table past DBL_MAX: an entry of it overflows, or a column sum
    (lambda: recipes.rmca([[1.7e308, 1.0], [-1.7e308, 2.0], [-1.7e308, 0.0]], 1.0),
     NumericalError),
    (lambda: recipes.rmca([[1e308, 1.0], [1e308, 2.0], [1e308, 0.0]], 1.0), NumericalError),
], ids=["wmds-huge-masses", "rmca-numeric-dbl-max", "rmca-disjunctive-dbl-max",
        "rmca-nan-hand-built", "pls-2^1000", "pls-2^-1000", "cca-2^1000", "cca-2^-1000",
        "pca-2^1000", "pca-2^-1000", "gplssvd-disjoint-rows", "rmca-centring-overflows",
        "rmca-column-sums-overflow"])
def test_lapack_is_given_only_finite_matrices(lapack_calls, call, error):
    # caller arrays are checked at entry and formed matrices by decomp._formed, so no NaN or
    # Inf reaches eigh, svd or cholesky, whether the call answers or raises
    if error is None:
        call()
        assert lapack_calls
    else:
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("route", recipes.PCA_ROUTES)
def test_pca_raw_data_is_checked_first(route):
    with pytest.raises(EmptyMatrixError, match=r"^data must be a non-empty 2-d matrix"):
        recipes.pca(np.arange(5.0), route=route)
    with pytest.raises(NonFiniteError, match=r"^data contains NaN or Inf"):
        recipes.pca(_NAN_TABLE, route=route)
