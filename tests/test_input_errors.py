"""Bad inputs raise typed errors that name the slot at fault."""

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

from conftest import align_signs, blas_threads, mca_fixture, random_spd


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


def test_dense_metric_that_overflows_names_its_slot(rng):
    # finite, symmetric and PSD, but its largest eigenvalue, 2e308, overflows
    x = rng.normal(size=(2, 3))
    with pytest.raises(NumericalError, match=r"^lw: its largest eigenvalue overflows$"):
        gsvd(x, lw=np.full((2, 2), 1e308))
    # w + w' overflows, but the spectrum, 2^1023 times 1.42 and 0.78, is finite; so are d^2
    # and the scores, at x / 16
    x, m = x / 16, np.array([[1.2, 0.3], [0.3, 1.0]])
    huge, base = gsvd(x, lw=m * 2.0**1023), gsvd(x, lw=m)
    assert np.allclose(huge.d, base.d * 2**511.5, rtol=1e-13, atol=0)
    assert np.allclose(align_signs(huge.p, base.p) * 2**511.5, base.p, rtol=0, atol=1e-13)


def _unwrapped(call):
    """`call` under numpy's default error handling, outside the test's errstate wrapper: a
    warning it gives fails the test."""
    def run():
        with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
            return call()
    return run


# finite distances near 1e200 overflow in dist**2, finite data near 1e200 in centered' centered
_FAR = 1e200 * (1.0 - np.eye(4))
_HUGE = 1e200 * np.random.default_rng(6).normal(size=(6, 3))
_Y = np.random.default_rng(7).normal(size=(6, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: geigen(np.diag([1e300, 1.0]), w=[1e10, 1.0]), "the matrix to factorize overflowed"),
    (lambda: gsvd(np.diag([1e300, 1.0]), lw=[1e20, 1.0]), "the matrix to factorize overflowed"),
    (lambda: gplssvd(np.full((3, 2), 1e200), np.full((3, 2), 1e200)),
     "the cross-product xl' yl overflowed"),
    (_unwrapped(lambda: recipes.mds(_FAR)), "the matrix to factorize overflowed"),
    (_unwrapped(lambda: recipes.weighted_mds(_FAR, np.ones(4))),
     "the matrix to factorize overflowed"),
    (_unwrapped(lambda: recipes.pca(_HUGE, route="eigen_cov")),
     "the matrix to factorize overflowed"),
    # a column's sum of squares overflows in the scaling, or in triplet_metric's column metric
    (_unwrapped(lambda: recipes.pca(_HUGE, route="eigen_cor")),
     "a column's sum of squares overflowed"),
    (_unwrapped(lambda: recipes.pca(_HUGE, route="triplet_scaled")),
     "a column's sum of squares overflowed"),
    (_unwrapped(lambda: recipes.pca(_HUGE, route="triplet_metric")),
     "a column's sum of squares overflowed"),
    (_unwrapped(lambda: recipes.pls(_HUGE, _Y)), "a column's sum of squares overflowed"),
    (_unwrapped(lambda: recipes.rrr(_HUGE, _Y)), "a column's sum of squares overflowed"),
    (_unwrapped(lambda: recipes.cca(_Y, _HUGE)), "a column's sum of squares overflowed"),
    # unscaled, x'x overflows
    (_unwrapped(lambda: recipes.rrr(_HUGE, _Y, scale=False)),
     "the matrix to factorize overflowed"),
    (_unwrapped(lambda: recipes.cca(_Y, _HUGE, scale=False)),
     "the matrix to factorize overflowed"),
], ids=["geigen", "gsvd", "gplssvd", "mds", "weighted_mds", "pca-eigen_cov", "pca-eigen_cor",
        "pca-triplet_scaled", "pca-triplet_metric", "pls", "rrr", "cca", "rrr-unscaled",
        "cca-unscaled"])
def test_overflow_in_a_formed_matrix_is_numerical(call, message):
    # every input is finite: the overflow is in the matrix the library forms
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match=f"^{message}"):
        call()


@pytest.mark.parametrize("call, slot", [
    (lambda x, y: recipes.rrr(x * 1e-160, y, scale=False), "xrw"),
    (lambda x, y: recipes.cca(x * 1e-160, y, scale=False), "xrw"),
    (lambda x, y: recipes.cca(x, y * 1e-160, scale=False), "yrw"),
], ids=["rrr", "cca-x", "cca-y"])
def test_pseudo_inverse_that_overflows_is_numerical(rng, call, slot):
    # the Gram matrix's eigenvalues are near 1e-320: their inverses overflow, with no warning
    x, y = rng.normal(size=(10, 3)), rng.normal(size=(10, 2))
    with pytest.raises(NumericalError, match=f"^{slot}: the pseudo-inverse of its Gram matrix "
                                             "overflows"):
        call(x, y)


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
def test_an_overflowing_cross_product_is_raised_before_a_column_metric_is_factorized(
        rng, monkeypatch, one):
    # gplssvd checks xl' yl before it factorizes xrw and yrw, so its overflow wins over a yrw
    # that is not PSD, whichever route the dense metrics take
    monkeypatch.setattr(decomp, "_OPENBLAS", True)
    x, y = rng.normal(size=(20, 3)) * 1e160, rng.normal(size=(20, 4)) * 1e160
    yrw = random_spd(rng, 4) - 10.0 * np.eye(4)
    with blas_threads(one):
        with pytest.raises(NumericalError, match=r"^the cross-product xl' yl overflowed"):
            gplssvd(x, y, xrw=random_spd(rng, 3), yrw=yrw)
        with pytest.raises(NotPSDError, match=r"^yrw is not positive semi-definite"):
            gplssvd(x * 1e-160, y * 1e-160, xrw=random_spd(rng, 3), yrw=yrw)


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


@pytest.mark.parametrize("route", recipes.PCA_ROUTES)
def test_pca_raw_data_is_checked_first(route):
    with pytest.raises(EmptyMatrixError, match=r"^data must be a non-empty 2-d matrix"):
        recipes.pca(np.arange(5.0), route=route)
    with pytest.raises(NonFiniteError, match=r"^data contains NaN or Inf"):
        recipes.pca(_NAN_TABLE, route=route)
