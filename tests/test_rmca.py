"""rmca through the thin SVD of the centred indicator against the n x n formula.

The reference below is ridge MCA written out as the paper states it:
gsvd(X, lw = I + omega pinv(X X^T), rw = pinv(diag(colsums) + omega
X^T pinv(X X^T) X)), with the pseudo-inverse taken by SVD at a sqrt(eps)
relative cutoff. rmca forms no n x n matrix, so the two share nothing but
gsvd. Fields are compared up to column sign; where a singular value repeats,
the block's basis is arbitrary and its projector is compared instead.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gmdecomp import cli, kernel, recipes
from gmdecomp.decomp import gsvd
from gmdecomp.errors import EmptyMatrixError, NonFiniteError, NotPSDError, NumericalError

from conftest import align_signs, categorical_table, mca_fixture

FIELDS = ("u", "p", "q", "fi", "fj", "v")
OMEGAS = (0.0, 1.0, 5.0, 25.0)
DBL_MAX = float(np.finfo(np.float64).max)


def _pinv(a):
    u, d, vt = np.linalg.svd(a, full_matrices=False)
    if d[0] == 0:
        return np.zeros(a.T.shape)
    keep = d > kernel.SQRT_EPS * d[0]
    return (vt.T[:, keep] / d[keep]) @ u[:, keep].T


def nxn_rmca(indicator, omega, tol=kernel.EPS):
    centered = indicator - indicator.mean(axis=0)
    cross_inv = _pinv(centered @ centered.T)
    lw = np.eye(centered.shape[0]) + omega * cross_inv
    rw_raw = np.diag(indicator.sum(axis=0)) + omega * (centered.T @ cross_inv @ centered)
    return gsvd(centered, lw=lw, rw=_pinv(rw_raw).T, tol=tol)


def _blocks(d):
    """Index ranges of runs of (nearly) equal singular values."""
    start = 0
    for stop in range(1, d.size + 1):
        if stop == d.size or d[stop - 1] - d[stop] > 1e-4 * d[0]:
            yield slice(start, stop)
            start = stop


def assert_matches_reference(got, ref, rtol=1e-10):
    assert got.n_total_components == ref.n_total_components
    assert np.abs(got.d_full - ref.d_full).max(initial=0.0) <= rtol * max(ref.d_full.max(initial=0.0), 1.0)
    for name in FIELDS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape, name
        scale = np.abs(b).max(initial=1.0)
        for blk in _blocks(ref.d_full):
            x, y = a[:, blk], b[:, blk]
            if x.shape[1] == 1:
                assert np.abs(align_signs(x, y) - y).max() <= rtol * scale, name
            else:
                assert np.abs(x @ x.T - y @ y.T).max() <= rtol * scale**2, name


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("n", [60, 400])
def test_rmca_matches_the_nxn_formula(n, omega):
    table = mca_fixture() if n == 60 else categorical_table(np.random.default_rng(11), n, (3, 4, 5, 4))
    tab = recipes.disjunctive_coding(table)
    assert_matches_reference(recipes.rmca(tab, omega), nxn_rmca(tab.indicator, omega))


def test_rmca_with_the_tolerance_off_keeps_the_null_components():
    tab = recipes.disjunctive_coding(mca_fixture())
    got = recipes.rmca(tab, 5.0, tol=None)
    ref = nxn_rmca(tab.indicator, 5.0, tol=None)
    assert got.n_total_components == ref.n_total_components == 15
    assert np.allclose(got.d_full, ref.d_full, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("omega", [0.0, 2.0])
def test_rmca_constant_table_has_no_component(omega):
    out = recipes.rmca(np.ones((4, 3)), omega)
    assert out.n_total_components == 0
    assert out.p.shape == (4, 0) and out.q.shape == (3, 0)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 40),
    levels=st.lists(st.integers(2, 5), min_size=1, max_size=4),
    duplicate=st.booleans(),
    single=st.booleans(),
    omega=st.sampled_from(OMEGAS),
)
def test_rmca_rank_deficient_tables_match_the_nxn_formula(seed, n, levels, duplicate, single, omega):
    table = categorical_table(np.random.default_rng(seed), n, levels)
    if duplicate:  # a variable coded twice adds no rank
        table = [row + row[:1] for row in table]
    if single:  # a level seen in one row only
        table[-1][0] = "once"
    tab = recipes.disjunctive_coding(table)
    assert_matches_reference(recipes.rmca(tab, omega), nxn_rmca(tab.indicator, omega))


def _hand_built(indicator):
    """A DisjunctiveTable built by hand around `indicator`, with mca_fixture's labels."""
    tab = recipes.disjunctive_coding(mca_fixture())
    return recipes.DisjunctiveTable(indicator, tab.variable_spans, tab.level_labels)


def test_a_hand_built_table_with_a_list_indicator_gives_the_arrays_answer():
    want = recipes.rmca(recipes.disjunctive_coding(mca_fixture()), 1.0).fields()
    got = recipes.rmca(_hand_built(recipes.disjunctive_coding(mca_fixture()).indicator.tolist()),
                       1.0).fields()
    assert {k: a.tobytes() for k, a in got.items()} == {k: a.tobytes() for k, a in want.items()}


@pytest.mark.parametrize("indicator, error, message", [
    (np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]]), NonFiniteError,
     "disjunctive contains NaN or Inf"),
    (np.zeros((0, 3)), EmptyMatrixError, "disjunctive must be a non-empty 2-d matrix"),
], ids=["nan", "empty"])
def test_a_hand_built_tables_indicator_is_checked_at_entry_naming_its_slot(
        indicator, error, message):
    with pytest.raises(error, match=f"^{message}"):
        recipes.rmca(_hand_built(indicator), 1.0)


@pytest.mark.parametrize("omega", [1.7e308, DBL_MAX], ids=["1.7e308", "dbl-max"])
@pytest.mark.parametrize("make", [
    # a column's leverage rounds above 1, and omega times it overflowed the Gram matrix
    lambda: np.random.default_rng(4).normal(size=(20, 3)),
    # squared singular values below 1, where omega / s^2 overflowed the ridge
    lambda: 0.05 * np.random.default_rng(4).normal(size=(20, 3)) + 1.0,
    lambda: recipes.disjunctive_coding(categorical_table(np.random.default_rng(1), 12, (3, 2, 3))),
], ids=["numeric", "numeric-small-variance", "disjunctive"])
def test_rmca_answers_at_an_omega_near_dbl_max(make, omega):
    # where 1 + omega / s^2 overflows it would round to omega / s^2, so the ridge is
    # sqrt(omega) / s; the answer is the one at omega = 1e300, with no warning
    got, want = recipes.rmca(make(), omega), recipes.rmca(make(), 1e300)
    assert all(np.isfinite(a).all() for a in got.fields().values())
    assert np.abs(got.d_full - want.d_full).max() <= 1e-12 * want.d_full[0]


def test_an_underflowed_gram_matrix_is_formed_again_from_its_inputs():
    # column sums of 0 leave omega v v' as the Gram matrix, whose products are subnormal at
    # omega = 2^-1030: formed again at 2^1000, every field is a power of 2 times the answer at
    # omega = 2^-1000 (rw is 4^15 times that one, and the ridge 1 in both), bit for bit
    x = np.ldexp([[1.0, 2.0, -1.0], [-3.0, 0.5, 4.0], [2.0, -2.5, -3.0]], -100)
    want, got = recipes.rmca(x, 2.0**-1000, k=2), recipes.rmca(x, 2.0**-1030, k=2)
    for name, power in dict(d=15, u=0, v=0, p=0, q=-15, fi=15, fj=30).items():
        assert getattr(got, name).tobytes() == np.ldexp(getattr(want, name), power).tobytes()


@pytest.mark.parametrize("omega", [0.0, 1.0])
def test_a_negative_column_sum_is_refused_naming_the_callers_table(omega):
    # diag(column sums) + omega X' pinv(X X') X, whose pseudo-inverse is rw, is PSD for a
    # disjunctive table, whose column sums are counts; this table's first two are -1.1 and -3.4
    x = np.random.default_rng(1).normal(size=(20, 3))
    with pytest.raises(NotPSDError, match=f"^disjunctive: its column sums, with omega = {omega:g}, "
                       "give a column metric that is not positive semi-definite$") as info:
        recipes.rmca(x, omega)
    assert next(code for cls, code in cli._EXIT_CODES if isinstance(info.value, cls)) == 3


def test_omega_moves_d_where_the_squared_singular_values_pass_dbl_max():
    # s^2 near 1e613: squared in the caller's units, every component fell below the rank
    # cutoff, and omega dropped out of the Gram matrix with only an overflow warning
    x = np.abs(np.random.default_rng(0).normal(size=(20, 3))) * 1e306
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_zero, at_max = recipes.rmca(x, 0.0).d, recipes.rmca(x, 1.7e308).d
    assert at_zero.size == at_max.size == 3
    assert np.all(at_max < 0.5 * at_zero)


@pytest.mark.parametrize("omega", [1e300, DBL_MAX], ids=["1e300", "dbl-max"])
@pytest.mark.parametrize("make", [
    lambda: np.random.default_rng(1).normal(size=(20, 3)),
    lambda: np.abs(np.random.default_rng(2).normal(size=(15, 4))),
    lambda: recipes.disjunctive_coding(
        categorical_table(np.random.default_rng(1), 12, (3, 2, 3))).indicator,
], ids=["numeric", "abs-numeric", "disjunctive"])
def test_row_scores_past_dbl_max_are_refused_naming_fi_with_no_warning(make, omega):
    # on a table near 1e-170 the ridge sqrt(omega) / s passes DBL_MAX, but ridge * s, near
    # sqrt(omega), does not: the reduced matrix is finite and solved, and only fi, lifted through
    # the ridge, overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match="^gsvd: the result field fi holds NaN or Inf values$"):
            recipes.rmca(1e-170 * make(), omega)


def test_a_table_near_2_to_the_minus_200_answers_at_omega_1e300():
    # omega / 4^es overflows there: the ridge takes sqrt(omega) / s on the kept directions,
    # and stays 1 on the null ones that a disjunctive coding always has
    tab = recipes.disjunctive_coding(categorical_table(np.random.default_rng(1), 12, (3, 2, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = recipes.rmca(np.ldexp(tab.indicator, -200), 1e300)
    assert got.d.size > 0 and all(np.isfinite(a).all() for a in got.fields().values())
