import numpy as np
import pytest

from gmdecomp import constraints
from gmdecomp.decomp import gsvd
from gmdecomp.errors import DimensionMismatchError, NonFiniteError, NotPSDError

from conftest import random_spd


def dense_left_product(m, x):
    """Triple-loop matrix product oracle for the dense left metric path."""
    out = np.zeros((m.shape[0], x.shape[1]))
    for i in range(m.shape[0]):
        for j in range(x.shape[1]):
            acc = 0.0
            for t in range(m.shape[1]):
                acc += m[i, t] * x[t, j]
            out[i, j] = acc
    return out


def canonical(raw, dim, name="constraint"):
    """A raw constraint checked and factorized, as the decompositions take it."""
    return constraints.factorize(constraints.check_constraint(raw, dim, name)[0], name)


def eigenpairs(m):
    """A dense metric's clipped eigenvalues and eigenvectors, as factorize keeps them."""
    c = constraints.factorize(m)
    return c.weights, c.basis


def test_none_becomes_identity():
    c = canonical(None, 4)
    assert c.kind == constraints.IDENTITY
    assert c.weights is None and c.basis is None
    assert np.array_equal(constraints.apply_sqrt_metric(c, np.eye(4)), np.eye(4))


def test_vector_becomes_diagonal():
    c = canonical([1.0, 2.0, 3.0], 3)
    assert c.kind == constraints.DIAGONAL
    assert np.array_equal(c.weights, [1.0, 2.0, 3.0])


def test_all_ones_collapses_to_identity():
    assert canonical(np.ones(5), 5).kind == constraints.IDENTITY
    assert canonical(np.eye(5), 5).kind == constraints.IDENTITY


def test_diagonal_matrix_demoted_to_vector():
    c = canonical(np.diag([2.0, 5.0]), 2)
    assert c.kind == constraints.DIAGONAL
    assert np.array_equal(c.weights, [2.0, 5.0])


def test_dense_spd_accepted(rng):
    m = random_spd(rng, 4)
    c = canonical(m, 4)
    assert c.kind == constraints.DENSE
    assert np.allclose((c.basis * c.weights) @ c.basis.T, m)


def test_a_dense_matrix_is_checked_without_a_copy(rng):
    # every LAPACK call reads an exactly symmetric metric as it is; one off exact symmetry is
    # read as the (w + w')/2 formed once, here
    w = random_spd(rng, 5)
    assert constraints.check_constraint(w, 5, "lw")[0] is w
    p = rng.normal(size=(5, 5))
    near = w + 1e-13 * (p - p.T)
    got = constraints.check_constraint(near, 5, "lw")[0]
    assert got is not near and np.array_equal(got, (near + near.T) / 2.0)


def test_a_diagonal_matrix_is_found_without_an_n_by_n_temporary(rng, traced_peak):
    # traced bytes, never time: the check of an exactly symmetric dense metric at n = 1000
    # peaked at 8.58 MiB while a dense diagonal matrix was built to compare it with; its
    # isfinite mask, 0.95 MiB, is the largest array left
    w = random_spd(rng, 1000)
    assert traced_peak(constraints.check_constraint, w, 1000, "w") < 2 * 2**20
    # -0.0 off the diagonal is a zero, as it was to the comparison
    m = np.diag([2.0, 5.0, 3.0])
    m[0, 2] = m[2, 0] = -0.0
    assert np.array_equal(canonical(m, 3).weights, [2.0, 5.0, 3.0])


def test_rejects_negative_weights_and_indefinite():
    with pytest.raises(NotPSDError):
        canonical([1.0, -2.0], 2)
    with pytest.raises(NotPSDError):
        canonical(np.array([[1.0, 2.0], [2.0, 1.0]]), 2)
    with pytest.raises(NotPSDError):
        canonical(np.array([[1.0, 2.0], [0.5, 1.0]]), 2)


def test_constraint_built_from_eigenpairs_matches_its_matrix(rng, blas_one_thread):
    # a Constraint is kept as given: weights on an orthonormal basis. It is applied
    # through its roots, as the singular matrix is; the positive definite matrix is
    # solved in its Cholesky frame (BLAS on one thread), which agrees up to rounding
    # and column sign
    a = rng.normal(size=(3, 1))
    for m, same_route in ((random_spd(rng, 3), False), (a @ a.T, True)):
        hand = constraints.Constraint(3, *eigenpairs(m), "lw")
        assert hand.kind == constraints.DENSE
        x = rng.normal(size=(3, 4))
        got, want = gsvd(x, lw=hand).fields(), gsvd(x, lw=m).fields()
        for k in want:
            if same_route:
                assert np.array_equal(got[k], want[k]), k
            else:
                have = got[k] * np.where((got[k] * want[k]).sum(axis=0) < 0, -1.0, 1.0)
                assert np.abs(have - want[k]).max() <= 1e-10 * np.abs(want[k]).max(), k


def test_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        canonical(np.ones(3), 4)
    with pytest.raises(DimensionMismatchError):
        canonical(np.eye(3), 4)


@pytest.mark.parametrize("raw", [
    constraints.Constraint(3, np.ones(3), name="lw"), np.float64(2.0), np.ones((2, 2, 2)),
], ids=["constraint-dim", "0-d", "3-d"])
def test_rejects_constraint_of_the_wrong_shape_naming_its_slot(raw):
    with pytest.raises(DimensionMismatchError, match="^rw: "):
        canonical(raw, 2, "rw")


def test_identity_application_returns_input_unchanged(rng):
    x = rng.normal(size=(4, 3))
    c = canonical(None, 4)
    assert constraints.apply_sqrt_metric(c, x) is x
    assert constraints.apply_roots(c, x)[0] is x


def test_diagonal_application_matches_matrix_product(rng):
    x = rng.normal(size=(4, 3))
    w = np.array([1.0, 4.0, 9.0, 16.0])
    c = canonical(w, 4)
    assert np.allclose(constraints.apply_sqrt_metric(c, x), np.diag(np.sqrt(w)) @ x)
    assert np.allclose(
        constraints.apply_roots(c, x)[0], np.diag(1 / np.sqrt(w)) @ x
    )
    root = constraints.apply_sqrt_metric(c, np.eye(4))
    assert np.allclose(root @ root @ x, np.diag(w) @ x)


def test_diagonal_invsqrt_zero_weight_maps_to_zero():
    c = canonical([4.0, 0.0], 2)
    out = constraints.apply_roots(c, np.eye(2))[0]
    assert np.allclose(out, np.diag([0.5, 0.0]))


def test_dense_application_matches_loop_oracle(rng):
    m = random_spd(rng, 4)
    x = rng.normal(size=(4, 3))
    c = canonical(m, 4)
    # the root applied twice is the metric
    twice = constraints.apply_sqrt_metric(c, constraints.apply_sqrt_metric(c, x))
    assert np.allclose(twice, dense_left_product(m, x))
    # sqrt and invsqrt round-trip through the metric
    half = constraints.apply_sqrt_metric(c, np.eye(4))
    assert np.allclose(half @ half, m, atol=1e-10)
    invhalf = constraints.apply_roots(c, np.eye(4))[0]
    assert np.allclose(invhalf @ m @ invhalf, np.eye(4), atol=1e-9)


@pytest.mark.parametrize("weights, basis, error, message", [
    ([-1.0, 1.0], None, NotPSDError, "lw has a negative weight"),
    ([np.nan, 1.0], None, NonFiniteError, "lw contains NaN or Inf"),
    ([1.0, np.inf], np.eye(2), NonFiniteError, "lw contains NaN or Inf"),
    ([1.0, 2.0, 3.0], None, DimensionMismatchError, r"lw: weights of shape \(3,\)"),
    ([1.0, 2.0], np.eye(3), DimensionMismatchError, r"lw: basis of shape \(3, 3\)"),
    ([1.0, 2.0], np.eye(2)[:, :1], DimensionMismatchError, "lw: basis of shape"),
    ([1.0, 2.0], np.array([[np.nan, 0.0], [0.0, 1.0]]), NonFiniteError,
     "lw: basis contains NaN or Inf"),
], ids=["negative", "nan", "inf-dense", "weights-shape", "basis-shape", "thin-basis",
        "nan-basis"])
def test_hand_built_constraint_is_checked_like_any_input(weights, basis, error, message):
    with pytest.raises(error, match=f"^{message}"):
        constraints.Constraint(2, np.array(weights), basis, "lw")



@pytest.mark.parametrize("basis", [None, [[0.6, -0.8], [0.8, 0.6]]], ids=["diagonal", "dense"])
def test_hand_built_constraint_given_as_lists_matches_arrays(rng, basis):
    x = rng.normal(size=(2, 3))
    as_lists = constraints.Constraint(2, [1.0, 2.0], basis, "lw")
    as_arrays = constraints.Constraint(
        2, np.array([1.0, 2.0]), None if basis is None else np.array(basis), "lw")
    got, want = gsvd(x, lw=as_lists).fields(), gsvd(x, lw=as_arrays).fields()
    assert all(np.array_equal(got[k], want[k]) for k in want)


def test_hand_built_basis_without_weights_is_rejected():
    # it used to be an identity constraint, the basis silently ignored
    with pytest.raises(DimensionMismatchError, match="^lw: a basis was given without weights"):
        gsvd(np.eye(2), lw=constraints.Constraint(2, None, np.eye(2), "lw"))
