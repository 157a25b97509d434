import numpy as np
import pytest

from gmdecomp import constraints, kernel
from gmdecomp.decomp import geigen
from gmdecomp.errors import (
    ComplexOrNegativeEigenvalueError,
    DimensionMismatchError,
    InvalidArgumentError,
    NonSquareError,
    NotPSDError,
    NotSymmetricError,
)

from conftest import align_signs


# ---------------------------------------------------------------------------
# independent oracles


def charpoly_coefficients(a):
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier
    recursion (no eigenvalue routine involved)."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def inverse_iteration(a, lam, iters=50):
    """Eigenvector for an (approximate) eigenvalue via shifted inverse
    iteration with a tiny regularizing offset."""
    n = a.shape[0]
    shift = lam + 1e-8
    v = np.ones(n) / np.sqrt(n)
    for _ in range(iters):
        v = np.linalg.solve(a - shift * np.eye(n), v)
        v = v / np.linalg.norm(v)
    return v


def test_symmetric_eigen_identity():
    out = kernel.tolerance_eigen(np.eye(3), tol=None)
    assert np.allclose(out.values, [1, 1, 1])
    # columns of an orthonormal basis for each eigenspace
    assert np.allclose(out.vectors @ out.vectors.T, np.eye(3))


def test_symmetric_eigen_2x2_closed_form():
    out = kernel.tolerance_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]), tol=None)
    assert np.allclose(out.values, [3.0, 1.0])
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(align_signs(out.vectors, expected), expected)


def test_symmetric_eigen_against_charpoly_oracle(rng):
    a = rng.normal(size=(5, 5))
    s = (a + a.T) / 2
    out = kernel.tolerance_eigen(s, tol=None)
    roots = np.sort(np.roots(charpoly_coefficients(s)).real)[::-1]
    assert np.allclose(out.values, roots, atol=1e-9)
    for j, lam in enumerate(out.values):
        v = inverse_iteration(s, lam)
        if np.dot(v, out.vectors[:, j]) < 0:
            v = -v
        assert np.allclose(out.vectors[:, j], v, atol=1e-9)


def test_symmetric_eigen_rejects_bad_input():
    # geigen checks its x at entry; tolerance_eigen does not check again
    with pytest.raises(NonSquareError, match="^x must be square"):
        geigen(np.ones((2, 3)), tol=None)
    with pytest.raises(NotSymmetricError, match="^x must be symmetric"):
        geigen(np.array([[1.0, 2.0], [0.0, 1.0]]), tol=None)


def test_asymmetry_matches_the_magnitude_formula(rng):
    # reference: |s - s'| against SYMMETRY_RTOL * max|s|, entry by entry; asymmetry is at most 1
    # exactly when the reference holds, and 0 only for an exactly symmetric matrix
    def reference(s):
        allowed = kernel.SYMMETRY_RTOL * max(np.abs(s).max(), 1e-300)
        return bool(np.abs(s - s.T).max() <= allowed)

    decisions = set()
    for _ in range(400):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-200, 200)
        s = (a + a.T) / 2
        assert kernel.asymmetry(s) == 0
        s = s + rng.normal(size=(n, n)) * np.abs(s).max() * 10.0 ** rng.uniform(-12, -9)
        if rng.random() < 0.2:
            s = -np.abs(s)
        assert (kernel.asymmetry(s) <= 1) == reference(s)
        assert (kernel.asymmetry(s) == 0) == np.array_equal(s, s.T)
        decisions.add(reference(s))
    assert decisions == {True, False}


def test_asymmetry_forms_no_n_by_n_array(rng, traced_peak):
    # s - s' is formed a block of about 65 536 entries at a time: 0.5 MiB, not 7.6 MiB
    a = rng.normal(size=(1000, 1000))
    s = (a + a.T) / 2
    assert traced_peak(kernel.asymmetry, s) < 2**20
    assert kernel.asymmetry(s) == 0
    # an entry off symmetry in the last block decides, inside the allowance and past it
    for off, symmetric in ((1e-12, True), (1e-8, False)):
        t = s.copy()
        t[999, 3] += off * np.abs(s).max()
        assert bool(kernel.asymmetry(t) <= 1) is symmetric
        assert kernel.asymmetry(t) > 0


def test_symmetrized_gives_the_bits_of_the_mean_of_w_and_its_transpose(rng):
    w = rng.uniform(-1.0, 1.0, size=(6, 6))
    s = kernel.symmetrized(w)
    assert s is not w and np.array_equal(s, (w + w.T) / 2.0)


@pytest.mark.parametrize("power", [1, 2])
def test_normalized_brings_the_largest_entry_near_1_outside_the_window_only(rng, power):
    a = rng.normal(size=(5, 4))
    top = np.abs(a).max()
    for j in (0, 40, -47, 60, -300, 500):
        scaled = np.ldexp(a, power * j)
        out, e = kernel.normalized(scaled, power)
        exponent = np.frexp(top * 2.0 ** (power * j))[1]
        if abs(exponent) <= kernel._WINDOW:
            assert out is scaled and e == 0
        else:
            assert 0.5 <= np.abs(out).max() < 2 and np.array_equal(np.ldexp(out, power * e), scaled)
    assert kernel.normalized(np.zeros((2, 3)), power)[1] == 0


def test_tolerance_eigen_drops_below_threshold():
    out = kernel.tolerance_eigen(np.diag([3.0, 2.0, 1e-18]), tol=1e-12)
    assert np.allclose(out.values, [3.0, 2.0])
    assert out.vectors.shape == (3, 2)


def test_tolerance_eigen_disabled_keeps_negative_values():
    # double-centered -0.5*D^2 matrices from non-Euclidean input go negative
    s = np.diag([2.0, 1.0, -0.5])
    out = kernel.tolerance_eigen(s, tol=None)
    assert np.allclose(out.values, [2.0, 1.0, -0.5])
    # None is the only spelling of "off"
    for tol in (np.nan, np.inf, -np.inf, -1.0, "abc"):
        with pytest.raises(InvalidArgumentError, match="^tol must be"):
            kernel.tolerance_eigen(s, tol=tol)
        with pytest.raises(InvalidArgumentError, match="^tol must be"):
            kernel.tolerance_svd(s, tol=tol)


def test_tolerance_eigen_correlation_trace(rng):
    data = rng.normal(size=(60, 6))
    z = (data - data.mean(0)) / data.std(0, ddof=1)
    cor = z.T @ z / 59
    out = kernel.tolerance_eigen(cor, tol=kernel.SQRT_EPS)
    assert out.values.shape == (6,)
    assert np.all(out.values > 0)
    assert np.isclose(out.values.sum(), 6.0)


def test_tolerance_eigen_errors_on_negative_spectrum_with_active_tol():
    with pytest.raises(ComplexOrNegativeEigenvalueError):
        kernel.tolerance_eigen(np.diag([2.0, -1.0]), tol=1e-12)


def test_tolerance_eigen_asymmetric_unsupported():
    with pytest.raises(NotSymmetricError, match="^x must be symmetric"):
        geigen(np.array([[1.0, 2.0], [0.0, 1.0]]), w=[1.0, 2.0])


def test_tolerance_svd_diagonal():
    out = kernel.tolerance_svd(np.diag([5.0, 3.0]))
    assert np.allclose(out.d, [5.0, 3.0])
    assert np.allclose(np.abs(out.u), np.eye(2))
    assert np.allclose(np.abs(out.v), np.eye(2))


def test_tolerance_svd_rank_one(rng):
    a = rng.normal(size=6)
    b = rng.normal(size=4)
    out = kernel.tolerance_svd(np.outer(a, b), tol=kernel.SQRT_EPS)
    assert out.d.shape == (1,)
    assert np.isclose(out.d[0], np.linalg.norm(a) * np.linalg.norm(b))


def test_tolerance_svd_matches_gram_eigenvalues(rng):
    x = rng.normal(size=(7, 4))
    out = kernel.tolerance_svd(x, tol=None)
    gram = kernel.tolerance_eigen(x.T @ x, tol=None)
    assert np.allclose(out.d**2, gram.values, atol=1e-9)


def test_tolerance_svd_reconstruction_and_orthonormality(rng):
    for _ in range(5):
        x = rng.normal(size=(8, 5))
        out = kernel.tolerance_svd(x, tol=None)
        recon = out.u @ np.diag(out.d) @ out.v.T
        assert np.abs(recon - x).max() <= 1e-9 * np.abs(x).max()
        k = out.d.shape[0]
        assert np.abs(out.u.T @ out.u - np.eye(k)).max() <= 1e-10
        assert np.abs(out.v.T @ out.v - np.eye(k)).max() <= 1e-10


def test_tolerance_svd_deterministic(rng):
    x = rng.normal(size=(6, 6))
    a = kernel.tolerance_svd(x)
    b = kernel.tolerance_svd(x.copy())
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.d, b.d)
    assert np.array_equal(a.v, b.v)


def canonical(raw, dim):
    """A raw constraint checked and factorized, as the decompositions take it."""
    return constraints.factorize(constraints.check_constraint(raw, dim)[0])


def sqrt_psd(m):
    c = canonical(m, len(m))
    return constraints.apply_sqrt_metric(c, np.eye(len(m)))


def invsqrt_psd(m):
    c = canonical(m, len(m))
    return constraints.apply_roots(c, np.eye(len(m)))[0]


def test_sqrt_psd_matrix_examples(rng):
    assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3))
    assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    a = rng.normal(size=(6, 4))
    gram = a.T @ a
    s = sqrt_psd(gram)
    assert np.abs(s @ s - gram).max() < 1e-10


def test_invsqrt_psd_matrix_examples(rng):
    assert np.allclose(invsqrt_psd(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]))
    # pseudo-inverse on the null direction
    assert np.allclose(invsqrt_psd(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]))
    a = rng.normal(size=(5, 5))
    spd = a.T @ a + 0.5 * np.eye(5)
    r = invsqrt_psd(spd)
    assert np.abs(r @ spd @ r - np.eye(5)).max() < 1e-9


def test_sqrt_invsqrt_duality(rng):
    a = rng.normal(size=(4, 4))
    spd = a.T @ a + 0.5 * np.eye(4)
    prod = sqrt_psd(spd) @ invsqrt_psd(spd)
    assert np.abs(prod - np.eye(4)).max() < 1e-9


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPSDError):
        sqrt_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_is_diagonal_matrix():
    # only an exactly diagonal matrix takes the diagonal path
    c = canonical(np.diag([1.0, 2.0, 3.0]), 3)
    assert c.kind == constraints.DIAGONAL
    assert np.array_equal(c.weights, [1.0, 2.0, 3.0])
    tiny = np.array([[1.0, 1e-300], [1e-300, 1.0]])
    assert canonical(tiny, 2).kind == constraints.DENSE
    assert canonical(np.eye(1), 1).kind == constraints.IDENTITY
    with pytest.raises(DimensionMismatchError):
        canonical(np.ones((2, 3)), 2)
