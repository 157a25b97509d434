"""Input conversion and dense eigen/SVD primitives with tolerance-based
component retention.

:func:`as_array` is the one conversion of caller input: every array a caller
passes becomes a finite float64 array there, and errors name its slot.

The two workhorses, :func:`tolerance_eigen` and :func:`tolerance_svd`,
wrap a standard dense solver and drop any eigen/singular value at or below a
threshold, a nonnegative finite number. ``tol=None`` disables it, in which
case the full spectrum is returned, including negative eigenvalues; any
other value raises :class:`InvalidArgumentError` naming ``tol``. A NaN or
Inf in the matrix they are given is an overflow, a :class:`NumericalError`.

``eigh`` and ``svd`` each have one call site, in the two workhorses, and
``cholesky`` has one, in :func:`cholesky`, which gives ``decomp`` a dense metric's
Cholesky factor to solve in while the metric is eigendecomposed. Neither checks a
metric: :func:`constraints.factorize` turns the tolerance off and checks the spectrum
is PSD, a failed Cholesky is only a metric without a factor, and each reads its own
:func:`symmetrized` copy of the metric, freed as its caller returns. That copy is the one
place w + w' is formed, and where it would overflow, w/2 + w'/2 is formed instead.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexOrNegativeEigenvalueError,
    EmptyMatrixError,
    InvalidArgumentError,
    NoConvergenceError,
    NonFiniteError,
    NonSquareError,
    NotSymmetricError,
    NumericalError,
    ParseError,
)

# Default retention thresholds (eigen uses sqrt(eps), svd uses eps).
EPS = float(np.finfo(np.float64).eps)
SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))

# Relative floors for symmetry and PSD checks.
SYMMETRY_RTOL = 1e-10
PSD_RTOL = 1e-10


@dataclass(frozen=True)
class EigenOutput:
    """Eigenvalues (descending) and matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SvdOutput:
    """Left vectors, singular values (descending), and right vectors."""

    u: np.ndarray
    d: np.ndarray
    v: np.ndarray


def _threshold(tol):
    """`tol` as a float, or None when the tolerance is off (``tol=None``);
    anything but None or a nonnegative finite number raises."""
    if tol is None:
        return None
    try:
        if isinstance(tol, (str, bytes)):  # float() would parse a numeric string
            raise TypeError
        if 0 <= float(tol) < np.inf:
            return float(tol)
    except (TypeError, ValueError):
        pass
    raise InvalidArgumentError(f"tol must be a nonnegative finite number or None, got {tol!r}")


def as_array(a, name):
    """`a`, a caller's input, as a finite float64 array; errors name the slot `name`."""
    try:
        if np.iscomplexobj(a):  # a cast to float64 would drop the imaginary part
            raise TypeError("it holds complex values")
        a = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name} cannot be read as an array of numbers ({exc})") from None
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return a


def as_matrix(a, name):
    """:func:`as_array`, checked to be a non-empty 2-d matrix."""
    a = as_array(a, name)
    if a.ndim != 2 or a.size == 0:
        raise EmptyMatrixError(f"{name} must be a non-empty 2-d matrix, got shape {a.shape}")
    return a


def check_symmetric(a, name):
    """`a`, a converted 2-d array, checked to be square and symmetric within
    tolerance; errors name the slot `name`."""
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {a.shape}")
    if not is_symmetric(a):
        raise NotSymmetricError(
            f"{name} must be symmetric; it is not symmetric within a relative "
            f"tolerance of {SYMMETRY_RTOL:g}"
        )
    return a


def is_symmetric(s):
    """Symmetry test of a non-empty square matrix, with an absolute
    allowance of SYMMETRY_RTOL * max|entry|."""
    # s - s' is exactly antisymmetric, so its largest entry is its largest
    # magnitude; neither maximum needs an |.| pass over the matrix.
    scale = max(s.max(), -s.min())
    return bool((s - s.T).max() <= SYMMETRY_RTOL * max(scale, 1e-300))


def canonical_signs(vectors):
    """Flip each column so its largest-magnitude entry is positive.

    Ties break toward the lowest row index (argmax on |column|). Returns the
    per-column sign multipliers applied.
    """
    idx = np.argmax(np.abs(vectors), axis=0)
    picked = vectors[idx, np.arange(vectors.shape[1])]
    signs = np.where(picked < 0, -1.0, 1.0)
    vectors *= signs
    return signs


def _factorizable(s):
    """`s`, formed by the library from checked input, checked for LAPACK: a
    NaN or Inf in it is an overflow, and LAPACK may not return on one."""
    if not np.all(np.isfinite(s)):
        raise NumericalError("the matrix to factorize overflowed: it holds NaN or Inf entries")
    if s.ndim != 2 or s.size == 0:
        raise EmptyMatrixError(f"the matrix to factorize must be non-empty 2-d, got {s.shape}")
    return s


def symmetrized(w):
    """(w + w')/2 in a new array: the bits of (w + w.T) / 2.0 when w + w' does not overflow."""
    try:
        with np.errstate(over="raise"):
            s = w + w.T
    except FloatingPointError:  # halving first is exact but for subnormals, and cannot overflow
        return w * 0.5 + w.T * 0.5
    s *= 0.5
    return s


def cholesky(w):
    """The lower Cholesky factor of `w`, an exactly symmetric finite matrix such as a dense
    metric's :func:`symmetrized` copy, or None when it is not positive definite."""
    try:
        return np.linalg.cholesky(w)
    except np.linalg.LinAlgError:
        return None


def tolerance_eigen(s, tol=SQRT_EPS):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending,
    that drops eigenvalues at or below `tol`.

    Columns of the returned vectors follow the deterministic sign
    convention (largest-magnitude entry positive). With an active
    tolerance the retained spectrum must be strictly positive; an
    eigenvalue below ``-tol`` raises
    :class:`ComplexOrNegativeEigenvalueError`. Disabling the tolerance
    returns every eigenvalue, negatives included. Only finiteness is
    checked here; symmetry is the caller's (``geigen`` checks its `x`).
    """
    tol = _threshold(tol)
    try:
        values, vectors = np.linalg.eigh(_factorizable(s))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    order = np.argsort(values)[::-1]
    values, vectors = values[order], vectors[:, order]
    canonical_signs(vectors)
    if tol is None:
        return EigenOutput(values=values, vectors=vectors)
    if values.min() < -tol:
        raise ComplexOrNegativeEigenvalueError(
            "eigenvalues are not all positive within tolerance "
            f"(min={values.min():.6g}); disable the tolerance to proceed"
        )
    keep = values > tol
    return EigenOutput(values=values[keep], vectors=vectors[:, keep])


def tolerance_svd(x, tol=EPS):
    """SVD that drops singular values at or below `tol`.

    Sign convention: each right singular vector has its largest-magnitude
    entry positive; the matching left vector is flipped jointly so the
    reconstruction is preserved.
    """
    tol = _threshold(tol)
    try:
        u, d, vt = np.linalg.svd(_factorizable(x), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    v = vt.T
    signs = canonical_signs(v)
    u = u * signs
    if tol is not None:
        # Both the singular values and their squares (the eigenvalues) must
        # clear the threshold; collinear data leaves near-null singular
        # values whose squares are far below any sensible cutoff.
        with np.errstate(over="ignore"):  # an infinite square is kept, and _assemble rejects it
            keep = (d > tol) & (d * d > tol)
        u, d, v = u[:, keep], d[keep], v[:, keep]
    return SvdOutput(u=u, d=d, v=v)

