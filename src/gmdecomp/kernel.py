"""Input conversion and dense eigen/SVD primitives with tolerance-based
component retention.

:func:`as_array` is the one conversion of caller input: every array a caller
passes becomes a finite float64 array there, and errors name its slot.

The two workhorses, :func:`tolerance_eigen` and :func:`tolerance_svd`,
wrap a standard dense solver and drop any eigen/singular value at or below a
threshold, a nonnegative finite number. ``tol=None`` disables it, in which
case the full spectrum is returned, including negative eigenvalues; any
other value raises :class:`InvalidArgumentError` naming ``tol``. Like :func:`cholesky`,
they check nothing of the matrix they are given: it is finite by construction, or was
checked at entry or, formed by the library, in ``decomp._formed``.

``eigh`` and ``svd`` each have one call site, in the two workhorses, and
``cholesky`` has one, in :func:`cholesky`, which gives ``decomp`` a dense metric's
Cholesky factor to solve in while the metric is eigendecomposed. Neither checks a
metric: :func:`constraints.factorize` turns the tolerance off and checks the spectrum
is PSD, and a failed Cholesky is only a metric without a factor. Both read the matrix
they are given, exactly symmetric: :func:`check_symmetric` gives a matrix off exact
symmetry as its one :func:`symmetrized` copy, the array that serves the whole call.
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
    ParseError,
)

# Default retention thresholds (eigen uses sqrt(eps), svd uses eps).
EPS = float(np.finfo(np.float64).eps)
SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))

# Relative floors for symmetry and PSD checks.
SYMMETRY_RTOL = 1e-10
PSD_RTOL = 1e-10

# Inputs whose largest |entry| has a frexp exponent within +-_WINDOW are used as they are: then
# no product of up to four of them, summed over up to 2^64 terms, passes 2^+-448, inside the range
# where dgesdd (2^+-459) and dsyevd (2^+-485) rescale nothing. A formed matrix is normalized too.
_WINDOW = 96


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


def magnitude(a):
    """The largest |entry| of `a`: 0 when it is empty, NaN when it holds one."""
    return max(a.max(initial=0.0), -a.min(initial=0.0))


def normalized(a, power=1, top=None):
    """(a / 2^(power e), e): e brings a's largest |entry|, `top` when the caller took it, into
    [1/2, 2), or is 0, keeping `a`, within +-_WINDOW. `power` is 2 for a metric, or a matrix
    whose roots are taken."""
    e = int(np.frexp(magnitude(a) if top is None else top)[1])
    e = 0 if abs(e) <= _WINDOW else e // power
    return (np.ldexp(a, -power * e) if e else a), e


def scaled(a, e):
    """a * 2^e, or `a` itself when e is 0; past DBL_MAX, an Inf, unwarned."""
    with np.errstate(over="ignore"):
        return np.ldexp(a, e) if e else a


def as_matrix(a, name):
    """:func:`as_array`, checked to be a non-empty 2-d matrix."""
    a = as_array(a, name)
    if a.ndim != 2 or a.size == 0:
        raise EmptyMatrixError(f"{name} must be a non-empty 2-d matrix, got shape {a.shape}")
    return a


def check_symmetric(a, name):
    """(a / 4^e, e): `a`, a converted 2-d array, checked to be square and symmetric within
    tolerance (errors name the slot `name`), then :func:`normalized` as a metric is, from the
    largest |entry| the check took, and :func:`symmetrized` when the check found it off exact
    symmetry; an exactly symmetric `a` is returned as it is, uncopied when e is 0."""
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {a.shape}")
    top = magnitude(a)
    off = asymmetry(a, top)
    if off > 1:
        raise NotSymmetricError(
            f"{name} must be symmetric; it is not symmetric within a relative "
            f"tolerance of {SYMMETRY_RTOL:g}"
        )
    a, e = normalized(a, 2, top)
    return (symmetrized(a) if off else a), e


def asymmetry(s, scale=None):
    """The largest |entry| of s - s', for a non-empty square matrix `s`, over the allowance
    SYMMETRY_RTOL * max|entry| (`scale` when the caller took that maximum): at most 1 when `s`
    is symmetric within tolerance, and 0 only when it is exactly symmetric."""
    # s - s' is exactly antisymmetric, so its largest entry is its largest
    # magnitude; neither maximum needs an |.| pass over the matrix. It is formed
    # a block of about 65 536 entries at a time, so no n x n array is.
    scale = magnitude(s) if scale is None else scale
    rows = max(1, 65536 // s.shape[0])
    top = max((s[i:i + rows] - s[:, i:i + rows].T).max() for i in range(0, s.shape[0], rows))
    return top / (SYMMETRY_RTOL * max(scale, 1e-300))


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


def symmetrized(w):
    """(w + w')/2 in a new array: the bits of (w + w.T) / 2.0."""
    s = w + w.T
    s *= 0.5
    return s


def cholesky(w):
    """The lower Cholesky factor of `w`, an exactly symmetric finite matrix such as a dense
    metric :func:`check_symmetric` gave, or None when it is not positive definite."""
    try:
        return np.linalg.cholesky(w)
    except np.linalg.LinAlgError:
        return None


def tolerance_eigen(s, tol=SQRT_EPS, scale=0):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending,
    that drops eigenvalues whose value times 2^scale is at or below `tol`.

    Columns of the returned vectors follow the deterministic sign
    convention (largest-magnitude entry positive). With an active
    tolerance the retained spectrum must be strictly positive; an
    eigenvalue below ``-tol`` raises
    :class:`ComplexOrNegativeEigenvalueError`. Disabling the tolerance
    returns every eigenvalue, negatives included. Finiteness and symmetry
    are the caller's (``geigen`` checks its `x`).
    """
    tol = _threshold(tol)
    try:
        values, vectors = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    order = np.argsort(values)[::-1]
    values, vectors = values[order], vectors[:, order]
    canonical_signs(vectors)
    if tol is None:
        return EigenOutput(values=values, vectors=vectors)
    if (caller := scaled(values, scale)).min() < -tol:
        raise ComplexOrNegativeEigenvalueError(
            "eigenvalues are not all positive within tolerance "
            f"(min={caller.min():.6g}); disable the tolerance to proceed"
        )
    keep = caller > tol
    return EigenOutput(values=values[keep], vectors=vectors[:, keep])


def tolerance_svd(x, tol=EPS, scale=0):
    """SVD that drops singular values whose value times 2^scale is at or below `tol`.

    Sign convention: each right singular vector has its largest-magnitude
    entry positive; the matching left vector is flipped jointly so the
    reconstruction is preserved.
    """
    tol = _threshold(tol)
    try:
        u, d, vt = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    v = vt.T
    signs = canonical_signs(v)
    u = u * signs
    if tol is not None:
        # Both the singular values and their squares (the eigenvalues) must
        # clear the threshold; collinear data leaves near-null singular
        # values whose squares are far below any sensible cutoff.
        keep = (scaled(d, scale) > tol) & (scaled(d * d, 2 * scale) > tol)
        u, d, v = u[:, keep], d[keep], v[:, keep]
    return SvdOutput(u=u, d=d, v=v)

