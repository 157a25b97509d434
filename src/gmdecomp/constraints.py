"""Canonical form and application of PSD constraint (metric) matrices.

A constraint is its eigenpairs: nonnegative weights on an orthonormal basis.
It is canonicalized once, at entry to a decomposition, into one of three
forms: identity (no weights; applied as a no-op), diagonal (weights on the
coordinate axes; applied by row scaling), or dense (a symmetric PSD
matrix held as its eigenvalues and eigenvectors). A diagonal matrix input
collapses to its diagonal vector, and an all-ones diagonal collapses to
identity, so the cheap paths are taken whenever possible. Raw inputs and
a hand-built constraint's arrays are converted by :func:`kernel.as_array`,
and their dimensions checked, once, at entry: the applications trust them.

:func:`factorize` is the one function that eigendecomposes a metric, a
caller's dense one or a Gram matrix the library formed: that one
eigendecomposition checks it is PSD and is all the constraint keeps. Its
square root, pseudo-inverse square root and pseudo-inverse are applied on the
left only, as B w^a B' for a = 1/2, -1/2 and -1, and one cutoff decides which
weights all three treat as zero, for diagonal and dense metrics alike.
:func:`pinv_constraint` is :func:`factorize` with the weights inverted.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import kernel
from .errors import DimensionMismatchError, NotPSDError

IDENTITY = "identity"
DIAGONAL = "diagonal"
DENSE = "dense"


@dataclass(frozen=True)
class Constraint:
    """A canonicalized PSD metric of a given dimension.

    `weights` are the diagonal weights, or a dense metric's eigenvalues,
    checked to be finite, nonnegative and of shape (dim,); `basis` holds a
    dense metric's eigenvectors as columns, finite and of shape (dim, dim),
    and is None for a diagonal metric (that it is orthonormal is the
    caller's contract); both are None for identity, and a basis needs
    weights. Both are kept as the float64 arrays that were checked. `name`
    is the slot it fills, for errors.
    """

    dim: int
    weights: np.ndarray = None
    basis: np.ndarray = None
    name: str = "constraint"

    def __post_init__(self):
        if self.weights is None:
            if self.basis is not None:
                raise DimensionMismatchError(f"{self.name}: a basis was given without weights")
            return
        w = kernel.as_array(self.weights, self.name)
        if w.shape != (self.dim,):
            raise DimensionMismatchError(
                f"{self.name}: weights of shape {w.shape} != expected ({self.dim},)")
        if np.any(w < 0):
            raise NotPSDError(f"{self.name} has a negative weight ({w.min():.6g})")
        object.__setattr__(self, "weights", w)
        if self.basis is None:
            return
        b = kernel.as_array(self.basis, f"{self.name}: basis")
        if b.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"{self.name}: basis of shape {b.shape} != expected ({self.dim}, {self.dim})")
        object.__setattr__(self, "basis", b)

    @property
    def kind(self):
        if self.weights is None:
            return IDENTITY
        return DIAGONAL if self.basis is None else DENSE


def check_constraint(raw, dim, name="constraint"):
    """Canonicalize a raw constraint input (None, vector, or matrix), factorizing nothing.

    Missing constraints are mathematically identity matrices. Vectors are
    diagonal weights; a diagonal matrix is demoted to its diagonal, and an
    all-ones diagonal to identity; a `Constraint` keeps its basis. Anything
    else must be a symmetric matrix w of shape (dim, dim), returned exactly symmetric, as
    :func:`kernel.check_symmetric` gives it. `name` names the slot. Returns (c, e): c is 4^-e
    times the metric (:func:`kernel.normalized`).
    """
    dim = int(dim)
    if raw is None:
        return Constraint(dim), 0
    if isinstance(raw, Constraint):
        if raw.dim != dim:
            raise DimensionMismatchError(
                f"{name}: constraint dim {raw.dim} does not match expected {dim}"
            )
        weights, e = kernel.normalized(np.ones(0) if raw.weights is None else raw.weights, 2)
        return (replace(raw, weights=weights) if e else raw), e
    arr = kernel.as_array(raw, name)
    if arr.shape == (dim, dim) and np.count_nonzero(arr) == np.count_nonzero(np.diagonal(arr)):
        arr = np.diag(arr).copy()
    if arr.ndim == 1:
        arr, e = kernel.normalized(arr, 2)
        c = Constraint(dim, arr, name=name)
        return (Constraint(dim) if np.all(arr == 1.0) else c), e
    if arr.shape != (dim, dim):
        raise DimensionMismatchError(
            f"{name}: constraint matrix shape {arr.shape} != expected ({dim}, {dim})"
        )
    return kernel.check_symmetric(arr, name)


def factorize(checked, name="constraint"):
    """A :func:`check_constraint` result, or a Gram matrix, as a `Constraint`: a matrix, exactly
    symmetric as both are, is eigendecomposed once, as it is, which checks it is PSD and gives
    its eigenpairs, eigenvalues descending and clipped at 0. A finite matrix that is not PSD
    raises NotPSDError naming the slot `name`."""
    if isinstance(checked, Constraint):
        return checked
    eig = kernel.tolerance_eigen(checked, tol=None)
    lam = eig.values
    if lam.min() < -kernel.PSD_RTOL * max(lam[0], 0.0):
        raise NotPSDError(f"{name} is not positive semi-definite (min eigenvalue {lam.min():.6g})")
    return Constraint(lam.shape[0], np.clip(lam, 0.0, None), eig.vectors, name)


def pinv_constraint(gram, name="constraint"):
    """The pseudo-inverse of the PSD Gram matrix `gram` (Björck & Golub 1973): its
    :func:`factorize` eigenpairs, with eigenvalues at or below sqrt(eps) times the largest
    counted as zero and the others inverted; `gram` is normalized, so none overflows."""
    c = factorize(gram, name)
    lam = c.weights
    keep = lam > kernel.SQRT_EPS * lam[0]
    inv = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    return Constraint(c.dim, inv, c.basis, name)


def _apply(c, x, powers, out=None):
    """B w^a B' x for each a in `powers`, 1/2, -1/2 or -1, with B' x formed once.
    A weight at or below max * n * eps counts as zero, so all three vanish
    on the same directions and the inverse powers are pseudo-inverses. For one
    power, a diagonal metric writes its product into `out` when given, which may
    be x; identity and dense metrics leave it alone."""
    if c.weights is None:
        return [x for _ in powers]
    w, b = c.weights, c.basis
    keep = w > w.max(initial=0.0) * (w.shape[0] * kernel.EPS)
    kept = np.where(keep, w, 1.0)
    root = np.sqrt(kept)
    scales = [np.where(keep, root if a > 0 else 1.0 / (root if a > -1 else kept), 0.0)[:, None]
              for a in powers]
    bx, into = (x, out) if b is None else (b.T @ x, None)
    out = [np.multiply(scale, bx, out=into) for scale in scales]
    return out if b is None else [b @ o for o in out]


def apply_sqrt_metric(c, x, out=None):
    """The metric's PSD square root times x, a diagonal one's written into `out` when given."""
    return _apply(c, x, (0.5,), out)[0]


def apply_roots(c, x):
    """The metric's pseudo-inverse square root (null weights map to 0) and
    its square root, each times x, sharing one product with the basis."""
    return _apply(c, x, (-0.5, 0.5))


def apply_inverses(c, x):
    """The metric's pseudo-inverse square root and its pseudo-inverse, each times x, sharing
    one product with the basis."""
    return _apply(c, x, (-0.5, -1.0))
