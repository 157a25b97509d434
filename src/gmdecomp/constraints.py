"""Canonical form and application of PSD constraint (metric) matrices.

A constraint is canonicalized once, at entry to a decomposition, into one of
three forms: identity (applied as a no-op), diagonal (stored as a vector and
applied by row/column scaling), or a dense symmetric PSD matrix. A diagonal
matrix input collapses to its diagonal vector, and an all-ones diagonal
collapses to identity, so the cheap paths are taken whenever possible.

A dense constraint is factorized once: the one eigendecomposition that
validates it as PSD is kept on the constraint, and its square root and
pseudo-inverse square root are derived from those eigenpairs on first use
and cached for the life of the constraint. The pseudo-inverse of a Gram
matrix is built as a constraint from that matrix's own eigenpairs.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernel
from .errors import DimensionMismatchError, NonFiniteError, NotPSDError

IDENTITY = "identity"
DIAGONAL = "diagonal"
DENSE = "dense"


@dataclass(frozen=True)
class Constraint:
    """A canonicalized PSD metric of a given dimension.

    `weights` is set for the diagonal form, `matrix` for the dense form;
    both are None for identity. `name` is the slot it fills, for errors.
    `eigen` holds a dense metric's validated eigenpairs, from which its
    roots derive.
    """

    dim: int
    kind: str
    weights: np.ndarray = None
    matrix: np.ndarray = None
    name: str = "constraint"
    eigen: tuple = field(default=None, repr=False, compare=False)

    @cached_property
    def sqrt_matrix(self):
        """Square root of the dense metric, derived from its eigenpairs."""
        return kernel.psd_root(*self.eigen)

    @cached_property
    def invsqrt_matrix(self):
        """Pseudo-inverse square root of the dense metric, from its eigenpairs."""
        return kernel.psd_root(*self.eigen, inverse=True)


def normalize_constraint(raw, dim, name="constraint"):
    """Canonicalize a raw constraint input (None, vector, or matrix).

    Missing constraints are mathematically identity matrices. Vectors are
    diagonal weights; a diagonal matrix is demoted to its diagonal, and an
    all-ones diagonal to identity. Anything else must be a symmetric PSD
    matrix of shape (dim, dim); it is eigendecomposed once here, which both
    validates it and yields its roots. A `Constraint` is kept as it is,
    except a dense one built without its eigenpairs, whose matrix is taken
    as the raw input. `name` names the slot in errors.
    """
    dim = int(dim)
    if raw is None:
        return Constraint(dim=dim, kind=IDENTITY)
    if isinstance(raw, Constraint):
        if raw.dim != dim:
            raise DimensionMismatchError(
                f"{name}: constraint dim {raw.dim} does not match expected {dim}"
            )
        if raw.kind != DENSE or raw.eigen is not None:
            return raw
        raw = raw.matrix
    arr = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise DimensionMismatchError(
                f"{name}: constraint vector length {arr.shape[0]} != expected {dim}"
            )
        return _from_weights(arr, dim, name)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name}: constraint must be a vector or a matrix")
    if arr.shape != (dim, dim):
        raise DimensionMismatchError(
            f"{name}: constraint matrix shape {arr.shape} != expected ({dim}, {dim})"
        )
    if np.array_equal(arr, np.diag(np.diag(arr))):
        return _from_weights(np.diag(arr).copy(), dim, name)
    # Dense path: one eigendecomposition validates it as symmetric PSD and
    # yields its roots; the stored matrix is symmetrized exactly.
    eigen = kernel.psd_eigen(arr, name)
    return Constraint(dim, DENSE, matrix=(arr + arr.T) / 2.0, name=name, eigen=eigen)


def pinv_constraint(gram, name="constraint"):
    """Dense constraint holding the pseudo-inverse of the PSD Gram matrix
    `gram`, built from one eigendecomposition of it (Björck & Golub 1973):
    eigenvalues at or below sqrt(eps) times the largest count as zero."""
    lam, vec = kernel.psd_eigen(gram, name)
    keep = lam > kernel.SQRT_EPS * lam[0]
    inv = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    m = (vec * inv) @ vec.T
    return Constraint(inv.shape[0], DENSE, matrix=(m + m.T) / 2.0, name=name, eigen=(inv, vec))


def _from_weights(weights, dim, name):
    if weights.size and weights.min() < 0:
        raise NotPSDError(f"{name} has a negative weight ({weights.min():.6g})")
    if np.all(weights == 1.0):
        return Constraint(dim=dim, kind=IDENTITY)
    return Constraint(dim=dim, kind=DIAGONAL, weights=weights, name=name)


def _apply(c, x, side, diag_transform, dense_attr):
    x = np.asarray(x, dtype=np.float64)
    if c.dim != (x.shape[0] if side == "left" else x.shape[1]):
        raise DimensionMismatchError(
            f"{c.name} dim {c.dim} does not conform to matrix {x.shape} on {side}"
        )
    if c.kind == IDENTITY:
        return x
    if c.kind == DIAGONAL:
        w = diag_transform(c.weights)
        return w[:, None] * x if side == "left" else x * w[None, :]
    m = getattr(c, dense_attr)
    return m @ x if side == "left" else x @ m


def apply_metric(c, x, side="left"):
    """Compute c @ x (side='left') or x @ c (side='right')."""
    return _apply(c, x, side, lambda w: w, "matrix")


def apply_sqrt_metric(c, x, side="left"):
    """Apply the PSD square root of the metric."""
    return _apply(c, x, side, np.sqrt, "sqrt_matrix")


def apply_invsqrt_metric(c, x, side="left"):
    """Apply the pseudo-inverse square root of the metric (0 weights map to 0)."""

    def diag_inv(w):
        return np.where(w > 0, 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), 0.0)

    return _apply(c, x, side, diag_inv, "invsqrt_matrix")
