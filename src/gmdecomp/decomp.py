"""The three generalized decompositions: geigen, gsvd, gplssvd.

geigen and gsvd canonicalize their constraint inputs, form the
metric-weighted matrix, decompose it with the tolerance-aware kernel, and
map the standard vectors back to generalized vectors and component scores.
Each metric is applied only through its two roots, on the left: a
right-hand root is applied to the transpose, and since the metric times its
pseudo-inverse root is its root, the scores fi = lw P diag(d) are
lw^(1/2) U diag(d).
gplssvd is the gsvd of the two tables' row-weighted cross-product under
their column metrics, plus the latent variable scores. All three return the
same :class:`DecompositionResult` record with the fields appropriate to the
method populated (see each function's docstring).

Rank truncation: ``k=0`` (the default) returns every retained component;
``k > 0`` keeps the first k columns of every per-component output while
``d_full``/``l_full`` always keep the whole above-tolerance spectrum. All
outputs are computed on the full retained set and then sliced, so a k-run
is bit-identical to the leading columns of a full run.

A second thread does one side, a metric (gplssvd: a table), while the caller
does the other, before the SVD and after it, when 2 CPUs are available, the
process's settings give BLAS one thread (OPENBLAS_NUM_THREADS for OpenBLAS,
then OMP_NUM_THREADS) and both sides' work reaches a measured floor. The
results are the same bits. The thread is joined before the call returns;
if both sides fail, the row (x) side's error is raised.
"""

import operator
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernel
from .constraints import DENSE, apply_roots, apply_sqrt_metric, check_constraint, factorize
from .errors import DimensionMismatchError, InvalidArgumentError, NumericalError

GEIGEN = "geigen"
GSVD = "gsvd"
GPLSSVD = "gplssvd"

# The lighter side's work, in multiply-adds, from which it gets a thread of its own: below it,
# starting and joining one cost more than the overlap saved (2 vCPUs, BLAS on one thread).
_OVERLAP_FLOOR = 5_000_000
_OPENBLAS = "openblas" in str(getattr(np.__config__, "CONFIG", {}).get("Build Dependencies"))


def cpu_count():
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _work(c, cols):
    """Multiply-adds a side spends on `c`, a matrix to factorize (an eigh of d x d took as long
    as about 20 d^3 of them) or a `Constraint`, applied to `cols` columns."""
    if isinstance(c, np.ndarray):
        return c.shape[0] ** 2 * (20 * c.shape[0] + cols)
    return c.dim**2 * cols if c.kind == DENSE else 0


def _side_by_side(first, second, work):
    """(first(), second()), on two threads as the module says when `work`, the lighter side's,
    reaches the floor. On more BLAS threads, their spinning made the overlap slower."""
    env = os.environ
    threads = (_OPENBLAS and env.get("OPENBLAS_NUM_THREADS")) or env.get("OMP_NUM_THREADS", "")
    if work < _OVERLAP_FLOOR or cpu_count() < 2 or threads.strip() != "1":
        return first(), second()
    out = []

    def run():
        try:
            out.append(second())
        except BaseException as exc:  # raised in the calling thread below
            out.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    try:
        a = first()
    finally:
        thread.join()
    if isinstance(out[0], BaseException):
        raise out[0]
    return a, out[0]


@dataclass
class DecompositionResult:
    """Unified output record for geigen / gsvd / gplssvd.

    Vector/score fields absent for a method are None:
    geigen lacks u, p, fi, lx, ly; gsvd lacks lx, ly; gplssvd has all.
    `tol` is the retention threshold used (None when it was disabled).
    """

    method: str
    d: np.ndarray
    d_full: np.ndarray
    l: np.ndarray
    l_full: np.ndarray
    v: np.ndarray
    q: np.ndarray
    fj: np.ndarray
    u: np.ndarray = None
    p: np.ndarray = None
    fi: np.ndarray = None
    lx: np.ndarray = None
    ly: np.ndarray = None
    n_total_components: int = 0
    n_retained: int = 0
    tol: float = None

    def fields(self):
        """Populated per-component fields in a stable order."""
        names = ["d", "d_full", "l", "l_full", "u", "v", "p", "q", "fi", "fj", "lx", "ly"]
        return {n: getattr(self, n) for n in names if getattr(self, n) is not None}


def _checked_k(k, tol):
    """`k` as an int, once `k` is checked to be an integer and `tol` a threshold; a bad one
    raises InvalidArgumentError naming it, before a decomposition does any work."""
    kernel._threshold(tol)
    try:
        return operator.index(k)
    except TypeError:
        raise InvalidArgumentError(f"k must be an integer, got {k!r}") from None


def _resolve_k(k, n_total):
    if k <= 0 or k == n_total:
        return n_total
    if k > n_total:
        warnings.warn(
            f"requested k={k} exceeds the {n_total} retained components; clamping",
            stacklevel=4,
        )
        return n_total
    return k


def _assemble(method, k, tol, d_full, l_full, **columns):
    """Pack a result: per-component outputs, computed on the full retained
    set, are sliced to the first k columns so a k-run is a bit-identical
    prefix of the full run. A NaN or Inf in any output raises NumericalError."""
    for name, m in dict(d_full=d_full, l_full=l_full, **columns).items():
        if not np.isfinite(m).all():
            raise NumericalError(f"{method}: the result field {name} holds NaN or Inf values")
    n_total = d_full.shape[0]
    kk = _resolve_k(k, n_total)
    return DecompositionResult(
        method=method,
        d=d_full[:kk],
        d_full=d_full,
        l=l_full[:kk],
        l_full=l_full,
        n_total_components=n_total,
        n_retained=kk,
        tol=tol,
        **{name: m[:, :kk] for name, m in columns.items()},
    )


def geigen(x, w=None, k=0, tol=kernel.SQRT_EPS):
    """Generalized eigendecomposition of a square matrix under metric `w`.

    Decomposes x = Q L Q^T with Q^T w Q = I by eigendecomposing
    w^(1/2) x w^(1/2). Component scores are fj = w Q diag(d).

    Parameters
    ----------
    x : (J, J) array
        Symmetric matrix to decompose.
    w : None, (J,) vector, or (J, J) PSD matrix
        Constraint metric; missing means identity.
    k : int
        Number of components to return; 0 means all retained.
    tol : float or None
        Eigenvalues at or below this nonnegative finite threshold are
        dropped; None disables the tolerance and keeps negative eigenvalues.
    """
    k = _checked_k(k, tol)
    x = kernel.check_symmetric(kernel.as_matrix(x, "x"), "x")
    c = factorize(check_constraint(w, x.shape[0], "w"), "w")
    xt = apply_sqrt_metric(c, apply_sqrt_metric(c, x.T).T)
    eig = kernel.tolerance_eigen(xt, tol=tol)

    l_full = eig.values
    d_full = np.sqrt(np.clip(l_full, 0.0, None))
    v = eig.vectors
    q, fj, _ = _map_back(c, v, d_full, None)

    return _assemble(GEIGEN, k, tol, d_full, l_full, v=v, q=q, fj=fj)


def gsvd(x, lw=None, rw=None, k=0, tol=kernel.EPS):
    """Generalized SVD of a rectangular matrix under row/column metrics.

    Decomposes x = P diag(d) Q^T with P^T lw P = I = Q^T rw Q by taking the
    SVD of lw^(1/2) x rw^(1/2). Row scores fi = lw P diag(d), column scores
    fj = rw Q diag(d).
    """
    k = _checked_k(k, tol)
    x = kernel.as_matrix(x, "x")
    lw, rw = check_constraint(lw, x.shape[0], "lw"), check_constraint(rw, x.shape[1], "rw")
    lwc, (rwc, xr) = _side_by_side(
        lambda: factorize(lw, "lw"), lambda: (c := factorize(rw, "rw"), apply_sqrt_metric(c, x.T)),
        min(_work(lw, 0), _work(rw, 2 * x.shape[0])))
    d_full, columns = _gsvd_columns(xr, lwc, rwc, tol)
    return _assemble(GSVD, k, tol, d_full, d_full**2, **columns)


def _gsvd_columns(xr, lwc, rwc, tol, xl=None, yl=None):
    """The unchecked d_full and column fields of the gsvd of x under lwc and rwc, from
    xr = rwc^(1/2) x'; given gplssvd's row-weighted tables xl and yl, also lx and ly."""
    sv = kernel.tolerance_svd(apply_sqrt_metric(lwc, xr.T), tol=tol)
    r = sv.d.shape[0]
    work = [_work(c, 3 * r) + (0 if t is None else t.size * r) for c, t in ((lwc, xl), (rwc, yl))]
    (p, fi, lx), (q, fj, ly) = _side_by_side(
        lambda: _map_back(lwc, sv.u, sv.d, xl), lambda: _map_back(rwc, sv.v, sv.d, yl), min(work))
    latent = {} if xl is None else dict(lx=lx, ly=ly)
    return sv.d, dict(u=sv.u, v=sv.v, p=p, q=q, fi=fi, fj=fj, **latent)


def _map_back(c, vectors, d, table):
    """A side's generalized vectors c^(-1/2) vectors, scores c^(1/2) vectors
    diag(d) and, given a table, latent variable scores table c^(1/2) vectors."""
    inv, root = apply_roots(c, vectors)
    return inv, root * d[None, :], None if table is None else table @ root


def gplssvd(x, y, xlw=None, ylw=None, xrw=None, yrw=None, k=0, tol=kernel.EPS):
    """Generalized PLS-SVD of the relationship between two data matrices.

    With xl = xlw^(1/2) x and yl = ylw^(1/2) y, this is the gsvd of the
    cross-product xl^T yl under the column metrics: lw=xrw, rw=yrw. It
    shares that gsvd's u, d, v, p, q, fi and fj; the latent variable
    scores lx = xl xrw p and ly = yl yrw q have cross-product diagonal d.
    """
    k = _checked_k(k, tol)
    x = kernel.as_matrix(x, "x")
    y = kernel.as_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"x and y must share rows: {x.shape[0]} vs {y.shape[0]}"
        )
    xlw, xrw = check_constraint(xlw, x.shape[0], "xlw"), check_constraint(xrw, x.shape[1], "xrw")
    ylw, yrw = check_constraint(ylw, y.shape[0], "ylw"), check_constraint(yrw, y.shape[1], "yrw")
    (xl, xrwc), (yl, yrwc) = _side_by_side(
        lambda: (apply_sqrt_metric(factorize(xlw, "xlw"), x), factorize(xrw, "xrw")),
        lambda: (apply_sqrt_metric(factorize(ylw, "ylw"), y), factorize(yrw, "yrw")),
        min(_work(xlw, 2 * x.shape[1]) + _work(xrw, 0), _work(ylw, 2 * y.shape[1]) + _work(yrw, 0)))
    cross = xl.T @ yl
    if not np.all(np.isfinite(cross)):
        raise NumericalError("the cross-product xl' yl overflowed: it holds NaN or Inf entries")
    d_full, columns = _gsvd_columns(apply_sqrt_metric(yrwc, cross.T), xrwc, yrwc, tol, xl, yl)
    return _assemble(GPLSSVD, k, tol, d_full, d_full**2, **columns)
