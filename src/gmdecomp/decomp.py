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
method populated (see each function's docstring). Each checks k and tol, converts and normalizes
the caller's tables and calls its core, _geigen, _gsvd or _gplssvd, as every recipe does with the
arrays it formed: a core checks the metrics, and _formed the matrix it forms for LAPACK.

Rank truncation: ``k=0`` (the default) returns every retained component;
``k > 0`` keeps the first k columns of every per-component output while
``d_full``/``l_full`` always keep the whole above-tolerance spectrum. All
outputs are computed on the full retained set and then sliced, so a k-run
is bit-identical to the leading columns of a full run.

A dense metric passed as a matrix is solved in its Cholesky frame (Golub & Van
Loan 2013, section 8.7) whenever the BLAS setting gives one thread, with or
without a second thread (below): with w = L L', gsvd takes the SVD of Ll' x Lr
and geigen the eigh of L' x L; a side's standard vectors, generalized vectors
and scores are then w^(-1/2) L U, w^(-1) L U and L U diag(d), and the final v
gets the canonical signs. factorize, the metric's one PSD check and the only
source of its roots, keeps a frame only when its smallest eigenvalue is at least
the largest over _FRAME_COND; else, or with no Cholesky factor, the solve is
redone through the roots, which all other metrics take. Here w is the metric as checked at
entry, exactly symmetric: a w off exact symmetry is (w + w')/2 there, one copy for the call.

A second thread solves in the frames while the caller factorizes every metric
in order, and after the solve maps one side back while the caller maps the
other; gplssvd first whitens its x table beside its y table. It starts only
when 2 CPUs are available, BLAS runs one thread and both sides' work reaches
a measured floor; for a fixed BLAS setting, the results are the same bits.
The thread runs in a copy of the caller's context, so under the caller's numpy errstate, and
is joined before the call returns; the error is the sequence's: a metric's own over its
frame's, and the first of lw, rw or of xlw, ylw, xrw, yrw to fail. Inputs are normalized by
powers of 2 (:func:`kernel.normalized`), as is each matrix formed from them for LAPACK, in
_formed, its one check, and _assemble scales each output back.
"""

import contextvars
import operator
import os
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernel
from .constraints import (
    DENSE, apply_inverses, apply_roots, apply_sqrt_metric, check_constraint, factorize)
from .errors import DimensionMismatchError, GmdError, InvalidArgumentError, NumericalError

GEIGEN = "geigen"
GSVD = "gsvd"
GPLSSVD = "gplssvd"

# The lighter side's work, in multiply-adds, from which it gets a thread of its own: below it,
# starting and joining one cost more than the overlap saved (2 vCPUs, BLAS on one thread).
_OVERLAP_FLOOR = 5_000_000
_PACKAGE = os.path.dirname(__file__)
_OPENBLAS = "openblas" in str(getattr(np.__config__, "CONFIG", {}).get("Build Dependencies"))
# A frame is kept only when its metric's eigenvalues span at most this ratio. Against the root
# route, relative to each field's largest entry and up to sign, frames moved a 60 x 40 gsvd by
# at most 5.2e-13 at condition number 1e3 and 2.3e-12 at 1e4, and a 40 x 40 geigen by 1.1e-11
# and 9.3e-11 (25 metrics each; a 200 x 200 geigen: 2.8e-11 and 3.4e-10).
_FRAME_COND = 1e3
# A product that underflows errs by at most 2^-1075, so a matrix whose entries each sum n
# products is within eps of its largest entry when that is at least n times the smallest normal
# number. Below that, it is formed again with one input raised by 2^_HEADROOM, after which only
# products below 2^-2074 of their inputs' largest entries underflow to 0 (an intermediate past
# DBL_MAX would be an Inf, which _formed refuses).
_HEADROOM = 1000


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


def _blas_one_thread():
    """Whether the process's settings give BLAS one thread: on more, the overlap was slower."""
    threads = _OPENBLAS and os.environ.get("OPENBLAS_NUM_THREADS")
    return (threads or os.environ.get("OMP_NUM_THREADS", "")).strip() == "1"


def _side_by_side(first, second, work):
    """(first(), second()), on two threads when the module says; `work` is the lighter side's.
    second runs in a copy of the caller's context, so under its numpy errstate, as first does."""
    if work < _OVERLAP_FLOOR or cpu_count() < 2 or not _blas_one_thread():
        return first(), second()
    out = []

    def run():
        try:
            out.append(second())
        except BaseException as exc:  # raised in the calling thread below
            out.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(run,))
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
    """`k` as an int, once `k` is checked to be a nonnegative integer and `tol` a threshold; a
    bad one raises InvalidArgumentError naming it, before a decomposition does any work."""
    kernel._threshold(tol)
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidArgumentError(f"k must be a nonnegative integer, got {k!r}") from None
    if k < 0:
        raise InvalidArgumentError(f"k must be a nonnegative integer, got {k}")
    return k


def _resolve_k(k, n_total):
    if k == 0 or k == n_total:
        return n_total
    if k > n_total:
        level, frame = 1, sys._getframe()  # the warning points at the first frame outside gmdecomp
        while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE:
            level, frame = level + 1, frame.f_back
        warnings.warn(f"requested k={k} exceeds the {n_total} retained components; clamping",
                      stacklevel=level)
        return n_total
    return k


def _formed(form, terms, power=1, spent=False):
    """(m, e): m = 2^(-power e) form(0), normalized (:func:`kernel.normalized`). form(t) forms a
    matrix from its inputs, one factor of each term raised by 2^t, each entry a sum of up to
    `terms` terms. When form(0) is below `terms` times the smallest normal number, form(_HEADROOM)
    is taken instead, unless `spent` (form(0) overwrote its input); one still below that, but not
    0, raises NumericalError, as does a NaN or Inf, on which LAPACK may not return. This checks
    every matrix formed for LAPACK but rmca's centred table, checked there as center_scale does."""
    m, t, floor = form(0), 0, terms * float(np.finfo(np.float64).tiny)
    top = kernel.magnitude(m)
    if top < floor and not spent:
        m, t = form(_HEADROOM), _HEADROOM
        top = kernel.magnitude(m)
    if not top < np.inf:
        raise NumericalError("the matrix to factorize overflowed: it holds NaN or Inf entries")
    if 0 < top < floor:
        raise NumericalError("the matrix formed from the normalized inputs underflowed")
    m, e = kernel.normalized(m, power, top)
    return m, e - t // power


def _assemble(method, k, tol, d_full, l_full, scale, **columns):
    """Pack a result: outputs computed on the full retained set are scaled back by their powers
    of 2 (`scale`: d's, the metric roots', then lx's and ly's), checked for NaN or Inf (a
    NumericalError) and sliced to the first k columns, so a k-run is a bit-identical prefix."""
    s, a, b, *latent = scale
    powers = dict(zip(("d_full", "l_full", "p", "q", "fi", "fj", "lx", "ly"),
                      (s, 2 * s, -a, -b, a + s, b + s, *latent)))
    columns = {name: kernel.scaled(m, powers.get(name, 0))
               for name, m in dict(d_full=d_full, l_full=l_full, **columns).items()}
    for name, m in columns.items():
        if not np.isfinite(m).all():
            raise NumericalError(f"{method}: the result field {name} holds NaN or Inf values")
    d_full, l_full = columns.pop("d_full"), columns.pop("l_full")
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
    x, ex = kernel.check_symmetric(kernel.as_matrix(x, "x"), "x")
    return _geigen(x, ex, w, k, tol)


def _geigen(x, ex, w, k, tol, overwrite_x=False):
    """geigen of `x`, a symmetric float64 matrix its caller checked or formed, 4^-ex times the
    caller's, for a checked `k` and `tol`: only the metric `w` is checked here, and the matrix
    formed, in _formed. Every kind of metric is applied one way, its half on the left of x' and
    then of that product's transpose, so no kind is tested here. A diagonal root scales in
    place, x itself when `overwrite_x` (the caller formed x and gives it up), else the first
    product's new buffer."""
    w, ew = check_constraint(w, x.shape[0], "w")

    def eigen(h):
        def form(t):
            y = _half(h, kernel.scaled(x.T, t), out=x.T if overwrite_x else None).T
            return _half(h, y, out=y)

        m, e = _formed(form, x.size, 2, overwrite_x)
        eig = kernel.tolerance_eigen(m, tol=tol, scale=2 * (ex + ew + e))
        return eig, e, _lift(h, eig.vectors)

    (c,), (h,), (eig, e, lifted) = _solve([w], ("w",), eigen, _work(w, 0))
    l_full = eig.values
    d_full = np.sqrt(np.clip(l_full, 0.0, None))
    v, q, fj, _ = _map_back(c, eig.vectors, lifted, d_full, None)
    columns = dict(v=v, q=q, fj=fj)
    return _assemble(GEIGEN, k, tol, d_full, l_full, (ex + ew + e, 0, ew),
                     **(_signed(columns) if isinstance(h, np.ndarray) else columns))


def gsvd(x, lw=None, rw=None, k=0, tol=kernel.EPS):
    """Generalized SVD of a rectangular matrix under row/column metrics.

    Decomposes x = P diag(d) Q^T with P^T lw P = I = Q^T rw Q by taking the
    SVD of lw^(1/2) x rw^(1/2). Row scores fi = lw P diag(d), column scores
    fj = rw Q diag(d).
    """
    k = _checked_k(k, tol)
    x, ex = kernel.normalized(kernel.as_matrix(x, "x"))
    return _gsvd(x, ex, lw, rw, k, tol)


def _gsvd(x, ex, lw, rw, k, tol, b=0):
    """gsvd of `x`, a float64 matrix its caller checked or formed, 2^-ex times the caller's, for a
    checked `k` and `tol`: lw and rw are checked here, and rw is 4^-b times the caller's."""
    lw, a = check_constraint(lw, x.shape[0], "lw")
    rw, eb = check_constraint(rw, x.shape[1], "rw")
    b += eb
    d_full, l_full, columns, s = _gsvd_columns(x, [lw, rw], ("lw", "rw"), tol, ex + a + b)
    return _assemble(GSVD, k, tol, d_full, l_full, (s, a, b), **columns)


def _factor(w):
    """The frame of `w`, a checked dense matrix: its Cholesky factor L, or None when it has none
    or when its condition number's lower bound, w's largest diagonal entry (at most its top
    eigenvalue) over the least pivot L_ii^2 (at least its least), tops _FRAME_COND. The bound
    squares no entry of w, so w's scale does not decide it."""
    low = kernel.cholesky(w)
    if low is None:
        return None
    return low if np.diag(w).max() / np.diag(low).min() ** 2 <= _FRAME_COND else None


def _half(h, x, out=None):
    """H' x for a side's half H (w = H H'): its frame L, or a `Constraint`'s root, a diagonal
    one's written into `out` when given."""
    return h.T @ x if isinstance(h, np.ndarray) else apply_sqrt_metric(h, x, out)


def _lift(h, vectors):
    """L vectors, the metric's root times the standard vectors, for a side's frame L; None for
    a root, whose standard vectors are the solve's own."""
    return h @ vectors if isinstance(h, np.ndarray) else None


def _solve(slots, names, solve, work):
    """(factorized, halves, solve(*halves)) for `slots`, checked metrics the caller factorizes in
    order, solved through their roots, unless BLAS runs one thread and a slot is a dense matrix:
    then a second thread (when _side_by_side says) solves them in their frames meanwhile. Both
    threads read each metric as it was checked, with no copy. A refused frame becomes the root;
    then, or with none or no solve, the solve is redone."""
    def factorize_all():
        return [factorize(w, name) for w, name in zip(slots, names)]

    if not (_blas_one_thread() and any(isinstance(w, np.ndarray) for w in slots)):
        factorized = factorize_all()
        return factorized, factorized, solve(*factorized)

    def framed():
        with np.errstate(all="ignore"):  # a failure is redone, with its warnings, below
            halves = [_factor(w) if isinstance(w, np.ndarray) else w for w in slots]
            try:
                return halves, None if any(h is None for h in halves) else solve(*halves)
            except GmdError:
                return halves, None

    factorized, (tried, out) = _side_by_side(factorize_all, framed, work)
    halves = [h if isinstance(h, np.ndarray) and c.weights[-1] >= c.weights[0] / _FRAME_COND
              else c for h, c in zip(tried, factorized)]
    if out is None or any(h is not t for h, t in zip(halves, tried)):
        out = solve(*halves)
    return factorized, halves, out


def _gsvd_columns(x, slots, names, tol, scale, xl=None, yl=None):
    """The unchecked d_full, l_full = d_full^2 and column fields of the gsvd of `x`, a float64
    matrix its caller checked or formed, under the checked slots, and s: d in the caller's units
    is 2^s d_full when the gsvd's d is 2^scale times the caller's (the solve normalizes the
    matrix it forms); given gplssvd's row-weighted tables xl and yl, also lx and ly."""
    def svd(hl, hr):
        m, e = _formed(lambda t: _half(hl, _half(hr, kernel.scaled(x.T, t)).T), x.size)
        sv = kernel.tolerance_svd(m, tol=tol, scale=scale + e)
        return sv, e, _lift(hl, sv.u), _lift(hr, sv.v)

    # the caller's eighs against the svd, which took as long as 25 m n min(m, n) multiply-adds
    work = min(_work(slots[0], 0) + _work(slots[1], 0), 25 * x.size * min(x.shape))
    (lc, rc), (hl, hr), (sv, e, ul, vl) = _solve(slots, names, svd, work)
    r = sv.d.shape[0]
    work = [_work(c, 3 * r) + (0 if t is None else t.size * r) for c, t in ((lc, xl), (rc, yl))]
    (u, p, fi, lx), (v, q, fj, ly) = _side_by_side(
        lambda: _map_back(lc, sv.u, ul, sv.d, xl), lambda: _map_back(rc, sv.v, vl, sv.d, yl),
        min(work))
    latent = {} if xl is None else dict(lx=lx, ly=ly)
    columns = dict(u=u, v=v, p=p, q=q, fi=fi, fj=fj, **latent)
    return sv.d, sv.d**2, _signed(columns) if isinstance(hr, np.ndarray) else columns, scale + e


def _map_back(c, vectors, lifted, d, table):
    """A side's standard vectors, generalized vectors c^(-1/2) standard, scores c^(1/2) standard
    diag(d) and, given a table, latent variable scores table c^(1/2) standard, from the solve's
    `vectors`: the standard vectors themselves under a root, and under a frame L, whose
    `lifted` vectors L vectors are c^(1/2) standard, c^(-1/2) lifted. The scores scale
    c^(1/2) standard in place, unless it is the standard vectors (c is the identity)."""
    if lifted is None:
        std, (inv, root) = vectors, apply_roots(c, vectors)
    else:
        root = lifted
        std, inv = apply_inverses(c, root)
    latent = None if table is None else table @ root  # before root is scaled
    scores = root * d if root is std else np.multiply(root, d, out=root)
    return std, inv, scores, latent


def _signed(columns):
    """The column fields, given in place the canonical signs of their v, mapped out of a frame.
    A field that is another's array (u and p under an identity metric) is flipped once."""
    signs = kernel.canonical_signs(columns["v"])
    for m in {id(m): m for name, m in columns.items() if name != "v"}.values():
        m *= signs
    return columns


def gplssvd(x, y, xlw=None, ylw=None, xrw=None, yrw=None, k=0, tol=kernel.EPS):
    """Generalized PLS-SVD of the relationship between two data matrices.

    With xl = xlw^(1/2) x and yl = ylw^(1/2) y, this is the gsvd of the
    cross-product xl^T yl under the column metrics: lw=xrw, rw=yrw. It
    shares that gsvd's u, d, v, p, q, fi and fj; the latent variable
    scores lx = xl xrw p and ly = yl yrw q have cross-product diagonal d.
    The cross-product is formed once, and normalized.
    """
    k = _checked_k(k, tol)
    x, ex = kernel.normalized(kernel.as_matrix(x, "x"))
    y, ey = kernel.normalized(kernel.as_matrix(y, "y"))
    return _gplssvd(x, ex, y, ey, xlw, ylw, xrw, yrw, k, tol)


def _gplssvd(x, ex, y, ey, xlw, ylw, xrw, yrw, k, tol, c=0, d=0):
    """gplssvd of `x` and `y`, taken as :func:`_gsvd` takes x, 2^-ex and 2^-ey times the caller's:
    the rows and metrics are checked here, and xrw and yrw are 4^-c and 4^-d times the caller's."""
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"x and y must share rows: {x.shape[0]} vs {y.shape[0]}"
        )
    xlw, a = check_constraint(xlw, x.shape[0], "xlw")
    xrw, ec = check_constraint(xrw, x.shape[1], "xrw")
    ylw, b = check_constraint(ylw, y.shape[0], "ylw")
    yrw, ed = check_constraint(yrw, y.shape[1], "yrw")
    c, d = c + ec, d + ed
    xl, yl = _side_by_side(lambda: apply_sqrt_metric(factorize(xlw, "xlw"), x),
                           lambda: apply_sqrt_metric(factorize(ylw, "ylw"), y),
                           min(_work(xlw, 2 * x.shape[1]), _work(ylw, 2 * y.shape[1])))
    cross, e = _formed(lambda t: kernel.scaled(xl, t).T @ yl, x.shape[0])
    s = ex + ey + a + b + c + d + e
    d_full, l_full, columns, s = _gsvd_columns(cross, [xrw, yrw], ("xrw", "yrw"), tol, s, xl, yl)
    return _assemble(GPLSSVD, k, tol, d_full, l_full, (s, c, d, ex + a + c, ey + b + d), **columns)
