"""Method-level constructors built on geigen / gsvd / gplssvd.

Each recipe performs the preprocessing a method prescribes and calls the core of one of the
three generalized decompositions (_geigen, _gsvd, _gplssvd) with the arrays it formed:

- PCA (four equivalent routes through geigen and gsvd)
- classical and weighted multidimensional scaling
- correspondence analysis, multiple CA, and ridge-regularized MCA
- PLS, reduced rank regression, CCA, and PLS-CA
"""

from dataclasses import dataclass

import numpy as np

from . import kernel
from .constraints import Constraint, pinv_constraint
from .decomp import GSVD, _assemble, _checked_k, _formed, _geigen, _gplssvd, _gsvd, _gsvd_columns
from .errors import (
    DimensionMismatchError,
    EmptyMarginError,
    EmptyMatrixError,
    InvalidArgumentError,
    NegativeCountError,
    NonPositiveWeightError,
    NotADistanceMatrixError,
    NotPSDError,
    NumericalError,
    SingleLevelVariableError,
    ZeroVarianceColumnError,
)

PCA_ROUTES = ("eigen_cov", "eigen_cor", "triplet_scaled", "triplet_metric")

_UNSET = object()


# ---------------------------------------------------------------------------
# shared preprocessing helpers


def center_scale(data, center=True, scale=True):
    """Column-wise center and/or scale (unit variance, ddof=1): a column is divided by the root
    of its :func:`_sums_of_squares` over n - 1, the z-scores of ``pca``'s triplet_scaled route."""
    data = kernel.as_array(data, "data")
    out, e = _prepared(data, center, scale)
    out = kernel.scaled(out.copy() if out is data else out, e)
    if not np.all(np.isfinite(out)):  # centred data past DBL_MAX
        raise NumericalError("centring a column overflowed")
    return out


def _prepared(data, center, scale):
    """(t, e): `data` centred and/or scaled as :func:`center_scale` says, t * 2^e in the caller's
    units (0 for z-scores), normalized before centring and, as that may cancel, after it."""
    table, e = kernel.normalized(data)
    centered = table - table.mean(axis=0)
    if scale:
        if data.shape[0] < 2:
            raise DimensionMismatchError("scaling needs at least 2 rows")
        dof = data.shape[0] - 1
        return (centered if center else table) / np.sqrt(_sums_of_squares(centered, dof) / dof), 0
    centered, again = kernel.normalized(centered) if center else (table, 0)
    return centered, e + again


def _sums_of_squares(centered, dof):
    """The sums of squares of the columns of `centered`, each checked to give a variance, over
    `dof`, in the normal range: NumericalError when one underflowed while its column, far below
    the table's scale, is not 0, and ZeroVarianceColumnError for the first column that is 0."""
    sumsq = np.sum(centered**2, axis=0)
    small = np.flatnonzero(sumsq / dof < np.finfo(np.float64).tiny)
    if small.size:
        if np.any(centered[:, small[0]]):
            raise NumericalError("a column's sum of squares underflowed")
        raise ZeroVarianceColumnError(f"column {small[0]} has zero variance")
    return sumsq


# ---------------------------------------------------------------------------
# PCA


def pca(data, route="eigen_cor", k=0, tol=_UNSET):
    """Principal components analysis through a generalized decomposition.

    Routes:

    - ``eigen_cov``: geigen of the covariance matrix.
    - ``eigen_cor``: geigen of the correlation matrix.
    - ``triplet_scaled``: gsvd of the z-scored data with uniform row
      weights 1/(I-1).
    - ``triplet_metric``: gsvd of the centered data with row weights
      1/(I-1) and column weights (I-1)/sum(x_centered^2); same spectrum and
      row outputs as ``triplet_scaled``, different column metric.
    """
    data = kernel.as_matrix(data, "data")
    if route not in PCA_ROUTES:
        raise InvalidArgumentError(
            f"unknown PCA route {route!r}; expected one of {PCA_ROUTES}"
        )
    if data.shape[0] < 2:
        raise DimensionMismatchError("PCA needs at least 2 rows")
    n = data.shape[0]
    dof = n - 1
    centered, e = _prepared(data, True, False)
    eigen = route in ("eigen_cov", "eigen_cor")
    tol = (kernel.SQRT_EPS if eigen else kernel.EPS) if tol is _UNSET else tol  # geigen's, gsvd's
    # Every route but the covariance one scales a column by its variance.
    col_sumsq = None if route == "eigen_cov" else _sums_of_squares(centered, dof)
    k = _checked_k(k, tol)
    if eigen:
        cov = centered.T @ centered / dof  # exactly symmetric: numpy forms a' a as one
        if route == "eigen_cor":
            sd = np.sqrt(np.diag(cov))
            cov = cov / np.outer(sd, sd)
        return _geigen(cov, e if route == "eigen_cov" else 0, None, k, tol, True)
    row_constraints = np.full(n, 1.0 / dof)
    if route == "triplet_scaled":  # the z-scores center_scale gives
        return _gsvd(centered / np.sqrt(col_sumsq / dof), 0, row_constraints, None, k, tol)
    col_constraints = dof / col_sumsq  # 4^e times the caller's
    return _gsvd(centered, e, row_constraints, col_constraints, k, tol, b=-e)


# ---------------------------------------------------------------------------
# multidimensional scaling


def _check_distance_matrix(dist):
    """(dist / 2^e, e): the distances checked, then normalized from the largest entry that the
    symmetry check took."""
    dist = kernel.as_matrix(dist, "dist")
    if dist.shape[0] != dist.shape[1]:
        raise NotADistanceMatrixError("distance matrix must be square")
    top = kernel.magnitude(dist)
    if kernel.asymmetry(dist, top) > 1:
        raise NotADistanceMatrixError("distance matrix must be symmetric")
    if np.any(np.abs(np.diag(dist)) > 1e-12):
        raise NotADistanceMatrixError("distance matrix must have a zero diagonal")
    if np.any(dist < 0):
        raise NotADistanceMatrixError("distances must be nonnegative")
    return kernel.normalized(dist, 1, top)


@np.errstate(over="ignore", invalid="ignore")
def double_centered_gram(dist, weights=None):
    """-1/2 * Cw d^2 Cw', symmetrized, with Cw = I - 1 w' the centering by
    masses `w` (uniform 1/n when omitted, the classical centering). Computed
    in O(n^2) from the row and column corrections d^2 w and w' d^2 and the
    grand term w' d^2 w, in place in d^2: the output is the one other n x n
    array. An overflow leaves NaN or Inf entries, with no warning, for
    geigen to reject."""
    d2 = np.square(dist, dtype=np.float64)  # a new float64 array, worked in below
    w = np.full(d2.shape[0], 1.0 / d2.shape[0]) if weights is None else weights
    row, col = d2 @ w, w @ d2
    d2 -= row[:, None]
    d2 -= col
    d2 += w @ row
    d2 *= -0.5
    return kernel.symmetrized(d2)


def mds(dist, k=0, tol=kernel.SQRT_EPS):
    """Classical (Torgerson) metric MDS via geigen of the double-centered
    squared distances. Component scores fj hold the coordinates."""
    dist, e = _check_distance_matrix(dist)
    return _geigen(double_centered_gram(dist), e, None, _checked_k(k, tol), tol, True)


def weighted_mds(dist, row_weights, k=0):
    """Weighted classical scaling with per-observation masses.

    Uses the weight-based centering Cw = I - 1 w^T of
    :func:`double_centered_gram` (weights are taken as masses directly, so
    uniform masses 1/n reproduce the classical centering) and runs geigen
    under the diagonal metric of the weights with the tolerance disabled:
    unless the weights sum to one, the doubly centered matrix is not PSD
    and the trailing eigenvalues are negative.
    """
    dist, e = _check_distance_matrix(dist)
    w = Constraint(dist.shape[0], row_weights, name="row_weights")
    if np.any(w.weights == 0):
        raise NonPositiveWeightError("row weights must be strictly positive")
    gram = double_centered_gram(dist, w.weights)
    return _geigen(gram, e, w, _checked_k(k, None), None, True)


def mds_score_sets(result):
    """The three score conventions for (weighted) MDS plots.

    Returns singular-vector scores v*d, generalized-vector scores q*d, and
    the component scores fj = W q d.
    """
    return {
        "vector": result.v * result.d[None, :],
        "generalized": result.q * result.d[None, :],
        "component": result.fj,
    }


# ---------------------------------------------------------------------------
# correspondence analysis family


@dataclass(frozen=True)
class CaProfiles:
    """Row and column margins of a contingency table's probability matrix
    and its deviations from independence (observed - expected)."""

    row_prob: np.ndarray
    col_prob: np.ndarray
    deviations: np.ndarray


def ca_preprocess(counts):
    """Turn a table of nonnegative counts into CA profiles."""
    counts = kernel.as_matrix(counts, "counts")
    if np.any(counts < 0):
        raise NegativeCountError("counts must be nonnegative")
    counts, _ = kernel.normalized(counts)  # a power of 2 cancels from counts / total
    total = counts.sum()
    if total <= 0:
        raise EmptyMarginError("grand total must be positive")
    observed = counts / total
    row_prob = observed.sum(axis=1)
    col_prob = observed.sum(axis=0)
    if np.any(row_prob == 0) or np.any(col_prob == 0):
        raise EmptyMarginError("table has an all-zero row or column")
    return CaProfiles(
        row_prob=row_prob,
        col_prob=col_prob,
        deviations=observed - np.outer(row_prob, col_prob),
    )


def ca(counts, k=0, tol=kernel.EPS):
    """Correspondence analysis: gsvd of the deviations-from-independence
    matrix under reciprocal row/column probability metrics. The eigenvalues
    sum to chi-square / N (the total inertia)."""
    prof = ca_preprocess(counts)
    return _gsvd(prof.deviations, 0, 1.0 / prof.row_prob, 1.0 / prof.col_prob,
                 _checked_k(k, tol), tol)


@dataclass(frozen=True)
class DisjunctiveTable:
    """Complete disjunctive (indicator) coding of categorical variables.

    `variable_spans` maps each variable name to its (start, stop) column
    range in the indicator; `level_labels` names every indicator column.
    """

    indicator: np.ndarray
    variable_spans: tuple
    level_labels: tuple


def disjunctive_coding(table, variable_names=None):
    """Expand categorical variables into 0/1 indicator columns.

    Levels are ordered by first appearance; each variable contributes one
    column per observed level and exactly one 1 per row.
    """
    rows = [list(r) for r in table]
    if not rows:
        raise SingleLevelVariableError("no rows to code")
    n_vars = len(rows[0])
    if n_vars == 0:
        raise EmptyMatrixError("categorical table has no variables")
    if any(len(r) != n_vars for r in rows):
        raise DimensionMismatchError("ragged categorical table")
    if variable_names is None:
        variable_names = [f"var{j + 1}" for j in range(n_vars)]
    elif len(variable_names) != n_vars:
        raise DimensionMismatchError(f"{len(variable_names)} names for {n_vars} variables")
    blocks, spans, labels = [], [], []
    start = 0
    for j in range(n_vars):
        col = [r[j] for r in rows]
        levels = list(dict.fromkeys(col))
        if len(levels) < 2:
            raise SingleLevelVariableError(
                f"variable {variable_names[j]!r} has fewer than 2 observed levels"
            )
        index = {lev: i for i, lev in enumerate(levels)}
        block = np.zeros((len(rows), len(levels)))
        block[np.arange(len(rows)), [index[v] for v in col]] = 1.0
        blocks.append(block)
        spans.append((variable_names[j], start, start + len(levels)))
        labels.extend(f"{variable_names[j]}{lev}" for lev in levels)
        start += len(levels)
    return DisjunctiveTable(
        indicator=np.hstack(blocks),
        variable_spans=tuple(spans),
        level_labels=tuple(labels),
    )


def _coded(table):
    return table if isinstance(table, DisjunctiveTable) else disjunctive_coding(table)


def mca(categorical, k=0, tol=kernel.EPS):
    """Multiple correspondence analysis: CA of the complete disjunctive
    table (a DisjunctiveTable from :func:`disjunctive_coding`, or coded
    here). The coding is rank deficient (one null dimension per variable
    beyond the first), so the tolerance discards those dimensions."""
    return ca(_coded(categorical).indicator, k=k, tol=tol)


def rmca(disjunctive, omega, k=0, tol=kernel.EPS):
    """Ridge-regularized MCA with regularization strength `omega`: gsvd of
    the column-centered indicator X under lw = I + omega * pinv(X X^T) and
    rw = pinv(diag(column sums) + omega * X^T pinv(X X^T) X), formed with no
    n x n matrix. With the thin SVD X = U S V^T, lw acts through U only
    (Takane & Hwang 2006): the gsvd core runs on the matrix diag(ridge * s) V^T
    under lw = I and that rw, with ridge sqrt(1 + omega / s^2), or sqrt(omega) / s
    where 1 + omega / s^2 overflows, for s^2 > sqrt(eps) * s_1^2 (pinv's rank
    cutoff) and 1 elsewhere, and ridge * s = sqrt(omega) where the ridge passes
    DBL_MAX; u, p, fi are lifted back through U and the ridge, and the result
    assembled once, which refuses an fi past DBL_MAX.
    omega = 0 reproduces standard MCA up to a per-component scaling factor.
    """
    k = _checked_k(k, tol)
    try:
        omega = float(omega)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"omega must be a number, got {omega!r}") from None
    if not 0 <= omega < np.inf:
        raise InvalidArgumentError(f"omega must be nonnegative and finite, got {omega!r}")
    if isinstance(disjunctive, DisjunctiveTable):
        disjunctive = disjunctive.indicator
    indicator = kernel.as_matrix(disjunctive, "disjunctive")
    with np.errstate(over="ignore"):
        centered = indicator - indicator.mean(axis=0)
    if not np.isfinite(centered).all():  # centred table past DBL_MAX
        raise NumericalError("centring a column overflowed")
    sv = kernel.tolerance_svd(centered, tol=None)
    sd, es = kernel.normalized(sv.d)  # the cutoff and omega / s^2 on s / 2^es and omega / 4^es
    keep, ridge = sd**2 > kernel.SQRT_EPS * sd[0] ** 2, np.ones((sd.size, 1))
    with np.errstate(over="ignore"):  # past DBL_MAX, 1 + omega / s^2 would round to omega / s^2
        root = np.sqrt(1.0 + kernel.scaled(omega, -2 * es) / sd[keep] ** 2)
        ridge[keep, 0] = np.where(root < np.inf, root, np.sqrt(omega) / sv.d[keep])
    # the column sums and omega over 4^g, as a metric is normalized at entry; v v' is of one
    # array, which numpy forms symmetric
    pair, g = kernel.normalized(np.append(indicator.sum(axis=0), omega), 2)
    sums, om, v = pair[:-1], pair[-1], sv.v[:, keep]
    gram, e = _formed(lambda t: np.diag(np.ldexp(sums, t)) + om * np.ldexp(v @ v.T, t),
                      indicator.shape[1], 2)
    e += g
    # ridge * s, sqrt(s^2 + omega) on a kept direction, is sqrt(omega) where the ridge overflows;
    # the matrix the solve forms is normalized
    reduced = np.where(ridge < np.inf, ridge * sv.d[:, None], np.sqrt(omega)) * sv.v.T
    try:
        rw = pinv_constraint(gram, "rw")  # 4^e times the caller's
    except NotPSDError:  # a column sum below 0, which no disjunctive table has
        raise NotPSDError(f"disjunctive: its column sums, with omega = {omega:g}, give a column "
                          "metric that is not positive semi-definite") from None
    lw = Constraint(len(reduced))
    d_full, l_full, r, s = _gsvd_columns(reduced, [lw, rw], ("lw", "rw"), tol, -e)
    with np.errstate(over="ignore", invalid="ignore"):  # an Inf in fi is _assemble's to refuse
        p, fi = sv.u @ (r["u"] / ridge), sv.u @ (ridge * r["fi"])
    return _assemble(GSVD, k, tol, d_full, l_full, (s, 0, -e), u=sv.u @ r["u"], v=r["v"],
                     q=r["q"], fj=r["fj"], p=p, fi=fi)


# ---------------------------------------------------------------------------
# two-table methods


def _preprocess_pair(x, y, center, scale):
    """Check, then center/scale both tables: (xp, ex), (yp, ey) as :func:`_prepared` gives."""
    return (_prepared(kernel.as_matrix(x, "x"), center, scale),
            _prepared(kernel.as_matrix(y, "y"), center, scale))


def pls(x, y, k=0, tol=kernel.EPS, center=True, scale=True):
    """Partial least squares SVD: gplssvd of the two (preprocessed) data
    matrices with identity constraints."""
    (xp, ex), (yp, ey) = _preprocess_pair(x, y, center, scale)
    return _gplssvd(xp, ex, yp, ey, None, None, None, None, _checked_k(k, tol), tol)


def rrr(x, y, k=0, tol=kernel.EPS, center=True, scale=True):
    """Reduced rank regression (redundancy analysis): gplssvd with the
    pseudo-inverse of X'X as the column metric for x."""
    (xp, ex), (yp, ey) = _preprocess_pair(x, y, center, scale)
    xrw = pinv_constraint(xp.T @ xp, "xrw")  # 4^ex times the caller's
    return _gplssvd(xp, ex, yp, ey, None, None, xrw, None, _checked_k(k, tol), tol, c=-ex)


def cca(x, y, k=0, tol=kernel.EPS, center=True, scale=True):
    """Canonical correlation analysis: gplssvd with pseudo-inverse
    cross-product metrics on both column sides. The singular values are the
    canonical correlations."""
    (xp, ex), (yp, ey) = _preprocess_pair(x, y, center, scale)
    xrw, yrw = pinv_constraint(xp.T @ xp, "xrw"), pinv_constraint(yp.T @ yp, "yrw")
    return _gplssvd(xp, ex, yp, ey, None, None, xrw, yrw, _checked_k(k, tol), tol, c=-ex, d=-ey)


def canonical_correlations(result):
    """Canonical correlations of a CCA run (the retained singular values)."""
    return result.d.copy()


def cca_coefficients(result):
    """Canonical coefficient matrices (per set of variables).

    Equal to W_X P and W_Y Q, recovered as fi diag(d)^-1 and fj diag(d)^-1.
    """
    inv_d = 1.0 / result.d
    return result.fi * inv_d[None, :], result.fj * inv_d[None, :]


def rrr_coefficients(result):
    """Reduced-rank regression coefficients, P diag(d)."""
    return result.p * result.d[None, :]


def plsca(cat_x, cat_y, k=0, tol=kernel.EPS):
    """Partial least squares correspondence analysis for two categorical
    tables sharing their rows.

    Both tables are disjunctively coded (unless already DisjunctiveTables,
    from :func:`disjunctive_coding`) and CA-preprocessed independently; the
    deviation matrices go through gplssvd with reciprocal row/column
    probability constraints on all four slots.
    """
    tab_x = _coded(cat_x)
    tab_y = _coded(cat_y)
    if tab_x.indicator.shape[0] != tab_y.indicator.shape[0]:
        raise DimensionMismatchError("categorical tables must share rows")
    prof_x = ca_preprocess(tab_x.indicator)
    prof_y = ca_preprocess(tab_y.indicator)
    return _gplssvd(prof_x.deviations, 0, prof_y.deviations, 0,
                    1.0 / prof_x.row_prob, 1.0 / prof_y.row_prob,
                    1.0 / prof_x.col_prob, 1.0 / prof_y.col_prob, _checked_k(k, tol), tol)
