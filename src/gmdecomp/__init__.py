"""gmdecomp: generalized matrix decompositions for multivariate analysis.

Three workhorse decompositions — :func:`geigen`, :func:`gsvd`, and
:func:`gplssvd` — decompose data matrices with respect to positive
semi-definite row/column constraint metrics, and a set of recipes builds
the classic multivariate methods (PCA, MDS, CA, MCA, regularized MCA, PLS,
RRR, CCA, PLS-CA) on top of them.
"""

from .decomp import DecompositionResult, geigen, gplssvd, gsvd
from .kernel import (
    EPS,
    SQRT_EPS,
    EigenOutput,
    SvdOutput,
    invsqrt_psd_matrix,
    is_diagonal_matrix,
    is_empty_matrix,
    sqrt_psd_matrix,
    symmetric_eigen,
    tolerance_eigen,
    tolerance_svd,
)
from .constraints import (
    Constraint,
    apply_invsqrt_metric,
    apply_metric,
    apply_sqrt_metric,
    normalize_constraint,
)
from .recipes import (
    CaProfiles,
    DisjunctiveTable,
    ca,
    ca_preprocess,
    canonical_correlations,
    cca,
    cca_coefficients,
    center_scale,
    disjunctive_coding,
    mca,
    mds,
    mds_score_sets,
    pca,
    pls,
    plsca,
    pseudo_inverse,
    rmca,
    rrr,
    rrr_coefficients,
    weighted_mds,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "DecompositionResult",
    "geigen",
    "gsvd",
    "gplssvd",
    "EigenOutput",
    "SvdOutput",
    "EPS",
    "SQRT_EPS",
    "tolerance_eigen",
    "tolerance_svd",
    "symmetric_eigen",
    "sqrt_psd_matrix",
    "invsqrt_psd_matrix",
    "is_diagonal_matrix",
    "is_empty_matrix",
    "Constraint",
    "normalize_constraint",
    "apply_metric",
    "apply_sqrt_metric",
    "apply_invsqrt_metric",
    "CaProfiles",
    "DisjunctiveTable",
    "pca",
    "mds",
    "weighted_mds",
    "mds_score_sets",
    "ca",
    "ca_preprocess",
    "disjunctive_coding",
    "mca",
    "rmca",
    "pls",
    "rrr",
    "cca",
    "plsca",
    "canonical_correlations",
    "cca_coefficients",
    "rrr_coefficients",
    "center_scale",
    "pseudo_inverse",
    "errors",
]
