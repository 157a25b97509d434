"""gmdecomp: generalized matrix decompositions for multivariate analysis.

Three workhorse decompositions — :func:`geigen`, :func:`gsvd`, and
:func:`gplssvd` — decompose data matrices with respect to positive
semi-definite row/column constraint metrics, and a set of recipes builds
the classic multivariate methods (PCA, MDS, CA, MCA, regularized MCA, PLS,
RRR, CCA, PLS-CA) on top of them.

The package root exports those, the result record and :mod:`errors`; the
eigen/SVD primitives and constraint metrics live in :mod:`gmdecomp.kernel`
and :mod:`gmdecomp.constraints`.
"""

from .decomp import DecompositionResult, geigen, gplssvd, gsvd
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
    "errors",
]
