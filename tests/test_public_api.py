"""The package root exports the paper's API and nothing else.

The three decompositions, their result record, the recipes and the error
hierarchy are importable from ``gmdecomp``; the eigen/SVD primitives and the
constraint metrics stay in ``gmdecomp.kernel`` and ``gmdecomp.constraints``.
"""

import types

import gmdecomp
from gmdecomp import constraints, kernel

DECOMPOSITIONS = {"geigen", "gsvd", "gplssvd", "DecompositionResult"}
RECIPES = {
    "CaProfiles", "DisjunctiveTable", "pca", "mds", "weighted_mds", "mds_score_sets",
    "ca", "ca_preprocess", "disjunctive_coding", "mca", "rmca", "pls", "rrr", "cca",
    "plsca", "canonical_correlations", "cca_coefficients", "rrr_coefficients",
    "center_scale",
}


def test_all_is_the_documented_set():
    assert len(gmdecomp.__all__) == len(set(gmdecomp.__all__))
    assert set(gmdecomp.__all__) == DECOMPOSITIONS | RECIPES | {"errors"}


def test_every_exported_name_resolves():
    for name in gmdecomp.__all__:
        assert getattr(gmdecomp, name) is not None, name
    assert isinstance(gmdecomp.errors, types.ModuleType)
    assert isinstance(gmdecomp.__version__, str)


def test_no_kernel_or_constraint_name_is_exported():
    internals = {n for mod in (kernel, constraints) for n in vars(mod) if not n.startswith("_")}
    assert not internals & set(gmdecomp.__all__)
    for name in ("tolerance_eigen", "sqrt_psd_matrix", "Constraint", "apply_metric", "EPS"):
        assert not hasattr(gmdecomp, name), name
