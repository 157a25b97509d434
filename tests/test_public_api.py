"""The package root exports the paper's API and nothing else.

The three decompositions, their result record, the recipes and the error
hierarchy are importable from ``gmdecomp``; the eigen/SVD primitives and the
constraint metrics stay in ``gmdecomp.kernel`` and ``gmdecomp.constraints``, and
every array a caller passes is converted by ``kernel.as_array`` alone.
"""

import ast
import types
from pathlib import Path

import numpy as np
import pytest

import gmdecomp
from gmdecomp import constraints, kernel, recipes
from gmdecomp.decomp import geigen, gplssvd, gsvd
from gmdecomp.errors import GmdError

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
    for name in ("tolerance_eigen", "psd_eigen", "Constraint", "apply_sqrt_metric", "EPS"):
        assert not hasattr(gmdecomp, name), name


def _references(tree, skip=None):
    """Names a module's code uses, as a bare name, an attribute or an
    import, outside its top-level definition named `skip`."""
    names = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_kernel_and_constraint_helper_has_a_library_caller():
    # a public helper that only tests reach is dead code in the library
    src = Path(gmdecomp.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in src.glob("*.py")}
    uncalled = []
    for mod in ("kernel", "constraints"):
        for top in trees[mod].body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            if not any(top.name in _references(tree, top.name if stem == mod else None)
                       for stem, tree in trees.items()):
                uncalled.append(f"{mod}.{top.name}")
    assert uncalled == []


def test_each_lapack_routine_has_one_call_site():
    # every eigh and svd goes through the tolerance routine that owns it
    sites = {"eigh": [], "svd": []}
    for path in sorted(Path(gmdecomp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in sites:
                    sites[name].append(f"{path.stem}.{getattr(top, 'name', '')}")
    assert sites == {"eigh": ["kernel.tolerance_eigen"], "svd": ["kernel.tolerance_svd"]}


def test_one_function_eigendecomposes_a_metric_and_every_constraint_is_checked():
    # geigen's core eigendecomposes its weighted x, factorize every dense metric; and no
    # record is made with __new__, which would skip its checked constructor
    sites = {"tolerance_eigen": [], "__new__": []}
    for path in sorted(Path(gmdecomp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in sites:
                    sites[name].append(f"{path.stem}.{getattr(top, 'name', '')}")
    assert sites == {"tolerance_eigen": ["constraints.factorize", "decomp._geigen"],
                     "__new__": []}


def test_caller_input_is_converted_in_one_place():
    # every array a caller passes goes through kernel.as_array; the CSV
    # loader only converts the floats it parsed itself
    sites = []
    for path in sorted(Path(gmdecomp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "asarray":
                    sites.append(f"{path.stem}.{getattr(top, 'name', '')}")
    assert sites == ["cli.load_matrix_csv", "kernel.as_array"]


def test_recipes_call_the_decomposition_cores_only():
    # a recipe hands the arrays it formed, and their powers of 2, to a core; a public
    # decomposition would convert and scan them again as a caller's input
    tree = ast.parse(Path(recipes.__file__).read_text(encoding="utf-8"))
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not called & {"geigen", "gsvd", "gplssvd"}
    assert {"_geigen", "_gsvd", "_gplssvd"} <= called


def test_public_decompositions_take_no_private_parameter():
    # a recipe's powers of 2 go to a core, so a public signature holds only documented parameters
    tree = ast.parse(Path(gmdecomp.decomp.__file__).read_text(encoding="utf-8"))
    params = {top.name: [a.arg for a in ast.walk(top.args) if isinstance(a, ast.arg)]
              for top in tree.body if isinstance(top, ast.FunctionDef)}
    for name in ("geigen", "gsvd", "gplssvd"):
        assert not [p for p in params[name] if p.startswith("_")], name


_DIST = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("slot, call", [
    ("x", lambda: gsvd([[1, "x"]])),
    ("lw", lambda: gsvd(np.eye(2), lw=[1, "a"])),
    ("lw", lambda: gsvd(np.eye(2), lw=[[1, 2], [3]])),
    ("w", lambda: geigen(np.eye(2), w=[["a", 0], [0, 1]])),
    ("y", lambda: gplssvd(np.eye(2), [[1, 2], [3]])),
    ("row_weights", lambda: recipes.weighted_mds(_DIST, ["a", "b"])),
    ("disjunctive", lambda: recipes.rmca([["a", "b"], ["c", "d"]], 1.0)),
    ("data", lambda: recipes.pca([["a", "b"], ["c", "d"]])),
    ("counts", lambda: recipes.ca([[1, "b"], [2, 3]])),
    ("dist", lambda: recipes.mds([[0, "a"], ["a", 0]])),
    ("data", lambda: recipes.center_scale([[1.0, 2.0], [3.0]])),
    ("lw", lambda: constraints.Constraint(2, ["a", "b"], name="lw")),
    ("lw: basis", lambda: constraints.Constraint(2, [1, 2], [["a", 0], [0, 1]], "lw")),
    ("x", lambda: gsvd(np.array([[1 + 1j, 2.0], [0, 1j]]))),
    ("lw", lambda: gsvd(np.eye(2), lw=np.array([1 + 1j, 1]))),
    ("lw", lambda: constraints.Constraint(2, np.array([1j, 1]), name="lw")),
], ids=["gsvd-x", "gsvd-lw", "gsvd-lw-ragged", "geigen-w", "gplssvd-y-ragged", "wmds-weights",
        "rmca", "pca", "ca", "mds", "center_scale-ragged", "constraint", "constraint-basis",
        "gsvd-x-complex", "gsvd-lw-complex", "constraint-complex"])
def test_non_numeric_input_is_a_typed_error_naming_its_slot(slot, call):
    with pytest.raises(GmdError, match=f"^{slot} cannot be read as an array of numbers"):
        call()
