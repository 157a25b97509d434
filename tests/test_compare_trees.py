"""tools/compare_trees.py: a tree compared with itself is identical, and a difference shows."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_trees.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_trees", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_tree_against_itself_is_identical():
    cases = ("^(gsvd-small|geigen-cond-1000|gplssvd-dense-rows|gplssvd-near-symmetric-small|"
             r"pca-eigen_cor|rmca-omega-5|geigen-diagonal-w-small|gsvd-huge-lw-small|cli-gsvd|"
             r"pls-at-2\^-1000)$")
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--cases", cases],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1 + 10 + 2
    assert all(": identical (" in line for line in lines[1:11]), lines
    assert lines[11:] == ["fields: 87 identical, 0 differ", "CLI files: 13 identical, 0 differ"]


def test_the_huge_metric_cases_keep_their_components():
    # every singular value of the gsvd-huge cases is about 2^-88, below gsvd's default
    # tolerance, so they run with it off: each case compares components, not empty results
    calls = {name: call for name, call in _tool()._calls().items() if "-huge" in name}
    assert len(calls) == 10
    for name, call in calls.items():
        assert call().d.size > 0, name


def test_a_gram_matrix_past_half_the_largest_double_is_decomposed():
    # unscaled rrr on a table near 2.5e153: x'x has entries above DBL_MAX / 2, and all 12
    # fields come out, where a failed call would give one
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                          "--cases", "^rrr-unscaled-huge$"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[1:] == [
        "rrr-unscaled-huge: identical (12 fields)", "fields: 12 identical, 0 differ",
        "CLI files: 0 identical, 0 differ"]


def test_a_difference_is_reported_relative_to_the_largest_entry():
    tool = _tool()
    u = np.array([[2.0, -1.0], [1.0, 3.0]])
    base = {"case": {"d": np.array([4.0, 2.0]), "u": u}, "cli-x": {"d.csv": b"d\n4.0\n"}}
    head = {"case": {"d": np.array([4.0, 2.0 + 4e-12]), "u": -u},
            "cli-x": {"d.csv": b"d\n4.000000000000001\n"}}
    lines, differ = tool.compare(base, head)
    assert lines[:2] == ["case: d 1e-12, u 0", "cli-x: d.csv 2.2e-16"]
    assert differ == 3
    # columns near 1e300 are given their signs with no overflow
    fi = np.array([[1e300, -3e299], [-2e299, 1e300]])
    assert tool.compare({"case": {"fi": fi}}, {"case": {"fi": -fi}})[0][0] == "case: fi 0"


def test_a_case_with_no_components_in_either_tree_is_reported_empty():
    tool = _tool()
    none = {"d": np.zeros(0), "u": np.zeros((3, 0))}
    some = {"d": np.array([1.0]), "u": np.ones((3, 1))}
    base = {"kept": some, "lost": none, "cli-x": {"d.csv": b"d\n"}}
    lines, differ = tool.compare(base, {name: dict(r) for name, r in base.items()})
    assert lines == ["cli-x: identical (1 CLI files)", "kept: identical (2 fields)",
                     "lost: empty (2 fields)", "fields: 4 identical, 0 differ, 1 empty case",
                     "CLI files: 1 identical, 0 differ"]
    assert differ == 0
    # empty in one tree only is a difference, reported field by field
    lines, differ = tool.compare({"case": some}, {"case": none})
    assert lines[0] == "case: d differs, u differs" and differ == 2
