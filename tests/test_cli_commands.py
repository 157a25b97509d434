"""Every subcommand of the ``cli.COMMANDS`` table, run end to end.

Each subcommand runs once on a small valid input and writes the expected
file set; a bounded fuzz test builds argv from each entry's own flags and
malformed input files and checks that ``cli.main`` only ever returns a
documented exit code.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gmdecomp import cli, recipes

from test_cli import write_csv, write_matrix

LEVELS = [["a", "x", "p"], ["b", "y", "q"], ["a", "z", "q"], ["b", "x", "p"],
          ["a", "y", "p"], ["b", "z", "q"], ["a", "x", "q"], ["b", "y", "p"]]
LEVELS_Y = [["u", "k"], ["v", "l"], ["u", "l"], ["v", "k"],
            ["v", "k"], ["u", "l"], ["u", "k"], ["v", "l"]]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs of every kind the subcommands read, and malformed ones."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(20240817)
    pts = rng.normal(size=(8, 2))
    a = rng.normal(size=(4, 4))
    (root / "binary.csv").write_bytes(b"1,2\n\xff\xfe,3\n")
    (root / "directory").mkdir()
    return {
        "counts": write_matrix(root / "counts.csv", rng.integers(1, 20, size=(8, 4))),
        "other": write_matrix(root / "other.csv", rng.normal(size=(8, 3))),
        "square": write_matrix(root / "square.csv", a @ a.T + np.eye(4)),
        "distance": write_matrix(
            root / "distance.csv", np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        ),
        "weights": write_matrix(root / "weights.csv", rng.uniform(0.1, 0.3, size=(8, 1))),
        "levels": write_csv(root / "levels.csv", LEVELS),
        "levels_y": write_csv(root / "levels_y.csv", LEVELS_Y),
        "empty": write_csv(root / "empty.csv", []),
        "ragged": write_csv(root / "ragged.csv", [["1"], ["2", "3"], ["4", "5"]]),
        "non_numeric": write_csv(root / "non_numeric.csv", [["1", "x"], ["2", "3"]]),
        "nan": write_csv(root / "nan.csv", [["1", "nan"], ["2", "3"], ["4", "5"]]),
        "one_row": write_csv(root / "one_row.csv", [["1", "2", "3"]]),
        "one_column": write_csv(root / "one_column.csv", [["a"], ["b"], ["a"]]),
        "binary": str(root / "binary.csv"),
        "missing": str(root / "missing.csv"),
        "directory": str(root / "directory"),
    }


# ---------------------------------------------------------------------------
# each subcommand once

INPUTS = {
    "geigen": {"--x": "square"},
    "gsvd": {"--x": "counts"},
    "gplssvd": {"--x": "counts", "--y": "other"},
    "pca": {"--x": "counts"},
    "mds": {"--x": "distance"},
    "wmds": {"--x": "distance", "--w": "weights"},
    "ca": {"--x": "counts"},
    "mca": {"--x": "levels"},
    "rmca": {"--x": "levels"},
    "pls": {"--x": "counts", "--y": "other"},
    "rrr": {"--x": "counts", "--y": "other"},
    "cca": {"--x": "counts", "--y": "other"},
    "plsca": {"--x": "levels", "--y": "levels_y"},
}
EIGEN_FIELDS = {"d", "d_full", "l", "l_full", "v", "q", "fj"}
SVD_FIELDS = EIGEN_FIELDS | {"u", "p", "fi"}
FIELDS = {"geigen": EIGEN_FIELDS, "gsvd": SVD_FIELDS, "gplssvd": SVD_FIELDS | {"lx", "ly"}}
METHOD = dict.fromkeys(("geigen", "pca", "mds", "wmds"), "geigen")
METHOD.update(dict.fromkeys(("gsvd", "ca", "mca", "rmca"), "gsvd"))
METHOD.update(dict.fromkeys(("gplssvd", "pls", "rrr", "cca", "plsca"), "gplssvd"))


def test_every_command_has_a_case():
    assert set(INPUTS) == set(cli.COMMANDS) == set(METHOD)


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_each_command_writes_its_files(name, files, tmp_path):
    argv = [name, "--plot", "--out", str(tmp_path)]
    for flag, key in INPUTS[name].items():
        argv += [flag, files[key]]
    assert cli.main(argv) == 0
    fields = FIELDS[METHOD[name]]
    expected = {f"{f}.csv" for f in fields} | {"summary.json", "scree.svg", "scores_fj.svg"}
    if "fi" in fields:
        expected.add("scores_fi.svg")
    assert {p.name for p in tmp_path.iterdir()} == expected


@pytest.mark.parametrize("name, calls", [("mca", 1), ("plsca", 2)])
def test_categorical_input_is_coded_once(name, calls, files, tmp_path, monkeypatch):
    seen = []
    real = recipes.disjunctive_coding

    def counting(*args, **kwargs):
        seen.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(recipes, "disjunctive_coding", counting)
    argv = [name, "--out", str(tmp_path)]
    for flag, key in INPUTS[name].items():
        argv += [flag, files[key]]
    assert cli.main(argv) == 0
    assert len(seen) == calls


# ---------------------------------------------------------------------------
# exit codes under malformed input

FREE_VALUES = ("0", "1,5", "-1", "abc")


def _flag_args(draw, flag, options):
    """argv for one of a command's own flags, drawn from its spec."""
    if "action" in options:
        return [flag] if draw(st.booleans()) else []
    if "choices" in options:
        return [flag, draw(st.sampled_from(list(options["choices"]) + ["bogus"]))]
    return [flag, draw(st.sampled_from(FREE_VALUES))]


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exit_code_is_always_documented(files, data):
    name = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
    cmd = cli.COMMANDS[name]
    pick = st.sampled_from(sorted(files))
    argv = [name, "--x", files[data.draw(pick)]]
    if cmd.needs_y:
        argv += ["--y", files[data.draw(pick)]]
    for slot in cmd.constraints:
        if slot in cmd.required or data.draw(st.booleans()):
            argv += [f"--{slot}", files[data.draw(pick)]]
    for flag, options in cmd.flags:
        argv += _flag_args(data.draw, flag, options)
    argv += ["--k", str(data.draw(st.integers(-1, 4)))]
    if cmd.tol and data.draw(st.booleans()):
        argv += ["--tol", data.draw(st.sampled_from(("off", "1e-8", "-1", "nan", "abc")))]
    for flag in ("--header", "--rownames", "--plot"):
        if data.draw(st.booleans()):
            argv.append(flag)
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(argv + ["--out", str(Path(out) / "o")])
    assert code in (0, 2, 3, 4), argv


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("argv, code", [
    (["gsvd", "--x", "binary"], 3),
    (["mca", "--x", "one_column", "--rownames"], 3),
    (["rrr", "--x", "nan", "--y", "nan"], 3),
    (["cca", "--x", "one_row", "--y", "one_row"], 3),
    (["cca", "--x", "ragged", "--y", "ragged", "--header", "--plot"], 3),
    (["plsca", "--x", "levels", "--y", "ragged", "--header"], 3),
    (["pls", "--x", "one_row", "--y", "one_row"], 3),
    (["rrr", "--x", "one_row", "--y", "one_row"], 3),
])
def test_malformed_input_exits_with_a_documented_code(argv, code, files, tmp_path, capsys):
    argv = [files.get(a, a) for a in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == code
    assert "error:" in capsys.readouterr().err
