import csv
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from gmdecomp import cli, kernel
from gmdecomp.decomp import DecompositionResult, gsvd
from gmdecomp.errors import NumericalError, ParseError, RaggedRowsError


def write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


def write_matrix(path, mat):
    return write_csv(path, [[repr(float(x)) for x in row] for row in mat])


# ---------------------------------------------------------------------------
# CSV loading


def test_load_matrix_plain(tmp_path):
    path = write_csv(tmp_path / "m.csv", [["1", "2"], ["3", "4"]])
    m = cli.load_matrix_csv(path)
    assert np.array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])
    assert m.row_labels is None and m.col_labels is None


def test_load_matrix_header_and_rownames(tmp_path):
    path = write_csv(
        tmp_path / "m.csv",
        [["", "a", "b"], ["r1", "1", "2"], ["r2", "3", "4"]],
    )
    m = cli.load_matrix_csv(path, has_header=True, has_rownames=True)
    assert m.col_labels == ["a", "b"]
    assert m.row_labels == ["r1", "r2"]
    assert np.array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_matrix_parse_error_coordinates(tmp_path):
    path = write_csv(tmp_path / "m.csv", [["1", "2"], ["3", "oops"]])
    with pytest.raises(ParseError, match="row 2, column 2"):
        cli.load_matrix_csv(path)


def test_load_matrix_ragged_rows(tmp_path):
    path = write_csv(tmp_path / "m.csv", [["1", "2"], ["3"]])
    with pytest.raises(RaggedRowsError, match="line 2"):
        cli.load_matrix_csv(path)


def test_load_matrix_empty_file(tmp_path):
    path = write_csv(tmp_path / "m.csv", [])
    with pytest.raises(ParseError):
        cli.load_matrix_csv(path)


def test_load_constraint_vector_vs_matrix(tmp_path):
    vec = cli.load_constraint_csv(write_csv(tmp_path / "v.csv", [["1"], ["2"], ["3"]]))
    assert vec.ndim == 1 and np.array_equal(vec, [1.0, 2.0, 3.0])
    mat = cli.load_constraint_csv(
        write_csv(tmp_path / "w.csv", [["1", "0"], ["0", "2"]])
    )
    assert mat.shape == (2, 2)


def test_constraint_files_are_read_without_labels(tmp_path, rng, capsys):
    x = rng.normal(size=(4, 3))
    plain = write_matrix(tmp_path / "x.csv", x)
    labeled = write_csv(tmp_path / "labeled.csv", [["", "a", "b", "c"]] + [
        [f"r{i}"] + [repr(float(v)) for v in row] for i, row in enumerate(x)
    ])
    lw = write_csv(tmp_path / "lw.csv", [["0.5"], ["1.5"], ["2"], ["1"]])
    base = ["gsvd", "--lw", lw, "--out"]
    assert cli.main(base + [str(tmp_path / "plain"), "--x", plain]) == 0
    assert cli.main(base + [str(tmp_path / "labeled"), "--x", labeled,
                            "--header", "--rownames"]) == 0
    d = (tmp_path / "plain" / "d.csv").read_bytes()
    assert d == (tmp_path / "labeled" / "d.csv").read_bytes()
    # a constraint file with labels is a parse error naming the file and cell
    lw_labeled = write_csv(tmp_path / "lw_labeled.csv", [["w"], ["0.5"], ["1.5"], ["2"], ["1"]])
    argv = ["gsvd", "--x", labeled, "--lw", lw_labeled, "--header", "--rownames",
            "--out", str(tmp_path / "bad")]
    capsys.readouterr()
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "lw_labeled.csv" in err and "row 1, column 1" in err


# ---------------------------------------------------------------------------
# result writing and round-trip


def test_write_result_round_trip_exact(tmp_path, rng):
    x = rng.normal(size=(6, 4))
    result = gsvd(x, lw=rng.uniform(0.5, 2.0, size=6), tol=1e-12)
    outdir = tmp_path / "out"
    cli.write_result(result, outdir, command_line="gmdecomp gsvd",
                     n_rows=6, n_cols=4)
    for name, value in result.fields().items():
        loaded = cli.load_matrix_csv(
            outdir / f"{name}.csv", has_header=(value.ndim == 2)
        ).values
        if value.ndim == 1:
            loaded = loaded[:, 0]
        # repr() emits shortest round-trip decimals, so equality is exact
        assert np.array_equal(loaded, value), name
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["method"] == "gsvd"
    assert summary["n_rows"] == 6 and summary["n_cols"] == 4
    assert summary["n_retained"] == result.n_retained
    assert summary["tol"] == 1e-12
    assert summary["command_line"] == "gmdecomp gsvd"


def test_write_result_row_labels(tmp_path, rng):
    result = gsvd(rng.normal(size=(3, 2)))
    cli.write_result(result, tmp_path, {"fi": ["r1", "r2", "r3"], "fj": ["c1", "c2"]})
    fi = cli.load_matrix_csv(tmp_path / "fi.csv", has_header=True, has_rownames=True)
    assert fi.row_labels == ["r1", "r2", "r3"]
    fj = cli.load_matrix_csv(tmp_path / "fj.csv", has_header=True, has_rownames=True)
    assert fj.row_labels == ["c1", "c2"]


def test_write_result_bytes_are_pinned(tmp_path):
    # floats as their shortest round-trip repr, labels quoted only where
    # csv must, CRLF line ends; a vector has no header
    values = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1 / 3, 1e22]
    vec = np.array(values)
    mat = np.array(values[:6]).reshape(3, 2)
    result = DecompositionResult(method="gsvd", d=vec, d_full=vec, l=vec, l_full=vec,
                                 u=mat, v=mat, p=mat, q=mat, fi=mat, fj=mat)
    cli.write_result(result, tmp_path, {"fi": ["a,b", 'q"x', " sp "]})
    assert (tmp_path / "d.csv").read_bytes() == (
        b"-0.0\r\nnan\r\ninf\r\n-inf\r\n5e-324\r\n0.3333333333333333\r\n1e+22\r\n")
    assert (tmp_path / "fi.csv").read_bytes() == (
        b',comp_1,comp_2\r\n"a,b",-0.0,nan\r\n"q""x",inf,-inf\r\n'
        b" sp ,5e-324,0.3333333333333333\r\n")
    assert (tmp_path / "fj.csv").read_bytes() == (
        b"comp_1,comp_2\r\n-0.0,nan\r\ninf,-inf\r\n5e-324,0.3333333333333333\r\n")


def test_reruns_are_byte_identical(tmp_path, rng):
    x = rng.normal(size=(8, 4))
    path = write_matrix(tmp_path / "x.csv", x)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        code = cli.main(["pca", "--x", path, "--route", "triplet_scaled",
                         "--out", str(out), "--plot"])
        assert code == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    assert "scree.svg" in files1 and "scores_fi.svg" in files1
    for name in files1:
        if name == "summary.json":
            continue  # records the command line, which names the out dir
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# ---------------------------------------------------------------------------
# CSV files shared among writer processes


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls this process makes."""
    calls, real_fork = [], os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_writer_processes_write_the_bytes_of_one(tmp_path, monkeypatch, forks):
    rng = np.random.default_rng(14)

    def labeled(name, values):
        rows = [[f"r{i}"] + [repr(v) for v in row] for i, row in enumerate(values.tolist())]
        return write_csv(tmp_path / name, [[""] + [f"c{j}" for j in range(50)]] + rows)

    ca = labeled("ca.csv", rng.poisson(5.0, size=(300, 50)) + 1)
    gs = labeled("gsvd.csv", rng.normal(size=(300, 50)))
    levels = write_csv(tmp_path / "levels.csv", rng.choice(list("abcde"), size=(300, 10)))
    runs = [["ca", "--x", ca, "--header", "--rownames"],
            ["gsvd", "--x", gs, "--header", "--rownames"],
            ["rmca", "--x", levels, "--omega", "0,1"]]
    out = tmp_path / "out"
    written = {}
    for cpus in (1, 2, 4):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        forks.clear()
        for i, argv in enumerate(runs):
            assert cli.main(argv + ["--out", str(out / str(i))]) == 0
        # each of the four results holds over 20 000 cells: one fork per result,
        # however many CPUs there are
        assert len(forks) == (cpus > 1) * 4
        written[cpus] = _files(out)
        shutil.rmtree(out)
    assert len(written[1]) == 4 * 11  # ten CSV files and a summary.json per result
    assert written[2] == written[1] and written[4] == written[1]


def test_a_file_that_cannot_be_replaced_exits_3_and_leaves_no_process(
        tmp_path, monkeypatch, capsys, forks):
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    x = write_matrix(tmp_path / "x.csv", np.random.default_rng(3).normal(size=(150, 40)))
    # some CSV files in this process's share, the others in the child's; the plots here
    names = [f"{name}.csv" for name in gsvd(np.eye(2)).fields()] + ["scree.svg", "scores_fi.svg"]
    for i, name in enumerate(names):
        out = tmp_path / str(i)
        (out / name).mkdir(parents=True)
        assert cli.main(["gsvd", "--x", x, "--out", str(out), "--plot"]) == 3
        assert str(out / name) in capsys.readouterr().err
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        assert not (out / "summary.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(forks) == len(names)


def test_every_file_of_a_run_is_renamed_into_place_summary_last(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    replaced, replace = [], os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: replaced.append(dst) or replace(src, dst))
    x = write_matrix(tmp_path / "x.csv", np.random.default_rng(4).normal(size=(8, 4)))
    out = tmp_path / "o"
    assert cli.main(["gsvd", "--x", x, "--out", str(out), "--plot"]) == 0
    assert sorted(replaced) == sorted(out.iterdir())
    assert replaced[-1] == out / "summary.json" and len(replaced) == 14  # 10 CSV, 3 SVG files


def test_a_rerun_renames_no_file_over_an_existing_one(tmp_path, monkeypatch):
    # each old file is unlinked before its new one is renamed into place: from the third run
    # on, a rename over a file that had itself replaced one waited tens of ms on ext4
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    x = write_matrix(tmp_path / "x.csv", np.random.default_rng(5).normal(size=(8, 4)))
    argv = ["gsvd", "--x", x, "--out", str(tmp_path / "o"), "--plot"]
    assert cli.main(argv) == 0
    replace, over = os.replace, []
    monkeypatch.setattr(os, "replace", lambda src, dst: over.append(os.path.lexists(dst))
                        or replace(src, dst))
    for _ in range(2):
        first = sorted((tmp_path / "o").iterdir())
        assert cli.main(argv) == 0
        assert sorted((tmp_path / "o").iterdir()) == first
    assert len(over) == 2 * 14 and not any(over)


def test_summary_lists_the_files_of_its_own_run(tmp_path):
    x = write_matrix(tmp_path / "x.csv", np.random.default_rng(6).normal(size=(8, 4)))
    out = tmp_path / "o"
    csvs = [f"{name}.csv" for name in gsvd(np.eye(2)).fields()]
    svgs = ["scores_fi.svg", "scores_fj.svg", "scree.svg"]
    for argv, listed in ((["--plot"], sorted(csvs + svgs)), ([], sorted(csvs))):
        assert cli.main(["gsvd", "--x", x, "--out", str(out)] + argv) == 0
        assert json.loads((out / "summary.json").read_text())["files"] == listed
    # the first run's plots stay on disk, but the second run did not write them
    assert all((out / name).is_file() for name in svgs)


@pytest.mark.parametrize("command, k, formatted, copies", [
    ("ca", 0, 8, [("d", "d_full"), ("l", "l_full")]),
    ("ca", 2, 10, []),  # d is a prefix of d_full, another array
    ("pls", 2, 10, [("u", "p"), ("v", "q")]),  # identity metrics
    ("pls", 0, 8, [("d", "d_full"), ("l", "l_full"), ("u", "p"), ("v", "q")]),
], ids=["ca", "ca-k2", "pls-k2", "pls"])
def test_a_field_that_is_another_fields_array_is_formatted_once(
        tmp_path, monkeypatch, command, k, formatted, copies):
    # counted, not timed: the formatter's calls against the CSV files written
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    calls, write_rows = [], cli._floatfmt.write_rows
    monkeypatch.setattr(cli._floatfmt, "write_rows",
                        lambda *args: calls.append(1) or write_rows(*args))
    rng = np.random.default_rng(8)
    x = write_matrix(tmp_path / "x.csv", rng.poisson(5.0, size=(9, 5)) + 1.0)
    y = write_matrix(tmp_path / "y.csv", rng.normal(size=(9, 4)))
    out = tmp_path / "o"
    argv = [command, "--x", x] + ["--y", y] * (command == "pls") + ["--k", str(k)]
    assert cli.main(argv + ["--out", str(out), "--rownames", "--plot"]) == 0
    names = sorted(p.name for p in out.iterdir() if p.name != "summary.json")
    assert json.loads((out / "summary.json").read_text())["files"] == names
    written = [name for name in names if name.endswith(".csv")]
    assert len(calls) == formatted and len(written) == formatted + len(copies)
    for a, b in copies:
        assert (out / f"{a}.csv").read_bytes() == (out / f"{b}.csv").read_bytes()


def test_a_run_below_the_cell_floor_forks_nothing(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    x = write_matrix(tmp_path / "x.csv", np.random.default_rng(5).normal(size=(20, 5)))
    assert cli.main(["gsvd", "--x", x, "--out", str(tmp_path / "o")]) == 0
    assert forks == []


# ---------------------------------------------------------------------------
# end-to-end subcommands and exit codes


def test_main_gsvd_with_constraints(tmp_path, rng):
    x = rng.normal(size=(5, 3))
    xp = write_matrix(tmp_path / "x.csv", x)
    lw = write_csv(tmp_path / "lw.csv", [["0.5"]] * 5)
    code = cli.main(["gsvd", "--x", xp, "--lw", lw, "--out", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["method"] == "gsvd"


def test_main_gplssvd(tmp_path, rng):
    xp = write_matrix(tmp_path / "x.csv", rng.normal(size=(10, 3)))
    yp = write_matrix(tmp_path / "y.csv", rng.normal(size=(10, 2)))
    out = tmp_path / "o"
    assert cli.main(["gplssvd", "--x", xp, "--y", yp, "--out", str(out)]) == 0
    assert (out / "lx.csv").exists() and (out / "ly.csv").exists()


def test_main_ca_and_mca(tmp_path, rng):
    counts = rng.integers(1, 30, size=(5, 4))
    cp = write_matrix(tmp_path / "c.csv", counts)
    assert cli.main(["ca", "--x", cp, "--out", str(tmp_path / "ca")]) == 0
    cat = [["a", "x"], ["b", "y"], ["a", "y"], ["b", "x"], ["a", "x"], ["b", "y"]]
    catp = write_csv(tmp_path / "cat.csv", cat)
    assert cli.main(["mca", "--x", catp, "--out", str(tmp_path / "mca")]) == 0
    fj = cli.load_matrix_csv(tmp_path / "mca" / "fj.csv", has_header=True,
                             has_rownames=True)
    assert fj.row_labels == ["var1a", "var1b", "var2x", "var2y"]


def test_main_rmca_multi_omega_directories(tmp_path):
    cat = [["a", "x"], ["b", "y"], ["a", "y"], ["b", "x"], ["a", "x"], ["b", "y"]]
    catp = write_csv(tmp_path / "cat.csv", cat)
    out = tmp_path / "rmca"
    assert cli.main(["rmca", "--x", catp, "--omega", "0,1,5",
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["omega_0", "omega_1", "omega_5"]
    for sub in out.iterdir():
        assert (sub / "summary.json").exists()


def test_main_wmds_tolerance_off(tmp_path, rng):
    pts = rng.normal(size=(7, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    dp = write_matrix(tmp_path / "d.csv", dist)
    wp = write_csv(tmp_path / "w.csv", [[repr(1.0 / (i + 2))] for i in range(7)])
    out = tmp_path / "o"
    assert cli.main(["wmds", "--x", dp, "--w", wp, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tol"] == "off"


def test_main_truncation_reported_in_summary(tmp_path, rng):
    xp = write_matrix(tmp_path / "x.csv", rng.normal(size=(8, 5)))
    out = tmp_path / "o"
    assert cli.main(["pca", "--x", xp, "--k", "2", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_retained"] == 2


def test_exit_code_usage():
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["gsvd"]) == 2  # missing required --x


def test_one_parser_serves_every_run_of_a_process_as_if_it_ran_alone(tmp_path, rng, capsys):
    # main builds its parser once per process; no run leaves state in it for the next
    xp = write_matrix(tmp_path / "x.csv", rng.normal(size=(6, 3)))
    out = tmp_path / "o"
    runs = {"usage": ["gsvd", "--x", xp, "--k", "two", "--out", str(out)],
            "valid": ["gsvd", "--x", xp, "--k", "2", "--plot", "--out", str(out)]}

    def run(name):
        code = cli.main(runs[name])
        captured = capsys.readouterr()
        files = _files(out)
        shutil.rmtree(out, ignore_errors=True)
        return code, captured.out, captured.err, files

    alone = {}
    for name in runs:
        cli.build_parser.cache_clear()
        alone[name] = run(name)
    assert alone["usage"][0] == 2 and alone["valid"][0] == 0 and alone["valid"][3]
    cli.build_parser.cache_clear()
    for name in ("usage", "valid", "usage"):
        assert run(name) == alone[name], name
    assert cli.build_parser.cache_info().misses == 1


def test_exit_code_data_errors(tmp_path, capsys):
    assert cli.main(["gsvd", "--x", str(tmp_path / "missing.csv")]) == 3
    bad = write_csv(tmp_path / "bad.csv", [["1", "nope"]])
    assert cli.main(["gsvd", "--x", bad]) == 3
    assert "error:" in capsys.readouterr().err


def test_exit_code_numerical(tmp_path, capsys):
    # indefinite matrix under an active eigen tolerance
    xp = write_matrix(tmp_path / "x.csv", np.diag([2.0, -1.0]))
    assert cli.main(["geigen", "--x", xp, "--out", str(tmp_path / "o")]) == 4
    assert "error:" in capsys.readouterr().err


def test_non_finite_result_exits_4_writing_nothing(tmp_path, capsys):
    # d = 1e305 overflows in d^2 (l) and in lw^(1/2) u d (fi)
    xp = write_csv(tmp_path / "x.csv", [["1e300", "0"], ["0", "1"]])
    lw = write_csv(tmp_path / "lw.csv", [["1e10"], ["1"]])
    out = tmp_path / "o"
    with np.errstate(over="ignore"):
        code = cli.main(["gsvd", "--x", xp, "--lw", lw, "--out", str(out)])
    assert code == 4
    assert "NaN or Inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mds"], ["wmds", "--w", "weights"], ["pca", "--route", "eigen_cov"]],
    ids=["mds", "wmds", "pca-eigen_cov"])
def test_a_recipe_whose_eigenvalues_overflow_exits_4_with_one_line(tmp_path, argv):
    # every entry is finite, but the eigenvalues, of the entries' squares, overflow: a numerical
    # failure, not bad input
    xp = write_matrix(tmp_path / "x.csv", 1e200 * (1.0 - np.eye(3)))
    argv = [write_matrix(tmp_path / "w.csv", np.ones((3, 1))) if a == "weights" else a
            for a in argv]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run(
        [sys.executable, "-m", "gmdecomp.cli", *argv, "--x", xp, "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert run.returncode == 4
    assert run.stderr.splitlines() == [
        "error: geigen: the result field l_full holds NaN or Inf values"]
    assert not (tmp_path / "o").exists()


def test_a_warning_is_printed_as_one_line_and_the_run_succeeds(tmp_path):
    # a k past the retained components is clamped, which the run reports as errors are reported
    xp = write_matrix(tmp_path / "x.csv", [[1.0, 2.0], [3.0, 4.0]])
    out = tmp_path / "o"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run(
        [sys.executable, "-m", "gmdecomp.cli", "gsvd", "--x", xp, "--k", "50", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert run.returncode == 0
    assert run.stderr.splitlines() == [
        "warning: requested k=50 exceeds the 2 retained components; clamping"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_retained"] == 2
    assert sorted(p.name for p in out.iterdir()) == sorted(summary["files"] + ["summary.json"])


@pytest.mark.parametrize("argv, code, message", [
    (["pca", "--route", "triplet_metric"], 0, None),
    (["rrr", "--y", "y", "--no-scale"], 0, None),
    (["gsvd", "--lw", "lw"], 4, "gsvd: the result field d_full holds NaN or Inf values"),
], ids=["pca-triplet_metric", "rrr-unscaled", "gsvd-dense-lw"])
def test_data_near_1e200_exit_with_an_answer_or_one_line_and_no_warning(
        tmp_path, argv, code, message):
    # finite data near 1e200 are normalized first: pca's triplet_metric and rrr give a d that
    # does not depend on their scale, but under a finite lw near 1e308, d overflows
    rng = np.random.default_rng(8)
    files = dict(y=rng.normal(size=(8, 2)), lw=np.full((8, 8), 1e308))
    argv = [write_matrix(tmp_path / f"{a}.csv", files[a]) if a in files else a for a in argv]
    xp = write_matrix(tmp_path / "x.csv", 1e200 * rng.normal(size=(8, 3)))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run(
        [sys.executable, "-m", "gmdecomp.cli", *argv, "--x", xp, "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert run.returncode == code
    assert run.stderr.splitlines() == ([f"error: {message}"] if message else [])
    assert (tmp_path / "o").exists() == (message is None)


@pytest.mark.parametrize("argv, code, message", [
    (["rmca", "--x", "cat", "--omega", "1.7e308"], 0, None),
    (["wmds", "--x", "dist", "--w", "masses"], 4,
     "the matrix to factorize overflowed: it holds NaN or Inf entries"),
], ids=["rmca-omega-1.7e308", "wmds-masses-1e200"])
def test_a_finite_argument_near_dbl_max_exits_with_an_answer_or_one_line_and_no_warning(
        tmp_path, argv, code, message):
    # rmca's ridge sqrt(1 + omega / s^2) is sqrt(omega) / s where omega / s^2 overflows; masses
    # near 1e200, which are not normalized, overflow weighted MDS's matrix, which is refused
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(10, 3))
    files = dict(cat=[[f"L{i % k + 1 if i < k else rng.integers(1, k + 1)}" for k in (3, 2, 3)]
                      for i in range(12)],
                 dist=np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)),
                 masses=np.full((10, 1), 1e200))
    argv = [(write_csv if a == "cat" else write_matrix)(tmp_path / f"{a}.csv", files[a])
            if a in files else a for a in argv]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run(
        [sys.executable, "-m", "gmdecomp.cli", *argv, "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert run.returncode == code
    assert run.stderr.splitlines() == ([f"error: {message}"] if message else [])
    assert (tmp_path / "o").exists() == (message is None)


def test_rmca_row_scores_past_dbl_max_exit_4_with_one_line(tmp_path, capsys, monkeypatch):
    # a coded table is 0 or 1, so its indicator is scaled to 1e-170 as it is coded: at
    # omega = 1e300 the row scores fi overflow, which the result's check refuses alone, with no
    # warning line before it
    real = cli.recipes.disjunctive_coding

    def coding(*args, **kw):
        tab = real(*args, **kw)
        return cli.recipes.DisjunctiveTable(1e-170 * tab.indicator, tab.variable_spans,
                                            tab.level_labels)

    monkeypatch.setattr(cli.recipes, "disjunctive_coding", coding)
    rng = np.random.default_rng(3)
    cat = write_csv(tmp_path / "cat.csv", [[f"L{i % k + 1 if i < k else rng.integers(1, k + 1)}"
                                            for k in (3, 2, 3)] for i in range(12)])
    out = tmp_path / "o"
    assert cli.main(["rmca", "--x", cat, "--omega", "1e300", "--out", str(out)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: --omega 1e+300: gsvd: the result field fi holds NaN or Inf values"]
    assert not out.exists()


def test_singular_values_whose_squares_overflow_exit_4_with_one_line(tmp_path):
    # d = 3e200: d^2 overflows in the tolerance and in l, which raises alone, with no
    # warning before it
    xp = write_matrix(tmp_path / "x.csv", np.full((3, 3), 1e200))
    out = tmp_path / "o"
    with pytest.raises(NumericalError, match="^gsvd: the result field l_full holds NaN"):
        gsvd(np.full((3, 3), 1e200))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run(
        [sys.executable, "-m", "gmdecomp.cli", "gsvd", "--x", xp, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert run.returncode == 4
    assert run.stderr.splitlines() == [
        "error: gsvd: the result field l_full holds NaN or Inf values"]
    assert not out.exists()


def test_scores_that_overflow_exit_4_with_one_line(tmp_path, rng):
    # x near 1e290 under an rw near 1e20: d^2 and the column scores overflow, and the result's
    # check raises alone, with no warning line before it
    a = rng.normal(size=(12, 12))
    xp = write_matrix(tmp_path / "x.csv", 1e290 * rng.normal(size=(20, 12)))
    rwp = write_matrix(tmp_path / "rw.csv", 1e20 * (a @ a.T / 12 + 0.5 * np.eye(12)))
    out = tmp_path / "o"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run(
        [sys.executable, "-m", "gmdecomp.cli", "gsvd", "--x", xp, "--rw", rwp, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert run.returncode == 4
    assert run.stderr.splitlines() == [
        "error: gsvd: the result field l_full holds NaN or Inf values"]
    assert not out.exists()


def test_non_finite_rmca_result_names_its_omega(tmp_path, capsys, monkeypatch):
    real_rmca = cli.recipes.rmca

    def rmca(x, omega, **kw):
        if omega == 1:
            raise NumericalError("gsvd: the result field l_full holds NaN or Inf values")
        return real_rmca(x, omega, **kw)

    monkeypatch.setattr(cli.recipes, "rmca", rmca)
    cat = write_csv(tmp_path / "cat.csv", [["a", "x"], ["b", "y"], ["a", "y"], ["b", "x"]])
    out = tmp_path / "o"
    assert cli.main(["rmca", "--x", cat, "--omega", "0,1,5", "--out", str(out)]) == 4
    assert "--omega 1: gsvd: the result field l_full holds NaN or Inf" in capsys.readouterr().err
    assert not out.exists()


def test_geigen_eigenvalues_that_overflow_exit_4_writing_nothing(tmp_path, capsys):
    # the eigenvalue 1e10 * 1e300 overflows, although both inputs are finite
    xp = write_matrix(tmp_path / "x.csv", np.diag([1e300, 1.0]))
    wp = write_csv(tmp_path / "w.csv", [["1e10"], ["1"]])
    out = tmp_path / "o"
    assert cli.main(["geigen", "--x", xp, "--w", wp, "--out", str(out)]) == 4
    assert "geigen: the result field l_full holds NaN or Inf" in capsys.readouterr().err
    assert not out.exists()


def test_unscaled_rrr_of_a_table_whose_gram_matrix_underflows_writes_its_d(tmp_path, rng):
    # near 2^-532, x'x underflows; x is normalized first, and d does not depend on its scale
    x, y = rng.normal(size=(10, 3)), write_matrix(tmp_path / "y.csv", rng.normal(size=(10, 2)))
    for name, table in (("tiny", np.ldexp(x, -532)), ("x", x)):
        xp = write_matrix(tmp_path / f"{name}.csv", table)
        assert cli.main(["rrr", "--x", xp, "--y", y, "--no-scale", "--out",
                         str(tmp_path / name)]) == 0
    assert (tmp_path / "tiny" / "d.csv").read_bytes() == (tmp_path / "x" / "d.csv").read_bytes()


def test_exit_code_asymmetric_geigen_input(tmp_path, capsys):
    xp = write_matrix(tmp_path / "x.csv", [[1.0, 2.0], [0.0, 1.0]])
    assert cli.main(["geigen", "--x", xp, "--out", str(tmp_path / "o")]) == 3
    assert "not symmetric" in capsys.readouterr().err


def test_tol_flag_through_main(tmp_path, rng):
    xp = write_matrix(tmp_path / "x.csv", rng.normal(size=(6, 3)))
    recorded = {}
    for name, flags in (("default", []), ("off", ["--tol", "off"]),
                        ("number", ["--tol", "1e-8"])):
        out = tmp_path / name
        assert cli.main(["gsvd", "--x", xp, "--out", str(out)] + flags) == 0
        recorded[name] = json.loads((out / "summary.json").read_text())["tol"]
    assert recorded == {"default": kernel.EPS, "off": "off", "number": 1e-8}
    # a bad value is a usage error, and wmds has no tolerance to set
    assert cli.main(["gsvd", "--x", xp, "--tol", "huh", "--out", str(tmp_path / "bad")]) == 2
    wp = write_csv(tmp_path / "w.csv", [["1"]] * 6)
    assert cli.main(["wmds", "--x", xp, "--w", wp, "--tol", "0.5",
                     "--out", str(tmp_path / "wmds")]) == 2
    assert not (tmp_path / "bad").exists() and not (tmp_path / "wmds").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_that_is_not_a_threshold_exits_2_writing_nothing(tmp_path, rng, capsys, tol):
    xp = write_matrix(tmp_path / "x.csv", rng.uniform(1.0, 2.0, size=(6, 3)))
    sp = write_matrix(tmp_path / "s.csv", np.eye(3) * 2.0)
    cat = write_csv(tmp_path / "cat.csv", [["a", "x"], ["b", "y"], ["a", "y"], ["b", "x"]])
    for argv in (["gsvd", "--x", xp], ["geigen", "--x", sp], ["ca", "--x", xp],
                 ["rmca", "--x", cat, "--omega", "0,1"]):
        out = tmp_path / argv[0]
        assert cli.main(argv + ["--tol", tol, "--out", str(out)]) == 2, argv
        assert "tol must be" in capsys.readouterr().err
        assert not out.exists()


def test_a_negative_k_exits_2_with_one_line_writing_nothing(tmp_path, rng, capsys):
    xp = write_matrix(tmp_path / "x.csv", rng.normal(size=(6, 3)))
    out = tmp_path / "o"
    assert cli.main(["gsvd", "--x", xp, "--k", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: k must be a nonnegative integer, got -1"]
    assert not out.exists()


def test_exit_code_bad_omega_is_usage_error(tmp_path, capsys):
    cat = [["a", "x"], ["b", "y"], ["a", "y"], ["b", "x"], ["a", "x"], ["b", "y"]]
    catp = write_csv(tmp_path / "cat.csv", cat)
    out = tmp_path / "rmca"
    for omega in ("--omega=-1", "--omega=abc", "--omega=0,-1", "--omega=", "--omega=,",
                  "--omega=inf", "--omega=0,nan", "--omega=0,0", "--omega=1e-7,1.00000001e-7"):
        assert cli.main(["rmca", "--x", catp, omega, "--out", str(out)]) == 2
        assert "--omega" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# SVG output


def test_scatter_svg_escapes_labels():
    from xml.dom import minidom
    from xml.sax.saxutils import escape

    labels = ["<r1>", "r&2", "plain"]
    assert all(cli._xml_text(s) == escape(s) for s in labels + ["a&lt;b>'\""])
    svg = cli._scatter_svg(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]), labels)
    texts = minidom.parseString(svg).getElementsByTagName("text")
    assert [t.firstChild.data for t in texts] == labels
    assert 'font-size="10">plain</text>' in svg


def test_scores_whose_range_overflows_are_plotted_at_finite_coordinates(tmp_path, capsys):
    # lw = 1e308 gives fi a column from about -9e307 to 9e307, whose max - min overflows
    xp = write_csv(tmp_path / "x.csv", [["0.9", "0.0"], ["-0.9", "0.1"]])
    lw = write_csv(tmp_path / "lw.csv", [["1e308"], ["1e308"]])
    out = tmp_path / "o"
    assert cli.main(["gsvd", "--x", xp, "--lw", lw, "--plot", "--out", str(out)]) == 0
    assert "warning:" not in capsys.readouterr().err
    svgs = sorted(out.glob("*.svg"))
    assert [p.name for p in svgs] == ["scores_fi.svg", "scores_fj.svg", "scree.svg"]
    for path in svgs:
        values = re.findall(r' (?:c?[xy]|x[12]|y[12]|width|height)="([^"]*)"', path.read_text())
        assert values and all(np.isfinite(float(v)) for v in values), path.name
