"""Command-line front end.

Every subcommand is one entry of ``COMMANDS``: its input kind (numeric, or
categorical and coded once into a disjunctive table), whether it takes a
second table ``--y``, its constraint flags, its extra flags, and the recipe
call. One run path loads the CSV inputs, makes the call, and writes each
result as one CSV per populated field, optional static SVG scree/score
plots, and last a summary.json that lists them; ``rmca`` with several
``--omega`` values writes one ``omega_<value>/`` directory per value.

Exit codes: 0 success, 2 usage error, 3 data/validation error, 4 numerical
failure. Warnings and errors are printed to stderr one line each, as
``warning: <message>`` and ``error: <message>``, the warnings first.
"""

import argparse
import csv
import json
import os
import shutil
import sys
import warnings
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import _floatfmt, recipes
from .decomp import GPLSSVD, DecompositionResult, geigen, gplssvd, gsvd
from .decomp import cpu_count as _cpu_count
from .errors import (
    GmdError,
    InvalidArgumentError,
    NumericalError,
    ParseError,
    RaggedRowsError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# Cells per writer process, of 2 at most: 10 000 take about 5 ms to format and a fork 2.5 ms;
# 2 processes wrote a ca result faster from about 5 500 cells up, 1 below 4 100 (2 vCPUs).
_CELLS_PER_PROCESS = 3_000


@dataclass
class LabeledMatrix:
    """A dense matrix plus optional row/column labels from a CSV file."""

    values: np.ndarray
    row_labels: list = None
    col_labels: list = None


def load_categorical_csv(path, has_header=False, has_rownames=False):
    """Read a CSV file as (rows of strings, row labels, column labels), the
    first row/column consumed as labels when flagged."""
    return _read_csv(path, has_header, has_rownames)[:3]


def _read_csv(path, has_header, has_rownames):
    """:func:`load_categorical_csv`'s result and the line of the file each row ends on, blank
    lines counted though their rows are skipped. Every loader reads its rows here."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            numbered = [(reader.line_num, row) for row in reader if row]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # such as a cell longer than csv.field_size_limit()
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not numbered:
        raise ParseError(f"{path}: file is empty")
    lines, rows = [n for n, _ in numbered], [row for _, row in numbered]
    col_labels = None
    if has_header:
        header = rows.pop(0)
        del lines[0]
        if not rows:
            raise ParseError(f"{path}: no data rows below the header")
        if len(header) != len(rows[0]):
            raise RaggedRowsError(f"{path}: the header has {len(header)} values, "
                                  f"line {lines[0]} has {len(rows[0])}")
        col_labels = header[1:] if has_rownames else header
    row_labels = [row.pop(0) for row in rows] if has_rownames else None
    return rows, row_labels, col_labels, lines


def load_matrix_csv(path, has_header=False, has_rownames=False):
    """Read a CSV file into a LabeledMatrix.

    The first row/column is consumed as labels when flagged. Numeric parse
    failures report the (row, column) coordinates of the offending cell.
    """
    rows, row_labels, col_labels, lines = _read_csv(path, has_header, has_rownames)
    width = len(rows[0])
    data = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRowsError(
                f"{path}: line {lines[i]} has {len(row)} values, expected {width}")
        try:
            data.append(list(map(float, row)))
        except ValueError:  # find the cell float rejects, to name it
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(f"{path}: cannot parse {cell!r} at row {i + 1}, "
                                     f"column {j + 1}") from None
    return LabeledMatrix(np.asarray(data, dtype=np.float64), row_labels, col_labels)


def load_constraint_csv(path):
    """Load a constraint from a plain numeric CSV file (no labels); a
    single-column file becomes a diagonal vector."""
    mat = load_matrix_csv(path)
    if mat.values.shape[1] == 1 and mat.values.shape[0] != 1:
        return mat.values[:, 0]
    return mat.values


def _write_csv(path, value, row_labels=None):
    """Write a result field: a vector one value a line, a matrix under a
    comp_1..comp_k header, each row after its label when labels are given.
    The bytes are csv.writer's: CRLF line ends, csv quoting for the header
    and labels, and each float as its repr, the shortest decimal that
    round-trips, which `_floatfmt` formats a chunk of cells at a time; a
    repr never needs quoting, so numbers are joined directly."""
    csv_line = csv.writer(SimpleNamespace(write=str)).writerow  # returns the line
    heads = None
    with open(path, "wb") as fh:
        if value.ndim == 2:
            header = [f"comp_{j + 1}" for j in range(value.shape[1])]
            if row_labels is not None:
                # "label," before the numbers; with none, the label is a
                # one-field row, where csv writes an empty label as "".
                tail = [""] if value.shape[1] else []
                heads = [csv_line([label] + tail)[:-2].encode() for label in row_labels]
                header = [""] + header
            fh.write(csv_line(header).encode())
        _floatfmt.write_rows(fh, value if value.ndim == 2 else value[:, None], heads)


def _field_labels(result, xm, ym):
    """Row labels of each matrix field: the rows and columns of x for one
    table; the columns of x and of y, and the shared rows, for two."""
    if result.method == GPLSSVD:
        first, second = xm.col_labels, ym.col_labels
    else:
        first, second = xm.row_labels, xm.col_labels
    return dict(u=first, p=first, fi=first, v=second, q=second, fj=second,
                lx=xm.row_labels, ly=ym.row_labels)


def _write_whole(path, write, *args):
    """Write `path` as `write(tmp, *args)`, renamed to `path` once whole. The old `path` is
    unlinked first: a rename over a file that had itself replaced one took 57-91 ms (ext4,
    2 vCPUs), an unlink and a rename 0.03 ms. A process killed between the two leaves no
    `path`. The wait was most likely ext4's auto_da_alloc writing the new file's data out
    before such a rename; nothing is fsynced, so after a power loss `path`, even one that
    summary.json lists, may be missing, empty or cut short."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp, *args)
        path.unlink(missing_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _copy(tmp, source):
    shutil.copyfile(source, tmp)


def _write_all(files):
    """Write each (paths, write, *args) entry's first path as `write(tmp, *args)` and the others
    as copies of it."""
    for (path, *copies), write, *args in files:
        _write_whole(path, write, *args)
        for other in copies:
            _write_whole(other, _copy, path)


def _write_files(csvs, plots):
    """Write (paths, write, *args) files as :func:`_write_all` does: the CSVs, whose first arg is
    the value, then the plots. With 2 CPUs and 2 shares' worth of cells, the CSVs are dealt longest
    first to the share with fewer cells, and a forked child writes the larger share while this
    process writes the other and then the plots; the child's error is raised here."""
    def cells(share):
        return sum(f[2].size for f in share)

    shares = [[], []]
    for f in sorted(csvs, key=lambda f: -f[2].size):
        min(shares, key=cells).append(f)
    small, large = sorted(shares, key=cells)
    if not (hasattr(os, "fork") and _cpu_count() > 1 and cells(csvs) >= 2 * _CELLS_PER_PROCESS):
        return _write_all(csvs + plots)
    (read, write), pid = os.pipe(), None
    try:
        pid = os.fork()
        if pid == 0:
            try:  # the child only formats and writes, and ends in os._exit
                _write_all(large)
                os._exit(0)
            except BaseException as exc:
                os.write(write, str(exc).encode(errors="replace"))
            finally:
                os._exit(1)
        _write_all(small + plots)
    finally:
        os.close(write)
        with open(read, "rb") as fh:
            message = fh.read().decode(errors="replace")
        status = pid and os.waitpid(pid, 0)[1]
    if status:
        raise OSError(message or f"writer process {pid} failed")


def write_result(result, outdir, labels=None, command_line=None, n_rows=None, n_cols=None,
                 plot=False):
    """Write one CSV per populated result field, with `plot` a scree.svg and, when >= 2
    components, score scatter plots, and last a summary.json.

    `labels` maps a field name to the row labels of its CSV and plot. The
    summary records the tolerance the decomposition used ("off" when
    disabled) and the names of the other files written. Each file appears
    whole; with 2 CPUs, 2 processes write a large result, and the summary
    is written once both are done. Fields that are one array (the same data,
    shape and strides, as d and d_full at k = 0) and have the same labels are
    formatted once, into the first one's file; the others are copies of it.
    """
    outdir, labels = Path(outdir), labels or {}
    outdir.mkdir(parents=True, exist_ok=True)
    fields, groups = result.fields(), {}
    for name, value in fields.items():
        rows = labels.get(name)
        key = (value.__array_interface__["data"][0], value.shape, value.strides, value.dtype,
               rows if rows is None else tuple(rows))
        groups.setdefault(key, [[], _write_csv, value, rows])[0].append(outdir / f"{name}.csv")
    csvs = list(groups.values())
    plots = [([outdir / "scree.svg"], _write_svg, _scree_svg, list(result.l_full))] if plot else []
    if plot and result.n_retained >= 2:
        plots += [([outdir / f"scores_{name}.svg"], _write_svg, _scatter_svg, fields[name][:, :2],
                   labels.get(name)) for name in ("fi", "fj") if name in fields]
    _write_files(csvs, plots)
    summary = dict(method=result.method, n_rows=n_rows, n_cols=n_cols, command_line=command_line,
                   n_total_components=result.n_total_components, n_retained=result.n_retained,
                   tol="off" if result.tol is None else float(result.tol),
                   files=sorted(path.name for paths, *_ in csvs + plots for path in paths))
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    _write_whole(outdir / "summary.json", Path.write_text, text, "utf-8")


# ---------------------------------------------------------------------------
# minimal static SVG output


def _svg_document(width, height, body):
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n' + body + "</svg>\n"
    )


def _scree_svg(l_full):
    width, height, pad = 480, 320, 40
    n = len(l_full)
    body = [f'<rect width="{width}" height="{height}" fill="white"/>\n']
    if n:
        top = max(max(l_full), 1e-300)
        bar_w = (width - 2 * pad) / n
        for i, val in enumerate(l_full):
            h = max(val, 0.0) / top * (height - 2 * pad)
            x = pad + i * bar_w
            y = height - pad - h
            body.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w * 0.8:.2f}" '
                f'height="{h:.2f}" fill="steelblue"/>\n'
            )
    body.append(
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>\n'
    )
    return _svg_document(width, height, "".join(body))


def _xml_text(label):
    # What xml.sax.saxutils.escape does, without importing urllib.request.
    return str(label).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _scatter_svg(scores, labels=None):
    width, height, pad = 480, 480, 40
    # halved, so that no difference overflows: halving is exact for normal values, so the
    # ratios below, and the floor (half of 1e-300), are those of the scores as they are
    xs, ys = scores[:, 0] / 2, scores[:, 1] / 2
    x0, y0 = xs.min(), ys.min()
    span_x = max(xs.max() - x0, 5e-301)
    span_y = max(ys.max() - y0, 5e-301)
    body = [f'<rect width="{width}" height="{height}" fill="white"/>\n']
    pxs = (pad + (xs - x0) / span_x * (width - 2 * pad)).tolist()
    pys = (height - pad - (ys - y0) / span_y * (height - 2 * pad)).tolist()
    for i, (px, py) in enumerate(zip(pxs, pys)):
        body.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="firebrick"/>\n')
        if labels is not None:
            body.append(
                f'<text x="{px + 4:.2f}" y="{py - 4:.2f}" '
                f'font-size="10">{_xml_text(labels[i])}</text>\n'
            )
    return _svg_document(width, height, "".join(body))


def _write_svg(path, draw, *args):
    path.write_text(draw(*args), encoding="utf-8")


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _parse_omegas(text):
    """Parse --omega: comma-separated nonnegative finite ridge strengths, at
    least one, no two of which name the same omega_<value:g> directory."""
    try:
        omegas = [float(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        omegas = []
    if not omegas or not all(0 <= omega < np.inf for omega in omegas):
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}; use one or more nonnegative finite numbers")
    if len({f"{omega:g}" for omega in omegas}) < len(omegas):
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}; two values name the same omega_<value> directory")
    return omegas


def _tolerance(text):
    """Parse --tol: a threshold, or 'off' (None) to keep the full spectrum."""
    try:
        return None if text.lower() == "off" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}; use a number or 'off'")


@dataclass(frozen=True)
class Command:
    """One subcommand. `call(x, y, k=..., **options)` gets the loaded inputs
    (DisjunctiveTables when `categorical`; y is None without `needs_y`) and,
    by name, each constraint slot, each flag's `dest`, and `tol` when given.
    It returns a result, or (subdirectory, result) pairs for a sweep."""

    call: object
    categorical: bool = False
    needs_y: bool = False
    constraints: tuple = ()
    required: tuple = ()
    flags: tuple = ()
    tol: bool = True


_TWO_TABLE = dict(needs_y=True, flags=(
    ("--no-center", dict(dest="center", action="store_false")),
    ("--no-scale", dict(dest="scale", action="store_false")),
))


def _rmca_sweep(x, y, omega, **kw):
    for value in omega:
        try:
            result = recipes.rmca(x, value, **kw)
        except NumericalError as exc:
            raise NumericalError(f"--omega {value:g}: {exc}") from None
        yield f"omega_{value:g}" if len(omega) > 1 else "", result


# Calls name recipes and decompositions through module attributes at call
# time, so a wrapper installed on a module attribute sees every call.
COMMANDS = {
    "geigen": Command(lambda x, y, **kw: geigen(x, **kw), constraints=("w",)),
    "gsvd": Command(lambda x, y, **kw: gsvd(x, **kw), constraints=("lw", "rw")),
    "gplssvd": Command(lambda x, y, **kw: gplssvd(x, y, **kw), needs_y=True,
                       constraints=("xlw", "xrw", "ylw", "yrw")),
    "pca": Command(lambda x, y, **kw: recipes.pca(x, **kw), flags=(
        ("--route", dict(dest="route", default="eigen_cor",
                         choices=recipes.PCA_ROUTES)),)),
    "mds": Command(lambda x, y, **kw: recipes.mds(x, **kw)),
    "wmds": Command(lambda x, y, w, **kw: recipes.weighted_mds(x, w, **kw),
                    constraints=("w",), required=("w",), tol=False),
    "ca": Command(lambda x, y, **kw: recipes.ca(x, **kw)),
    "mca": Command(lambda x, y, **kw: recipes.mca(x, **kw), categorical=True),
    "rmca": Command(_rmca_sweep, categorical=True, flags=(
        ("--omega", dict(dest="omega", default="0", type=_parse_omegas,
                         help="comma-separated omega values")),)),
    "pls": Command(lambda x, y, **kw: recipes.pls(x, y, **kw), **_TWO_TABLE),
    "rrr": Command(lambda x, y, **kw: recipes.rrr(x, y, **kw), **_TWO_TABLE),
    "cca": Command(lambda x, y, **kw: recipes.cca(x, y, **kw), **_TWO_TABLE),
    "plsca": Command(lambda x, y, **kw: recipes.plsca(x, y, **kw),
                     categorical=True, needs_y=True),
}


@cache
def build_parser():
    """The argument parser, built once per process; parsing leaves no state in it."""
    parser = argparse.ArgumentParser(prog="gmdecomp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--x", required=True, help="input data matrix (CSV)")
        if cmd.needs_y:
            p.add_argument("--y", required=True, help="second data matrix (CSV)")
        for slot in cmd.constraints:
            p.add_argument(f"--{slot}", required=slot in cmd.required,
                           help=f"{slot.upper()} constraint (CSV)")
        p.add_argument("--k", type=int, default=0)
        if cmd.tol:
            p.add_argument("--tol", type=_tolerance, default=argparse.SUPPRESS,
                           help="nonnegative threshold or 'off' (default: the method's)")
        p.add_argument("--header", action="store_true",
                       help="data files start with a row of column labels")
        p.add_argument("--rownames", action="store_true",
                       help="data files start with a column of row labels "
                            "(constraint files are plain numbers)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--plot", action="store_true")
        for flag, options in cmd.flags:
            p.add_argument(flag, **options)
    return parser


def _load(path, args, categorical):
    """The recipe's input, and the matrix whose labels and shape are reported."""
    if not categorical:
        m = load_matrix_csv(path, args.header, args.rownames)
        return m.values, m
    rows, row_labels, names = load_categorical_csv(path, args.header, args.rownames)
    tab = recipes.disjunctive_coding(rows, variable_names=names)
    return tab, LabeledMatrix(tab.indicator, row_labels, list(tab.level_labels))


def _run(cmd, args, command_line):
    x, xm = _load(args.x, args, cmd.categorical)
    y, ym = None, LabeledMatrix(None)
    if cmd.needs_y:
        y, ym = _load(args.y, args, cmd.categorical)
    kw = {options["dest"]: getattr(args, options["dest"]) for _, options in cmd.flags}
    for slot in cmd.constraints:
        path = getattr(args, slot)
        kw[slot] = load_constraint_csv(path) if path else None
    if "tol" in args:
        kw["tol"] = args.tol
    out = cmd.call(x, y, k=args.k, **kw)
    # Compute every result before writing any file, so a failed run writes nothing.
    results = [("", out)] if isinstance(out, DecompositionResult) else list(out)
    for sub, result in results:
        write_result(result, Path(args.out) / sub, _field_labels(result, xm, ym), command_line,
                     *xm.values.shape, plot=args.plot)


_EXIT_CODES = (
    (InvalidArgumentError, EXIT_USAGE),
    (NumericalError, EXIT_NUMERICAL),
    ((GmdError, OSError), EXIT_DATA),
)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                _run(COMMANDS[args.command], args, "gmdecomp " + " ".join(argv))
            finally:  # one line each, like an error, and before it
                for warning in caught:
                    print(f"warning: {warning.message}", file=sys.stderr)
    except (GmdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
