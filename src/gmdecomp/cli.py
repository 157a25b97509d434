"""Command-line front end.

Loads matrices and constraint vectors/matrices from CSV, runs any of the
decompositions or recipes, and writes one CSV per populated result field
plus a summary.json, with optional static SVG scree/score plots.

Exit codes: 0 success, 2 usage error, 3 data/validation error, 4 numerical
failure.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernel, recipes
from .decomp import geigen, gplssvd, gsvd
from .errors import (
    GmdError,
    InvalidArgumentError,
    NumericalError,
    ParseError,
    RaggedRowsError,
    ValidationError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


@dataclass
class LabeledMatrix:
    """A dense matrix plus optional row/column labels from a CSV file."""

    values: np.ndarray
    row_labels: list = None
    col_labels: list = None


def load_matrix_csv(path, has_header=False, has_rownames=False):
    """Read a CSV file into a LabeledMatrix.

    The first row/column is consumed as labels when flagged. Numeric parse
    failures report the (row, column) coordinates of the offending cell.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ParseError(f"{path}: file is empty")
    col_labels = None
    if has_header:
        header = rows.pop(0)
        col_labels = header[1:] if has_rownames else header
        if not rows:
            raise ParseError(f"{path}: no data rows below the header")
    row_labels = [] if has_rownames else None
    data = []
    width = None
    for i, row in enumerate(rows):
        if has_rownames:
            row_labels.append(row[0])
            row = row[1:]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise RaggedRowsError(
                f"{path}: line {i + 1 + int(has_header)} has {len(row)} "
                f"values, expected {width}"
            )
        parsed = []
        for j, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: cannot parse {cell!r} at row {i + 1}, column {j + 1}"
                ) from None
        data.append(parsed)
    return LabeledMatrix(
        values=np.asarray(data, dtype=np.float64),
        row_labels=row_labels,
        col_labels=col_labels,
    )


def load_categorical_csv(path, has_header=False, has_rownames=False):
    """Read a CSV of categorical values as a list of string rows, plus labels."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ParseError(f"{path}: file is empty")
    col_labels = None
    if has_header:
        header = rows.pop(0)
        col_labels = header[1:] if has_rownames else header
    row_labels = [] if has_rownames else None
    data = []
    for row in rows:
        if has_rownames:
            row_labels.append(row[0])
            row = row[1:]
        data.append(row)
    return data, row_labels, col_labels


def load_constraint_csv(path, has_header=False, has_rownames=False):
    """Load a constraint; a single-column file becomes a diagonal vector."""
    mat = load_matrix_csv(path, has_header=has_header, has_rownames=has_rownames)
    if mat.values.shape[1] == 1 and mat.values.shape[0] != 1:
        return mat.values[:, 0]
    return mat.values


def _fmt(x):
    # repr of a Python float is the shortest decimal that round-trips.
    return repr(float(x))


def _write_vector_csv(path, vec):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for x in vec:
            writer.writerow([_fmt(x)])


def _write_matrix_csv(path, mat, row_labels=None):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [f"comp_{j + 1}" for j in range(mat.shape[1])]
        if row_labels is not None:
            writer.writerow([""] + header)
            for label, row in zip(row_labels, mat):
                writer.writerow([label] + [_fmt(x) for x in row])
        else:
            writer.writerow(header)
            for row in mat:
                writer.writerow([_fmt(x) for x in row])


# Which label set annotates each matrix field: row labels of x/y or column
# labels of x/y.
_LABEL_SOURCE = {
    "u": "xrow_or_xcol",
    "p": "xrow_or_xcol",
    "fi": "xrow_or_xcol",
    "v": "ycol_or_xcol",
    "q": "ycol_or_xcol",
    "fj": "ycol_or_xcol",
    "lx": "xrow",
    "ly": "yrow",
}


def write_result(result, outdir, x_row_labels=None, x_col_labels=None,
                 y_row_labels=None, y_col_labels=None, tol="default",
                 command_line=None, n_rows=None, n_cols=None):
    """Write one CSV per populated result field and a summary.json."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    two_table = result.method == "gplssvd"
    for name, value in result.fields().items():
        path = outdir / f"{name}.csv"
        if value.ndim == 1:
            _write_vector_csv(path, value)
            continue
        source = _LABEL_SOURCE.get(name)
        if source == "xrow_or_xcol":
            labels = x_col_labels if two_table else x_row_labels
        elif source == "ycol_or_xcol":
            labels = y_col_labels if two_table else x_col_labels
        elif source == "xrow":
            labels = x_row_labels
        elif source == "yrow":
            labels = y_row_labels
        else:
            labels = None
        _write_matrix_csv(path, value, row_labels=labels)
    summary = {
        "method": result.method,
        "n_rows": n_rows,
        "n_cols": n_cols,
        "n_total_components": result.n_total_components,
        "n_retained": result.n_retained,
        "tol": tol if isinstance(tol, str) or tol is None else float(tol),
        "command_line": command_line,
    }
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    xs, ys = scores[:, 0], scores[:, 1]
    span_x = max(xs.max() - xs.min(), 1e-300)
    span_y = max(ys.max() - ys.min(), 1e-300)
    body = [f'<rect width="{width}" height="{height}" fill="white"/>\n']
    for i in range(scores.shape[0]):
        px = pad + (xs[i] - xs.min()) / span_x * (width - 2 * pad)
        py = height - pad - (ys[i] - ys.min()) / span_y * (height - 2 * pad)
        body.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="firebrick"/>\n')
        if labels is not None:
            body.append(
                f'<text x="{px + 4:.2f}" y="{py - 4:.2f}" '
                f'font-size="10">{_xml_text(labels[i])}</text>\n'
            )
    return _svg_document(width, height, "".join(body))


def emit_plots(result, outdir, fi_labels=None, fj_labels=None):
    """Write scree.svg and, when >= 2 components, score scatter plots."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "scree.svg").write_text(_scree_svg(list(result.l_full)), encoding="utf-8")
    if result.n_retained >= 2:
        if result.fi is not None:
            (outdir / "scores_fi.svg").write_text(
                _scatter_svg(result.fi[:, :2], fi_labels), encoding="utf-8"
            )
        if result.fj is not None:
            (outdir / "scores_fj.svg").write_text(
                _scatter_svg(result.fj[:, :2], fj_labels), encoding="utf-8"
            )


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _parse_omegas(text):
    """Parse --omega: comma-separated nonnegative ridge strengths."""
    try:
        omegas = [float(s) for s in text.split(",") if s.strip() != ""]
        if all(omega >= 0 for omega in omegas):
            return omegas
    except ValueError:
        pass
    raise InvalidArgumentError(f"invalid --omega {text!r}; use nonnegative numbers")


def _parse_tol(text, default):
    if text is None:
        return default
    if text.lower() == "off":
        return None
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"invalid --tol value {text!r}; use a number or 'off'") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser():
    parser = _Parser(prog="gmdecomp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, needs_y=False, constraint_flags=(), extra=None):
        p = sub.add_parser(name)
        p.add_argument("--x", required=True, help="input data matrix (CSV)")
        if needs_y:
            p.add_argument("--y", required=True, help="second data matrix (CSV)")
        for flag in constraint_flags:
            p.add_argument(f"--{flag}", help=f"{flag.upper()} constraint (CSV)")
        p.add_argument("--k", type=int, default=0)
        p.add_argument("--tol", default=None, help="threshold value or 'off'")
        p.add_argument("--header", action="store_true")
        p.add_argument("--rownames", action="store_true")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--plot", action="store_true")
        if extra:
            extra(p)
        return p

    add("geigen", constraint_flags=("w",))
    add("gsvd", constraint_flags=("lw", "rw"))
    add("gplssvd", needs_y=True, constraint_flags=("xlw", "xrw", "ylw", "yrw"))

    def pca_extra(p):
        p.add_argument("--route", default="eigen_cor", choices=recipes.PCA_ROUTES)

    add("pca", extra=pca_extra)
    add("mds")

    def wmds_extra(p):
        p.add_argument("--w", required=True, help="row weights vector (CSV)")

    add("wmds", extra=wmds_extra)
    add("ca")
    add("mca")

    def rmca_extra(p):
        p.add_argument("--omega", default="0", help="comma-separated omega values")

    add("rmca", extra=rmca_extra)

    def cs_extra(p):
        p.add_argument("--no-center", dest="center", action="store_false")
        p.add_argument("--no-scale", dest="scale", action="store_false")

    add("pls", needs_y=True, extra=cs_extra)
    add("rrr", needs_y=True, extra=cs_extra)
    add("cca", needs_y=True, extra=cs_extra)
    add("plsca", needs_y=True)
    return parser


def _run_command(args, command_line):
    load = lambda path: load_matrix_csv(path, args.header, args.rownames)
    load_c = lambda path: (
        load_constraint_csv(path, args.header, args.rownames) if path else None
    )
    cmd = args.command
    eigen_default = kernel.SQRT_EPS
    svd_default = kernel.EPS

    if cmd in ("mca", "plsca"):
        cat_x, xrl, xcl = load_categorical_csv(args.x, args.header, args.rownames)
        if cmd == "mca":
            tol = _parse_tol(args.tol, svd_default)
            tab = recipes.disjunctive_coding(cat_x, variable_names=xcl)
            result = recipes.ca(tab.indicator, k=args.k, tol=tol)
            return result, dict(
                x_row_labels=xrl,
                x_col_labels=list(tab.level_labels),
                tol=tol,
                n_rows=tab.indicator.shape[0],
                n_cols=tab.indicator.shape[1],
            )
        cat_y, yrl, ycl = load_categorical_csv(args.y, args.header, args.rownames)
        tol = _parse_tol(args.tol, svd_default)
        tab_x = recipes.disjunctive_coding(cat_x, variable_names=xcl)
        tab_y = recipes.disjunctive_coding(cat_y, variable_names=ycl)
        result = recipes.plsca(cat_x, cat_y, k=args.k, tol=tol,
                               x_variable_names=xcl, y_variable_names=ycl)
        return result, dict(
            x_row_labels=xrl,
            x_col_labels=list(tab_x.level_labels),
            y_row_labels=yrl,
            y_col_labels=list(tab_y.level_labels),
            tol=tol,
            n_rows=tab_x.indicator.shape[0],
            n_cols=tab_x.indicator.shape[1],
        )

    x = load(args.x)
    labels = dict(
        x_row_labels=x.row_labels,
        x_col_labels=x.col_labels,
        n_rows=x.values.shape[0],
        n_cols=x.values.shape[1],
    )

    if cmd == "geigen":
        tol = _parse_tol(args.tol, eigen_default)
        result = geigen(x.values, w=load_c(args.w), k=args.k, tol=tol)
    elif cmd == "gsvd":
        tol = _parse_tol(args.tol, svd_default)
        result = gsvd(x.values, lw=load_c(args.lw), rw=load_c(args.rw),
                      k=args.k, tol=tol)
    elif cmd == "gplssvd":
        y = load(args.y)
        labels.update(y_row_labels=y.row_labels, y_col_labels=y.col_labels)
        tol = _parse_tol(args.tol, svd_default)
        result = gplssvd(x.values, y.values, xlw=load_c(args.xlw),
                         xrw=load_c(args.xrw), ylw=load_c(args.ylw),
                         yrw=load_c(args.yrw), k=args.k, tol=tol)
    elif cmd == "pca":
        default = eigen_default if args.route.startswith("eigen") else svd_default
        tol = _parse_tol(args.tol, default)
        result = recipes.pca(x.values, route=args.route, k=args.k, tol=tol)
    elif cmd == "mds":
        tol = _parse_tol(args.tol, eigen_default)
        result = recipes.mds(x.values, k=args.k, tol=tol)
    elif cmd == "wmds":
        w = load_constraint_csv(args.w, args.header, args.rownames)
        tol = None
        result = recipes.weighted_mds(x.values, np.atleast_1d(w), k=args.k)
    elif cmd == "ca":
        tol = _parse_tol(args.tol, svd_default)
        result = recipes.ca(x.values, k=args.k, tol=tol)
    elif cmd in ("pls", "rrr", "cca"):
        y = load(args.y)
        labels.update(y_row_labels=y.row_labels, y_col_labels=y.col_labels)
        tol = _parse_tol(args.tol, svd_default)
        fn = getattr(recipes, cmd)
        result = fn(x.values, y.values, k=args.k, tol=tol,
                    center=args.center, scale=args.scale)
    else:  # pragma: no cover - parser restricts commands
        raise ParseError(f"unknown command {cmd}")
    labels["tol"] = tol
    return result, labels


def _run_rmca(args, command_line):
    cat, row_labels, col_labels = load_categorical_csv(
        args.x, args.header, args.rownames
    )
    tol = _parse_tol(args.tol, kernel.EPS)
    tab = recipes.disjunctive_coding(cat, variable_names=col_labels)
    omegas = _parse_omegas(args.omega)
    multi = len(omegas) > 1
    for omega in omegas:
        result = recipes.rmca(tab, omega, k=args.k, tol=tol)
        outdir = Path(args.out)
        if multi:
            outdir = outdir / f"omega_{omega:g}"
        write_result(
            result,
            outdir,
            x_row_labels=row_labels,
            x_col_labels=list(tab.level_labels),
            tol=tol,
            command_line=command_line,
            n_rows=tab.indicator.shape[0],
            n_cols=tab.indicator.shape[1],
        )
        if args.plot:
            emit_plots(result, outdir, fi_labels=row_labels,
                       fj_labels=list(tab.level_labels))
    return EXIT_OK


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    command_line = "gmdecomp " + " ".join(argv)
    try:
        if args.command == "rmca":
            return _run_rmca(args, command_line)
        result, info = _run_command(args, command_line)
        tol = info.pop("tol", "default")
        fi_labels = info.get("x_row_labels")
        fj_labels = info.get("y_col_labels") or info.get("x_col_labels")
        if result.method == "gplssvd":
            fi_labels = info.get("x_col_labels")
        write_result(result, args.out, tol="off" if tol is None else tol,
                     command_line=command_line, **info)
        if args.plot:
            emit_plots(result, args.out, fi_labels=fi_labels, fj_labels=fj_labels)
        return EXIT_OK
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except GmdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
