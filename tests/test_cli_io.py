"""The CLI's CSV writer and loader against per-cell reference versions.

`cli._write_csv` joins the reprs of a row's floats itself and hands only the
header and the labels to csv; `cli.load_matrix_csv` parses a row with one
`map(float)` and rescans it only to name a bad cell. The references below
send every cell through csv.writer and float one at a time. The writer must
give the same bytes and the loader the same array, or the same error class
and message, on every input.
"""

import csv
import itertools
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gmdecomp import cli
from gmdecomp.decomp import gsvd
from gmdecomp.errors import GmdError, ParseError, RaggedRowsError

BOUNDED = settings(max_examples=200, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.function_scoped_fixture])


def reference_write_csv(path, value, row_labels=None):
    """Every cell through csv.writer, which writes a float as its repr."""
    if value.ndim == 1:
        rows = value[:, None].tolist()
    else:
        rows = [[f"comp_{j + 1}" for j in range(value.shape[1])]] + value.tolist()
        if row_labels is not None:
            rows = [[label] + row for label, row in zip([""] + list(row_labels), rows)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def reference_load_matrix_csv(path, has_header=False, has_rownames=False):
    """One float call per cell, naming the first cell that fails, and a ragged row by the line
    of the file it ends on, as its own csv.reader counts lines."""
    rows, row_labels, col_labels = cli.load_categorical_csv(path, has_header, has_rownames)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        lines = [reader.line_num for row in reader if row][int(has_header):]
    width = len(rows[0])
    data = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRowsError(
                f"{path}: line {lines[i]} has {len(row)} "
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
    return cli.LabeledMatrix(np.asarray(data, dtype=np.float64), row_labels, col_labels)


# ---------------------------------------------------------------------------
# writer

SPECIAL = (-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5)
FLOATS = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)
LABELS = st.text(
    alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "0", "é", "中"])
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=6,
)


@st.composite
def fields(draw):
    """(value, row labels): a vector, or an n x k matrix with or without labels."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        return np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float), None
    k = draw(st.integers(0, 3))
    cells = draw(st.lists(FLOATS, min_size=n * k, max_size=n * k))
    value = np.array(cells, dtype=float).reshape(n, k)
    labels = draw(st.none() | st.lists(LABELS, min_size=n, max_size=n))
    return value, labels


# each Hypothesis example writes new files: rewriting one file in place made each example wait
# for the filesystem
_FRESH = itertools.count()


def assert_same_bytes(tmp_path, value, labels):
    n = next(_FRESH)
    want, got = tmp_path / f"want{n}.csv", tmp_path / f"got{n}.csv"
    reference_write_csv(want, value, labels)
    cli._write_csv(got, value, labels)
    assert got.read_bytes() == want.read_bytes()


@BOUNDED
@given(field=fields())
@example(field=(np.array([]), None))
@example(field=(np.zeros((3, 0)), None))
@example(field=(np.array(SPECIAL), None))
@example(field=(np.array(SPECIAL[:6]).reshape(3, 2), ["", 'q"x', "a,b\r\nc"]))
@example(field=(np.array(SPECIAL[:4]).reshape(2, 2), [" sp ", "é中"]))
def test_writer_bytes_match_the_csv_writer_reference(tmp_path, field):
    assert_same_bytes(tmp_path, *field)


def test_zero_component_labeled_field(tmp_path):
    # what gsvd writes for a zero-component result; joining "a" with no
    # numbers would give "a," where csv gives a one-field row
    fi = gsvd(np.zeros((3, 2))).fi
    assert fi.shape == (3, 0)
    cli._write_csv(tmp_path / "fi.csv", fi, ["a", "", "b,c"])
    assert (tmp_path / "fi.csv").read_bytes() == b'""\r\na\r\n""\r\n"b,c"\r\n'


# ---------------------------------------------------------------------------
# loader

# Cells as they appear in the file: numbers in the forms float accepts,
# quoted ones, and cells it rejects.
CELLS = ("1", "-2.5", "1e5", "1_000", " nan ", "inf", "-Inf", " 3 ", "\u0661\u0662",
         '"4"', '" 7 "', "x", "", "0x10", "1e", "1__0", '"1,5"', '"a,b"')


@st.composite
def csv_files(draw):
    """File text with rows of mostly one width, maybe a ragged or blank line,
    maybe a BOM, and LF or CRLF line ends."""
    width = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 5))
    lines = []
    for _ in range(n_rows):
        w = draw(st.sampled_from([width] * 6 + [width - 1, width + 1]))
        good = st.sampled_from(CELLS[:11])
        cell = st.sampled_from(CELLS) if draw(st.integers(0, 4)) == 0 else good
        lines.append(",".join(draw(cell) for _ in range(w)))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def outcome(load, path, has_header, has_rownames):
    try:
        m = load(path, has_header, has_rownames)
    except GmdError as exc:
        return type(exc), str(exc)
    return m.values.shape, m.values.tobytes(), m.row_labels, m.col_labels


@BOUNDED
@given(text=csv_files(), has_header=st.booleans(), has_rownames=st.booleans())
@example(text="1,2\n3,x\n4\n", has_header=False, has_rownames=False)
@example(text="\ufeff1,2\n\n 3 ,1_000\n", has_header=False, has_rownames=False)
@example(text='"",a\nr," nan "\n', has_header=True, has_rownames=True)
def test_loader_matches_the_per_cell_reference(tmp_path, text, has_header, has_rownames):
    path = tmp_path / f"m{next(_FRESH)}.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (outcome(cli.load_matrix_csv, path, has_header, has_rownames)
            == outcome(reference_load_matrix_csv, path, has_header, has_rownames))


@pytest.mark.parametrize("text, message", [
    ("1,2\n3,x\n4\n", "cannot parse 'x' at row 2, column 2"),
    ("1,2\n3\n4,x\n", "line 2 has 1 values, expected 2"),
    ("1,2\n\n3,4\n5\n", "line 4 has 1 values, expected 2"),
])
def test_loader_names_the_first_fault(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(GmdError, match=re.escape(message)):
        cli.load_matrix_csv(path)


@pytest.mark.parametrize("load", [cli.load_matrix_csv, cli.load_categorical_csv],
                         ids=["matrix", "categorical"])
def test_a_cell_past_the_field_limit_is_a_parse_error_naming_its_line(tmp_path, load):
    # csv.reader refuses a cell longer than csv.field_size_limit() (131 072 characters)
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3," + "4" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}: line 2: field larger than")):
        load(path)


def test_loader_skips_a_byte_order_mark(tmp_path):
    # spreadsheet tools save CSV as UTF-8 with a leading BOM
    path = tmp_path / "m.csv"
    path.write_bytes("\ufeff1,2\n".encode("utf-8"))
    assert cli.load_matrix_csv(path).values.tolist() == [[1.0, 2.0]]
    path.write_bytes("\ufeffa,b\n1,2\n".encode("utf-8"))
    assert cli.load_matrix_csv(path, has_header=True).col_labels == ["a", "b"]
