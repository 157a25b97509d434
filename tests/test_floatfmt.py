"""`_floatfmt.write_rows` against `repr`, and the memory it takes.

The formatter computes each value's shortest round-trip digits with integer
arithmetic on whole arrays and lays out the bytes itself; `repr` is the
reference it must match byte for byte, on random bit patterns and on every
edge of its layout.
"""

import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from gmdecomp import _floatfmt, cli

SRC = Path(__file__).resolve().parent.parent / "src"


def formatted(values, heads=None):
    fh = io.BytesIO()
    _floatfmt.write_rows(fh, values, heads)
    return fh.getvalue()


def assert_reprs(values):
    """Each value of the 1-d array on its own line, as repr writes it (a list's str is the
    reprs of its floats joined by ", ")."""
    want = (str(values.tolist())[1:-1].replace(", ", "\r\n") + "\r\n").encode()
    got = formatted(values[:, None])
    if got != want:
        bad = next(v for v, a, b in zip(values.tolist(), want.split(b"\r\n"), got.split(b"\r\n"))
                   if a != b)
        raise AssertionError(f"{bad!r} written as {formatted(np.array([[bad]]))!r}")


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(18).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    assert_reprs(bits.view(np.float64))  # both signs, every exponent, subnormals, nan payloads


def test_layout_edges_match_repr():
    edges = [0.0, 5e-324, 1e-323, 1.5e-323, 2.2250738585072014e-308, 1e-05, 0.0001, 1e16,
             1e15, 1000000000000000.0, 9999999999999998.0, 1e100, 1e-100, 1.2345e-300, 1e308,
             1e-7, 123456.0, 0.5, 1 / 3, 2 / 3, 0.1]
    # 1- to 17-digit significands at decimal exponents across the fixed/exponent switch
    digits = [int("12345678901234567"[:n]) for n in range(1, 18)]
    edges += [float(f"{m}e{e}") for m in digits for e in range(-25, 25)]
    # every power-of-two binade boundary, where the lower neighbour is closer, and both
    # neighbours of each; powers of ten and their neighbours
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    pow10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
    values = np.concatenate([edges, pow2, pow10])
    values = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, 0),
                             [np.finfo(np.float64).max, np.inf]])
    assert_reprs(np.concatenate([values, -values, [np.nan, -np.nan]]))


def test_rows_join_cells_and_follow_their_heads():
    values = np.random.default_rng(3).normal(size=(1000, 7)) * 10.0 ** np.arange(-9, 12, 3)
    heads = [f"r{i},".encode() for i in range(1000)]
    want = "".join(f"r{i}," + ",".join(map(repr, row)) + "\r\n"
                   for i, row in enumerate(values.tolist())).encode()
    assert formatted(values, heads) == want
    assert formatted(np.zeros((2, 0)), [b"a", b'""']) == b'a\r\n""\r\n'
    assert formatted(np.zeros((0, 3))) == b""


def test_writing_a_large_field_stays_within_4_mb_of_its_array(tmp_path):
    value = np.random.default_rng(20).normal(size=(20000, 20))
    labels = [f"row{i}" for i in range(20000)]
    cli._write_csv(tmp_path / "warm.csv", value[:2], labels[:2])  # build the lazy tables
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "fi.csv", value, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak  # traced bytes above the 3.2 MB array
    assert (tmp_path / "fi.csv").stat().st_size > 20000 * 20 * 10


def test_importing_the_cli_builds_no_table():
    code = ("import gmdecomp.cli\nfrom gmdecomp import _floatfmt\n"
            "assert _floatfmt._tables.cache_info().currsize == 0")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
