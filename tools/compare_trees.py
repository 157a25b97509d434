"""Compare the outputs of two gmdecomp source trees on one seeded corpus.

    python tools/compare_trees.py BASE HEAD [--blas pinned|default] [--cases REGEX]

BASE and HEAD are directories that each hold ``src/gmdecomp``, for example one
made by ``git archive <rev> src | tar -x -C BASE``. Each tree runs the same
corpus in a subprocess of its own, which imports that tree's ``src/`` only:

- geigen, gsvd and gplssvd with dense metrics: the dense-metrics benchmark
  calls, a k-run, a singular metric, small frames, gplssvd with dense row
  metrics and with row and column metrics of mixed kinds, and, above the
  overlap floor, singular and ill-conditioned metrics that take no frame and
  gsvd with identity, diagonal and dense slots mixed;
- a gsvd and a geigen with a dense metric at each condition number 1e1-1e7;
- dense metrics off exact symmetry within the symmetry tolerance, as gsvd's lw,
  geigen's w and gplssvd's xlw and xrw, below and above the overlap floor;
- geigen of an x off exact symmetry by 1e-13 under an identity, a diagonal and a dense w,
  below and above the overlap floor (geigen-near-symmetric-x-small and -large, and their
  -diagonal-w and -dense-w cases);
- the overflow range: rrr and cca with unscaled Gram matrices above DBL_MAX / 2,
  and gsvd's lw (with the tolerance off) and geigen's w with entries above
  DBL_MAX / 2 and a finite spectrum, exactly symmetric and not, below and
  above the overlap floor;
- geigen with a diagonal metric, below and above the overlap floor; pls, rrr
  and cca, scaled, on data whose variances underflow; and gsvd with a
  well-conditioned lw near 2^1000, which keeps its frame (the case
  gsvd-overflowing-bound-lw-large is named for an earlier frame bound, whose
  column sums of squares overflowed at that scale);
- every recipe, the four pca routes and rmca at omega 0, 1, 5 and 25;
- the routes whose answer does not depend on the data's scale (pca's eigen_cor and
  triplet_scaled, and pls, rrr and cca with their default scaling) on data at 2^540, 2^-540,
  2^1000 and 2^-1000, where every case is an answer only where inputs are normalized at entry;
- gplssvd on tables whose rows near 2^600 never meet, and gsvd with an lw that weighs 0 at
  x's rows near 2^600, where the matrix to decompose is formed from the rows near 1;
- rmca at omega = DBL_MAX on a numeric table and on a disjunctive one, rmca on a hand-built
  DisjunctiveTable whose indicator is a list, and weighted MDS with masses near 1e200, whose
  matrix overflows; rmca at omega = 1e-300, whose Gram matrix holds subnormal products;
- every CLI command on small inputs; ``ca --k 2``, whose ``d`` is a prefix of ``d_full``, not
  the same array, and ``gsvd`` with no ``--lw`` or ``--rw``, whose ``u`` is ``p`` and ``v`` is
  ``q``, so that the writer formats one file and copies it to the other; and ``ca`` on a table
  large enough for two writer processes; ``geigen`` on an x off exact symmetry by 1e-13
  (``geigen-near-symmetric-x``); each without and with ``--plot``.

``--blas pinned`` (the default) sets OPENBLAS_NUM_THREADS and OMP_NUM_THREADS
to 1 in both subprocesses, as the benchmark does; ``--blas default`` unsets
them. ``--cases`` keeps the cases whose name the regular expression matches.

Each array field is reported "identical" or by its largest deviation relative
to the field's largest entry, after the columns of HEAD's are given the signs
of BASE's. A case whose fields are all identical is reported "empty" instead
when it kept no component in either tree, and the summary counts such cases.
Each CLI file, the exit code and stderr are reported "identical" or "differs",
and a failed call by its error's type and message. The exit status is 0 when
every field and file is identical and 1 otherwise.
"""

import argparse
import contextlib
import csv
import io
import os
import pickle
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np


def _spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T / n + 0.5 * np.eye(n)


def _ranked(rng, n, rank):
    """A dense PSD metric of the given rank."""
    a = rng.normal(size=(n, rank))
    return a @ a.T / rank


def _conditioned(rng, n, cond):
    """A dense SPD metric whose eigenvalues span `cond`, exactly symmetric."""
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    m = (q * np.logspace(0, -np.log10(cond), n)) @ q.T
    return (m + m.T) / 2


def _nearly_symmetric(rng, n):
    """A dense SPD metric off exact symmetry by 1e-13 (p - p'), inside SYMMETRY_RTOL."""
    p = rng.normal(size=(n, n))
    return _spd(rng, n) + 1e-13 * (p - p.T)


def _huge(rng, n, off=0.0, exponent=1024):
    """A dense SPD metric with entries above DBL_MAX / 2, where w + w' overflows, and a finite
    spectrum: 2^1024 (0.6 I + 0.3 S), S symmetric with a zero diagonal and rows summing to at
    most 1 in magnitude, has eigenvalues in 2^1024 [0.3, 0.9]; plus 2^1024 off (p - p'). Another
    `exponent` replaces 1024."""
    s = np.triu(rng.normal(size=(n, n)), 1)
    s += s.T
    m = 0.6 * np.eye(n) + 0.3 * s / np.abs(s).sum(axis=1).max()
    if off:
        p = rng.normal(size=(n, n))
        m += off * (p - p.T)
    return np.ldexp(m, exponent)


def _distances(rng, n):
    pts = rng.normal(size=(n, 3))
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))


def _categories(rng, n, levels):
    """A categorical table in which every level of every variable appears."""
    return [[f"L{i % k + 1 if i < k else rng.integers(1, k + 1)}" for k in levels]
            for i in range(n)]


def _calls():
    """name -> zero-argument call returning a DecompositionResult, on seeded inputs."""
    from gmdecomp import decomp, recipes

    rng = np.random.default_rng(2022)
    b = rng.normal(size=(300, 200))
    dm = dict(x=rng.normal(size=(300, 200)), lw=_spd(rng, 300), rw=_spd(rng, 200),
              s=b.T @ b / 300, w=_spd(rng, 200), px=rng.normal(size=(300, 100)),
              py=rng.normal(size=(300, 100)), xrw=_spd(rng, 100), yrw=_spd(rng, 100))
    x, y, s = rng.normal(size=(30, 7)), rng.normal(size=(30, 5)), _spd(rng, 7)
    lw, rw, yrw, w = _spd(rng, 30), _spd(rng, 7), _spd(rng, 5), _spd(rng, 7)
    basis = rng.normal(size=(30, 4))
    cx, cs = rng.normal(size=(60, 40)), _spd(rng, 40)
    counts = rng.poisson(5.0, size=(20, 6)) + 1.0
    table = recipes.disjunctive_coding(_categories(rng, 60, (3, 4, 5)))
    table_y = recipes.disjunctive_coding(_categories(rng, 60, (2, 3)))
    data, dist = rng.normal(size=(40, 6)), _distances(rng, 25)
    calls = {
        "dense-metrics-gsvd": lambda: decomp.gsvd(dm["x"], lw=dm["lw"], rw=dm["rw"]),
        "dense-metrics-geigen": lambda: decomp.geigen(dm["s"], w=dm["w"]),
        "dense-metrics-gplssvd": lambda: decomp.gplssvd(dm["px"], dm["py"], xrw=dm["xrw"],
                                                        yrw=dm["yrw"]),
        "gsvd-k3": lambda: decomp.gsvd(x, lw=lw, rw=rw, k=3),
        "gsvd-singular-lw": lambda: decomp.gsvd(x, lw=basis @ basis.T, rw=rw),
        "gsvd-small": lambda: decomp.gsvd(x, lw=lw, rw=rw),
        "gsvd-small-rw": lambda: decomp.gsvd(x, rw=rw),
        "geigen-small": lambda: decomp.geigen(s, w=w),
        "gplssvd-small": lambda: decomp.gplssvd(x, y, xrw=rw, yrw=yrw),
        "gplssvd-dense-rows": lambda: decomp.gplssvd(x, y, xlw=lw, xrw=rw, ylw=lw, yrw=yrw),
        "gplssvd-diagonal": lambda: decomp.gplssvd(x, y, xlw=np.abs(x[:, 0]) + 0.5, yrw=yrw),
        "mds": lambda: recipes.mds(dist),
        "weighted_mds": lambda: recipes.weighted_mds(dist, np.linspace(0.5, 2.0, 25)),
        "ca": lambda: recipes.ca(counts),
        "mca": lambda: recipes.mca(table),
        "pls": lambda: recipes.pls(x, y),
        "rrr": lambda: recipes.rrr(x, y),
        "cca": lambda: recipes.cca(x, y),
        "plsca": lambda: recipes.plsca(table, table_y),
    }
    for route in recipes.PCA_ROUTES:
        calls[f"pca-{route}"] = lambda route=route: recipes.pca(data, route=route)
    for omega in (0, 1, 5, 25):
        calls[f"rmca-omega-{omega}"] = lambda omega=omega: recipes.rmca(table, omega)

    def sweep(conds):
        for cond in conds:
            m = _conditioned(rng, 60, cond)
            calls[f"gsvd-cond-{cond:g}"] = lambda m=m: decomp.gsvd(cx, lw=m, rw=cs)
            calls[f"geigen-cond-{cond:g}"] = lambda m=m: decomp.geigen(cs, w=m[:40, :40])

    sweep((1e1, 1e2, 1e3, 1e4, 1e5))
    # gplssvd with row and column metrics of mixed kinds, drawn after the cases above
    xd, yd = rng.uniform(0.5, 2.0, 7), rng.uniform(0.5, 2.0, 5)
    rows = rng.uniform(0.5, 2.0, 30)
    bx, by = rng.normal(size=(150, 120)), rng.normal(size=(150, 110))
    big = [_spd(rng, n) for n in (150, 120, 150, 110)]
    calls.update({
        "gplssvd-one-dense-row": lambda: decomp.gplssvd(x, y, xlw=lw, xrw=rw, yrw=yrw),
        "gplssvd-dense-rows-diagonal-columns": lambda: decomp.gplssvd(
            x, y, xlw=lw, xrw=xd, ylw=lw, yrw=yd),
        "gplssvd-diagonal-rows-dense-columns": lambda: decomp.gplssvd(
            x, y, xlw=rows, xrw=rw, ylw=rows[::-1], yrw=yrw),
        "gplssvd-singular-xlw": lambda: decomp.gplssvd(
            x, y, xlw=basis @ basis.T, xrw=rw, ylw=lw, yrw=yrw),
        "gplssvd-dense-rows-large": lambda: decomp.gplssvd(
            bx, by, xlw=big[0], xrw=big[1], ylw=big[2], yrw=big[3]),
    })
    # dense metrics with no frame above the overlap floor, and gsvd with mixed slots there,
    # drawn after the cases above; then the condition sweep's top
    ranked = [_ranked(rng, 150, 60), _ranked(rng, 120, 50)]
    unframed_lw, diagonal = _conditioned(rng, 150, 1e5), rng.uniform(0.5, 2.0, 150)
    calls.update({
        "gsvd-rank-60-lw-large": lambda: decomp.gsvd(bx, lw=ranked[0], rw=big[1]),
        "gsvd-cond-1e5-lw-large": lambda: decomp.gsvd(bx, lw=unframed_lw, rw=big[1]),
        "gplssvd-rank-50-xrw-large": lambda: decomp.gplssvd(bx, by, xrw=ranked[1], yrw=big[3]),
        "gsvd-identity-lw-dense-rw": lambda: decomp.gsvd(bx, rw=big[1]),
        "gsvd-diagonal-lw-dense-rw": lambda: decomp.gsvd(bx, lw=diagonal, rw=big[1]),
        "gsvd-dense-lw-diagonal-rw": lambda: decomp.gsvd(bx, lw=big[0], rw=diagonal[:120]),
    })
    sweep((1e6, 1e7))
    # metrics off exact symmetry, which are symmetrized once, where they are checked, drawn
    # after the cases above: below the overlap floor, and above it
    for size, tx, ty in (("small", x, y), ("large", bx, by)):
        n, cols = tx.shape
        near = dict(lw=_nearly_symmetric(rng, n), w=_nearly_symmetric(rng, cols),
                    rw=_spd(rng, cols), s=_spd(rng, cols), ylw=_spd(rng, n),
                    yrw=_spd(rng, ty.shape[1]), xrw=_nearly_symmetric(rng, cols))
        calls.update({
            f"gsvd-near-symmetric-lw-{size}": lambda t=tx, m=near: decomp.gsvd(
                t, lw=m["lw"], rw=m["rw"]),
            f"geigen-near-symmetric-w-{size}": lambda m=near: decomp.geigen(m["s"], w=m["w"]),
            f"gplssvd-near-symmetric-{size}": lambda t=tx, o=ty, m=near: decomp.gplssvd(
                t, o, xlw=m["lw"], xrw=m["xrw"], ylw=m["ylw"], yrw=m["yrw"]),
        })
    # the overflow range, drawn after the cases above: rrr and cca with Gram matrices above
    # DBL_MAX / 2, and metrics with entries above it, exactly symmetric and off symmetry by
    # 1e-13 (p - p') of their scale, below the overlap floor and above it; their data are
    # scaled by 2^-600, so that d^2 and the scores stay finite, and gsvd's tolerance is off,
    # since every singular value (about 2^-88) is below its default
    gx, gy = rng.normal(size=(20, 3)) * 2.5e153, rng.normal(size=(20, 3))
    calls["rrr-unscaled-huge"] = lambda: recipes.rrr(gx, gy, scale=False)
    calls["cca-unscaled-huge"] = lambda: recipes.cca(gx, gy, scale=False)
    for size, tx in (("small", x), ("large", bx)):
        n, cols = tx.shape
        sx = np.ldexp(_spd(rng, cols), -600)
        for sym, off in (("", 0.0), ("-near-symmetric", 1e-13)):
            huge_lw, huge_w = _huge(rng, n, off), _huge(rng, cols, off)
            calls[f"gsvd-huge{sym}-lw-{size}"] = lambda t=tx, m=huge_lw: decomp.gsvd(
                np.ldexp(t, -600), lw=m, tol=None)
            calls[f"geigen-huge{sym}-w-{size}"] = lambda t=sx, m=huge_w: decomp.geigen(t, w=m)
    # drawn after the cases above: geigen with a diagonal metric, below the overlap floor and
    # above it, with a zero weight; the two-table recipes' default scaling on data whose
    # variances underflow; and a well-conditioned lw near 2^1000, which keeps its frame
    for size, n in (("small", 7), ("large", 150)):
        m, weights = _spd(rng, n), rng.uniform(0.5, 2.0, n)
        if size == "large":
            weights[n // 2] = 0.0
        calls[f"geigen-diagonal-w-{size}"] = lambda m=m, w=weights: decomp.geigen(m, w=w)
    tiny_x, tiny_y = np.ldexp(x, -600), np.ldexp(y, -600)
    for method in (recipes.pls, recipes.rrr, recipes.cca):
        calls[f"{method.__name__}-tiny"] = lambda f=method: f(tiny_x, tiny_y)
    scaled_lw = _huge(rng, 150, exponent=1000)
    calls["gsvd-overflowing-bound-lw-large"] = lambda: decomp.gsvd(bx, lw=scaled_lw)
    # drawn after the cases above: the scale-free routes on data at the ends of the range
    ex, ey = rng.normal(size=(30, 7)), rng.normal(size=(30, 5))
    for j in (540, -540, 1000, -1000):
        sx, sy = np.ldexp(ex, j), np.ldexp(ey, j)
        for route in ("eigen_cor", "triplet_scaled"):
            calls[f"pca-{route}-at-2^{j}"] = lambda r=route, t=sx: recipes.pca(t, route=r)
        for method in (recipes.pls, recipes.rrr, recipes.cca):
            calls[f"{method.__name__}-at-2^{j}"] = lambda f=method, a=sx, b=sy: f(a, b)
    # drawn after the cases above: tables whose rows near 2^600 never meet, so that x' y comes
    # from their rows near 1 alone, and a gsvd whose lw weighs 0 at x's rows near 2^600
    dx, dy = rng.normal(size=(30, 3)), rng.normal(size=(30, 2))
    dx[:10], dx[10:20], dy[:10] = np.ldexp(dx[:10], 600), 0.0, 0.0
    dy[10:20] = np.ldexp(dy[10:20], 600)
    zero_lw = rng.uniform(0.5, 2.0, 30)
    zero_lw[:10] = 0.0
    calls["gplssvd-disjoint-rows-at-2^600"] = lambda: decomp.gplssvd(dx, dy)
    calls["gsvd-zero-weight-rows-at-2^600"] = lambda: decomp.gsvd(dx, lw=zero_lw)
    # drawn after the cases above: rmca at omega = DBL_MAX on a numeric table and a disjunctive
    # one, a hand-built table whose indicator is a list, and weighted MDS with masses near 1e200
    numeric, dbl_max = rng.normal(size=(20, 3)), float(np.finfo(np.float64).max)
    small = recipes.disjunctive_coding(_categories(rng, 10, (4, 3)))
    listed = recipes.DisjunctiveTable(table.indicator.tolist(), table.variable_spans,
                                      table.level_labels)
    calls.update({
        "rmca-omega-dbl-max-numeric": lambda: recipes.rmca(numeric, dbl_max),
        "rmca-omega-dbl-max-disjunctive": lambda: recipes.rmca(small, dbl_max),
        "rmca-hand-built-table": lambda: recipes.rmca(listed, 1),
        "weighted-mds-masses-1e200": lambda: recipes.weighted_mds(dist, np.full(25, 1e200)),
        "rmca-omega-1e-300": lambda: recipes.rmca(np.abs(numeric) + 0.1, 1e-300),
    })
    # drawn after the cases above: geigen of an x off exact symmetry under each kind of metric,
    # below the overlap floor and above it
    for size, n in (("small", 7), ("large", 150)):
        near_x = _nearly_symmetric(rng, n)
        for kind, w in (("", None), ("-diagonal-w", rng.uniform(0.5, 2.0, n)),
                        ("-dense-w", _spd(rng, n))):
            calls[f"geigen-near-symmetric-x{kind}-{size}"] = lambda t=near_x, m=w: decomp.geigen(
                t, w=m)
    return calls


def _write(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


def _cli_inputs(rng, root):
    """The CLI's input files, written under `root`, and each case's command and arguments."""
    root.mkdir()

    def numbers(name, m):
        return _write(root / f"{name}.csv", [[repr(float(v)) for v in row] for row in m])

    x, y = numbers("x", rng.normal(size=(12, 4))), numbers("y", rng.normal(size=(12, 3)))
    cat, cat_y = (_write(root / f"{name}.csv", _categories(rng, 12, levels))
                  for name, levels in (("cat", (3, 2, 3)), ("cat_y", (2, 3))))
    dist = numbers("dist", _distances(rng, 10))
    spd4 = numbers("spd4", _spd(rng, 4))
    cases = {
        "geigen": ["--x", spd4, "--w", numbers("w", _spd(rng, 4))],
        "gsvd": ["--x", x, "--lw", numbers("lw", _spd(rng, 12)), "--rw", spd4],
        "gplssvd": ["--x", x, "--y", y, "--xrw", spd4],
        "pca": ["--x", x, "--route", "triplet_metric"],
        "mds": ["--x", dist],
        "wmds": ["--x", dist, "--w", numbers("masses", rng.uniform(0.5, 2.0, (10, 1)))],
        "ca": ["--x", numbers("counts", rng.poisson(5.0, size=(8, 5)) + 1.0)],
        "mca": ["--x", cat],
        "rmca": ["--x", cat, "--omega", "0,1,5"],
        "pls": ["--x", x, "--y", y],
        "rrr": ["--x", x, "--y", y],
        "cca": ["--x", x, "--y", y],
        "plsca": ["--x", cat, "--y", cat_y],
    }
    cases = {name: [name, *argv] for name, argv in cases.items()}
    cases["ca-k2"], cases["gsvd-identity"] = cases["ca"] + ["--k", "2"], ["gsvd", "--x", x]
    # drawn after the inputs above: a ca result of over 2 _CELLS_PER_PROCESS cells, which
    # two writer processes write when 2 CPUs are available
    cases["ca-large"] = ["ca", "--x", numbers("counts_large", rng.poisson(5.0, (200, 40)) + 1.0)]
    # drawn after the inputs above: geigen of an x off exact symmetry
    near_x = numbers("near_x", _nearly_symmetric(rng, 4))
    cases["geigen-near-symmetric-x"] = ["geigen", "--x", near_x, "--w", cases["geigen"][-1]]
    return cases


def _cli_run(cli, argv, out):
    """{relative path: bytes} of what `gmdecomp argv --out out` wrote, with its exit code and
    stderr; paths are relative to the working directory, so both trees print the same."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", out])
    files = {"exit code": str(code).encode(), "stderr": err.getvalue().encode()}
    for path in sorted(Path(out).rglob("*")):
        if path.is_file():
            files[str(path.relative_to(out))] = path.read_bytes()
    return files


def _child(out_path, pattern):
    """Run the corpus on the gmdecomp the environment imports and pickle what it gave."""
    import gmdecomp
    from gmdecomp import cli

    results = {"gmdecomp": gmdecomp.__file__}
    for name, call in _calls().items():
        if re.search(pattern, name):
            try:
                results[name] = call().fields()
            except Exception as exc:  # a failed call is an outcome to compare
                results[name] = {"error": f"{type(exc).__name__}: {exc}"}
    cases = _cli_inputs(np.random.default_rng(7), Path("in"))
    for case, argv in cases.items():
        for plot in ([], ["--plot"]):
            name = f"cli-{case}{'-plot' if plot else ''}"
            if argv[0] in cli.COMMANDS and re.search(pattern, name):
                results[name] = _cli_run(cli, [*argv, *plot], f"out/{name}")
    with open(out_path, "wb") as fh:
        pickle.dump(results, fh)


def _run_tree(tree, blas, pattern, tmp):
    """The corpus's results from `tree`, run in a subprocess in a fresh directory."""
    src = Path(tree).resolve() / "src"
    if not (src / "gmdecomp" / "__init__.py").is_file():
        raise SystemExit(f"{tree} holds no src/gmdecomp")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONPATH")}
    if blas == "pinned":
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = str(src)
    work = Path(tempfile.mkdtemp(dir=tmp))
    run = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child",
                          str(work / "results.pickle"), "--cases", pattern],
                         cwd=work, env=env, capture_output=True, text=True)
    if run.returncode:
        raise SystemExit(f"{tree}: the corpus failed:\n{run.stderr}")
    with open(work / "results.pickle", "rb") as fh:  # written by this script's own child
        results = pickle.load(fh)
    if Path(results.pop("gmdecomp")).resolve().parent != src / "gmdecomp":
        raise SystemExit(f"{tree}: the corpus imported another gmdecomp")
    return results


def deviation(base, head):
    """None when `head` equals `base` bit for bit, else its largest deviation relative to the
    largest entry of base, with head's columns given base's signs (inf if shapes differ)."""
    if isinstance(base, (bytes, str)) or isinstance(head, (bytes, str)):
        return None if type(base) is type(head) and base == head else np.inf
    if base.shape != head.shape:
        return np.inf
    if np.array_equal(base, head):
        return None
    largest = max(np.abs(base).max(), np.finfo(float).tiny)
    if base.ndim == 2:  # base over its largest entry: no product outgrows its entry of head
        head = head * np.where((head * (base / largest)).sum(axis=0) < 0, -1.0, 1.0)
    return float(np.abs(head - base).max() / largest)


def _csv_numbers(data):
    """The numbers of a CLI CSV file as a matrix, without its header row and label column;
    None when a cell elsewhere is not a number."""
    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return np.nan
    m = np.array([[number(c) for c in row] for row in csv.reader(io.StringIO(data.decode()))])
    m = m[~np.isnan(m).all(axis=1)][:, ~np.isnan(m).all(axis=0)]
    return None if np.isnan(m).any() else m


def _file_deviation(name, base, head):
    """inf when two CLI files differ in anything but the numbers of a CSV file, else as
    :func:`deviation` on those numbers."""
    dev = deviation(base, head)
    if dev is None or not name.endswith(".csv") or not isinstance(base, bytes):
        return dev
    a, b = _csv_numbers(base), _csv_numbers(head)
    dev = None if a is None or b is None else deviation(a, b)
    return np.inf if dev is None else dev  # None: the text differs elsewhere


def compare(base, head):
    """Report lines for the two trees' results, and how many fields and files differ."""
    lines, counts, largest, empty = [], Counter(), {}, 0
    for name in sorted(set(base) | set(head)):
        if name not in base or name not in head:
            lines.append(f"{name}: only in {'HEAD' if name in head else 'BASE'}")
            counts["missing", True] += 1
            continue
        a, b = base[name], head[name]
        kind = "CLI files" if name.startswith("cli-") else "fields"
        parts = []
        for field in [*a, *(f for f in b if f not in a)]:
            x, y = a.get(field, b"<missing>"), b.get(field, b"<missing>")
            dev = _file_deviation(field, x, y) if kind == "CLI files" else deviation(x, y)
            counts[kind, dev is not None] += 1
            if dev is not None and largest.get(kind, (0,))[0] < dev < np.inf:
                largest[kind] = dev, f"{name} {field}"
            text = "identical" if dev is None else "differs" if dev == np.inf else f"{dev:.2g}"
            if field == "error" and dev is not None:  # a call failed in one tree or both
                text = f"in BASE {a.get(field, 'none')!r}, in HEAD {b.get(field, 'none')!r}"
            parts.append(f"{field} {text}")
        if all(part.endswith(" identical") for part in parts):
            if kind == "fields" and all(np.size(r.get("d", 1)) == 0 for r in (a, b)):
                empty += 1
                lines.append(f"{name}: empty ({len(parts)} {kind})")
            else:
                lines.append(f"{name}: identical ({len(parts)} {kind})")
        else:
            lines.append(f"{name}: " + ", ".join(parts))
    for kind in ("fields", "CLI files"):
        most = f" (largest {largest[kind][0]:.2g}, {largest[kind][1]})" if kind in largest else ""
        if kind == "fields" and empty:
            most += f", {empty} empty case{'s' * (empty > 1)}"
        lines.append(f"{kind}: {counts[kind, False]} identical, {counts[kind, True]} differ{most}")
    return lines, sum(n for (_, differs), n in counts.items() if differs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--blas", choices=("pinned", "default"), default="pinned")
    parser.add_argument("--cases", default="", help="regular expression on case names")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child, args.cases)
        return 0
    if not (args.base and args.head):
        parser.error("BASE and HEAD are required")
    with tempfile.TemporaryDirectory() as tmp:
        base, head = (_run_tree(tree, args.blas, args.cases, tmp)
                      for tree in (args.base, args.head))
    lines, differ = compare(base, head)
    print(f"BASE {args.base} against HEAD {args.head}, BLAS {args.blas}")
    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
