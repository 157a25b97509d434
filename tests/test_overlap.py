"""geigen, gsvd and gplssvd on two threads: the same bits, the same errors, no thread left.

A dense metric passed as a matrix is solved in its Cholesky frame on a second
thread while the caller eigendecomposes it, and a gsvd or gplssvd maps its
two sides back on two threads (a gplssvd first weights its x and y tables by
their row metrics' roots on two threads, so its metrics are factorized in the
order xlw, ylw, xrw, yrw, as in sequence). Each runs on a thread only
when 2 CPUs are available, the process's settings give BLAS one thread and
both sides' work reaches ``decomp._OVERLAP_FLOOR``. The sizes here are above
that floor, except where a test says otherwise. Bits are compared in a child
process started with BLAS on one thread, as the overlap requires: this
process's BLAS may run more, and its threads split sums differently."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gmdecomp import constraints, decomp, kernel, recipes
from gmdecomp.decomp import geigen, gplssvd, gsvd
from gmdecomp.errors import ComplexOrNegativeEigenvalueError, GmdError, NotPSDError, NumericalError

from conftest import mca_fixture, random_spd

SRC = Path(__file__).resolve().parent.parent / "src"

_SAME_BITS = """
import threading
import numpy as np
from gmdecomp import decomp, recipes
from gmdecomp.constraints import factorize

rng = np.random.default_rng(7)
x, y = rng.normal(size=(150, 120)), rng.normal(size=(150, 110))
spd = [a @ a.T / len(a) + 0.5 * np.eye(len(a)) for a in
       (rng.normal(size=(n, n)) for n in (150, 120, 120, 110))]
basis = rng.normal(size=(150, 60))
singular, perm = basis @ basis.T / 60, rng.permutation(150)  # lw of rank 60; a row order
s = x.T @ x / 150
q, conditioned = np.linalg.qr(rng.normal(size=(150, 150)))[0], {}
for cond in (5e3, 1e5):  # an lw of this condition number
    m = (q * np.logspace(0, -np.log10(cond), 150)) @ q.T
    conditioned[cond] = (m + m.T) / 2
calls = {
    "gsvd": lambda: decomp.gsvd(x, lw=spd[0], rw=spd[1]),
    "gsvd-small": lambda: decomp.gsvd(1e-3 * x, lw=spd[0], rw=spd[1]),
    "gsvd-large": lambda: decomp.gsvd(1e3 * x, lw=spd[0], rw=spd[1]),
    "gsvd-transposed": lambda: decomp.gsvd(x.T, lw=spd[1], rw=spd[0]),
    "gsvd-permuted": lambda: decomp.gsvd(x[perm], lw=spd[0][np.ix_(perm, perm)], rw=spd[1]),
    "gsvd-singular": lambda: decomp.gsvd(x, lw=singular, rw=spd[1]),
    "gsvd-singular-permuted": lambda: decomp.gsvd(
        x[perm], lw=singular[np.ix_(perm, perm)], rw=spd[1]),
    # frames refused after the join (condition number 5e3) and before the solve (1e5)
    **{f"gsvd-cond-{cond:g}": (lambda lw=lw: decomp.gsvd(x, lw=lw, rw=spd[1]))
       for cond, lw in conditioned.items()},
    "gplssvd": lambda: decomp.gplssvd(x, y, xrw=spd[2], yrw=spd[3]),
    "gplssvd-rows": lambda: decomp.gplssvd(x, y, xlw=spd[0], xrw=spd[2], yrw=spd[3]),
    "gplssvd-all": lambda: decomp.gplssvd(x, y, xlw=spd[0], xrw=spd[2], ylw=spd[0], yrw=spd[3]),
    "geigen": lambda: decomp.geigen(s, w=spd[1]),
    "cca": lambda: recipes.cca(x, y),
}
starts = []
start = threading.Thread.start
threading.Thread.start = lambda self: starts.append(self) or start(self)
before = threading.active_count()
runs = {}
for cpus in (2, 1):
    decomp.cpu_count = lambda: cpus
    for name, call in calls.items():
        starts.clear()
        runs[cpus, name] = call().fields()
        assert threading.active_count() == before, name
        # before the SVD and after it, and with two dense row metrics also before both, to
        # weight the tables; geigen maps back one side, cca's metrics come factorized, and
        # rank-60 lw's 60 components are too few for the map-back to reach the floor
        once = name in ("geigen", "cca") or name.startswith("gsvd-singular")
        n = 1 if once else 3 if name == "gplssvd-all" else 2
        assert len(starts) == (cpus > 1) * n, (cpus, name, starts)
for name in calls:
    two, one = runs[2, name], runs[1, name]
    assert two.keys() == one.keys()
    for field in two:
        assert np.array_equal(two[field], one[field]), (name, field)
# the transposed problem swaps the sides, up to column sign
swap = dict(d="d", l="l", u="v", v="u", p="q", q="p", fi="fj", fj="fi")
for field, other in swap.items():
    a, b = runs[2, "gsvd-transposed"][field], runs[2, "gsvd"][other]
    if a.ndim == 2:
        a = a * np.where((a * b).sum(axis=0) < 0, -1.0, 1.0)
    assert np.abs(a - b).max() < 1e-10 * np.abs(b).max(), field
# a refused frame gives the bits of the same metric passed factorized, through its root
for cond, lw in conditioned.items():
    roots = decomp.gsvd(x, lw=factorize(lw), rw=spd[1]).fields()
    for field, value in runs[2, f"gsvd-cond-{cond:g}"].items():
        assert np.array_equal(value, roots[field]), (cond, field)
# scaling x by c > 0 scales d by c and keeps p and q, up to column sign
for name, c in (("gsvd-small", 1e-3), ("gsvd-large", 1e3)):
    scaled, base = runs[2, name], runs[2, "gsvd"]
    assert np.abs(scaled["d"] - c * base["d"]).max() < 1e-10 * c * base["d"].max(), name
    for field in ("p", "q"):
        a, b = scaled[field], base[field]
        a = a * np.where((a * b).sum(axis=0) < 0, -1.0, 1.0)
        assert np.abs(a - b).max() < 1e-10 * np.abs(b).max(), (name, field)
# permuting the rows of x and of lw's rows and columns permutes the row outputs, up to
# column sign, and keeps the rest
for name in ("gsvd", "gsvd-singular"):
    for field, a in runs[2, name + "-permuted"].items():
        b = runs[2, name][field][perm] if field in ("u", "p", "fi") else runs[2, name][field]
        if a.ndim == 2:
            a = a * np.where((a * b).sum(axis=0) < 0, -1.0, 1.0)
        assert np.abs(a - b).max() < 1e-10 * np.abs(b).max(), (name, field)
"""


def test_two_threads_give_the_same_bits_as_one_cpu():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", _SAME_BITS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.fixture
def thread_starts(monkeypatch):
    """Threads started during the test, with the overlap's conditions met."""
    monkeypatch.setattr(decomp, "cpu_count", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(self) or start(self))
    return starts


def test_no_thread_outlives_a_call(rng, thread_starts):
    x = rng.normal(size=(150, 120))
    lw, rw = random_spd(rng, 150), random_spd(rng, 120)
    before = threading.active_count()
    gsvd(x, lw=lw, rw=rw)
    assert len(thread_starts) == 2
    assert threading.active_count() == before
    # rw fails on the second thread, lw on the calling one
    for bad, slot in (({"rw": -rw}, "rw"), ({"lw": -lw}, "lw")):
        with pytest.raises(NotPSDError, match=f"^{slot} is not positive semi-definite"):
            gsvd(x, **{"lw": lw, "rw": rw, **bad})
        assert threading.active_count() == before
    assert len(thread_starts) == 4


def test_the_second_thread_runs_under_the_callers_errstate(rng, monkeypatch, thread_starts):
    # an overflow while y is weighted by ylw's root, on the second thread when there is one, is
    # a FloatingPointError on both under the caller's errstate; inputs are normalized, so the
    # weighting itself no longer overflows, and a wrapper makes one
    x, y = rng.normal(size=(200, 120)), rng.normal(size=(200, 110))
    xlw, ylw = random_spd(rng, 200), random_spd(rng, 200)
    real = decomp.apply_sqrt_metric

    def weighted(c, t, out=None):
        if t is y:
            np.multiply(1e300, 1e300)
        return real(c, t, out)

    monkeypatch.setattr(decomp, "apply_sqrt_metric", weighted)
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(decomp, "cpu_count", lambda: cpus)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError) as caught:
            gplssvd(x, y, xlw=xlw, ylw=ylw)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert len(thread_starts) == 1


@pytest.mark.parametrize("shape, starts", [((20, 12), 0), ((150, 120), 2)],
                         ids=["below-the-floor", "overlap"])
def test_scores_that_overflow_raise_numerical_error_alone(rng, thread_starts, shape, starts):
    # x near 1e290 under an rw near 1e20: d^2 and the column scores overflow, the scores on the
    # second thread when there is one; the result's check raises, with no warning before it
    x = 1e290 * rng.normal(size=shape)
    lw, rw = random_spd(rng, shape[0]), 1e20 * random_spd(rng, shape[1])
    with pytest.raises(NumericalError, match="^gsvd: the result field l_full holds NaN or Inf"):
        gsvd(x, lw=lw, rw=rw)
    assert len(thread_starts) == starts


@pytest.mark.parametrize("bad, slot, starts", [
    (dict(lw=True, rw=True), "lw", 1),
    (dict(xrw=True, yrw=True), "xrw", 2),  # the rows' whitening, then the columns' frames
    (dict(xlw=True, xrw=True, ylw=True, yrw=True), "xlw", 1),
    (dict(ylw=True, xrw=True), "ylw", 1),
], ids=["gsvd", "gplssvd-columns", "gplssvd-all", "gplssvd-rows-then-columns"])
def test_when_both_sides_fail_the_row_side_is_named(
        rng, monkeypatch, thread_starts, bad, slot, starts):
    x, y = rng.normal(size=(150, 120)), rng.normal(size=(150, 110))
    dims = dict(lw=150, rw=120, xlw=150, xrw=120, ylw=150, yrw=110)
    metrics = {s: (-1.0 if s in bad else 1.0) * random_spd(rng, dims[s]) for s in dims}
    if "lw" in bad:
        def call():
            return gsvd(x, lw=metrics["lw"], rw=metrics["rw"])
    else:
        def call():
            return gplssvd(x, y, **{s: metrics[s] for s in ("xlw", "xrw", "ylw", "yrw")})
    errors = []
    for cpus in (2, 1):
        monkeypatch.setattr(decomp, "cpu_count", lambda: cpus)
        with pytest.raises(GmdError) as caught:
            call()
        errors.append((type(caught.value), str(caught.value)))
    assert len(thread_starts) == starts
    assert errors[0] == errors[1]
    assert errors[0][0] is NotPSDError and errors[0][1].startswith(f"{slot} is not")


@pytest.mark.parametrize("n, starts", [(60, 0), (200, 1)], ids=["below-the-floor", "overlap"])
def test_a_frame_solve_that_fails_is_redone_through_the_roots(
        rng, monkeypatch, thread_starts, n, starts):
    # an indefinite x fails geigen's tolerance in w's frame too (L' x L keeps x's inertia): the
    # frame's error is dropped and the root route's, that of w passed factorized, is raised
    a = rng.normal(size=(n, n))
    x, w = a + a.T, random_spd(rng, n)
    failed, real = [], kernel.tolerance_eigen

    def eigen(m, tol=kernel.SQRT_EPS, **kw):
        try:
            return real(m, tol=tol, **kw)
        except ComplexOrNegativeEigenvalueError:
            failed.append(m.shape)
            raise
    monkeypatch.setattr(kernel, "tolerance_eigen", eigen)
    before = threading.active_count()
    with pytest.raises(ComplexOrNegativeEigenvalueError) as framed:
        geigen(x, w=w)
    assert threading.active_count() == before
    assert (len(thread_starts), failed) == (starts, [(n, n)] * 2)
    with pytest.raises(ComplexOrNegativeEigenvalueError) as roots:
        geigen(x, w=constraints.factorize(w))
    assert str(framed.value) == str(roots.value)


@pytest.mark.parametrize("lw", ["rank-60", "cond-1e5"])
def test_the_caller_factorizes_every_metric_in_order_and_the_thread_only_solves(
        rng, monkeypatch, blas_one_thread, lw):
    # lw has no frame: a rank-60 metric has no Cholesky factor, and one at condition number 1e5
    # fails _factor's bound. The second thread tries both frames and leaves both metrics to the
    # caller, which factorizes them in order, as in sequence
    monkeypatch.setattr(decomp, "cpu_count", lambda: 2)
    x, rw = rng.normal(size=(150, 120)), random_spd(rng, 120)
    basis, q = rng.normal(size=(150, 60)), np.linalg.qr(rng.normal(size=(150, 150)))[0]
    m = {"rank-60": basis @ basis.T / 60, "cond-1e5": (q * np.logspace(0, -5, 150)) @ q.T}[lw]
    factorized, framed, tried = [], [], threading.Event()
    factorize, factor = decomp.factorize, decomp._factor

    def spy_factorize(w, name):  # waits, as a slow eigh would, until both frames are tried
        factorized.append((name, threading.get_ident()))
        tried.wait(timeout=10)
        return factorize(w, name)

    def spy_factor(w):
        low = factor(w)
        framed.append(threading.get_ident())
        if len(framed) == 2:
            tried.set()
        return low

    monkeypatch.setattr(decomp, "factorize", spy_factorize)
    monkeypatch.setattr(decomp, "_factor", spy_factor)
    gsvd(x, lw=(m + m.T) / 2, rw=rw)
    caller = threading.get_ident()
    assert factorized == [("lw", caller), ("rw", caller)]
    assert len(framed) == 2 and caller not in framed


@pytest.mark.parametrize("env, threads", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2),
    ({"OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 0),
    ({"OMP_NUM_THREADS": "2"}, 0),
    ({}, 0),
], ids=["openblas-1", "omp-1", "openblas-2", "omp-2", "unset"])
def test_a_thread_starts_only_when_blas_runs_one(rng, monkeypatch, thread_starts, env, threads):
    monkeypatch.setattr(decomp, "_OPENBLAS", True)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    gsvd(rng.normal(size=(150, 120)), lw=random_spd(rng, 150), rw=random_spd(rng, 120))
    assert len(thread_starts) == threads


def test_one_dense_side_is_solved_beside_its_factorization(rng, thread_starts):
    # the frame's solve runs on the second thread while the caller factorizes the one dense
    # metric; the other side is cheap, so the map-back runs on the caller alone
    gsvd(rng.normal(size=(150, 120)), lw=random_spd(rng, 150), rw=rng.uniform(0.5, 2.0, 120))
    gsvd(rng.normal(size=(150, 120)), rw=random_spd(rng, 120))
    assert len(thread_starts) == 2


def test_no_thread_starts_below_the_floor_or_without_a_dense_matrix(rng, thread_starts):
    # both sides dense but small
    gsvd(rng.normal(size=(40, 30)), lw=random_spd(rng, 40), rw=random_spd(rng, 30))
    gplssvd(rng.normal(size=(40, 30)), rng.normal(size=(40, 20)),
            xrw=random_spd(rng, 30), yrw=random_spd(rng, 20))
    geigen(random_spd(rng, 60), w=random_spd(rng, 60))
    # the cli-ca and large-n workloads' calls: diagonal metrics, rmca's one-sided
    # rw and weighted_mds's geigen
    recipes.ca(rng.poisson(5.0, size=(300, 50)) + 1.0)
    tab = recipes.disjunctive_coding(mca_fixture(n_rows=200))
    recipes.rmca(tab, 5.0)
    pts = rng.normal(size=(200, 3))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    recipes.weighted_mds(dist, rng.uniform(0.5, 2.0, 200))
    assert thread_starts == []
