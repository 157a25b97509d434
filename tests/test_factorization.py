"""One factorization per dense constraint.

A dense metric is eigendecomposed once, when it is canonicalized, and the
constraint keeps only those eigenpairs: its roots are applied on the left as
B (w^a (B' x)). A dense metric passed as a matrix also takes one Cholesky
factor, the frame its solve runs in, when BLAS runs one thread. The savings are pinned as eigh and
Cholesky call counts (never wall time); the outputs as bit-identical to the
frame route, and for factorized metrics to the root route, written out by
hand, and within 1e-10 (up to sign) of the route through symmetric root
matrices; one
pseudo-inverse rule for diagonal and dense weights by a property test; and
the paper's invariants, with the scores as the metric times the generalized
vectors, by a bounded property test over identity, diagonal (with zero
weights), dense and singular-PSD constraints."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gmdecomp import constraints, decomp, kernel, recipes
from gmdecomp.decomp import geigen, gplssvd, gsvd
from gmdecomp.errors import NotSymmetricError

from conftest import align_signs, blas_threads, categorical_table, random_spd


def test_dense_gsvd_makes_two_eigh_calls(rng, eigh_calls):
    gsvd(rng.normal(size=(9, 6)), lw=random_spd(rng, 9), rw=random_spd(rng, 6))
    assert eigh_calls == [(9, 9), (6, 6)]


def test_dense_geigen_makes_two_eigh_calls(rng, eigh_calls):
    # one for w, one for the metric-weighted matrix itself
    geigen(random_spd(rng, 7), w=random_spd(rng, 7))
    assert eigh_calls == [(7, 7), (7, 7)]


def test_dense_gplssvd_makes_two_eigh_calls(rng, eigh_calls):
    gplssvd(
        rng.normal(size=(10, 4)),
        rng.normal(size=(10, 5)),
        xrw=random_spd(rng, 4),
        yrw=random_spd(rng, 5),
    )
    assert eigh_calls == [(4, 4), (5, 5)]


def test_dense_gplssvd_makes_one_svd_of_the_cross_product(rng, svd_calls):
    x, y = rng.normal(size=(10, 4)), rng.normal(size=(10, 5))
    gplssvd(x, y, xlw=random_spd(rng, 10), xrw=random_spd(rng, 4), yrw=random_spd(rng, 5))
    assert svd_calls == [(4, 5)]


def test_diagonal_and_identity_constraints_make_no_eigh_calls(rng, eigh_calls):
    gsvd(rng.normal(size=(8, 5)), lw=rng.uniform(0.5, 2.0, 8))
    gplssvd(rng.normal(size=(8, 3)), rng.normal(size=(8, 4)), ylw=np.ones(8))
    assert eigh_calls == []


def test_rmca_factorizes_nothing_of_size_n(eigh_calls, svd_calls):
    # the thin SVD of the centred indicator, the column metric's pseudo-
    # inverse, and the SVD of the J x J matrix the row metric reduces to
    tab = recipes.disjunctive_coding(
        categorical_table(np.random.default_rng(3), 120, (3, 4, 5, 4)))
    n, j = tab.indicator.shape
    recipes.rmca(tab, 5.0)
    assert svd_calls == [(n, j), (j, j)]
    assert eigh_calls == [(j, j)]


def test_rrr_and_cca_factorize_each_gram_matrix_once(rng, eigh_calls, svd_calls):
    x, y = rng.normal(size=(30, 4)), rng.normal(size=(30, 5))
    recipes.rrr(x, y)
    assert (eigh_calls, svd_calls) == ([(4, 4)], [(4, 5)])
    eigh_calls.clear()
    svd_calls.clear()
    recipes.cca(x, y)
    assert (eigh_calls, svd_calls) == ([(4, 4), (5, 5)], [(4, 5)])


def test_each_dense_matrix_metric_takes_one_cholesky(rng, cholesky_calls, blas_one_thread):
    gsvd(rng.normal(size=(9, 6)), lw=random_spd(rng, 9), rw=random_spd(rng, 6))
    assert cholesky_calls == [(9, 9), (6, 6)]
    cholesky_calls.clear()
    geigen(random_spd(rng, 7), w=random_spd(rng, 7))
    assert cholesky_calls == [(7, 7)]
    cholesky_calls.clear()
    x, y = rng.normal(size=(10, 4)), rng.normal(size=(10, 5))
    gplssvd(x, y, xrw=random_spd(rng, 4), yrw=random_spd(rng, 5))
    assert cholesky_calls == [(4, 4), (5, 5)]
    cholesky_calls.clear()
    # a dense row metric is applied through its root; the dense column metric takes its frame,
    # as it does without one
    gplssvd(x, y, xlw=random_spd(rng, 10), yrw=random_spd(rng, 5))
    assert cholesky_calls == [(5, 5)]


def test_no_cholesky_without_a_dense_matrix_metric(rng, cholesky_calls):
    x, y = rng.normal(size=(30, 4)), rng.normal(size=(30, 5))
    gsvd(x, lw=rng.uniform(0.5, 2.0, 30))
    gsvd(x, lw=constraints.factorize(random_spd(rng, 30)), rw=np.diag(rng.uniform(0.5, 2.0, 4)))
    geigen(random_spd(rng, 4), w=rng.uniform(0.5, 2.0, 4))
    gplssvd(x, y, ylw=np.ones(30))
    recipes.ca(rng.poisson(5.0, size=(20, 6)) + 1.0)
    recipes.rmca(recipes.disjunctive_coding(categorical_table(rng, 60, (3, 4))), 5.0)
    recipes.rrr(x, y)
    recipes.cca(x, y)
    pts = rng.normal(size=(12, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    recipes.weighted_mds(dist, rng.uniform(0.5, 2.0, 12))
    assert cholesky_calls == []


def _spanning(rng, n, cond):
    """A dense SPD metric whose eigenvalues are log-spaced from 1 down to 1 / cond."""
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    m = (q * np.logspace(0, -np.log10(cond), n)) @ q.T
    return (m + m.T) / 2


def test_a_well_conditioned_metric_keeps_its_frame_at_every_scale(rng):
    # 2^k (0.6 I + 0.3 S), S symmetric with a zero diagonal and rows summing to at most 1 in
    # magnitude, has its eigenvalues in 2^k [0.3, 0.9] at every k where its largest entry is
    # normal; and a metric whose eigenvalues span 999 sits just inside _FRAME_COND. _factor's
    # bound, the largest diagonal entry over the least squared pivot, is at most the condition
    # number and squares no entry, so both keep their frames at both ends of the range
    n = 150
    s = np.triu(rng.normal(size=(n, n)), 1)
    s += s.T
    for m in (0.6 * np.eye(n) + 0.3 * s / np.abs(s).sum(axis=1).max(), _spanning(rng, n, 999)):
        lost = [k for k in range(-1021, 1024) if decomp._factor(np.ldexp(m, k)) is None]
        assert lost == []


def test_an_ill_conditioned_metric_is_refused_before_its_solve_at_every_scale(rng):
    # eigenvalues 2^k [1e-5, 1]: _factor's bound refuses its frame at every k, from where the
    # least eigenvalue is subnormal up to where the largest is 2^1023
    m = _spanning(rng, 150, 1e5)
    kept = [k for k in range(-1021, 1024) if decomp._factor(np.ldexp(m, k)) is not None]
    assert kept == []


# ---------------------------------------------------------------------------
# bit-identity with the decomposition written out by hand: a dense metric passed
# as a matrix is solved in its Cholesky frame, the same metric passed factorized
# through its roots


def _eigenpairs(m):
    """A dense metric's clipped eigenvalues and eigenvectors, as factorize keeps them."""
    c = constraints.factorize(m)
    return c.weights, c.basis


def _eigen_form(m):
    """Basis and weights of a dense metric's sqrt, pseudo-inverse sqrt and pseudo-inverse,
    each zero at or below max * n * eps."""
    lam, vec = _eigenpairs(m)
    keep = lam > lam.max() * lam.shape[0] * kernel.EPS
    kept = np.where(keep, lam, 1.0)
    root = np.sqrt(kept)
    return (vec, np.where(keep, root, 0.0), np.where(keep, 1.0 / root, 0.0),
            np.where(keep, 1.0 / kept, 0.0))


def _left(b, s, x):
    return b @ (s[:, None] * (b.T @ x))


def _chol(m):
    return np.linalg.cholesky((m + m.T) / 2.0)


def _signed(v, fields):
    """The fields with v's canonical signs, v mapped out of a frame."""
    v = v.copy()
    signs = kernel.canonical_signs(v)
    return dict(v=v, **{name: value * signs for name, value in fields.items()})


def _check_fields(out, expected):
    for name, value in expected.items():
        assert np.array_equal(getattr(out, name), value), name


def test_dense_gsvd_matches_written_out_roots(rng, blas_one_thread):
    x = rng.normal(size=(12, 7))
    lw, rw = random_spd(rng, 12), random_spd(rng, 7)
    lb, lw_s, lw_i, lw_p = _eigen_form(lw)
    rb, rw_s, rw_i, rw_p = _eigen_form(rw)
    sv = kernel.tolerance_svd(_left(lb, lw_s, _left(rb, rw_s, x.T).T), tol=kernel.EPS)
    roots = dict(
        d=sv.d, u=sv.u, v=sv.v, p=_left(lb, lw_i, sv.u), q=_left(rb, rw_i, sv.v),
        fi=_left(lb, lw_s, sv.u) * sv.d[None, :], fj=_left(rb, rw_s, sv.v) * sv.d[None, :],
    )
    _check_fields(gsvd(x, lw=constraints.factorize(lw), rw=constraints.factorize(rw)), roots)
    ll, rl = _chol(lw), _chol(rw)
    sv = kernel.tolerance_svd(ll.T @ (rl.T @ x.T).T, tol=kernel.EPS)
    lu, rv = ll @ sv.u, rl @ sv.v
    frame = _signed(_left(rb, rw_i, rv), dict(
        u=_left(lb, lw_i, lu), p=_left(lb, lw_p, lu), q=_left(rb, rw_p, rv),
        fi=lu * sv.d[None, :], fj=rv * sv.d[None, :]))
    _check_fields(gsvd(x, lw=lw, rw=rw), dict(d=sv.d, **frame))


def test_dense_geigen_matches_written_out_roots(rng, blas_one_thread):
    x = random_spd(rng, 8)
    w = random_spd(rng, 8)
    b, w_s, w_i, w_p = _eigen_form(w)
    eig = kernel.tolerance_eigen(_left(b, w_s, _left(b, w_s, x.T).T), tol=kernel.SQRT_EPS)
    d = np.sqrt(np.clip(eig.values, 0.0, None))
    roots = dict(l=eig.values, d=d, v=eig.vectors, q=_left(b, w_i, eig.vectors),
                 fj=_left(b, w_s, eig.vectors) * d[None, :])
    _check_fields(geigen(x, w=constraints.factorize(w)), roots)
    low = _chol(w)
    eig = kernel.tolerance_eigen(low.T @ (low.T @ x.T).T, tol=kernel.SQRT_EPS)
    d = np.sqrt(np.clip(eig.values, 0.0, None))
    lv = low @ eig.vectors
    frame = _signed(_left(b, w_i, lv), dict(q=_left(b, w_p, lv), fj=lv * d[None, :]))
    _check_fields(geigen(x, w=w), dict(l=eig.values, d=d, **frame))


def test_dense_gplssvd_matches_written_out_roots(rng, blas_one_thread):
    x = rng.normal(size=(15, 4))
    y = rng.normal(size=(15, 6))
    xrw, yrw = random_spd(rng, 4), random_spd(rng, 6)
    xb, xrw_s, xrw_i, xrw_p = _eigen_form(xrw)
    yb, yrw_s, yrw_i, yrw_p = _eigen_form(yrw)
    sv = kernel.tolerance_svd(
        _left(xb, xrw_s, _left(yb, yrw_s, (x.T @ y).T).T), tol=kernel.EPS)
    fi, fj = _left(xb, xrw_s, sv.u), _left(yb, yrw_s, sv.v)
    roots = dict(
        d=sv.d, u=sv.u, v=sv.v, p=_left(xb, xrw_i, sv.u), q=_left(yb, yrw_i, sv.v),
        fi=fi * sv.d[None, :], fj=fj * sv.d[None, :], lx=x @ fi, ly=y @ fj,
    )
    _check_fields(gplssvd(x, y, xrw=constraints.factorize(xrw), yrw=constraints.factorize(yrw)),
                  roots)
    xl, yl = _chol(xrw), _chol(yrw)
    sv = kernel.tolerance_svd(xl.T @ (yl.T @ (x.T @ y).T).T, tol=kernel.EPS)
    lu, rv = xl @ sv.u, yl @ sv.v
    frame = _signed(_left(yb, yrw_i, rv), dict(
        u=_left(xb, xrw_i, lu), p=_left(xb, xrw_p, lu), q=_left(yb, yrw_p, rv),
        fi=lu * sv.d[None, :], fj=rv * sv.d[None, :], lx=x @ lu, ly=y @ rv))
    _check_fields(gplssvd(x, y, xrw=xrw, yrw=yrw), dict(d=sv.d, **frame))


def _factorized(metrics):
    return {slot: constraints.factorize(w) for slot, w in metrics.items()}


def test_without_blas_on_one_thread_dense_metrics_take_their_roots(
        rng, cholesky_calls, blas_default):
    # no second thread can hide a frame's cost: a dense matrix gives the bits of the same
    # metric passed factorized
    x, y, s = rng.normal(size=(12, 7)), rng.normal(size=(12, 5)), random_spd(rng, 7)
    lw, rw, w, yrw = random_spd(rng, 12), random_spd(rng, 7), random_spd(rng, 7), random_spd(rng, 5)
    for call, metrics in (
            (lambda **m: gsvd(x, **m), dict(lw=lw, rw=rw)),
            (lambda **m: geigen(s, **m), dict(w=w)),
            (lambda **m: gplssvd(x, y, **m), dict(xrw=rw, yrw=yrw)),
            (lambda **m: gplssvd(x, y, **m), dict(xlw=lw, xrw=rw, ylw=lw, yrw=yrw))):
        _check_fields(call(**metrics), call(**_factorized(metrics)).fields())
    assert cholesky_calls == []


def test_an_exactly_symmetric_dense_row_metric_is_not_copied(rng, traced_peak, blas_default):
    # traced bytes, never time: symmetrized copies made when the metrics were checked, and
    # kept until both row metrics were factorized, peaked at 4.05 n^2 doubles at n = 300;
    # a copy made for each eigh alone, and freed with it, at 3.04; with no copy, at 2.04
    n = 300
    x, y = rng.normal(size=(n, 7)), rng.normal(size=(n, 5))
    xlw, ylw = random_spd(rng, n), random_spd(rng, n)
    gplssvd(x, y, xlw=xlw, ylw=ylw)
    assert traced_peak(gplssvd, x, y, xlw=xlw, ylw=ylw) <= 2.5 * n * n * 8


def _nearly_symmetric(rng, n):
    """A dense SPD metric off exact symmetry by 1e-13 (p - p'), well inside SYMMETRY_RTOL."""
    p = rng.normal(size=(n, n))
    return random_spd(rng, n) + 1e-13 * (p - p.T)


@pytest.mark.parametrize("blas, cpus", [("blas_one_thread", 1), ("blas_one_thread", 2),
                                        ("blas_default", 2)], ids=["frames", "frames-2-cpus",
                                                                   "roots"])
def test_a_nearly_symmetric_metric_gives_the_bits_of_its_symmetrized_matrix(
        rng, monkeypatch, request, blas, cpus):
    # every LAPACK call that reads a metric reads (w + w')/2: factorize's eigh and, with BLAS on
    # one thread, the frame's Cholesky, on the calling thread or a second one
    request.getfixturevalue(blas)
    monkeypatch.setattr(decomp, "cpu_count", lambda: cpus)
    n, p, q = 100, 80, 60
    x, y, s = rng.normal(size=(n, p)), rng.normal(size=(n, q)), random_spd(rng, p)
    lw, rw, xrw = _nearly_symmetric(rng, n), _nearly_symmetric(rng, p), _nearly_symmetric(rng, p)
    ylw, yrw = random_spd(rng, n), random_spd(rng, q)
    for call, metrics in (
            (lambda **m: gsvd(x, **m), dict(lw=lw, rw=rw)),
            (lambda **m: geigen(s, **m), dict(w=rw)),
            (lambda **m: gplssvd(x, y, **m), dict(xlw=lw, xrw=xrw, ylw=ylw, yrw=yrw))):
        exact = {slot: (w + w.T) / 2 for slot, w in metrics.items()}
        assert not all(np.array_equal(w, exact[slot]) for slot, w in metrics.items())
        _check_fields(call(**metrics), call(**exact).fields())


@pytest.mark.parametrize("blas, cpus", [("blas_one_thread", 1), ("blas_one_thread", 2),
                                        ("blas_default", 2)], ids=["frames", "frames-2-cpus",
                                                                   "roots"])
def test_only_a_metric_off_exact_symmetry_is_symmetrized_once_at_entry(
        rng, monkeypatch, request, blas, cpus):
    # check_symmetric copies a dense metric into (w + w')/2 only when it is off exact symmetry;
    # factorize and the frames read the matrix they are given, on either thread
    request.getfixturevalue(blas)
    monkeypatch.setattr(decomp, "cpu_count", lambda: cpus)
    copied, real = [], kernel.symmetrized
    monkeypatch.setattr(kernel, "symmetrized", lambda w: copied.append(w.shape) or real(w))
    n, p, q = 100, 80, 60
    x, y, s = rng.normal(size=(n, p)), rng.normal(size=(n, q)), random_spd(rng, p)
    sizes = dict(lw=n, rw=p, w=p, xlw=n, ylw=n, xrw=p, yrw=q)
    exact = {slot: random_spd(rng, m) for slot, m in sizes.items()}
    near = {slot: _nearly_symmetric(rng, m) for slot, m in sizes.items()}
    for call, slots in (
            (lambda **m: gsvd(x, **m), ("lw", "rw")),
            (lambda **m: geigen(s, **m), ("w",)),
            (lambda **m: gplssvd(x, y, **m), ("xlw", "xrw", "ylw", "yrw"))):
        copied.clear()
        call(**{slot: exact[slot] for slot in slots})
        assert copied == []
        for off in slots:
            call(**{slot: (near if slot == off else exact)[slot] for slot in slots})
            assert copied == [(sizes[off],) * 2]
            copied.clear()
        call(**{slot: near[slot] for slot in slots})
        assert copied == [(sizes[slot],) * 2 for slot in slots]


@pytest.mark.parametrize("n", [80, 200])
@pytest.mark.parametrize("blas", ["blas_one_thread", "blas_default"], ids=["frames", "roots"])
def test_geigen_of_x_and_of_its_transpose_give_the_same_bits(rng, request, blas, n):
    # an x off exact symmetry within the tolerance is decomposed as (x + x')/2, as every metric
    # is, so which triangle LAPACK reads does not matter
    request.getfixturevalue(blas)
    x = _nearly_symmetric(rng, n)
    assert not np.array_equal(x, x.T)
    for w in (None, rng.uniform(0.5, 2.0, n), random_spd(rng, n)):
        _check_fields(geigen(x.T, w=w), geigen(x, w=w).fields())
        _check_fields(geigen(x, w=w), geigen((x + x.T) / 2, w=w).fields())


@pytest.mark.parametrize("n, p, q", [(15, 4, 6), (150, 120, 110)])
def test_gplssvd_solves_its_column_metrics_whatever_its_row_metrics(
        rng, monkeypatch, blas_one_thread, n, p, q):
    # the row metrics only weight the tables: passed as matrices or factorized, they leave the
    # dense column metrics their frames. One CPU keeps both calls on the calling thread, whose
    # BLAS splits its sums the same way each time
    monkeypatch.setattr(decomp, "cpu_count", lambda: 1)
    x, y = rng.normal(size=(n, p)), rng.normal(size=(n, q))
    metrics = dict(xlw=random_spd(rng, n), xrw=random_spd(rng, p),
                   ylw=random_spd(rng, n), yrw=random_spd(rng, q))
    got = gplssvd(x, y, **metrics)
    rows = {s: constraints.factorize(metrics[s]) for s in ("xlw", "ylw")}
    _check_fields(got, gplssvd(x, y, **{**metrics, **rows}).fields())
    for name, want in gplssvd(x, y, **_factorized(metrics)).fields().items():
        have = getattr(got, name)
        if have.ndim == 2:
            have = align_signs(have, want)
        assert np.abs(have - want).max() <= 1e-10 * np.abs(want).max(), name


@pytest.mark.parametrize("n, p", [(60, 4), (400, 9), (1000, 17)])
def test_gram_matrices_reach_factorize_exactly_symmetric(monkeypatch, n, p):
    # factorize takes a Gram matrix as it is, with no symmetrized copy: the recipes' x'x and
    # rmca's column metric keep their bits because numpy forms them exactly symmetric
    seen, real = [], constraints.factorize
    monkeypatch.setattr(constraints, "factorize", lambda g, name: seen.append(g) or real(g, name))
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=(n, p)), rng.normal(size=(n, p + 2))
    recipes.rrr(x, y)
    recipes.cca(x, y)
    tab = recipes.disjunctive_coding(categorical_table(rng, n, (3, 4, 5)))
    for omega in (0.0, 1.0, 5.0, 25.0):
        recipes.rmca(tab, omega)
    assert len(seen) == 7
    for g in seen:
        assert np.array_equal(g, g.T)


# ---------------------------------------------------------------------------
# the root-matrix route as a reference: each dense metric applied through
# its symmetric square root and pseudo-inverse square root matrices


def _psd_root(lam, vec, inverse=False):
    lam_max = lam.max(initial=0.0)
    keep = lam > lam_max * lam.shape[0] * kernel.EPS
    root = np.sqrt(np.where(keep, lam, 1.0))
    scale = np.where(keep, 1.0 / root if inverse else root, 0.0)
    s = (vec * scale) @ vec.T
    return (s + s.T) / 2.0


def _root_matrix_apply(c, x, powers, out=None, eigen_apply=constraints._apply):
    if c.kind != constraints.DENSE:
        return eigen_apply(c, x, powers, out)
    return [_psd_root(c.weights, c.basis, inverse=a < 0) @ np.asarray(x, dtype=np.float64)
            for a in powers]


def _dense_cases():
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(30, 5)), rng.normal(size=(30, 4))
    a = rng.normal(size=(6, 2))
    lw, rw, yrw = random_spd(rng, 30), random_spd(rng, 5), random_spd(rng, 4)
    w, s = random_spd(rng, 5), random_spd(rng, 5)
    tab = recipes.disjunctive_coding(categorical_table(rng, 80, (3, 4, 5)))
    return {
        "gsvd": lambda: gsvd(x, lw=lw, rw=rw),
        "gsvd_singular": lambda: gsvd(x[:6], lw=a @ a.T, rw=rw),
        "geigen": lambda: geigen(s, w=w),
        "gplssvd": lambda: gplssvd(x, y, xlw=lw, xrw=rw, yrw=yrw),
        "rrr": lambda: recipes.rrr(x, y),
        "cca": lambda: recipes.cca(x, y),
        "rmca_1": lambda: recipes.rmca(tab, 1.0),
        "rmca_25": lambda: recipes.rmca(tab, 25.0),
    }


DENSE_CASES = _dense_cases()


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_eigen_form_matches_the_root_matrix_route(case, monkeypatch):
    # dense metrics passed as matrices take their Cholesky frames with BLAS on one thread
    # and their roots without; both routes are checked
    runs = {}
    for one in (True, False):
        with blas_threads(one):
            runs[one] = DENSE_CASES[case]()
    # the reference takes no Cholesky frame: its dense metrics are applied through root matrices
    monkeypatch.setattr(kernel, "cholesky", lambda w: None)
    monkeypatch.setattr(constraints, "_apply", _root_matrix_apply)
    ref = DENSE_CASES[case]()
    # the singular values are distinct, so each component is defined up to sign
    assert np.all(np.diff(ref.d_full) < -1e-6 * ref.d_full[0])
    for one, got in runs.items():
        assert got.n_total_components == ref.n_total_components, one
        for name, want in ref.fields().items():
            have = getattr(got, name)
            if have.ndim == 2:
                have = align_signs(have, want)
            assert np.abs(have - want).max() <= 1e-10 * np.abs(want).max(), (one, name)


@settings(max_examples=60, deadline=None)
@example(seed=4231, n=7, m=6, n_zero=1, below_cutoff=False)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    m=st.integers(2, 6),
    n_zero=st.integers(0, 2),
    below_cutoff=st.booleans(),
)
def test_weights_on_the_coordinate_basis_match_the_diagonal_metric(
        seed, n, m, n_zero, below_cutoff):
    # one pseudo-inverse rule: a weight at or below max * n * eps counts as
    # zero whether the basis is the coordinate axes or a dense eigenbasis.
    # The two routes feed LAPACK a zero-weight row as -0.0 or +0.0, which moves
    # component j's vectors by up to eps * d_0 / g_j, g_j its gap to zero and to
    # the other singular values (Davis & Kahan 1970); its values stay put
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    w = rng.uniform(0.2, 2.0, n)
    w[:n_zero] = 0.0
    if below_cutoff:
        # scaled by the largest of the other weights, which stays the maximum,
        # so the weight is below the cutoff whichever weight was largest before
        w[-1] = w[:-1].max() * kernel.EPS
    diag = gsvd(x, lw=w)
    dense = gsvd(x, lw=constraints.Constraint(n, w, np.eye(n), "lw"))
    assert diag.n_total_components == dense.n_total_components
    d = diag.d_full
    gaps = np.abs(d[:, None] - d[None, :]) + np.diag(np.full(d.shape, np.inf))
    with np.errstate(divide="ignore"):
        slack = d.max(initial=0.0) / np.minimum(d, gaps.min(axis=1, initial=np.inf))
    for name, want in diag.fields().items():
        have = getattr(dense, name)
        scale = max(np.abs(want).max(initial=0.0), 1.0)
        bound = 1e-12 * scale * (slack if want.ndim == 2 else 1.0)
        assert np.all(np.abs(have - want) <= bound), name


# ---------------------------------------------------------------------------
# symmetry checks before any factorization


def test_asymmetric_dense_constraint_names_its_slot():
    with pytest.raises(NotSymmetricError, match="rw must be symmetric"):
        gsvd(np.ones((2, 2)), rw=np.array([[1.0, 2.0], [0.5, 1.0]]))


def test_asymmetric_geigen_input_is_named_before_any_factorization(rng, eigh_calls):
    x = random_spd(rng, 4)
    x[0, 3] += 1.0
    with pytest.raises(NotSymmetricError, match="^x must be symmetric"):
        geigen(x, w=random_spd(rng, 4))
    assert eigh_calls == []


# ---------------------------------------------------------------------------
# invariants over every kind of constraint

KINDS = ("identity", "diagonal_zero", "dense", "singular")


def _make_constraint(kind, rng, n):
    if kind == "identity":
        return None, np.eye(n)
    if kind == "diagonal_zero":
        w = rng.uniform(0.2, 2.0, n)
        w[rng.integers(n)] = 0.0
        return w, np.diag(w)
    if kind == "dense":
        m = random_spd(rng, n)
        return m, m
    a = rng.normal(size=(n, int(rng.integers(1, n))))
    m = a @ a.T
    return m, m


def _check_orthonormal(vectors, metric):
    gram = vectors.T @ metric @ vectors
    assert np.abs(gram - np.eye(gram.shape[0])).max(initial=0.0) < 1e-8


def _check_scores(scores, metric, vectors, d):
    # the scores are the metric times the generalized vectors, scaled by d
    want = metric @ vectors * d[None, :]
    assert np.abs(scores - want).max(initial=0.0) <= 1e-10 * max(1.0, np.abs(want).max(initial=0.0))


def _check_prefix(full, run, kk):
    for name, value in run.fields().items():
        expected = getattr(full, name)
        if name not in ("d_full", "l_full"):
            expected = expected[..., :kk]
        assert np.array_equal(value, expected), name


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    m=st.integers(2, 6),
    lkind=st.sampled_from(KINDS),
    rkind=st.sampled_from(KINDS),
    frames=st.booleans(),
)
def test_gsvd_invariants_property(seed, n, m, lkind, rkind, frames):
    # dense metrics in their Cholesky frames (BLAS on one thread), or through their roots
    with blas_threads(frames):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, m))
        lw, lw_m = _make_constraint(lkind, rng, n)
        rw, rw_m = _make_constraint(rkind, rng, m)
        out = gsvd(x, lw=lw, rw=rw)
        _check_orthonormal(out.p, lw_m)
        _check_orthonormal(out.q, rw_m)
        _check_scores(out.fi, lw_m, out.p, out.d)
        _check_scores(out.fj, rw_m, out.q, out.d)
        # Metric reconstruction: lw P D Q' rw = lw x rw (plain reconstruction
        # when both metrics are nonsingular).
        recon = lw_m @ (out.p * out.d[None, :]) @ out.q.T @ rw_m
        target = lw_m @ x @ rw_m
        assert np.abs(recon - target).max() < 1e-8 * max(1.0, np.abs(target).max())
        if out.n_retained > 1:
            kk = int(rng.integers(1, out.n_retained))
            _check_prefix(out, gsvd(x, lw=lw, rw=rw, k=kk), kk)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), kind=st.sampled_from(KINDS),
       frames=st.booleans())
def test_geigen_invariants_property(seed, n, kind, frames):
    # dense metrics in their Cholesky frames (BLAS on one thread), or through their roots
    with blas_threads(frames):
        rng = np.random.default_rng(seed)
        x = random_spd(rng, n)
        w, w_m = _make_constraint(kind, rng, n)
        out = geigen(x, w=w)
        _check_orthonormal(out.q, w_m)
        _check_scores(out.fj, w_m, out.q, out.d)
        recon = w_m @ (out.q * out.l[None, :]) @ out.q.T @ w_m
        target = w_m @ x @ w_m
        assert np.abs(recon - target).max() < 1e-8 * max(1.0, np.abs(target).max())
        if out.n_retained > 1:
            kk = int(rng.integers(1, out.n_retained))
            _check_prefix(out, geigen(x, w=w, k=kk), kk)


def test_singular_dense_metric_keeps_p_orthonormal():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 1))
    lw = a @ a.T
    out = gsvd(rng.normal(size=(3, 4)), lw=lw)
    gram = out.p.T @ lw @ out.p
    assert np.abs(gram - np.eye(out.n_retained)).max() < 1e-8


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    mx=st.integers(2, 5),
    my=st.integers(2, 5),
    kinds=st.tuples(*[st.sampled_from(KINDS)] * 4),
    frames=st.booleans(),
)
def test_gplssvd_invariants_property(seed, n, mx, my, kinds, frames):
    # dense metrics in their Cholesky frames (BLAS on one thread), or through their roots
    with blas_threads(frames):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(n, mx)), rng.normal(size=(n, my))
        (xlw, xlw_m), (xrw, xrw_m), (ylw, _), (yrw, yrw_m) = (
            _make_constraint(kind, rng, dim) for kind, dim in zip(kinds, (n, mx, n, my))
        )
        out = gplssvd(x, y, xlw=xlw, xrw=xrw, ylw=ylw, yrw=yrw)
        _check_orthonormal(out.p, xrw_m)
        _check_orthonormal(out.q, yrw_m)
        _check_scores(out.fi, xrw_m, out.p, out.d)
        _check_scores(out.fj, yrw_m, out.q, out.d)
        # lx = xl xrw P with xl = xlw^(1/2) x
        xl = _psd_root(*_eigenpairs(xlw_m)) @ x
        _check_scores(out.lx, xl @ xrw_m, out.p, np.ones_like(out.d))
        # The latent variables' cross-products are the singular values.
        cross = np.einsum("ij,ij->j", out.lx, out.ly)
        assert np.allclose(cross, out.d, rtol=0.0, atol=1e-8 * max(1.0, out.d.max(initial=0.0)))
        if out.n_retained > 1:
            kk = int(rng.integers(1, out.n_retained))
            _check_prefix(out, gplssvd(x, y, xlw=xlw, xrw=xrw, ylw=ylw, yrw=yrw, k=kk), kk)


def test_geigen_checks_each_matrix_for_symmetry_once(rng, monkeypatch):
    # x at entry, a dense w in check_constraint; never the metric-weighted matrix
    checked = []
    real = kernel.asymmetry
    monkeypatch.setattr(kernel, "asymmetry",
                        lambda s, *top: checked.append(s.shape) or real(s, *top))
    geigen(random_spd(rng, 6), w=rng.uniform(0.5, 2.0, 6))
    assert checked == [(6, 6)]
    checked.clear()
    geigen(random_spd(rng, 6), w=random_spd(rng, 6))
    assert checked == [(6, 6), (6, 6)]


def _distances(rng, n):
    p = rng.normal(size=(n, 3))
    return np.sqrt(((p[:, None] - p[None]) ** 2).sum(axis=-1))


@pytest.mark.parametrize("recipe", [
    recipes.mds, lambda dist: recipes.weighted_mds(dist, np.linspace(0.5, 2.0, dist.shape[0]))],
    ids=["mds", "weighted_mds"])
def test_mds_checks_its_distances_once_and_makes_one_eigh(
        rng, monkeypatch, eigh_calls, cholesky_calls, recipe):
    # dist at entry; never the double-centred matrix, symmetric by construction
    dist = _distances(rng, 12)
    checked = []
    real = kernel.asymmetry
    monkeypatch.setattr(kernel, "asymmetry",
                        lambda s, *top: checked.append((s.shape, s is dist)) or real(s, *top))
    recipe(dist)
    assert checked == [((12, 12), True)]
    assert eigh_calls == [(12, 12)]
    assert cholesky_calls == []


def test_weighted_mds_whitens_its_matrix_in_place(rng, monkeypatch):
    # traced bytes, never time: when eigh starts, the only n x n array left is the
    # double-centred matrix, whitened in place (2.01 n^2 doubles when it was whitened into
    # new buffers)
    n = 200
    dist, w = _distances(rng, n), rng.uniform(0.5, 1.5, n)
    real, seen = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(
        tracemalloc.get_traced_memory()[0]) or real(a))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        recipes.weighted_mds(dist, w)
    finally:
        tracemalloc.stop()
    assert len(seen) == 1 and seen[0] - base <= 1.1 * n * n * 8


@pytest.mark.parametrize("frames", [True, False], ids=["frames", "roots"])
def test_geigen_leaves_its_x_unchanged(rng, frames):
    x = random_spd(rng, 6)
    kept = x.copy()
    with blas_threads(frames):
        for w in (None, rng.uniform(0.5, 2.0, 6), np.diag(rng.uniform(0.5, 2.0, 6)),
                  random_spd(rng, 6)):
            geigen(x, w=w)
            assert np.array_equal(x, kept)


@pytest.mark.parametrize("omega", [0.0, 1.0, 5.0, 25.0])
def test_rmca_k_runs_are_prefixes_of_the_full_run(omega):
    tab = recipes.disjunctive_coding(categorical_table(np.random.default_rng(5), 80, (3, 4, 5)))
    full = recipes.rmca(tab, omega)
    assert full.n_retained > 2
    for kk in range(1, full.n_retained):
        _check_prefix(full, recipes.rmca(tab, omega, k=kk), kk)


def test_weighted_mds_forms_its_matrices_in_few_buffers(rng, traced_peak):
    # traced bytes, never time: forming every n x n matrix in a new temporary peaked at
    # 5.22 n^2 doubles at n = 200; the double-centring in place and the whitening in one
    # buffer keep the peak at least 0.5 n^2 doubles below that
    n = 200
    dist, w = _distances(rng, n), rng.uniform(0.5, 1.5, n)
    recipes.weighted_mds(dist, w)
    assert traced_peak(recipes.weighted_mds, dist, w) <= (5.22 - 0.5) * n * n * 8
