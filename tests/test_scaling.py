"""Scaling a call's input by a power of 2 is exact, so it scales each result field by a known
power of 2 (the idea behind Anderson 2017, "Algorithm 978: Safe Scaling in the Level 1 BLAS").

Each entry point is called on its data times 2^j and its metrics times 4^i, whose roots then
scale by 2^i, for exponents drawn over the whole range where the scaled input and each expected
field's largest entry are finite and normal, and just past each end of that range. A tolerance
is passed scaled as the values it is compared with, or None. Inside the range, each call must
return the unscaled call's fields, each times its power of 2: bit for bit where every entry of
that is normal, else within 1e-10 of the field's largest entry. Past its upper end, where a
field overflows, the call must raise NumericalError; past its lower end it may, or return. No
call may raise another error that blames a finite input. The categorical recipes have nothing
to scale. Each entry point runs below ``decomp._OVERLAP_FLOOR`` with BLAS unpinned, and above
it pinned, where a second thread may take part."""

import numpy as np
import pytest

from gmdecomp import decomp, kernel, recipes
from gmdecomp.decomp import geigen, gplssvd, gsvd
from gmdecomp.errors import NumericalError

from conftest import align_signs, random_spd

DRAWS = 4
# every candidate exponent: an input or field of size near 1 is normal and finite only inside
_EXPONENTS = np.arange(-1100, 1101)


def _svd(s, a=0, b=0, latent=None):
    """Each gsvd field's power of 2 when d scales by 2^s and the row and column metrics' roots
    by 2^a and 2^b; a gplssvd's latent scores lx and ly scale by the powers in `latent`."""
    law = dict(d=s, d_full=s, l=2 * s, l_full=2 * s, u=0, v=0, p=-a, q=-b, fi=a + s, fj=b + s)
    return law if latent is None else dict(law, lx=latent[0], ly=latent[1])


def _eig(s, a=0):
    """Each geigen field's power of 2 when l scales by 2^s, s even, and the metric's root by
    2^a."""
    return dict(l=s, l_full=s, d=s // 2, d_full=s // 2, v=0, q=-a, fj=a + s // 2)


def _metric(rng, kind, n):
    """None, weights, or a dense metric whose largest entry, 0.6 on the diagonal, and spectrum,
    in [0.3, 0.9], let the largest metric exponent put its entries above DBL_MAX / 2, where
    w + w' overflows, with its eigenvalues finite."""
    if kind != "dense":
        return None if kind == "identity" else rng.uniform(0.5, 2.0, n)
    off = rng.normal(size=(n, n))
    off = np.triu(off, 1) + np.triu(off, 1).T
    return 0.6 * np.eye(n) + 0.3 * off / np.abs(off).sum(axis=1).max()


def _distances(rng, n, dim):
    points = rng.normal(size=(n, dim))
    return np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))


def _eigen_tol(law):
    return np.ldexp(kernel.SQRT_EPS, law["l"])


def _geigen(kind):
    def make(rng, big):
        n = 150 if big else 8
        return dict(x=random_spd(rng, n) / n), dict(w=_metric(rng, kind, n))

    def call(data, metrics, law):
        return geigen(data["x"], w=metrics["w"], tol=_eigen_tol(law))
    return make, call, lambda j, i: _eig(j + 2 * i, i), 2


def _gsvd(kind):
    def make(rng, big):
        n, mx = (150, 120) if big else (8, 5)
        x = rng.normal(size=(n, mx))
        return dict(x=x), dict(lw=_metric(rng, kind, n), rw=_metric(rng, kind, mx))

    def call(data, metrics, law):
        return gsvd(data["x"], tol=None, **metrics)
    return make, call, lambda j, i: _svd(j + 2 * i, i, i), 1


def _gplssvd(kind):
    def make(rng, big):
        n, mx, my = (150, 120, 110) if big else (8, 5, 4)
        return (dict(x=rng.normal(size=(n, mx)), y=rng.normal(size=(n, my))),
                dict(xlw=_metric(rng, kind, n), ylw=_metric(rng, kind, n),
                     xrw=_metric(rng, kind, mx), yrw=_metric(rng, kind, my)))

    def call(data, metrics, law):
        return gplssvd(data["x"], data["y"], tol=None, **metrics)
    return make, call, lambda j, i: _svd(2 * j + 4 * i, i, i, (j + 2 * i, j + 2 * i)), 1


def _pca(route):
    def make(rng, big):
        return dict(data=rng.normal(size=(150, 120) if big else (8, 5))), {}

    def call(data, metrics, law):
        tol = _eigen_tol(law) if route.startswith("eigen") else kernel.EPS
        return recipes.pca(data["data"], route=route, tol=tol)
    # the covariance scales by 4^j, a correlation and z-scores not at all, and triplet_metric's
    # column metric by 4^-j
    law = dict(eigen_cov=lambda j, i: _eig(2 * j), eigen_cor=lambda j, i: _eig(0),
               triplet_scaled=lambda j, i: _svd(0), triplet_metric=lambda j, i: _svd(0, 0, -j))
    return make, call, law[route], 1


def _two_tables(method, law, scale=False):
    # x's and y's centred column spaces meet only at 0, or canonical correlations of 1 would
    # leave their vectors unset; at 400 rows, both sides' map-back reaches the overlap floor
    def make(rng, big):
        n, mx, my = (400, 150, 120) if big else (12, 4, 3)
        return dict(x=rng.normal(size=(n, mx)), y=rng.normal(size=(n, my))), {}

    def call(data, metrics, _):
        return method(data["x"], data["y"], scale=scale, tol=None)
    return make, call, law, 1


def _mds(rng, big):
    return dict(dist=_distances(rng, 150 if big else 8, 3)), {}


def _weighted_mds(rng, big):
    # points in n dimensions and masses summing to 1.5 keep every eigenvalue away from 0, and
    # the negative one near the others: then each field is set to far within 1e-10
    n = 150 if big else 8
    masses = rng.uniform(0.5, 2.0, n)
    return dict(dist=_distances(rng, n, n), masses=1.5 * masses / masses.sum()), {}


def _ca(rng, big):
    return dict(counts=rng.poisson(5.0, size=(150, 120) if big else (8, 5)) + 1.0), {}


ENTRIES = {
    **{f"geigen-{kind}": _geigen(kind) for kind in ("identity", "diagonal", "dense")},
    **{f"gsvd-{kind}": _gsvd(kind) for kind in ("identity", "diagonal", "dense")},
    **{f"gplssvd-{kind}": _gplssvd(kind) for kind in ("identity", "diagonal", "dense")},
    **{f"pca-{route}": _pca(route) for route in recipes.PCA_ROUTES},
    "mds": (_mds, lambda data, metrics, law: recipes.mds(data["dist"], tol=_eigen_tol(law)),
            lambda j, i: _eig(2 * j), 1),
    # the masses are not scaled: they set the centring
    "weighted_mds": (_weighted_mds,
                     lambda data, metrics, law: recipes.weighted_mds(data["dist"], data["masses"]),
                     lambda j, i: _eig(2 * j), 1),
    "ca": (_ca, lambda data, metrics, law: recipes.ca(data["counts"]), lambda j, i: _svd(0), 1),
    "pls": _two_tables(recipes.pls, lambda j, i: _svd(2 * j, 0, 0, (j, j))),
    # x's column metric is pinv(x'x), whose roots scale by 2^-j; so is y's for cca
    "rrr": _two_tables(recipes.rrr, lambda j, i: _svd(j, -j, 0, (0, j))),
    "cca": _two_tables(recipes.cca, lambda j, i: _svd(0, -j, -j, (0, 0))),
    # with their default scaling the three take z-scores, which do not scale at all
    **{f"z-scored-{method.__name__}": _two_tables(method, lambda j, i: _svd(0, 0, 0, (0, 0)), True)
       for method in (recipes.pls, recipes.rrr, recipes.cca)},
}
_SKIPPED = {"masses"}  # inputs that are not scaled


def _normal(a, powers):
    """For each of `powers`, whether every nonzero entry of a * 2^power is normal and finite."""
    _, e = np.frexp(np.abs(a[a != 0]))
    return (powers >= -1021 - e.min()) & (powers <= 1024 - e.max())


def _draw(rng, data, metrics, base, law, step, extreme=None, past=False):
    """(j, i): a data exponent and a metric exponent where the scaled inputs and each field's
    largest entry are normal and finite: drawn uniformly, or, if `extreme` is max or min, the
    metric exponent furthest that way that leaves a data exponent, and the furthest of those;
    with `past`, the next data exponent beyond that one, where the inputs are still normal and
    finite, or None."""
    dense = [m for m in metrics.values() if m is not None]
    metric_ok = _EXPONENTS == 0
    if dense:
        metric_ok = np.logical_and.reduce([_normal(m, 2 * _EXPONENTS) for m in dense])
    data_ok = _EXPONENTS % step == 0
    for name, a in data.items():
        if name not in _SKIPPED:
            data_ok &= _normal(a, _EXPONENTS)
    twice = law(2, 0)  # each power at j = 2: twice its slope in j, as d = l/2 may be j/2
    candidates = _EXPONENTS[metric_ok]
    candidates = rng.permutation(candidates) if extreme is None else \
        candidates[::-1] if extreme is max else candidates
    for i in candidates:
        ok, offset = data_ok.copy(), law(0, i)
        for name, field in base.items():
            if np.any(field):
                largest = np.abs(field).max(keepdims=True)
                ok &= _normal(largest, twice[name] * _EXPONENTS // 2 + offset[name])
        if np.any(ok):
            j = rng.choice(_EXPONENTS[ok]) if extreme is None else extreme(_EXPONENTS[ok])
            if past:
                j += step if extreme is max else -step
                return (int(j), int(i)) if data_ok[_EXPONENTS == j].any() else None
            return int(j), int(i)
    raise AssertionError("no exponents to draw")


def _all_normal(a):
    """Whether every nonzero entry of `a` is normal and finite."""
    a = np.abs(a[a != 0])
    return bool(np.all((a >= np.finfo(float).tiny) & np.isfinite(a)))


@pytest.fixture(params=["below-the-floor", "above-the-floor"])
def big(request, monkeypatch):
    """Whether the inputs are above the overlap floor, with BLAS pinned and 2 CPUs, where a
    second thread may take part, or below it with BLAS unpinned."""
    if request.param == "below-the-floor":
        request.getfixturevalue("blas_default")
        return False
    request.getfixturevalue("blas_one_thread")
    monkeypatch.setattr(decomp, "cpu_count", lambda: 2)
    return True


@pytest.mark.parametrize("name", ENTRIES)
def test_scaling_by_a_power_of_2_scales_each_field_or_raises_numerical_error(name, big):
    make, call, law, step = ENTRIES[name]
    rng = np.random.default_rng(sorted(ENTRIES).index(name))
    data, metrics = make(rng, big)
    base = call(data, metrics, law(0, 0)).fields()
    # both ends, just past them, then uniformly
    draws = [(extreme, past) for past in (False, True) for extreme in (max, min)]
    for extreme, past in draws + [(None, False)] * DRAWS:
        drawn = _draw(rng, data, metrics, base, law, step, extreme, past)
        if drawn is None:  # past that end, an input leaves the normal range
            continue
        j, i = drawn
        powers = law(j, i)
        scaled = {k: a if k in _SKIPPED else np.ldexp(a, j) for k, a in data.items()}
        weighted = {k: None if m is None else np.ldexp(m, 2 * i) for k, m in metrics.items()}
        with np.errstate(over="ignore"):
            want = {field: np.ldexp(f, powers[field]) for field, f in base.items()}
        overflows = not all(np.all(np.isfinite(f)) for f in want.values())
        try:
            out = call(scaled, weighted, powers).fields()
        except NumericalError as exc:
            assert type(exc) is NumericalError and past, (j, i, exc)
            continue
        assert not overflows, (j, i)
        if past:  # below the range, a field underflows
            continue
        assert out.keys() == base.keys()
        for field, expected in want.items():
            got = out[field]
            assert got.shape == expected.shape, (j, i, field)
            if _all_normal(expected):
                assert got.tobytes() == expected.tobytes(), (j, i, field)
                continue
            if got.ndim == 2:
                got = align_signs(got, expected)
            largest = np.abs(expected).max()
            assert np.abs(got - expected).max() <= 1e-10 * largest, (j, i, field)


def test_unscaled_rrr_and_cca_answer_whatever_the_scale_of_x():
    # near 2^510, x'x has entries above DBL_MAX / 2; near 2^-540, it underflows; x is normalized
    # first, and d does not depend on x's scale
    x = np.random.default_rng(0).normal(size=(20, 3))
    y = np.random.default_rng(1).normal(size=(20, 3))
    for method in (recipes.rrr, recipes.cca):
        want = method(x, y, scale=False).d
        for j in (510, -540, 1000, -1000):
            assert method(np.ldexp(x, j), y, scale=False).d.tobytes() == want.tobytes(), j


@pytest.mark.parametrize("name", ["pca-eigen_cor", "pca-triplet_scaled", "z-scored-pls",
                                  "z-scored-rrr", "z-scored-cca"])
@pytest.mark.parametrize("j", [540, -540, 1000, -1000])
def test_a_scale_free_route_gives_the_unscaled_answer_at_the_ends_of_the_range(name, j):
    # the table is normalized by one power of 2, which correlations and z-scores do not see
    make, call, _, _ = ENTRIES[name]
    data, _ = make(np.random.default_rng(31), False)
    want = call(data, {}, _eig(0)).fields()
    got = call({k: np.ldexp(a, j) for k, a in data.items()}, {}, _eig(0)).fields()
    assert {k: a.tobytes() for k, a in got.items()} == {k: a.tobytes() for k, a in want.items()}


@pytest.mark.parametrize("j", [300, 600, 1000])
def test_large_entries_that_meet_only_zeros_leave_the_answer_of_the_entries_that_meet(j):
    # x's large entries, near 2^j, sit on rows where y is 0, and y's where x is 0; a row metric
    # of 0 does the same. Normalized, the other rows are near 2^-j, so the matrix to decompose
    # is about 2^-2j: below the normal range at 2^600, it is formed again 2^1000 higher, and
    # at 2^300 it is normalized, so l is not lost to underflow either
    big = 2.0**j
    calls = [
        lambda tol: gplssvd([[big], [0.0], [1.0]], [[0.0], [big], [1.0]], tol=tol),
        lambda tol: gplssvd([[big], [1.0]], [[big], [1.0]], xlw=[0.0, 1.0], ylw=[0.0, 1.0],
                            tol=tol),
        lambda tol: recipes.pls([[big], [0.0], [1.0]], [[0.0], [big], [1.0]], tol=tol,
                                center=False, scale=False),
        lambda tol: gsvd([[big], [1.0]], lw=[0.0, 1.0], tol=tol),
        lambda tol: geigen(np.diag([big, 1.0]), w=[0.0, 1.0], tol=tol),
    ]
    for i, call in enumerate(calls):
        for tol in (None, 0.5):
            out = call(tol)
            assert out.d[0] == 1.0 and out.l[0] == 1.0, (i, tol, out.d, out.l)


def test_random_tables_whose_large_rows_never_meet_give_the_answer_of_the_rows_that_do():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(30, 3)), rng.normal(size=(30, 2))
    want = gplssvd(x[20:], y[20:])
    x[:10], x[10:20], y[:10] = np.ldexp(x[:10], 600), 0.0, 0.0
    y[10:20] = np.ldexp(y[10:20], 600)
    got = gplssvd(x, y)
    assert got.n_retained == want.n_retained == 2
    for field in ("d", "l_full", "u", "v", "p", "q", "fi", "fj"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), field


def test_an_l_past_dbl_max_is_refused_where_the_tables_large_rows_meet_zeros():
    # d is near 2^601, so l overflows; normalized, x' y was about 2^-600 and l underflowed to 0
    x = [[2.0**600, 1.0], [0.0, 2.0], [1.0, 0.0]]
    y = [[0.0, 1.0], [2.0**600, 0.0], [1.0, 3.0]]
    with pytest.raises(NumericalError, match="l_full"):
        gplssvd(x, y, tol=None)


def test_products_past_the_reach_of_a_retry_are_numerical():
    # each table spans 2^1022, and x' y is 2^-2046 of the product of their largest entries:
    # formed again 2^1000 higher it is still subnormal, so the call refuses, naming the underflow
    x, y = [[2.0**1000], [0.0], [2.0**-22]], [[0.0], [2.0**1000], [2.0**-22]]
    with pytest.raises(NumericalError, match="formed from the normalized inputs underflowed"):
        gplssvd(x, y, tol=None)
