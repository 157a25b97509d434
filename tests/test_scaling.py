"""Scaling a call's input by a power of 2 is exact, so it scales each result field by a known
power of 2 (the idea behind Anderson 2017, "Algorithm 978: Safe Scaling in the Level 1 BLAS").

Each entry point is called on its data times 2^j and its metrics times 4^i, whose roots then
scale by 2^i, for exponents drawn over the whole range where the scaled input and the expected
fields are finite and normal. A tolerance is passed scaled as the values it is compared with,
or None. Each call must return the unscaled call's fields, each rescaled by its power of 2,
within 1e-10 of the field's largest entry and up to column sign, or raise NumericalError: never
another error that blames a finite input, and never a NaN. The categorical recipes have nothing
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


def _draw(rng, data, metrics, base, law, step, extreme=None):
    """(j, i): a data exponent and a metric exponent where the scaled inputs and each field's
    largest entry are normal and finite: drawn uniformly, or, if `extreme` is max or min, the
    metric exponent furthest that way that leaves a data exponent, and the furthest of those."""
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
            return int(j), int(i)
    raise AssertionError("no exponents to draw")


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
    returned = 0
    for extreme in (max, min) + (None,) * DRAWS:  # both ends, then uniformly
        j, i = _draw(rng, data, metrics, base, law, step, extreme)
        powers = law(j, i)
        scaled = {k: a if k in _SKIPPED else np.ldexp(a, j) for k, a in data.items()}
        weighted = {k: None if m is None else np.ldexp(m, 2 * i) for k, m in metrics.items()}
        try:
            out = call(scaled, weighted, powers).fields()
        except NumericalError as exc:
            assert type(exc) is NumericalError, (j, i, exc)
            continue
        assert out.keys() == base.keys()
        for field, want in base.items():
            got = np.ldexp(out[field], -powers[field])
            assert got.shape == want.shape, (j, i, field)
            if got.ndim == 2:
                got = align_signs(got, want)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), (j, i, field)
        returned += 1
    assert returned, "every draw raised NumericalError"


def test_unscaled_rrr_and_cca_take_gram_matrices_past_half_the_largest_double():
    # x'x has entries above DBL_MAX / 2: exactly symmetric, it is halved before it is added
    x = np.random.default_rng(0).normal(size=(20, 3)) * 2.5e153
    y = np.random.default_rng(1).normal(size=(20, 3))
    assert recipes.rrr(x, y, scale=False).d.tolist() == [
        1.2660262855048017, 0.7790271014937515, 0.09531943211589161]
    assert recipes.cca(x, y, scale=False).d.tolist() == [
        0.31291028322042097, 0.1884989566477156, 0.04200366110484282]
