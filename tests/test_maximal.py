import warnings
from collections import OrderedDict

import numpy as np
import pytest

import sparse_harmonics.maximal as maximal_module
from sparse_harmonics.grid import Domain, DyadicCube, GridFunction, Interval
from sparse_harmonics.maximal import MaximalVariant, maximal, multilinear_maximal
from sparse_harmonics.orlicz import llog

from oracles import brute_weighted_maximal

DOM = Domain(0.0, 1.0, 8)


def rand_f(seed, dom=DOM, lo=0.0, hi=3.0):
    rng = np.random.default_rng(seed)
    return GridFunction(dom, rng.uniform(lo, hi, size=dom.n_cells))


def test_indicator_of_whole_domain():
    f = GridFunction.constant(DOM, 1.0)
    m1 = maximal(f).samples
    m2 = maximal(f, MaximalVariant("iterated", k=2)).samples
    np.testing.assert_allclose(m1, 1.0, rtol=1e-12)
    np.testing.assert_allclose(m2, 1.0, rtol=1e-12)


def test_constant_through_all_variants():
    c = 1.7
    f = GridFunction.constant(DOM, c)
    w = rand_f(0, lo=0.5, hi=2.0)
    assert np.allclose(maximal(f).samples, c)
    assert np.allclose(maximal(f, MaximalVariant("power", r=2.0)).samples, c)
    assert np.allclose(maximal(f, MaximalVariant("iterated", k=3)).samples, c)
    assert np.allclose(
        maximal(f, MaximalVariant("weighted_dyadic", weight=w)).samples, c
    )
    phi = llog(1.0)
    inv1 = phi.inverse(np.array([1.0]))[0]
    got = maximal(f, MaximalVariant("orlicz", phi=phi)).samples
    np.testing.assert_allclose(got, c / inv1, rtol=1e-9)


def test_dyadic_maximal_of_small_indicator_brute_force():
    # compare against a literal scan over every base-lattice cube
    dom = Domain(0.0, 1.0, 6)
    f = GridFunction.indicator(dom, Interval(0.0, 2.0 ** -4))
    got = maximal(f, MaximalVariant("hl", cube_scope="dyadic")).samples
    N = dom.n_cells
    want = np.zeros(N)
    for level in range(dom.resolution_log2 + 1):
        c = N >> level
        for m in range(1 << level):
            avg = f.samples[m * c : (m + 1) * c].mean()
            want[m * c : (m + 1) * c] = np.maximum(want[m * c : (m + 1) * c], avg)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_maximal_matches_brute_force_over_every_cube():
    # every cube of every lattice, averaged literally; a cube sticking out
    # of the domain averages over its full width
    dom = Domain(0.0, 1.0, 5)
    f = rand_f(7, dom)
    N = dom.n_cells
    want = np.zeros(N)
    for lid in range(4):
        for level in range(dom.resolution_log2 + 1):
            for t in range(-1, 1 << level):
                s, e, full = DyadicCube(lid, level, t).cell_bounds(dom)
                lo, hi = max(s, 0), min(e, N)
                if hi <= lo:
                    continue
                want[lo:hi] = np.maximum(want[lo:hi], f.samples[lo:hi].sum() / full)
    np.testing.assert_allclose(maximal(f).samples, want, rtol=1e-12)


def test_maximal_dominates_f():
    for seed in range(5):
        f = rand_f(seed)
        assert np.all(maximal(f).samples >= np.abs(f.samples) - 1e-12)


def test_sublinear_and_homogeneous():
    f, g = rand_f(1), rand_f(2)
    mf, mg = maximal(f).samples, maximal(g).samples
    mfg = maximal(f + g).samples
    assert np.all(mfg <= mf + mg + 1e-12)
    np.testing.assert_allclose(maximal(3.5 * f).samples, 3.5 * mf, rtol=1e-12)


def test_llogl_comparable_to_m2():
    phi = llog(1.0)
    ratios = []
    for seed in range(10):
        f = rand_f(seed, lo=0.0, hi=5.0)
        mphi = maximal(f, MaximalVariant("orlicz", phi=phi)).samples
        m2 = maximal(f, MaximalVariant("iterated", k=2)).samples
        r = mphi / m2
        ratios.append((r.min(), r.max()))
    c_low = min(r[0] for r in ratios)
    c_high = max(r[1] for r in ratios)
    assert 0.01 < c_low <= c_high < 100.0


def test_multilinear_constant_and_domination():
    ones = [GridFunction.constant(DOM, 1.0)] * 2
    np.testing.assert_allclose(multilinear_maximal(ones).samples, 1.0, rtol=1e-12)
    fs = [rand_f(3), rand_f(4)]
    mm = multilinear_maximal(fs).samples
    prod = maximal(fs[0]).samples * maximal(fs[1]).samples
    assert np.all(mm <= prod + 1e-12)


def test_multilinear_llogl_constant_value():
    phi = llog(1.0)
    inv1 = phi.inverse(np.array([1.0]))[0]
    fs = [GridFunction.constant(DOM, 1.0)] * 2
    got = multilinear_maximal(fs, flavor="llogl").samples
    np.testing.assert_allclose(got, (1.0 / inv1) ** 2, rtol=1e-8)


def test_mixed_flavor_below_full_llogl():
    for seed in range(12):
        fs = [rand_f(seed), rand_f(seed + 1000), rand_f(seed + 2000)]
        full = multilinear_maximal(fs, flavor="llogl").samples
        mixed = multilinear_maximal(fs, flavor="mixed", l=2).samples
        plain = multilinear_maximal(fs, flavor="plain").samples
        comp = np.minimum(mixed, plain)
        assert np.all(comp <= full * (1.0 + 1e-8) + 1e-12)


@pytest.fixture
def lux_calls(monkeypatch):
    """An empty product memo, and a list that counts luxemburg_per_cube calls."""
    monkeypatch.setattr(maximal_module, "_PRODUCT_MEMO", OrderedDict())
    calls = []
    solve = maximal_module.luxemburg_per_cube

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(maximal_module, "luxemburg_per_cube", counted)
    return calls


def test_multilinear_memo_repeats_bit_for_bit(lux_calls):
    fs = [rand_f(5, lo=-1.0, hi=1.0), rand_f(6)]
    first = multilinear_maximal(fs, flavor="mixed", l=1)
    n_first = len(lux_calls)
    assert n_first > 0
    again = multilinear_maximal(fs, flavor="mixed", l=1)
    assert len(lux_calls) == n_first
    assert again.samples.tobytes() == first.samples.tobytes()


def test_multilinear_memo_hands_out_copies(lux_calls):
    fs = [rand_f(7)]
    first = multilinear_maximal(fs, flavor="llogl")
    kept = first.samples.copy()
    first.samples[:] = -1.0
    second = multilinear_maximal(fs, flavor="llogl")
    np.testing.assert_array_equal(second.samples, kept)
    second.samples[0] = 0.0
    np.testing.assert_array_equal(multilinear_maximal(fs, flavor="llogl").samples, kept)


def test_multilinear_memo_keys_on_content(lux_calls):
    f = rand_f(8, lo=-1.0, hi=1.0)
    base = multilinear_maximal([f], flavor="llogl").samples
    n_first = len(lux_calls)
    # equal content in a fresh array, and -f (same |f|), are hits
    for same in (GridFunction(DOM, f.samples.copy()), -1.0 * f):
        assert multilinear_maximal([same], flavor="llogl").samples.tobytes() == base.tobytes()
    assert len(lux_calls) == n_first
    # 3f is new content: a miss, and the L log L norm is homogeneous
    tripled = multilinear_maximal([3.0 * f], flavor="llogl").samples
    assert len(lux_calls) == 2 * n_first
    np.testing.assert_allclose(tripled, 3.0 * base, rtol=4e-12, atol=0.0)
    # the same content under another flavor is another entry
    assert not np.array_equal(multilinear_maximal([f], flavor="plain").samples, base)


def test_multilinear_memo_stays_within_its_size(lux_calls):
    size = maximal_module._PRODUCT_MEMO_SIZE
    dom = Domain(0.0, 1.0, 5)
    fs = [[rand_f(100 + i, dom)] for i in range(size + 5)]
    for f in fs:
        multilinear_maximal(f, flavor="llogl")
        assert len(maximal_module._PRODUCT_MEMO) <= size
    n_each = len(lux_calls) // len(fs)
    assert len(lux_calls) == n_each * len(fs)
    # the newest input is a hit; the least recently used one went first
    multilinear_maximal(fs[-1], flavor="llogl")
    assert len(lux_calls) == n_each * len(fs)
    multilinear_maximal(fs[0], flavor="llogl")
    assert len(lux_calls) == n_each * (len(fs) + 1)


def test_weighted_dyadic_l2_bound():
    worst = 0.0
    for seed in range(8):
        f = rand_f(seed, lo=0.0, hi=4.0)
        w = rand_f(seed + 50, lo=0.2, hi=5.0)
        mw = maximal(f, MaximalVariant("weighted_dyadic", weight=w)).samples
        num = np.sqrt((mw ** 2 * w.samples).sum())
        den = np.sqrt((f.samples ** 2 * w.samples).sum())
        worst = max(worst, num / den)
    assert worst <= 4.0


@pytest.mark.parametrize("L", [7, 10])
def test_weighted_dyadic_steep_weight_matches_slice_sums(L):
    # w = |x - 0.37|^6: differences of a global prefix sum gave w(Q) <= 0
    # on the cubes near 0.37, and with it non-finite samples
    dom = Domain(0.0, 1.0, L)
    w = GridFunction.from_callable(dom, lambda x: np.abs(x - 0.37) ** 6)
    f = rand_f(4, dom)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = maximal(f, MaximalVariant("weighted_dyadic", weight=w)).samples
    want = brute_weighted_maximal(f.samples, w.samples, dom)
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_variant_validation():
    with pytest.raises(ValueError):
        MaximalVariant("power", r=0.5)
    with pytest.raises(ValueError):
        MaximalVariant("orlicz")
    with pytest.raises(ValueError):
        MaximalVariant("nonsense")
    with pytest.raises(ValueError):
        multilinear_maximal([rand_f(0)], flavor="mixed", l=5)
