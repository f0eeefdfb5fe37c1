import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparse_harmonics.maximal as maximal_module
import sparse_harmonics.operators as operators_module
import sparse_harmonics.weights as weights_module
from sparse_harmonics.grid import MEMO, Domain, DyadicCube, GridFunction, family_for
from sparse_harmonics.harness import calderon_bundle, hilbert_bundle, stein_bundle
from sparse_harmonics.maximal import luxemburg_per_cube, maximal, multilinear_maximal
from sparse_harmonics.maximal import _llogl_bounds, _llogl_upper, _llogl_young
from sparse_harmonics.operators import bmo_norm
from sparse_harmonics.orlicz import llog
from sparse_harmonics.weights import Weight, ainfty_constants, ap_constant

from oracles import (
    all_pairs_ainfty,
    bracket_luxemburg_per_cube,
    per_entry_bmo,
    per_entry_maximal,
    per_level_maximal,
)

DOM = Domain(0.0, 1.0, 8)


def rand_f(seed, dom=DOM, lo=0.0, hi=3.0):
    rng = np.random.default_rng(seed)
    return GridFunction(dom, rng.uniform(lo, hi, size=dom.n_cells))


def test_indicator_of_whole_domain():
    f = GridFunction.constant(DOM, 1.0)
    m1 = maximal(f).samples
    m2 = maximal(f, k=2).samples
    np.testing.assert_allclose(m1, 1.0, rtol=1e-12)
    np.testing.assert_allclose(m2, 1.0, rtol=1e-12)


def test_constant_through_all_variants():
    c = 1.7
    f = GridFunction.constant(DOM, c)
    assert np.allclose(maximal(f).samples, c)
    assert np.allclose(maximal(f, k=3).samples, c)
    assert np.allclose(multilinear_maximal([f]).samples, c)
    phi = llog(1.0)
    inv1 = phi.inverse(np.array([1.0]))[0]
    got = multilinear_maximal([f], "llogl").samples
    np.testing.assert_allclose(got, c / inv1, rtol=1e-9)


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


def test_llogl_comparable_to_m2(empty_memo):
    ratios = []
    for seed in range(10):
        f = rand_f(seed, lo=0.0, hi=5.0)
        mphi = multilinear_maximal([f], "llogl").samples
        m2 = maximal(f, k=2).samples
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


@pytest.fixture
def empty_memo():
    """An empty kernel memo: every multilinear_maximal input is a miss."""
    MEMO.clear()


@pytest.fixture
def lux_calls(empty_memo, monkeypatch):
    """An empty kernel memo, and a list that counts luxemburg_per_cube calls."""
    calls = []
    solve = maximal_module.luxemburg_per_cube

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(maximal_module, "luxemburg_per_cube", counted)
    return calls


def test_multilinear_memo_repeats_bit_for_bit(lux_calls):
    fs = [rand_f(5, lo=-1.0, hi=1.0), rand_f(6)]
    first = multilinear_maximal(fs, flavor="llogl")
    n_first = len(lux_calls)
    assert n_first > 0
    again = multilinear_maximal(fs, flavor="llogl")
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
    size = MEMO.size
    dom = Domain(0.0, 1.0, 5)
    fs = [[rand_f(100 + i, dom)] for i in range(size + 5)]
    for f in fs:
        multilinear_maximal(f, flavor="llogl")
        assert len(MEMO) <= size
    n_each = len(lux_calls) // len(fs)
    assert len(lux_calls) == n_each * len(fs)
    # the newest input is a hit; the least recently used one went first
    multilinear_maximal(fs[-1], flavor="llogl")
    assert len(lux_calls) == n_each * len(fs)
    multilinear_maximal(fs[0], flavor="llogl")
    assert len(lux_calls) == n_each * (len(fs) + 1)


# -- the same memo serves M^k, T_b f and A_p ------------------------------------

def _counted(monkeypatch, module, *names) -> list:
    """A list that gets the name of each call of module.name, for names."""
    calls = []
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_maximal_memo_keys_on_abs_f_and_k(empty_memo, monkeypatch):
    calls = _counted(monkeypatch, maximal_module, "_product_maximal")
    f = rand_f(9, lo=-1.0, hi=1.0)
    first = maximal(f, 2).samples
    assert len(calls) == 2  # M f, then M(M f)
    # -f has the same |f|: a hit, equal byte for byte
    assert maximal(-1.0 * f, 2).samples.tobytes() == first.tobytes()
    assert len(calls) == 2
    # M f was the first pass of M^2 f, and the one-input plain maximal is M f
    mf = maximal(f, 1).samples
    assert not np.array_equal(mf, first)
    assert multilinear_maximal([f], "plain").samples.tobytes() == mf.tobytes()
    assert len(calls) == 2


SYMBOL = rand_f(20, lo=-1.0, hi=1.0)


@pytest.mark.parametrize("make", [
    lambda b: hilbert_bundle(),
    lambda b: hilbert_bundle([b]),
    lambda b: calderon_bundle(1, [b, b], [0, 1]),
])
def test_bundle_apply_memo_repeats_bit_for_bit(make, empty_memo, monkeypatch):
    calls = _counted(monkeypatch, operators_module, "calderon_apply", "hilbert_transform")
    bundle = make(SYMBOL)
    fs = [rand_f(21 + i, lo=-1.0, hi=1.0) for i in range(bundle.m)]
    first = bundle.apply(fs)
    n_first = len(calls)
    assert n_first > 0
    # a fresh bundle over fresh arrays of the same content is a hit
    again = make(GridFunction(DOM, SYMBOL.samples.copy())).apply(
        [GridFunction(DOM, f.samples.copy()) for f in fs])
    assert len(calls) == n_first
    assert again.samples.tobytes() == first.samples.tobytes()


def test_bundle_apply_memo_hands_out_copies(empty_memo):
    bundle = hilbert_bundle([SYMBOL])
    fs = [rand_f(22, lo=-1.0, hi=1.0)]
    first = bundle.apply(fs)
    kept = first.samples.copy()
    first.samples[:] = -1.0
    second = bundle.apply(fs)
    np.testing.assert_array_equal(second.samples, kept)
    second.samples[0] = 0.0
    np.testing.assert_array_equal(bundle.apply(fs).samples, kept)


_BUMPED = GridFunction(DOM, SYMBOL.samples + np.eye(DOM.n_cells)[7])


@pytest.mark.parametrize("a, b", [
    (calderon_bundle(1, [SYMBOL], [0]), calderon_bundle(1, [SYMBOL], [1])),
    (hilbert_bundle([SYMBOL]), hilbert_bundle([_BUMPED])),
    (stein_bundle(0.75), stein_bundle(1.0)),
], ids=["slots", "symbol-sample", "stein-alpha"])
def test_bundle_apply_memo_never_shares_an_entry(a, b, empty_memo):
    fs = [rand_f(23 + i, lo=-1.0, hi=1.0) for i in range(a.m)]
    alone = b.apply(fs).samples
    assert not np.array_equal(a.apply(fs).samples, alone)
    MEMO.clear()
    a.apply(fs)
    assert b.apply(fs).samples.tobytes() == alone.tobytes()


def test_bundle_apply_memo_keys_on_dtype(empty_memo):
    f = rand_f(24, lo=-1.0, hi=1.0)
    bundle = hilbert_bundle([SYMBOL])
    real = bundle.apply([f]).samples
    # a shared entry would hand back a real array for the complex input
    cplx = bundle.apply([GridFunction(DOM, f.samples.astype(np.complex128))]).samples
    assert real.dtype == np.float64
    assert cplx.dtype == np.complex128
    # complex arithmetic rounds otherwise than real arithmetic
    np.testing.assert_allclose(cplx.real, real, rtol=1e-12, atol=1e-15)
    # the same bytes read as int64 are other numbers: only the dtype tells
    # the two inputs apart
    ints = GridFunction(DOM, f.samples.view(np.int64))
    got = bundle.apply([ints]).samples
    MEMO.clear()
    assert bundle.apply([ints]).samples.tobytes() == got.tobytes()


def test_ap_constant_memo_keys_on_content_and_p(empty_memo, monkeypatch):
    calls = _counted(monkeypatch, weights_module, "_ap_sup")
    samples = rand_f(25, lo=0.5, hi=2.0).samples
    first = ap_constant(Weight(GridFunction(DOM, samples)), 2.0)
    assert ap_constant(Weight(GridFunction(DOM, samples.copy()), "fresh"), 2.0) == first
    assert len(calls) == 1
    ap_constant(Weight(GridFunction(DOM, samples)), 3.0)
    assert len(calls) == 2


def test_ainfty_memo_keys_on_content(empty_memo, monkeypatch):
    calls = _counted(monkeypatch, weights_module, "_ainfty_sup")
    samples = rand_f(26, lo=0.5, hi=2.0).samples
    first = Weight(GridFunction(DOM, samples)).ainfty()
    # a second Weight over a copy of the samples is a hit
    assert ainfty_constants(Weight(GridFunction(DOM, samples.copy()), "fresh")) == first
    assert len(calls) == 1
    MEMO.clear()
    again = Weight(GridFunction(DOM, samples)).ainfty()
    assert len(calls) == 2
    assert [x.hex() for x in again] == [x.hex() for x in first]


def test_weight_changed_in_place_reads_its_new_constants(empty_memo):
    w = Weight(GridFunction.constant(DOM, 1.0))
    assert w.ainfty() == (1.0, 0.5)
    assert w.ap(2.0) == 1.0
    w.samples[:DOM.n_cells // 2] = 4.0  # the step 1 + 3 chi_[0, 1/2)
    assert w.ap(2.0) == 1.5625
    assert w.ainfty() == all_pairs_ainfty(w)
    assert w.ainfty() == pytest.approx((17.0 / 12.0, 2.0 / 3.0), rel=1e-12)


def test_bmo_memo_keys_on_content(empty_memo, monkeypatch):
    calls = _counted(monkeypatch, operators_module, "_bmo_sup")
    first = bmo_norm(SYMBOL)
    assert first == per_entry_bmo(SYMBOL)
    # a symbol passed twice, and a fresh array of its content, are hits
    assert calderon_bundle(1, [SYMBOL, GridFunction(DOM, SYMBOL.samples.copy())], [0, 1]) \
        .symbol_norm_product == first * first
    assert len(calls) == 1
    MEMO.clear()
    assert bmo_norm(SYMBOL).hex() == first.hex()
    assert len(calls) == 2


def test_symbol_norm_product_follows_a_symbol_changed_in_place(empty_memo):
    b = GridFunction(DOM, SYMBOL.samples.copy())
    bundle = hilbert_bundle([b])
    before = bundle.symbol_norm_product
    b.samples[:] *= 3.0
    assert bundle.symbol_norm_product == per_entry_bmo(b)
    assert bundle.symbol_norm_product == pytest.approx(3.0 * before, rel=1e-12)


def _bank(dom):
    """Inputs of different shapes: uniform, a log singularity, heavy
    Cauchy tails, sparse steps, zeros and a spike."""
    rng = np.random.default_rng(dom.resolution_log2)
    x = dom.cell_centers()
    N = dom.n_cells
    steps = np.zeros(N)
    steps[rng.choice(N, size=max(1, N // 16), replace=False)] = rng.uniform(1.0, 9.0, max(1, N // 16))
    spike = np.ones(N)
    spike[N // 3] = 1e3
    return [
        rng.uniform(-1.0, 1.0, N),
        np.log(np.abs(x - 0.5)),
        1e3 * rng.standard_cauchy(N),
        np.cumsum(steps) * (rng.uniform(size=N) < 0.25),
        np.zeros(N),
        spike,
    ]


@pytest.mark.parametrize("L", [3, 5, 8, 9, 10, 12])
def test_maximal_over_level_groups_equals_the_per_entry_oracle(L):
    dom = Domain(0.0, 1.0, L)
    f = GridFunction(dom, np.random.default_rng(L).standard_cauchy(dom.n_cells))
    for k in (1, 3):
        np.testing.assert_array_equal(maximal(f, k).samples, per_entry_maximal(f, k))


@pytest.mark.parametrize("L", range(3, 13))
def test_level_groups_equal_the_per_level_oracle_bit_for_bit(L, empty_memo):
    # at L = 12 four levels make a group, so groups split each lattice's 13
    dom = Domain(0.0, 1.0, L)
    bank = [GridFunction(dom, s) for s in _bank(dom)]
    cases = [[f] for f in bank] + [[f, g] for f, g in zip(bank, bank[1:] + bank[:1])]
    for fs in cases:
        want = per_level_maximal(fs, "llogl")
        np.testing.assert_array_equal(multilinear_maximal(fs, "llogl").samples, want)
    for fs in cases[::3]:
        want = per_level_maximal(fs, "plain")
        np.testing.assert_array_equal(multilinear_maximal(fs, "plain").samples, want)


@pytest.fixture
def solved_cubes(empty_memo, monkeypatch):
    """An empty kernel memo, and a list that gets the number of cubes of
    each luxemburg_per_cube call."""
    cubes = []
    solve = maximal_module.luxemburg_per_cube

    def counted(fam, entry, absf, phi, inv1):
        cubes.append(entry.n_cubes)
        return solve(fam, entry, absf, phi, inv1)

    monkeypatch.setattr(maximal_module, "luxemburg_per_cube", counted)
    return cubes


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("L", [5, 8, 10])
def test_pruned_llogl_equals_the_per_level_oracle_at_both_extremes(L, m, solved_cubes):
    dom = Domain(0.0, 1.0, L)
    fam = family_for(dom)
    inside = sum(int(np.sum((e.lo == e.starts) & (e.hi == e.starts + e.width))) for e in fam.entries)
    total = sum(e.n_cubes for e in fam.entries)
    spike = np.ones(dom.n_cells)
    spike[dom.n_cells // 3] = 1e3
    # f = 1: every cube inside the domain ties at the sup, so only the cubes
    # that stick out are pruned; one spike: nearly every cube is pruned
    for s, solved in ((np.ones(dom.n_cells), lambda n: n == inside), (spike, lambda n: n < total // 5)):
        fs = [GridFunction(dom, s)] * m
        solved_cubes.clear()
        got = multilinear_maximal(fs, "llogl").samples
        assert solved(sum(solved_cubes) // m)
        np.testing.assert_array_equal(got, per_level_maximal(fs, "llogl"))


def _extreme_bank(dom):
    """(name, |f|) pairs from the ordinary to the edge of the float range."""
    rng = np.random.default_rng(dom.resolution_log2)
    N = dom.n_cells
    spike = np.ones(N)
    spike[N // 3] = 1e6
    return [
        ("uniform", rng.uniform(0.0, 1.0, N)),
        ("steps", np.repeat(rng.uniform(0.0, 5.0, 8), N // 8)),
        ("log", np.abs(np.log(dom.cell_centers()))),
        ("cauchy", 1e3 * np.abs(rng.standard_cauchy(N))),
        ("spike", spike),
        ("zeros", rng.uniform(0.0, 1.0, N) * (rng.uniform(size=N) < 0.03)),
        ("subnormal", rng.uniform(0.0, 1.0, N) * 1e-310),
        ("huge", rng.uniform(0.0, 1.0, N) * 1e300),
        ("tiny", rng.uniform(0.0, 1.0, N) * 1e-300),
        ("mixed", np.where(rng.uniform(size=N) < 0.5, 1e300, 1e-300) * rng.uniform(0.5, 1.0, N)),
    ]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("L", [6, 9, 12])
def test_newton_luxemburg_matches_the_illinois_oracle(L, m, monkeypatch):
    # every call multilinear_maximal makes, pruned cubes and all, against the
    # bracket solve on the same cubes: within 1e-12 and never below it; no
    # bank input takes the fallback, since a subnormal one is scaled up
    dom = Domain(0.0, 1.0, L)
    bank = _extreme_bank(dom)
    calls, fallbacks = [], []
    solve, bracket = maximal_module.luxemburg_per_cube, maximal_module.monotone_root

    def recorded(*args):
        calls.append((args, solve(*args)))
        return calls[-1][1]

    def counted(*args):
        fallbacks.append(len(args[0]))
        return bracket(*args)

    monkeypatch.setattr(maximal_module, "luxemburg_per_cube", recorded)
    monkeypatch.setattr(maximal_module, "monotone_root", counted)
    for i, (name, _) in enumerate(bank):
        pair = [bank[i], bank[(i + 1) % len(bank)]][:m]
        fs = [GridFunction(dom, f) for _, f in pair]
        calls.clear()
        fallbacks.clear()
        MEMO.clear()
        got = multilinear_maximal(fs, "llogl").samples
        assert calls
        for args, new in calls:
            old = bracket_luxemburg_per_cube(*args)
            assert np.all(np.abs(new - old) <= 1e-12 * old), name
            assert np.all(new >= old * (1.0 - 1e-12)), name
        assert fallbacks == [], name
        MEMO.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maximal_module, "luxemburg_per_cube", bracket_luxemburg_per_cube)
            want = multilinear_maximal(fs, "llogl").samples
        np.testing.assert_allclose(got, want, rtol=m * 1e-12, atol=0.0)


@pytest.mark.parametrize("L", [6, 9, 12])
def test_llogl_norms_of_a_subnormal_input_meet_the_luxemburg_condition(L, monkeypatch):
    # the prune needs every solved norm to meet its condition; solved on
    # |f| of order 1e-310 the bracket solve missed it by up to 3e-10
    dom = Domain(0.0, 1.0, L)
    (_, f), = [pair for pair in _extreme_bank(dom) if pair[0] == "subnormal"]
    calls = []
    solve = maximal_module.luxemburg_per_cube

    def recorded(*args):
        calls.append((args, solve(*args)))
        return calls[-1][1]

    monkeypatch.setattr(maximal_module, "luxemburg_per_cube", recorded)
    MEMO.clear()
    multilinear_maximal([GridFunction(dom, f)], "llogl")
    assert calls
    for (fam, entry, absf, phi, _), norms in calls:
        assert np.all(maximal_module._excess(fam, entry, absf, phi)(norms) <= 0.0)


def test_a_cube_whose_mean_underflows_gets_a_positive_norm():
    # f = 5e-324 at one cell: the mean |f| of each wider cube that holds it
    # underflows to 0, so its Newton start is inf and it takes the bracket
    # [0, max / phi^-1(1)], where lambda = 0 once read as a root; the
    # one-cell cube's max / phi^-1(1) rounds under its norm (6.3e-324)
    dom = Domain(0.0, 1.0, 6)
    fam = family_for(dom)
    group = fam.groups[0]
    f = np.zeros(dom.n_cells)
    f[5] = 5e-324
    absf = group.tile(f)
    phi, inv1 = _llogl_young()
    norms = luxemburg_per_cube(fam, group, absf, phi, inv1)
    excess = maximal_module._excess(fam, group, absf, phi)(norms)
    holds = fam.segment_max(group, absf) > 0
    assert holds.sum() == 28
    assert np.all(norms[holds] > 0.0) and np.all(excess[holds] <= 0.0)
    # the cubes that hold none keep their closed bracket [0, 0]
    assert np.all(norms[~holds] == 0.0) and np.all(excess[~holds] <= 0.0)


def test_a_newton_value_that_fails_its_check_takes_the_bracket_solve(monkeypatch):
    # Newton steps of 0 leave every cube at its Jensen end, a lower bound
    # that fails the Luxemburg check on every open cube: each must take the
    # bracket solve, which gives the bracket oracle's bits
    monkeypatch.setattr(maximal_module, "_newton_step", lambda fam, entry, absf, s: np.zeros_like(s))
    dom = Domain(0.0, 1.0, 9)
    fam = family_for(dom)
    phi, inv1 = _llogl_young()
    f = rand_f(3, dom).samples
    for g in fam.groups:
        tiled = g.tile(f)
        got = luxemburg_per_cube(fam, g, tiled, phi, inv1)
        np.testing.assert_array_equal(got, bracket_luxemburg_per_cube(fam, g, tiled, phi, inv1))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1),
       st.sampled_from(["uniform", "cauchy", "sparse", "lognormal", "constant"]))
def test_llogl_upper_bound_is_at_least_the_solved_norm(L, seed, kind):
    dom = Domain(0.0, 1.0, L)
    fam = family_for(dom)
    rng = np.random.default_rng(seed)
    N = dom.n_cells
    draw = {
        "uniform": lambda: rng.uniform(0.0, 1.0, N),
        "cauchy": lambda: np.abs(rng.standard_cauchy(N)),
        "sparse": lambda: rng.uniform(0.0, 9.0, N) * (rng.uniform(size=N) < 0.1),
        "lognormal": lambda: np.exp(rng.normal(0.0, 3.0, N)),
        # max / mean = 1 on every cube: the map's iterates all equal the
        # norm in exact arithmetic, and the floating-point check decides
        "constant": lambda: np.full(N, rng.uniform(0.1, 9.0)),
    }[kind]
    f, a = draw(), draw()
    phi, inv1 = _llogl_young()
    for g in fam.groups:
        tiled = g.tile(f)
        upper = _llogl_upper(fam.means(g, tiled), fam.segment_max(g, tiled), inv1)
        # the solve returns the upper end of a bracket 1e-12 wide, and on a
        # one-cell cube max / phi^-1(1) with phi^-1(1) 4 eps low: it may lie
        # that far above the exact norm, which the upper bound bounds
        norm = luxemburg_per_cube(fam, g, tiled, phi, inv1)
        assert np.all(upper >= norm * (1.0 - 2e-12))
        # the product bounds of two inputs hold the product of their norms
        low, up = _llogl_bounds(fam, g, [f, a], inv1)
        prod = norm * luxemburg_per_cube(fam, g, g.tile(a), phi, inv1)
        assert np.all(up >= prod * (1.0 - 4e-12))
        assert np.all(low <= prod * (1.0 + 4e-12))
    # one-cell cubes: mean = max = |f| at each cell, and the norm is the
    # closed bracket's end |f| / phi^-1(1)
    assert np.all(_llogl_upper(f, f, inv1) >= f / inv1 * (1.0 - 2e-12))


def test_variant_validation():
    # the two flavors are "plain" and "llogl"; the removed ones are refused
    for flavor in ("mixed", "power", "LLOGL"):
        with pytest.raises(ValueError, match="flavor"):
            multilinear_maximal([rand_f(0)], flavor=flavor)
    with pytest.raises(ValueError, match="at least one"):
        multilinear_maximal([], flavor="plain")
