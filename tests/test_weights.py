import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparse_harmonics.cli import make_weight
from sparse_harmonics.grid import PRUNE_MARGIN, Domain, GridFunction, cube_cells, family_for
from sparse_harmonics.maximal import maximal
from sparse_harmonics.weights import (
    Weight,
    ainfty_constants,
    ap_constant,
    clamped_power,
    log_k0_p0,
)
from sparse_harmonics import weights as weights_module
from sparse_harmonics.weights import _ainfty_bounds, _ainfty_sup, _cube_integrals, _double_table, _kept_cube_integrals

from criteria import (
    IterationError,
    MultiWeight,
    multi_ap_constant,
    reverse_holder_check,
    rubio_de_francia,
    s_u,
)
from oracles import all_pairs_ainfty, brute_ainfty, brute_ap, entry_cubes, per_entry_ap, per_entry_multi_ap

DOM = Domain(0.0, 1.0, 6)


def weight_from(fn, dom=DOM, name="w"):
    return Weight(GridFunction.from_callable(dom, fn), name)


def step_weight(seed, dom=DOM, lo=0.2, hi=5.0):
    rng = np.random.default_rng(seed)
    n_steps = rng.integers(2, 6)
    edges = np.sort(rng.integers(1, dom.n_cells, size=n_steps - 1))
    vals = rng.uniform(lo, hi, size=n_steps)
    s = np.repeat(vals, np.diff([0, *edges, dom.n_cells]))
    return Weight(GridFunction(dom, s), f"step{seed}")


ONE = weight_from(lambda x: np.ones_like(x), name="one")


def test_ap_of_one_is_one():
    for p in (1.0, 1.5, 2.0, 4.0):
        assert ap_constant(ONE, p) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
def test_ap_needs_p_in_one_to_inf(p):
    # nan and inf gave nan constants
    with pytest.raises(ValueError, match=r"need 1 <= p < inf"):
        ap_constant(ONE, p)


def test_ap_matches_brute_force():
    w = weight_from(lambda x: np.abs(x - 0.5) ** 0.5)
    got = ap_constant(w, 2.0)
    assert got == pytest.approx(brute_ap(w, 2.0), rel=1e-12)
    assert got > 1.0 and math.isfinite(got)


def test_sawyer_style_product_diverges_with_resolution():
    # u = v = |x-1/2|^{-1/2}: each is A_1-manageable at fixed resolution,
    # but cube averages of the product near the singularity blow up with L
    prev_uv = 0.0
    prev_a1 = 0.0
    for L in (8, 10, 12):
        dom = Domain(0.0, 1.0, L)
        u = weight_from(lambda x: np.abs(x - 0.5) ** -0.5, dom)
        a1 = ap_constant(u, 1.0)
        assert math.isfinite(a1) and a1 > prev_a1
        prev_a1 = a1
        uv = u.samples * u.samples
        # smallest cube centered at the singularity
        c = dom.n_cells // 2
        big = uv[c - 1 : c + 1].mean()
        assert big > prev_uv
        prev_uv = big


def test_multi_ap_one_and_brute_force():
    mw = MultiWeight((ONE, ONE), (2.0, 2.0))
    assert multi_ap_constant(mw) == pytest.approx(1.0, rel=1e-12)
    w = weight_from(lambda x: np.abs(x - 0.5) ** 0.25)
    mw2 = MultiWeight((w, w), (2.0, 2.0))
    got = multi_ap_constant(mw2)
    # literal definition sweep
    fam = family_for(DOM)
    p = 1.0
    best = -np.inf
    for e in fam.entries:
        for lo, hi in zip(e.lo, e.hi):
            chunk = w.samples[lo:hi]
            nu = (chunk ** 0.5 * chunk ** 0.5).mean()
            dual = (chunk ** -1.0).mean() ** 0.5
            best = max(best, nu * dual * dual)
    assert got == pytest.approx(best, rel=1e-12)


def test_multi_ap_characterization_trend():
    # finiteness of the multiple constant moves with the component checks
    for seed in range(20):
        w1, w2 = step_weight(seed), step_weight(seed + 100)
        mw = MultiWeight((w1, w2), (2.0, 2.0))
        c = multi_ap_constant(mw)
        p = mw.p
        comp1, comp2 = (
            ap_constant(Weight(GridFunction(DOM, clamped_power(w.samples, 1.0 - 2.0))), 2.0 * 2.0)
            for w in (w1, w2)
        )
        nu = ap_constant(mw.nu(), 2.0 * p)
        # step weights keep everything finite; all four agree on that
        assert all(map(math.isfinite, (c, comp1, comp2, nu)))


@pytest.mark.parametrize("L", [3, 5, 8, 9, 10, 12])
def test_ap_over_level_groups_equals_the_per_entry_oracles(L):
    dom = Domain(0.0, 1.0, L)
    x = dom.cell_centers()
    rng = np.random.default_rng(L)
    lognormal = Weight(GridFunction(dom, np.exp(2.0 * rng.standard_normal(dom.n_cells))))
    step = Weight(GridFunction(dom, np.where(x < 0.3, 1e-8, 1e8)))
    for w in (lognormal, step):
        for p in (1.0, 1.5, 2.0, 4.0):
            assert ap_constant(w, p) == per_entry_ap(w, p)
    for exponents in ((1.0, 2.0), (1.5, 4.0), (1.0, 1.0)):
        mw = MultiWeight((lognormal, step), exponents)
        assert multi_ap_constant(mw) == per_entry_multi_ap(mw)


def test_ainfty_of_one():
    fw, weak = ainfty_constants(ONE)
    assert fw == pytest.approx(1.0, rel=1e-12)
    assert weak == pytest.approx(0.5, rel=1e-12)


def test_ainfty_exponential_weak_below_one():
    w = weight_from(lambda x: np.exp(x))
    _, weak = ainfty_constants(w)
    assert weak < 1.0


def test_fujii_wilson_dominates_weak():
    for seed in range(6):
        w = step_weight(seed)
        fw, weak = ainfty_constants(w)
        assert fw >= weak


def _steep(dom):
    return weight_from(lambda x: np.abs(x - 0.37) ** 6, dom, "steep")


def test_ainfty_steep_power_weight_matches_brute_oracle():
    # w = |x - 0.37|^6 spans 1.7e-18 to 0.06 at L = 7: a difference of global
    # prefix sums loses every digit of the small cube sums and gives inf
    bfw, bweak = brute_ainfty(_steep(Domain(0.0, 1.0, 7)))
    assert bfw == pytest.approx(2.664070266676703, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fw, weak = ainfty_constants(_steep(Domain(0.0, 1.0, 7)))
    assert fw == pytest.approx(bfw, rel=1e-12)
    assert weak == pytest.approx(bweak, rel=1e-12)


@pytest.mark.parametrize("L", [10], ids=["zero-extend"])
def test_ainfty_steep_power_weight_is_finite_at_l10(L):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fw, weak = ainfty_constants(_steep(Domain(0.0, 1.0, L)))
    assert math.isfinite(fw) and math.isfinite(weak)
    assert fw >= 1.0 and weak > 0.0


@pytest.mark.parametrize("L", [1, 2], ids=lambda L: f"zero-extend-{L}")
def test_ainfty_refuses_grid_without_doubles(L):
    # no cube of the family has its double inside the domain at L <= 2
    dom = Domain(0.0, 1.0, L)
    with pytest.raises(ValueError, match="double inside the domain"):
        ainfty_constants(Weight(GridFunction.constant(dom, 1.0), "one"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "-inf", "zero", "negative"])
def test_weight_sample_that_is_not_positive_and_finite_is_refused(bad):
    # GridFunction refuses a non-finite sample, but its array can change in place
    f = GridFunction.constant(DOM, 1.0)
    f.samples[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="weight samples must be positive and finite"):
            Weight(f)


def test_weight_whose_sum_overflows_is_refused():
    # 16 cells of 1e308 sum to inf: every cube sum of two or more cells
    # overflows, which A_infty used to report as a grid without doubles
    dom = Domain(0.0, 1.0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="weight samples sum to inf"):
            Weight(GridFunction.constant(dom, 1e308), "huge")
    # the largest total that stays finite is accepted
    Weight(GridFunction.constant(dom, np.finfo(float).max / 16), "large")


@settings(max_examples=30, deadline=None)
@given(
    st.integers(3, 6),
    st.one_of(
        st.tuples(st.just("lognormal"), st.integers(0, 2**32 - 1), st.floats(0.1, 3.0)),
        st.tuples(st.just("power"), st.floats(0.0, 1.0), st.floats(-0.9, 6.0)),
    ),
)
def test_ainfty_matches_brute_oracle(L, spec):
    dom = Domain(0.0, 1.0, L)
    kind, a, b = spec
    if kind == "lognormal":
        s = np.exp(np.random.default_rng(a).normal(0.0, b, dom.n_cells))
    else:
        s = np.abs(dom.cell_centers() - a) ** b
    assume(np.all(s > 0) and np.all(np.isfinite(s)))
    w = Weight(GridFunction(dom, s), kind)
    fw, weak = ainfty_constants(w)
    bfw, bweak = brute_ainfty(w)
    assert fw == pytest.approx(bfw, rel=1e-12)
    assert weak == pytest.approx(bweak, rel=1e-12)


def _ainfty_bank(dom):
    x, h = dom.cell_centers(), dom.h
    return {
        "one": np.ones(dom.n_cells),
        "cusp": np.abs(x - 0.5) ** (1.0 / 3.0),
        "pole": np.abs(x - 0.5) ** (-1.0 / 3.0),
        "exp20": np.exp(20.0 * x),
        "step1e3": np.where(x < 0.3, 1.0, 1e3),
        "near-pole": (np.abs(x - 0.37) + h / 4.0) ** -0.99,
        "lognormal": np.exp(np.random.default_rng(13).standard_normal(dom.n_cells)),
        "flat-60": np.abs(x - 0.5) ** 60 + 1e-300,
    }


@pytest.mark.parametrize("L", [3, 5, 7, 9, 10])
def test_ainfty_equals_all_pairs_oracle_bit_for_bit(L):
    # skipping the inner cubes at least as wide as the outer cube is exact,
    # not approximate: no tolerance
    dom = Domain(0.0, 1.0, L)
    for name, s in _ainfty_bank(dom).items():
        w = Weight(GridFunction(dom, s), name)
        assert ainfty_constants(w) == all_pairs_ainfty(w), name


# the CLI's weight specs: `power:a` near a = 0 is nearly constant, so
# nearly every cube ties at the sup and the prune keeps them
CLI_SPECS = ["one", "step", "spike", "exp", "power:-0.45", "power:-0.01", "power:0.01",
             "power:0.3333", "power:0.9"]


@pytest.mark.parametrize("L, spec", [(9, s) for s in CLI_SPECS] + [(12, "spike"), (12, "power:-0.45")])
def test_pruned_ainfty_equals_all_pairs_oracle_on_cli_weights(L, spec):
    w = make_weight(spec, Domain(0.0, 1.0, L))
    assert ainfty_constants(w) == all_pairs_ainfty(w)


def _route_bank(dom):
    """The CLI weights (with power:-0.3333), log-normals with sigma 0.5 to 6,
    a weight in the subnormal range, and the spike, step and exp weights
    times a factor that is not a power of two."""
    rng = np.random.default_rng(dom.resolution_log2)
    bank = {s: make_weight(s, dom).samples for s in [*CLI_SPECS, "power:-0.3333"]}
    for sigma in (0.5, 1.5, 3.0, 6.0):
        bank[f"lognormal-{sigma}"] = np.exp(sigma * rng.standard_normal(dom.n_cells))
    bank["subnormal"] = rng.uniform(size=dom.n_cells) * 1e-300 + 1e-310
    for name in ("spike", "step", "exp"):
        bank[f"{name}*1.37"] = bank[name] * 1.37
    return bank


@pytest.mark.parametrize("L", range(3, 11))
def test_kept_cube_route_equals_the_rows_on_every_cube(L):
    # each cube on its own cells gives the bits of its row, for the integral
    # and for w(Q)
    dom = Domain(0.0, 1.0, L)
    fam = family_for(dom)
    for name, ws in _route_bank(dom).items():
        for e in fam.entries:
            rows = _cube_integrals(fam, ws, e, None)
            kept = _kept_cube_integrals(fam, ws, e, np.arange(e.n_cubes))
            assert all(map(np.array_equal, rows, kept)), (name, e.lattice_id, e.level)


@pytest.mark.parametrize("L", range(3, 14))
def test_ainfty_equals_the_rows_only_sweep(L, monkeypatch):
    dom = Domain(0.0, 1.0, L)
    weights = [Weight(GridFunction(dom, s), name) for name, s in _route_bank(dom).items()]
    got = [ainfty_constants(w) for w in weights]
    monkeypatch.setattr(weights_module, "_FEW_CUBES", 0)
    assert got == [_ainfty_sup(w) for w in weights]


@pytest.mark.parametrize("L", range(3, 13))
def test_ainfty_of_a_constant_weight(L):
    # M(c chi_Q) = c on Q and w(2Q) = 2 w(Q): exactly (1, 1/2), which the
    # sweep prints where every partial sum of c is exact; elsewhere the
    # cumulative sums round, within the PRUNE_MARGIN budget 2^(2L - 52)
    dom = Domain(0.0, 1.0, L)
    for c in (1.0, 3.0, 7.5):
        assert ainfty_constants(Weight(GridFunction.constant(dom, c), "c")) == (1.0, 0.5), c
    for c in (0.1, 1.0 / 3.0, 1e-300):
        fw, weak = ainfty_constants(Weight(GridFunction.constant(dom, c), "c"))
        assert fw == pytest.approx(1.0, rel=2.0 ** (2 * L - 52), abs=0.0), c
        assert weak == pytest.approx(0.5, rel=2.0 ** (2 * L - 52), abs=0.0), c


@pytest.mark.parametrize("L", range(3, 13))
def test_double_table_w2q_equals_the_sum_over_each_double(L):
    # the one w(2Q) rule against a cube-by-cube enumeration: 2Q counts when
    # Q has an even width and [start - w/2, start + 3w/2) lies in [0, N)
    dom = Domain(0.0, 1.0, L)
    fam = family_for(dom)
    spans = {}
    for c, q in enumerate(q for e in fam.entries for q in entry_cubes(e)):
        lo, hi, full = cube_cells(dom, q, 2)
        if full % 4 == 0 and hi - lo == full:
            spans[c] = (lo, hi)
    off, doubled, _, _ = _double_table(fam)
    assert sorted(spans) == doubled.tolist()
    others = np.setdiff1d(np.arange(off[-1]), doubled)
    weights = [*_ainfty_bank(dom).values(), *(make_weight(s, dom).samples for s in CLI_SPECS)]
    for ws in weights:
        w2q = _ainfty_bounds(fam, ws)[3]
        assert np.all(w2q[others] == np.inf)
        for c, (lo, hi) in spans.items():
            want = ws[lo:hi].sum()
            assert abs(w2q[c] - want) <= 8 * np.spacing(want), (c, w2q[c], want)


def _exact_ratios(fam, ws, w2q):
    """Per cube of the family, entry after entry: the Fujii-Wilson and weak
    ratios of the exact route, the weak one over the bounds' w(2Q) (0 where
    2Q leaves the domain)."""
    num, wq = (np.concatenate(x) for x in zip(*(_cube_integrals(fam, ws, e, None) for e in fam.entries)))
    return num / wq, num / w2q


@settings(max_examples=30, deadline=None)
@given(
    st.integers(3, 8),
    st.one_of(
        st.tuples(st.just("lognormal"), st.integers(0, 2**32 - 1), st.floats(0.1, 3.0)),
        st.tuples(st.just("power"), st.floats(0.0, 1.0), st.floats(-0.9, 6.0)),
    ),
)
def test_ainfty_bounds_hold_on_every_cube(L, spec):
    dom = Domain(0.0, 1.0, L)
    kind, a, b = spec
    if kind == "lognormal":
        s = np.exp(np.random.default_rng(a).normal(0.0, b, dom.n_cells))
    else:
        s = np.abs(dom.cell_centers() - a) ** b
    assume(np.all(s > 0) and np.all(np.isfinite(s)))
    fam = family_for(dom)
    lb, ub, wq, w2q = _ainfty_bounds(fam, s)
    fw, weak = _exact_ratios(fam, s, w2q)
    for exact, denom in ((fw, wq), (weak, w2q)):
        assert np.all(lb / denom * (1.0 - PRUNE_MARGIN) <= exact)
        assert np.all(exact <= ub / denom * (1.0 + PRUNE_MARGIN))


def test_reverse_holder_constant_weight():
    rep = reverse_holder_check(ONE)
    assert rep["ok"]
    assert rep["worst_ratio"] == pytest.approx(0.5, rel=1e-12)


def test_reverse_holder_step_and_singular():
    w = Weight(
        GridFunction(
            DOM,
            np.where(np.arange(DOM.n_cells) < DOM.n_cells // 2, 2.0, 1.0),
        ),
        "step",
    )
    rep = reverse_holder_check(w)
    assert rep["ok"] and rep["worst_ratio"] < 1.0
    v = weight_from(lambda x: np.abs(x - 0.5) ** -0.25)
    rep2 = reverse_holder_check(v)
    assert rep2["ok"]


def test_s_u_reduces_to_maximal():
    f = GridFunction.from_callable(DOM, lambda x: np.sin(6 * x) + 2.0)
    got = s_u(f, ONE).samples
    np.testing.assert_allclose(got, maximal(f).samples, rtol=1e-12)


def test_s_u_of_one_dominates_one():
    u = step_weight(7)
    one = GridFunction.constant(DOM, 1.0)
    assert np.all(s_u(one, u).samples >= 1.0 - 1e-12)


def test_s_u_brute_force_fixture():
    u = step_weight(3)
    f = GridFunction.indicator(DOM, 0.0, 0.25)
    got = s_u(f, u).samples
    fu = GridFunction(DOM, f.samples * u.samples)
    want = maximal(fu).samples / u.samples
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_rubio_de_francia_properties():
    h = GridFunction.indicator(DOM, 0.0, 0.5)
    k0 = 10.0
    rh = rubio_de_francia(h, ONE, k0, 20)
    assert np.all(rh.samples >= h.samples - 1e-12)
    srh = s_u(rh, ONE).samples
    tail = 1e-6
    assert np.all(srh <= 2.0 * k0 * rh.samples * (1.0 + tail) + 1e-10)
    rhu = Weight(GridFunction(DOM, rh.samples * ONE.samples + 1e-300), "Rh")
    assert ap_constant(rhu, 1.0) <= 2.0 * k0 * (1.0 + tail)


def test_rubio_de_francia_zero_and_divergence():
    z = GridFunction.constant(DOM, 0.0)
    assert np.all(rubio_de_francia(z, ONE, 5.0).samples == 0.0)
    h = GridFunction.constant(DOM, 1.0)
    with pytest.raises(IterationError):
        rubio_de_francia(h, ONE, 0.4, 20)  # 2*K0 < 1 <= ||S_u|| forces growth


def test_k0_p0_hand_value():
    p0, log_k0 = log_k0_p0(2.0, 1.0, 1.0)
    k0 = math.exp(log_k0)
    assert p0 == 17.0
    want = 4.0 * 1.0 * 17.0 * (17.0 / 16.0) * (1.0 + 2.0 ** 16) + 1.0
    assert k0 == pytest.approx(want, rel=1e-15)


def test_k0_p0_limit_t_to_one():
    p0, log_k0 = log_k0_p0(1.0 + 1e-9, 1.0, 1.0)
    k0 = math.exp(log_k0)
    assert p0 == pytest.approx(1.0, abs=1e-6)
    assert math.isfinite(k0) and k0 > 1.0


def test_log_k0_p0_matches_k0_p0_and_stays_finite():
    for args in [(2.0, 1.0, 1.0), (1.5, 3.0, 2.0), (2.7, 5.5, 1.3)]:
        # the formula summed in linear space, finite for these constants
        t, a1_u, at_v = args
        p0 = 16.0 * (t - 1.0) * a1_u + 1.0
        k0 = 4.0 * p0 * p0 / (p0 - 1.0) * (
            a1_u + 2.0 ** (p0 - 1.0) * at_v ** 2 * a1_u ** (p0 - 1.0)) + 1.0
        q0, log_k0 = log_k0_p0(*args)
        assert q0 == p0
        assert log_k0 == pytest.approx(math.log(k0), rel=1e-14)
    p0, log_k0 = log_k0_p0(2.0, 501.0, 1.0)
    # ln K0 ~ (p0 - 1) ln(2 a1_u) once the power term dominates
    assert p0 == 8017.0
    assert log_k0 == pytest.approx(8016.0 * math.log(1002.0), rel=1e-3)


def test_constant_floors_and_scale_invariance():
    for seed in range(5):
        w = step_weight(seed)
        assert w.ap(2.0) >= 1.0 - 1e-12
        c = 3.7
        scaled = Weight(GridFunction(DOM, c * w.samples))
        assert ap_constant(scaled, 2.0) == pytest.approx(w.ap(2.0), rel=1e-12)


def test_ap_monotone_in_p():
    for seed in range(5):
        w = step_weight(seed + 200)
        c15, c2, c3 = w.ap(1.5), w.ap(2.0), w.ap(3.0)
        assert c2 <= c15 + 1e-12 and c3 <= c2 + 1e-12
