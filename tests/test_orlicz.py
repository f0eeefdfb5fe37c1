import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import sparse_harmonics.maximal as maximal_module
from sparse_harmonics.grid import Domain, DyadicCube, GridFunction, average, cube_cells
from sparse_harmonics.grid import MEMO, family_for
from sparse_harmonics.maximal import multilinear_maximal
from sparse_harmonics.orlicz import (
    YoungFunction,
    dilation_indices,
    llog,
    monotone_root,
    power,
)
from sparse_harmonics.weights import Weight

from criteria import complementary, exp_power, power_over_p, young_pair_checks
from oracles import luxemburg_norm, numeric_delta2_constant, numeric_dilation_indices

DOM = Domain(0.0, 1.0, 8)
ROOT = DyadicCube(0, 0, 0)


def rand_f(seed, lo=0.1, hi=4.0, dom=DOM):
    rng = np.random.default_rng(seed)
    return GridFunction(dom, rng.uniform(lo, hi, size=dom.n_cells))


# -- luxemburg ---------------------------------------------------------------

def test_luxemburg_linear_phi_is_the_average():
    f = rand_f(1)
    got = luxemburg_norm(f, power(1.0), ROOT)
    assert got == pytest.approx(average(f, ROOT), rel=1e-9)


def test_luxemburg_power_phi_is_lr_average():
    f = rand_f(2)
    for r in (1.5, 2.0, 3.0):
        got = luxemburg_norm(f, power(r), ROOT)
        fr = GridFunction(DOM, np.abs(f.samples) ** r)
        assert got == pytest.approx(average(fr, ROOT) ** (1.0 / r), rel=1e-9)


def test_luxemburg_constant_llog():
    phi = llog(1.0)
    c = 2.7
    f = GridFunction.constant(DOM, c)
    lam = luxemburg_norm(f, phi, ROOT)
    inv1 = phi.inverse(np.array([1.0]))[0]
    assert lam == pytest.approx(c / inv1, rel=1e-9)
    assert phi(np.array([c / lam]))[0] == pytest.approx(1.0, abs=1e-9)


def test_luxemburg_zero_and_errors():
    f = GridFunction.constant(DOM, 0.0)
    assert luxemburg_norm(f, llog(1.0), ROOT) == 0.0


def test_luxemburg_scaling():
    f = rand_f(3)
    phi = llog(1.0)
    base = luxemburg_norm(f, phi, ROOT)
    for c in (0.25, 7.0):
        assert luxemburg_norm(c * f, phi, ROOT) == pytest.approx(c * base, rel=1e-8)


def test_luxemburg_monotone_in_f():
    f = rand_f(4)
    g = f + 0.5
    phi = exp_power(1.0)
    assert luxemburg_norm(f, phi, ROOT) <= luxemburg_norm(g, phi, ROOT) + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1.2, 2.0, 2.7]))
def test_luxemburg_matches_lr_on_random_inputs(seed, r):
    f = rand_f(seed)
    q = DyadicCube(0, 2, seed % 4)
    fr = GridFunction(DOM, np.abs(f.samples) ** r)
    assert luxemburg_norm(f, power(r), q) == pytest.approx(
        average(fr, q) ** (1.0 / r), rel=1e-9
    )


def test_luxemburg_weighted_measure():
    f = rand_f(5)
    w = rand_f(6, 0.5, 2.0)
    got = luxemburg_norm(f, power(2.0), ROOT, Weight(w))
    want = math.sqrt(
        float((f.samples ** 2 * w.samples).sum() / w.samples.sum())
    )
    assert got == pytest.approx(want, rel=1e-9)


def _spike(dom):
    s = np.ones(dom.n_cells)
    s[dom.n_cells // 3] = 1e3
    return GridFunction(dom, s)


def _brentq_norm(v, denom, phi, inv1):
    """Root in lambda of (1/denom) sum phi(v / lambda) = 1 by brentq, from a
    bracket twice as wide as [mean, max] / phi^-1(1) on either side."""
    lo = 0.5 * v.sum() / denom / inv1
    hi = 2.0 * v.max() / inv1
    return brentq(lambda lam: phi(v / lam).sum() / denom - 1.0, lo, hi, xtol=1e-300)


@pytest.mark.parametrize("L, phi", [
    pytest.param(7, llog(1.0), id="7"),
    pytest.param(9, llog(1.0), id="9"),
    # an exponential phi: the excess at the lower end dwarfs the one at the
    # upper end
    pytest.param(9, exp_power(1.0), id="9-exp1"),
    pytest.param(9, exp_power(2.0), id="9-exp2"),
])
def test_luxemburg_matches_brentq_on_spike(L, phi):
    # max/mean up to 1e3 on a cube: 48 halvings of [mean, max] fall short
    dom = Domain(0.0, 1.0, L)
    f = _spike(dom)
    inv1 = brentq(lambda t: phi(t) - 1.0, 0.1, 1.0, xtol=1e-300)
    for level in range(4):
        for k in range(2 ** level):
            q = DyadicCube(0, level, k)
            lo, hi, _ = cube_cells(dom, q)
            want = _brentq_norm(f.samples[lo:hi], hi - lo, phi, inv1)
            assert luxemburg_norm(f, phi, q) == pytest.approx(want, rel=2e-12)


def test_orlicz_maximal_matches_brute_brentq_on_spike():
    MEMO.clear()
    dom = Domain(0.0, 1.0, 7)
    f = _spike(dom)
    phi = llog(1.0)
    inv1 = brentq(lambda t: phi(t) - 1.0, 0.1, 1.0, xtol=1e-300)
    want = np.zeros(dom.n_cells)
    for e in family_for(dom).entries:
        for q in e.cubes():
            lo, hi, full = cube_cells(dom, q)
            norm = _brentq_norm(f.samples[lo:hi], full, phi, inv1)
            want[lo:hi] = np.maximum(want[lo:hi], norm)
    got = multilinear_maximal([f], "llogl").samples
    np.testing.assert_allclose(got, want, rtol=2e-12, atol=0.0)


def _counting(solves):
    """monotone_root that appends (lo, hi, excess, result, excess calls) of
    every solve to solves."""
    def solve(lo, hi, excess):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return excess(x)

        out = monotone_root(lo, hi, counted)
        solves.append((np.asarray(lo), np.asarray(hi), excess, out, calls[0]))
        return out
    return solve


def test_orlicz_maximal_solves_every_group_in_7_evaluations(monkeypatch):
    # Newton steps from the Jensen end take 3 to 5 evaluations and the
    # check one more; the bracket solve, which no cube here takes, about 50
    dom = Domain(0.0, 1.0, 10)
    f = rand_f(7, lo=-1.0, hi=1.0, dom=dom)
    solves, evaluations, fallbacks = [], [], []
    solve, step, excess_of = (maximal_module.luxemburg_per_cube, maximal_module._newton_step,
                              maximal_module._excess)

    def counted_solve(fam, entry, absf, phi, inv1):
        evaluations.append(0)
        out = solve(fam, entry, absf, phi, inv1)
        solves.append((fam, entry, absf, phi, inv1, out))
        return out

    def counted_step(*args):
        evaluations[-1] += 1
        return step(*args)

    def counted_excess(*args):
        excess = excess_of(*args)

        def counted(lam):
            evaluations[-1] += 1
            return excess(lam)
        return counted

    MEMO.clear()
    monkeypatch.setattr(maximal_module, "luxemburg_per_cube", counted_solve)
    monkeypatch.setattr(maximal_module, "_newton_step", counted_step)
    monkeypatch.setattr(maximal_module, "_excess", counted_excess)
    monkeypatch.setattr(maximal_module, "monotone_root", _counting(fallbacks))
    multilinear_maximal([f], "llogl")
    groups = family_for(dom).groups
    # one solve per level group: 3 groups of the 44 family entries
    assert len(solves) == len(groups) == 3
    assert max(evaluations) <= 7
    # no cube of the bank takes the bracket solve
    assert fallbacks == []
    rng = np.random.default_rng(0)
    for group, (fam, entry, absf, phi, inv1, got) in zip(groups, solves):
        excess = excess_of(fam, entry, absf, phi)
        # every norm meets the Luxemburg condition, also where the bracket
        # is closed from the start (one cell) and returned as it is
        assert np.all(excess(got) <= 0.0)
        lo, hi = fam.means(entry, absf) / inv1, fam.segment_max(entry, absf) / inv1
        open_ = np.flatnonzero(hi - lo > 1e-12 * hi)
        # the root of a few open brackets per entry of this group, one cube
        # at a time
        for j in rng.choice(open_, size=min(3 * group.levels, len(open_)), replace=False):
            def one_cube(lam):
                lams = got.copy()
                lams[j] = lam
                return excess(lams)[j]
            want = brentq(one_cube, lo[j], hi[j], xtol=1e-300)
            assert abs(got[j] - want) <= 1e-12 * got[j]


def test_llog_one_leaves_out_identity_powers_bit_for_bit():
    rng = np.random.default_rng(3)
    t = np.concatenate([[0.0, 1e-300, 1e300], rng.uniform(0.0, 10.0, 200),
                        np.exp(rng.uniform(-30.0, 30.0, 200))])
    want = t ** 1.0 * np.log(np.e + t) ** 1.0
    np.testing.assert_array_equal(llog(1.0)(t), want)
    # an alpha other than 1 keeps the generic formula
    want = t * np.log(np.e + t) ** 2.0
    np.testing.assert_array_equal(llog(2.0)(t), want)


@pytest.mark.parametrize("end", ["hi", "lo"])
def test_monotone_root_does_not_stall_on_an_exact_root_at_an_end(end):
    # excess is exactly 0.0 at the root, at one end of each bracket
    root = np.array([0.3, 1.0, 7.5, 2.0 ** -20, 3e5])

    def excess(x):
        return (root / x) ** 2 - 1.0

    lo, hi = (root / 3.0, root) if end == "hi" else (root, 3.0 * root)
    solves = []
    got = _counting(solves)(lo, hi, excess)
    assert solves[0][-1] <= 64
    np.testing.assert_array_equal(got, root)


_ENDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.0 ** -1022, 1.0, 1e300, np.finfo(float).max]),
    st.floats(0.0, 1e-300),
    st.floats(0.0, np.finfo(float).max),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_ENDS, _ENDS, _ENDS), min_size=1, max_size=6),
       st.lists(st.sampled_from(["inside", "at-lo", "at-hi", "closed"]), min_size=6, max_size=6))
def test_monotone_root_gives_the_first_float_with_excess_at_most_0(triples, where):
    # each root r has excess r / x - 1, +inf at x = 0 and where r / x
    # overflows, and exactly 0 at x = r
    rows = []
    for (u, v, w), at in zip(triples, where):
        lo, r, hi = sorted([u, v, w])
        rows.append({"inside": (lo, r, hi), "at-lo": (r, r, hi),
                     "at-hi": (lo, r, r), "closed": (r, r, r)}[at])
    lo, root, hi = map(np.array, zip(*rows))
    root = root + 0.0

    def excess(x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(root > 0, root / x, 0.0) - 1.0

    solves = []
    got = _counting(solves)(lo, hi, excess)
    assert solves[0][-1] <= 64
    assert not np.signbit(got).any()
    assert np.all((lo <= got) & (got <= hi))
    assert np.all(excess(got) <= 0.0)
    inside = got > lo
    assert np.all(excess(np.nextafter(got, 0.0))[inside] > 0.0)
    # below gives the float before, or lo where the first float is lo
    below = monotone_root(lo, hi, excess, below=True)
    np.testing.assert_array_equal(below, np.where(inside, np.nextafter(got, 0.0), lo + 0.0))


def test_llogl_phi_inverse_of_one_is_pinned():
    # every M_{L log L} norm reads phi^-1(1) of t log(e + t): the last float
    # with phi < 1, less 4 eps, which phi alone fixes
    assert maximal_module._llogl_young()[1] == float.fromhex("0x1.97665bddde370p-1")


def test_monotone_root_keeps_a_zero_bracket_and_bisects_an_infinite_excess():
    # lo = hi = 0 stays 0; the excess is infinite at and near lo = 0
    def excess(x):
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(x > 0, np.exp(np.minimum(1.0 / x, 800.0)) - np.e, np.inf)

    got = monotone_root(np.array([0.0, 0.0]), np.array([0.0, 4.0]), excess)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(1.0, rel=1e-12)
    assert excess(got)[1] <= 0.0


# -- young pair identities ---------------------------------------------------

def test_young_pair_quadratic():
    rep = young_pair_checks(power_over_p(2.0), np.logspace(-3, 3, 60))
    assert rep["ok"], rep["failures"]


def test_young_pair_cubic_closed_form():
    p = 3.0
    rep = young_pair_checks(power_over_p(p), np.logspace(-3, 3, 60))
    assert rep["ok"], rep["failures"]
    phi = power_over_p(p)
    t = np.logspace(-3, 3, 60)
    prod = phi.inverse(t) * complementary(phi).inverse(t)
    pp = p / (p - 1.0)
    want = p ** (1.0 / p) * pp ** (1.0 / pp) * t
    np.testing.assert_allclose(prod, want, rtol=1e-9)


def test_young_pair_llog_numeric_conjugate():
    rep = young_pair_checks(llog(1.0), np.logspace(-2, 2, 40))
    assert rep["ok"], rep["failures"]


# -- dilation indices and delta2 ---------------------------------------------

def test_dilation_power_exact():
    i, I = dilation_indices(power(2.5))
    assert (i, I) == (2.5, 2.5)
    i_num, I_num = numeric_dilation_indices(power(2.5))
    assert i_num == pytest.approx(2.5, abs=1e-6)
    assert I_num == pytest.approx(2.5, abs=1e-6)


def test_dilation_llog_numeric_lower():
    p = 1.0
    for alpha in (1.0, 0.5, 2.0):
        assert dilation_indices(llog(alpha)) == (p, p)
        i_num, _ = numeric_dilation_indices(llog(alpha))
        assert abs(i_num - p) < 0.05


def test_dilation_indices_refuse_a_phi_without_closed_forms():
    # the numeric probe is an oracle; a phi without indices has no route
    for phi in (exp_power(1.0), YoungFunction("t^2", lambda t: t ** 2)):
        with pytest.raises(ValueError, match="no closed-form dilation indices"):
            dilation_indices(phi)


def test_delta2_power():
    assert power(3.0).delta2_C1 == 3.0
    c = numeric_delta2_constant(power(3.0))
    assert c <= 3.0 + 1e-9


def test_delta2_llog_numeric_holds():
    phi = llog(1.0)
    c1 = numeric_delta2_constant(phi) + 1e-9
    ts = np.logspace(-4, 4, 100)
    for lam in (2.0, 4.0, 10.0):
        assert np.all(phi(lam * ts) <= 2 ** c1 * lam ** c1 * phi(ts) * (1 + 1e-9))


def test_delta2_exp_is_infinite():
    assert numeric_delta2_constant(exp_power(1.0)) == np.inf


# -- structural invariants ---------------------------------------------------

def test_phi_class_basics():
    for phi in (power(2.0), llog(1.0), exp_power(1.0), power_over_p(3.0)):
        assert phi(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
        t = np.logspace(-3, 2, 50)
        v = phi(t)
        assert np.all(np.diff(v) >= -1e-12)
        mid = phi((t[:-1] + t[1:]) / 2.0)
        assert np.all(mid <= (v[:-1] + v[1:]) / 2.0 + 1e-9)


def test_nfunction_limits():
    for phi in (power(2.0), power_over_p(3.0), exp_power(2.0)):
        small = phi(np.array([1e-8]))[0] / 1e-8
        big = phi(np.array([1e6]))[0] / 1e6
        assert small < 1e-4 and big > 1e4


def test_submultiplicative_flags():
    grid = np.logspace(-2, 2, 50)
    for phi in (power(2.0), llog(1.0), llog(2.0)):
        if not phi.submultiplicative:
            continue
        v = phi(grid)
        st_ = phi(grid[:, None] * grid[None, :])
        assert np.all(st_ <= v[:, None] * v[None, :] * (1 + 1e-9))


def test_complementary_involution():
    t = np.logspace(-2, 2, 60)
    for phi in (power_over_p(2.0), power_over_p(3.0), power(2.0)):
        bar = complementary(phi)
        back = complementary(bar)(t)
        np.testing.assert_allclose(back, phi(t), rtol=1e-6, atol=1e-9)
