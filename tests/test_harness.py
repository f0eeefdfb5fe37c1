import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import criteria
from sparse_harmonics import harness
from sparse_harmonics.cli import fixtures_dir
from sparse_harmonics.grid import (
    Domain,
    DyadicCube,
    GridFunction,
    ResolutionError,
    average,
)
from sparse_harmonics.harness import (
    OperatorBundle,
    calderon_bundle,
    coifman_fefferman_experiment,
    default_t_grid,
    fefferman_stein_experiment,
    fit_exponent,
    hilbert_bundle,
    local_decay_experiment,
    lorentz_quasinorm,
    mixed_weak_experiment,
    modular_experiment,
    principal_cubes,
    sharpness_experiment,
    stein_bundle,
)
from sparse_harmonics.operators import KernelOperator, bmo_norm
from sparse_harmonics.orlicz import llog, power
from sparse_harmonics.sparse import stopping_cubes
from sparse_harmonics.weights import Weight, ainfty_constants

from criteria import complementary, exp_power, lorentz_l1_norm, verify_sparse
from oracles import brute_stopping_cubes, distinct_value_lorentz_quasinorm, quasiconvex_alpha

DOM = Domain(0.0, 1.0, 8)
ONE = Weight(GridFunction.constant(DOM, 1.0), "one")


def rand_f(seed, dom=DOM):
    rng = np.random.default_rng(seed)
    return GridFunction(dom, rng.uniform(-1.0, 1.0, dom.n_cells))


def bump(center, dom=DOM):
    return GridFunction.from_callable(dom, lambda x: np.exp(-80 * (x - center) ** 2))


SYMBOL = GridFunction.from_callable(DOM, lambda x: np.sin(3 * x) + 0.2 * x)


# -- lorentz -----------------------------------------------------------------

def test_lorentz_indicator():
    f = GridFunction.indicator(DOM, 0.25, 0.75)
    assert lorentz_quasinorm(f, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert lorentz_quasinorm(f, 0.5) == pytest.approx(0.25, rel=1e-12)


def test_lorentz_constant():
    f = GridFunction.constant(DOM, 3.0)
    assert lorentz_quasinorm(f, 2.0) == pytest.approx(3.0, rel=1e-12)
    w = Weight(GridFunction.constant(DOM, 4.0))
    assert lorentz_quasinorm(f, 2.0, w) == pytest.approx(6.0, rel=1e-12)


def test_lorentz_l1_dominates_weak():
    for seed in range(10):
        f = rand_f(seed)
        assert lorentz_quasinorm(f, 2.0) <= lorentz_l1_norm(f, 2.0) + 1e-12


def test_lorentz_duality_sandwich():
    # sup-pairing against superlevel indicators normalized in p' L^{p',1}
    # brackets the weak norm: sup <= ||f|| <= p' sup at p = 2
    p = 2.0
    pp = 2.0
    for seed in range(5):
        f = rand_f(seed)
        a = np.abs(f.samples)
        norm = lorentz_quasinorm(f, p)
        best = 0.0
        for lam in np.quantile(a, np.linspace(0.1, 0.99, 15)):
            g = GridFunction(DOM, (a > lam).astype(float))
            den = pp * lorentz_l1_norm(g, pp)
            if den > 0:
                best = max(best, float(np.sum(a * g.samples)) * DOM.h / den)
        assert best <= norm * (1.0 + 1e-9)
        assert norm <= pp * best * (1.0 + 1e-9)


_LORENTZ_F = {
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
    "ties": lambda rng, n: rng.integers(-3, 4, n).astype(float),
    "zero": lambda rng, n: np.zeros(n),
    "subnormal": lambda rng, n: rng.standard_cauchy(n) * 1e-300,
    "complex": lambda rng, n: rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n),
}
_LORENTZ_W = {
    "none": lambda rng, n: None,
    "log-normal": lambda rng, n: np.exp(rng.standard_normal(n)),
    "ties": lambda rng, n: rng.integers(1, 4, n).astype(float),
}


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 10), st.sampled_from(sorted(_LORENTZ_F)),
       st.sampled_from(sorted(_LORENTZ_W)), st.sampled_from([0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0]),
       st.integers(0, 2**32 - 1))
def test_lorentz_quasinorm_equals_the_distinct_value_oracle_bit_for_bit(L, f_kind, w_kind, p, seed):
    dom = Domain(0.0, 1.0, L)
    rng = np.random.default_rng(seed)
    f = GridFunction(dom, _LORENTZ_F[f_kind](rng, dom.n_cells))
    w = _LORENTZ_W[w_kind](rng, dom.n_cells)
    w = None if w is None else Weight(GridFunction(dom, w))
    got = lorentz_quasinorm(f, p, w)
    assert got.hex() == distinct_value_lorentz_quasinorm(f, p, w).hex()


# -- fitting -----------------------------------------------------------------

def test_fit_exponent_sqrt_model():
    t = np.logspace(-0.5, 1.5, 30)
    phi = np.exp(-2.0 * np.sqrt(t))
    fit = fit_exponent(t, phi)
    assert fit["p"] == pytest.approx(0.5, rel=0.01)
    assert fit["alpha"] == pytest.approx(2.0, rel=0.01)
    assert fit["r2"] >= 0.999


def test_fit_exponent_pure_exponential():
    t = np.linspace(0.2, 8.0, 30)
    fit = fit_exponent(t, np.exp(-t))
    assert fit["p"] == pytest.approx(1.0, rel=0.01)


def test_fit_exponent_noise_calibration():
    t = np.logspace(-0.5, 1.3, 30)
    truth = 0.5
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        phi = np.exp(-2.0 * t ** truth) * (1.0 + 0.05 * rng.standard_normal(len(t)))
        fit = fit_exponent(t, np.clip(phi, 1e-12, 1.0))
        hits += abs(fit["p"] - truth) <= 0.1
    assert hits >= 18


def test_fit_exponent_degenerate():
    fit = fit_exponent(np.array([1.0, 2.0, 3.0]), np.array([0.3, 0.2, 0.1]))
    assert fit["degenerate"]


def _projected_ssr(t, phi, p):
    # residual of ln phi = ln c - alpha t^p with (ln c, alpha) at their best
    keep = (phi >= 1e-4) & (phi <= 0.5)
    y = np.log(phi[keep])
    design = np.column_stack([np.ones(keep.sum()), -t[keep] ** p])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    r = y - design @ coef
    return float(r @ r)


def test_fit_exponent_is_well_conditioned_on_sharpness_curve():
    # the golden determinism check compares fits at 1e-9: a rounding-level
    # change of the data must not move p by more than rounding
    rows = np.loadtxt(fixtures_dir() / "curves.csv", delimiter=",", skiprows=1)
    t, phi = rows[:, 0], rows[:, 1]
    fit = fit_exponent(t, phi)
    rng = np.random.default_rng(0)
    for _ in range(5):
        noisy = phi * (1.0 + 1e-15 * rng.choice([-1.0, 1.0], len(phi)))
        moved = fit_exponent(t, noisy)
        assert abs(moved["p"] - fit["p"]) < 1e-10 * fit["p"]
    # p is the least-squares optimum, not a point on the flat valley near it
    best = _projected_ssr(t, phi, fit["p"])
    for step in (1.0 - 1e-6, 1.0 + 1e-6):
        assert _projected_ssr(t, phi, fit["p"] * step) >= best


# -- principal cubes ---------------------------------------------------------

def test_principal_cubes_sparse():
    for seed in range(5):
        g = hilbert_bundle([SYMBOL]).apply([rand_f(seed)])
        fam = principal_cubes(g, DyadicCube(0, 0, 0))
        ok, eta, carleson = verify_sparse(fam)
        assert ok
        assert eta >= 0.5 - 1e-12
        assert fam.cubes[0].level == 0


# roots in all four lattices; the second sticks out of the domain
PRINCIPAL_ROOTS = (
    DyadicCube(0, 0, 0),
    DyadicCube(2, 1, -1),
    DyadicCube(1, 2, 0),
    DyadicCube(3, 1, 0),
)


@pytest.mark.parametrize("L", [6, 10], ids=lambda L: f"{L}-zero-extend")
def test_principal_cubes_match_brute_walk(L):
    dom = Domain(0.0, 1.0, L)
    x = dom.cell_centers()
    rng = np.random.default_rng(L)
    raw = [
        rng.uniform(-1.0, 1.0, dom.n_cells),
        np.exp(-120.0 * (x - 0.5) ** 2),
        np.repeat(rng.uniform(0.1, 1.0, 32), dom.n_cells // 32),
        np.ones(dom.n_cells),
        np.sin(6.0 * math.pi * x),
        np.abs(x - 0.37) ** -0.4,
    ]
    fs = [GridFunction(dom, s) for s in raw]
    commutator = hilbert_bundle([GridFunction(dom, np.log(x))])
    for g in fs + [commutator.apply([f]) for f in fs]:
        absg = abs(g)
        for factor in (2.0, 4.0):
            for root in PRINCIPAL_ROOTS:
                want = brute_stopping_cubes(
                    [root], lambda r, q: average(absg, r), factor, dom
                )
                # principal cubes stop at factor 2; other factors through
                # the sweep they run on
                got = (principal_cubes(g, root).cubes if factor == 2.0
                       else stopping_cubes([root], absg, factor, recenter=False))
                assert set(got) == set(want)


def test_principal_cubes_refuse_root_outside_domain():
    with pytest.raises(ValueError, match="does not meet the domain"):
        principal_cubes(rand_f(0), DyadicCube(2, 1, -5))


def test_principal_cubes_refuse_root_finer_than_grid():
    with pytest.raises(ResolutionError):
        principal_cubes(rand_f(0), DyadicCube(0, DOM.resolution_log2 + 1, 0))


# -- decay experiments -------------------------------------------------------

def test_decay_constant_symbol_vanishes():
    b = GridFunction.constant(DOM, 4.0)
    f = GridFunction.constant(DOM, 1.0)
    g = hilbert_bundle([b]).apply([f])
    assert np.abs(g.samples).max() <= 1e-10


def test_decay_mixed_min_runs_and_reports_branch():
    f = bump(0.5)
    curve, rep = local_decay_experiment(
        hilbert_bundle([SYMBOL]), [f], DyadicCube(0, 0, 0),
        comparator="mixed-min",
    )
    assert rep.verdict in ("holds", "holds-with-margin", "degenerate")
    assert "min_branch_alt_fraction" in rep.constants
    assert 0.0 <= rep.constants["min_branch_alt_fraction"] <= 1.0
    assert "domination_constant" in rep.constants
    m = curve.measures
    assert np.all(np.diff(m) <= 1e-12)
    assert np.all((m >= 0) & (m <= 1))


@pytest.mark.parametrize("comparator", ["mixed-min", "llogl"])
@pytest.mark.parametrize("w", [None, ONE])
def test_decay_zero_input(comparator, w):
    # M f = 0 on every cell: nothing exceeds t times it, every measure is
    # 0 and the fit is degenerate; the report is built like any other
    z = GridFunction.constant(DOM, 0.0)
    curve, rep = local_decay_experiment(
        hilbert_bundle([SYMBOL]), [z], DyadicCube(0, 0, 0), comparator=comparator, w=w)
    assert rep.verdict == "degenerate"
    assert rep.lhs == rep.rhs == 0.0
    assert math.isnan(rep.ratio)
    assert rep.params == {"comparator": comparator, "m": 1, "l": 1, "weighted": w is not None}
    np.testing.assert_array_equal(curve.measures, np.zeros(len(curve.t_grid)))


def test_decay_on_root_cube_sticking_out_of_domain():
    # cells [-128, 256) of a 256-cell grid: the same cells as the root cube
    shifted = DyadicCube(2, 1, -1)
    bundle = hilbert_bundle([SYMBOL])
    curve, _ = local_decay_experiment(bundle, [bump(0.5)], shifted, comparator="llogl")
    root, _ = local_decay_experiment(bundle, [bump(0.5)], DyadicCube(0, 0, 0), comparator="llogl")
    np.testing.assert_array_equal(curve.measures, root.measures)


def test_mixed_min_decay_on_root_cube_sticking_out_of_domain():
    # principal cubes of the root skip the children that lie outside the grid
    shifted = DyadicCube(2, 1, -1)
    curve, rep = local_decay_experiment(hilbert_bundle([SYMBOL]), [bump(0.5)], shifted)
    assert rep.params["comparator"] == "mixed-min"
    assert rep.constants["sparse_family_size"] >= 1
    assert len(curve.measures) == len(curve.t_grid)


def test_decay_weighted_alpha_ordering():
    # heavier weak A-infty slows the decay: fitted alpha decreases
    dom = Domain(0.0, 1.0, 10)
    b = GridFunction.from_callable(dom, lambda x: np.log(x))
    f = GridFunction.constant(dom, 1.0)
    bundle = hilbert_bundle([b])
    ts = np.logspace(math.log10(3.0), math.log10(18.0), 24) * bmo_norm(b)
    rows = []
    for a in (0.0, 1.0 / 3.0, 2.0 / 3.0):
        if a == 0.0:
            w = Weight(GridFunction.constant(dom, 1.0), "one")
        else:
            w = Weight(
                GridFunction.from_callable(dom, lambda x: np.abs(x - 0.5) ** a),
                f"power{a:.2f}",
            )
        _, weak = ainfty_constants(w)
        _, rep = local_decay_experiment(
            bundle, [f], DyadicCube(0, 0, 0), ts, comparator="llogl", w=w
        )
        assert rep.verdict in ("holds", "holds-with-margin")
        rows.append((weak, rep.fit["alpha"]))
    weaks = [r[0] for r in rows]
    alphas = [r[1] for r in rows]
    assert weaks == sorted(weaks)
    assert alphas == sorted(alphas, reverse=True)


def test_sharpness_small():
    curve, rep = sharpness_experiment(L=12)
    assert rep.verdict == "holds"
    assert 0.35 <= rep.fit["p"] <= 0.7
    assert rep.fit["r2"] >= 0.9


def test_sharpness_contrast_small():
    _, rep = sharpness_experiment(L=12, bounded_symbol=True)
    assert rep.fit["p"] >= 0.8
    assert rep.verdict in ("holds", "holds-with-margin")


# -- coifman-fefferman -------------------------------------------------------

def test_cf_constant_symbol_zero_lhs():
    b = GridFunction.constant(DOM, 2.0)
    rep = coifman_fefferman_experiment(hilbert_bundle([b]), [rand_f(0)], 2.0, ONE)
    assert rep.lhs <= 1e-18


def test_cf_scaling_invariance():
    f = rand_f(1)
    base = coifman_fefferman_experiment(hilbert_bundle([SYMBOL]), [f], 0.5, ONE)
    scaled_f = coifman_fefferman_experiment(
        hilbert_bundle([SYMBOL]), [7.0 * f], 0.5, ONE
    )
    assert scaled_f.ratio == pytest.approx(base.ratio, rel=1e-9)
    scaled_b = coifman_fefferman_experiment(
        hilbert_bundle([3.0 * SYMBOL]), [f], 0.5, ONE
    )
    assert scaled_b.ratio == pytest.approx(base.ratio, rel=1e-9)


def test_cf_bilinear_seed_stability():
    ratios = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        c1, c2 = rng.uniform(0.2, 0.8, 2)
        rep = coifman_fefferman_experiment(
            calderon_bundle(1, [SYMBOL], [0]), [bump(c1), bump(c2)], 0.5, ONE
        )
        assert rep.verdict in ("holds", "holds-with-margin")
        ratios.append(rep.ratio)
    assert max(ratios) / min(ratios) <= 2.0


def test_cf_ainfty_trend():
    f = bump(0.4)
    rows = {}
    for spec, a in (("one", None), ("p+", 1.0 / 3.0), ("p-", -1.0 / 3.0)):
        if a is None:
            w = ONE
        else:
            w = Weight(
                GridFunction.from_callable(DOM, lambda x: np.abs(x - 0.5) ** a), spec
            )
        rep = coifman_fefferman_experiment(hilbert_bundle([SYMBOL]), [f], 1.0, w)
        rows[spec] = rep
        assert rep.verdict in ("holds", "holds-with-margin")
    assert rows["one"].constants["constant"] <= rows["p+"].constants["constant"]
    assert rows["one"].constants["constant"] <= rows["p-"].constants["constant"]


# -- mixed weak type ---------------------------------------------------------

def test_mixed_weak_zero_input():
    z = GridFunction.constant(DOM, 0.0)
    rep = mixed_weak_experiment(hilbert_bundle([SYMBOL]), [z], [ONE], ONE)
    assert rep.lhs == 0.0
    assert rep.ratio == 0.0
    assert rep.verdict == "holds"


def test_mixed_weak_hilbert_unweighted():
    rep = mixed_weak_experiment(hilbert_bundle([SYMBOL]), [rand_f(2)], [ONE], ONE, t=2.0)
    assert rep.verdict == "holds"
    assert rep.ratio < 1e-6  # tracked constants are enormous
    assert rep.constants["p0"] == pytest.approx(17.0)
    assert rep.constants["endpoint_ratio"] < 1.0


def test_mixed_weak_bilinear_step_weights():
    dom = DOM
    w1 = Weight(GridFunction(dom, 1.0 + GridFunction.indicator(dom, 0.0, 0.5).samples), "s1")
    w2 = Weight(GridFunction(dom, 2.0 - GridFunction.indicator(dom, 0.25, 0.75).samples * 0.5), "s2")
    v = Weight(GridFunction.from_callable(dom, lambda x: np.abs(x - 0.5) ** 0.25), "v")
    bundle = calderon_bundle(1, [SYMBOL], [0])
    fs = [bump(0.4), bump(0.6)]
    for t in (1.5, 2.0, 3.0):
        rep = mixed_weak_experiment(bundle, fs, [w1, w2], v, t=t)
        assert rep.verdict == "holds"


# -- fefferman-stein ---------------------------------------------------------

def test_fs_zero_input():
    z = GridFunction.constant(DOM, 0.0)
    rep = fefferman_stein_experiment(hilbert_bundle([SYMBOL]), [z], [1.0], [ONE])
    assert rep.lhs == 0.0
    assert rep.verdict == "holds"


def test_fs_unweighted_reduction():
    rep = fefferman_stein_experiment(hilbert_bundle([SYMBOL]), [rand_f(3)], [1.0], [ONE])
    assert rep.verdict in ("holds", "holds-with-margin")


def test_fs_spike_weight():
    s = np.ones(DOM.n_cells)
    s[DOM.n_cells // 2] += 1e3
    spike = Weight(GridFunction(DOM, s), "spike")
    rep = fefferman_stein_experiment(hilbert_bundle([SYMBOL]), [bump(0.5)], [1.0], [spike])
    assert rep.verdict in ("holds", "holds-with-margin")
    assert rep.ratio <= 1.0  # maximal smoothing of the spike leaves margin


def test_fs_scaling_invariance():
    f = rand_f(4)
    a = fefferman_stein_experiment(hilbert_bundle([SYMBOL]), [f], [1.0], [ONE])
    b = fefferman_stein_experiment(hilbert_bundle([SYMBOL]), [5.0 * f], [1.0], [ONE])
    assert a.ratio == pytest.approx(b.ratio, rel=1e-9)


def test_fs_rejects_large_p():
    with pytest.raises(ValueError):
        fefferman_stein_experiment(hilbert_bundle([SYMBOL]), [rand_f(0)], [3.0], [ONE])


# -- modular -----------------------------------------------------------------

def test_modular_branch1_quadratic():
    rep = modular_experiment(hilbert_bundle([SYMBOL]), [rand_f(5)], power(2.0), 1.2, 1.5, ONE)
    assert rep.params["branch"] == 1
    assert rep.verdict in ("holds", "holds-with-margin")


def test_modular_branch2():
    w = Weight(GridFunction.from_callable(DOM, lambda x: np.abs(x - 0.5) ** 0.05), "w05")
    rep = modular_experiment(hilbert_bundle([SYMBOL]), [rand_f(6)], power(1.2), 1.1, 2.0, w)
    assert rep.params["branch"] == 2
    assert rep.verdict in ("holds", "holds-with-margin")


def test_modular_zero_input():
    z = GridFunction.constant(DOM, 0.0)
    rep = modular_experiment(hilbert_bundle([SYMBOL]), [z], power(2.0), 1.2, 1.5, ONE)
    assert rep.lhs == 0.0
    assert rep.ratio == 0.0


def test_modular_gating_error_names_index():
    with pytest.raises(ValueError, match="i_phi"):
        modular_experiment(hilbert_bundle([SYMBOL]), [rand_f(0)], power(2.0), 5.0, 1.5, ONE)


def test_modular_rejects_non_submultiplicative():
    with pytest.raises(ValueError):
        modular_experiment(
            hilbert_bundle([SYMBOL]), [rand_f(0)], exp_power(1.0), 1.2, 1.5, ONE
        )


def test_quasiconvex_alpha_quadratic():
    assert quasiconvex_alpha(power(2.0)) == pytest.approx(1.0)


@pytest.mark.parametrize("phis", [
    [power(p) for p in np.logspace(-2.0, 3.0, 20)],
    [llog(a) for a in np.linspace(0.0, 300.0, 12)],
], ids=["power:0.01..1000", "llog:0..300"])
def test_quasiconvex_alpha_is_the_closed_form_one(phis):
    # phibar is a sup of affine maps, so convex: modular_experiment takes
    # alpha = 1 without a search
    assert [quasiconvex_alpha(phi) for phi in phis] == [1.0] * len(phis)


def _count_numeric_conjugates(monkeypatch) -> list:
    calls = []
    numeric = criteria._conjugate_eval
    monkeypatch.setattr(
        criteria, "_conjugate_eval", lambda *a: calls.append(a) or numeric(*a)
    )
    return calls


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 5.0])
def test_quasiconvex_alpha_of_a_power_takes_the_closed_form_conjugate(p, monkeypatch):
    # passing phi tests the closed-form conjugate of phi; passing
    # complementary(phi) tests the conjugate of that, phi again, through
    # two numeric conjugates, and gives the same alpha
    calls = _count_numeric_conjugates(monkeypatch)
    phi = power(p)
    via_numeric = quasiconvex_alpha(complementary(phi))
    assert calls
    calls.clear()
    assert quasiconvex_alpha(phi) == via_numeric
    assert not calls


@pytest.mark.parametrize("p, q, r", [(2.0, 1.2, 1.5), (1.2, 1.1, 2.0)])
def test_modular_alpha_takes_no_numeric_conjugate_for_a_power(p, q, r, monkeypatch):
    calls = _count_numeric_conjugates(monkeypatch)
    phi = power(p)
    rep = modular_experiment(hilbert_bundle([SYMBOL]), [rand_f(5)], phi, q, r, ONE)
    assert not calls
    assert rep.constants["alpha"] == quasiconvex_alpha(complementary(phi))


# -- report plumbing ---------------------------------------------------------

@pytest.mark.parametrize("lhs, rhs, ratio, verdict", [
    (0.0, 0.0, 0.0, "holds"),
    (0.0, 2.0, 0.0, "holds"),
    (3.0, 0.0, math.inf, "degenerate"),
    (3.0, 2.0, 1.5, "holds-with-margin"),
    (30.0, 2.0, 15.0, "violated"),
])
def test_bound_report_ratio_and_verdict(lhs, rhs, ratio, verdict):
    bundle = calderon_bundle(1, [SYMBOL], [0])
    rep = harness._bound_report(
        "bound", bundle, [rand_f(0), rand_f(1)], {"p": 2.0}, lhs, rhs, {"c": 1.0}, 10.0)
    assert (rep.ratio, rep.verdict) == (ratio, verdict)
    assert (rep.lhs, rep.rhs) == (lhs, rhs)
    assert rep.params == {"p": 2.0, "m": 2, "l": 1}
    assert rep.constants == {"c": 1.0, "slack": 10.0}
    assert rep.fit is None
    assert rep.env["L"] == DOM.resolution_log2
    assert rep.env["pv_cutoff"] == 1
    assert "seed" not in rep.env


def test_report_determinism():
    f = rand_f(7)
    a = coifman_fefferman_experiment(hilbert_bundle([SYMBOL]), [f], 1.0, ONE)
    b = coifman_fefferman_experiment(hilbert_bundle([SYMBOL]), [f], 1.0, ONE)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_stein_bundle_rejects_symbols_and_small_alpha():
    # sublinear: the binomial expansion of the commutator does not hold
    with pytest.raises(ValueError, match="no symbols"):
        OperatorBundle(KernelOperator("stein"), 1, (SYMBOL,), (0,))
    with pytest.raises(ValueError, match="alpha"):
        stein_bundle(0.5)


def test_default_t_grid_scales_with_symbols():
    g = default_t_grid(2.0)
    assert len(g) == 24
    assert g[0] == pytest.approx(1.0)
    assert g[-1] == pytest.approx(100.0)
