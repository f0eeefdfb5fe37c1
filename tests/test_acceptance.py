"""Acceptance suite: the quantitative, end-to-end checks the library must
pass, each with its stated tolerance and runtime budget."""

import math
import time

import numpy as np
import pytest

from sparse_harmonics.cli import fixtures_dir, main
from sparse_harmonics.grid import Domain, DyadicCube, GridFunction, children
from sparse_harmonics.harness import (
    calderon_bundle,
    coifman_fefferman_experiment,
    fefferman_stein_experiment,
    hilbert_bundle,
    mixed_weak_experiment,
    modular_experiment,
    sharpness_experiment,
)
from sparse_harmonics.operators import (
    calderon_apply,
    hilbert_transform,
    iterated_commutator,
    stein_square_function,
)
from sparse_harmonics.operators import KernelOperator
from sparse_harmonics.orlicz import dilation_indices, llog, power
from sparse_harmonics.sparse import SparseFamily
from sparse_harmonics.weights import Weight, ap_constant, log_k0_p0

from criteria import (
    counting_decay,
    lorentz_l1_norm,
    oscillation_sparse,
    power_over_p,
    reverse_holder_check,
    rubio_de_francia,
    s_u,
    verify_sparse,
    young_pair_checks,
)
from oracles import (
    brute_ainfty,
    brute_ap,
    first_order_commutator_kernel,
    numeric_dilation_indices,
)

DOM8 = Domain(0.0, 1.0, 8)
ROOT8 = DyadicCube(0, 0, 0)


def make_weight(dom, spec):
    name, fn = spec
    return Weight(GridFunction.from_callable(dom, fn), name)


def weight_bank(dom):
    eps = dom.h / 4
    specs = [
        ("one", lambda x: np.ones_like(x)),
        ("sqrt", lambda x: np.abs(x - 0.5) ** 0.5 + eps),
        ("p13", lambda x: np.abs(x - 0.5) ** (1.0 / 3.0) + eps),
        ("m13", lambda x: (np.abs(x - 0.5) + eps) ** (-1.0 / 3.0)),
        ("m14", lambda x: (np.abs(x - 0.5) + eps) ** (-0.25)),
        ("exp", np.exp),
        ("step", lambda x: 1.0 + 3.0 * (x < 0.5)),
        ("ramp", lambda x: 0.5 + x),
        ("cos", lambda x: 1.5 + np.cos(2 * math.pi * x)),
        ("edge", lambda x: (x + eps) ** 0.4),
    ]
    return [make_weight(dom, s) for s in specs]


def random_half_sparse(seed, dom, max_cubes=14):
    # stopping-time selection: each cube passes at most half its measure on,
    # so the canonical disjoint sets witness eta = 1/2
    rng = np.random.default_rng(seed)
    root = DyadicCube(0, 0, 0)
    cubes = [root]
    frontier = [root]
    while frontier and len(cubes) < max_cubes:
        q = frontier.pop(rng.integers(len(frontier)))
        if q.level >= dom.resolution_log2 - 2:
            continue
        kids = children(q)
        if rng.random() < 0.5:
            picks = [kids[rng.integers(2)]]
        else:
            picks = [children(k)[rng.integers(2)] for k in kids]
        for p in picks[: max_cubes - len(cubes)]:
            cubes.append(p)
            frontier.append(p)
    return SparseFamily.make(cubes, 0.5, dom)


# 1. sharpness of the local decay exponent ----------------------------------

def test_criterion_1_sharpness():
    t0 = time.time()
    _, rep = sharpness_experiment(L=14)
    assert not rep.fit["degenerate"]
    assert 0.4 <= rep.fit["p"] <= 0.65
    assert rep.fit["r2"] >= 0.9
    _, contrast = sharpness_experiment(L=14, bounded_symbol=True)
    assert contrast.fit["p"] >= 0.8
    assert time.time() - t0 <= 60.0


# 2. counting-function decay -------------------------------------------------

def deep_half_sparse(seed, dom, steps=5):
    # every branch gets the same count budget, so each unit of the counting
    # function costs a fixed measure factor and the decay is clean
    rng = np.random.default_rng(seed)
    root = DyadicCube(0, 0, 0)
    cubes = [root]
    stack = [(root, 0)]
    while stack:
        q, depth = stack.pop()
        if depth >= steps or q.level >= dom.resolution_log2 - 2:
            continue
        kids = children(q)
        u = rng.random()
        if u < 0.4:
            picks = [kids[rng.integers(2)]]
        elif u < 0.8:
            picks = [children(k)[rng.integers(2)] for k in kids]
        else:
            picks = [children(kids[rng.integers(2)])[rng.integers(2)]]
        for p in picks:
            cubes.append(p)
            stack.append((p, depth + 1))
    return SparseFamily.make(cubes, 0.5, dom)


def test_criterion_2_counting_decay():
    t0 = time.time()
    dom = Domain(0.0, 1.0, 12)
    root = DyadicCube(0, 0, 0)
    for seed in range(20):
        fam = deep_half_sparse(seed, dom)
        ok, _, _ = verify_sparse(fam)
        assert ok
        res = counting_decay(fam, root)
        assert not res["degenerate"]
        assert res["fit"]["alpha"] > 0
        assert res["fit"]["r2"] >= 0.95
    # nested dyadic chain: measure halves per level, alpha = ln 2 exactly
    chain = [DyadicCube(0, k, 0) for k in range(10)]
    fam = SparseFamily.make(chain, 0.5, dom)
    res = counting_decay(fam, root)
    assert res["fit"]["alpha"] == pytest.approx(math.log(2.0), rel=0.01)
    assert time.time() - t0 <= 10.0


# 3. oscillation stopping-family certificate ---------------------------------

def test_criterion_3_oscillation_certificate():
    t0 = time.time()
    dom = Domain(0.0, 1.0, 10)
    eps = dom.h / 4
    symbols = [
        GridFunction(dom, 1.0 + 2.0 * (dom.cell_centers() < 0.3)),
        GridFunction.from_callable(dom, lambda x: np.log(np.abs(x - 0.5) + eps)),
        GridFunction(
            dom,
            np.repeat(np.random.default_rng(5).uniform(-1, 1, 32), dom.n_cells // 32),
        ),
    ]
    for b in symbols:
        for seed in range(5):
            fam = random_half_sparse(seed, dom)
            _, eta_in, _ = verify_sparse(fam)
            out, cert = oscillation_sparse(b, fam, certify=True)
            ok, eta_out, _ = verify_sparse(out)
            assert ok
            assert eta_out >= fam.eta / (2.0 * (1.0 + fam.eta)) - 1e-12
            assert cert["checked"]
            assert cert["worst_gap"] <= 1e-10
    assert time.time() - t0 <= 30.0


# 4. weight-constant oracle equivalence --------------------------------------

def test_criterion_4_weight_oracles():
    t0 = time.time()
    dom = Domain(0.0, 1.0, 6)
    bank = weight_bank(dom)
    assert len(bank) == 10
    for w in bank:
        for p in (1.0, 2.0):
            assert w.ap(p) == pytest.approx(brute_ap(w, p), rel=1e-12)
        fw, weak = w.ainfty()
        bfw, bweak = brute_ainfty(w)
        assert fw == pytest.approx(bfw, rel=1e-12)
        assert weak == pytest.approx(bweak, rel=1e-12)
    one = bank[0]
    for p in (1.0, 1.5, 2.0, 4.0):
        assert one.ap(p) == pytest.approx(1.0, rel=1e-12)
    fw, weak = one.ainfty()
    assert fw == pytest.approx(1.0, rel=1e-12)
    assert weak == pytest.approx(0.5, rel=1e-12)
    _, weak_exp = bank[5].ainfty()
    assert weak_exp < 1.0
    assert time.time() - t0 <= 20.0


# 5. reverse Holder with the weak constant -----------------------------------

def test_criterion_5_reverse_holder():
    dom = Domain(0.0, 1.0, 8)
    for w in weight_bank(dom):
        res = reverse_holder_check(w)
        assert res["ok"], (w.name, res)


# 6. majorant algorithm properties -------------------------------------------

def test_criterion_6_rubio_de_francia():
    t0 = time.time()
    dom = Domain(0.0, 1.0, 8)
    us = [w for w in weight_bank(dom) if w.name in ("one", "step", "exp", "ramp")]
    hs = [
        GridFunction.from_callable(dom, lambda x: np.exp(-60 * (x - 0.4) ** 2)),
        GridFunction(dom, np.random.default_rng(3).uniform(0.0, 1.0, dom.n_cells)),
    ]
    rp = 2.0
    for u in us:
        a1 = u.ap(1.0)
        k0 = math.exp(log_k0_p0(2.0, a1, max(a1, 1.0))[1])
        for h in hs:
            rh = rubio_de_francia(h, u, k0)
            assert np.all(rh.samples >= h.samples - 1e-12)
            lhs = s_u(rh, u).samples
            assert np.all(lhs <= 2.0 * k0 * rh.samples * (1.0 + 1e-6))
            rhu = Weight(GridFunction(dom, rh.samples * u.samples + 1e-300), "rhu")
            assert ap_constant(rhu, 1.0) <= 2.0 * k0 * (1.0 + 1e-6)
            assert lorentz_l1_norm(rh, rp, u) <= 2.0 * lorentz_l1_norm(h, rp, u)
    assert time.time() - t0 <= 20.0


# 7. weighted p-th power ratio suite -----------------------------------------

def test_criterion_7_lp_ratio_suite():
    t0 = time.time()
    dom = Domain(0.0, 1.0, 8)
    eps = dom.h / 4
    b = GridFunction.from_callable(dom, lambda x: np.sin(3 * x) + 0.2 * x)
    weights = [
        Weight(GridFunction.constant(dom, 1.0), "one"),
        make_weight(dom, ("p13", lambda x: np.abs(x - 0.5) ** (1.0 / 3.0) + eps)),
        make_weight(dom, ("m13", lambda x: (np.abs(x - 0.5) + eps) ** (-1.0 / 3.0))),
    ]
    bundles = {
        ("hilbert", 0): hilbert_bundle(),
        ("hilbert", 1): hilbert_bundle([b]),
        ("calderon", 0): calderon_bundle(1),
        ("calderon", 1): calderon_bundle(1, [b], [0]),
    }
    checked_invariance = set()
    for (opname, l), bundle in bundles.items():
        for p in (0.5, 1.0, 2.0):
            for w in weights:
                for seed in range(10):
                    rng = np.random.default_rng(seed)
                    fs = [
                        GridFunction(dom, rng.uniform(-1.0, 1.0, dom.n_cells))
                        for _ in range(bundle.m)
                    ]
                    rep = coifman_fefferman_experiment(bundle, fs, p, w)
                    assert rep.ratio <= 10.0, (opname, l, p, w.name, seed, rep.ratio)
                    if (opname, l, p) not in checked_invariance and seed == 0:
                        checked_invariance.add((opname, l, p))
                        sf = coifman_fefferman_experiment(
                            bundle, [3.0 * f for f in fs], p, w
                        )
                        assert sf.ratio == pytest.approx(rep.ratio, rel=1e-9)
                        if l:
                            sb = coifman_fefferman_experiment(
                                hilbert_bundle([5.0 * b])
                                if opname == "hilbert"
                                else calderon_bundle(1, [5.0 * b], [0]),
                                fs, p, w,
                            )
                            assert sb.ratio == pytest.approx(rep.ratio, rel=1e-9)
    assert time.time() - t0 <= 300.0


# 8. mixed weak-type suite ---------------------------------------------------

def test_criterion_8_mixed_weak_suite():
    t0 = time.time()
    # hand-computed constant check: n=1, t=2, [u]_A1 = [v^{1/m}]_A2 = 1
    p0, log_k0 = log_k0_p0(2.0, 1.0, 1.0)
    k0 = math.exp(log_k0)
    assert p0 == pytest.approx(17.0)
    assert k0 == pytest.approx(4.0 * 17.0 * (17.0 / 16.0) * (1.0 + 2.0 ** 16) + 1.0)

    dom = Domain(0.0, 1.0, 8)
    eps = dom.h / 4
    b = GridFunction.from_callable(dom, lambda x: np.sin(3 * x) + 0.2 * x)
    one = Weight(GridFunction.constant(dom, 1.0), "one")
    step = make_weight(dom, ("step", lambda x: 1.0 + 3.0 * (x < 0.5)))
    v_sing = make_weight(dom, ("v14", lambda x: np.abs(x - 0.5) ** 0.25 + eps))
    rng = np.random.default_rng(0)
    f1 = GridFunction(dom, rng.uniform(-1.0, 1.0, dom.n_cells))
    f2 = GridFunction(dom, rng.uniform(-1.0, 1.0, dom.n_cells))
    cases = [
        (hilbert_bundle(), [f1], [one], one),
        (hilbert_bundle([b]), [f1], [step], one),
        (hilbert_bundle([b]), [f1], [step], v_sing),
        (calderon_bundle(1), [f1, f2], [one, step], one),
        (calderon_bundle(1, [b], [0]), [f1, f2], [step, step], v_sing),
    ]
    for bundle, fs, ws, v in cases:
        for t in (1.5, 2.0, 3.0):
            rep = mixed_weak_experiment(bundle, fs, ws, v, t=t)
            assert rep.verdict in ("holds", "holds-with-margin"), (v.name, t, rep.ratio)
            assert rep.ratio <= 1.0 + rep.constants["slack"]
    assert time.time() - t0 <= 180.0


# 9. arbitrary-weight suite --------------------------------------------------

def test_criterion_9_fefferman_stein_suite():
    t0 = time.time()
    dom = Domain(0.0, 1.0, 8)
    eps = dom.h / 4
    b = GridFunction.from_callable(dom, lambda x: np.sin(3 * x) + 0.2 * x)
    spike_samples = np.ones(dom.n_cells)
    spike_samples[dom.n_cells // 2] += 1e3
    weights = [
        Weight(GridFunction.constant(dom, 1.0), "one"),
        make_weight(dom, ("p13", lambda x: np.abs(x - 0.5) ** (1.0 / 3.0) + eps)),
        Weight(GridFunction(dom, spike_samples), "spike"),
    ]
    cases = [
        (hilbert_bundle(), [1.0]),
        (hilbert_bundle([b]), [1.0]),
        (calderon_bundle(1), [2.0, 2.0]),
        (calderon_bundle(1, [b], [0]), [2.0, 2.0]),
    ]
    for bundle, ps in cases:
        for w in weights:
            for seed in range(5):
                rng = np.random.default_rng(seed)
                fs = [
                    GridFunction(dom, rng.uniform(-1.0, 1.0, dom.n_cells))
                    for _ in range(bundle.m)
                ]
                rep = fefferman_stein_experiment(bundle, fs, ps, [w] * bundle.m)
                assert rep.lhs <= rep.rhs * 10.0, (w.name, seed, rep.ratio)
    assert time.time() - t0 <= 180.0


# 10. modular suite ----------------------------------------------------------

def test_criterion_10_modular_suite():
    dom = Domain(0.0, 1.0, 8)
    eps = dom.h / 4
    b = GridFunction.from_callable(dom, lambda x: np.sin(3 * x) + 0.2 * x)
    one = Weight(GridFunction.constant(dom, 1.0), "one")
    w05 = make_weight(dom, ("w05", lambda x: np.abs(x - 0.5) ** 0.05 + eps))
    rng = np.random.default_rng(1)
    f = GridFunction(dom, rng.uniform(-1.0, 1.0, dom.n_cells))
    f2 = GridFunction(dom, rng.uniform(-1.0, 1.0, dom.n_cells))

    # closed-form indices are exact, numeric probes within 0.05
    for p in (1.2, 2.0, 3.0):
        i_closed, I_closed = dilation_indices(power(p))
        assert i_closed == p and I_closed == p
        i_num, I_num = numeric_dilation_indices(power(p))
        assert abs(i_num - p) <= 0.05 and abs(I_num - p) <= 0.05

    # branch 1 and branch 2 both execute and stay within slack
    for bundle, fs in ((hilbert_bundle([b]), [f]), (calderon_bundle(1, [b], [0]), [f, f2])):
        rep1 = modular_experiment(bundle, fs, power(2.0), 1.2, 1.5, one)
        assert rep1.params["branch"] == 1 and rep1.ratio <= 10.0
        rep2 = modular_experiment(bundle, fs, power(1.2), 1.1, 2.0, w05)
        assert rep2.params["branch"] == 2 and rep2.ratio <= 10.0
    with pytest.raises(ValueError, match="i_phi"):
        modular_experiment(hilbert_bundle([b]), [f], power(2.0), 5.0, 1.5, one)

    # growth-function identities and doubling constants, zero violations
    grid = np.logspace(-3.0, 2.0, 50)
    for phi in (power(1.5), power(2.0), power(3.0), power_over_p(2.0), llog(1.0)):
        res = young_pair_checks(phi, grid)
        assert res["ok"], (phi.name, res["failures"])
    ts = np.logspace(-4.0, 4.0, 60)
    lams = np.array([2.0, 3.0, 5.0, 17.0, 128.0])
    for phi in (power(1.5), power(2.0), power(3.0), power_over_p(2.0), llog(1.0)):
        c1 = phi.delta2_C1
        vals = phi(np.outer(lams, ts))
        bound = (2.0 * lams)[:, None] ** c1 * phi(ts)[None, :]
        assert np.all(vals <= bound * (1.0 + 1e-12)), phi.name


# 11. operator cross-validation ----------------------------------------------

def test_criterion_11_operator_cross_validation():
    t0 = time.time()
    # kernel vs algebraic commutator
    dom = Domain(0.0, 1.0, 8)
    rng = np.random.default_rng(2)
    b = GridFunction.from_callable(dom, lambda x: np.cos(2.0 * x) + x)
    f = GridFunction(dom, rng.uniform(-1.0, 1.0, dom.n_cells))
    H = KernelOperator("hilbert")
    expanded = iterated_commutator(H, [b], [0], [f]).samples
    direct = first_order_commutator_kernel(b, f).samples
    np.testing.assert_allclose(expanded, direct, atol=1e-10)

    # closed form for the indicator transform
    dom14 = Domain(-1.0, 3.0, 14)
    chi = GridFunction.indicator(dom14, 0.0, 1.0)
    hval = hilbert_transform(chi).samples
    x = dom14.cell_centers()
    want = np.log(np.abs(x / (x - 1.0))) / math.pi
    mask = (np.abs(x) >= 8 * dom14.h) & (np.abs(x - 1.0) >= 8 * dom14.h)
    rel = np.abs(hval[mask] - want[mask]) / np.maximum(np.abs(want[mask]), 1e-3)
    assert rel.max() <= 0.02

    # square-function invariance across pure waves
    dom10 = Domain(0.0, 1.0, 10)
    vals = []
    for xi0 in (4, 16):
        wigg = GridFunction(dom10, np.exp(2j * math.pi * xi0 * dom10.cell_centers()))
        g = stein_square_function(wigg, 1.0, n_scales=2048).samples
        vals.append(g.mean())
    assert abs(vals[0] - vals[1]) / vals[1] <= 0.01

    # bilinear form with a constant slot against the linear transform
    dom12 = Domain(0.0, 1.0, 12)
    onef = GridFunction.constant(dom12, 1.0)
    bumpf = GridFunction.from_callable(dom12, lambda x: np.exp(-120 * (x - 0.5) ** 2))
    c = calderon_apply([onef, bumpf]).samples / math.pi
    hf = hilbert_transform(bumpf).samples
    assert np.linalg.norm(c - hf) / np.linalg.norm(hf) <= 0.03
    assert time.time() - t0 <= 120.0


# 12. determinism of the shipped artifacts -----------------------------------

def test_criterion_12_determinism(tmp_path):
    fix = fixtures_dir()
    out = tmp_path / "rerun"
    assert main(["run", str(fix / "sharpness.ini"), "--out", str(out)]) == 0
    assert main(["constants", str(fix / "weight_bank.ini"), "--out", str(out)]) == 0
    assert main(["diff-fixtures", str(out)]) == 0
