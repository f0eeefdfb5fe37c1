import itertools
import math

import numpy as np
import pytest

from sparse_harmonics.grid import (
    Domain,
    DyadicCube,
    GridFunction,
    average,
    children,
    cube_cells,
    family_for,
)
from sparse_harmonics.harness import principal_cubes
from sparse_harmonics.sparse import SparseFamily, sparse_operator

from criteria import commutator_sparse_form, counting_decay, oscillation_sparse, verify_sparse
from oracles import brute_stopping_cubes, optimal_eta, per_cube_sparse_operator

DOM = Domain(0.0, 1.0, 6)
ROOT = DyadicCube(0, 0, 0)


def nested_chain(depth, dom=DOM):
    cubes = [ROOT]
    for _ in range(depth):
        cubes.append(children(cubes[-1])[0])
    return SparseFamily.make(cubes, 0.5, dom)


def random_family(seed, eta=0.5, dom=DOM, max_cubes=10):
    # stopping-time style selection: each cube passes at most half of its
    # measure to selected descendants (one child, or two grandchildren),
    # which keeps the family 1/2-sparse by construction
    rng = np.random.default_rng(seed)
    cubes = [ROOT]
    frontier = [ROOT]
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
    return SparseFamily.make(cubes, eta, dom)


def test_single_cube():
    fam = SparseFamily.make([ROOT], 0.5, DOM)
    ok, eta, carleson = verify_sparse(fam)
    assert ok and eta == 1.0 and carleson == 1.0


def test_nested_chain_half_sparse():
    fam = nested_chain(4)
    ok, eta, carleson = verify_sparse(fam)
    assert ok and eta == pytest.approx(0.5)
    assert carleson <= 2.0 + 1e-12


def test_multiple_lattices_rejected():
    with pytest.raises(ValueError):
        SparseFamily.make([ROOT, DyadicCube(1, 1, 0)], 0.5, DOM)


def test_union_carleson_bound():
    for seed in range(10):
        f1 = random_family(seed)
        f2 = random_family(seed + 100)
        _, _, c1 = verify_sparse(f1)
        _, _, c2 = verify_sparse(f2)
        union = SparseFamily.make(f1.cubes + f2.cubes, 0.25, DOM)
        _, _, cu = verify_sparse(union)
        assert cu <= c1 + c2 + 1e-12


def test_sparse_carleson_equivalence_brute_force():
    # the optimal (fractional) sparseness equals 1/Carleson on small families
    for seed in range(8):
        fam = random_family(seed, dom=Domain(0.0, 1.0, 4), max_cubes=8)
        _, eta_canonical, carleson = verify_sparse(fam)
        eta_star = optimal_eta(fam)
        assert eta_star >= 1.0 / carleson - 1e-7
        assert eta_star >= eta_canonical - 1e-9


def test_sparse_operator_single_cube():
    fam = SparseFamily.make([DyadicCube(0, 1, 1)], 0.5, DOM)
    one = GridFunction.constant(DOM, 1.0)
    out = sparse_operator(fam, [one], 1).samples
    want = np.zeros(DOM.n_cells)
    want[DOM.n_cells // 2 :] = 1.0
    np.testing.assert_allclose(out, want)


def test_sparse_operator_chain_counting():
    d = 4
    fam = nested_chain(d)
    one = GridFunction.constant(DOM, 1.0)
    out = sparse_operator(fam, [one], 1).samples
    # value k+1 on the k-th cube minus the next one
    for k in range(d + 1):
        width = DOM.n_cells >> k
        nxt = width // 2 if k < d else 0
        assert np.all(out[nxt:width] == pytest.approx(float(k + 1)))


def edge_family(lattice_id, dom=DOM):
    # the first and last cube of each level of one lattice: in the shifted
    # lattices they stick out past an edge of the domain, and 3Q does in all
    cubes = [DyadicCube(lattice_id, e.level, e.t0 + i)
             for e in family_for(dom).entries if e.lattice_id == lattice_id
             for i in {0, e.n_cubes - 1}]
    return SparseFamily.make(cubes, 0.5, dom)


def test_sparse_operator_matches_naive():
    rng = np.random.default_rng(0)
    f = GridFunction(DOM, rng.uniform(0, 3, DOM.n_cells))
    families = [random_family(seed) for seed in range(5)]
    families += [edge_family(lattice_id) for lattice_id in range(4)]
    # lattice 3's edge family sticks out past both edges of the domain
    assert any(q.cell_bounds(DOM)[0] < 0 for q in families[-1].cubes)
    assert any(q.cell_bounds(DOM)[1] > DOM.n_cells for q in families[-1].cubes)
    for fam in families:
        # <|f|^r>_{dQ}: the input is |f|^r
        for r, d in ((1.0, 1), (2.0, 1), (1.0, 3)):
            got = sparse_operator(fam, [GridFunction(DOM, f.samples ** r)], d).samples
            want = np.zeros(DOM.n_cells)
            for q in fam.cubes:
                lo, hi, full = cube_cells(DOM, q, d)
                s, e, _ = q.cell_bounds(DOM)
                want[max(s, 0) : min(e, DOM.n_cells)] += np.sum(f.samples[lo:hi] ** r) / full
            np.testing.assert_allclose(got, want, rtol=1e-12)
        # the l = 0 commutator form is the plain-Q sum over every input
        for m in (1, 2, 3):
            fs = [GridFunction(DOM, rng.uniform(-2, 2, DOM.n_cells)) for _ in range(m)]
            assert np.array_equal(sparse_operator(fam, fs, 1).samples,
                                  commutator_sparse_form(fam, [], fs, []).samples)


@pytest.mark.parametrize("L", [6, 10])
def test_sparse_operator_equals_the_per_cube_oracle_bit_for_bit(L):
    # every <|f_s|>_{dQ} a pairwise sum over its own cells, and the cubes
    # added in family order: random and principal families, the edge
    # families of the four lattices, and a family given out of order with a
    # cube twice, whose runs of disjoint cubes are shorter than its levels
    dom = Domain(0.0, 1.0, L)
    rng = np.random.default_rng(L)
    x = dom.cell_centers()
    families = [random_family(seed, dom=dom, max_cubes=40) for seed in range(4)]
    families += [edge_family(lattice_id, dom) for lattice_id in range(4)]
    g = GridFunction(dom, np.log(np.abs(x - 0.4)) * rng.uniform(0.5, 1.5, dom.n_cells))
    families += [principal_cubes(g, DyadicCube(e.lattice_id, 1, e.t0))
                 for e in family_for(dom).entries if e.level == 1]
    mixed = families[0].cubes
    families.append(SparseFamily(mixed[::-1] + mixed[:3] + (mixed[-1],), 0.5, dom))
    for fam in families:
        for m, d in itertools.product((1, 2, 3), (1, 3)):
            fs = [GridFunction(dom, rng.uniform(-2.0, 2.0, dom.n_cells) * rng.uniform(0, 10) ** 3)
                  for _ in range(m)]
            assert np.array_equal(sparse_operator(fam, fs, d).samples,
                                  per_cube_sparse_operator(fam, fs, d))


def test_sparse_operator_refuses_a_bad_dilation_and_a_cube_off_the_domain():
    f = GridFunction.constant(DOM, 1.0)
    fam = random_family(0)
    for d in (0, -1, 1.5, True + 1.0):
        for route in (sparse_operator, per_cube_sparse_operator):
            with pytest.raises(ValueError, match="dilation must be a positive integer"):
                route(fam, [f], d)
    far = SparseFamily.make([ROOT, DyadicCube(0, 2, 9)], 0.5, DOM)
    for d in (1, 3):
        for route in (sparse_operator, per_cube_sparse_operator):
            with pytest.raises(ValueError, match="cube does not meet the domain"):
                route(far, [f], d)
    # a cube left of the domain whose 3Q reaches into it: the per-cube route
    # slices its cells up to a negative end, which counts from the right
    left = SparseFamily.make([DyadicCube(2, 1, -2)], 0.5, DOM)
    assert cube_cells(DOM, left.cubes[0], 3)[1] > 0
    for d in (1, 3):
        with pytest.raises(ValueError, match="cube does not meet the domain"):
            sparse_operator(left, [f], d)


def test_sparse_operator_additive_on_nonnegative():
    f = GridFunction(DOM, np.random.default_rng(1).uniform(0, 2, DOM.n_cells))
    g = GridFunction(DOM, np.random.default_rng(2).uniform(0, 2, DOM.n_cells))
    fam = random_family(3)
    a = sparse_operator(fam, [f], 1).samples
    b = sparse_operator(fam, [g], 1).samples
    ab = sparse_operator(fam, [f + g], 1).samples
    np.testing.assert_allclose(ab, a + b, rtol=1e-12)


def test_commutator_form_constant_symbol_vanishes():
    fam = random_family(4)
    b = GridFunction.constant(DOM, 3.0)
    f = GridFunction(DOM, np.random.default_rng(3).uniform(0, 2, DOM.n_cells))
    for g in (1, 2):
        out = commutator_sparse_form(fam, [b], [f, f], [g])
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-12)


def test_commutator_form_empty_symbols_is_sparse_product():
    fam = random_family(5)
    rng = np.random.default_rng(4)
    f1 = GridFunction(DOM, rng.uniform(0, 2, DOM.n_cells))
    f2 = GridFunction(DOM, rng.uniform(0, 2, DOM.n_cells))
    got = commutator_sparse_form(fam, [], [f1, f2], []).samples
    want = np.zeros(DOM.n_cells)
    for q in fam.cubes:
        s, e, _ = q.cell_bounds(DOM)
        want[s:e] += average(f1, q) * average(f2, q)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_commutator_form_hand_value():
    fam = SparseFamily.make([ROOT], 0.5, DOM)
    b = GridFunction.indicator(DOM, 0.0, 0.5)
    one = GridFunction.constant(DOM, 1.0)
    out = commutator_sparse_form(fam, [b], [one, one], [2]).samples
    np.testing.assert_allclose(out, 0.5, rtol=1e-12)


def test_commutator_form_validation():
    fam = random_family(6)
    one = GridFunction.constant(DOM, 1.0)
    with pytest.raises(ValueError):
        commutator_sparse_form(fam, [one, one], [one], [1, 1])
    with pytest.raises(ValueError):
        commutator_sparse_form(fam, [one], [one], [3])


def test_oscillation_constant_b():
    fam = nested_chain(2)
    b = GridFunction.constant(DOM, 1.0)
    out, cert = oscillation_sparse(b, fam)
    assert set(out.cubes) == set(fam.cubes)
    assert cert["ok"]


def test_oscillation_step_b():
    fam = SparseFamily.make([ROOT], 0.5, DOM)
    b = GridFunction.indicator(DOM, 0.0, 0.5)
    out, cert = oscillation_sparse(b, fam)
    assert cert["ok"], cert
    ok, eta, _ = verify_sparse(out)
    assert eta >= fam.eta / (2.0 * (1.0 + fam.eta)) - 1e-12


def test_oscillation_log_symbol():
    dom = Domain(0.0, 1.0, 12)
    b = GridFunction.from_callable(dom, lambda x: np.log(np.abs(x - 0.5) + 1e-12))
    for seed in range(3):
        fam = random_family(seed, dom=dom, max_cubes=8)
        out, cert = oscillation_sparse(b, fam)
        assert cert["ok"], cert
        ok, eta, _ = verify_sparse(out)
        assert eta >= fam.eta / (2.0 * (1.0 + fam.eta)) - 1e-12


@pytest.mark.parametrize("L", [6, 10], ids=lambda L: f"{L}-zero-extend")
def test_oscillation_family_matches_brute_walk(L):
    dom = Domain(0.0, 1.0, L)
    x = dom.cell_centers()
    rng = np.random.default_rng(L)
    symbols = [
        np.log(np.abs(x - 0.5) + dom.h / 4),
        np.abs(x - 0.37) ** -0.6,
        1.0 + 2.0 * (x < 0.3),
        np.repeat(rng.uniform(-1.0, 1.0, 32), dom.n_cells // 32),
    ]
    # a shifted-lattice family whose top cube sticks out of the domain
    top = DyadicCube(2, 1, -1)
    families = [random_family(seed, dom=dom) for seed in range(4)]
    families.append(SparseFamily.make([top] + children(top), 0.5, dom))
    for samples in symbols:

        def value(r, q):
            # <|b - <b>_Q|>_R, with <b>_Q over Q's cells in the domain
            lo, hi, _ = cube_cells(dom, q)
            dev = np.abs(samples - samples[lo:hi].sum() / (hi - lo))
            return average(GridFunction(dom, dev), r)

        for fam in families:
            out, _ = oscillation_sparse(GridFunction(dom, samples), fam, certify=False)
            want = brute_stopping_cubes(fam.cubes, value, 4.0, dom)
            assert set(out.cubes) == set(want)


def test_counting_decay_chain():
    d = 5
    fam = nested_chain(d)
    res = counting_decay(fam, ROOT)
    assert not res["degenerate"]
    assert res["fit"]["alpha"] == pytest.approx(math.log(2.0), rel=1e-9)
    assert res["fit"]["r2"] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        res["measure"][: d + 1], [2.0 ** -k for k in range(d + 1)], rtol=1e-12
    )


def test_counting_decay_random_families():
    for seed in range(20):
        fam = random_family(seed, max_cubes=12)
        res = counting_decay(fam, ROOT)
        if res["degenerate"]:
            continue
        assert res["fit"]["alpha"] > 0


def test_counting_decay_single_cube_degenerate():
    fam = SparseFamily.make([ROOT], 0.5, DOM)
    res = counting_decay(fam, ROOT)
    assert res["degenerate"]

