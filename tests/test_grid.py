import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_harmonics.grid import (
    GROUP_CELLS,
    MAX_RESOLUTION,
    PRUNE_MARGIN,
    CubeFamily,
    Domain,
    DyadicCube,
    GridFunction,
    ResolutionError,
    average,
    children,
    cube_cells,
    family_for,
)

from oracles import entry_cubes


def test_domain_basic():
    dom = Domain(0.0, 1.0, 6)
    assert dom.n_cells == 64
    assert dom.h == 1.0 / 64
    assert len(dom.cell_centers()) == 64
    with pytest.raises(ValueError):
        Domain(0.0, -1.0, 4)
    with pytest.raises(ValueError):
        Domain(0.0, 1.0, 0)


def test_domain_resolution_stops_where_the_prune_margin_does():
    # the A_inf rounding bound of the PRUNE_MARGIN comment, 2 * 4**L eps plus
    # about 20 eps, is below the margin up to MAX_RESOLUTION and above it next
    eps = 2.0 ** -53
    below, above = (2 * 4.0 ** L * eps + 20 * eps for L in (MAX_RESOLUTION, MAX_RESOLUTION + 1))
    assert MAX_RESOLUTION == 16
    assert below < PRUNE_MARGIN < above
    assert Domain(0.0, 1.0, 16).n_cells == 1 << 16
    for L in (17, 60):
        with pytest.raises(ValueError, match="L = 16"):
            Domain(0.0, 1.0, L)


def test_gridfunction_rejects_bad_samples():
    dom = Domain(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        GridFunction(dom, np.zeros(7))
    with pytest.raises(ValueError):
        GridFunction(dom, np.array([np.nan] + [0.0] * 7))


# -- children ----------------------------------------------------------------

def test_children_bisects_unit_interval():
    dom = Domain(0.0, 1.0, 4)
    root = DyadicCube(0, 0, 0)
    kids = children(root)
    assert [cube_cells(dom, k) for k in kids] == [(0, 8, 8), (8, 16, 8)]


def test_children_resolution_floor():
    # a child finer than the grid is refused where it is used
    dom = Domain(0.0, 1.0, 4)
    leaf = DyadicCube(0, 4, 3)
    for kid in children(leaf):
        with pytest.raises(ResolutionError):
            kid.cell_bounds(dom)


def test_children_partition_shifted_exhaustive():
    # children of every shifted cube cover exactly the parent's cells
    dom = Domain(0.0, 1.0, 5)
    fam = CubeFamily(dom)
    for entry in fam.entries:
        if entry.level >= dom.resolution_log2:
            continue
        for q in entry_cubes(entry):
            s, e, _ = q.cell_bounds(dom)
            kid_cells = []
            for k in children(q):
                ks, ke, _ = k.cell_bounds(dom)
                kid_cells.append((ks, ke))
            kid_cells.sort()
            assert kid_cells[0][0] == s and kid_cells[-1][1] == e
            for (a, b), (c, d) in zip(kid_cells, kid_cells[1:]):
                assert b == c


# -- dilated cubes -----------------------------------------------------------

def test_dilate_examples():
    dom = Domain(0.0, 1.0, 4)
    root = DyadicCube(0, 0, 0)
    assert cube_cells(dom, root, 3) == (0, 16, 48)  # [-1, 2)
    q = DyadicCube(0, 2, 1)  # [1/4, 1/2)
    assert cube_cells(dom, q, 2) == (2, 10, 8)  # [1/8, 5/8)
    assert cube_cells(dom, q, 1) == cube_cells(dom, q) == (4, 8, 4)
    # 2Q of a 3-cell cube ends on cell centres: the left one is in, the
    # right one out
    odd = DyadicCube(1, 4, 1)  # cells [3, 6), 2Q = [1.5, 7.5) in cells
    assert cube_cells(dom, odd, 2) == (1, 7, 6)
    for bad in (0, 3.0):
        with pytest.raises(ValueError):
            cube_cells(dom, q, bad)


def _exact_cube(q: DyadicCube) -> tuple[Fraction, Fraction]:
    """(left end, side) of q in units of the base length, from the lattice
    definitions in DyadicCube's docstring."""
    unit = Fraction(1, 2 ** q.level)
    if q.lattice_id == 0:
        return q.index * unit, unit
    r = ((q.lattice_id - 1) * 2 ** q.level) % 3
    return (3 * q.index + r) * unit, 3 * unit


@pytest.mark.parametrize("L", range(1, 9))
def test_cube_cells_of_dilated_cubes_match_exact_centres(L):
    # dQ, with Q's centre and d times its side, holds the cells whose
    # centres lie in it, clipped to the domain; its full width is d |Q|
    dom = Domain(0.0, 1.0, L)
    N = dom.n_cells
    centres = [Fraction(2 * i + 1, 2 * N) for i in range(N)]
    for entry in CubeFamily(dom).entries:
        for q in entry_cubes(entry):
            left, side = _exact_cube(q)
            assert side * N == entry.width
            for d in (1, 2, 3):
                lo = left + side / 2 - d * side / 2
                hi = lo + d * side
                inside = [i for i, x in enumerate(centres) if lo <= x < hi]
                assert inside == list(range(inside[0], inside[-1] + 1))
                assert cube_cells(dom, q, d) == (inside[0], inside[-1] + 1, d * entry.width)


# -- cube family -------------------------------------------------------------

def test_triple_cover_exhaustive_1d():
    # for every base cube Q = [mc, (m+1)c) down to level L-2, 3Q is a cube of
    # exactly one shifted lattice of the same level
    dom = Domain(0.0, 1.0, 8)
    L = dom.resolution_log2
    fam = CubeFamily(dom)
    for level in range(L - 1):
        c = 1 << (L - level)
        shifted = [e for e in fam.entries if e.lattice_id > 0 and e.level == level]
        assert len(shifted) == 3
        for m in range(1 << level):
            holders = [e for e in shifted if np.any(e.starts == (m - 1) * c)]
            assert len(holders) == 1 and holders[0].width == 3 * c


@pytest.mark.parametrize("L", range(1, 9))
def test_family_holds_the_cubes_of_the_lattice_definitions(L):
    # each entry holds, in index order, exactly the cubes of its lattice and
    # level that meet [0, 1), with the cells of _exact_cube
    dom = Domain(0.0, 1.0, L)
    N = dom.n_cells
    entries = CubeFamily(dom).entries
    assert [(e.lattice_id, e.level) for e in entries] == [
        (lid, level) for lid in range(4) for level in range(L + 1)
    ]
    for e in entries:
        reach = 2 ** e.level + 1  # past every cube that can meet [0, 1)
        exact = {t: _exact_cube(DyadicCube(e.lattice_id, e.level, t))
                 for t in range(-reach, reach + 1)}
        meet = [t for t, (left, side) in exact.items() if left < 1 and left + side > 0]
        assert meet == list(range(e.t0, e.t0 + e.n_cubes))
        for i, t in enumerate(meet):
            left, side = exact[t]
            assert (left * N).denominator == (side * N).denominator == 1
            assert e.starts[i] == left * N and e.width == side * N
            assert e.lo[i] == max(left * N, 0) and e.hi[i] == min((left + side) * N, N)
            for cell in range(e.lo[i], e.hi[i]):
                assert left <= Fraction(cell, N) < left + side
                assert e.cell_to_cube[cell] == i


def test_cube_bounds_match_family_entries():
    # DyadicCube.cell_bounds and CubeFamily read one lattice rule, which
    # the test above checks against the definitions
    dom = Domain(0.0, 1.0, 6)
    for e in CubeFamily(dom).entries:
        for i in range(e.n_cubes):
            q = DyadicCube(e.lattice_id, e.level, e.t0 + i)
            assert q.cell_bounds(dom) == (e.starts[i], e.starts[i] + e.width, e.width)


def test_levels_tile_domain():
    dom = Domain(0.0, 1.0, 6)
    fam = CubeFamily(dom)
    for entry in fam.entries:
        assert entry.lo[0] == 0 and entry.hi[-1] == dom.n_cells
        np.testing.assert_array_equal(entry.hi[:-1], entry.lo[1:])
        # clipped measures sum to the whole domain
        assert entry.clipped_sizes().sum() == dom.n_cells


def test_cell_to_cube_consistent():
    dom = Domain(0.0, 1.0, 6)
    fam = CubeFamily(dom)
    for entry in fam.entries:
        for i, (lo, hi) in enumerate(zip(entry.lo, entry.hi)):
            assert np.all(entry.cell_to_cube[lo:hi] == i)


@pytest.mark.parametrize("L, n_groups", [(5, 1), (8, 1), (10, 3), (12, 13), (14, 60)])
def test_level_groups_cover_the_family_in_order(L, n_groups):
    dom = Domain(0.0, 1.0, L)
    N = dom.n_cells
    fam = family_for(dom)
    assert family_for(dom) is fam  # built once per domain
    groups = fam.groups
    assert len(groups) == n_groups
    assert fam.groups is groups  # built once per family
    v = np.arange(N, dtype=float)
    at = 0
    for g in groups:
        levels = g.levels
        assert len(g.cell_to_cube) == levels * N
        assert levels * N <= GROUP_CELLS or levels == 1
        tiled = g.tile(v)
        np.testing.assert_array_equal(tiled, np.tile(v, levels))
        assert (tiled is v) == (levels == 1)  # one level is not copied
        part = fam.entries[at:at + levels]
        assert len(part) == levels
        assert (g.lattice_id, g.level) == (part[0].lattice_id, part[0].level)
        cells = N * np.arange(levels)
        first = np.cumsum([0] + [e.n_cubes for e in part[:-1]])
        np.testing.assert_array_equal(g.lo, np.concatenate([e.lo + c for e, c in zip(part, cells)]))
        np.testing.assert_array_equal(g.hi, np.concatenate([e.hi + c for e, c in zip(part, cells)]))
        np.testing.assert_array_equal(
            np.broadcast_to(g.width, (g.n_cubes,)),
            np.concatenate([np.full(e.n_cubes, e.width) for e in part]),
        )
        np.testing.assert_array_equal(
            g.cell_to_cube,
            np.concatenate([e.cell_to_cube + t for e, t in zip(part, first)]),
        )
        at += levels
    assert at == len(fam.entries)


def test_segment_sums_match_direct():
    rng = np.random.default_rng(3)
    v = rng.uniform(size=1 << 7)
    dom = Domain(0.0, 1.0, 7)
    fam = CubeFamily(dom)
    for entry in fam.entries:
        # the reduction relies on the clipped cubes tiling [0, N) in order
        assert entry.lo[0] == 0 and entry.hi[-1] == dom.n_cells
        np.testing.assert_array_equal(entry.hi[:-1], entry.lo[1:])
        got = fam.segment_sums(entry, v)
        want = np.array([v[lo:hi].sum() for lo, hi in zip(entry.lo, entry.hi)])
        np.testing.assert_allclose(got, want, rtol=1e-12)
        # clip=True: the mean over Q's cells inside the domain
        clipped = np.array([v[lo:hi].mean() for lo, hi in zip(entry.lo, entry.hi)])
        np.testing.assert_allclose(fam.means(entry, v, clip=True), clipped, rtol=1e-12)
        # clip=False: zero extension divides by |Q|
        np.testing.assert_allclose(fam.means(entry, v), want / entry.width, rtol=1e-12)


@pytest.mark.parametrize("L", [10], ids=["zero-extend"])
def test_segment_sums_keep_digits_of_steep_weight(L):
    # w = |x - 0.37|^6 spans 2.6e-21 to 0.062 at L = 10: differences of one
    # global prefix sum lose every digit of the cubes near 0.37
    dom = Domain(0.0, 1.0, L)
    w = np.abs(dom.cell_centers() - 0.37) ** 6
    fam = CubeFamily(dom)
    for entry in fam.entries:
        want = np.array([w[lo:hi].sum() for lo, hi in zip(entry.lo, entry.hi)])
        np.testing.assert_allclose(fam.segment_sums(entry, w), want, rtol=1e-13)
        np.testing.assert_allclose(fam.means(entry, w), want / entry.width, rtol=1e-13)
        np.testing.assert_allclose(
            fam.means(entry, w, clip=True), want / entry.clipped_sizes(), rtol=1e-13
        )


def test_cube_cells_shifted_cube_with_negative_start():
    dom = Domain(0.0, 1.0, 6)
    q = DyadicCube(2, 3, -1)  # cells [-8, 16) of a 64-cell grid
    assert q.cell_bounds(dom) == (-8, 16, 24)
    assert cube_cells(dom, q) == (0, 16, 24)


def test_cube_cells_dilated_cube_past_right_edge():
    dom = Domain(0.0, 1.0, 6)
    q = DyadicCube(0, 2, 3)  # [3/4, 1): 2Q = [5/8, 9/8), 3Q = [1/2, 5/4)
    assert cube_cells(dom, q, 2) == (40, 64, 32)
    assert cube_cells(dom, q, 3) == (32, 64, 48)
    f = GridFunction(dom, np.arange(dom.n_cells, dtype=float))
    assert average(f, q, 2) == pytest.approx(f.samples[40:].sum() / 32)
    assert average(f, q, 3) == pytest.approx(f.samples[32:].sum() / 48)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.data())
def test_nesting_trichotomy(lattice_id, data):
    dom = Domain(0.0, 1.0, 6)
    fam = CubeFamily(dom)
    entries = [e for e in fam.entries if e.lattice_id == lattice_id]
    cubes = [q for e in entries for q in entry_cubes(e)]
    q1 = data.draw(st.sampled_from(cubes))
    q2 = data.draw(st.sampled_from(cubes))
    s1, e1, _ = q1.cell_bounds(dom)
    s2, e2, _ = q2.cell_bounds(dom)
    disjoint = e1 <= s2 or e2 <= s1
    nested = (s1 <= s2 and e2 <= e1) or (s2 <= s1 and e1 <= e2)
    assert disjoint or nested


# -- averages ----------------------------------------------------------------

def test_average_constant():
    dom = Domain(0.0, 1.0, 6)
    f = GridFunction.constant(dom, 2.5)
    q = DyadicCube(0, 2, 1)
    for r in (0.5, 1.0, 2.0, 3.0):
        fr = GridFunction(dom, f.samples ** r)
        assert average(fr, q) ** (1.0 / r) == pytest.approx(2.5, rel=1e-12)


def test_average_half_indicator():
    dom = Domain(0.0, 1.0, 6)
    q = DyadicCube(0, 1, 0)  # [0, 1/2)
    f = GridFunction.indicator(dom, 0.0, 0.25)
    assert average(f, q) == pytest.approx(0.5, abs=1e-14)


def test_average_quadratic_against_antiderivative():
    L = 10
    dom = Domain(0.0, 1.0, L)
    f = GridFunction.from_callable(dom, lambda x: x)
    q = DyadicCube(0, 0, 0)
    got = math.sqrt(average(GridFunction(dom, f.samples ** 2), q))
    assert abs(got - math.sqrt(1.0 / 3.0)) < 2.0 ** (-2 * L) * 10
