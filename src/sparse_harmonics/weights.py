"""Weight classes and their constants, plus the explicit constant formulas
used by the experiment harness.

All suprema run over the full shifted-dyadic cube family; averages use the
intersection with the domain so that w = 1 hits every structural floor
exactly.  The weak A_infty constant only considers cubes whose double
stays inside the domain.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from .grid import (
    GROUP_CELLS,
    MEMO,
    PRUNE_MARGIN,
    CubeFamily,
    Domain,
    GridFunction,
    LevelEntry,
    digest,
    family_for,
    write_csv,
)

__all__ = [
    "Weight",
    "ap_constant",
    "ainfty_constants",
    "log_k0_p0",
    "write_constants_csv",
]

_EXP_CLAMP = 690.0  # keeps exp() within ~1e300

# A visited level of the A_infty sweep that keeps at most this many cubes
# takes each on its own cells (`_kept_cube_integrals`); one that keeps more
# takes the rows of `_cube_integrals` (CHANGES.md has the measurement)
_FEW_CUBES = 4
# Past this many (cell, narrower level) pairs, a kept cube takes each value
# w(P ∩ Q) / |P| once per inner cube P, not at each cell (CHANGES.md)
_CELL_PAIRS = 2048

# The paper's dimensional constants in R^n, at n = 1: every cube of the grid
# is an interval
N_DIM = 1
TAU_N = 2.0 ** N_DIM
C_N = 1.0


class Weight:
    """Strictly positive grid function.  Its A_p and A_infty constants are
    computed once per content of the samples (see `grid.MEMO`), not kept here."""

    def __init__(self, f: GridFunction, name: str = "w"):
        if np.iscomplexobj(f.samples):
            raise ValueError("weights are real")
        s = f.samples
        # NaN propagates through min; -inf and +inf each fail an end
        if not (s.min() > 0 and s.max() < math.inf):
            raise ValueError("weight samples must be positive and finite")
        # every cube sum adds a subset of these positive terms, so the total
        # bounds it: an infinite total means some cube sum overflows
        with np.errstate(over="ignore"):
            total = float(np.sum(f.samples, dtype=float))
        if not math.isfinite(total):
            raise ValueError(
                "weight samples sum to inf: their cube sums overflow float64"
            )
        self.f = f
        self.name = name

    @property
    def domain(self) -> Domain:
        return self.f.domain

    @property
    def samples(self) -> np.ndarray:
        return self.f.samples

    def ap(self, p: float) -> float:
        return ap_constant(self, p)

    def a1(self) -> float:
        return self.ap(1.0)

    def ainfty(self) -> tuple[float, float]:
        return ainfty_constants(self)


def clamped_power(samples: np.ndarray, a: float) -> np.ndarray:
    """samples**a through log-space, clamped to the float range."""
    return np.exp(np.clip(a * np.log(samples), -_EXP_CLAMP, _EXP_CLAMP))


def ap_constant(w: Weight, p: float) -> float:
    """sup_Q <w>_Q <w^{1-p'}>_Q^{p-1}, or <w>_Q / inf_Q w for p = 1;
    computed once per p and content of w (see `grid.MEMO`)."""
    if not 1.0 <= p < math.inf:
        raise ValueError("need 1 <= p < inf")
    return MEMO.get(("ap_constant", w.domain, p, digest(w.samples)), lambda: _ap_sup(w, p))


def _ap_sup(w: Weight, p: float) -> float:
    fam = family_for(w.domain)
    ws = w.samples.astype(float)
    if p == 1.0:
        def per_cube(g: LevelEntry) -> np.ndarray:
            tw = g.tile(ws)
            return fam.means(g, tw, clip=True) / fam.segment_min(g, tw)
    else:
        dual = clamped_power(w.samples, 1.0 - p / (p - 1.0))

        def per_cube(g: LevelEntry) -> np.ndarray:
            dual_mean = fam.means(g, g.tile(dual), clip=True)
            return fam.means(g, g.tile(ws), clip=True) * dual_mean ** (p - 1.0)
    return fam.sup(per_cube)


def ainfty_constants(w: Weight) -> tuple[float, float]:
    """(Fujii-Wilson, weak) constants, computed once per content of w (see
    `grid.MEMO`).

    fujii_wilson = sup_Q (1/w(Q)) int_Q M(w chi_Q);
    weak         = sup_Q (1/w(2Q)) int_Q M(w chi_Q), over cubes with 2Q
    inside the domain (ValueError when there is none, as at L <= 2).  The
    inner M runs over the same cube family.

    The exact route, `_cube_integrals`, sweeps the cubes Q of one outer
    level e: for a cell x of Q, M(w chi_Q)(x) is the max over the inner
    levels e' of w(P ∩ Q) / |P|, with P the cube of e' holding x and |P|
    the measure `CubeFamily.means` divides by.  Every sum is local: w(P ∩ Q)
    and w(Q) come from a cumulative sum of w that restarts at each Q (one
    padded row per cube: the additions `maximal` makes on w chi_Q), w(2Q)
    from segment sums of Q and its two flanking next-level cubes
    (`_double_table`), so a cube holding a tiny share of the mass keeps its
    digits.  Only the inner levels narrower than Q are swept: a P at
    least as wide as Q gives w(P ∩ Q) / |P| <= w(Q) / |Q|, the value of
    P = Q, so the max starts there.  The skip is exact in floating point
    too: a row of the cumulative sum adds non-negative terms, so it never
    decreases; rounding is monotone, so the difference over P ∩ Q is at
    most the one over Q, and dividing it by the wider |P| gives at most the
    same quotient.  Clipping P ∩ Q to Q also clips it to the domain.  The
    cost is O(E^2 N) for E levels and N cells.

    Bound and prune: `_ainfty_bounds` gives every cube an upper bound UB(Q)
    = sum over x in Q of max(T(x), w(Q) / |Q|), with T(x) the largest
    unclipped mean, over the levels narrower than Q, of the cube holding x
    (each w(P ∩ Q) / |P| is at most P's unclipped mean), and a lower bound
    LB(Q), the same sum over the levels of Q's own lattice from Q's down
    (those cubes lie in Q and enter the exact max unclipped).  The running
    sups start at max LB times 1 - PRUNE_MARGIN over w(Q), and over w(2Q);
    the sweep divides each kept cube's integral by that same w(2Q), which is
    +inf where 2Q leaves the domain, so such a cube's weak ratios are 0; the
    levels are visited in decreasing order of their largest UB / w(Q),
    and a level sweeps only its cubes whose UB / w(Q) or UB / w(2Q), times
    1 + PRUNE_MARGIN, reaches the running sup of that constant, with the
    level's full row span, so each kept cube's value is the same floating
    point operation as in a sweep of every cube.  A level that keeps every
    cube is swept without gathers.  `grid.PRUNE_MARGIN` exceeds the
    rounding of the route and of the bounds up to L = 16
    (`grid.MAX_RESOLUTION`), so a skipped cube lies strictly below the sup
    and the constants are those of the sweep over every cube, bit for bit.

    A visited level that keeps at most `_FEW_CUBES` cubes takes each kept
    cube Q on its own cells instead (`_kept_cube_integrals`): a wide Q
    takes one value w(P ∩ Q) / |P| per cube P of a narrower level meeting
    Q, the floating point operation that the rows repeat at every cell of
    P, spread over Q's cells through their cube ids; max is exact and the
    integral sums the same zero-padded row, so the bits are the rows'.
    Such a Q costs one index add, one gather and one max per cell and
    narrower level, where its row takes about a dozen passes, and no Q
    pays for the gathers that restrict a row to the kept cubes: 1.4-1.8x
    at L = 9 and 2-5x at L = 12-14 on the `step`, `exp` and `power:a`
    weights, whose levels keep one or two cubes.  A level that keeps more
    cubes (the fine levels of a constant or a log-normal weight) takes the
    rows.  The per-cell starts and cube ids of every level, in width
    order, are built once per family (`CubeFamily.width_order`).
    """
    return MEMO.get(("ainfty_constants", w.domain, digest(w.samples)), lambda: _ainfty_sup(w))


def _ainfty_sup(w: Weight) -> tuple[float, float]:
    dom = w.domain
    fam = family_for(dom)
    ws = w.samples.astype(float)
    off, doubled, _, _ = _double_table(fam)
    if not len(doubled):
        raise ValueError(
            f"no cube has its double inside the domain at L = {dom.resolution_log2}, "
            "so the weak A_inf constant is a sup over no cubes"
        )
    lb, ub, wq, w2q = _ainfty_bounds(fam, ws)
    grow = 1.0 + PRUNE_MARGIN
    reach_fw, reach_weak = ub / wq * grow, ub / w2q * grow
    bar_fw = float((lb / wq).max()) * (1.0 - PRUNE_MARGIN)
    bar_weak = float((lb / w2q).max()) * (1.0 - PRUNE_MARGIN)
    # per level: the largest reach of its cubes
    top_fw = np.maximum.reduceat(reach_fw, off[:-1])
    visits = np.argsort(-top_fw, kind="stable").tolist()
    top_fw, top_weak = top_fw.tolist(), np.maximum.reduceat(reach_weak, off[:-1]).tolist()
    fw = weak = -np.inf
    for k in visits:
        if top_fw[k] < bar_fw and top_weak[k] < bar_weak:
            continue
        cubes = slice(off[k], off[k + 1])
        keep = (reach_fw[cubes] >= bar_fw) | (reach_weak[cubes] >= bar_weak)
        idx = np.flatnonzero(keep)
        if len(idx) <= _FEW_CUBES:
            num, w_q = _kept_cube_integrals(fam, ws, fam.entries[k], idx)
        else:
            num, w_q = _cube_integrals(fam, ws, fam.entries[k], None if keep.all() else idx)
        w_2q = w2q[cubes][idx]
        fw, weak = max(fw, float((num / w_q).max())), max(weak, float((num / w_2q).max()))
        bar_fw, bar_weak = max(bar_fw, fw), max(bar_weak, weak)
    return float(fw), float(weak)


@functools.cache
def _double_table(fam: CubeFamily) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(off, doubled, left, right) of a family: entry k's cubes are
    off[k]:off[k + 1] among the cubes of every entry in order; doubled are
    the cubes Q whose double 2Q, [start - width/2, start + 3 width/2),
    lies in the domain, and left and right the cubes of the next level of
    Q's lattice that flank Q, so that w(2Q) is w(Q) plus their two sums.
    That is the one rule for w(2Q): the bounds and the sweep of
    `ainfty_constants` divide by the same sums.  Doubles of odd-width
    cubes are not grid aligned and never count."""
    N = fam.domain.n_cells
    off = np.cumsum([0] + [e.n_cubes for e in fam.entries])
    doubled, left, right = [], [], []
    for k, e in enumerate(fam.entries):
        half = e.width // 2
        idx = np.flatnonzero((e.starts >= half) & (e.starts + e.width + half <= N))
        if e.width % 2 or not len(idx):
            continue
        child = fam.entries[k + 1]  # even width: not the finest level
        doubled.append(off[k] + idx)
        left.append(off[k + 1] + child.cell_to_cube[e.starts[idx] - half])
        right.append(off[k + 1] + child.cell_to_cube[e.starts[idx] + e.width])
    return off, *(np.concatenate(x) if x else np.zeros(0, dtype=int) for x in (doubled, left, right))


def _ainfty_bounds(
    fam: CubeFamily, ws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lb, ub, w_q, w_2q) per cube of the family, entry after entry: LB and
    UB of `ainfty_constants`, w(Q) by a segment sum and w(2Q) by the rule
    of `_double_table`, +inf where 2Q leaves the domain, so that the
    cube's weak ratios are 0."""
    N = len(ws)
    order, widths, _, _ = fam.width_order
    E = len(order)
    sums = []
    # row k: the unclipped mean of the cube of entry k holding each cell
    spread = np.empty((E, N))
    k = 0
    for g in fam.groups:
        sums.append(fam.segment_sums(g, g.tile(ws)))
        np.take(sums[-1] / g.width, g.cell_to_cube, out=spread[k:k + g.levels].reshape(-1))
        k += g.levels
    # row i of ranked: the max over the i narrowest levels (none in row 0)
    ranked = np.zeros((E + 1, N))
    for i, j in enumerate(order):
        np.maximum(ranked[i], spread[j], out=ranked[i + 1])
    narrower = np.searchsorted(widths, [e.width for e in fam.entries])
    ub = []
    k = 0
    for g in fam.groups:
        rows = slice(k, k + g.levels)
        ub.append(fam.segment_sums(g, np.maximum(ranked[narrower[rows]], spread[rows]).reshape(-1)))
        k += g.levels
    # in place: each level of a lattice with the finer levels of its lattice
    lower = spread
    per_lattice = E // 4
    for k in range(E - 1, -1, -1):
        if (k + 1) % per_lattice:
            np.maximum(lower[k], lower[k + 1], out=lower[k])
    lb = []
    k = 0
    for g in fam.groups:
        lb.append(fam.segment_sums(g, lower[k:k + g.levels].reshape(-1)))
        k += g.levels
    wq = np.concatenate(sums)
    _, doubled, left, right = _double_table(fam)
    w2q = np.full(len(wq), np.inf)
    w2q[doubled] = wq[doubled] + wq[left] + wq[right]
    return np.concatenate(lb), np.concatenate(ub), wq, w2q


def _cube_integrals(
    fam: CubeFamily, ws: np.ndarray, e: LevelEntry, idx: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(int_Q M(w chi_Q), w(Q)) over the cubes idx of entry e, or over
    every cube of e, without gathers, when idx is None: the exact route of
    `ainfty_constants` for a level that keeps more than `_FEW_CUBES` cubes,
    and the bits that `_kept_cube_integrals` must give.  The kept cubes'
    rows keep the entry's full span, so each value is the same floating
    point operation whichever cubes are kept."""
    _, widths, starts, _ = fam.width_order
    if idx is None:
        n_rows, cells, q = e.n_cubes, np.arange(len(ws)), e.cell_to_cube
        qlo, qhi = e.lo[q], e.hi[q]
    else:
        sub, cells = e.restrict(idx)
        n_rows, q = len(idx), sub.cell_to_cube
        qlo, qhi = e.lo[idx][q], e.hi[idx][q]
    span = int((e.hi - e.lo).max())  # cells of the longest clipped cube
    # row i of csum: csum[i, k] = w over the first k cells of Q_i
    csum = np.zeros((n_rows, span + 1))
    at = q * (span + 1) - qlo  # csum.flat[at + y] = w over [lo, y) of x's cube
    csum.flat[at + cells + 1] = ws if idx is None else ws[cells]
    np.cumsum(csum, axis=1, out=csum)
    flat = csum.ravel()
    m = (flat[at + qhi] - flat[at + qlo]) / e.width  # P = Q
    narrower = int(np.searchsorted(widths, e.width))
    step = max(1, GROUP_CELLS // len(cells))
    for a in range(0, narrower, step):
        b = min(a + step, narrower)
        s, wd = (starts[a:b] if idx is None else starts[a:b, cells]), widths[a:b, None]
        vals = flat[at + np.minimum(s + wd, qhi)] - flat[at + np.maximum(s, qlo)]
        vals /= wd
        np.maximum(m, vals.max(axis=0), out=m)
    per_cube = np.zeros((n_rows, span))
    per_cube.flat[q * span + cells - qlo] = m
    return per_cube.sum(axis=1), csum[:, -1]


def _kept_cube_integrals(
    fam: CubeFamily, ws: np.ndarray, e: LevelEntry, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`_cube_integrals` of the cubes idx of entry e, each cube Q taken on
    its own cells [lo, hi): the cumulative sum of w over them after a 0
    (the first hi - lo + 1 sums of Q's padded row), w(P ∩ Q) / |P| with
    the row's clipped ends and division, and the integral summed over the
    entry's full row span, so both outputs are the rows' bits.  A Q with
    more than _CELL_PAIRS (cell, narrower level) pairs takes each value
    once per cube P of a narrower level meeting Q and spreads it over the
    cells through the cube ids of `CubeFamily.width_order`: one index add,
    one gather and one max per pair; a smaller Q takes it at each cell."""
    _, widths, starts, cubes = fam.width_order
    nar = int(np.searchsorted(widths, e.width))
    num, w_q = np.empty(len(idx)), np.empty(len(idx))
    row = np.zeros(int((e.hi - e.lo).max()))
    for i, (lo, hi) in enumerate(zip(e.lo[idx].tolist(), e.hi[idx].tolist())):
        n = hi - lo
        csum = np.zeros(n + 1)
        np.cumsum(ws[lo:hi], out=csum[1:])
        if nar * n <= _CELL_PAIRS:
            # the start of each cell's cube, relative to lo
            s, wd, ids = starts[:nar, lo:hi] - lo, widths[:nar, None], None
        else:
            # per narrower level, its `count` cubes meeting Q from `first`
            # (holding lo), laid end to end from `at`; each starts one
            # width after the one before it
            first = cubes[:nar, lo]
            count = cubes[:nar, hi - 1] - first + 1
            at = np.cumsum(count) - count
            wd = np.repeat(widths[:nar], count)
            s = np.repeat(starts[:nar, lo] - lo - at * widths[:nar], count) + np.arange(len(wd)) * wd
            ids = cubes[:nar, lo:hi] + (at - first)[:, None]
        v = csum[np.minimum(s + wd, n)] - csum[np.maximum(s, 0)]
        v /= wd
        # with P = Q, whose value is the floor
        (v if ids is None else v[ids]).max(axis=0, initial=csum[-1] / e.width, out=row[:n])
        row[n:] = 0.0
        num[i], w_q[i] = row.sum(), csum[-1]
    return num, w_q


def log_k0_p0(t: float, a1_u: float, at_v: float) -> tuple[float, float]:
    """p0 = 2^{n+3}(t-1) a1_u + 1 and ln K0 of the companion constant

    K0 = 4 C_n p0 p0' (a1_u + 2^{p0-1} C_n^t at_v^2 a1_u^{p0-1}) + 1,

    summed in log space: K0 leaves the float range once 2^{p0-1}
    a1_u^{p0-1} does, which an A_1 constant of a few hundred already
    forces.  at_v is the A_t constant of v^{1/m}; m itself does not enter
    the formulas."""
    if t <= 1 or a1_u < 1 or at_v < 1:
        raise ValueError("need t > 1 and constants >= 1")
    p0 = 2.0 ** (N_DIM + 3) * (t - 1.0) * a1_u + 1.0
    log_x = (p0 - 1.0) * math.log(2.0 * a1_u) + t * math.log(C_N) + 2.0 * math.log(at_v)
    log_k0 = math.log(4.0 * C_N * p0 * p0 / (p0 - 1.0)) + np.logaddexp(math.log(a1_u), log_x)
    return p0, float(np.logaddexp(log_k0, 0.0))


def write_constants_csv(path, rows: Sequence[dict]) -> None:
    """Emit the constants table: weight,p,ap,a1,ainfty_fw,ainfty_weak."""
    header = ["weight", "p", "ap", "a1", "ainfty_fw", "ainfty_weak"]
    write_csv(path, header, ([r[k] for k in header] for r in rows))
