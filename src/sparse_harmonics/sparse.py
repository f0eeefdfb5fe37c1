"""Sparse families, Carleson packing, sparse/commutator operators, the
oscillation stopping-time family, and counting-function decay.

Families live inside a single lattice, so containment is laminar and all
measures are exact cell counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    Domain,
    DyadicCube,
    GridFunction,
    average,
    cube_cells,
    family_for,
)

__all__ = [
    "SparseFamily",
    "verify_sparse",
    "sparse_operator",
    "commutator_sparse_form",
    "oscillation_sparse",
    "stopping_cubes",
    "counting_decay",
]


@dataclass(frozen=True)
class SparseFamily:
    cubes: tuple
    eta: float
    domain: Domain

    def __post_init__(self):
        if not self.cubes:
            raise ValueError("family is empty")
        if not (0.0 < self.eta < 1.0):
            raise ValueError("sparseness must lie in (0,1)")
        lids = {q.lattice_id for q in self.cubes}
        if len(lids) > 1:
            raise ValueError("a sparse family lives in one lattice")

    @classmethod
    def make(cls, cubes, eta: float, domain: Domain) -> "SparseFamily":
        uniq = sorted(set(cubes), key=lambda q: (q.level, q.index))
        return cls(tuple(uniq), eta, domain)

    def cell_sets(self) -> list[tuple[int, int]]:
        """Clipped (lo, hi) cell ranges, in family order."""
        return [cube_cells(self.domain, q)[:2] for q in self.cubes]


def verify_sparse(fam: SparseFamily) -> tuple[bool, float, float]:
    """(is_sparse, best_eta, carleson_constant), all by exact cell counts.

    best_eta uses the canonical exclusion sets E(Q) = Q minus the union of
    the family's strict subcubes of Q; the Carleson constant is
    sup_Q (1/|Q|) sum_{P in S, P subset Q} |P|.
    """
    cells = fam.cell_sets()
    N = fam.domain.n_cells
    best_eta = 1.0
    carleson = 0.0
    sizes = [hi - lo for lo, hi in cells]
    for i, (lo, hi) in enumerate(cells):
        if hi <= lo:
            raise ValueError("cube with empty domain intersection")
        covered = np.zeros(hi - lo, dtype=bool)
        packing = hi - lo
        qi = fam.cubes[i]
        for j, (lo2, hi2) in enumerate(cells):
            if j == i or not (lo <= lo2 and hi2 <= hi):
                continue
            # equal clipped extents can only mean a deeper boundary cube
            if (lo2, hi2) == (lo, hi) and fam.cubes[j].level <= qi.level:
                continue
            covered[lo2 - lo : hi2 - lo] = True
            packing += hi2 - lo2
        best_eta = min(best_eta, float((~covered).sum()) / sizes[i])
        carleson = max(carleson, packing / sizes[i])
    return best_eta >= fam.eta - 1e-12, best_eta, carleson


def sparse_operator(
    fam: SparseFamily, r: float, f: GridFunction, dilation: int = 1
) -> GridFunction:
    """sum_Q <|f|^r>_{dQ}^{1/r} chi_Q, with d the dilation (1 or 3)."""
    if r < 1:
        raise ValueError("need r >= 1")
    if dilation not in (1, 3):
        raise ValueError("dilation must be 1 or 3")
    dom = fam.domain
    out = np.zeros(dom.n_cells)
    for q, (lo, hi) in zip(fam.cubes, fam.cell_sets()):
        out[lo:hi] += average(f, q, r, dilation)
    return GridFunction(dom, out)


def commutator_sparse_form(
    fam: SparseFamily,
    bs: Sequence[GridFunction],
    fs: Sequence[GridFunction],
    gammas: Sequence[int],
    variant: str = "global",
) -> GridFunction:
    """The commutator sparse sum for one choice of branch vector.

    variant "global" uses plain Q averages everywhere; "local3Q" takes all
    averages (including the b recentering) over 3Q.  The first len(bs)
    slots carry the oscillation factors, the rest enter through <|f_s|>.
    """
    l, m = len(bs), len(fs)
    if l > m:
        raise ValueError("more symbols than entries")
    if len(gammas) != l or any(g not in (1, 2) for g in gammas):
        raise ValueError("branch vector must be in {1,2}^l")
    if variant not in ("global", "local3Q"):
        raise ValueError(f"unknown variant {variant!r}")
    dom = fam.domain
    d = 1 if variant == "global" else 3
    out = np.zeros(dom.n_cells)
    for q, (lo, hi) in zip(fam.cubes, fam.cell_sets()):
        chunk = np.ones(hi - lo)
        scalar = 1.0
        for s in range(l):
            b, g = bs[s], gammas[s]
            b_avg = _signed_average(b, q, dom, d)
            if g == 1:
                chunk = chunk * np.abs(b.samples[lo:hi] - b_avg)
                scalar *= average(fs[s], q, 1.0, d)
            else:
                osc = GridFunction(dom, np.abs(b.samples - b_avg) * np.abs(fs[s].samples))
                scalar *= average(osc, q, 1.0, d)
        for s in range(l, m):
            scalar *= average(fs[s], q, 1.0, d)
        out[lo:hi] += scalar * chunk
    return GridFunction(dom, out)


def _signed_average(f: GridFunction, q: DyadicCube, dom: Domain, dilation: int = 1) -> float:
    """<f>_{dQ} with sign, d the dilation, over dQ intersected with the
    domain.

    Used for recentering symbols b: a symbol is defined everywhere, so a
    cube leaking past the boundary averages what is actually known, rather
    than zero-padding (which would make constants non-constant).
    """
    lo, hi, _ = cube_cells(dom, q, dilation)
    return float(f.samples[lo:hi].sum() / (hi - lo))


def stopping_cubes(roots, b: GridFunction, factor: float, recenter: bool) -> list:
    """The roots and, below each root, its stopping tree.  Each cell carries
    the centre c_Q (<b>_Q over Q's cells in the domain if recenter, else 0)
    and the threshold factor <|b - c_Q|>_Q of its current stopping cube Q.
    Sweeping the root's lattice down to the grid floor, a cube R inside the
    root stops when <|b - c_Q|>_R exceeds the threshold on its cells, and
    then writes its own centre and threshold over them.  Each root sweeps
    on its own."""
    dom = b.domain
    fam = family_for(dom)
    span = dom.resolution_log2 + 1  # entries run lattice by lattice, levels 0..L
    out = []
    for root in roots:
        root.cell_bounds(dom)  # ResolutionError below the grid floor
        lattice = fam.entries[root.lattice_id * span : (root.lattice_id + 1) * span]
        top = lattice[root.level]
        i = root.index - top.t0
        if not 0 <= i < top.n_cubes:
            raise ValueError("cube does not meet the domain")
        lo, hi = top.lo[i], top.hi[i]
        centre = np.zeros(dom.n_cells)
        thresh = np.full(dom.n_cells, -np.inf)  # the root stops at its own level
        for e in lattice[root.level :]:
            dev = fam.means(e, np.abs(b.samples - centre))
            stop = (e.lo >= lo) & (e.hi <= hi) & (dev > thresh[e.lo])
            out += [DyadicCube(e.lattice_id, e.level, e.t0 + int(j))
                    for j in np.flatnonzero(stop)]
            cells = stop[e.cell_to_cube]
            owner = e.cell_to_cube[cells]
            if recenter:
                centre[cells] = fam.means(e, b.samples, clip=True)[owner]
                dev = fam.means(e, np.abs(b.samples - centre))
            thresh[cells] = factor * dev[owner]
    return out


def oscillation_sparse(
    b: GridFunction, fam: SparseFamily, certify: bool = True
) -> tuple[SparseFamily, dict]:
    """Augment the family so cube oscillations of b are controlled on it.

    From each cube Q the stopping children are the maximal subcubes R with
    <|b - <b>_Q|>_R > 2^{n+1} <|b - <b>_Q|>_Q (`stopping_cubes`); recursion
    adds them to the family.  The returned certificate checks, cell by
    cell, that on each family cube Q

        |b - <b>_Q| <= 2^{n+2} sum_{R in S~, R subset Q} <|b - <b>_R|>_R chi_R.
    """
    dom = fam.domain
    n = 1
    cubes = stopping_cubes(fam.cubes, b, 2.0 ** (n + 1), recenter=True)
    eta_out = fam.eta / (2.0 * (1.0 + fam.eta))
    out = SparseFamily.make(cubes, eta_out, dom)
    cert: dict = {"checked": False}
    if certify:
        cert = _certify_oscillation(b, out)
    return out, cert


def _certify_oscillation(b: GridFunction, fam: SparseFamily) -> dict:
    dom = fam.domain
    n = 1
    cells = fam.cell_sets()
    devs = [np.abs(b.samples - _signed_average(b, q, dom)) for q in fam.cubes]
    osc = [average(GridFunction(dom, d), q, 1.0) for q, d in zip(fam.cubes, devs)]
    worst = -np.inf
    for dev, (lo, hi) in zip(devs, cells):
        lhs = dev[lo:hi]
        rhs = np.zeros(hi - lo)
        for j, (lo2, hi2) in enumerate(cells):
            if lo <= lo2 and hi2 <= hi:
                rhs[lo2 - lo : hi2 - lo] += osc[j]
        rhs = 2.0 ** (n + 2) * rhs
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = lhs - rhs
        worst = max(worst, float(gap.max()))
    return {"checked": True, "ok": worst <= 1e-10, "worst_gap": worst}


def counting_decay(fam: SparseFamily, q0: DyadicCube) -> dict:
    """Super-level measures of the counting function on Q0 and their decay.

    Measures |{x in Q0 : sum_{Q' in S, Q' subset Q0} chi_{Q'} > t}| exactly
    at t = 0, 1, ..., max count, then fits log measure = log c - alpha t on
    the strictly positive range.
    """
    dom = fam.domain
    lo0, hi0, _ = cube_cells(dom, q0)
    count = np.zeros(hi0 - lo0)
    inside = 0
    for lo, hi in fam.cell_sets():
        if lo0 <= lo and hi <= hi0:
            count[lo - lo0 : hi - lo0] += 1.0
            inside += 1
    if inside == 0:
        raise ValueError("family has no cubes inside the root cube")
    t_grid = np.arange(0.0, count.max() + 1.0)
    h = dom.h
    measures = np.array([(count > t).sum() * h for t in t_grid])
    pos = measures > 0
    t_fit = t_grid[pos]
    logm = np.log(measures[pos])
    result = {
        "t": t_grid,
        "measure": measures,
        "degenerate": len(t_fit) < 2 or np.ptp(logm) < 1e-12,
    }
    if result["degenerate"]:
        result["fit"] = None
        result["model"] = np.full_like(t_grid, np.nan)
        return result
    slope, intercept = np.polyfit(t_fit, logm, 1)
    pred = slope * t_fit + intercept
    ss_res = float(((logm - pred) ** 2).sum())
    ss_tot = float(((logm - logm.mean()) ** 2).sum())
    result["fit"] = {
        "c": float(np.exp(intercept)),
        "alpha": float(-slope),
        "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
    }
    result["model"] = np.where(
        measures > 0, np.exp(intercept + slope * t_grid), np.nan
    )
    return result

