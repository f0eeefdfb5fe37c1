"""Sparse families, sparse and commutator sparse operators, and the
stopping-time sweep of principal cubes and oscillation families.

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
    "sparse_operator",
    "commutator_sparse_form",
    "stopping_cubes",
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
) -> GridFunction:
    """The commutator sparse sum for one choice of branch vector, with
    plain Q averages everywhere.  The first len(bs) slots carry the
    oscillation factors, the rest enter through <|f_s|>.
    """
    l, m = len(bs), len(fs)
    if l > m:
        raise ValueError("more symbols than entries")
    if len(gammas) != l or any(g not in (1, 2) for g in gammas):
        raise ValueError("branch vector must be in {1,2}^l")
    dom = fam.domain
    out = np.zeros(dom.n_cells)
    for q, (lo, hi) in zip(fam.cubes, fam.cell_sets()):
        chunk = np.ones(hi - lo)
        scalar = 1.0
        for s in range(l):
            b, g = bs[s], gammas[s]
            b_avg = _signed_average(b, q, dom)
            if g == 1:
                chunk = chunk * np.abs(b.samples[lo:hi] - b_avg)
                scalar *= average(fs[s], q, 1.0)
            else:
                osc = GridFunction(dom, np.abs(b.samples - b_avg) * np.abs(fs[s].samples))
                scalar *= average(osc, q, 1.0)
        for s in range(l, m):
            scalar *= average(fs[s], q, 1.0)
        out[lo:hi] += scalar * chunk
    return GridFunction(dom, out)


def _signed_average(f: GridFunction, q: DyadicCube, dom: Domain) -> float:
    """<f>_Q with sign, over Q intersected with the domain.

    Used for recentering symbols b: a symbol is defined everywhere, so a
    cube leaking past the boundary averages what is actually known, rather
    than zero-padding (which would make constants non-constant).
    """
    lo, hi, _ = cube_cells(dom, q)
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
