"""Sparse families, the sparse sum over a family, and the stopping-time
sweep of principal cubes and oscillation families.

Families live inside a single lattice, so containment is laminar and all
measures are exact cell counts.
"""

from __future__ import annotations

import math
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
    fam: SparseFamily, fs: Sequence[GridFunction], dilation: int
) -> GridFunction:
    """sum_Q prod_s <|f_s|>_{dQ} chi_Q, with d the dilation: the sparse
    operator of the mixed-min comparator (one input, d = 3) and the l = 0
    form of the domination audit (every input, d = 1)."""
    out = np.zeros(fam.domain.n_cells)
    for q, (lo, hi) in zip(fam.cubes, fam.cell_sets()):
        out[lo:hi] += math.prod((average(f, q, dilation) for f in fs), start=1.0)
    return GridFunction(fam.domain, out)


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
