"""Sparse families, the sparse sum over a family, and the stopping-time
sweep of principal cubes and oscillation families.

Families live inside a single lattice, so containment is laminar and all
measures are exact cell counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Domain, DyadicCube, GridFunction, cube_cells, family_for

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


def sparse_operator(
    fam: SparseFamily, fs: Sequence[GridFunction], dilation: int
) -> GridFunction:
    """sum_Q prod_s <|f_s|>_{dQ} chi_Q, with d the dilation: the sparse
    operator of the mixed-min comparator (one input, d = 3) and the l = 0
    form of the domination audit (every input, d = 1).

    Each <|f_s|>_{dQ} is the pairwise sum (`np.sum`) of |f_s| over the
    cells of dQ in the domain, over the full width of dQ: the dQ of one
    cell count are the rows of one array, each summed on its own.  The
    terms are added to the cells of their cubes in one `np.add.at` pass,
    which adds them cell by cell in family order."""
    dom = fam.domain
    level = np.array([q.level for q in fam.cubes])
    index = np.array([q.index for q in fam.cubes])
    cubes = fam.cubes[0].lattice_id, level, index
    lo, hi, full = cube_cells(dom, cubes, dilation)
    own_lo, own_hi = (lo, hi) if dilation == 1 else cube_cells(dom, cubes)[:2]
    if (own_hi <= own_lo).any():
        raise ValueError("cube does not meet the domain")
    prod = np.ones(len(level))
    n = hi - lo
    for f in fs:
        absf = np.abs(f.samples)
        for m in set(n.tolist()):
            rows = np.flatnonzero(n == m)
            prod[rows] *= absf[lo[rows, None] + np.arange(m)].sum(axis=1) / full[rows]
    sizes = own_hi - own_lo
    cells = np.arange(sizes.sum()) + np.repeat(own_lo - (np.cumsum(sizes) - sizes), sizes)
    out = np.zeros(dom.n_cells)
    np.add.at(out, cells, np.repeat(prod, sizes))
    return GridFunction(dom, out)


def stopping_cubes(roots, b: GridFunction, factor: float, recenter: bool) -> list:
    """The roots and, below each root, its stopping tree.  Each cube carries
    the threshold factor <|b - c_Q|>_Q of its current stopping cube Q, and
    each cell the centre c_Q (<b>_Q over Q's cells in the domain if
    recenter, else 0).  Sweeping the root's lattice down to the grid floor,
    each cube takes its parent's threshold (`CubeFamily.parent`) and stops
    when <|b - c_Q|>_R exceeds it; it then writes its own centre over its
    cells and carries its own threshold.  At the root's level the root's
    threshold is -inf, so it stops, and every other cube's is +inf, so no
    cube outside the root stops.  Each root sweeps on its own."""
    dom = b.domain
    fam = family_for(dom)
    span = dom.resolution_log2 + 1  # entries run lattice by lattice, levels 0..L
    out = []
    for root in roots:
        root.cell_bounds(dom)  # ResolutionError below the grid floor
        first = root.lattice_id * span + root.level
        top = fam.entries[first]
        i = root.index - top.t0
        if not 0 <= i < top.n_cubes:
            raise ValueError("cube does not meet the domain")
        centre = np.zeros(dom.n_cells)
        dev_cells = np.abs(b.samples - centre)
        thresh = np.where(np.arange(top.n_cubes) == i, -np.inf, np.inf)
        for k in range(first, (root.lattice_id + 1) * span):
            e = fam.entries[k]
            if k > first:
                thresh = thresh[fam.parent(k)]
            dev = fam.means(e, dev_cells)
            stop = dev > thresh
            out += [DyadicCube(e.lattice_id, e.level, e.t0 + j)
                    for j in stop.nonzero()[0].tolist()]
            if recenter and stop.any():
                cells = stop[e.cell_to_cube]
                centre[cells] = fam.means(e, b.samples, clip=True)[e.cell_to_cube[cells]]
                dev_cells = np.abs(b.samples - centre)
                dev = fam.means(e, dev_cells)
            thresh = np.where(stop, factor * dev, thresh)
    return out
