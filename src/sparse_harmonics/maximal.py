"""Maximal operators: the Hardy-Littlewood maximal function, iterated, and
the multilinear maximal functions of products of averages or of L log L
norms.

The sup over "all cubes containing x" is realized over the base dyadic
lattice plus the three shifted lattices; that family reaches every point
at every scale with bounded distortion, and all downstream comparisons
are ratio-based so the proxy constant is tracked, not hidden.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .grid import MEMO, CubeFamily, Domain, GridFunction, LevelEntry, digest, family_for
from .orlicz import YoungFunction, llog, monotone_root

__all__ = ["maximal", "multilinear_maximal"]


def luxemburg_per_cube(
    fam: CubeFamily,
    entry: LevelEntry,
    absf: np.ndarray,
    phi: YoungFunction,
    inv1: float,
) -> np.ndarray:
    """Luxemburg norms of f over every cube of one family entry, or of one
    stack of entries with absf tiled to match, solved in bulk from the
    [mean, max] / phi^-1(1) brackets."""
    cell_cube = entry.cell_to_cube

    def excess(lam: np.ndarray) -> np.ndarray:
        safe = np.where(lam > 0, lam, 1.0)
        return fam.means(entry, phi(absf / safe[cell_cube])) - 1.0

    return monotone_root(
        fam.means(entry, absf) / inv1, fam.segment_max(entry, absf) / inv1, excess
    )


def maximal(f: GridFunction, k: int = 1) -> GridFunction:
    """M^k f: the Hardy-Littlewood maximal function over the full cube
    family, applied k times; computed once per |f| and k (see `grid.MEMO`)."""
    absf = np.abs(f.samples).astype(float)
    key = ("maximal", f.domain, k, digest(absf))
    return GridFunction(f.domain, MEMO.get(key, lambda: _iterated_maximal(f.domain, absf, k)))


def _iterated_maximal(dom: Domain, out: np.ndarray, k: int) -> np.ndarray:
    fam = family_for(dom)
    for _ in range(k):
        out = fam.scatter_max(fam.groups, (fam.means(g, g.tile(out)) for g in fam.groups))
    return out


def multilinear_maximal(fs: Sequence[GridFunction], flavor: str = "plain") -> GridFunction:
    """sup over the cubes Q containing x of a product over the m inputs:
    of the averages <|f_i|>_Q (flavor "plain") or of the L log L norms
    ||f_i||_{L log L, Q} (flavor "llogl"); computed once per flavor and
    tuple of |f_i| (see `grid.MEMO`)."""
    if not fs:
        raise ValueError("need at least one function")
    if flavor not in ("plain", "llogl"):
        raise ValueError(f"unknown flavor {flavor!r}")
    dom = fs[0].domain
    absfs = [np.abs(f.samples).astype(float) for f in fs]
    key = ("multilinear_maximal", dom, flavor, *map(digest, absfs))
    return GridFunction(dom, MEMO.get(key, lambda: _product_maximal(dom, absfs, flavor)))


@functools.cache
def _llogl_young() -> tuple[YoungFunction, float]:
    """phi(t) = t log(e + t) and phi^-1(1), solved once per process."""
    phi = llog(1.0)
    return phi, float(np.atleast_1d(phi.inverse(np.array([1.0])))[0])


def _product_maximal(dom: Domain, absfs: list[np.ndarray], flavor: str) -> np.ndarray:
    fam = family_for(dom)
    if flavor == "llogl":
        phi, inv1 = _llogl_young()

    def product(group: LevelEntry) -> np.ndarray:
        prod = np.ones(group.n_cubes)
        for af in absfs:
            tiled = group.tile(af)
            if flavor == "llogl":
                prod *= luxemburg_per_cube(fam, group, tiled, phi, inv1)
            else:
                prod *= fam.means(group, tiled)
        return prod

    return fam.scatter_max(fam.groups, map(product, fam.groups))
