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
import hashlib
from collections import OrderedDict
from typing import Sequence

import numpy as np

from .grid import CubeFamily, Domain, GridFunction, LevelEntry, family_for
from .orlicz import YoungFunction, llog, monotone_root

__all__ = ["maximal", "multilinear_maximal"]

# multilinear_maximal outputs keyed by the content of their inputs, least
# recently used first; the function is pure, so a hit returns the same numbers
_PRODUCT_MEMO_SIZE = 32
_PRODUCT_MEMO: OrderedDict[tuple, np.ndarray] = OrderedDict()


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
    family, applied k times."""
    fam = family_for(f.domain)
    out = np.abs(f.samples).astype(float)
    for _ in range(k):
        out = fam.scatter_max(fam.groups, (fam.means(g, g.tile(out)) for g in fam.groups))
    return GridFunction(f.domain, out)


def multilinear_maximal(fs: Sequence[GridFunction], flavor: str = "plain") -> GridFunction:
    """sup over the cubes Q containing x of a product over the m inputs:
    of the averages <|f_i|>_Q (flavor "plain") or of the L log L norms
    ||f_i||_{L log L, Q} (flavor "llogl")."""
    if not fs:
        raise ValueError("need at least one function")
    if flavor not in ("plain", "llogl"):
        raise ValueError(f"unknown flavor {flavor!r}")
    dom = fs[0].domain
    absfs = [np.abs(f.samples).astype(float) for f in fs]
    key = (dom, flavor) + tuple(
        hashlib.blake2b(af.tobytes(), digest_size=16).digest() for af in absfs
    )
    out = _PRODUCT_MEMO.get(key)
    if out is None:
        out = _product_maximal(dom, absfs, flavor)
        _PRODUCT_MEMO[key] = out
        if len(_PRODUCT_MEMO) > _PRODUCT_MEMO_SIZE:
            _PRODUCT_MEMO.popitem(last=False)
    else:
        _PRODUCT_MEMO.move_to_end(key)
    return GridFunction(dom, out.copy())


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
