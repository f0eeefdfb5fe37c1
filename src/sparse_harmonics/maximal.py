"""Maximal operators: Hardy-Littlewood, power, iterated, Orlicz-norm,
weighted dyadic, and the multilinear variants.

The sup over "all cubes containing x" is realized over the base dyadic
lattice plus the three shifted lattices; that family reaches every point
at every scale with bounded distortion, and all downstream comparisons
are ratio-based so the proxy constant is tracked, not hidden.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grid import CubeFamily, Domain, GridFunction, LevelEntry
from .orlicz import YoungFunction, llog, monotone_root

__all__ = ["MaximalVariant", "maximal", "multilinear_maximal", "family_for"]

_FAMILIES: dict[Domain, CubeFamily] = {}

# multilinear_maximal outputs keyed by the content of their inputs, least
# recently used first; the function is pure, so a hit returns the same numbers
_PRODUCT_MEMO_SIZE = 32
_PRODUCT_MEMO: OrderedDict[tuple, np.ndarray] = OrderedDict()


def family_for(domain: Domain) -> CubeFamily:
    fam = _FAMILIES.get(domain)
    if fam is None:
        fam = _FAMILIES[domain] = CubeFamily(domain)
    return fam


@dataclass(frozen=True)
class MaximalVariant:
    kind: str = "hl"  # hl | power | iterated | orlicz | weighted_dyadic
    r: float = 1.0
    k: int = 1
    phi: Optional[YoungFunction] = None
    weight: Optional[GridFunction] = None
    cube_scope: str = "dyadic+shifted"

    def __post_init__(self):
        if self.kind not in ("hl", "power", "iterated", "orlicz", "weighted_dyadic"):
            raise ValueError(f"unknown maximal kind {self.kind!r}")
        if self.kind == "power" and self.r < 1:
            raise ValueError("power must satisfy r >= 1")
        if self.kind == "iterated" and self.k < 1:
            raise ValueError("iteration count must be >= 1")
        if self.kind == "orlicz" and self.phi is None:
            raise ValueError("orlicz variant needs a growth function")
        if self.kind == "weighted_dyadic" and self.weight is None:
            raise ValueError("weighted variant needs a weight")
        if self.cube_scope not in ("dyadic", "dyadic+shifted"):
            raise ValueError(f"unknown cube scope {self.cube_scope!r}")


def _entries(fam: CubeFamily, scope: str) -> list[LevelEntry]:
    if scope == "dyadic":
        return [e for e in fam.entries if e.lattice_id == 0]
    return fam.entries


def luxemburg_per_cube(
    fam: CubeFamily,
    entry: LevelEntry,
    absf: np.ndarray,
    phi: YoungFunction,
    inv1: float,
) -> np.ndarray:
    """Luxemburg norms of f over every cube of one level, solved in bulk
    from the [mean, max] / phi^-1(1) brackets."""
    cell_cube = entry.cell_to_cube

    def excess(lam: np.ndarray) -> np.ndarray:
        safe = np.where(lam > 0, lam, 1.0)
        return fam.means(entry, phi(absf / safe[cell_cube])) - 1.0

    return monotone_root(
        fam.means(entry, absf) / inv1, fam.segment_max(entry, absf) / inv1, excess
    )


def maximal(f: GridFunction, v: MaximalVariant = MaximalVariant()) -> GridFunction:
    dom = f.domain
    if v.kind == "iterated":
        out = f
        base = MaximalVariant("hl", cube_scope=v.cube_scope)
        for _ in range(v.k):
            out = maximal(out, base)
        return out
    fam = family_for(dom)
    absf = np.abs(f.samples).astype(float)
    entries = _entries(fam, "dyadic" if v.kind == "weighted_dyadic" else v.cube_scope)
    if v.kind == "weighted_dyadic":
        w = v.weight.samples.astype(float)
        fw = absf * w
        per_entry = (fam.segment_sums(e, fw) / fam.segment_sums(e, w) for e in entries)
    elif v.kind == "hl":
        per_entry = (fam.means(e, absf) for e in entries)
    elif v.kind == "power":
        powered = absf ** v.r
        per_entry = (fam.means(e, powered) ** (1.0 / v.r) for e in entries)
    else:  # orlicz
        inv1 = float(np.atleast_1d(v.phi.inverse(np.array([1.0])))[0])
        per_entry = (luxemburg_per_cube(fam, e, absf, v.phi, inv1) for e in entries)
    return GridFunction(dom, fam.scatter_max(entries, per_entry))


def multilinear_maximal(
    fs: Sequence[GridFunction],
    flavor: str = "plain",
    r: float = 1.0,
    l: Optional[int] = None,
    cube_scope: str = "dyadic+shifted",
) -> GridFunction:
    """sup over cubes of a product functional of the m inputs.

    flavor "plain": product of averages; "power": product of L^r averages;
    "llogl": product of L log L norms; "mixed": L log L norms for the first
    l slots, plain averages for the rest.
    """
    if not fs:
        raise ValueError("need at least one function")
    if flavor not in ("plain", "power", "llogl", "mixed"):
        raise ValueError(f"unknown flavor {flavor!r}")
    if flavor == "mixed":
        if l is None or not (1 <= l <= len(fs)):
            raise ValueError("mixed flavor needs 1 <= l <= m")
    dom = fs[0].domain
    absfs = [np.abs(f.samples).astype(float) for f in fs]
    key = (dom, flavor, r, l, cube_scope) + tuple(
        hashlib.blake2b(af.tobytes(), digest_size=16).digest() for af in absfs
    )
    out = _PRODUCT_MEMO.get(key)
    if out is None:
        out = _product_maximal(dom, absfs, flavor, r, l, cube_scope)
        _PRODUCT_MEMO[key] = out
        if len(_PRODUCT_MEMO) > _PRODUCT_MEMO_SIZE:
            _PRODUCT_MEMO.popitem(last=False)
    else:
        _PRODUCT_MEMO.move_to_end(key)
    return GridFunction(dom, out.copy())


def _product_maximal(
    dom: Domain,
    absfs: list[np.ndarray],
    flavor: str,
    r: float,
    l: Optional[int],
    cube_scope: str,
) -> np.ndarray:
    fam = family_for(dom)
    entries = _entries(fam, cube_scope)
    phi = llog(1.0)
    inv1 = float(np.atleast_1d(phi.inverse(np.array([1.0])))[0])
    # per slot: None for an L log L slot, else the cell values it averages
    averaged = [
        None if flavor == "llogl" or (flavor == "mixed" and i < l)
        else af ** r if flavor == "power" else af
        for i, af in enumerate(absfs)
    ]

    def product(e: LevelEntry) -> np.ndarray:
        prod = np.ones(e.n_cubes)
        for af, vals in zip(absfs, averaged):
            if vals is None:
                prod *= luxemburg_per_cube(fam, e, af, phi, inv1)
            elif flavor == "power":
                prod *= fam.means(e, vals) ** (1.0 / r)
            else:
                prod *= fam.means(e, vals)
        return prod

    return fam.scatter_max(entries, map(product, entries))
