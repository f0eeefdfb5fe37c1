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
import math
from typing import Sequence

import numpy as np

from .grid import MEMO, PRUNE_MARGIN, CubeFamily, Domain, GridFunction, LevelEntry, digest, family_for
from .orlicz import YoungFunction, llog, monotone_root

__all__ = ["maximal", "multilinear_maximal"]


def luxemburg_per_cube(
    fam: CubeFamily,
    entry: LevelEntry,
    absf: np.ndarray,
    phi: YoungFunction,
    inv1: float,
) -> np.ndarray:
    """L log L norms, phi(t) = t log(e + t), of f over every cube of one
    family entry, or of one stack of entries with absf tiled to match.

    Newton steps (`_newton_step`) on G(s) = mean phi(|f| s) - 1, s =
    1 / lambda, from the Jensen end s = phi^-1(1) / mean |f|.  G is convex
    and increasing, so every iterate stays at or above the root (each
    lambda is a lower bound) and converges quadratically.  A cube stops on
    its own step, |ds| <= 1e-7 s, after which its error is about 1e-14, so
    its norm does not depend on the other cubes solved with it.

    A cube gets min(lambda (1 + 0.5e-12), max |f| / phi^-1(1)), checked by
    one evaluation of the Luxemburg condition at that value.  An open cube
    that fails the check, whose iterate is not finite and positive (a
    subnormal mean) or whose value falls below the Jensen end takes
    `monotone_root` on its bracket [mean, max] |f| / phi^-1(1), whose upper
    end is raised by one float where it is subnormal: the first float of
    the bracket that meets the condition, the float just above the root.
    So every norm meets the Luxemburg condition and lies at most about
    1e-12 above the exact one."""
    mean = fam.means(entry, absf)
    lo, hi = mean / inv1, fam.segment_max(entry, absf) / inv1
    # below the normal range max / phi^-1(1) can round under the norm
    hi = np.where((hi > 0) & (hi < np.finfo(float).tiny), np.nextafter(hi, np.inf), hi)
    open_ = hi - lo > 1e-12 * hi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = inv1 / mean
        going = open_
        for _ in range(50):  # a cube still stepping after these is left to the check
            if not going.any():
                break
            step = _newton_step(fam, entry, absf, s)
            s = np.where(going, s - step, s)
            going = going & ~(np.abs(step) <= 1e-7 * s)
        out = np.where(open_, np.minimum((1.0 + 0.5e-12) / s, hi), hi)
        ok = (s > 0) & (s < np.inf) & (out >= lo) & (_excess(fam, entry, absf, phi)(out) <= 0.0)
    bad = np.flatnonzero(open_ & ~ok)
    if len(bad):
        sub, cells = entry.restrict(bad)
        out[bad] = monotone_root(lo[bad], hi[bad], _excess(fam, sub, absf[cells], phi))
    return out


def _newton_step(fam: CubeFamily, entry: LevelEntry, absf: np.ndarray, s: np.ndarray) -> np.ndarray:
    """G(s) / G'(s) per cube, G(s) = mean phi(|f| s) - 1: with t = |f| s,
    s G'(s) = mean t phi'(t) = mean (phi(t) + t^2 / (e + t)), so phi and
    phi' share one log."""
    t = s[entry.cell_to_cube]
    t *= absf
    e_t = t + np.e
    phi_t = np.log(e_t)
    phi_t *= t
    dphi = t * t
    dphi /= e_t
    dphi += phi_t
    return s * (fam.segment_sums(entry, phi_t) - entry.width) / fam.segment_sums(entry, dphi)


def _excess(fam: CubeFamily, entry: LevelEntry, absf: np.ndarray, phi: YoungFunction):
    """lambda -> mean phi(|f| / lambda) - 1 per cube of entry, the Luxemburg
    condition; at lambda = 0 it is inf on a cube that holds some |f| > 0
    and -1 on one that holds none (whose bracket stays closed at 0)."""
    def excess(lam: np.ndarray) -> np.ndarray:
        safe = np.where(lam > 0, lam, 1.0)
        sums = fam.segment_sums(entry, phi(absf / safe[entry.cell_to_cube]))
        return np.where((lam > 0) | (sums == 0), sums / entry.width - 1.0, np.inf)
    return excess


def maximal(f: GridFunction, k: int = 1) -> GridFunction:
    """M^k f: the Hardy-Littlewood maximal function over the full cube
    family, applied k times.  Each pass is the one-input "plain"
    `multilinear_maximal`, whose product of one mean is the mean, so each
    M^j f along the way is computed once per content (see `grid.MEMO`)."""
    for _ in range(k):
        f = multilinear_maximal([f], "plain")
    return f


def multilinear_maximal(fs: Sequence[GridFunction], flavor: str = "plain") -> GridFunction:
    """sup over the cubes Q containing x of a product over the m inputs:
    of the averages <|f_i|>_Q (flavor "plain") or of the L log L norms
    ||f_i||_{L log L, Q} (flavor "llogl"); computed once per flavor and
    tuple of |f_i| (see `grid.MEMO`).

    The "llogl" sup is bounded and pruned: every cube gets the product of
    its Jensen ends mean |f_i| / phi^-1(1) as a lower bound and of
    `_llogl_upper` as an upper bound; env(x) is the largest lower bound of
    a cube holding x.  Only the cubes whose upper bound times
    1 + `grid.PRUNE_MARGIN` reaches min env over their cells are solved, in
    one `luxemburg_per_cube` call per level group over just their cells
    (`LevelEntry.restrict`), and a group with none makes no call.  At every
    cell of a skipped cube some kept cube reaches above it, so the output
    equals that of solving every cube, bit for bit.  Each norm is a checked
    Newton solve, at most about 1e-12 above the exact norm, that does not
    depend on the other cubes solved with it."""
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
    if flavor == "plain":
        def product(group: LevelEntry) -> np.ndarray:
            prod = np.ones(group.n_cubes)
            for af in absfs:
                prod *= fam.means(group, group.tile(af))
            return prod
        return fam.scatter_max(fam.groups, map(product, fam.groups))
    phi, inv1 = _llogl_young()
    # The norms are homogeneous: an input with 0 < max|f| < 1 is scaled by
    # the power of two that brings its max into [1, 2), and the output back.
    # Both steps are exact for a normal input, so its bits do not move, and
    # a subnormal one is solved on normal numbers.  Nothing is scaled down:
    # an input that holds 1e300 beside 1e-300 would underflow.
    shifts = [1 - math.frexp(top)[1] if 0.0 < top < 1.0 else 0 for top in map(np.max, absfs)]
    absfs = [np.ldexp(af, k) for af, k in zip(absfs, shifts)]
    bounds = [_llogl_bounds(fam, g, absfs, inv1) for g in fam.groups]
    env = fam.scatter_max(fam.groups, (low for low, _ in bounds))
    kept, values = [], []
    for g, (_, up) in zip(fam.groups, bounds):
        idx = np.flatnonzero(up * (1.0 + PRUNE_MARGIN) >= fam.segment_min(g, g.tile(env)))
        if not len(idx):
            continue
        sub, cells = (g, slice(None)) if len(idx) == g.n_cubes else g.restrict(idx)
        prod = np.ones(len(idx))
        for af in absfs:
            prod *= luxemburg_per_cube(fam, sub, g.tile(af)[cells], phi, inv1)
        kept.append(g)
        values.append(np.full(g.n_cubes, -np.inf))
        values[-1][idx] = prod
    return np.ldexp(fam.scatter_max(kept, values), -sum(shifts))


def _llogl_bounds(
    fam: CubeFamily, group: LevelEntry, absfs: list[np.ndarray], inv1: float
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds on the product of the L log L norms over every
    cube of a level group: the products of the Jensen ends mean |f_i| /
    phi^-1(1) of the brackets, and of `_llogl_upper`."""
    low, up = np.ones(group.n_cubes), np.ones(group.n_cubes)
    for af in absfs:
        tiled = group.tile(af)
        mean, top = fam.means(group, tiled), fam.segment_max(group, tiled)
        low *= mean / inv1
        up *= _llogl_upper(mean, top, inv1)
    return low, up


def _llogl_upper(mean: np.ndarray, top: np.ndarray, inv1: float) -> np.ndarray:
    """Upper bounds on the L log L norms of cubes where |f| has these means
    m and maxima M: three steps of the decreasing map lambda -> m log(e + M
    / lambda) from the Jensen end m / phi^-1(1); max / phi^-1(1) where the
    value fails the Luxemburg condition in floating point.

    The map's fixed point bounds the norm, since t log(e + t) <= t log(e +
    M / lambda) for t <= M / lambda.  The Jensen end lies below the norm,
    hence below the fixed point, and the map is decreasing, so its odd
    iterates lie above the fixed point: an upper bound in exact arithmetic."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = mean / inv1
        for _ in range(3):
            lam = mean * np.log(np.e + top / lam)
        ok = mean / lam * np.log(np.e + top / lam) <= 1.0
    return np.where(ok, lam, top / inv1)
