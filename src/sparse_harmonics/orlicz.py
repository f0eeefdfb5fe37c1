"""Young functions, the monotone root solve, and their dilation indices.

Built-in growth functions carry closed-form inverses and complementary
functions where they exist; an inverse without one falls back on the
monotone root solve, a bisection to adjacent floats that the Luxemburg
norms also fall back on.  The dilation indices and the doubling constant
are closed forms only, and nothing here computes a conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "YoungFunction",
    "power",
    "llog",
    "monotone_root",
    "dilation_indices",
]


@dataclass
class YoungFunction:
    """A growth function in the class Phi: phi(0)=0, nondecreasing, -> inf."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    inverse_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    complementary_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    i_lower: Optional[float] = None
    I_upper: Optional[float] = None
    delta2_C1: Optional[float] = None
    submultiplicative: bool = False

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return self.fn(t)

    def inverse(self, t):
        if self.inverse_fn is not None:
            return self.inverse_fn(np.asarray(t, dtype=float))
        return _numeric_inverse(self, np.asarray(t, dtype=float))


def monotone_root(lo, hi, excess, below=False):
    """The first float x of every bracket [lo, hi] of one vector with
    excess(x) <= 0, or if below the float before it (lo at the least).
    excess(x) decreases in x and is <= 0 at hi; only its sign is read.

    A bisection of the bit patterns of the brackets' ends, which the
    non-negative floats share in order (-0.0 reads as 0.0): each pass halves
    the integer gap between the float before lo, which stands for an excess
    > 0 and is never evaluated, and hi.  The gap is below 2**63, so after
    at most 63 passes the two ends of every bracket are adjacent floats.
    """
    lo = np.asarray(lo, dtype=float) + 0.0
    hi = np.asarray(hi, dtype=float) + 0.0
    a, b = lo.view(np.int64) - 1, hi.view(np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while np.any(b - a > 1):
            mid = b - (b - a) // 2  # b itself where the gap is closed
            up = excess(mid.view(float)) > 0
            a, b = np.where(up, mid, a), np.where(up, b, mid)
    return np.maximum(a, lo.view(np.int64)).view(float) if below else b.view(float)


def _numeric_inverse(phi: YoungFunction, t: np.ndarray) -> np.ndarray:
    """The (generalized) inverse of a monotone phi: the last float s in
    [0, the largest float] with phi(s) < t, less 4 eps for the rounding of
    v / (v / s) and of phi, so that phi(phi^-1(t)) <= t: a Luxemburg
    bracket [mean, max] |f| / phi^-1(1) then ends where mean phi(|f| /
    lam) <= 1, also when it is closed (a one-cell cube)."""
    t = np.atleast_1d(t).astype(float)
    top = np.full_like(t, np.finfo(float).max)
    lo = monotone_root(np.zeros_like(t), top, lambda s: t - phi(s), below=True)
    return lo * (1.0 - 4.0 * np.finfo(float).eps)


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------

def power(p: float) -> YoungFunction:
    """phi(t) = t**p."""
    if p <= 0:
        raise ValueError("power must be positive")
    if p > 1:
        pp = p / (p - 1.0)
        conj = lambda t: (p - 1.0) * p ** (-pp) * t ** pp
    else:
        conj = None
    return YoungFunction(
        f"t^{p:g}",
        lambda t: t ** p,
        inverse_fn=lambda t: t ** (1.0 / p),
        complementary_fn=conj,
        i_lower=p,
        I_upper=p,
        delta2_C1=p,
        submultiplicative=True,
    )


def llog(alpha: float) -> YoungFunction:
    """phi(t) = t log(e + t)**alpha, the L(log L)^alpha scale."""
    if alpha < 0:
        raise ValueError("need alpha >= 0")
    # x ** 1.0 == x, so an identity power is left out rather than copied
    log = (lambda t: np.log(np.e + t)) if alpha == 1 else (lambda t: np.log(np.e + t) ** alpha)
    return YoungFunction(
        f"t log(e+t)^{alpha:g}",
        lambda t: t * log(t),
        i_lower=1.0,
        I_upper=1.0,
        # log(e + lam t) <= lam log(e + t) for lam >= 1, so C1 = 1 + alpha
        delta2_C1=1.0 + alpha,
        submultiplicative=True,
    )


def dilation_indices(phi: YoungFunction) -> tuple[float, float]:
    """(i_phi, I_phi), the slopes of log h_phi at small and large
    dilations, from the closed forms that phi carries; ValueError for a phi
    without them."""
    if phi.i_lower is None or phi.I_upper is None:
        raise ValueError(f"growth function {phi.name} has no closed-form dilation indices")
    return phi.i_lower, phi.I_upper
