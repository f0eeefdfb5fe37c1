"""Young functions, the monotone root solve of the Luxemburg norms, and
their dilation indices.

Built-in growth functions carry closed-form inverses and complementary
functions where they exist; an inverse without one falls back on a
monotone root solve.  The dilation indices and the doubling constant are
closed forms only, and nothing here computes a conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "YoungFunction",
    "power",
    "llog",
    "phi_power",
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
    """Shrink every bracket [lo, hi] of one vector at once until
    hi - lo <= 1e-12 hi (at most 200 passes), and return hi, or lo if
    below.  excess(x) is > 0 where the root lies above x and decreases in
    x; a bracket with lo = hi = 0 stays 0.

    Each pass takes a safeguarded Illinois step (Dowell & Jarratt, BIT 11,
    1971): the secant point of the bracket, with the excess kept at an end
    halved when that end survives twice running.  Two safeguards:

    - the step is clamped 0.4e-12 hi inside the bracket, so an end that is
      an exact root (excess 0) ends the solve in one more pass instead of
      stalling the secant on it;
    - the step is the midpoint where the secant is undefined (an end's
      excess is not finite, or both are 0) and where the bracket has not
      halved in three passes, as when one end's excess dwarfs the other's
      (an exponential phi) and the secant creeps along the far end.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.all(hi - lo <= 1e-12 * hi):  # spares the two end evaluations
        return lo if below else hi
    moved = np.zeros(lo.shape)  # +1 where lo moved last pass, -1 where hi did
    halved_at = hi - lo  # the width when the bracket last halved ...
    slow = np.zeros(lo.shape, dtype=int)  # ... and the passes since then
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f_lo, f_hi = excess(lo), excess(hi)
        for _ in range(200):
            width = hi - lo
            open_ = width > 1e-12 * hi
            if not open_.any():
                break
            halved = width <= 0.5 * halved_at
            halved_at = np.where(halved, width, halved_at)
            slow = np.where(halved, 0, slow + 1)
            slope = f_lo - f_hi
            secant = (slope > 0) & (slope < np.inf) & (slow < 3)
            x = np.where(secant, lo + width * (f_lo / slope), lo + 0.5 * width)
            delta = 0.4e-12 * hi
            x = np.where(open_, np.clip(x, lo + delta, hi - delta), hi)
            f_x = excess(x)
            up = f_x > 0
            f_hi = np.where(up & (moved > 0), 0.5 * f_hi, f_hi)
            f_lo = np.where(~up & (moved < 0), 0.5 * f_lo, f_lo)
            lo, f_lo = np.where(up, x, lo), np.where(up, f_x, f_lo)
            hi, f_hi = np.where(up, hi, x), np.where(up, f_hi, f_x)
            moved = np.where(up, 1.0, -1.0)
    return lo if below else hi


def _numeric_inverse(phi: YoungFunction, t: np.ndarray) -> np.ndarray:
    """The (generalized) inverse of a monotone phi: a doubling search for
    the upper end of each bracket, then one vector root solve.  It returns
    the lower end, less 4 eps for the rounding of v / (v / s) and of phi,
    so that phi(phi^-1(t)) <= t: a Luxemburg bracket [mean, max] |f| /
    phi^-1(1) then ends where mean phi(|f| / lam) <= 1, also when it is
    closed (a one-cell cube)."""
    t = np.atleast_1d(t).astype(float)
    hi = np.ones_like(t)
    for _ in range(200):
        bad = phi(hi) < t
        if not bad.any():
            break
        hi[bad] *= 2.0
    lo = monotone_root(np.zeros_like(t), hi, lambda s: t - phi(s), below=True)
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


def phi_power(phi: YoungFunction, m: int) -> YoungFunction:
    """phi^m(t) = phi(t)**m; h_{phi^m} = h_phi**m, so indices scale by m."""
    if m < 1:
        raise ValueError("need m >= 1")
    if m == 1:
        return phi
    return YoungFunction(
        f"({phi.name})^{m}",
        lambda t: phi(t) ** m,
        inverse_fn=(lambda t: phi.inverse_fn(t ** (1.0 / m)))
        if phi.inverse_fn is not None
        else None,
        i_lower=None if phi.i_lower is None else m * phi.i_lower,
        I_upper=None if phi.I_upper is None else m * phi.I_upper,
    )


def dilation_indices(phi: YoungFunction) -> tuple[float, float]:
    """(i_phi, I_phi), the slopes of log h_phi at small and large
    dilations, from the closed forms that phi carries; ValueError for a phi
    without them."""
    if phi.i_lower is None or phi.I_upper is None:
        raise ValueError(f"growth function {phi.name} has no closed-form dilation indices")
    return phi.i_lower, phi.I_upper
