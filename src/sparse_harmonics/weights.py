"""Weight classes and their constants, plus the explicit constant formulas
used by the experiment harness.

All suprema run over the full shifted-dyadic cube family; averages use the
intersection with the domain so that w = 1 hits every structural floor
exactly.  The doubled-cube constants (weak A_infty, reverse Holder) only
consider cubes whose double stays inside the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grid import Domain, GridFunction, LevelEntry, write_csv
from .maximal import family_for, maximal

__all__ = [
    "Weight",
    "MultiWeight",
    "DimensionalConstants",
    "ap_constant",
    "multi_ap_constant",
    "ainfty_constants",
    "reverse_holder_check",
    "s_u",
    "rubio_de_francia",
    "IterationError",
    "k0_p0",
    "log_k0_p0",
    "k0_p0_remark",
    "lemma51_check",
    "write_constants_csv",
]

_EXP_CLAMP = 690.0  # keeps exp() within ~1e300


class IterationError(RuntimeError):
    pass


@dataclass(frozen=True)
class DimensionalConstants:
    n: int = 1
    tau_n: Optional[float] = None  # defaults to 2**n
    C_n: float = 1.0
    c_n: float = 1.0

    def __post_init__(self):
        if self.n < 1 or self.C_n <= 0 or self.c_n <= 0:
            raise ValueError("dimensional constants must be positive")
        if self.tau_n is not None and self.tau_n <= 0:
            raise ValueError("tau_n must be positive")

    @property
    def tau(self) -> float:
        return 2.0 ** self.n if self.tau_n is None else self.tau_n


class Weight:
    """Strictly positive grid function with lazily cached class constants."""

    def __init__(self, f: GridFunction, name: str = "w"):
        if np.iscomplexobj(f.samples):
            raise ValueError("weights are real")
        if np.any(f.samples <= 0) or not np.all(np.isfinite(f.samples)):
            raise ValueError("weight samples must be positive and finite")
        self.f = f
        self.name = name
        self._ap_cache: dict[float, float] = {}
        self._ainfty: Optional[tuple[float, float]] = None

    @property
    def domain(self) -> Domain:
        return self.f.domain

    @property
    def samples(self) -> np.ndarray:
        return self.f.samples

    def ap(self, p: float) -> float:
        if p not in self._ap_cache:
            self._ap_cache[p] = ap_constant(self, p)
        return self._ap_cache[p]

    def a1(self) -> float:
        return self.ap(1.0)

    def ainfty(self) -> tuple[float, float]:
        if self._ainfty is None:
            self._ainfty = ainfty_constants(self)
        return self._ainfty

    def power(self, a: float, name: str | None = None) -> "Weight":
        s = clamped_power(self.samples, a)
        return Weight(GridFunction(self.domain, s), name or f"{self.name}^{a:g}")

    def __mul__(self, other: "Weight") -> "Weight":
        return Weight(
            GridFunction(self.domain, self.samples * other.samples),
            f"{self.name}*{other.name}",
        )


def clamped_power(samples: np.ndarray, a: float) -> np.ndarray:
    """samples**a through log-space, clamped to the float range."""
    return np.exp(np.clip(a * np.log(samples), -_EXP_CLAMP, _EXP_CLAMP))


@dataclass(frozen=True)
class MultiWeight:
    weights: tuple
    exponents: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.exponents) or not self.weights:
            raise ValueError("need one exponent per weight")
        if any(p < 1 or not math.isfinite(p) for p in self.exponents):
            raise ValueError("exponents must lie in [1, inf)")

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def p(self) -> float:
        return 1.0 / sum(1.0 / pj for pj in self.exponents)

    def nu(self) -> Weight:
        p = self.p
        s = np.ones(self.weights[0].domain.n_cells)
        for w, pj in zip(self.weights, self.exponents):
            s = s * clamped_power(w.samples, p / pj)
        return Weight(GridFunction(self.weights[0].domain, s), "nu")


def ap_constant(w: Weight, p: float) -> float:
    """sup_Q <w>_Q <w^{1-p'}>_Q^{p-1}, or <w>_Q / inf_Q w for p = 1."""
    if p < 1:
        raise ValueError("need p >= 1")
    fam = family_for(w.domain)
    cs_w = fam.prefix(w.samples.astype(float))
    best = -np.inf
    if p == 1.0:
        for e in fam.entries:
            vals = fam.means(e, cs_w, clip=True) / fam.segment_min(e, w.samples)
            best = max(best, float(vals.max()))
        return best
    dual = clamped_power(w.samples, 1.0 - p / (p - 1.0))
    cs_d = fam.prefix(dual)
    for e in fam.entries:
        vals = fam.means(e, cs_w, clip=True) * fam.means(e, cs_d, clip=True) ** (p - 1.0)
        best = max(best, float(vals.max()))
    return best


def multi_ap_constant(mw: MultiWeight) -> float:
    """The multiple-weight constant: sup over cubes of
    <nu>_Q prod_j <w_j^{1-p_j'}>_Q^{p/p_j'} with the p_j = 1 slots read as
    (inf_Q w_j)^{-p}."""
    fam = family_for(mw.weights[0].domain)
    p = mw.p
    cs_nu = fam.prefix(mw.nu().samples)
    duals = []
    for w, pj in zip(mw.weights, mw.exponents):
        if pj == 1.0:
            duals.append(None)
        else:
            duals.append(fam.prefix(clamped_power(w.samples, 1.0 - pj / (pj - 1.0))))
    best = -np.inf
    for e in fam.entries:
        vals = fam.means(e, cs_nu, clip=True)
        for w, pj, cs_d in zip(mw.weights, mw.exponents, duals):
            if cs_d is None:
                vals = vals * fam.segment_min(e, w.samples) ** (-p)
            else:
                ppj = pj / (pj - 1.0)
                vals = vals * fam.means(e, cs_d, clip=True) ** (p / ppj)
        best = max(best, float(vals.max()))
    return best


def _doubles(e: LevelEntry, n_cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, lo2, hi2): which cubes of e lie in the domain together with
    their double 2Q, and the cells [lo2, hi2) of 2Q.  Doubles of odd-width
    cubes are not grid aligned and never count."""
    half = e.width // 2
    lo2 = e.starts - half
    hi2 = e.starts + e.width + half
    ok = (lo2 >= 0) & (hi2 <= n_cells) & (e.width % 2 == 0)
    return ok, lo2, hi2


def ainfty_constants(w: Weight) -> tuple[float, float]:
    """(Fujii-Wilson, weak) constants.

    fujii_wilson = sup_Q (1/w(Q)) int_Q M(w chi_Q);
    weak         = sup_Q (1/w(2Q)) int_Q M(w chi_Q), over cubes with 2Q
    inside the domain.  The inner M runs over the same cube family.
    """
    dom = w.domain
    fam = family_for(dom)
    h = dom.h
    fw = -np.inf
    weak = -np.inf
    cs_w = fam.prefix(w.samples.astype(float))
    for e in fam.entries:
        ok, lo2, hi2 = _doubles(e, dom.n_cells)
        for i, (lo, hi) in enumerate(zip(e.lo, e.hi)):
            chunk = np.zeros(dom.n_cells)
            chunk[lo:hi] = w.samples[lo:hi]
            m = maximal(GridFunction(dom, chunk))
            num = h * m.samples[lo:hi].sum()
            wq = h * (cs_w[hi] - cs_w[lo])
            fw = max(fw, num / wq)
            if ok[i]:
                w2q = h * (cs_w[hi2[i]] - cs_w[lo2[i]])
                weak = max(weak, num / w2q)
    return float(fw), float(weak)


def reverse_holder_check(w: Weight, dc: DimensionalConstants = DimensionalConstants()) -> dict:
    """With r = 1 + 1/(tau_n * weak), check (<w^r>_Q)^{1/r} <= (2/|2Q|) int_{2Q} w
    on every cube whose double stays inside the domain."""
    _, weak = w.ainfty()
    r = 1.0 + 1.0 / (dc.tau * weak)
    fam = family_for(w.domain)
    cs_w = fam.prefix(w.samples.astype(float))
    cs_wr = fam.prefix(clamped_power(w.samples, r))
    worst = -np.inf
    worst_cube = None
    for e in fam.entries:
        ok, lo2, hi2 = _doubles(e, w.domain.n_cells)
        avg_wr = fam.means(e, cs_wr, clip=True)
        for i in np.nonzero(ok)[0]:
            lhs = avg_wr[i] ** (1.0 / r)
            rhs = 2.0 * (cs_w[hi2[i]] - cs_w[lo2[i]]) / (hi2[i] - lo2[i])  # 2 <w>_{2Q}
            ratio = lhs / rhs
            if ratio > worst:
                worst, worst_cube = ratio, (e.lattice_id, e.level, e.t0 + i)
    return {
        "r": r,
        "worst_ratio": float(worst),
        "worst_cube": worst_cube,
        "ok": worst <= 1.0 + 1e-12,
    }


def s_u(f: GridFunction, u: Weight) -> GridFunction:
    """M(f u) / u pointwise."""
    return GridFunction(
        f.domain, maximal(GridFunction(f.domain, f.samples * u.samples)).samples / u.samples
    )


def rubio_de_francia(
    h: GridFunction, u: Weight, k0: float, n_terms: int = 20
) -> GridFunction:
    """R h = sum_j S_u^j h / (2 K0)^j, truncated after n_terms terms.

    R h majorizes h and is nearly invariant under S_u / (2 K0); the caller
    supplies K0 above the operating norm of S_u, which makes the tail
    geometric.  Non-decaying terms abort with the observed growth rate.
    """
    if k0 <= 0 or n_terms < 1:
        raise ValueError("need K0 > 0 and at least one term")
    if np.any(h.samples < 0):
        raise ValueError("input must be nonnegative")
    term = h
    acc = h.samples.astype(float).copy()
    prev = float(np.max(h.samples))
    if prev == 0.0:
        return GridFunction(h.domain, acc)
    growth = []
    for _ in range(1, n_terms):
        term = GridFunction(h.domain, s_u(term, u).samples / (2.0 * k0))
        cur = float(term.samples.max())
        if cur == 0.0:
            break  # underflow: the tail is exactly zero from here on
        growth.append(cur / prev if prev > 0 else np.inf)
        prev = cur
        acc += term.samples
        if len(growth) >= 3 and min(growth[-3:]) >= 1.0:
            raise IterationError(
                f"series not decaying: effective norm >= {2.0 * k0 * min(growth[-3:]):.3g}"
            )
    return GridFunction(h.domain, acc)


def k0_p0(
    t: float,
    a1_u: float,
    at_v: float,
    m: int = 1,
    dc: DimensionalConstants = DimensionalConstants(),
) -> tuple[float, float]:
    """p0 = 2^{n+3}(t-1) a1_u + 1 and the companion constant

    K0 = 4 C_n p0 p0' (a1_u + 2^{p0-1} C_n^t at_v^2 a1_u^{p0-1}) + 1.

    at_v is the A_t constant of v^{1/m}; m itself does not enter the
    formulas and is accepted only so call sites read like the estimates.
    """
    if t <= 1 or a1_u < 1 or at_v < 1:
        raise ValueError("need t > 1 and constants >= 1")
    p0 = 2.0 ** (dc.n + 3) * (t - 1.0) * a1_u + 1.0
    p0p = p0 / (p0 - 1.0)
    k0 = (
        4.0 * dc.C_n * p0 * p0p
        * (a1_u + 2.0 ** (p0 - 1.0) * dc.C_n ** t * at_v ** 2 * a1_u ** (p0 - 1.0))
        + 1.0
    )
    return p0, k0


def log_k0_p0(
    t: float,
    a1_u: float,
    at_v: float,
    m: int = 1,
    dc: DimensionalConstants = DimensionalConstants(),
) -> tuple[float, float]:
    """(p0, ln K0) of k0_p0, summed in log space: K0 leaves the float range
    once 2^{p0-1} a1_u^{p0-1} does, which an A_1 constant of a few hundred
    already forces."""
    if t <= 1 or a1_u < 1 or at_v < 1:
        raise ValueError("need t > 1 and constants >= 1")
    p0 = 2.0 ** (dc.n + 3) * (t - 1.0) * a1_u + 1.0
    log_x = (p0 - 1.0) * math.log(2.0 * a1_u) + t * math.log(dc.C_n) + 2.0 * math.log(at_v)
    log_k0 = math.log(4.0 * dc.C_n * p0 * p0 / (p0 - 1.0)) + np.logaddexp(math.log(a1_u), log_x)
    return p0, float(np.logaddexp(log_k0, 0.0))


def k0_p0_remark(
    p: float,
    a1_u: float,
    ap_v: float,
    dc: DimensionalConstants = DimensionalConstants(),
) -> tuple[float, float]:
    """Variant with the integrability exponent taken at p itself:
    p0~ = 2^{n+3}(p-1) a1_u + 1, K0~ = C_n p0~ p0~' 2^{p0~-1} ap_v^2 a1_u^{p0~}."""
    if p <= 1 or a1_u < 1 or ap_v < 1:
        raise ValueError("need p > 1 and constants >= 1")
    p0 = 2.0 ** (dc.n + 3) * (p - 1.0) * a1_u + 1.0
    p0p = p0 / (p0 - 1.0)
    k0 = dc.C_n * p0 * p0p * 2.0 ** (p0 - 1.0) * ap_v ** 2 * a1_u ** p0
    return p0, k0


def lemma51_check(
    u: Weight,
    v: Weight,
    p: float,
    eps: float,
    dc: DimensionalConstants = DimensionalConstants(),
) -> dict:
    """Check [u v^eps]_{A_p} <= 2 [u]_{A_1} [v]_{A_p}^eps for admissible eps."""
    a1u = u.a1()
    cap = 1.0 / (2.0 ** (dc.n + 2) * a1u)
    if not (0.0 < eps < cap):
        raise ValueError(f"eps must lie in (0, {cap:g})")
    mixed = u * v.power(eps)
    lhs = ap_constant(mixed, p)
    rhs = 2.0 * a1u * v.ap(p) ** eps
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs, "ok": lhs <= rhs * (1 + 1e-12)}


def write_constants_csv(path, rows: Sequence[dict]) -> None:
    """Emit the constants table: weight,p,ap,a1,ainfty_fw,ainfty_weak."""
    header = ["weight", "p", "ap", "a1", "ainfty_fw", "ainfty_weak"]
    write_csv(path, header, ([r[k] for k in header] for r in rows))
