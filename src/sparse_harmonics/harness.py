"""Experiment drivers: evaluate both sides of the main inequalities on
concrete operators, fit decay exponents, and emit verification reports.

Every experiment is deterministic given its inputs and the grid resolution;
the dimensional constants are those of n = 1.  The ~ in each inequality
is absorbed into a recorded slack factor, default 10: the artifact checks
structure and parameter scaling, not unknowable absolute constants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .grid import (
    Domain,
    DyadicCube,
    GridFunction,
    cube_cells,
    write_csv,
)
from .maximal import maximal, multilinear_maximal
from .operators import KernelOperator, bmo_norm, iterated_commutator
from .orlicz import YoungFunction, dilation_indices
from .sparse import SparseFamily, sparse_operator, stopping_cubes
from .weights import C_N, N_DIM, TAU_N, Weight, ap_constant, log_k0_p0

__all__ = [
    "VerificationReport",
    "DecayCurve",
    "verdict_from",
    "environment",
    "OperatorBundle",
    "hilbert_bundle",
    "calderon_bundle",
    "stein_bundle",
    "lorentz_quasinorm",
    "fit_exponent",
    "model_values",
    "principal_cubes",
    "default_t_grid",
    "local_decay_experiment",
    "sharpness_experiment",
    "coifman_fefferman_experiment",
    "mixed_weak_experiment",
    "fefferman_stein_experiment",
    "modular_experiment",
]

DEFAULT_SLACK = 10.0


# -- reports -----------------------------------------------------------------

@dataclass
class VerificationReport:
    id: str
    params: dict
    lhs: float
    rhs: float
    constants: dict
    ratio: float
    fit: Optional[dict]
    verdict: str
    env: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DecayCurve:
    t_grid: np.ndarray
    measures: np.ndarray  # normalized, in [0, 1], nonincreasing
    model: np.ndarray
    fit: dict

    def write_csv(self, path) -> None:
        write_csv(path, ["t", "measure", "model"], zip(self.t_grid, self.measures, self.model))


def verdict_from(ratio: float, slack: float) -> str:
    if not math.isfinite(ratio):
        return "degenerate"
    if ratio <= 1.0:
        return "holds"
    if ratio <= slack:
        return "holds-with-margin"
    return "violated"


def environment(domain: Domain) -> dict:
    return {
        "L": domain.resolution_log2,
        "pv_cutoff": 1,  # the principal values skip the diagonal cell only
        "n": N_DIM,
        "tau_n": TAU_N,
        "C_n": C_N,
        "c_n": 1.0,  # the paper's c_n, which no formula here uses
    }


def _bound_report(
    experiment_id: str, bundle: OperatorBundle, fs: Sequence[GridFunction], params: dict,
    lhs: float, rhs: float, constants: dict, slack: float,
) -> VerificationReport:
    """The report of a bound lhs <= rhs, judged against slack: the ratio is
    lhs / rhs, 0 where lhs is 0 and inf where only rhs is 0.  params gain
    the bundle's m and l, and constants echo the slack."""
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    return VerificationReport(
        experiment_id, {**params, "m": bundle.m, "l": bundle.l}, lhs, rhs,
        {**constants, "slack": slack}, ratio, None, verdict_from(ratio, slack),
        environment(fs[0].domain),
    )


# -- operator bundles --------------------------------------------------------

@dataclass(frozen=True)
class OperatorBundle:
    """A kernel operator together with symbols acting in selected slots."""

    operator: KernelOperator
    m: int
    bs: tuple = ()
    slots: tuple = ()

    def __post_init__(self):
        if len(self.bs) != len(self.slots):
            raise ValueError("need one slot per symbol")
        if self.bs and self.operator.kind == "stein":
            # the square function is sublinear: the binomial expansion of
            # iterated_commutator does not hold for it
            raise ValueError("stein operator takes no symbols")

    @property
    def l(self) -> int:
        return len(self.bs)

    @property
    def symbol_norm_product(self) -> float:
        out = 1.0
        for b in self.bs:
            out *= bmo_norm(b)
        return out

    def apply(self, fs: Sequence[GridFunction]) -> GridFunction:
        """T_b f, computed once per operator, slots and content of the
        symbols and inputs: `iterated_commutator` is memoised."""
        if len(fs) != self.m:
            raise ValueError(f"expected {self.m} inputs")
        return iterated_commutator(self.operator, self.bs, self.slots, fs)


def hilbert_bundle(bs: Sequence[GridFunction] = ()) -> OperatorBundle:
    return OperatorBundle(KernelOperator("hilbert"), 1, tuple(bs), tuple(0 for _ in bs))


def calderon_bundle(
    m: int = 1, bs: Sequence[GridFunction] = (), slots: Sequence[int] = ()
) -> OperatorBundle:
    if m < 1:
        raise ValueError("calderon operator needs m >= 1")
    return OperatorBundle(KernelOperator("calderon"), m + 1, tuple(bs), tuple(slots))


def stein_bundle(alpha: float) -> OperatorBundle:
    return OperatorBundle(KernelOperator("stein", alpha=alpha), 1)


# -- lorentz quasinorms ------------------------------------------------------

def lorentz_quasinorm(f: GridFunction, p: float, w: Optional[Weight] = None) -> float:
    """||f||_{L^{p,inf}(w)} = sup_t t w({|f| > t})^{1/p}, exact over the
    finite set of sample values as thresholds; w = 1 where w is None."""
    if p <= 0:
        raise ValueError("need p > 0")
    # The sup is attained approaching each sample value from below, where
    # the superlevel mass is w({|f| >= value}).  In descending order, the
    # prefix sum at the last position of each value is that mass; earlier
    # positions of a repeated value hold less, so they cannot raise the max.
    a = np.abs(f.samples).astype(float)
    cell = np.full(a.shape, f.domain.h) if w is None else w.samples * f.domain.h
    order = np.argsort(a)[::-1]
    # mass is contiguous: numpy's power can differ by an ulp on a strided view
    mass = np.cumsum(cell[order])
    return float((a[order] * mass ** (1.0 / p)).max(initial=0.0))


# -- decay fitting -----------------------------------------------------------

_DEGENERATE_FIT = {"c": math.nan, "alpha": math.nan, "p": math.nan, "r2": math.nan,
                   "degenerate": True}
# Coarse grid of ln p for the bracket scan (p from 1/64 to 64), and the
# number of sub-intervals each refinement pass splits the bracket into.
_LNP_SCAN = np.linspace(math.log(1.0 / 64.0), math.log(64.0), 97)
_SECTIONS = 32


def _projected_ssr(lns: np.ndarray, yc: np.ndarray, lnp: np.ndarray):
    """Residual sum of squares of ln phi = ln c - beta s^p, with (ln c, beta)
    eliminated by linear least squares, and its derivative in ln p; also the
    slope -beta and the mean of s^p.  One entry per entry of lnp; lns = ln s,
    yc = ln phi minus its mean."""
    p = np.exp(lnp)[:, None]
    u = np.exp(p * lns)
    ubar = u.mean(axis=1)
    uc = u - ubar[:, None]
    gamma = (uc @ yc) / np.einsum("ij,ij->i", uc, uc)
    r = yc - gamma[:, None] * uc
    ssr = np.einsum("ij,ij->i", r, r)
    dssr = -2.0 * gamma * np.einsum("ij,ij->i", p * lns * u, r)
    return ssr, dssr, gamma, ubar


def fit_exponent(t: np.ndarray, phi: np.ndarray) -> dict:
    """Least squares of ln phi = ln c - alpha t^p on the usable range
    phi in [1e-4, 0.5], by variable projection (Golub & Pereyra, SIAM J.
    Numer. Anal. 10, 1973).  For fixed p, (ln c, beta) is a closed-form
    two-column least squares in s = t / max t, and alpha = beta / (max t)^p.
    A scan over ln p in [ln 1/64, ln 64] brackets the minimum of the
    projected residual; the bracket is then split until the sign change of
    its analytic derivative is located to float resolution in ln p.  The
    result is the least-squares optimum itself, not an optimizer's stopping
    point, so data equal to rounding give fits equal to rounding.  A minimum
    on the edge of the scan, or a c or alpha that is not a positive finite
    float (beta <= 0 among them), gives a degenerate fit."""
    t = np.asarray(t, dtype=float)
    phi = np.asarray(phi, dtype=float)
    keep = (phi >= 1e-4) & (phi <= 0.5) & (t > 0)
    tu, pu = t[keep], phi[keep]
    if len(tu) < 5:
        return dict(_DEGENERATE_FIT)
    y = np.log(pu)
    yc = y - y.mean()
    t_max = tu.max()
    lns = np.log(tu / t_max)
    with np.errstate(all="ignore"):
        ssr, dssr, _, _ = _projected_ssr(lns, yc, _LNP_SCAN)
        ssr = np.where(np.isfinite(ssr), ssr, np.inf)
        k = int(np.argmin(ssr))
        if not (0 < k < len(_LNP_SCAN) - 1 and math.isfinite(ssr[k])):
            return dict(_DEGENERATE_FIT)
        # the derivative is negative at lo and not negative at hi
        lo, hi = (_LNP_SCAN[k], _LNP_SCAN[k + 1]) if dssr[k] < 0 else (
            _LNP_SCAN[k - 1], _LNP_SCAN[k])
        while hi - lo > 2.0 ** -52 * max(1.0, abs(lo), abs(hi)):
            q = np.linspace(lo, hi, _SECTIONS + 1)
            _, dq, _, _ = _projected_ssr(lns, yc, q[1:-1])
            j = int(np.argmax(dq >= 0)) if np.any(dq >= 0) else len(dq)
            lo, hi = q[j], q[j + 1]
        lnp = np.array([0.5 * (lo + hi)])
        ss_res, _, gamma, ubar = (float(v[0]) for v in _projected_ssr(lns, yc, lnp))
        p = float(np.exp(lnp[0]))
        c = float(np.exp(y.mean() - gamma * ubar))
        alpha = float(-gamma / t_max ** p)
    if not (0.0 < c < math.inf and 0.0 < alpha < math.inf):
        return dict(_DEGENERATE_FIT)
    ss_tot = float(np.sum(yc ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res < 1e-18 else 0.0)
    return {"c": c, "alpha": alpha, "p": p, "r2": r2, "degenerate": False}


def model_values(fit: dict, t: np.ndarray) -> np.ndarray:
    if fit.get("degenerate"):
        return np.full(len(t), math.nan)
    return fit["c"] * np.exp(-fit["alpha"] * np.asarray(t, dtype=float) ** fit["p"])


# -- principal cubes ---------------------------------------------------------

def principal_cubes(g: GridFunction, q0: DyadicCube) -> SparseFamily:
    """Stopping family on |g| starting from q0: children of the family are
    the maximal descendants whose average exceeds twice the parent's.
    Chebyshev makes it 1/2-sparse."""
    cubes = stopping_cubes([q0], abs(g), 2.0, recenter=False)
    return SparseFamily.make(cubes, 0.5, g.domain)


# -- experiments -------------------------------------------------------------

def default_t_grid(
    bnorm_product: float, n_points: int = 24, lo: float = 0.5, hi: float = 50.0
) -> np.ndarray:
    """n_points log-spaced thresholds from lo to hi, times the symbol norm
    product (times 1 when that product vanishes)."""
    scale = bnorm_product if bnorm_product > 0 else 1.0
    return np.logspace(math.log10(lo), math.log10(hi), n_points) * scale


def _comparator_llogl(bundle: OperatorBundle, fs: Sequence[GridFunction]) -> GridFunction:
    """Per-slot iterated maximal: one extra application of M for each symbol
    attached to the slot; reduces to M^2 f for one symbol on one input."""
    dom = fs[0].domain
    out = np.ones(dom.n_cells)
    for i, f in enumerate(fs):
        k = 1 + sum(1 for s in bundle.slots if s == i)
        out *= maximal(f, k).samples
    return GridFunction(dom, out)


def local_decay_experiment(
    bundle: OperatorBundle,
    fs: Sequence[GridFunction],
    q0: DyadicCube,
    t_grid: Optional[np.ndarray] = None,
    comparator: str = "mixed-min",
    w: Optional[Weight] = None,
    experiment_id: str = "local-decay",
) -> tuple[DecayCurve, VerificationReport]:
    """Measures |{x in Q0 : |T_b f| > t comparator}| / |Q0| on a t grid and
    fits c exp(-alpha t^p).  Weighted runs use w(.) / w(2 Q0)."""
    if comparator not in ("mixed-min", "llogl"):
        raise ValueError(f"unknown comparator {comparator!r}")
    dom = fs[0].domain
    tf = bundle.apply(fs)
    g = np.abs(tf.samples)
    bprod = bundle.symbol_norm_product
    if t_grid is None:
        t_grid = default_t_grid(bprod)
    t_grid = np.asarray(t_grid, dtype=float)

    comp = _comparator_llogl(bundle, fs)
    s0, e0, _ = cube_cells(dom, q0)
    constants: dict = {"symbol_norm_product": bprod, "comparator": comparator}
    if comparator == "mixed-min":
        sf = principal_cubes(tf, q0)
        fs0 = [sparse_operator(sf, [f], 3) if i in bundle.slots else f
               for i, f in enumerate(fs)]
        alt = multilinear_maximal(fs0, "plain")
        both = np.minimum(comp.samples, alt.samples)
        constants["sparse_family_size"] = len(sf.cubes)
        constants["min_branch_alt_fraction"] = float(
            np.mean(alt.samples < comp.samples)
        )
        # domination audit: the sparse form must cover the operator output
        dom_form = sparse_operator(sf, fs, 1).samples
        covered = dom_form[s0:e0] > 0
        sig = np.abs(g[s0:e0]) > 1e-12 * max(np.abs(g).max(), 1e-300)
        if np.any(sig & ~covered):
            constants["domination"] = "failed"
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                c_dom = np.where(sig, np.abs(g[s0:e0]) / np.where(covered, dom_form[s0:e0], np.inf), 0.0)
            constants["domination_constant"] = float(np.nanmax(c_dom))
        comp = GridFunction(dom, both)

    cvals = comp.samples[s0:e0]
    gvals = g[s0:e0]
    if w is None:
        cellmass = np.full(e0 - s0, dom.h)
        total = (e0 - s0) * dom.h
    else:
        cellmass = w.samples[s0:e0] * dom.h
        lo, hi, _ = cube_cells(dom, q0, 2)
        total = float(np.sum(w.samples[lo:hi]) * dom.h)
    measures = np.array([
        float(np.sum(cellmass[gvals > t * cvals])) / total for t in t_grid
    ])
    fit = fit_exponent(t_grid, measures)
    curve = DecayCurve(t_grid, measures, model_values(fit, t_grid), fit)
    if fit["degenerate"]:
        verdict = "degenerate"
    elif fit["r2"] >= 0.9 and fit["alpha"] > 0:
        verdict = "holds"
    elif fit["r2"] >= 0.7 and fit["alpha"] > 0:
        verdict = "holds-with-margin"
    else:
        verdict = "violated"
    target = 1.0 / (bundle.l + 1)
    ratio = fit["p"] / target if not fit["degenerate"] else math.nan
    rep = VerificationReport(
        experiment_id,
        {"comparator": comparator, "m": bundle.m, "l": bundle.l,
         "weighted": w is not None},
        float(measures[0]), float(measures[-1]), constants, ratio, fit, verdict,
        environment(dom),
    )
    return curve, rep


def sharpness_experiment(
    L: int = 14,
    bounded_symbol: bool = False,
) -> tuple[DecayCurve, VerificationReport]:
    """Fixed scenario: Hilbert commutator with a log singularity against the
    flat comparator M^2 chi = 1; the measured decay exponent should sit
    near 1/2, and a bounded symbol restores at least exponential decay."""
    dom = Domain(0.0, 1.0, L)
    if bounded_symbol:
        b = GridFunction.from_callable(dom, lambda x: np.sin(2 * math.pi * x))
        # bounded symbols die fast: sample the narrow band around the sup
        lo, hi, n_points = 0.4, 1.6, 40
    else:
        b = GridFunction.from_callable(dom, lambda x: np.log(x))
        # fit past the low-t transient, where the square-root regime holds
        lo, hi, n_points = 3.0, 18.0, 24
    f = GridFunction.constant(dom, 1.0)
    bundle = hilbert_bundle([b])
    t_grid = default_t_grid(bundle.symbol_norm_product, n_points, lo, hi)
    return local_decay_experiment(
        bundle, [f], DyadicCube(0, 0, 0), t_grid, comparator="llogl",
        experiment_id="sharpness-contrast" if bounded_symbol else "sharpness",
    )


def coifman_fefferman_experiment(
    bundle: OperatorBundle,
    fs: Sequence[GridFunction],
    p: float,
    w: Weight,
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """int |T_b f|^p w against the L log L maximal side with the tracked
    A_inf powers.  The symbol norms carry the exponent p so the ratio is
    invariant under rescaling each b_s."""
    if not 0.0 < p < math.inf:
        raise ValueError("need 0 < p < inf")
    h = fs[0].domain.h
    tf = np.abs(bundle.apply(fs).samples)
    lhs = float(np.sum(tf ** p * w.samples) * h)
    mf = multilinear_maximal(fs, "llogl").samples
    base = float(np.sum(mf ** p * w.samples) * h)
    fw, _ = w.ainfty()
    bprod = bundle.symbol_norm_product
    const = bprod ** p * fw ** (p * bundle.l) * fw ** max(2.0, p)
    return _bound_report(
        "coifman-fefferman", bundle, fs, {"p": p, "weight": w.name},
        lhs, const * base,
        {"ainfty_fw": fw, "symbol_norm_product": bprod, "constant": const}, slack,
    )


def _log_ratio(lhs: float, log_const: float, rhs: float) -> tuple[float, float]:
    """(ln lhs - log_const - ln rhs, the ratio it is the log of): the ratio
    is 0 where lhs is 0 and inf where the log reaches 700."""
    log_ratio = (math.log(lhs) if lhs > 0 else -math.inf) - log_const - (
        math.log(rhs) if rhs > 0 else -math.inf
    )
    return log_ratio, 0.0 if lhs == 0 else (math.exp(log_ratio) if log_ratio < 700 else math.inf)


def mixed_weak_experiment(
    bundle: OperatorBundle,
    fs: Sequence[GridFunction],
    ws: Sequence[Weight],
    v: Weight,
    t: float = 2.0,
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """Weak (1/m, inf) bound for T_b f / v against u v^{1/m}, with the
    explicit K0, p0 constants; the constant side is handled in log space
    because the tracked powers overflow floats routinely."""
    m = bundle.m
    if len(ws) != m:
        raise ValueError("need one weight per slot")
    if not 1.0 < t < math.inf:
        raise ValueError("need 1 < t < inf")
    dom = fs[0].domain
    u_samp = np.ones(dom.n_cells)
    for wi in ws:
        u_samp = u_samp * wi.samples ** (1.0 / m)
    u = Weight(GridFunction(dom, u_samp), "u")
    v_m = Weight(GridFunction(dom, v.samples ** (1.0 / m)), "v^{1/m}")
    uv = Weight(GridFunction(dom, u_samp * v_m.samples), "u v^{1/m}")

    tf = np.abs(bundle.apply(fs).samples)
    over_v = GridFunction(dom, tf / v.samples)
    lhs = lorentz_quasinorm(over_v, 1.0 / m, uv)
    mf = multilinear_maximal(fs, "llogl")
    rhs_norm = lorentz_quasinorm(
        GridFunction(dom, mf.samples / v.samples), 1.0 / m, uv
    )
    a1_u = ap_constant(u, 1.0)
    at_v = ap_constant(v_m, t)
    p0, log_k0 = log_k0_p0(t, a1_u, at_v)
    l = bundle.l
    bprod = bundle.symbol_norm_product
    log_const = (2 * l + 6 * m) * log_k0 + (2 * l + 4 * m) * math.log(at_v)
    if bprod > 0:
        log_const += math.log(bprod)
    log_ratio, ratio = _log_ratio(lhs, log_const, rhs_norm)

    # endpoint specialization v = 1 with its doubly exponential constant
    lhs1 = lorentz_quasinorm(GridFunction(dom, tf), 1.0 / m, u)
    rhs1 = lorentz_quasinorm(mf, 1.0 / m, u)
    log_c1 = 2.0 ** (N_DIM + 7) * m * a1_u * math.log(2.0 * a1_u)
    if bprod > 0:
        log_c1 += math.log(bprod)
    log_ratio1, ratio1 = _log_ratio(lhs1, log_c1, rhs1)
    # the ratio underflows to 0 once the tracked constant is astronomically
    # large; its logarithm still says by how much the bound is slack
    log10_ratio = max(log_ratio, log_ratio1) / math.log(10.0)

    worst = max(ratio, ratio1)
    return VerificationReport(
        "mixed-weak",
        {"m": m, "l": l, "t": t, "weights": [w.name for w in ws], "v": v.name},
        lhs, rhs_norm,
        {"p0": p0, "log10_K0": log_k0 / math.log(10.0), "a1_u": a1_u, "at_v": at_v,
         "log10_constant": log_const / math.log(10.0),
         "log10_endpoint_constant": log_c1 / math.log(10.0),
         "endpoint_ratio": ratio1, "log10_ratio": log10_ratio, "slack": slack},
        worst, None, verdict_from(worst, 1.0 + slack),
        environment(dom),
    )


def fefferman_stein_experiment(
    bundle: OperatorBundle,
    fs: Sequence[GridFunction],
    ps: Sequence[float],
    ws: Sequence[Weight],
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """||T_b f||_{L^p(nu)} against prod ||f_s||_{L^{p_s}(M w_s)} for
    arbitrary positive weights, 1/p = sum 1/p_s <= 1."""
    m = bundle.m
    if len(ps) != m or len(ws) != m:
        raise ValueError("need one exponent and one weight per slot")
    if not all(0 < pi < math.inf for pi in ps):
        raise ValueError("need every p_s > 0 and finite")
    p = 1.0 / sum(1.0 / pi for pi in ps)
    if p > 1.0 + 1e-12:
        raise ValueError("need 0 < p <= 1")
    dom = fs[0].domain
    h = dom.h
    nu = np.ones(dom.n_cells)
    for pi, wi in zip(ps, ws):
        nu = nu * wi.samples ** (p / pi)
    tf = np.abs(bundle.apply(fs).samples)
    lhs = float(np.sum(tf ** p * nu) * h) ** (1.0 / p)
    rhs = bundle.symbol_norm_product
    weak_consts = []
    for f, pi, wi in zip(fs, ps, ws):
        mw = maximal(wi.f).samples
        rhs *= float(np.sum(np.abs(f.samples) ** pi * mw) * h) ** (1.0 / pi)
        _, weak = wi.ainfty()
        weak_consts.append(weak)
    return _bound_report(
        "fefferman-stein", bundle, fs,
        {"p": p, "ps": list(ps), "weights": [w.name for w in ws]}, lhs, rhs,
        {"weak_ainfty": weak_consts, "symbol_norm_product": bundle.symbol_norm_product},
        slack,
    )


def modular_experiment(
    bundle: OperatorBundle,
    fs: Sequence[GridFunction],
    phi: YoungFunction,
    q: float,
    r: float,
    w: Weight,
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """int phi(|T_b f|) w against the product of modulars of the inputs,
    with branch gating on the lower dilation index of phi."""
    if not phi.submultiplicative:
        raise ValueError("growth function must be sub-multiplicative")
    if r <= 0:
        raise ValueError("need r > 0")
    i_phi, _ = dilation_indices(phi)
    if r < i_phi and 1.0 < q < i_phi / r:
        branch = 1
    elif 1.0 < i_phi <= r and 1.0 < q < i_phi:
        branch = 2
    else:
        raise ValueError(
            f"parameters outside both branches: i_phi = {i_phi}, q = {q}, r = {r}"
        )
    m = bundle.m
    h = fs[0].domain.h
    tf = np.abs(bundle.apply(fs).samples)
    lhs = float(np.sum(np.asarray(phi(tf), dtype=float) * w.samples) * h)
    # the largest alpha <= 1 with phibar^alpha quasi-convex is 1 for every
    # phi: phibar(t) = sup_s (st - phi(s)) is a sup of affine maps, so convex
    alpha = 1.0
    c1 = phi.delta2_C1
    if c1 is None or not math.isfinite(c1):
        raise ValueError("growth function must satisfy the doubling condition")
    exponent = (bundle.l + 1) * (alpha * c1 + 1.0)
    if branch == 2:
        exponent += 1.0 + m * c1
    fw, _ = w.ainfty()
    aq = w.ap(q)
    scale = aq ** (1.0 / (q * r))
    prod = 1.0
    for f in fs:
        with np.errstate(over="ignore"):
            phim = np.asarray(phi(scale * np.abs(f.samples)), dtype=float) ** m
        prod *= float(np.sum(phim * w.samples) * h)
    return _bound_report(
        "modular", bundle, fs, {"q": q, "r": r, "weight": w.name, "branch": branch},
        lhs, fw ** exponent * prod ** (1.0 / m),
        {"i_phi": i_phi, "alpha": alpha, "C1": c1, "exponent": exponent,
         "ainfty_fw": fw, "aq": aq},
        slack,
    )
