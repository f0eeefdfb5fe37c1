"""The proof machinery of the paper that only the acceptance criteria and
the unit tests check, with no route from the CLI: Carleson packing and
the best sparseness of a family, the gamma in {1, 2} commutator sparse
forms, the oscillation stopping-time family
with its certificate, counting-function decay (criteria 1-3), reverse
Holder with the weak A_infty constant (criterion 5), the Rubio de Francia
majorant and the Lorentz L^{p,1} norm (criterion 6), the multiple-weight
class A_{vec p}, and the conjugate Young pairs, with the numeric
conjugate and the exp L^s scale (criterion 10).  Each is built on the
package's kernels."""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from sparse_harmonics.grid import Domain, DyadicCube, GridFunction, average, cube_cells, family_for
from sparse_harmonics.maximal import maximal
from sparse_harmonics.orlicz import YoungFunction
from sparse_harmonics.sparse import SparseFamily, stopping_cubes
from sparse_harmonics.weights import TAU_N, Weight, _double_table, clamped_power

# -- sparse families -----------------------------------------------------------

def cell_sets(fam: SparseFamily) -> list[tuple[int, int]]:
    """Clipped (lo, hi) cell ranges of a family's cubes, in family order."""
    return [cube_cells(fam.domain, q)[:2] for q in fam.cubes]


def verify_sparse(fam: SparseFamily) -> tuple[bool, float, float]:
    """(is_sparse, best_eta, carleson_constant), all by exact cell counts.

    best_eta uses the canonical exclusion sets E(Q) = Q minus the union of
    the family's strict subcubes of Q; the Carleson constant is
    sup_Q (1/|Q|) sum_{P in S, P subset Q} |P|.
    """
    cells = cell_sets(fam)
    best_eta = 1.0
    carleson = 0.0
    sizes = [hi - lo for lo, hi in cells]
    for i, (lo, hi) in enumerate(cells):
        if hi <= lo:
            raise ValueError("cube with empty domain intersection")
        covered = np.zeros(hi - lo, dtype=bool)
        packing = hi - lo
        qi = fam.cubes[i]
        for j, (lo2, hi2) in enumerate(cells):
            if j == i or not (lo <= lo2 and hi2 <= hi):
                continue
            # equal clipped extents can only mean a deeper boundary cube
            if (lo2, hi2) == (lo, hi) and fam.cubes[j].level <= qi.level:
                continue
            covered[lo2 - lo : hi2 - lo] = True
            packing += hi2 - lo2
        best_eta = min(best_eta, float((~covered).sum()) / sizes[i])
        carleson = max(carleson, packing / sizes[i])
    return best_eta >= fam.eta - 1e-12, best_eta, carleson


def commutator_sparse_form(
    fam: SparseFamily,
    bs: Sequence[GridFunction],
    fs: Sequence[GridFunction],
    gammas: Sequence[int],
) -> GridFunction:
    """The commutator sparse sum of Lerner, Ombrosi & Rivera-Rios (Adv.
    Math. 319, 2017) for one choice of branch vector, with plain Q averages
    everywhere.  The first len(bs) slots carry the oscillation factors, the
    rest enter through <|f_s|>; with no symbol it is
    `sparse.sparse_operator(fam, fs, 1)`.
    """
    l, m = len(bs), len(fs)
    if l > m:
        raise ValueError("more symbols than entries")
    if len(gammas) != l or any(g not in (1, 2) for g in gammas):
        raise ValueError("branch vector must be in {1,2}^l")
    dom = fam.domain
    out = np.zeros(dom.n_cells)
    for q, (lo, hi) in zip(fam.cubes, cell_sets(fam)):
        chunk = np.ones(hi - lo)
        scalar = 1.0
        for s in range(l):
            b, g = bs[s], gammas[s]
            b_avg = _signed_average(b, q, dom)
            if g == 1:
                chunk = chunk * np.abs(b.samples[lo:hi] - b_avg)
                scalar *= average(fs[s], q)
            else:
                osc = GridFunction(dom, np.abs(b.samples - b_avg) * np.abs(fs[s].samples))
                scalar *= average(osc, q)
        for s in range(l, m):
            scalar *= average(fs[s], q)
        out[lo:hi] += scalar * chunk
    return GridFunction(dom, out)


def _signed_average(f: GridFunction, q: DyadicCube, dom: Domain) -> float:
    """<f>_Q with sign, over Q intersected with the domain.

    Used for recentering symbols b: a symbol is defined everywhere, so a
    cube leaking past the boundary averages what is actually known, rather
    than zero-padding (which would make constants non-constant).
    """
    lo, hi, _ = cube_cells(dom, q)
    return float(f.samples[lo:hi].sum() / (hi - lo))


def oscillation_sparse(
    b: GridFunction, fam: SparseFamily, certify: bool = True
) -> tuple[SparseFamily, dict]:
    """Augment the family so cube oscillations of b are controlled on it.

    From each cube Q the stopping children are the maximal subcubes R with
    <|b - <b>_Q|>_R > 2^{n+1} <|b - <b>_Q|>_Q (`stopping_cubes`); recursion
    adds them to the family.  The returned certificate checks, cell by
    cell, that on each family cube Q

        |b - <b>_Q| <= 2^{n+2} sum_{R in S~, R subset Q} <|b - <b>_R|>_R chi_R.
    """
    dom = fam.domain
    n = 1
    cubes = stopping_cubes(fam.cubes, b, 2.0 ** (n + 1), recenter=True)
    eta_out = fam.eta / (2.0 * (1.0 + fam.eta))
    out = SparseFamily.make(cubes, eta_out, dom)
    cert: dict = {"checked": False}
    if certify:
        cert = _certify_oscillation(b, out)
    return out, cert


def _certify_oscillation(b: GridFunction, fam: SparseFamily) -> dict:
    dom = fam.domain
    n = 1
    cells = cell_sets(fam)
    devs = [np.abs(b.samples - _signed_average(b, q, dom)) for q in fam.cubes]
    osc = [average(GridFunction(dom, d), q) for q, d in zip(fam.cubes, devs)]
    worst = -np.inf
    for dev, (lo, hi) in zip(devs, cells):
        lhs = dev[lo:hi]
        rhs = np.zeros(hi - lo)
        for j, (lo2, hi2) in enumerate(cells):
            if lo <= lo2 and hi2 <= hi:
                rhs[lo2 - lo : hi2 - lo] += osc[j]
        rhs = 2.0 ** (n + 2) * rhs
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = lhs - rhs
        worst = max(worst, float(gap.max()))
    return {"checked": True, "ok": worst <= 1e-10, "worst_gap": worst}


def counting_decay(fam: SparseFamily, q0: DyadicCube) -> dict:
    """Super-level measures of the counting function on Q0 and their decay.

    Measures |{x in Q0 : sum_{Q' in S, Q' subset Q0} chi_{Q'} > t}| exactly
    at t = 0, 1, ..., max count, then fits log measure = log c - alpha t on
    the strictly positive range.
    """
    dom = fam.domain
    lo0, hi0, _ = cube_cells(dom, q0)
    count = np.zeros(hi0 - lo0)
    inside = 0
    for lo, hi in cell_sets(fam):
        if lo0 <= lo and hi <= hi0:
            count[lo - lo0 : hi - lo0] += 1.0
            inside += 1
    if inside == 0:
        raise ValueError("family has no cubes inside the root cube")
    t_grid = np.arange(0.0, count.max() + 1.0)
    h = dom.h
    measures = np.array([(count > t).sum() * h for t in t_grid])
    pos = measures > 0
    t_fit = t_grid[pos]
    logm = np.log(measures[pos])
    result = {
        "t": t_grid,
        "measure": measures,
        "degenerate": len(t_fit) < 2 or np.ptp(logm) < 1e-12,
    }
    if result["degenerate"]:
        result["fit"] = None
        result["model"] = np.full_like(t_grid, np.nan)
        return result
    slope, intercept = np.polyfit(t_fit, logm, 1)
    pred = slope * t_fit + intercept
    ss_res = float(((logm - pred) ** 2).sum())
    ss_tot = float(((logm - logm.mean()) ** 2).sum())
    result["fit"] = {
        "c": float(np.exp(intercept)),
        "alpha": float(-slope),
        "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
    }
    result["model"] = np.where(
        measures > 0, np.exp(intercept + slope * t_grid), np.nan
    )
    return result


# -- weights -------------------------------------------------------------------


def double_sums(fam, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q_sums, double_sums) of cell values over every cube Q of the family,
    entry after entry, by one segment sum per entry, and over 2Q by the rule
    of `weights._double_table` (+inf where 2Q leaves the domain)."""
    _, doubled, left, right = _double_table(fam)
    q_sums = np.concatenate([fam.segment_sums(e, values) for e in fam.entries])
    double_sums = np.full(len(q_sums), np.inf)
    double_sums[doubled] = q_sums[doubled] + q_sums[left] + q_sums[right]
    return q_sums, double_sums


def reverse_holder_check(w: Weight) -> dict:
    """With r = 1 + 1/(tau_n * weak), check (<w^r>_Q)^{1/r} <= (2/|2Q|) int_{2Q} w
    on every cube whose double stays inside the domain.  The worst cube is
    the first, in family order, whose ratio is within 1e-12 relative of the
    largest: cubes that tie (mirror images under a symmetric weight) differ
    only by rounding."""
    _, weak = w.ainfty()
    r = 1.0 + 1.0 / (TAU_N * weak)
    fam = family_for(w.domain)
    off, doubled, _, _ = _double_table(fam)
    width = np.repeat([e.width for e in fam.entries], np.diff(off))[doubled]
    wr_q, _ = double_sums(fam, clamped_power(w.samples, r))
    _, w_2q = double_sums(fam, w.samples)
    ratio = (wr_q[doubled] / width) ** (1.0 / r) / (w_2q[doubled] / width)
    worst = float(ratio.max(initial=-np.inf))
    worst_cube = None
    ties = np.flatnonzero(ratio >= worst * (1.0 - 1e-12))
    if len(ties):
        c = int(doubled[ties[0]])
        k = int(np.searchsorted(off, c, side="right")) - 1
        e = fam.entries[k]
        worst_cube = (e.lattice_id, e.level, e.t0 + c - int(off[k]))
    return {
        "r": r,
        "worst_ratio": worst,
        "worst_cube": worst_cube,
        "ok": worst <= 1.0 + 1e-12,
    }


class IterationError(RuntimeError):
    pass


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
    def p(self) -> float:
        return 1.0 / sum(1.0 / pj for pj in self.exponents)

    def nu(self) -> Weight:
        p = self.p
        s = np.ones(self.weights[0].domain.n_cells)
        for w, pj in zip(self.weights, self.exponents):
            s = s * clamped_power(w.samples, p / pj)
        return Weight(GridFunction(self.weights[0].domain, s), "nu")


def multi_ap_constant(mw: MultiWeight) -> float:
    """The multiple-weight constant: sup over cubes of
    <nu>_Q prod_j <w_j^{1-p_j'}>_Q^{p/p_j'} with the p_j = 1 slots read as
    (inf_Q w_j)^{-p}."""
    fam = family_for(mw.weights[0].domain)
    p = mw.p
    nu = mw.nu().samples
    duals = [
        None if pj == 1.0 else clamped_power(w.samples, 1.0 - pj / (pj - 1.0))
        for w, pj in zip(mw.weights, mw.exponents)
    ]

    def per_cube(g) -> np.ndarray:
        vals = fam.means(g, g.tile(nu), clip=True)
        for w, pj, dual in zip(mw.weights, mw.exponents, duals):
            if dual is None:
                vals = vals * fam.segment_min(g, g.tile(w.samples)) ** (-p)
            else:
                ppj = pj / (pj - 1.0)
                vals = vals * fam.means(g, g.tile(dual), clip=True) ** (p / ppj)
        return vals
    return fam.sup(per_cube)


# -- Lorentz and Orlicz --------------------------------------------------------


def _level_masses(f: GridFunction, w: Weight | None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values v of |f|, ascending, and w({|f| >= v}) for each
    (Lebesgue measure where w is None)."""
    a = np.abs(f.samples).astype(float)
    h = f.domain.h
    cell = np.full(a.shape, h) if w is None else w.samples * h
    order = np.argsort(a)
    a = a[order]
    cell = cell[order]
    # mass strictly above a[i] = suffix sum over larger values
    suffix = np.concatenate([np.cumsum(cell[::-1])[::-1], [0.0]])
    vals, first = np.unique(a, return_index=True)
    return vals, suffix[first]


def lorentz_l1_norm(f: GridFunction, p: float, w: Weight | None = None) -> float:
    """||f||_{L^{p,1}(w)} = int_0^inf w({|f| > t})^{1/p} dt, exact for
    grid functions (piecewise-constant distribution function); w = 1 where
    w is None."""
    if p <= 0:
        raise ValueError("need p > 0")
    vals, masses = _level_masses(f, w)  # w({|f| >= v}) = w({|f| > v - })
    levels = np.concatenate([[0.0], vals])
    total = 0.0
    for i in range(len(vals)):
        total += (levels[i + 1] - levels[i]) * masses[i] ** (1.0 / p)
    return float(total)


def complementary(phi: YoungFunction) -> YoungFunction:
    """phibar(t) = sup_s (st - phi(s)): phi's closed form where it carries
    one, else `_conjugate_eval`."""
    if phi.complementary_fn is not None:
        return YoungFunction(f"conj({phi.name})", phi.complementary_fn)
    return YoungFunction(f"conj({phi.name})", lambda t: _conjugate_eval(phi, t))


_CONJ_S = np.logspace(-9.0, 9.0, 4096)


def _conjugate_eval(phi: YoungFunction, t: np.ndarray) -> np.ndarray:
    """phibar(t) = sup_s (st - phi(s)): coarse grid argmax + golden refine."""
    t = np.atleast_1d(t).astype(float)
    s = _CONJ_S
    vals = s[None, :] * t[:, None] - phi(s)[None, :]
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    k = np.argmax(vals, axis=1)
    a = s[np.maximum(k - 1, 0)]
    b = s[np.minimum(k + 1, len(s) - 1)]
    # ternary search: s -> st - phi(s) is concave for convex phi
    for _ in range(120):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        f1 = m1 * t - phi(m1)
        f2 = m2 * t - phi(m2)
        left = f1 < f2
        a = np.where(left, m1, a)
        b = np.where(left, b, m2)
    mid = 0.5 * (a + b)
    best = np.maximum(vals[np.arange(len(t)), k], mid * t - phi(mid))
    return np.maximum(best, 0.0)


def power_over_p(p: float) -> YoungFunction:
    """phi(t) = t**p / p, the classical conjugate pair with t**p' / p'."""
    if p <= 1:
        raise ValueError("need p > 1")
    pp = p / (p - 1.0)
    return YoungFunction(
        f"t^{p:g}/{p:g}",
        lambda t: t ** p / p,
        inverse_fn=lambda t: (p * t) ** (1.0 / p),
        complementary_fn=lambda t: t ** pp / pp,
        i_lower=p,
        I_upper=p,
        delta2_C1=p,
        submultiplicative=False,
    )


def exp_power(s: float) -> YoungFunction:
    """phi(t) = exp(t**s) - 1, whose Luxemburg norm is the exp L^s norm."""
    if s < 1:
        raise ValueError("need s >= 1 for convexity")
    return YoungFunction(
        f"exp(t^{s:g})-1",
        lambda t: np.expm1(t ** s),
        inverse_fn=lambda t: np.log1p(t) ** (1.0 / s),
        submultiplicative=False,
    )


def young_pair_checks(phi: YoungFunction, t_grid: np.ndarray) -> dict:
    """Check the conjugate-pair identities on a grid of points.

    (a) t <= phi^-1(t) phibar^-1(t) <= 2t,
    (b) phibar(phi(t)/t) <= phi(t),
    (c) s t <= phi(s) + phibar(t) on the product grid.
    Returns {"ok": bool, "failures": [(name, point, slack), ...]}.
    """
    t = np.asarray(t_grid, dtype=float)
    bar = complementary(phi)
    tol = 1e-9
    failures = []

    prod = np.atleast_1d(phi.inverse(t)) * np.atleast_1d(bar.inverse(t))
    lo_bad = prod < t * (1.0 - tol) - tol
    hi_bad = prod > 2.0 * t * (1.0 + tol) + tol
    for i in np.nonzero(lo_bad | hi_bad)[0]:
        failures.append(("inverse-product", float(t[i]), float(prod[i])))

    pt = np.atleast_1d(phi(t))
    lhs = np.atleast_1d(bar(pt / t))
    bad = lhs > pt * (1.0 + tol) + tol
    for i in np.nonzero(bad)[0]:
        failures.append(("conjugate-of-slope", float(t[i]), float(lhs[i] - pt[i])))

    ps = np.atleast_1d(phi(t))
    bt = np.atleast_1d(bar(t))
    st = t[:, None] * t[None, :]
    rhs = ps[:, None] + bt[None, :]
    bad = st > rhs * (1.0 + tol) + tol
    for i, j in zip(*np.nonzero(bad)):
        failures.append(("young", (float(t[i]), float(t[j])), float(st[i, j] - rhs[i, j])))

    return {"ok": not failures, "failures": failures}
