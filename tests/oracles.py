"""Brute-force oracles for the fast kernels: one slice sum per cube, one
family entry at a time where the kernels sweep level groups, one
maximal function per cube, every pair of levels in the A_infty sweep, one
Luxemburg root solve per cube or per family level, a bracket solve in
place of Newton steps, one cube at a time in
the stopping-time walk, a linear program for the best sparseness, dense
O(N^2) sums for the convolution kernels, a literal nested sum for kernel
quadrature, one FFT convolution per expanded Calderon product, one
complex inverse FFT per Stein scale, every Stein scale squared at full
length, a recursion over the factors of a
commutator, a discrete sup over dilations for the growth indices and a
convexity search for the modular alpha that the package takes in closed
form, the distinct values of |f| for the weak Lorentz quasinorm, little
or no vectorisation.  Slow on purpose."""

import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.signal import fftconvolve

from sparse_harmonics.grid import (
    GROUP_CELLS,
    CubeFamily,
    DyadicCube,
    GridFunction,
    LevelEntry,
    children,
    cube_cells,
    family_for,
)
from sparse_harmonics.maximal import luxemburg_per_cube
from sparse_harmonics.operators import _NEAR_BAND, _STEIN_CHUNK, _stein_multipliers
from sparse_harmonics.orlicz import YoungFunction, llog, monotone_root
from sparse_harmonics.sparse import SparseFamily
from sparse_harmonics.weights import Weight, _double_table, clamped_power

from criteria import _level_masses, complementary, double_sums


def entry_cubes(e: LevelEntry) -> list[DyadicCube]:
    """The cubes of a family entry, in order."""
    return [DyadicCube(e.lattice_id, e.level, e.t0 + i) for i in range(e.n_cubes)]


def brute_ap(w, p):
    """[w]_{A_p}: a literal sweep over every cube of every lattice."""
    fam = family_for(w.domain)
    best = -np.inf
    for e in fam.entries:
        for lo, hi in zip(e.lo, e.hi):
            chunk = w.samples[lo:hi]
            if p == 1.0:
                val = chunk.mean() / chunk.min()
            else:
                val = chunk.mean() * (chunk ** (1.0 - p / (p - 1.0))).mean() ** (p - 1.0)
            best = max(best, val)
    return best


def brute_maximal(samples, dom):
    """M f over the cube family, every mean a slice sum over the full width."""
    fam = family_for(dom)
    out = np.zeros(dom.n_cells)
    for e in fam.entries:
        for lo, hi in zip(e.lo, e.hi):
            avg = samples[lo:hi].sum() / e.width
            out[lo:hi] = np.maximum(out[lo:hi], avg)
    return out


def per_entry_maximal(f, k=1):
    """M^k f one family entry at a time: the route `maximal` took before it
    swept level groups."""
    fam = family_for(f.domain)
    out = np.abs(f.samples).astype(float)
    for _ in range(k):
        out = fam.scatter_max(fam.entries, (fam.means(e, out) for e in fam.entries))
    return out


def per_entry_bmo(b):
    """sup_Q <|b - <b>_Q|>_Q one family entry at a time."""
    fam = family_for(b.domain)
    bs = b.samples.astype(float)
    best = 0.0
    for e in fam.entries:
        means = fam.means(e, bs, clip=True)
        dev = np.abs(b.samples - means[e.cell_to_cube])
        best = max(best, float(fam.means(e, dev, clip=True).max()))
    return best


def per_entry_ap(w, p):
    """[w]_{A_p} one family entry at a time."""
    fam = family_for(w.domain)
    ws = w.samples.astype(float)
    best = -np.inf
    if p == 1.0:
        for e in fam.entries:
            vals = fam.means(e, ws, clip=True) / fam.segment_min(e, w.samples)
            best = max(best, float(vals.max()))
        return best
    dual = clamped_power(w.samples, 1.0 - p / (p - 1.0))
    for e in fam.entries:
        vals = fam.means(e, ws, clip=True) * fam.means(e, dual, clip=True) ** (p - 1.0)
        best = max(best, float(vals.max()))
    return best


def per_entry_multi_ap(mw):
    """The multiple-weight constant of `criteria.multi_ap_constant` one
    family entry at a time."""
    fam = family_for(mw.weights[0].domain)
    p = mw.p
    nu = mw.nu().samples
    best = -np.inf
    for e in fam.entries:
        vals = fam.means(e, nu, clip=True)
        for w, pj in zip(mw.weights, mw.exponents):
            if pj == 1.0:
                vals = vals * fam.segment_min(e, w.samples) ** (-p)
            else:
                ppj = pj / (pj - 1.0)
                dual = clamped_power(w.samples, 1.0 - ppj)
                vals = vals * fam.means(e, dual, clip=True) ** (p / ppj)
        best = max(best, float(vals.max()))
    return best


def brute_ainfty(w):
    """(Fujii-Wilson, weak) constants of w: one brute maximal function of
    w chi_Q per family cube Q, and w(Q), w(2Q) as slice sums."""
    dom = w.domain
    fam = family_for(dom)
    N = dom.n_cells
    fw = weak = -np.inf
    for e in fam.entries:
        for i, (lo, hi) in enumerate(zip(e.lo, e.hi)):
            chunk = np.zeros(N)
            chunk[lo:hi] = w.samples[lo:hi]
            m = brute_maximal(chunk, dom)
            num = m[lo:hi].sum()
            fw = max(fw, num / w.samples[lo:hi].sum())
            if e.width % 2 == 0 and e.lo[i] == e.starts[i] and e.hi[i] == e.starts[i] + e.width:
                half = e.width // 2
                lo2, hi2 = e.starts[i] - half, e.starts[i] + e.width + half
                if lo2 >= 0 and hi2 <= N:
                    weak = max(weak, num / w.samples[lo2:hi2].sum())
    return fw, weak


def all_pairs_ainfty(w):
    """(Fujii-Wilson, weak) constants of w by the sweep over all E^2 pairs
    of family levels, outer and inner: the route `ainfty_constants` took
    before it skipped the inner cubes at least as wide as the outer one.
    For a cell x of an outer cube Q, M(w chi_Q)(x) is the max over every
    inner level of w(P ∩ Q) / |P|, from a cumulative sum of w restarting at
    each Q; the per-cell starts of each inner level are gathered once per
    outer level.  w(2Q) follows the rule of `weights._double_table`
    (`criteria.double_sums`)."""
    dom = w.domain
    fam = family_for(dom)
    N = dom.n_cells
    ws = w.samples.astype(float)
    cells = np.arange(N)
    step = max(1, GROUP_CELLS // N)
    chunks = [fam.entries[k:k + step] for k in range(0, len(fam.entries), step)]
    off, doubled, _, _ = _double_table(fam)
    if not len(doubled):
        raise ValueError(
            f"no cube has its double inside the domain at L = {dom.resolution_log2}, "
            "so the weak A_inf constant is a sup over no cubes"
        )
    _, w2q = double_sums(fam, ws)
    fw = weak = -np.inf
    for k, e in enumerate(fam.entries):
        q = e.cell_to_cube
        qlo, qhi = e.lo[q], e.hi[q]
        span = int((e.hi - e.lo).max())  # cells of the longest clipped cube
        # row i of csum: csum[i, k] = w over the first k cells of Q_i
        csum = np.zeros((e.n_cubes, span + 1))
        at = q * (span + 1) - qlo  # csum.flat[at + y] = w over [lo, y) of x's cube
        csum.flat[at + cells + 1] = ws
        np.cumsum(csum, axis=1, out=csum)
        flat = csum.ravel()
        m = np.zeros(N)
        for inner in chunks:
            # the unclipped start and the width of the inner cube holding each cell
            s = np.stack([f.starts[f.cell_to_cube] for f in inner])
            wd = np.array([[f.width] for f in inner])
            lo, hi = np.maximum(s, 0), np.minimum(s + wd, N)
            vals = flat[at + np.minimum(hi, qhi)] - flat[at + np.maximum(lo, qlo)]
            vals /= wd
            np.maximum(m, vals.max(axis=0), out=m)
        per_cube = np.zeros((e.n_cubes, span))
        per_cube.flat[q * span + cells - qlo] = m
        num = per_cube.sum(axis=1)
        fw = max(fw, float((num / csum[:, -1]).max()))
        weak = max(weak, float((num / w2q[off[k]:off[k + 1]]).max()))
    return float(fw), float(weak)


def luxemburg_norm(
    f: GridFunction,
    phi: YoungFunction,
    q,
    w: Optional[Weight] = None,
) -> float:
    """inf lambda with (1/w(Q)) int_Q phi(|f|/lambda) w <= 1, w = 1 (over
    the full |Q|) when no weight is given.

    Bracketed by the Jensen lower bound <|f|>/phi^-1(1) and the sup bound
    max|f|/phi^-1(1), then solved by `monotone_root`; both brackets are
    exact for constants.
    """
    lo_c, hi_c, full = cube_cells(f.domain, q)
    if hi_c <= lo_c:
        raise ValueError("cube does not meet the domain")
    v = np.abs(f.samples[lo_c:hi_c]).astype(float)
    if w is None:
        wts = np.ones_like(v)
        denom = float(full)
    else:
        wts = w.samples[lo_c:hi_c].astype(float)
        denom = wts.sum()
    inv1 = float(np.atleast_1d(phi.inverse(np.array([1.0])))[0])
    vmean = float((v * wts).sum() / denom)
    return float(monotone_root(
        vmean / inv1, v.max(initial=0.0) / inv1,
        lambda lam: (phi(v / lam) * wts).sum() / denom - 1.0,
    ))


def bracket_luxemburg_per_cube(fam, entry, absf, phi, inv1):
    """`luxemburg_per_cube` by one bracket solve of every cube of the entry
    from its [mean, max] |f| / phi^-1(1) bracket, with no Newton steps."""
    def excess(lam):
        safe = np.where(lam > 0, lam, 1.0)
        return fam.means(entry, phi(absf / safe[entry.cell_to_cube])) - 1.0

    return monotone_root(
        fam.means(entry, absf) / inv1, fam.segment_max(entry, absf) / inv1, excess
    )


def distinct_value_lorentz_quasinorm(f: GridFunction, p: float, w: Optional[Weight] = None) -> float:
    """`harness.lorentz_quasinorm` over the distinct values of |f| alone, each
    with w({|f| >= value}): a second sort (`np.unique`) in place of the max
    over every sorted position."""
    vals, below_mass = _level_masses(f, w)
    return float((vals * below_mass ** (1.0 / p)).max(initial=0.0))


def per_level_maximal(fs: Sequence[GridFunction], flavor: str) -> np.ndarray:
    """`multilinear_maximal` one family entry at a time: the route it took
    before it stacked the entries into level groups, with one root solve
    per entry for "llogl" and the sup taken entry by entry."""
    dom = fs[0].domain
    fam = family_for(dom)
    phi = llog(1.0)
    inv1 = float(np.atleast_1d(phi.inverse(np.array([1.0])))[0])
    absfs = [np.abs(f.samples).astype(float) for f in fs]

    def product(e):
        prod = np.ones(e.n_cubes)
        for af in absfs:
            if flavor == "llogl":
                prod *= luxemburg_per_cube(fam, e, af, phi, inv1)
            else:
                prod *= fam.means(e, af)
        return prod

    return fam.scatter_max(fam.entries, map(product, fam.entries))


def brute_stopping_cubes(roots, value, factor, domain):
    """The roots, then recursively the stopping children of each stopping
    cube Q: the maximal subcubes R of Q that meet the domain and have
    value(R, Q) > factor value(Q, Q).  A Q with value(Q, Q) = 0 stops
    nothing below it; the walk ends at the grid floor."""
    out = list(roots)
    seen = set(out)
    queue = list(out)
    while queue:
        q = queue.pop()
        base = value(q, q)
        if base == 0.0:
            continue
        thresh = factor * base
        stack = [q]
        while stack:
            cur = stack.pop()
            if cur.level >= domain.resolution_log2:
                continue
            for r in children(cur):
                lo, hi, _ = cube_cells(domain, r)
                if hi <= lo:
                    continue
                if value(r, q) > thresh:
                    if r not in seen:
                        seen.add(r)
                        out.append(r)
                        queue.append(r)
                else:
                    stack.append(r)
    return out


def optimal_eta(fam: SparseFamily) -> float:
    """Best achievable sparseness over all disjoint choices E(Q) subset Q.

    Solved as a linear program on fractional cell masses: maximize eta
    subject to sum_c x[Q,c] >= eta |Q|, sum_Q x[Q,c] <= 1, support in Q.
    Independent of `criteria.verify_sparse`; used to cross-check the packing
    bound.
    """
    from scipy.optimize import linprog

    cells = fam.cell_sets()
    lo_all = min(lo for lo, _ in cells)
    hi_all = max(hi for _, hi in cells)
    width = hi_all - lo_all
    k = len(cells)
    nvar = k * width + 1  # x[Q, c] row-major, then eta
    c_obj = np.zeros(nvar)
    c_obj[-1] = -1.0
    a_ub = []
    b_ub = []
    for i, (lo, hi) in enumerate(cells):  # eta |Q| - sum_c x <= 0
        row = np.zeros(nvar)
        row[i * width + (lo - lo_all) : i * width + (hi - lo_all)] = -1.0
        row[-1] = float(hi - lo)
        a_ub.append(row)
        b_ub.append(0.0)
    for c in range(width):  # sum_Q x[Q,c] <= 1
        row = np.zeros(nvar)
        for i in range(k):
            row[i * width + c] = 1.0
        a_ub.append(row)
        b_ub.append(1.0)
    bounds = []
    for i, (lo, hi) in enumerate(cells):
        for c in range(width):
            inside = lo - lo_all <= c < hi - lo_all
            bounds.append((0.0, 1.0 if inside else 0.0))
    bounds.append((0.0, 1.0))
    res = linprog(c_obj, A_ub=np.array(a_ub), b_ub=np.array(b_ub), bounds=bounds)
    if not res.success:
        raise RuntimeError(f"packing LP failed: {res.message}")
    return float(res.x[-1])


def direct_kernel_apply(kernel: Callable, fs: Sequence[GridFunction]) -> GridFunction:
    """Literal nested quadrature; only viable for tiny grids and m <= 2."""
    dom = fs[0].domain
    N = dom.n_cells
    if len(fs) > 3 or (len(fs) > 2 and dom.resolution_log2 > 10):
        raise ValueError("direct quadrature refused at this size")
    xs = dom.cell_centers()
    h = dom.h
    out = np.zeros(N)
    samples = [f.samples for f in fs]
    for i, x in enumerate(xs):
        acc = 0.0
        for jlast in range(N):
            if i == jlast:
                continue
            w_last = samples[-1][jlast]
            if w_last == 0.0:
                continue
            if len(fs) == 1:
                acc += kernel(x, [xs[jlast]]) * w_last * h
                continue
            for j1 in range(N):
                v = samples[0][j1]
                if v == 0.0:
                    continue
                if len(fs) == 2:
                    acc += kernel(x, [xs[j1], xs[jlast]]) * v * w_last * h ** 2
                else:
                    for j2 in range(N):
                        v2 = samples[1][j2]
                        if v2 != 0.0:
                            acc += (
                                kernel(x, [xs[j1], xs[j2], xs[jlast]])
                                * v * v2 * w_last * h ** 3
                            )
        out[i] = acc
    return GridFunction(dom, out)


def calderon_kernel(x: float, ys: Sequence[float]) -> float:
    """K(x, y_1..y_{m+1}): signed power of the last gap times indicators
    confining every other y inside the open interval between x and y_{m+1}."""
    ys = list(ys)
    if len(ys) < 2:
        raise ValueError("kernel takes at least two y arguments")
    m = len(ys) - 1
    ylast = ys[-1]
    if ylast == x:
        raise ValueError("kernel is singular at y_{m+1} = x")
    lo, hi = min(x, ylast), max(x, ylast)
    for y in ys[:-1]:
        if not (lo < y < hi):
            return 0.0
    sign = (-1.0) ** (m * (1 if ylast - x > 0 else 0))
    return sign / (x - ylast) ** (m + 1)


def dense_calderon_apply(fs: Sequence[GridFunction]) -> np.ndarray:
    """The Calderon form of `calderon_apply` as a dense O(N^2) sum over
    every pair (i, j), 256 rows at a time."""
    dom = fs[0].domain
    m = len(fs) - 1
    N = dom.n_cells
    h = dom.h
    csums = [CubeFamily.prefix(f.samples) * h for f in fs[:-1]]
    flast = fs[-1].samples.astype(float)
    idx = np.arange(N)
    out = np.zeros(N)
    for start in range(0, N, 256):
        rows = idx[start : start + 256]
        i = rows[:, None]
        j = idx[None, :]
        gap = (i - j).astype(float) * h  # x_i - y_j
        keep = i != j
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        inner = np.ones(gap.shape)
        for cs in csums:
            inner *= cs[hi] - cs[lo + 1]  # cells strictly between centers
        sign = np.where((j > i) & (m % 2 == 1), -1.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = sign * inner / gap ** (m + 1)
        vals = np.where(keep, vals, 0.0)
        out[rows] = vals @ flast * h
    return out


def per_pick_calderon(fs: Sequence[GridFunction]) -> np.ndarray:
    """`calderon_apply` with one `fftconvolve` call per expanded product and
    side, 2^{m+1} in all: the route it took before the products of each
    side ran as the rows of one batched convolution."""
    dom = fs[0].domain
    m = len(fs) - 1
    N = dom.n_cells
    h = dom.h

    def toeplitz(g, ker):
        if np.iscomplexobj(g):
            return toeplitz(g.real, ker) + 1j * toeplitz(g.imag, ker)
        return fftconvolve(g.astype(float), ker)[N - 1 : 2 * N - 1]

    csums = [cs - cs.mean() for cs in (CubeFamily.prefix(f.samples) * h for f in fs[:-1])]
    flast = fs[-1].samples
    k = np.arange(-(N - 1), N)
    far = np.abs(k) > _NEAR_BAND
    ker = np.where(far, 1.0 / (np.where(far, np.abs(k), 1) * h) ** (m + 1), 0.0)
    lower, upper = np.where(k > 0, ker, 0.0), np.where(k < 0, ker, 0.0)
    ends = [(cs[:-1], -cs[1:]) for cs in csums]
    out = np.zeros(N, dtype=np.result_type(flast, *csums))
    for picks in itertools.product((0, 1), repeat=m):
        p = math.prod((e[0] for e, pick in zip(ends, picks) if pick == 0), start=1.0)
        q = math.prod((e[1] for e, pick in zip(ends, picks) if pick == 1), start=1.0)
        out += p * toeplitz(q * flast, lower) - q * toeplitz(p * flast, upper)
    for d in range(1, min(_NEAR_BAND, N - 1) + 1):
        diag = math.prod((cs[d:N] - cs[1 : N - d + 1] for cs in csums), start=1.0)
        diag = diag / (d * h) ** (m + 1)
        out[d:] += diag * flast[: N - d]
        out[: N - d] -= diag * flast[d:]
    return out * h


def per_scale_stein(f: GridFunction, alpha: float, n_scales: int = 128) -> np.ndarray:
    """`stein_square_function` with one complex inverse FFT per scale over
    all N wave numbers: the route it took before the scales ran as the
    rows of batched inverse real FFTs."""
    N = f.domain.n_cells
    xi = np.abs(np.fft.fftfreq(N) * N)  # integer wave numbers
    ts = np.logspace(0.0, math.log10(N / 2.0), n_scales)
    dlog = math.log(ts[-1] / ts[0]) / (n_scales - 1)
    fhat = np.fft.fft(f.samples)
    acc = np.zeros(N)
    for t in ts:
        s2 = (xi / t) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            mult = np.where(s2 < 1.0, s2 * np.maximum(1.0 - s2, 0.0) ** (alpha - 1.0), 0.0)
        conv = np.fft.ifft(fhat * mult)
        acc += np.abs(conv) ** 2 * dlog
    return np.sqrt(acc)


def full_length_stein(f: GridFunction, alpha: float, n_scales: int = 128) -> np.ndarray:
    """`stein_square_function` with every scale squared at the N cells: the
    chunks of scales run as the rows of batched inverse real FFTs of length
    N, the route it took before each scale's square was sampled at its band."""
    if np.iscomplexobj(f.samples):
        return np.hypot(*(full_length_stein(GridFunction(f.domain, part), alpha, n_scales)
                          for part in (f.samples.real, f.samples.imag)))
    N = f.domain.n_cells
    ts = np.logspace(0.0, math.log10(N / 2.0), n_scales)
    dlog = math.log(ts[-1] / ts[0]) / (n_scales - 1)
    fhat = np.fft.rfft(f.samples)
    acc = np.zeros(N)
    for chunk in np.array_split(ts, math.ceil(n_scales * len(fhat) / _STEIN_CHUNK)):
        k = min(len(fhat), math.ceil(chunk[-1]))
        conv = np.fft.irfft(fhat[:k] * _stein_multipliers(chunk, k, alpha), N)
        acc += np.einsum("ij,ij->j", conv, conv)
    return np.sqrt(acc * dlog)


def first_order_commutator_kernel(b: GridFunction, f: GridFunction) -> GridFunction:
    """Direct O(N^2) evaluation of (1/pi) sum (b_i - b_j) f_j / (i - j):
    the independent oracle for the expansion path."""
    N = f.domain.n_cells
    i = np.arange(N)[:, None]
    j = np.arange(N)[None, :]
    with np.errstate(divide="ignore"):
        ker = np.where(i != j, 1.0 / np.where(i == j, 1, i - j), 0.0)
    diff = b.samples[:, None] - b.samples[None, :]
    return GridFunction(f.domain, (ker * diff) @ f.samples / math.pi)


def recursive_commutator(T, bs, slots, fs) -> np.ndarray:
    """The commutator expansion of `operators.iterated_commutator` by a
    recursion over the factors b(x) - b(y), each step splitting into b into
    the prefactor and -b into the slot, summed in a complex accumulator
    whose real part is kept when every input is real."""
    if not bs:
        return T.apply(fs).samples
    dom = fs[0].domain
    out = np.zeros(dom.n_cells, dtype=complex)

    def rec(depth, coeff, prefactor, mults):
        nonlocal out
        if depth == len(bs):
            args = [GridFunction(dom, f.samples * mults[i]) for i, f in enumerate(fs)]
            out = out + coeff * prefactor * T.apply(args).samples
            return
        b = bs[depth].samples
        rec(depth + 1, coeff, prefactor * b, mults)
        m2 = list(mults)
        m2[slots[depth]] = m2[slots[depth]] * b
        rec(depth + 1, -coeff, prefactor, m2)

    rec(0, 1.0, np.ones(dom.n_cells), [np.ones(dom.n_cells)] * len(fs))
    if not any(np.iscomplexobj(f.samples) for f in fs):
        out = out.real.copy()
    return out


_DILATION_S = np.logspace(-8.0, 8.0, 2048)


def _h_phi(phi: YoungFunction, t: float) -> float:
    s = _DILATION_S
    with np.errstate(over="ignore", invalid="ignore"):
        r = phi(s * t) / phi(s)
    r = r[np.isfinite(r)]
    return float(r.max()) if len(r) else np.inf


def numeric_dilation_indices(phi: YoungFunction) -> tuple[float, float]:
    """(i_phi, I_phi) of `orlicz.dilation_indices` as slopes of log h_phi,
    h_phi(t) = sup_s phi(s t) / phi(s) over a discrete s grid, probed at
    t0 = 1e-6 and 1e6: bounds on the true indices from the monotone side."""
    t_small, t_big = 1e-6, 1e6
    i_est = math.log(_h_phi(phi, t_small)) / math.log(t_small)
    h_big = _h_phi(phi, t_big)
    I_est = np.inf if not math.isfinite(h_big) else math.log(h_big) / math.log(t_big)
    return i_est, I_est


def numeric_delta2_constant(phi: YoungFunction) -> float:
    """Smallest observed C1 with phi(lam t) <= (2 lam)^C1 phi(t), lam >= 2:
    the doubling constant that `YoungFunction.delta2_C1` gives in closed
    form."""
    ts = np.logspace(-6.0, 6.0, 400)
    best = 0.0
    for lam in (2.0, 3.0, 5.0, 8.0, 16.0, 64.0):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            num = phi(lam * ts)
            den = phi(ts)
            pos = den > 0
            if np.any(np.isinf(num) & pos & np.isfinite(den)):
                return np.inf  # doubling breaks the float range: not doubling
            ratio = num[pos] / den[pos]
        c = np.log(ratio).max() / math.log(2.0 * lam)
        best = max(best, float(c))
    return best


def quasiconvex_alpha(phi: YoungFunction) -> float:
    """Largest alpha of the grid 1/20, 2/20, ..., 1 for which the alpha-th
    power of the complementary function passes a midpoint convexity test:
    the alpha that `harness.modular_experiment` takes in closed form, 1."""
    n_alpha = 20
    ts = np.logspace(-2.0, 2.0, 40)
    phibar = complementary(phi)
    bar = phibar(ts)
    mid = phibar((ts[:-1] + ts[1:]) / 2.0)
    for k in range(n_alpha, 0, -1):
        a = k / n_alpha
        with np.errstate(invalid="ignore"):
            lhsv = mid ** a
            rhsv = (bar[:-1] ** a + bar[1:] ** a) / 2.0
        ok = np.all(lhsv <= rhsv * (1.0 + 1e-9))
        if ok:
            return a
    return 1.0 / n_alpha
