"""Concrete singular operators at n = 1 and the BMO toolkit.

Principal values are discretized by a symmetric cell skip around the
diagonal, which preserves odd-kernel cancellation exactly on the uniform
grid.  The multilinear kernels are evaluated by cell quadrature; inner
interval integrals collapse to prefix-sum differences, so the only
discretization error is the quadrature of the singular factor itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.fft import irfft, rfft

from .grid import MEMO, CubeFamily, GridFunction, LevelEntry, digest, family_for

__all__ = [
    "KernelOperator",
    "hilbert_transform",
    "calderon_apply",
    "stein_square_function",
    "STEIN_SCALES",
    "check_expansion",
    "iterated_commutator",
    "bmo_norm",
]


@dataclass(frozen=True)
class KernelOperator:
    kind: str = "hilbert"  # hilbert | calderon | stein
    alpha: float = 1.0  # order of the Stein square function

    def __post_init__(self):
        if self.kind not in ("hilbert", "calderon", "stein"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "stein" and not 0.5 < self.alpha < math.inf:
            raise ValueError("stein operator needs 1/2 < alpha < inf")

    def apply(self, fs: Sequence[GridFunction]) -> GridFunction:
        if self.kind == "hilbert":
            (f,) = fs
            return hilbert_transform(f)
        if self.kind == "stein":
            (f,) = fs
            return stein_square_function(f, self.alpha)
        return calderon_apply(fs)


def hilbert_transform(f: GridFunction) -> GridFunction:
    """Discrete principal value (1/pi) sum_{j != i} f_j h/(x_i-x_j).

    The cell width cancels, leaving a Toeplitz convolution with 1/k.
    """
    N = f.domain.n_cells
    k = np.arange(-(N - 1), N)
    ker = 1.0 / np.where(k == 0, np.inf, k)  # 0 on the diagonal
    return GridFunction(f.domain, _toeplitz_apply(f.samples, ker) / math.pi)


def _toeplitz_apply(g: np.ndarray, ker: np.ndarray) -> np.ndarray:
    """sum_j ker[i - j + N - 1] g_j for every i and every row of g, ker
    indexed by the offset i - j from -(N - 1) to N - 1.  One real FFT of
    the kernel, one of all the rows and one inverse, at the padded length
    `_fast_len` gives.  A complex g is convolved part by part, so the map
    is linear over the complex numbers."""
    if np.iscomplexobj(g):
        return _toeplitz_apply(g.real, ker) + 1j * _toeplitz_apply(g.imag, ker)
    N = g.shape[-1]
    n = _fast_len(N + len(ker) - 1)
    conv = irfft(rfft(g.astype(float), n) * rfft(ker, n), n)
    return conv[..., N - 1 : 2 * N - 1]


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: scipy's next_fast_len for a real FFT."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 times the least power of 2 that brings it to n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# Diagonals |i - j| <= _NEAR_BAND of the Calderon form are summed directly:
# near the diagonal the expanded products cancel to a few digits
_NEAR_BAND = 16


def calderon_apply(fs: Sequence[GridFunction]) -> GridFunction:
    """(m+1)-linear kernel quadrature of the commutator-type kernel,
    h sum_{j != i} sign prod_s (c_s[max(i,j)] - c_s[min(i,j)+1])
    f_{m+1}(y_j) / |x_i - y_j|^{m+1}, where c_s are the prefix sums of the
    first m inputs (the y_1..y_m integrals over the open interval between
    x and y_{m+1}) and the sign is -1 for j > i, +1 for j < i.

    Off the band |i - j| <= _NEAR_BAND, each product expands into 2^m terms
    a(i) g(j), and each term is a one-sided Toeplitz convolution with
    1/(kh)^{m+1}: the 2^m terms of each side run as the rows of one batched
    FFT convolution.  The band is summed one diagonal at a time.
    """
    if len(fs) < 2:
        raise ValueError("need m+1 >= 2 inputs")
    dom = fs[0].domain
    m = len(fs) - 1
    N = dom.n_cells
    h = dom.h
    # shifting c_s keeps every difference; centred, the expanded products
    # are smaller, and so are their rounding errors
    csums = [cs - cs.mean() for cs in (CubeFamily.prefix(f.samples) * h for f in fs[:-1])]
    flast = fs[-1].samples
    k = np.arange(-(N - 1), N)
    far = np.abs(k) > _NEAR_BAND
    ker = np.where(far, 1.0 / (np.where(far, np.abs(k), 1) * h) ** (m + 1), 0.0)
    lower, upper = np.where(k > 0, ker, 0.0), np.where(k < 0, ker, 0.0)
    # prod_s (c_s[max] - c_s[min + 1]) is the sum, over the 2^m ways to pick
    # one term of each factor, of p(max) q(min): p multiplies the picked
    # c_s[x] and q the picked -c_s[x + 1]; row k of ps and qs is pick k
    ends = [(cs[:-1], -cs[1:]) for cs in csums]
    picks = list(itertools.product((0, 1), repeat=m))
    ps, qs = (np.stack([
        math.prod((e[side] for e, pick in zip(ends, pk) if pick == side), start=np.ones(N))
        for pk in picks]) for side in (0, 1))
    below, above = _toeplitz_apply(qs * flast, lower), _toeplitz_apply(ps * flast, upper)
    out = np.zeros(N, dtype=np.result_type(flast, *csums))
    for k in range(len(picks)):
        out += ps[k] * below[k] - qs[k] * above[k]
    for d in range(1, min(_NEAR_BAND, N - 1) + 1):
        diag = math.prod((cs[d:N] - cs[1 : N - d + 1] for cs in csums), start=1.0)
        diag = diag / (d * h) ** (m + 1)
        out[d:] += diag * flast[: N - d]
        out[: N - d] -= diag * flast[d:]
    return GridFunction(dom, out * h)


# rows times wave numbers (M/2 + 1 a row at M samples) per batched Stein
# transform: about 4 MiB of complex spectra, and as much of real output,
# per chunk of scales
_STEIN_CHUNK = 1 << 18

# the fewest samples a band of Stein scales is squared at: a grid of at
# most this many cells squares every scale at its N cells
_STEIN_MIN_SAMPLES = 256

# log-spaced scales t from 1 to N/2 of the Stein square function
STEIN_SCALES = 128


def stein_square_function(f: GridFunction, alpha: float) -> GridFunction:
    """Square function over `STEIN_SCALES` log-spaced scales of the
    band-edge multiplier (|xi|^2/t^2)(1 - |xi|^2/t^2)_+^{alpha-1} on the
    periodized grid.

    Each multiplier is real and even, so the spectrum of a real f is taken
    once by a real FFT.  The part g_t of scale t holds the wave numbers
    below k = ceil(t), so g_t^2 holds those up to 2(k - 1), and M > 4(k - 1)
    equispaced samples give its spectrum exactly: there g_t is
    (M/N) irfft(f^[:k] m_t, M).  The scales t <= M/4 not yet taken, for M
    the powers of two from `_STEIN_MIN_SAMPLES` below N, are a band: their
    squares are summed at M samples, and the wave numbers 0..2(k - 1) of
    the sum's real FFT join one length-N spectrum, taken back by one
    inverse FFT.  The rest, t > N/8 (the top two octaves), are squared at
    the N cells.  The kernels are real, so a complex f has
    S f = |(S Re f, S Im f)|."""
    if not 0.5 < alpha < math.inf:
        raise ValueError("need 1/2 < alpha < inf")
    if np.iscomplexobj(f.samples):
        re, im = (stein_square_function(GridFunction(f.domain, part), alpha).samples
                  for part in (f.samples.real, f.samples.imag))
        return GridFunction(f.domain, np.hypot(re, im))
    N = f.domain.n_cells
    ts = np.logspace(0.0, math.log10(N / 2.0), STEIN_SCALES)
    dlog = math.log(ts[-1] / ts[0]) / (STEIN_SCALES - 1)
    fhat = rfft(f.samples)
    spectrum = np.zeros(len(fhat), complex)
    M, start = _STEIN_MIN_SAMPLES, 0
    while M < N:
        stop = int(np.searchsorted(ts, M / 4, side="right"))  # k <= M/4, so 4(k - 1) < M
        if stop > start:
            band = 2 * math.ceil(ts[stop - 1]) - 1
            square = _stein_squares(fhat, ts[start:stop], alpha, M)
            # the squares of g_t are (M/N)^2 these, and a length-N real FFT
            # reads N/M times a length-M one
            spectrum[:band] += rfft(square)[:band] * (M / N)
        M, start = 2 * M, stop
    acc = _stein_squares(fhat, ts[start:], alpha, N)
    if start:
        acc += irfft(spectrum, N)
    # rounding can take the band sum a few eps below 0 where S f is about 0
    return GridFunction(f.domain, np.sqrt(np.maximum(acc, 0.0) * dlog))


def _stein_squares(fhat: np.ndarray, ts: np.ndarray, alpha: float, M: int) -> np.ndarray:
    """The sum over the scales ts of irfft(fhat[:k] m_t, M)^2, each chunk of
    scales the rows of one inverse real FFT."""
    out = np.zeros(M)
    parts = fhat.real.copy(), fhat.imag.copy()
    for chunk in np.array_split(ts, math.ceil(len(ts) * (M // 2 + 1) / _STEIN_CHUNK)):
        # every multiplier of the chunk vanishes from wave number max t on
        k = min(len(fhat), math.ceil(chunk[-1]))
        mult = _stein_multipliers(chunk, k, alpha)
        # fhat[:k] m_t part by part, into the zero-padded rows: numpy's complex
        # times real product casts m_t to complex, at about 4 times the cost
        rows = np.zeros((len(chunk), M // 2 + 1), complex)
        for part, view in zip(parts, (rows.real, rows.imag)):
            np.multiply(mult, part[:k], out=view[:, :k])
        conv = irfft(rows, M)
        out += np.einsum("ij,ij->j", conv, conv)
    return out


def _stein_multipliers(ts: np.ndarray, n_freq: int, alpha: float) -> np.ndarray:
    """Row k: the multiplier of scale ts[k] at the wave numbers 0..n_freq - 1."""
    s2 = (np.arange(n_freq) / ts[:, None]) ** 2
    mult = np.zeros_like(s2)
    np.power(1.0 - s2, alpha - 1.0, out=mult, where=s2 < 1.0)
    return np.multiply(mult, s2, out=mult)


def bmo_norm(b: GridFunction) -> float:
    """sup_Q <|b - <b>_Q|>_Q over the full cube family, computed once per
    content of b (see `grid.MEMO`)."""
    return MEMO.get(("bmo_norm", b.domain, digest(b.samples)), lambda: _bmo_sup(b))


def _bmo_sup(b: GridFunction) -> float:
    fam = family_for(b.domain)
    bs = b.samples.astype(float)

    def per_cube(g: LevelEntry) -> np.ndarray:
        tb = g.tile(bs)
        dev = np.abs(tb - fam.means(g, tb, clip=True)[g.cell_to_cube])
        return fam.means(g, dev, clip=True)
    return fam.sup(per_cube)


# Row cells 2^(m + l) N that T_b f may expand into: 2^m Calderon rows of N
# cells (m = 0 for Hilbert and Stein), each batch run once per subset of the
# l symbols.  A row cell costs about 130 B at peak, so this is about 0.5 GiB.
MAX_ROW_CELLS = 1 << 22


def check_expansion(resolution_log2: int, m: int, n_sym: int) -> None:
    """ValueError where T_b f of order m with n_sym symbols on 2^L cells
    would exceed `MAX_ROW_CELLS`.  Compared by exponents, so refusing an
    order or a symbol count of any size builds no large number; an order
    below 0, which no operator has, counts as 0 against the symbols."""
    if resolution_log2 + max(m, 0) + n_sym > MAX_ROW_CELLS.bit_length() - 1:
        raise ValueError(f"order m = {m} with l = {n_sym} symbols: 2^{m + n_sym} expanded rows of "
                         f"{1 << resolution_log2} cells exceed the {MAX_ROW_CELLS} row cells allowed")


def iterated_commutator(
    T: KernelOperator,
    bs: Sequence[GridFunction],
    slots: Sequence[int],
    fs: Sequence[GridFunction],
) -> GridFunction:
    """Commutator with factors (b_s(x) - b_s(y_{slot_s})) inside T.

    Expanding the product of factors turns the kernel integral into an
    exact combination of plain T applications with b multiplied into the
    corresponding slots; on cell quadrature the identity is exact, so this
    is the kernel form evaluated slot by slot.  A factor of order k is the
    same symbol passed k times in one slot; with no symbol this is T f.
    Computed once per operator, slots and content of the symbols and
    inputs (see `grid.MEMO`); ValueError, before anything is allocated,
    where the expansion would exceed `MAX_ROW_CELLS`.
    """
    if len(bs) != len(slots):
        raise ValueError("need one slot per symbol")
    if any(not (0 <= s < len(fs)) for s in slots):
        raise ValueError("slot out of range")
    dom = fs[0].domain
    check_expansion(dom.resolution_log2, len(fs) - 1, len(bs))
    key = ("iterated_commutator", T, tuple(slots), dom,
           *(digest(g.samples) for g in (*bs, *fs)))
    return GridFunction(dom, MEMO.get(key, lambda: _expanded_commutator(T, bs, slots, fs)))


def _expanded_commutator(
    T: KernelOperator,
    bs: Sequence[GridFunction],
    slots: Sequence[int],
    fs: Sequence[GridFunction],
) -> np.ndarray:
    """The sum over the 2^l ways to expand the factors b_s(x) - b_s(y): each
    b_s(x) taken multiplies a prefactor, each b_s(y) taken multiplies the
    input of its slot and flips the sign.  Summed in the inputs' dtype."""
    out = np.zeros(fs[0].domain.n_cells, np.result_type(np.float64, *(f.samples for f in fs)))
    for picks in itertools.product((False, True), repeat=len(bs)):
        prefactor = math.prod((b.samples for b, y in zip(bs, picks) if not y), start=1.0)
        args = [
            GridFunction(f.domain, f.samples * math.prod(
                (b.samples for b, s, y in zip(bs, slots, picks) if y and s == i), start=1.0))
            for i, f in enumerate(fs)
        ]
        out += (-1.0) ** sum(picks) * prefactor * T.apply(args).samples
    return out
