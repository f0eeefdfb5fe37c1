import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad
from scipy.signal import fftconvolve

from sparse_harmonics.cli import make_function
from sparse_harmonics.grid import MEMO, Domain, DyadicCube, GridFunction
from sparse_harmonics.operators import (
    KernelOperator,
    _fast_len,
    _toeplitz_apply,
    bmo_norm,
    calderon_apply,
    hilbert_transform,
    iterated_commutator,
    stein_square_function,
)
from sparse_harmonics.weights import Weight, ainfty_constants

from criteria import exp_power
from oracles import (
    calderon_kernel,
    dense_calderon_apply,
    direct_kernel_apply,
    first_order_commutator_kernel,
    full_length_stein,
    luxemburg_norm,
    per_entry_bmo,
    per_pick_calderon,
    per_scale_stein,
    recursive_commutator,
)

DOM = Domain(0.0, 1.0, 8)


def rand_f(seed, dom=DOM, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return GridFunction(dom, rng.uniform(lo, hi, size=dom.n_cells))


# -- hilbert -----------------------------------------------------------------

def test_hilbert_odd_symmetry():
    dom = Domain(-1.0, 2.0, 9)
    f = GridFunction.from_callable(dom, lambda x: x * np.exp(-8 * x ** 2))
    hf = hilbert_transform(f)
    # f odd about 0: Hf is even, so values mirror across the center
    np.testing.assert_allclose(hf.samples, hf.samples[::-1], atol=1e-10)


def test_hilbert_indicator_closed_form():
    L = 14
    dom = Domain(-1.0, 3.0, L)
    f = GridFunction.indicator(dom, 0.0, 1.0)
    hf = hilbert_transform(f).samples
    x = dom.cell_centers()
    want = np.log(np.abs(x / (x - 1.0))) / math.pi
    mask = (np.abs(x) >= 8 * dom.h) & (np.abs(x - 1.0) >= 8 * dom.h)
    rel = np.abs(hf[mask] - want[mask]) / np.maximum(np.abs(want[mask]), 1e-3)
    assert rel.max() <= 0.02


def test_hilbert_linear():
    f, g = rand_f(0), rand_f(1)
    a = hilbert_transform(f).samples
    b = hilbert_transform(g).samples
    ab = hilbert_transform(f + g).samples
    np.testing.assert_allclose(ab, a + b, atol=1e-12)


def _complex_parts_agree(apply, f, g):
    """apply(f + ig) against apply(f) + i apply(g), with no ComplexWarning
    on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = apply(f + 1j * g)
        want = apply(f) + 1j * apply(g)
    assert np.iscomplexobj(got)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())


def test_hilbert_is_linear_over_complex_inputs():
    dom = Domain(0.0, 1.0, 6)
    f, g = rand_f(20, dom), rand_f(21, dom)
    _complex_parts_agree(lambda u: hilbert_transform(GridFunction(dom, u)).samples,
                         f.samples, g.samples)


def test_hilbert_of_a_real_input_is_the_plain_convolution():
    f = rand_f(22)
    N = DOM.n_cells
    k = np.arange(-(N - 1), N)
    ker = np.where(k != 0, 1.0 / np.where(k == 0, 1, k), 0.0)
    want = fftconvolve(f.samples, ker)[N - 1 : 2 * N - 1] / math.pi
    assert np.array_equal(hilbert_transform(f).samples, want)


# -- the FFT route ------------------------------------------------------------
# numpy.fft runs the same pocketfft as scipy.fft; these pin the bits of the
# route against scipy's, so a library that moves them shows here

def test_fast_len_is_scipys_next_fast_len_for_real_transforms():
    ns = [*range(1, 4097), *(3 * 2**L - 2 for L in range(1, 17))]
    assert [_fast_len(n) for n in ns] == [scipy.fft.next_fast_len(n, real=True) for n in ns]


def _scipy_toeplitz_apply(g, ker):
    """The padded convolution of `_toeplitz_apply` on scipy.fft."""
    N = g.shape[-1]
    n = scipy.fft.next_fast_len(N + len(ker) - 1, real=True)
    conv = scipy.fft.irfft(scipy.fft.rfft(g, n) * scipy.fft.rfft(ker, n), n)
    return conv[..., N - 1 : 2 * N - 1]


@pytest.mark.parametrize("L", range(1, 15))
@pytest.mark.parametrize("rows", [1, 4])
def test_toeplitz_apply_equals_the_scipy_fft_convolution(L, rows):
    rng = np.random.default_rng(L)
    N = 2**L
    shape = (N,) if rows == 1 else (rows, N)  # one row as Hilbert passes it
    ker = rng.standard_normal(2 * N - 1)
    g, h = rng.standard_normal(shape), rng.standard_normal(shape)
    assert np.array_equal(_toeplitz_apply(g, ker), _scipy_toeplitz_apply(g, ker))
    want = _scipy_toeplitz_apply(g, ker) + 1j * _scipy_toeplitz_apply(h, ker)
    assert np.array_equal(_toeplitz_apply(g + 1j * h, ker), want)


# -- calderon ----------------------------------------------------------------

def test_calderon_kernel_values():
    assert calderon_kernel(0.0, [2.0, 1.0]) == 0.0  # y1 outside (0,1)
    assert calderon_kernel(0.0, [0.5, 1.0]) == -1.0
    assert calderon_kernel(1.0, [0.5, 0.0]) == 1.0
    with pytest.raises(ValueError):
        calderon_kernel(1.0, [0.5, 1.0])


def test_calderon_apply_zero_and_multilinear():
    dom = Domain(0.0, 1.0, 6)
    z = GridFunction.constant(dom, 0.0)
    f = rand_f(2, dom)
    np.testing.assert_allclose(calderon_apply([z, f]).samples, 0.0)
    g1, g2, g3 = rand_f(3, dom), rand_f(4, dom), rand_f(5, dom)
    lhs = calderon_apply([g1, 2.0 * g2 + g3]).samples
    rhs = 2.0 * calderon_apply([g1, g2]).samples + calderon_apply([g1, g3]).samples
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_calderon_apply_matches_literal_kernel_quadrature():
    dom = Domain(0.0, 1.0, 5)
    f1, f2 = rand_f(6, dom), rand_f(7, dom)
    fast = calderon_apply([f1, f2]).samples
    slow = direct_kernel_apply(calderon_kernel, [f1, f2])
    # direct path integrates f1 over full cells, fast path over the open
    # interval of whole cells between centers; both converge, compare loosely
    num = np.linalg.norm(fast - slow.samples)
    den = np.linalg.norm(slow.samples)
    assert num / den < 0.2


def test_calderon_constant_slot_reduces_to_hilbert_shape():
    dom = Domain(0.0, 1.0, 12)
    one = GridFunction.constant(dom, 1.0)
    bump = GridFunction.from_callable(
        dom, lambda x: np.exp(-120 * (x - 0.5) ** 2)
    )
    c = calderon_apply([one, bump]).samples / math.pi
    hf = hilbert_transform(bump).samples
    assert np.linalg.norm(c - hf) / np.linalg.norm(hf) <= 0.03


def _fft_error(fs):
    dense = dense_calderon_apply(fs)
    fast = calderon_apply(fs).samples
    return np.abs(fast - dense).max() / np.abs(dense).max()


# the ids keep the "-1" of the principal value cutoff these rows ran at
@pytest.mark.parametrize("L", [6, 10])
@pytest.mark.parametrize("m", [1, 2, 3], ids=["1-1", "2-1", "3-1"])
def test_calderon_fft_matches_dense_oracle(m, L):
    dom = Domain(0.0, 1.0, L)
    fs = [rand_f(100 + 10 * m + s, dom) for s in range(m + 1)]
    assert _fft_error(fs) <= 1e-12


def test_calderon_fft_matches_dense_oracle_at_order_two_on_4096_cells():
    dom = Domain(0.0, 1.0, 12)
    assert _fft_error([rand_f(130 + s, dom) for s in range(3)]) <= 1e-12


class _DenseCalderon:
    """The Calderon operator through the dense oracle, for
    iterated_commutator."""

    def apply(self, fs):
        return GridFunction(fs[0].domain, dense_calderon_apply(fs))


@pytest.mark.parametrize("slots", [[0], [1], [0, 0], [0, 1]])
def test_calderon_commutators_with_a_log_symbol_match_dense_oracle(slots):
    # [b, C] and [b, [b, C]] with b = log|x - 1/2|
    dom = Domain(0.0, 1.0, 10)
    b = GridFunction.from_callable(dom, lambda x: np.log(np.abs(x - 0.5)))
    fs = [rand_f(140, dom), rand_f(141, dom)]
    bs = [b] * len(slots)
    fast = iterated_commutator(KernelOperator("calderon"), bs, slots, fs).samples
    dense = iterated_commutator(_DenseCalderon(), bs, slots, fs).samples
    assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()


def test_calderon_order_three_runs_on_16384_cells():
    dom = Domain(0.0, 1.0, 14)
    f1, f2, f3, g, u = (rand_f(150 + s, dom) for s in range(5))
    out = calderon_apply([f1, f2, f3, g]).samples
    assert np.all(np.isfinite(out))
    combo = calderon_apply([f1, f2, f3, 2.0 * g + u]).samples
    want = 2.0 * out + calderon_apply([f1, f2, f3, u]).samples
    assert np.abs(combo - want).max() <= 1e-12 * np.abs(want).max()
    combo = calderon_apply([f1, 3.0 * f2 - g, f3, g]).samples
    want = 3.0 * out - calderon_apply([f1, g, f3, g]).samples
    assert np.abs(combo - want).max() <= 1e-12 * np.abs(want).max()


# the ids keep the "-inside-band" of the cutoff these rows ran at
@pytest.mark.parametrize("L", [6, 8, 10])
@pytest.mark.parametrize("m", [1, 2, 3], ids=[f"{m}-inside-band" for m in (1, 2, 3)])
def test_batched_calderon_equals_the_per_pick_oracle(m, L):
    dom = Domain(0.0, 1.0, L)
    fs = [rand_f(200 + 10 * m + s, dom) for s in range(m + 1)]
    assert np.array_equal(calderon_apply(fs).samples, per_pick_calderon(fs))


def test_calderon_is_linear_over_complex_inputs():
    dom = Domain(0.0, 1.0, 6)
    one = GridFunction.constant(dom, 1.0)
    f, g = rand_f(23, dom), rand_f(24, dom)
    _complex_parts_agree(lambda u: calderon_apply([one, GridFunction(dom, u)]).samples,
                         f.samples, g.samples)
    _complex_parts_agree(lambda u: calderon_apply([GridFunction(dom, u), f]).samples,
                         f.samples, g.samples)


# -- stein -------------------------------------------------------------------

def test_stein_zero():
    # a constant is exactly 0 at every wave number but 0, where the
    # multipliers vanish: every band and the full-length scales read 0
    for L, c in itertools.product((4, 8, 10, 14), (0.0, 1.0, -2.5, 1 / 3)):
        f = GridFunction.constant(Domain(0.0, 1.0, L), c)
        assert not np.any(stein_square_function(f, 1.0).samples)


def test_stein_wave_scale_invariance():
    dom = Domain(0.0, 1.0, 10)
    vals = []
    for xi0 in (4, 16):
        f = GridFunction(dom, np.exp(2j * math.pi * xi0 * dom.cell_centers()))
        g = stein_square_function(f, 1.0, n_scales=2048).samples
        assert np.ptp(g) / g.mean() < 1e-8  # spatially constant
        vals.append(g.mean())
    assert abs(vals[0] - vals[1]) / vals[1] < 0.01


def test_stein_subadditive():
    for seed in range(5):
        f, g = rand_f(seed), rand_f(seed + 40)
        a = stein_square_function(f, 1.0).samples
        b = stein_square_function(g, 1.0).samples
        ab = stein_square_function(f + g, 1.0).samples
        assert np.all(ab <= a + b + 1e-12)


def test_stein_alpha_below_one_warns_nothing():
    # at |xi| = t the band edge (1 - |xi|^2/t^2)^(alpha - 1) is 0^(alpha - 1)
    f = rand_f(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = stein_square_function(f, 0.75).samples
    assert np.all(np.isfinite(g))


@pytest.mark.parametrize("n_scales", [128, 2048])
@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.5])
def test_batched_stein_matches_the_per_scale_oracle(alpha, n_scales):
    for L, seed in ((8, 60), (10, 61), (12, 62)):
        f = rand_f(seed, Domain(0.0, 1.0, L))
        old = per_scale_stein(f, alpha, n_scales)
        new = stein_square_function(f, alpha, n_scales).samples
        assert np.abs(new - old).max() <= 1e-13 * np.abs(old).max()


def test_stein_of_a_complex_input_matches_the_per_scale_oracle():
    # the kernels are real: S f is the l2 norm of S Re f and S Im f
    dom = Domain(0.0, 1.0, 10)
    f = GridFunction(dom, rand_f(63, dom).samples + 1j * rand_f(64, dom).samples)
    old = per_scale_stein(f, 1.5)
    assert np.abs(stein_square_function(f, 1.5).samples - old).max() <= 1e-13 * np.abs(old).max()


@pytest.mark.parametrize("L", range(1, 9))
def test_band_stein_equals_the_full_length_oracle_up_to_l_8(L):
    # a grid of at most 256 cells squares every scale at its N cells
    dom = Domain(0.0, 1.0, L)
    f = rand_f(70 + L, dom)
    fc = GridFunction(dom, f.samples + 1j * rand_f(80 + L, dom).samples)
    for u, alpha, n_scales in itertools.product((f, fc), (0.75, 1.5), (128, 2048)):
        assert np.array_equal(stein_square_function(u, alpha, n_scales).samples,
                              full_length_stein(u, alpha, n_scales))


STEIN_BANKS = ("random", "bump", "steps", "indicator", *(f"wave:{k}" for k in range(1, 9)))
STEIN_ALPHAS = (0.6, 0.75, 1.0, 1.5, 2.0)


def _assert_stein_near_the_per_scale_oracle(f, alpha, n_scales):
    """Both routes round (S f)^2 to about eps max (S f)^2, which the square
    root magnifies where S f is near 0, between the peaks of a wave.  Over
    the CLI banks at L = 6-14, every alpha here and 128 and 2048 scales,
    the band route read at most 1.3e-14 max (S f)^2 and 1.8e-12 max S f
    (wave:5, alpha = 1.5, 2048 scales, L = 14); the full-length route
    reads 8.7e-15 max (S f)^2 at L <= 8."""
    old = per_scale_stein(f, alpha, n_scales)
    new = stein_square_function(f, alpha, n_scales).samples
    top = np.abs(old).max()
    assert np.abs(new - old).max() <= 4e-12 * top
    assert np.abs(new ** 2 - old ** 2).max() <= 3e-14 * top ** 2


@pytest.mark.parametrize("L", [6, 8, 10, 12, 14])
def test_band_stein_matches_the_per_scale_oracle_on_the_cli_banks(L):
    dom = Domain(0.0, 1.0, L)
    for spec, alpha in itertools.product(STEIN_BANKS, STEIN_ALPHAS):
        _assert_stein_near_the_per_scale_oracle(make_function(spec, dom, 0), alpha, 128)
    # 2048 scales, one alpha per bank in turn: the oracle takes 0.8 s a call at L = 14
    if L <= 10:
        for spec, alpha in zip(STEIN_BANKS, itertools.cycle(STEIN_ALPHAS)):
            _assert_stein_near_the_per_scale_oracle(make_function(spec, dom, 0), alpha, 2048)


def test_band_stein_worst_reading_stays_within_bound():
    # the largest error of the sweep in `_assert_stein_near_the_per_scale_oracle`
    f = make_function("wave:5", Domain(0.0, 1.0, 14), 0)
    _assert_stein_near_the_per_scale_oracle(f, 1.5, 2048)


@pytest.mark.parametrize("L", [10, 12])
def test_band_stein_of_a_wave_that_vanishes_at_a_cell_is_finite(L):
    # S f is 0 at that cell, and rounding takes the band sum of squares below
    # 0 there: without the clamp the square root is NaN.  The error of
    # (S f)^2 is a few eps max (S f)^2 there too, so S f reads about
    # 1e-8 max S f at the cell, where the per-scale oracle reads 1e-16
    dom = Domain(0.0, 1.0, L)
    x = dom.cell_centers()
    for k, alpha in itertools.product((1, 3), (0.75, 1.5)):
        f = GridFunction(dom, np.sin(2 * math.pi * k * (x - x[dom.n_cells // 3])))
        old = per_scale_stein(f, alpha)
        new = stein_square_function(f, alpha).samples
        assert np.all(new >= 0.0)
        assert np.abs(new ** 2 - old ** 2).max() <= 3e-14 * old.max() ** 2


@pytest.mark.parametrize("L", [1, 2, 3])
def test_band_stein_on_the_smallest_grids(L):
    dom = Domain(0.0, 1.0, L)
    for spec, alpha in itertools.product(("random", "bump", "wave:1", "wave:3"), STEIN_ALPHAS):
        f = make_function(spec, dom, 0)
        np.testing.assert_allclose(stein_square_function(f, alpha).samples,
                                   per_scale_stein(f, alpha), rtol=0.0, atol=1e-15)


def test_stein_alpha_validation():
    for alpha in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            stein_square_function(rand_f(0), alpha)
        with pytest.raises(ValueError, match="alpha"):
            KernelOperator("stein", alpha)


# -- commutators -------------------------------------------------------------

def test_commutator_constant_symbol_vanishes():
    f = rand_f(8)
    b = GridFunction.constant(DOM, 2.0)
    H = KernelOperator("hilbert")
    out = iterated_commutator(H, [b], [0], [f]).samples
    np.testing.assert_allclose(out, 0.0, atol=1e-10)


def test_commutator_kernel_vs_algebraic():
    H = KernelOperator("hilbert")
    for seed in range(5):
        b = GridFunction.from_callable(
            DOM, lambda x, s=seed: np.sin((s + 2) * x) + 0.3 * x
        )
        f = rand_f(seed + 60)
        expanded = iterated_commutator(H, [b], [0], [f]).samples
        direct = first_order_commutator_kernel(b, f).samples
        np.testing.assert_allclose(expanded, direct, atol=1e-10)
        algebraic = (
            b.samples * hilbert_transform(f).samples
            - hilbert_transform(b * f).samples
        )
        np.testing.assert_allclose(expanded, algebraic, atol=1e-10)


def test_second_order_equals_iterated_first_order():
    H = KernelOperator("hilbert")
    b = GridFunction.from_callable(DOM, lambda x: np.cos(3 * x))
    f = rand_f(9)
    second = iterated_commutator(H, [b, b], [0, 0], [f]).samples
    # (b(x)-b(y))^2 kernel == commuting with b twice
    once = iterated_commutator(H, [b], [0], [f]).samples
    twice = (
        b.samples * once
        - iterated_commutator(H, [b], [0], [b * f]).samples
    )
    np.testing.assert_allclose(second, twice, atol=1e-10)


def test_commutator_is_linear_over_complex_inputs():
    # [b, H](f + ig) was off by 0.13 when H dropped the imaginary part
    dom = Domain(0.0, 1.0, 6)
    H = KernelOperator("hilbert")
    b = GridFunction.from_callable(dom, lambda x: np.log(np.abs(x - 0.5)))
    f, g = rand_f(25, dom), rand_f(26, dom)
    _complex_parts_agree(
        lambda u: iterated_commutator(H, [b], [0], [GridFunction(dom, u)]).samples,
        f.samples, g.samples,
    )


@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n_symbols", [1, 2, 3])
@pytest.mark.parametrize("kind, n_inputs", [
    ("hilbert", 1), ("calderon", 3), ("calderon", 4),
], ids=["hilbert", "calderon-m2", "calderon-m3"])
@pytest.mark.parametrize("L", [5, 8])
def test_subset_expansion_equals_the_recursive_oracle(L, kind, n_inputs, n_symbols, is_complex):
    # the loop over subsets sums the same terms in the same order as the
    # recursion over factors: equal arrays of the same dtype
    dom = Domain(0.0, 1.0, L)
    rng = np.random.default_rng([L, n_inputs, n_symbols, is_complex])
    T = KernelOperator(kind)
    bs = [GridFunction(dom, rng.uniform(-1.0, 1.0, dom.n_cells)) for _ in range(n_symbols)]
    slots = [int(s) for s in rng.integers(0, n_inputs, n_symbols)]
    fs = [
        GridFunction(dom, rng.uniform(-1.0, 1.0, dom.n_cells)
                     + (1j * rng.uniform(-1.0, 1.0, dom.n_cells) if is_complex else 0.0))
        for _ in range(n_inputs)
    ]
    MEMO.clear()
    got = iterated_commutator(T, bs, slots, fs).samples
    MEMO.clear()
    want = recursive_commutator(T, bs, slots, fs)
    assert got.dtype == want.dtype == (complex if is_complex else float)
    assert np.array_equal(got, want)


def test_commutator_validation():
    H = KernelOperator("hilbert")
    f = rand_f(10)
    with pytest.raises(ValueError):
        iterated_commutator(H, [f], [2], [f])


# -- bmo ---------------------------------------------------------------------

def test_bmo_constant_zero():
    b = GridFunction.constant(DOM, 5.0)
    assert bmo_norm(b) == 0.0
    assert bmo_norm(b + 3.0) == bmo_norm(b)


def test_bmo_shift_invariance():
    b = rand_f(11)
    assert bmo_norm(b + 7.0) == pytest.approx(bmo_norm(b), rel=1e-12)


def test_bmo_linear_function():
    b = GridFunction.from_callable(DOM, lambda x: x)
    assert bmo_norm(b) == pytest.approx(0.25, rel=1e-2)


def test_bmo_log_stability_across_resolutions():
    norms = []
    sups = []
    for L in (10, 12, 14):
        dom = Domain(0.0, 1.0, L)
        b = GridFunction.from_callable(dom, lambda x: np.log(np.abs(x - 0.5)))
        norms.append(bmo_norm(b))
        sups.append(np.abs(b.samples).max())
    assert max(norms) / min(norms) <= 1.10
    assert sups[2] > sups[1] > sups[0]  # sup norm keeps growing with L


@pytest.mark.parametrize("L", [3, 5, 8, 9, 10, 12])
def test_bmo_over_level_groups_equals_the_per_entry_oracle(L):
    # at L = 12 a level group stacks four entries, so groups split lattices
    dom = Domain(0.0, 1.0, L)
    cauchy = np.random.default_rng(L).standard_cauchy(dom.n_cells)
    for s in (np.log(np.abs(dom.cell_centers() - 0.5)), cauchy):
        b = GridFunction(dom, s)
        assert bmo_norm(b) == per_entry_bmo(b)


def test_weighted_john_nirenberg():
    # ||b - <b>_Q||_{exp L(w), Q} <= C [w]_Ainf ||b||_BMO with one C
    dom = Domain(0.0, 1.0, 6)
    phi = exp_power(1.0)
    worst = 0.0
    for bseed, wseed in ((0, 1), (2, 3), (4, 5)):
        rngb = np.random.default_rng(bseed)
        b = GridFunction(dom, np.cumsum(rngb.uniform(-1, 1, dom.n_cells)) * 0.1)
        w = Weight(GridFunction(dom, np.random.default_rng(wseed).uniform(0.5, 2.0, dom.n_cells)))
        fw, _ = ainfty_constants(w)
        nb = bmo_norm(b)
        for q in (DyadicCube(0, 0, 0), DyadicCube(0, 2, 1), DyadicCube(0, 3, 5)):
            s, e, _ = q.cell_bounds(dom)
            mean = b.samples[s:e].mean()
            dev = GridFunction(dom, np.abs(b.samples - mean))
            lhs = luxemburg_norm(dev, phi, q, w)
            worst = max(worst, lhs / (fw * nb))
    assert worst <= 8.0


# -- log dini ----------------------------------------------------------------

def log_dini_norm(omega, a: float, m: int) -> float:
    """int_0^1 omega(t)^a / t * (1 + log(1/t))^m dt via the substitution
    t = e^{-u}; reports inf when the integrand fails to decay."""
    if a <= 0 or m < 0:
        raise ValueError("need a > 0 and m >= 0")

    def g(u):
        return omega(math.exp(-u)) ** a * (1.0 + u) ** m

    tail_probe = max(g(80.0), g(120.0))
    if not math.isfinite(tail_probe) or tail_probe > 1e-8:
        return math.inf
    total = 0.0
    for lo, hi in ((0.0, 1.0), (1.0, 10.0), (10.0, 120.0)):
        val, _ = quad(g, lo, hi, epsabs=1e-9, limit=200)
        total += val
    return total


def test_log_dini_zero():
    assert log_dini_norm(lambda t: 0.0, 1.0, 0) == 0.0


def test_log_dini_identity():
    assert log_dini_norm(lambda t: t, 1.0, 0) == pytest.approx(1.0, abs=1e-8)


def test_log_dini_sqrt_with_log():
    got = log_dini_norm(lambda t: math.sqrt(t), 1.0, 1)
    assert got == pytest.approx(6.0, abs=1e-7)


def test_log_dini_divergent():
    assert log_dini_norm(lambda t: 1.0, 1.0, 0) == math.inf
