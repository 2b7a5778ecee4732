"""Grid geometry, exact Gaussian path synthesis, and threshold conditioning."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from excursions import (
    DomainError,
    Grid,
    SynthesisError,
    build_sampler,
    c2_grid,
    heavy_tail_grid,
    make_kernel,
    path_derivative_at_zero,
    sample_conditional_exceedance,
    sample_truncated_normal,
    sample_unconditional,
    sampling,
)
from excursions.sampling import (
    _STD_NORMAL,
    FACTOR_TOL,
    _next_smooth,
    _normal_tail,
    band_basis,
    band_split,
    circulant_draw,
    circulant_weights,
)
from excursions.streams import generator, generators, replicates, substream_seed


@given(
    step=st.floats(min_value=1e-3, max_value=5.0, allow_nan=False),
    arms=st.integers(min_value=1, max_value=200),
)
def test_grid_invariants(step, arms):
    g = Grid(step, step * arms)
    t = g.times()
    assert g.n == 2 * g.arm + 1
    assert g.n % 2 == 1
    assert g.origin_index == g.arm
    assert t.shape == (g.n,)
    assert t[g.origin_index] == 0.0
    np.testing.assert_allclose(t, -t[::-1], atol=1e-12)
    np.testing.assert_allclose(np.diff(t), step, rtol=1e-12)


def test_grid_rejects_degenerate_windows():
    with pytest.raises(DomainError):
        Grid(0.5, 0.4)  # fewer than 3 points
    with pytest.raises(DomainError):
        Grid(0.0, 1.0)
    with pytest.raises(DomainError):
        Grid(-0.1, 1.0)
    for step, half_width in ((math.inf, 1.0), (0.1, math.inf), (math.nan, 1.0), (0.1, math.nan)):
        with pytest.raises(DomainError):
            Grid(step, half_width)


def test_build_sampler_prefers_circulant_embedding():
    plan = build_sampler(make_kernel(1.0), Grid(0.1, 2.0))
    assert plan.fro_error <= FACTOR_TOL
    assert plan.embed_factor >= 1
    assert plan.spectral_weights.size == 2 * _next_smooth(plan.embed_factor * (plan.grid.n - 1))


def _brute_next_smooth(m):
    k = m
    while True:
        rest = k
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 1


def test_next_smooth_matches_brute_force():
    got = [_next_smooth(m) for m in range(1, 20001)]
    assert got == [_brute_next_smooth(m) for m in range(1, 20001)]


def test_embedding_pads_a_prime_extent_to_a_smooth_length():
    # 2857 is prime: the padded row reaches lag 2880 = 2**6 * 3**2 * 5, and the
    # first n points stay exact
    weights, fro_error, embed_factor, _ = circulant_weights(make_kernel(1.0).value, 2858)
    assert (weights.size, embed_factor) == (2 * 2880, 1)
    assert fro_error <= FACTOR_TOL


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5])
@pytest.mark.parametrize("u", [6.0, 10.0, 14.0])
def test_default_path_grids_keep_their_circulant_length(alpha, u):
    # the default extents f * (n - 1) = f * 4000 are already 5-smooth, so padding
    # leaves the circulant, and with it the path stream, as it was
    heavy = make_kernel(alpha)
    for kernel, grid in ((make_kernel(2.0), c2_grid(u)), (heavy, heavy_tail_grid(heavy, u))):
        plan = build_sampler(kernel, grid)
        assert grid.n - 1 == 4000
        assert plan.spectral_weights.size == 2 * plan.embed_factor * (grid.n - 1)
    assert plan.embed_factor == 1  # the heavy-tail kernel embeds unpadded


def test_circulant_weights_reject_an_indefinite_covariance():
    # unit variance with lag covariance 2 is no covariance; no padding embeds it
    with pytest.raises(SynthesisError):
        circulant_weights(lambda k: np.where(k == 0, 1.0, 2.0), 3)


def test_a_grid_too_large_to_embed_is_a_domain_error_before_any_allocation():
    def untouchable(k):
        raise AssertionError("the covariance row must not be built")

    # 40 000 001 points: the first embedding alone needs 8e7 circulant points
    with pytest.raises(DomainError, match=r"80000000 points, over the 2\*\*23 limit"):
        circulant_weights(untouchable, 40_000_001)
    with pytest.raises(DomainError):
        circulant_weights(untouchable, 2**22 + 2)  # one point past the largest extent
    grid = c2_grid(6.0, step_factor=1e-6)
    assert grid.n == 40_000_001
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            build_sampler(make_kernel(2.0), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the grid's times alone would take 320 MB


def test_the_largest_embeddable_grid_passes_the_size_check():
    class Reached(Exception):
        pass

    def autocov(k):
        assert k.size == 2**22 + 1  # the row out to lag 2**22: a 2**23-point circulant
        raise Reached

    with pytest.raises(Reached):
        circulant_weights(autocov, 2**22 + 1)


def test_production_grid_embeds_without_jitter():
    plan = build_sampler(make_kernel(1.0), Grid(0.01, 5.0))
    assert plan.fro_error <= FACTOR_TOL


def test_sample_unconditional_is_deterministic():
    plan = build_sampler(make_kernel(1.0), Grid(0.1, 2.0))
    pair = sample_unconditional(plan, 12345)
    again = sample_unconditional(plan, 12345)
    other = sample_unconditional(plan, 12346)
    assert pair.shape == (2, plan.grid.n)
    assert not np.array_equal(pair[0], pair[1])
    for a, b, c in zip(pair, again, other):
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.isfinite(a).all()


def test_empirical_covariance_matches_kernel():
    # both halves of each draw carry the kernel covariance, and the halves are
    # independent: their cross-covariance vanishes at every lag, both ways
    k = make_kernel(1.0)
    g = Grid(0.25, 1.0)
    plan = build_sampler(k, g)
    n = 3000
    pairs = [sample_unconditional(plan, substream_seed(97, 0, i)) for i in range(n)]
    first = np.vstack([a for a, _ in pairs])
    second = np.vstack([b for _, b in pairs])
    o = g.origin_index
    for offset in (0, 2, 4):
        target = math.exp(-0.25 * offset)
        for x, y, want in (
            (first, first, target),
            (second, second, target),
            (first, second, 0.0),
            (second, first, 0.0),
        ):
            prods = x[:, o] * y[:, o + offset]
            se = prods.std(ddof=1) / math.sqrt(n)
            assert abs(prods.mean() - want) <= 4.0 * se


def test_truncated_normal_draws_exceed_threshold():
    rng = generator(substream_seed(5, 0))
    for u, var in ((0.5, 1.0), (3.0, 1.0), (9.0, 4.0)):
        draws = np.array([sample_truncated_normal(var, u, rng) for _ in range(500)])
        assert (draws > u).all()


def test_truncated_normal_is_deterministic_from_int_seed():
    assert sample_truncated_normal(1.0, 2.0, 777) == sample_truncated_normal(1.0, 2.0, 777)


@pytest.mark.parametrize(
    "u,var",
    [
        (1.0, 1.0),  # inverse-CDF branch (u/sigma <= 2)
        (12.0, 4.0),  # rejection branch (u/sigma = 6)
    ],
)
def test_truncated_normal_law_matches_truncnorm(u, var):
    rng = generator(substream_seed(6, 0, int(u)))
    sigma = math.sqrt(var)
    draws = np.array([sample_truncated_normal(var, u, rng) for _ in range(20000)])
    stat = stats.kstest(draws / sigma, stats.truncnorm(u / sigma, np.inf).cdf).statistic
    assert stat <= 0.012


def test_truncated_normal_domain_errors():
    with pytest.raises(DomainError):
        sample_truncated_normal(0.0, 1.0, 1)
    with pytest.raises(DomainError):
        sample_truncated_normal(-1.0, 1.0, 1)


@pytest.mark.parametrize("alpha", [1.0, 2.0])  # FFT, direct sum
def test_concurrent_draws_get_the_numbers_a_lone_caller_gets(alpha):
    # each draw allocates the arrays it fills, so threads drawing at once get
    # the numbers a lone caller gets
    plan = build_sampler(make_kernel(alpha), Grid(0.01, 20.0) if alpha == 1.0 else c2_grid(6.0))
    seeds = [substream_seed(3, 0, k) for k in range(4)]
    expected = sample_unconditional(plan, seeds)
    results = []

    def work():
        for _ in range(20):
            results.append(sample_unconditional(plan, seeds))

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 80
    for got in results:
        np.testing.assert_array_equal(got, expected)


def _in_a_fresh_thread(fn):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result()


def test_a_band_draw_ignores_what_its_buffer_held():
    # a wide window at a coarse step: the band leaves most of the 800-point
    # circle undrawn, yet is too wide for the direct sum, so the plan transforms
    # an array of the size a heavy-tail plan of the same length fills in full;
    # the modes outside the band must be zeros whatever memory the array reuses
    smooth = build_sampler(make_kernel(2.0), c2_grid(6.0, step_factor=0.5, window_factor=100.0))
    heavy = build_sampler(make_kernel(1.0), Grid(0.01, 2.0))
    m = smooth.spectral_weights.size
    assert m == heavy.spectral_weights.size == 800
    assert smooth.engine == heavy.engine == "fft"
    assert 2 * smooth.band + 1 < m <= 2 * heavy.band + 1
    seeds = [substream_seed(5, 0, k) for k in range(4)]
    expected = _in_a_fresh_thread(partial(sample_unconditional, smooth, seeds))

    def after_other_draws():
        sample_unconditional(heavy, seeds)
        return sample_unconditional(smooth, seeds)

    np.testing.assert_array_equal(_in_a_fresh_thread(after_other_draws), expected)


def test_a_direct_draw_ignores_what_its_buffers_held():
    # a direct-sum product writes its normals and coefficients whole before
    # reading them, so a draw on a direct plan with a wider band on another
    # circle before it moves no number
    smooth = build_sampler(make_kernel(2.0), c2_grid(6.0))
    wider = build_sampler(make_kernel(2.0, 3.0), c2_grid(6.0, step_factor=0.03, window_factor=40.0))
    assert smooth.engine == wider.engine == "direct"
    assert smooth.band < wider.band and smooth.spectral_weights.size != wider.spectral_weights.size
    seeds = [substream_seed(5, 0, k) for k in range(5)]
    expected = _in_a_fresh_thread(partial(sample_unconditional, smooth, seeds))

    def after_other_draws():
        sample_unconditional(wider, seeds)
        return sample_unconditional(smooth, seeds)

    np.testing.assert_array_equal(_in_a_fresh_thread(after_other_draws), expected)


@settings(max_examples=40, deadline=None)
@given(
    step=st.floats(min_value=0.005, max_value=0.8, allow_nan=False),
    arms=st.integers(min_value=1, max_value=400),
    r0=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_smooth_embeddings_keep_no_weight_outside_their_band(step, arms, r0):
    plan = build_sampler(make_kernel(2.0, r0), Grid(step, step * arms))
    weights = plan.spectral_weights
    k = np.arange(weights.size)
    freq = np.minimum(k, weights.size - k)
    assert freq[weights > 0].max() == plan.band
    assert plan.fro_error <= FACTOR_TOL


@settings(max_examples=40, deadline=None)
@given(
    step=st.floats(min_value=0.005, max_value=0.8, allow_nan=False),
    arms=st.integers(min_value=1, max_value=400),
    r0=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
@example(step=0.01, arms=400, r0=1.0)  # direct, on a 1600-point circle
@example(step=0.05, arms=100, r0=3.0)  # direct, on a 400-point circle
@example(step=0.02, arms=400, r0=0.5)  # FFT over a partial band
def test_either_engine_draws_what_the_fft_draws(step, arms, r0):
    # the direct sum evaluates the same circulant draw from the same normals,
    # so whichever engine a plan picks, five substreams (a whole product and a
    # padded one) match the FFT to rounding, and each row its own block of one;
    # a direct plan's band leaves part of its circle undrawn, so modes k and
    # M - k are never the same mode and every product has _DIRECT_ROWS rows
    plan = build_sampler(make_kernel(2.0, r0), Grid(step, step * arms))
    if plan.engine == "direct":
        assert 2 * plan.band + 1 < plan.spectral_weights.size
    seeds = [substream_seed(7, 0, k) for k in range(5)]
    got = sample_unconditional(plan, seeds)
    want = circulant_draw(plan.spectral_weights, plan.band, plan.grid.n, generators(seeds))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * math.sqrt(r0))
    alone = np.vstack([sample_unconditional(plan, seed) for seed in seeds])
    np.testing.assert_array_equal(got, alone)


@given(half=st.integers(min_value=1, max_value=2**22), band=st.integers(min_value=0, max_value=2**22))
@example(half=4000, band=4000)  # the full band of the default 8000-point heavy-tail circle
@example(half=4000, band=3999)  # the widest partial band
@example(half=1, band=0)
def test_band_split_is_one_formula_over_partial_and_full_bands(half, band):
    # a partial band splits as it always has, (band + 1, band); the full band
    # of a size-point circle splits its M normals, in the same order, at M/2
    # + 1, so circulant_draw fills the same modes with the same normals
    size, band = 2 * half, min(band, half)
    head, tail = band_split(size, band)
    if 2 * band + 1 < size:
        assert (head, tail) == (band + 1, band)
    else:
        assert (head, tail) == (half + 1, half - 1)
    assert head + tail == min(2 * band + 1, size)


def _row_by_row_basis(m, band, n):
    # the reference: each row looked up in the twiddle table at k j mod m,
    # the index advanced one row at a time
    angle = (2.0 * math.pi / m) * np.arange(m)
    cos, sin = np.cos(angle), np.sin(angle)
    basis, index = np.empty((2 * (band + 1), n)), np.zeros(n, dtype=np.intp)
    for k in range(band + 1):
        basis[k], basis[band + 1 + k] = cos[index], sin[index]
        index = (index + np.arange(n)) % m
    return basis


@pytest.mark.parametrize("alpha", [2.0, 0.75])
def test_band_basis_holds_the_row_by_row_bits(alpha):
    # built a few rows at a time on the whole grid, each entry is the reference's
    kernel = make_kernel(alpha)
    plan = build_sampler(kernel, c2_grid(6.0) if alpha == 2.0 else heavy_tail_grid(kernel, 10.0, 0.05))
    m, n = plan.spectral_weights.size, plan.grid.n
    want = _row_by_row_basis(m, plan.band, n)
    np.testing.assert_array_equal(band_basis(m, plan.band, n), want)
    if plan.engine == "direct":
        np.testing.assert_array_equal(plan.basis, want)


@pytest.mark.parametrize("r0", [1e-300, 1e-200, 1e200, 1e300])
def test_embeddings_do_not_depend_on_the_variance(r0):
    # the Frobenius check is relative, so neither underflow nor overflow of
    # the squared covariance row may change which embedding a plan takes
    heavy = make_kernel(1.0)
    for alpha, grid in ((2.0, c2_grid(6.0)), (1.0, heavy_tail_grid(heavy, 10.0))):
        unit = build_sampler(make_kernel(alpha), grid)
        scaled = build_sampler(make_kernel(alpha, r0), grid)
        assert (scaled.embed_factor, scaled.band, scaled.engine) == (unit.embed_factor, unit.band, unit.engine)
        assert scaled.fro_error <= FACTOR_TOL


@pytest.mark.parametrize(
    "call",
    [
        "sample_truncated_normal(1.0, math.nan, 0)",
        "sample_conditional_exceedance(build_sampler(make_kernel(2.0), c2_grid(6.0)), math.nan, 1729)",
    ],
)
def test_nan_threshold_raises_instead_of_spinning(call):
    # u / sigma = nan fails every acceptance test of the rejection branch, so a
    # sampler that lets it through never returns: run the call in a child
    # interpreter under a timeout, which fails the test instead of hanging it
    src = str(Path(sampling.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = f"import math\nfrom excursions import *\ntry:\n    {call}\nexcept DomainError as exc:\n    print(exc)\n"
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0 and "nan" in res.stdout, (res.stdout, res.stderr)


def test_truncated_normal_rejects_an_infinite_variance():
    with pytest.raises(DomainError, match="finite"):
        sample_truncated_normal(math.inf, 1.0, 0)


def test_truncated_normal_rejects_a_threshold_whose_square_overflows():
    # (u / sigma)**2 = inf leaves the rejection rate lam infinite, so no draw
    # would ever be accepted: the sampler must refuse instead of spinning
    with pytest.raises(DomainError):
        sample_truncated_normal(1.0, 1e160, 1)


@pytest.mark.parametrize("u, r0", [(6.0, 1e-200), (1e7, 1.0)])
def test_conditioning_refuses_an_exceedance_that_rounds_to_u(u, r0):
    # the overshoot above u has scale r0 / u; below the float resolution of u
    # a drawn origin value rounds to u itself, every one at r0 = 1e-200 and
    # about 1% at u = 1e7, so the conditioning cannot hold: refuse, never redraw
    plan = build_sampler(make_kernel(2.0, r0), c2_grid(6.0))
    with pytest.raises(DomainError, match=r"threshold u = .* r0 = "):
        sample_conditional_exceedance(plan, u, [substream_seed(1729, 0, k) for k in range(50)])


def test_normal_tail_matches_scipy_ndtr():
    # the inverse-CDF branch sees a = u / sigma <= 2, down to vacuous thresholds
    a = np.linspace(-40.0, 2.0, 10_000)
    got = np.array([_normal_tail(float(v)) for v in a])
    ref = special.ndtr(-a)
    assert np.max(np.abs(got - ref) / ref) <= 4e-15


def test_normal_inverse_matches_scipy_ndtri():
    # every level (1 - U) * P(Z > a) lies in (0, 1); cover it down to 1e-300
    levels = np.geomspace(1e-300, 1.0, 10_001)[:-1]
    got = np.array([_STD_NORMAL.inv_cdf(float(p)) for p in levels])
    ref = special.ndtri(levels)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 4e-15


def test_truncated_normal_vacuous_threshold():
    # u far below the support leaves the plain normal law untouched
    rng = generator(substream_seed(12, 0))
    draws = np.array([sample_truncated_normal(1.0, -1e9, rng) for _ in range(100000)])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean()) <= 3.0 * se


def test_conditional_exceedance_pins_origin_above_threshold():
    k = make_kernel(2.0)
    plan = build_sampler(k, Grid(0.002, 0.8))
    u = 5.0
    n = 4000
    paths = np.vstack(list(replicates(partial(sample_conditional_exceedance, plan, u), n, 8, 0, 8)))
    excess = np.array([p[plan.grid.origin_index] - u for p in paths])
    assert (excess > 0.0).all()
    # exact conditioning: mean overshoot equals the Mills-ratio value
    target = 0.18650396712585415  # E[X - 5 | X > 5], X standard normal
    se = excess.std(ddof=1) / math.sqrt(n)
    assert abs(excess.mean() - target) <= 4.0 * se


def test_conditional_exceedance_is_deterministic():
    plan = build_sampler(make_kernel(1.0), Grid(0.1, 2.0))
    pair = sample_conditional_exceedance(plan, 3.0, 42)
    again = sample_conditional_exceedance(plan, 3.0, 42)
    np.testing.assert_array_equal(pair, again)
    assert pair.shape == (2, plan.grid.n)
    assert not np.array_equal(pair[0], pair[1])


@pytest.mark.parametrize("alpha", [0.75, 2.0])
def test_conditioning_by_broadcast_keeps_the_row_by_row_bits(alpha):
    # the row-by-row form the sampler used before, kept as the reference, on an
    # FFT plan and a direct one
    plan = build_sampler(make_kernel(alpha), Grid(0.01, 2.0))
    seeds, o = [substream_seed(1729, 0, k) for k in range(5)], plan.grid.origin_index
    rngs = generators(seeds)
    paths = sampling._draw(plan, rngs)
    xi = sampling.exceedances(plan, 3.0, rngs)
    for row, shift in zip(paths, xi - paths[:, o]):
        row += shift * plan.profile
    paths[:, o] = xi
    np.testing.assert_array_equal(sample_conditional_exceedance(plan, 3.0, seeds), paths)


def test_vacuous_conditioning_recovers_unconditional_law():
    k = make_kernel(1.0)
    g = Grid(0.25, 1.0)
    plan = build_sampler(k, g)
    n = 2500
    vals = np.vstack(list(replicates(partial(sample_conditional_exceedance, plan, -1e9), n, 13, 0, 8)))
    o = g.origin_index
    for offset, lag in ((0, 0.0), (2, 0.5), (4, 1.0)):
        prods = vals[:, o] * vals[:, o + offset]
        se = prods.std(ddof=1) / math.sqrt(n)
        assert abs(prods.mean() - math.exp(-lag)) <= 3.0 * se


def test_conditional_residual_covariance_is_exact():
    # residual Z_t = X_t - (R(t)/R(0)) X_0 keeps the unconditional residual
    # covariance R(s-t) - R(s)R(t)/R(0) at any threshold
    k = make_kernel(1.0)
    g = Grid(0.25, 1.0)
    plan = build_sampler(k, g)
    n = 3000
    vals = np.vstack(list(replicates(partial(sample_conditional_exceedance, plan, 6.0), n, 14, 0, 8)))
    o = g.origin_index
    profile = k.value(g.times())
    resid = vals - np.outer(vals[:, o], profile)
    times = g.times()
    for i1, i2 in ((o + 1, o + 3), (o - 2, o + 2)):
        t1, t2 = times[i1], times[i2]
        target = k.value(t1 - t2) - k.value(t1) * k.value(t2)
        prods = resid[:, i1] * resid[:, i2]
        se = prods.std(ddof=1) / math.sqrt(n)
        assert abs(prods.mean() - target) <= 3.0 * se
    # and the residual is uncorrelated with the pinned origin value
    corr = np.corrcoef(resid[:, o + 2], vals[:, o])[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(n)


def test_conditional_marginal_matches_limit_components():
    # scaled exceedance u(X_t - u) at t = delta_u has the limit-process
    # marginal moments: mean r0 - c_alpha |t|^a / r0, variance r0^2 + 2 c_alpha |t|^a
    from excursions import c_alpha, delta_u

    k = make_kernel(1.0)
    u = 10.0
    d = delta_u(k, u)
    g = Grid(d / 5.0, 2.0 * d)
    plan = build_sampler(k, g)
    col = g.origin_index + 5
    n = 4000
    paths = np.vstack(list(replicates(partial(sample_conditional_exceedance, plan, u), n, 15, 0, 8)))
    draws = np.array([p[col] for p in paths])
    y = u * (draws - u)
    c = c_alpha(1.0)
    se_mean = y.std(ddof=1) / math.sqrt(n)
    assert abs(y.mean() - (1.0 - c)) <= 3.0 * se_mean
    sq = (y - y.mean()) ** 2
    se_var = sq.std(ddof=1) / math.sqrt(n)
    assert abs(y.var(ddof=1) - (1.0 + 2.0 * c)) <= 3.0 * se_var


def test_path_derivative_central_difference():
    g = Grid(0.5, 0.5)
    assert path_derivative_at_zero(g, np.array([0.0, 1.0, 4.0])) == pytest.approx(4.0, abs=1e-12)
    assert path_derivative_at_zero(g, np.full(3, 2.5)) == 0.0
    assert path_derivative_at_zero(g, 3.0 * g.times()) == pytest.approx(3.0, abs=1e-12)


def test_path_derivative_variance_matches_curvature():
    # slope of a smooth path at 0 is N(0, -R''(0)); central differences on a
    # fine grid reproduce the variance up to O(step^2) bias
    plan = build_sampler(make_kernel(2.0), Grid(0.001, 0.002))
    n = 5000
    paths = np.vstack(list(replicates(partial(sample_unconditional, plan), n, 16, 0, 8)))
    slopes = np.array([path_derivative_at_zero(plan.grid, p) for p in paths])
    var = slopes.var(ddof=1)
    se = var * math.sqrt(2.0 / (n - 1))
    assert abs(var - 2.0) <= 3.0 * se

