"""Statistics kernel outputs against scipy oracles, stream discipline, and the
verification driver."""

import json
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from excursions import (
    C2LimitParams,
    CensorBudgetExceeded,
    DomainError,
    EmptySampleError,
    Grid,
    c2_grid,
    c2_limit_cdf,
    c_alpha,
    covariance_panel,
    delta_u,
    draw_limit_lengths,
    ecdf,
    heavy_tail_grid,
    ks_one_sample,
    ks_two_sample,
    limit_grid,
    make_kernel,
    make_sample_set,
    median_excursion_length,
    run_verification,
    simulate_excursion_lengths,
    wasserstein1,
)
from excursions import build_sampler, crossing_bounds, crossings, sample_conditional_exceedance, sampling, streams
from excursions import verify
from excursions.cli import EXIT_OK, main
from excursions.limit_process import _fgn_weights, _levels, fbm_two_sided, limit_process_values
from excursions.sampling import FACTOR_TOL, _next_smooth, _truncated_std_normal
from excursions.streams import generator, generators, replicates, substream_seed
from excursions.verify import (
    CENSOR_BUDGET,
    LIMIT_LANE,
    PATH_LANE,
    QUANTILE_PROBS,
    _kolmogorov_pvalue,
)


def test_substream_seeds_are_frozen():
    # splitting is part of the reproducibility contract; values must never move
    assert substream_seed(0, 0, 0) == 8668861027912758289
    assert substream_seed(1729, 0, 5) == 96521619194722005035
    assert substream_seed(1729, 1, 5) == 96451636921863857529
    assert substream_seed(1729, 0, 5) != substream_seed(1729, 0, 6)


@pytest.mark.parametrize(
    "argv, ks_stat, w1",
    [
        (["verify-c2", "--u", "6", "--n", "5000"], 0.02470062056415978, 0.033914176997212164),
        (["verify-ht", "--alpha", "1", "--u", "10", "--n", "2000"], 0.04200000000000004, 0.06639208356246666),
    ],
    ids=["c2", "ht-alpha-1"],
)
def test_the_default_runs_keep_their_streams(tmp_path, argv, ks_stat, w1):
    # the smooth lane's direct sums and the alpha = 1 Markov walks at seed 1729:
    # a change that claims to keep every stream must leave these bits as they are
    out = tmp_path / "report.json"
    assert main([*argv, "--seed", "1729", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert (report["ks_stat"], report["wasserstein1"]) == (ks_stat, w1)


def test_make_sample_set_sorts_and_validates():
    s = make_sample_set([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        make_sample_set([1.0, math.nan])
    with pytest.raises(DomainError):
        make_sample_set([1.0, math.inf])


def test_ecdf_hand_values():
    s = make_sample_set([1.0, 2.0, 2.0, 5.0])
    assert ecdf(s, 0.5) == 0.0
    assert ecdf(s, 1.0) == 0.25
    assert ecdf(s, 2.0) == 0.75  # right-continuous
    assert ecdf(s, 10.0) == 1.0
    assert ecdf(make_sample_set([1.0, 2.0, 3.0]), 2.0) == pytest.approx(2.0 / 3.0)
    with pytest.raises(EmptySampleError):
        ecdf(make_sample_set([]), 1.0)


def test_ks_one_sample_singleton_hand_oracle():
    stat, p = ks_one_sample(make_sample_set([0.5]), lambda x: min(max(x, 0.0), 1.0))
    assert stat == pytest.approx(0.5, abs=1e-15)
    assert 0.0 <= p <= 1.0


def test_ks_one_sample_matches_scipy_asymptotic():
    rng = generator(substream_seed(101, 0))
    x = rng.standard_normal(200)
    stat, p = ks_one_sample(make_sample_set(x), stats.norm.cdf)
    ref = stats.kstest(x, stats.norm.cdf, method="asymp")
    assert stat == pytest.approx(ref.statistic, abs=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)


def test_ks_two_sample_matches_scipy_statistic():
    rng = generator(substream_seed(102, 0))
    a = rng.standard_normal(150)
    b = rng.standard_normal(230) * 1.1
    stat, p = ks_two_sample(make_sample_set(a), make_sample_set(b))
    ref = stats.ks_2samp(a, b, method="asymp")
    assert stat == pytest.approx(ref.statistic, abs=1e-12)
    # p follows the plain Kolmogorov asymptote (scipy folds in a small-sample
    # correction); check it against the alternating series directly
    z = math.sqrt(150.0 * 230.0 / 380.0) * stat
    series = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * z * z) for k in range(1, 80))
    assert p == pytest.approx(series, rel=1e-9)


def test_kolmogorov_pvalue_matches_scipy_kolmogorov():
    # both series branches, their meeting point x = 1, and the x = 0 edge
    x = np.concatenate([np.linspace(0.0, 10.0, 100_001)[1:], [0.0, 1.0]])
    got = np.array([_kolmogorov_pvalue(float(v), 1.0) for v in x])
    assert np.max(np.abs(got - special.kolmogorov(x))) <= 1e-13
    assert _kolmogorov_pvalue(0.0, 5000.0) == 1.0


def test_ks_two_sample_trivial_cases():
    rng = generator(substream_seed(105, 0))
    x = rng.standard_normal(60)
    same = make_sample_set(x)
    stat, p = ks_two_sample(same, make_sample_set(x.copy()))
    assert stat == 0.0
    assert p == pytest.approx(1.0, abs=1e-12)
    lo = make_sample_set(rng.uniform(0.0, 1.0, 50))
    hi = make_sample_set(rng.uniform(5.0, 6.0, 70))
    stat, p = ks_two_sample(lo, hi)
    assert stat == 1.0
    assert p < 1e-6


def test_ks_one_sample_constant_sample_hand_oracle():
    # 50 copies of 0.3 against the uniform cdf: sup gap is 1 - 0.3
    stat, p = ks_one_sample(make_sample_set([0.3] * 50), lambda x: min(max(x, 0.0), 1.0))
    assert stat == pytest.approx(0.7, abs=1e-15)
    assert p < 1e-9


def test_ks_one_sample_null_calibration():
    # under the null the p-value is near-uniform; tiny p must stay rare
    hits = 0
    for i in range(100):
        x = generator(substream_seed(4242, 0, i)).standard_normal(80)
        _, p = ks_one_sample(make_sample_set(x), stats.norm.cdf)
        hits += p >= 0.01
    assert hits >= 96


def test_ks_two_sample_null_calibration():
    from excursions import C2LimitParams, c2_limit_sample

    params = C2LimitParams(1.0, -2.0)
    hits = 0
    for i in range(100):
        a = c2_limit_sample(params, substream_seed(5353, 0, i), size=10000)
        b = c2_limit_sample(params, substream_seed(5353, 1, i), size=10000)
        _, p = ks_two_sample(make_sample_set(a), make_sample_set(b))
        hits += p >= 0.01
    assert hits >= 96


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
    st.one_of(st.sampled_from([0.0, 0.05, 0.5, 0.95, 0.999, 1.0]), st.floats(0.0, 1.0)),
)
def test_quantile_is_numpys_linear_rule_bit_for_bit(values, q):
    x = np.sort(np.asarray(values))
    assert verify._quantile(x, q) == float(np.quantile(x, q))


def test_wasserstein_equal_sizes_matches_scipy():
    rng = generator(substream_seed(103, 0))
    a = rng.standard_normal(400)
    b = rng.standard_normal(400) + 0.3
    got = wasserstein1(make_sample_set(a), make_sample_set(b))
    ref = stats.wasserstein_distance(a, b)
    assert got == pytest.approx(ref, rel=1e-12)


def test_wasserstein_unequal_sizes_close_to_scipy():
    rng = generator(substream_seed(104, 0))
    a = rng.standard_normal(400)
    b = rng.standard_normal(700) + 0.3
    got = wasserstein1(make_sample_set(a), make_sample_set(b))
    ref = stats.wasserstein_distance(a, b)
    assert got == pytest.approx(ref, abs=0.02)


@settings(max_examples=60, deadline=None)
@given(na=st.integers(1, 3000), nb=st.integers(1, 3000), same=st.booleans())
@example(na=5000, nb=5000, same=True)
def test_wasserstein_matches_np_quantile_inverted_cdf_bit_for_bit(na, nb, same):
    # order statistics looked up by index are np.quantile's inverted-CDF
    # quantiles on the common grid; on equal sizes they are the sorted samples
    rng = generator(substream_seed(107, na, nb))
    a, b = make_sample_set(rng.standard_normal(na)), make_sample_set(rng.standard_exponential(na if same else nb))
    m = max(a.values.size, b.values.size)
    q = (np.arange(m) + 0.5) / m
    qa, qb = (np.quantile(s.values, q, method="inverted_cdf") for s in (a, b))
    assert wasserstein1(a, b) == float(np.mean(np.abs(qa - qb)))
    if same:
        assert wasserstein1(a, b) == float(np.mean(np.abs(a.values - b.values)))


def test_wasserstein_hand_oracles():
    rng = generator(substream_seed(106, 0))
    a = rng.standard_normal(90)
    assert wasserstein1(make_sample_set(a), make_sample_set(a.copy())) == 0.0
    # a pure shift moves every quantile by the same amount
    shifted = wasserstein1(make_sample_set(a), make_sample_set(a + 0.7))
    assert shifted == pytest.approx(0.7, rel=1e-12)
    got = wasserstein1(make_sample_set([0.0, 1.0]), make_sample_set([0.0, 3.0]))
    assert got == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n", [47, 48])
def test_simulated_lengths_are_a_prefix_of_longer_runs(n):
    # replicate i is half i % 2 of substream i // 2, so a run of n replicates,
    # odd or even, is the first n replicates of a longer run
    k = make_kernel(2.0)
    g = c2_grid(6.0)
    short, cens_s = simulate_excursion_lengths(k, 6.0, g, n, 4321)
    longer, cens_l = simulate_excursion_lengths(k, 6.0, g, n + 3, 4321)
    assert cens_s == cens_l == 0  # nothing censored, so indices line up
    np.testing.assert_array_equal(short, longer[:n])


@pytest.mark.parametrize("n", [47, 48])
def test_markov_lengths_are_a_prefix_of_longer_runs(monkeypatch, n):
    # the alpha = 1 path lane walks each substream's rounds from its own
    # generator, so a run is a prefix of a longer one, also when the two runs
    # cut their substreams into blocks differently
    k = make_kernel(1.0)
    g = heavy_tail_grid(k, 10.0)
    monkeypatch.setattr(verify, "_MARKOV_BLOCK", 5)
    short, cens_s = simulate_excursion_lengths(k, 10.0, g, n, 4321)
    monkeypatch.setattr(verify, "_MARKOV_BLOCK", 7)
    longer, cens_l = simulate_excursion_lengths(k, 10.0, g, n + 3, 4321)
    assert cens_s == cens_l == 0  # nothing censored, so indices line up
    np.testing.assert_array_equal(short, longer[:n])


@pytest.mark.parametrize("lane", ["path", "limit"])
def test_markov_lanes_draw_the_law_of_the_fft_lanes(lane):
    # at alpha = 1 the Markov walks and the whole-window FFT draws sample the
    # same law on the same grid, so their interval ends and lengths agree in
    # distribution and in mean (a 10% error in the limit lane's drift reads
    # p < 1e-3 and 5 standard errors at this size)
    n = 5000
    if lane == "path":
        k = make_kernel(1.0)
        grid = heavy_tail_grid(k, 10.0)
        plan = build_sampler(k, grid)
        markov = verify._path_intervals(plan, 10.0, n, 1729, PATH_LANE)[0]
        scan = lambda seeds: crossing_bounds(grid, sample_conditional_exceedance(plan, 10.0, seeds), 10.0)  # noqa: E731
    else:
        grid, c = limit_grid(), c_alpha(1.0)
        markov = verify._limit_intervals(1.0, 1.0, grid, n, 1729, LIMIT_LANE)[0]

        def scan(seeds):
            rngs = generators(seeds)
            b = fbm_two_sided(1.0, grid, rngs)
            return crossing_bounds(grid, limit_process_values(grid, b, _levels(rngs), 1.0, c, 1.0), 0.0)

    fft = np.concatenate(list(replicates(scan, n, 2024, PATH_LANE, 8)))
    assert not np.isnan(markov).any() and not np.isnan(fft).any()
    for column in range(3):  # tau_minus, tau_plus and the length
        a, b = markov[:, column], fft[:, column]
        stat, p = ks_two_sample(make_sample_set(a), make_sample_set(b))
        assert p > 1e-3, (column, stat, p)
        assert abs(a.mean() - b.mean()) <= 4.0 * math.sqrt((a.var() + b.var()) / n), column


def test_noise_free_walks_cross_where_their_recursion_does():
    # with scale 0 the walks are deterministic: a drifted line from 3 crosses 0
    # at |t| = 3, and decay**k * e**2 crosses 1 at |t| = 2 for decay = e**-step,
    # in the third and second round of 128 steps; every generator draws all
    # its rounds' normals regardless
    grid, rngs = Grid(0.01, 5.0), generators([1, 2])
    rows, normals = crossings.markov_intervals(grid, 0.0, np.full(4, 3.0), 1.0, 0.0, -0.01, rngs)
    np.testing.assert_allclose(rows, [[-3.0, 3.0, 6.0]] * 4, rtol=1e-12)
    assert normals == 2 * 3 * 4 * crossings.MARKOV_CHUNK
    rows, normals = crossings.markov_intervals(grid, 1.0, np.full(4, math.e**2), math.exp(-0.01), 0.0, 0.0, rngs)
    np.testing.assert_allclose(rows, [[-2.0, 2.0, 4.0]] * 4, rtol=1e-9)
    assert normals == 2 * 2 * 4 * crossings.MARKOV_CHUNK
    # a window too narrow for either crossing parks every side on its edge
    rows, normals = crossings.markov_intervals(Grid(0.01, 1.5), 0.0, np.full(4, 3.0), 1.0, 0.0, -0.01, rngs)
    assert (rows[:, 0] == -1.5).all() and (rows[:, 1] == 1.5).all() and np.isnan(rows[:, 2]).all()
    assert normals == 2 * 2 * 4 * crossings.MARKOV_CHUNK


def _reference_draw(weights, n, rng):
    """The per-pair circulant draw: real normals, then imaginary normals, for
    the modes up to the largest circular frequency of a nonzero weight, in
    ascending index; zeros elsewhere; one 1-D FFT."""
    m = weights.size
    freq = np.minimum(np.arange(m), m - np.arange(m))
    modes = np.flatnonzero(freq <= freq[weights > 0].max())
    z = np.zeros(m, dtype=complex)
    z.real[modes], z.imag[modes] = rng.standard_normal(modes.size), rng.standard_normal(modes.size)
    z *= weights
    y = np.fft.fft(z)[:n]
    return np.stack((y.real, y.imag))


def _reference_scan(grid, values, u):
    """The scalar scan: nonzero over each side, then linear interpolation in the
    first cell that reaches u; a censored side is parked on the window's edge."""
    o, t, step = grid.origin_index, grid.times(), grid.step
    right = np.nonzero(values[o:] <= u)[0]
    left = np.nonzero(values[: o + 1] <= u)[0]
    tau_plus, tau_minus = t[-1], t[0]
    if right.size:
        j = o + int(right[0])
        tau_plus = t[j - 1] + (values[j - 1] - u) / (values[j - 1] - values[j]) * step
    if left.size:
        i = int(left[-1])
        tau_minus = t[i + 1] - (values[i + 1] - u) / (values[i + 1] - values[i]) * step
    return tau_minus, tau_plus, tau_plus - tau_minus if right.size and left.size else math.nan


def _reference_path_rows(plan, u, n, seed):
    """Interval rows of n conditioned paths, one substream pair at a time."""
    o, sigma = plan.grid.origin_index, math.sqrt(plan.kernel.r0)
    rows = []
    for k in range((n + 1) // 2):
        rng = generator(substream_seed(seed, PATH_LANE, k))
        pair = _reference_draw(plan.spectral_weights, plan.grid.n, rng)
        xi = sigma * np.array([_truncated_std_normal(u / sigma, rng) for _ in pair])
        pair += np.outer(xi - pair[:, o], plan.profile)
        pair[:, o] = xi
        rows += [_reference_scan(plan.grid, values, u) for values in pair]
    return np.array(rows[:n])


def _reference_limit_rows(alpha, grid, n, seed):
    """Interval rows of n limit draws (r0 = 1), one substream pair at a time."""
    weights, c, t = _fgn_weights(alpha, grid)[0], c_alpha(alpha), grid.times()
    rows = []
    for k in range((n + 1) // 2):
        rng = generator(substream_seed(seed, LIMIT_LANE, k))
        increments = _reference_draw(weights, grid.n - 1, rng)
        values = np.concatenate((np.zeros((2, 1)), np.cumsum(increments, axis=1)), axis=1)
        for b in values - values[:, grid.origin_index, None]:
            t_star = float(rng.standard_exponential())
            while t_star == 0.0:
                t_star = float(rng.standard_exponential())
            y = math.sqrt(2.0 * c) * b + t_star - c * np.abs(t) ** alpha
            rows.append(_reference_scan(grid, y, 0.0))
    return np.array(rows[:n])


def _doubling_sums(x, decay):
    """x[..., k] + decay * x[..., k - 1] + ... + decay**k * x[..., 0] along the
    last axis, summed by doubling as the Markov walks sum a chunk, and checked
    against the plain recursion to rounding."""
    powers = decay ** np.arange(1.0, x.shape[-1] + 1)
    plain = x.copy()
    for k in range(1, x.shape[-1]):
        plain[..., k] += decay * plain[..., k - 1]
    d = 1
    while d < x.shape[-1]:
        x[..., d:] += powers[d - 1] * x[..., :-d]
        d *= 2
    np.testing.assert_allclose(x, plain, rtol=1e-12, atol=1e-12 * np.abs(plain).max())
    return x, powers


def _reference_walk_rows(grid, level, start, decay, scale, drift, rng):
    """Interval rows of one generator's two Markov walks, drawn one round of
    (draw, side, step) normals at a time until all four sides have crossed or
    reached the window's edge, and scanned on the whole grid, where every
    point no round reached reads +inf."""
    chunk, arm = crossings.MARKOV_CHUNK, grid.arm
    walk = np.full((2, 2, arm + 1), math.inf)  # draw, side (left, right), steps from the origin
    walk[:, :, 0] = np.asarray(start)[:, None]
    for done in range(0, arm, chunk):
        x, powers = _doubling_sums(scale * rng.standard_normal((2, 2, chunk)) + drift, decay)
        x += powers * walk[:, :, done, None]
        stop = min(done + chunk, arm)
        walk[:, :, done + 1 : stop + 1] = x[..., : stop - done]
        if (walk[:, :, 1:] <= level).any(axis=2).all():
            break
    return [_reference_scan(grid, np.concatenate((side[0, :0:-1], side[1])), level) for side in walk]


def _reference_markov_path_rows(plan, u, n, seed):
    """Interval rows of n alpha = 1 paths, one substream at a time: two origin
    values, then the Ornstein-Uhlenbeck recursion outward on each side."""
    step, sigma = plan.grid.step, math.sqrt(plan.kernel.r0)
    decay, scale = math.exp(-step), math.sqrt(-plan.kernel.r0 * math.expm1(-2.0 * step))
    rows = []
    for k in range((n + 1) // 2):
        rng = generator(substream_seed(seed, PATH_LANE, k))
        xi = [sigma * _truncated_std_normal(u / sigma, rng) for _ in range(2)]
        rows += _reference_walk_rows(plan.grid, u, xi, decay, scale, 0.0, rng)
    return np.array(rows[:n])


def _reference_markov_limit_rows(grid, n, seed):
    """Interval rows of n alpha = 1 limit draws (r0 = 1), one substream at a
    time: two levels t_star, then a drifted Gaussian walk outward on each side."""
    c = c_alpha(1.0)
    rows = []
    for k in range((n + 1) // 2):
        rng = generator(substream_seed(seed, LIMIT_LANE, k))
        t_star = []
        for _ in range(2):
            t_star.append(float(rng.standard_exponential()))
            while t_star[-1] == 0.0:
                t_star[-1] = float(rng.standard_exponential())
        rows += _reference_walk_rows(grid, 0.0, t_star, 1.0, math.sqrt(2.0 * c * grid.step), -c * grid.step, rng)
    return np.array(rows[:n])


# lane id -> (kind, alpha, u)
_LANES = {
    "path-alpha2-u6": ("path", 2.0, 6.0),
    "path-alpha1-u10": ("path", 1.0, 10.0),
    "path-alpha0.75-u10": ("path", 0.75, 10.0),
    "limit-alpha1": ("limit", 1.0, None),
    "limit-alpha0.75": ("limit", 0.75, None),
}


def _engine_and_reference(lane, window, n, seed):
    """(grid, embedding weights or None for a Markov lane, engine rows thunk,
    reference rows) of one lane."""
    kind, alpha, u = _LANES[lane]
    if kind == "limit":
        grid = limit_grid() if window is None else limit_grid(0.02, window)
        engine = lambda: verify._limit_intervals(alpha, 1.0, grid, n, seed, LIMIT_LANE)[0]  # noqa: E731
        if alpha == 1.0:
            return grid, None, engine, _reference_markov_limit_rows(grid, n, seed)
        return grid, _fgn_weights(alpha, grid)[0], engine, _reference_limit_rows(alpha, grid, n, seed)
    k = make_kernel(alpha)
    if alpha == 2.0:
        grid = c2_grid(u) if window is None else c2_grid(u, 0.002, window)
    else:
        grid = heavy_tail_grid(k, u) if window is None else heavy_tail_grid(k, u, 0.02, window)
    plan = build_sampler(k, grid)
    engine = lambda: verify._path_intervals(plan, u, n, seed, PATH_LANE)[0]  # noqa: E731
    if alpha == 1.0:
        return grid, None, engine, _reference_markov_path_rows(plan, u, n, seed)
    return grid, plan.spectral_weights, engine, _reference_path_rows(plan, u, n, seed)


@pytest.mark.parametrize("block", [1, 3, None], ids=["block1", "block3", "default"])
@pytest.mark.parametrize(
    "lane, window, n",
    [
        ("path-alpha2-u6", None, 37),
        ("path-alpha1-u10", None, 37),
        ("limit-alpha1", None, 37),
        ("path-alpha1-u10", 2.5, 201),
        ("path-alpha2-u6", 3.0, 201),
        ("limit-alpha1", 2.5, 201),
        ("path-alpha0.75-u10", None, 37),
        ("limit-alpha0.75", None, 37),
        ("path-alpha0.75-u10", 2.5, 201),
        ("limit-alpha0.75", 2.5, 201),
    ],
    ids=[
        "path-alpha2-u6", "path-alpha1-u10", "limit-alpha1", "path-censored", "path-alpha2-censored", "limit-censored",
        "path-alpha0.75-u10", "limit-alpha0.75", "path-alpha0.75-censored", "limit-alpha0.75-censored",
    ],
)
def test_block_engine_matches_the_per_pair_reference_bit_for_bit(monkeypatch, lane, window, n, block):
    # replicates drawn in blocks of substreams equal those drawn one substream
    # pair at a time, whatever the block size; the 2.5 delta_u and 3/u windows
    # censor both sides of some replicates, so nan lengths and edge parking
    # count too, and the 3/u grid's 3001 points span 5 basis slices, so the
    # smooth lane walks outward to the window's edge.  The alpha = 1 lanes
    # walk their Markov recursions outward, against a reference that draws
    # one substream's rounds at a time; the alpha = 0.75 lanes take the FFT
    grid, weights, engine, reference = _engine_and_reference(lane, window, n, 1729)
    if block is not None:
        if weights is not None:  # whole-row blocks: the FFT lanes, the smooth lane's full draws
            monkeypatch.setattr(sampling, "_BLOCK_BYTES", block * 16 * weights.size)
            assert sampling.block_size(weights) == block
        monkeypatch.setattr(verify, "_OUTWARD_BLOCK", block)  # substreams per outward walk
        monkeypatch.setattr(verify, "_MARKOV_BLOCK", block)  # substreams per Markov walk
    rows = engine()
    assert rows.shape == (n, 3)
    if lane == "path-alpha2-u6":
        # the direct sum adds up the reference's normals on the grid instead of
        # transforming them, so it matches the per-pair FFT to rounding only
        # (9e-15 here); full draws, scanned whole in blocks of block_size
        # substreams, must give the bits of the lane's blocks of 1, 3 or 16
        # substreams
        np.testing.assert_allclose(rows, reference, rtol=0.0, atol=1e-12)
        plan = build_sampler(make_kernel(2.0), grid)
        assert plan.engine == "direct"
        size = sampling.block_size(weights)
        scan = lambda seeds: crossing_bounds(grid, sample_conditional_exceedance(plan, 6.0, seeds), 6.0)  # noqa: E731
        exact = np.concatenate(list(replicates(scan, n, 1729, PATH_LANE, size)))
        np.testing.assert_array_equal(rows, exact)
        assert window is None or len(sampling.direct_slices(plan.basis)) == 5
    else:
        np.testing.assert_array_equal(rows, reference)
    if window is not None:
        t = grid.times()
        assert (reference[:, 0] == t[0]).any() and (reference[:, 1] == t[-1]).any()
        assert np.isnan(reference[:, 2]).any()


@settings(max_examples=40, deadline=None)
@given(
    step=st.floats(min_value=0.005, max_value=0.8, allow_nan=False),
    arms=st.integers(min_value=1, max_value=400),
    r0=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    u=st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
    macs=st.sampled_from([sampling._DIRECT_MACS, 2**11]),
    n=st.integers(min_value=1, max_value=23),
    block=st.sampled_from([1, 3, 16]),
)
@example(step=0.01, arms=400, r0=1.0, u=6.0, macs=2**11, n=23, block=3)  # direct, 267 slices of 3 columns
@example(step=0.01, arms=400, r0=1.0, u=0.5, macs=2**11, n=23, block=16)  # direct, 2 of 23 censored
@example(step=0.02, arms=400, r0=0.5, u=3.0, macs=sampling._DIRECT_MACS, n=9, block=3)  # FFT
def test_path_lane_scans_what_full_draws_scan(step, arms, r0, u, macs, n, block):
    # on any smooth plan and threshold, the path lane (outward from the origin
    # on direct plans) in blocks of 1, 3 or 16 substreams gives the rows of the
    # full conditioned draws' scan, one substream at a time, bit for bit,
    # censored sides and nan lengths included; small products cut the basis
    # into many slices
    kernel, grid = make_kernel(2.0, r0), Grid(step, step * arms)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_DIRECT_MACS", macs)
        plan = build_sampler(kernel, grid)
        draw = partial(sample_conditional_exceedance, plan, u)
        blocks = replicates(lambda s: crossing_bounds(grid, draw(s), u), n, 99, PATH_LANE, 1)
        full = np.concatenate(list(blocks))
        patch.setattr(sampling, "_BLOCK_BYTES", block * 16 * plan.spectral_weights.size)  # FFT plans
        patch.setattr(verify, "_OUTWARD_BLOCK", block)  # direct plans
        lane = verify._path_intervals(plan, u, n, 99, PATH_LANE)[0]
    np.testing.assert_array_equal(lane, full)


def _assert_lane_walks_exactly_to_its_crossings(monkeypatch, plan, u, n):
    """Run the smooth path lane on n replicates and check, block by block, that
    its rows are the full conditioned draws' scan, that it evaluates only
    slices of direct_slices, and that each product evaluates the centre slice
    first, then exactly the slices out to its paths' furthest first point at or
    below u on each side in the full draws (the window's edge where a side is
    censored), each once.  np.matmul multiplies a stack of products'
    coefficients by one slice; it is recorded once per product in the stack,
    known by its coefficient matrix, and by the slice.  Returns the slices
    and, per product, the indices of the slices it evaluated."""
    grid, o, height = plan.grid, plan.grid.origin_index, sampling._DIRECT_ROWS
    slices = sampling.direct_slices(plan.basis)
    index = {(s.start, s.stop): k for k, s in enumerate(slices)}
    base = plan.basis.__array_interface__["data"][0]
    calls, walked, matmul, outward = [], [], np.matmul, verify._outward_intervals

    def record(a, b, **kw):
        start = (b.__array_interface__["data"][0] - base) // b.itemsize
        k = index[start, start + b.shape[1]]  # a KeyError: not one of the slices
        calls.extend((coef.tobytes(), k) for coef in a)
        return matmul(a, b, **kw)

    def lane(plan, u, seeds):
        full = sample_conditional_exceedance(plan, u, seeds)
        calls.clear()
        monkeypatch.setattr(np, "matmul", record)
        rows = outward(plan, u, seeds)
        monkeypatch.setattr(np, "matmul", matmul)
        np.testing.assert_array_equal(rows, crossing_bounds(grid, full, u))
        products = list(dict.fromkeys(a for a, _ in calls))  # in order: each evaluates the centre slice first
        below = full <= u
        for p, product in enumerate(products):
            part = below[height * p : height * (p + 1)]
            # offset of each path's first point at or below u, o where it has none
            left, right = (np.where(s.any(axis=1), s.argmax(axis=1), o).max() for s in (part[:, o::-1], part[:, o:]))
            need = [k for k, s in enumerate(slices) if s.stop > o - left and s.start <= o + right]
            assert sorted(k for a, k in calls if a == product) == need, (p, need)
            assert calls[p] == (product, len(slices) // 2)  # every product starts at the centre slice
            walked.append(need)
        return rows

    monkeypatch.setattr(verify, "_outward_intervals", lane)
    verify._path_intervals(plan, u, n, 1729, PATH_LANE)
    monkeypatch.undo()
    assert len(walked) == -(-n // height)
    return slices, walked


def test_default_smooth_lane_evaluates_only_the_slices_its_crossings_need(monkeypatch):
    # at u = 6 each 8-row product's basis has 7 slices of at most 711 columns,
    # the centre one [1645, 2356) reaching 355 points to each side of the
    # origin; no excursion at seed 1729 reaches more than 617 points from it,
    # so most products evaluate the centre slice alone and none more than one
    # further slice per side, yet the rows are those of the full draws
    plan = build_sampler(make_kernel(2.0), c2_grid(6.0))
    assert plan.engine == "direct"
    slices, walked = _assert_lane_walks_exactly_to_its_crossings(monkeypatch, plan, 6.0, 400)
    assert (slices[3].start, slices[3].stop) == (1645, 2356) and len(slices) == 7
    assert 1 < max(map(len, walked)) <= 3
    assert sum(len(need) == 1 for need in walked) > len(walked) / 2


def test_smooth_lane_walks_a_censored_side_to_the_window_edge(monkeypatch):
    # a 3/u window censors some paths: their products walk that side out to the
    # window's edge, while the others still stop at their crossings
    plan = build_sampler(make_kernel(2.0), c2_grid(6.0, 0.002, 3.0))
    assert plan.engine == "direct"
    slices, walked = _assert_lane_walks_exactly_to_its_crossings(monkeypatch, plan, 6.0, 400)
    edges = {0, len(slices) - 1}
    assert any(edges & set(need) for need in walked)
    assert not all(edges & set(need) for need in walked)


def test_memory_stays_flat_in_the_run_size():
    # a run holds one block of paths at a time
    k, g = make_kernel(2.0), c2_grid(6.0)
    simulate_excursion_lengths(k, 6.0, g, 40, 1)  # warm-up
    peaks = {}
    for n in (400, 2000):
        tracemalloc.start()
        try:
            simulate_excursion_lengths(k, 6.0, g, n, 1729)
            peaks[n] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert peaks[2000] <= 3.0, peaks
    assert abs(peaks[2000] - peaks[400]) < 0.25, peaks


@pytest.mark.parametrize("lane", ["path", "limit"])
def test_fft_lane_memory_stays_flat_in_the_run_size(monkeypatch, lane):
    # the alpha = 0.75 lanes draw on the pool, one substream a block here, so a
    # run of n replicates has n / 2 blocks: once a first run has warmed the
    # caches, runs of 400 and 2000 peak alike but for their rows, 3 floats a
    # replicate kept as one small array a block, then concatenated (about
    # 250 kB for the 800 more blocks).  With every block submitted at once,
    # their futures and seeds would add about 1.3 MB.
    monkeypatch.setattr(streams, "_worker_count", lambda: 2)
    monkeypatch.setattr(sampling, "_BLOCK_BYTES", 1)
    k = make_kernel(0.75)
    plan = build_sampler(k, heavy_tail_grid(k, 10.0, 0.02, 5.0))
    limit = limit_grid(0.02, 5.0)
    run = {
        "path": lambda n: verify._path_intervals(plan, 10.0, n, 1729, PATH_LANE),
        "limit": lambda n: verify._limit_intervals(0.75, 1.0, limit, n, 1729, LIMIT_LANE),
    }[lane]
    run(40)  # warm-up
    peaks = {}
    for n in (400, 2000):
        tracemalloc.start()
        try:
            run(n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] - peaks[400] <= 2**19, peaks


def test_lane_separation():
    k = make_kernel(2.0)
    g = c2_grid(6.0)
    a, _ = simulate_excursion_lengths(k, 6.0, g, 30, 4321, lane=PATH_LANE)
    b, _ = simulate_excursion_lengths(k, 6.0, g, 30, 4321, lane=LIMIT_LANE)
    assert not np.array_equal(a, b)


def test_limit_lengths_near_alpha_2_follow_the_smooth_law():
    # as alpha -> 2 the limit interval tends to r0 sqrt(2 / c_alpha) chi_3, the
    # smooth regime's law at scale 1; the median interval at alpha = 1.99 spans
    # about 15 points of the default 0.01 step, where the grid's monitoring gap
    # fails this check (p = 0.002 at seed 1729), so the step is 0.0025
    lengths, censored = draw_limit_lengths(1.99, 1.0, limit_grid(0.0025), 2000, 1729)
    assert censored == 0
    scaled = make_sample_set(lengths * math.sqrt(c_alpha(1.99) / 2.0))
    params = C2LimitParams(1.0, -4.0)
    assert params.scale == 1.0
    _, p = ks_one_sample(scaled, partial(c2_limit_cdf, params))
    assert p > 0.01


@pytest.mark.parametrize("n", [23, 24])
def test_draw_limit_lengths_are_a_prefix_of_longer_runs(n):
    short, cens_s = draw_limit_lengths(1.0, 1.0, Grid(0.02, 6.0), n, 777)
    longer, cens_l = draw_limit_lengths(1.0, 1.0, Grid(0.02, 6.0), n + 3, 777)
    assert cens_s == cens_l == 0  # nothing censored, so indices line up
    np.testing.assert_array_equal(short, longer[:n])


def test_median_excursion_length_shrinks_with_threshold():
    k = make_kernel(2.0)
    m6 = median_excursion_length(k, 6.0, c2_grid(6.0), 300, 31415)
    m12 = median_excursion_length(k, 12.0, c2_grid(12.0), 300, 31415)
    assert 0.0 < m12 < m6


def test_scaled_length_law_stable_under_threshold_doubling():
    # u * length has a u-free limit, so the scaled samples at u and 2u
    # should be statistically indistinguishable at this resolution
    k = make_kernel(2.0)
    lo, _ = simulate_excursion_lengths(k, 6.0, c2_grid(6.0), 5000, 61)
    hi, _ = simulate_excursion_lengths(k, 12.0, c2_grid(12.0), 5000, 62)
    stat, p = ks_two_sample(make_sample_set(6.0 * lo), make_sample_set(12.0 * hi))
    assert stat <= 0.05
    assert p >= 1e-4


def test_covariance_panel_structure_and_targets():
    k = make_kernel(1.0)
    u = 10.0
    d = delta_u(k, u)
    g = Grid(d / 10.0, 3.0 * d)
    rows = covariance_panel(k, u, [(1.0, 1.0), (1.0, 2.0), (-1.0, 1.0)], 80, 5150, grid=g)
    assert len(rows) == 3
    c = c_alpha(1.0)
    for row, (s, t) in zip(rows, [(1.0, 1.0), (1.0, 2.0), (-1.0, 1.0)]):
        assert set(row) == {"s", "t", "empirical", "target", "finite_u_target", "se", "n"}
        expected = c * (abs(s) + abs(t) - abs(s - t))
        assert row["target"] == pytest.approx(expected, rel=1e-12)
        # R(t) = exp(-|t|): u^2 (R((s-t) d) - R(s d) R(t d) / R(0))
        exact = u * u * (math.exp(-abs(s - t) * d) - math.exp(-(abs(s) + abs(t)) * d))
        assert row["finite_u_target"] == pytest.approx(exact, rel=1e-12, abs=1e-12)
        assert np.isfinite(row["empirical"]) and row["se"] > 0.0
        assert row["n"] == 80


def test_covariance_panel_matches_the_exact_finite_u_target():
    # acceptance test 8's setup; the residual is independent of X_0, so its
    # covariance is u^2 (R(s - t) - R(s) R(t) / R(0)) at any u, not only as u -> inf
    rows = covariance_panel(make_kernel(1.0), 10.0, [(1.0, 1.0), (1.0, 2.0), (-1.0, 1.0)], 1500, 1729)
    for row in rows:
        assert abs(row["empirical"] - row["finite_u_target"]) <= 3.0 * row["se"], row
    # at alpha = 1 the residuals on opposite sides of the origin are uncorrelated
    assert rows[2]["finite_u_target"] == 0.0


@pytest.mark.parametrize("alpha,window", [(0.75, 50.0), (0.75, 20.0), (1.0, 20.0)])
def test_panel_rows_are_the_conditioned_paths_residuals(alpha, window):
    # the panel reads its columns off unconditional draws and draws no
    # exceedance, yet its rows are, to rounding, u * Z of the conditioned
    # paths; an odd n drops the last pair's second path
    k, u, n = make_kernel(alpha), 10.0, 41
    plan = build_sampler(k, heavy_tail_grid(k, u, 0.01, window))
    o, step = plan.grid.origin_index, round(1.0 / 0.01)
    cols = [o - step, o, o + step, o + 2 * step, plan.grid.n - 1]
    draw = partial(sample_conditional_exceedance, plan, u)
    paths = np.concatenate(list(replicates(draw, n, 1729, PATH_LANE, 3)))
    want = u * (paths[:, cols] - plan.profile[cols] * paths[:, o, None])
    got = verify._panel_rows(plan, u, cols, n, 1729)
    assert got.shape == want.shape == (n, len(cols))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert (got[:, 1] == 0.0).all()


@pytest.mark.parametrize("alpha", [0.75, 2.0])
def test_panel_rows_do_not_depend_on_the_panel_block_size(monkeypatch, alpha):
    # panel rows drawn in blocks of 1, 3 and 16 substreams are equal bit for
    # bit: a heavy-tail plan transforms each row on its own, and a smooth
    # plan's direct-sum products hold four substreams each, zero padded where
    # a block ends mid-product
    k = make_kernel(alpha)
    u, grid = (10.0, heavy_tail_grid(k, 10.0)) if alpha < 2.0 else (6.0, c2_grid(6.0))
    plan = build_sampler(k, grid)
    assert plan.engine == ("fft" if alpha < 2.0 else "direct")
    o = plan.grid.origin_index
    cols = [o - 100, o + 100, o + 200]
    rows = []
    for block in (1, 3, 16):
        monkeypatch.setattr(sampling, "_BLOCK_BYTES", block * 16 * plan.spectral_weights.size)
        assert sampling.block_size(plan.spectral_weights) == block
        rows.append(verify._panel_rows(plan, u, cols, 41, 1729))
    assert rows[0].shape == (41, 3)
    for got in rows[1:]:
        np.testing.assert_array_equal(got, rows[0])


_PANEL_PAIRS = [(1.0, 1.0), (1.0, 2.0), (-1.0, 1.0)]


@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.5])
def test_covariance_panel_does_not_depend_on_the_window(alpha):
    # the panel draws on the smallest grid that holds its times, so windows of
    # 3, 20 and 50 delta_u at one step give the same numbers bit for bit
    k, u = make_kernel(alpha), 10.0
    panels = [covariance_panel(k, u, _PANEL_PAIRS, 101, 1729, heavy_tail_grid(k, u, 0.01, w)) for w in (3.0, 20.0, 50.0)]
    assert panels[0] == panels[1] == panels[2]


@pytest.mark.parametrize("pairs,arm", [(_PANEL_PAIRS, 200), ([(-1.5, 0.5)], 150), ([(0.0, 0.0)], 1)])
def test_covariance_panel_plan_spans_its_furthest_time(monkeypatch, pairs, arm):
    # the plan's grid keeps the step and reaches the furthest panel time, and
    # at least one step when every time is the origin
    k, u = make_kernel(0.75), 10.0
    grid, plans = heavy_tail_grid(k, u), []

    def recorded(*args):
        plans.append(build_sampler(*args))
        return plans[-1]

    monkeypatch.setattr(verify, "build_sampler", recorded)
    covariance_panel(k, u, pairs, 21, 1729, grid)
    [plan] = plans
    assert plan.grid.step == grid.step and plan.grid.n == 2 * arm + 1


@pytest.mark.parametrize("alpha", [0.75, 1.0])
def test_covariance_panel_rows_are_the_residuals_of_paths_drawn_whole_on_its_grid(monkeypatch, alpha):
    # on a 50 delta_u window the panel's rows are still, to rounding, u * Z of
    # conditioned paths drawn whole by FFT on its own 401-point grid
    k, u, n = make_kernel(alpha), 10.0, 41
    grid = heavy_tail_grid(k, u, 0.01, 50.0)
    panel_rows, seen = verify._panel_rows, []

    def recorded(*args):
        seen.append(panel_rows(*args))
        return seen[-1]

    monkeypatch.setattr(verify, "_panel_rows", recorded)
    rows = covariance_panel(k, u, _PANEL_PAIRS, n, 1729, grid)
    own = build_sampler(k, Grid(grid.step, 200 * grid.step))
    o = own.grid.origin_index
    col = {-1.0: o - 100, 1.0: o + 100, 2.0: o + 200}
    paths = np.concatenate(list(replicates(partial(sample_conditional_exceedance, own, u), n, 1729, PATH_LANE, 3)))
    want = u * (paths[:, list(col.values())] - own.profile[list(col.values())] * paths[:, o, None])
    [got] = seen
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    scale = float(np.var(want, ddof=1, axis=0).max())
    index = {t: j for j, t in enumerate(col)}
    for row, (s, t) in zip(rows, _PANEL_PAIRS):
        cov = np.cov(want[:, index[s]], want[:, index[t]], ddof=1)[0, 1]
        assert row["empirical"] == pytest.approx(cov, rel=1e-12, abs=1e-12 * scale)


def test_covariance_panel_memory_does_not_grow_with_n(monkeypatch):
    # each block's whole 401-point rows are cut to the panel's columns before
    # they are yielded: with one substream per block, runs of 200 and 2000
    # substreams peak alike once a first run has warmed the caches (kept
    # whole, the rows of 3600 more paths would take about 11 MB)
    k = make_kernel(0.75)
    monkeypatch.setattr(sampling, "_BLOCK_BYTES", 1)
    covariance_panel(k, 10.0, _PANEL_PAIRS, 40, 1729)  # warm-up
    peaks = {}
    for n in (400, 4000):
        tracemalloc.start()
        try:
            covariance_panel(k, 10.0, _PANEL_PAIRS, n, 1729)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4000] - peaks[400] <= 2 * 2**20, peaks


def test_covariance_panel_rejects_offgrid_times():
    k = make_kernel(1.0)
    d = delta_u(k, 10.0)
    g = Grid(d / 10.0, 3.0 * d)
    with pytest.raises(DomainError):
        covariance_panel(k, 10.0, [(0.333, 1.0)], 50, 1, grid=g)


def test_run_verification_input_validation():
    # the regime is read from alpha, so only n and u can be out of range
    k2 = make_kernel(2.0)
    with pytest.raises(DomainError):
        run_verification(k2, 6.0, c2_grid(6.0), 50, 1)  # n below the floor
    for u in (0.0, math.nan):
        with pytest.raises(DomainError):
            run_verification(k2, u, c2_grid(6.0), 200, 1)


def test_run_verification_c2_report_contract():
    k = make_kernel(2.0)
    report = run_verification(k, 6.0, c2_grid(6.0), 150, 2023, extra_config={"note": "unit"})
    assert report.regime == "C2"
    assert report.n == 150
    assert report.passed == (report.ks_stat <= report.ks_threshold)
    assert report.delta_u is None
    assert [q["p"] for q in report.quantiles] == list(QUANTILE_PROBS)
    assert report.config["note"] == "unit"
    assert report.config["censor_budget"] == CENSOR_BUDGET
    payload = json.dumps(report.to_dict())  # must be JSON-clean
    assert json.loads(payload)["schema_version"] == 12
    assert "delta_u" not in json.loads(payload)  # None fields are dropped
    assert report.wasserstein1 >= 0.0
    assert report.runtime_seconds > 0.0


def test_run_verification_heavy_tail_report_contract():
    k = make_kernel(1.0)
    report = run_verification(k, 10.0, heavy_tail_grid(k, 10.0), 120, 2024, limit=limit_grid(0.02, 6.0))
    assert report.regime == "HeavyTail"
    assert report.delta_u == pytest.approx(math.pi / 100.0, abs=1e-14)
    assert report.n_censored_limit is not None
    assert "limit_grid" in report.config
    json.dumps(report.to_dict())


def test_run_verification_enforces_censor_budget():
    # a window far smaller than the typical excursion censors nearly everything
    k = make_kernel(2.0)
    with pytest.raises(CensorBudgetExceeded):
        run_verification(k, 6.0, c2_grid(6.0, window_factor=0.5), 150, 7)


_REACH_KEYS = ("reach_p50", "reach_p99", "reach_p999", "reach_max")


def test_censoring_block_counts_each_side(monkeypatch):
    # a 2.5 delta_u window censors a few replicates of each lane on each side;
    # the per-side counts are those of the lane's rows, and a replicate
    # censored on both sides counts once in the lane's total
    monkeypatch.setattr(verify, "CENSOR_BUDGET", 1.0)
    k, n = make_kernel(1.0), 400
    grid, limit = heavy_tail_grid(k, 10.0, 0.02, 2.5), limit_grid(0.02, 2.5)
    report = run_verification(k, 10.0, grid, n, 13, limit=limit)
    lanes = {
        "path": (verify._path_intervals(build_sampler(k, grid), 10.0, n, 13, PATH_LANE)[0], grid, report.n_censored),
        "limit": (verify._limit_intervals(1.0, 1.0, limit, n, 13, LIMIT_LANE)[0], limit, report.n_censored_limit),
    }
    for lane, (rows, g, total) in lanes.items():
        block, t = report.censoring[lane], g.times()
        left, right = rows[:, 0] == t[0], rows[:, 1] == t[-1]
        assert min(block["censored_left"], block["censored_right"]) > 0
        assert (block["censored_left"], block["censored_right"]) == (left.sum(), right.sum())
        assert total == (left | right).sum() == np.isnan(rows[:, 2]).sum()
        # a censored side is parked on the window's last grid point
        assert block["reach_max"] == 1.0


@pytest.mark.parametrize("alpha, u", [(2.0, 6.0), (1.0, 10.0), (0.75, 10.0)])
def test_report_blocks_on_an_uncensored_run(alpha, u):
    k = make_kernel(alpha)
    grid = c2_grid(u) if alpha == 2.0 else heavy_tail_grid(k, u)
    n = 200
    report = run_verification(k, u, grid, n, 2024, limit=limit_grid(0.02, 6.0))
    lanes = ["path"] if alpha == 2.0 else ["limit", "path"]  # a smooth run ignores the limit grid
    assert report.n_censored == (report.n_censored_limit or 0) == 0
    assert sorted(report.censoring) == sorted(report.synthesis) == lanes
    for lane in lanes:
        block = report.censoring[lane]
        assert block["censored_left"] == block["censored_right"] == 0
        reach = [block[key] for key in _REACH_KEYS]
        assert 0.0 < reach[0] <= reach[1] <= reach[2] <= reach[3] < 1.0
        synthesis = report.synthesis[lane]
        if alpha == 1.0:
            # both lanes walk their exact recursion: every pair draws whole
            # rounds of 4 * MARKOV_CHUNK normals, at least one
            assert set(synthesis) == {"engine", "normals_per_pair"} and synthesis["engine"] == "markov"
            per_round = 4 * crossings.MARKOV_CHUNK
            assert synthesis["normals_per_pair"] >= per_round
            assert (synthesis["normals_per_pair"] * (n // 2)) % per_round == 0
            continue
        assert synthesis["embed_factor"] >= 1
        assert 0.0 <= synthesis["fro_error"] <= FACTOR_TOL
        assert synthesis["fft_len"] == 2 * _next_smooth(synthesis["fft_len"] // 2)
        assert synthesis["engine"] == ("direct" if alpha == 2.0 else "fft")
    if alpha != 1.0:
        assert report.synthesis["path"]["fft_len"] == 2 * (grid.n - 1)
    assert set(report.config["versions"]) == {"excursions", "numpy"}
    assert report.config["versions"]["numpy"] == np.__version__
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["censoring"] == report.censoring and payload["synthesis"] == report.synthesis


def _plan_synthesis(plan):
    return verify._synthesis(plan.spectral_weights, plan.fro_error, plan.embed_factor, plan.band, plan.engine)


@pytest.mark.parametrize("u", [6.0, 10.0, 14.0])
def test_smooth_paths_draw_only_the_band_of_modes_that_carry_variance(u):
    # exp(-t**2) has a spectral density falling like exp(-w**2 / 4): a few
    # dozen of the circulant's modes keep a weight, and the clamped spectrum
    # still delivers the grid covariance
    block = _plan_synthesis(build_sampler(make_kernel(2.0), c2_grid(u)))
    assert block["fro_error"] <= FACTOR_TOL
    assert block["modes"] % 2 == 1 and block["modes"] < block["fft_len"]
    assert block["engine"] == "direct"  # a sum over the band costs less than the FFT
    if u == 6.0:
        assert (block["modes"], block["fft_len"]) == (45, 8000)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5])
def test_heavy_tail_embeddings_draw_every_mode(alpha):
    # every heavy-tail path plan, every fGn plan on the limit grid and the
    # diagnostics plan keep all their modes, so their streams are unchanged
    k = make_kernel(alpha)
    blocks = [verify._synthesis(*_fgn_weights(alpha, limit_grid()))]
    blocks += [_plan_synthesis(build_sampler(k, heavy_tail_grid(k, u))) for u in (6.0, 10.0)]
    if alpha == 0.75:
        blocks.append(_plan_synthesis(build_sampler(k, heavy_tail_grid(k, 10.0, 0.01, 50.0))))
        assert blocks[-1]["fft_len"] == 20000
    for block in blocks:
        assert block["modes"] == block["fft_len"]
        assert block["engine"] == "fft"


def test_default_heavy_tail_window_covers_the_longest_reach():
    # alpha = 0.5 reaches furthest in delta_u units; the default window must
    # keep its censor rate well inside the budget at a high threshold
    k = make_kernel(0.5)
    n = 2000
    _, n_censored = simulate_excursion_lengths(k, 14.0, heavy_tail_grid(k, 14.0), n, 1729)
    assert n_censored / n <= CENSOR_BUDGET / 5
