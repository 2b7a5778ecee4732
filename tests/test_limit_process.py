"""Two-sided fractional Brownian motion and the heavy-tail limit interval."""

import math
from functools import partial

import numpy as np
import pytest

from excursions import (
    DomainError,
    Grid,
    c_alpha,
    crossing_bounds,
    fbm_two_sided,
    limit_grid,
    limit_process_values,
    sample_limit_length,
    sample_tilde_length,
)
from excursions.limit_process import _fgn_weights
from excursions.sampling import FACTOR_TOL
from excursions.streams import generator, replicates, substream_seed


def _fbm_cov(times, alpha):
    """Oracle: two-sided fBm covariance (|s|^a + |t|^a - |s-t|^a) / 2."""
    s = np.abs(times[:, None]) ** alpha
    t = np.abs(times[None, :]) ** alpha
    d = np.abs(times[:, None] - times[None, :]) ** alpha
    return 0.5 * (s + t - d)


def _hitting(grid, values):
    """Zero-hitting interval of limit-path values around the origin."""
    return crossing_bounds(grid, values, 0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_fbm_factor_reconstructs_covariance(alpha):
    # covariance the circulant weights deliver to the fGn increments, mapped
    # through cumsum-and-pin, must be the exact fBm covariance on the grid
    g = Grid(0.25, 1.5)
    weights, fro_error, *_ = _fgn_weights(alpha, g)
    assert fro_error <= FACTOR_TOL
    m = g.n - 1
    fgn_row = np.fft.ifft(weights**2 * weights.size).real[:m]
    lag = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    fgn_cov = fgn_row[lag]
    cumsum = np.tril(np.ones((g.n, m)), k=-1)  # B(t_j) - B(t_0) = sum of the first j increments
    pinned = cumsum - cumsum[g.origin_index]
    realized = pinned @ fgn_cov @ pinned.T
    np.testing.assert_allclose(realized, _fbm_cov(g.times(), alpha), rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5])
def test_default_limit_grid_embeds_on_a_smooth_fft_length(alpha):
    # 2000 increments: the row out to lag 1999 (prime) is padded to lag 2000
    weights, fro_error, embed_factor, _ = _fgn_weights(alpha, limit_grid())
    assert (weights.size, embed_factor) == (4000, 1)
    assert fro_error <= FACTOR_TOL


def test_fbm_cov_hand_values():
    # cov(s, t) = (|s|^a + |t|^a - |s-t|^a) / 2 at a = 1: min for same signs
    t = np.array([-1.0, 0.5, 2.0])
    cov = _fbm_cov(t, 1.0)
    assert cov[1, 2] == pytest.approx(0.5, abs=1e-14)  # min(0.5, 2)
    assert cov[0, 1] == pytest.approx(0.0, abs=1e-14)  # opposite signs
    assert cov[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_fbm_two_sided_pins_origin_and_is_deterministic():
    g = Grid(0.1, 1.0)
    pair = fbm_two_sided(1.0, g, 314)
    np.testing.assert_array_equal(pair, fbm_two_sided(1.0, g, 314))
    np.testing.assert_array_equal(pair, fbm_two_sided(1.0, g, generator(314)))  # seed or Generator
    assert pair.shape == (2, g.n)
    assert np.all(pair[:, g.origin_index] == 0.0)
    assert not np.array_equal(pair[0], pair[1])


def test_fbm_empirical_variance_scales_as_hurst_law():
    # both halves of each draw follow the Hurst law, and the halves are
    # independent: their cross-covariance vanishes
    g = Grid(0.5, 2.0)
    n = 3000
    pairs = [fbm_two_sided(0.5, g, substream_seed(11, 0, i)) for i in range(n)]
    first = np.vstack([a for a, _ in pairs])
    second = np.vstack([b for _, b in pairs])
    t = g.times()
    for idx in (0, g.n - 1, g.origin_index + 2):
        if idx == g.origin_index:
            continue
        target = abs(t[idx]) ** 0.5
        se = target * math.sqrt(2.0 / (n - 1))  # chi-square spread of a variance
        for vals in (first, second):
            assert abs(vals[:, idx].var(ddof=1) - target) <= 4.0 * se
        cross = np.cov(first[:, idx], second[:, idx], ddof=1)[0, 1]
        assert abs(cross) <= 4.0 * target / math.sqrt(n)  # spread of a null covariance


def test_limit_process_deterministic_drift_geometry():
    # with the noise switched off, Y_t = r0 t* - (c/r0) |t|^alpha for t != 0
    g = Grid(0.01, 10.0)
    y = limit_process_values(g, np.zeros(g.n), 2.0, 1.0, c_alpha(1.0), 1.0)
    assert y[g.origin_index] == 2.0  # Y(0) = r0 * t*, exactly
    tau_minus, tau_plus, length = _hitting(g, y)
    root = 2.0 / c_alpha(1.0)  # solves t* = c |t|
    assert tau_plus == pytest.approx(root, abs=1e-9)
    assert tau_minus == pytest.approx(-root, abs=1e-9)
    assert length == pytest.approx(2.0 * root, abs=1e-9)  # finite: neither side censored


def test_tilde_process_deterministic_drift_geometry():
    # the drift-normalized variant is the limit process with c = r0 = 1
    g = Grid(0.01, 10.0)
    y = limit_process_values(g, np.zeros(g.n), 0.5, 1.0, 1.0, 1.0)
    assert y[g.origin_index] == 0.5
    tau_minus, tau_plus, _ = _hitting(g, y)
    assert tau_plus == pytest.approx(0.5, abs=1e-12)
    assert tau_minus == pytest.approx(-0.5, abs=1e-12)


def test_limit_process_mean_drift():
    # averaged over unit-exponential t* and fBm noise, E Y_t = r0 - (c/r0)|t|^a
    g = Grid(0.25, 1.0)
    col = g.origin_index + 4  # t = 1
    n = 2000
    vals = np.empty(n)
    fbms = np.concatenate(list(replicates(partial(fbm_two_sided, 1.0, g), n, 17, 1, 8)))
    for i, fbm in enumerate(fbms):
        t_star = float(generator(substream_seed(17, 0, i)).standard_exponential())
        vals[i] = limit_process_values(g, fbm, t_star, 1.0, c_alpha(1.0), 1.0)[col]
    target = 1.0 - c_alpha(1.0)
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - target) <= 3.0 * se


def test_tilde_and_limit_scaling_identity_without_noise():
    # tilde lengths equal c_alpha^(1/alpha) times limit lengths, realization-wise
    alpha, t_star = 1.0, 2.0
    c = c_alpha(alpha)
    scale = c ** (1.0 / alpha)
    g_lim, g_til = Grid(0.01, 10.0), Grid(0.01 * scale, 10.0 * scale)
    lim = _hitting(g_lim, limit_process_values(g_lim, np.zeros(g_lim.n), t_star, alpha, c, 1.0))
    til = _hitting(g_til, limit_process_values(g_til, np.zeros(g_til.n), t_star, alpha, 1.0, 1.0))
    assert til[2] == pytest.approx(scale * lim[2], abs=1e-9)


def test_limit_process_validation():
    g = Grid(0.1, 1.0)
    b = np.zeros(g.n)
    with pytest.raises(DomainError):
        fbm_two_sided(2.0, g, 1)  # no fBm at Hurst index 1
    with pytest.raises(DomainError):
        limit_process_values(g, b, 1.0, 0.5, c_alpha(0.5), -1.0)
    with pytest.raises(DomainError):
        limit_process_values(g, b, 0.0, 0.5, c_alpha(0.5), 1.0)
    with pytest.raises(DomainError):
        limit_process_values(g, b, -2.0, 0.5, 1.0, 1.0)


def test_sample_limit_length_deterministic_and_positive():
    g = Grid(0.02, 8.0)
    a = sample_limit_length(1.0, 1.0, g, 55)
    b = sample_limit_length(1.0, 1.0, g, 55)
    assert a.shape == (2, 3)  # (tau_minus, tau_plus, length) of each half
    assert not np.isnan(a).any()  # neither draw censored
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a[0], a[1])
    for tau_minus, tau_plus, length in np.concatenate(
        list(replicates(partial(sample_limit_length, 1.0, 1.0, g), 50, 56, 1, 8))
    ):
        if math.isnan(length):  # censored: a side is parked on the window's edge
            assert tau_minus == -8.0 or tau_plus == 8.0
        else:
            assert tau_minus < 0.0 < tau_plus
            assert length == pytest.approx(tau_plus - tau_minus, abs=1e-12)


def test_sample_tilde_length_deterministic():
    g = Grid(0.05, 10.0)
    a = sample_tilde_length(0.75, g, 77)
    b = sample_tilde_length(0.75, g, 77)
    assert a.shape == (2, 3)
    assert not np.isnan(a).any()  # neither draw censored
    np.testing.assert_array_equal(a, b)


def test_narrow_window_censors_without_bias():
    # a draw on [-1, 1] is censored exactly when the interval reaches past
    # |t| = 1, so its censor rate must match that share on a wide window;
    # redrawing censored intervals would push the narrow rate toward zero
    n = 2000
    def draws(half_width, lane):
        draw = partial(sample_limit_length, 1.0, 1.0, Grid(0.01, half_width))
        return np.concatenate(list(replicates(draw, n, 99, lane, 8)))

    narrow = int(np.isnan(draws(1.0, 1)[:, 2]).sum())
    wide_draws = draws(10.0, 2)
    wide = int((np.isnan(wide_draws[:, 2]) | (np.abs(wide_draws[:, :2]).max(axis=1) > 1.0)).sum())
    p_narrow, p_wide = narrow / n, wide / n
    se = math.sqrt((p_narrow * (1.0 - p_narrow) + p_wide * (1.0 - p_wide)) / n)
    assert p_narrow > 0.05  # the narrow window does censor
    assert abs(p_narrow - p_wide) <= 4.0 * se


def test_limit_length_rejects_smooth_exponent():
    with pytest.raises(DomainError):
        sample_limit_length(2.0, 1.0, Grid(0.05, 5.0), 1)
