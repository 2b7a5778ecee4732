"""Excursion endpoint measurement and the smooth-regime root predictor."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from excursions import (
    DomainError,
    Grid,
    PreconditionError,
    build_sampler,
    c2_grid,
    c2_root_predictor,
    crossing_bounds,
    heavy_tail_grid,
    limit_grid,
    make_kernel,
    path_derivative_at_zero,
    sample_conditional_exceedance,
    sample_limit_length,
)
from excursions.streams import replicates


def _path(values, step=1.0):
    """(grid, values) of a hand-written path centred on its middle point."""
    values = np.asarray(values, dtype=float)
    arm = (values.size - 1) // 2
    return Grid(step, step * arm), values


def test_crossing_bounds_hand_oracle():
    # v = [0, 1, 3, 1, 0] on integer times; u = 2 crosses halfway on each side
    res = crossing_bounds(*_path([0.0, 1.0, 3.0, 1.0, 0.0]), 2.0)
    assert res.tau_plus == pytest.approx(0.5, abs=1e-12)
    assert res.tau_minus == pytest.approx(-0.5, abs=1e-12)
    assert res.length == pytest.approx(1.0, abs=1e-12)
    assert not res.censored_left and not res.censored_right


def test_crossing_bounds_interpolation_fraction():
    # right crossing between t=1 (v=4) and t=2 (v=1): frac = (4-2)/(4-1)
    res = crossing_bounds(*_path([0.0, 5.0, 6.0, 4.0, 1.0], step=1.0), 2.0)
    assert res.tau_plus == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-12)
    # re-evaluating the linear interpolant at the crossing recovers the level
    frac = res.tau_plus - 1.0
    assert 4.0 + frac * (1.0 - 4.0) == pytest.approx(2.0, abs=1e-12)


def test_parabola_crossing_matches_exact_roots():
    g = Grid(0.001, 1.5)
    t = g.times()
    res = crossing_bounds(g, 1.0 - t * t, 0.0)
    assert res.tau_plus == pytest.approx(1.0, abs=1e-5)
    assert res.tau_minus == pytest.approx(-1.0, abs=1e-5)
    assert res.length == pytest.approx(2.0, abs=2e-5)


def test_crossing_bounds_exact_touch_counts_as_crossing():
    res = crossing_bounds(*_path([0.0, 2.0, 3.0, 2.0, 0.0]), 2.0)
    # grid value exactly at the level ends the excursion there
    assert res.tau_plus == pytest.approx(1.0, abs=1e-12)
    assert res.tau_minus == pytest.approx(-1.0, abs=1e-12)


def test_crossing_bounds_censoring_flags():
    res = crossing_bounds(*_path([3.0, 4.0, 5.0, 4.0, 3.0]), 2.0)
    assert res.censored_left and res.censored_right
    assert math.isnan(res.length)
    assert res.tau_minus == -2.0 and res.tau_plus == 2.0

    res = crossing_bounds(*_path([3.0, 4.0, 5.0, 4.0, 1.0]), 2.0)
    assert res.censored_left and not res.censored_right
    assert math.isnan(res.length)
    assert res.tau_plus == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-12)


def test_crossing_bounds_requires_exceedance_at_origin():
    with pytest.raises(PreconditionError):
        crossing_bounds(*_path([0.0, 1.0, 2.0, 1.0, 0.0]), 2.0)  # equal is not above


@settings(max_examples=200, deadline=None)
@given(
    vals=st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        min_size=7,
        max_size=7,
    ),
    u=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_crossing_bounds_ordering_property(vals, u):
    vals = list(vals)
    vals[3] = u + 1.0  # force exceedance at the origin
    res = crossing_bounds(*_path(vals), u)
    assert res.tau_minus <= 0.0 <= res.tau_plus
    assert -3.0 <= res.tau_minus and res.tau_plus <= 3.0
    if res.censored_left or res.censored_right:
        assert math.isnan(res.length)
    else:
        assert res.length == pytest.approx(res.tau_plus - res.tau_minus, abs=1e-12)
        assert res.length >= 0.0
    # raising the level never widens the excursion
    higher = crossing_bounds(*_path(vals), u + 0.25)
    if not any(
        (res.censored_left, res.censored_right, higher.censored_left, higher.censored_right)
    ):
        assert higher.length <= res.length + 1e-12


def test_root_predictor_exact_parabola():
    # zero overshoot and zero slope pin the root at the origin
    assert c2_root_predictor(2.0, 0.0, -2.0, 2.0) == 0.0
    # x(t) = 1 - t^2 hits 0 at t = 1
    assert c2_root_predictor(1.0, 0.0, -2.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    # x(t) = 2 + t - t^2/2 hits 1 at t = 1 + sqrt(3)
    assert c2_root_predictor(2.0, 1.0, -1.0, 1.0) == pytest.approx(
        1.0 + math.sqrt(3.0), abs=1e-12
    )


@given(
    x0=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
    b=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    c=st.floats(min_value=-8.0, max_value=-0.1, allow_nan=False),
)
def test_root_predictor_solves_the_quadratic(x0, b, c):
    u = 0.0
    t = c2_root_predictor(x0, b, c, u)
    assert t > 0.0
    assert x0 + b * t + 0.5 * c * t * t == pytest.approx(u, abs=1e-8)


def test_root_predictor_domain_errors():
    with pytest.raises(DomainError):
        c2_root_predictor(1.0, 0.0, 0.0, 0.0)  # needs concavity
    with pytest.raises(DomainError):
        c2_root_predictor(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        c2_root_predictor(-1.0, 0.0, -2.0, 0.0)  # must start above the level


def _predictor_gaps(u, n, master_seed):
    """Signed relative gap (predicted - measured)/measured of the right endpoint."""
    k = make_kernel(2.0)
    plan = build_sampler(k, c2_grid(u))
    r2 = -2.0
    gaps = []
    for p in replicates(partial(sample_conditional_exceedance, plan, u), n, master_seed, 0):
        res = crossing_bounds(plan.grid, p, u)
        if res.censored_right:
            continue
        x0 = float(p[plan.grid.origin_index])
        pred = c2_root_predictor(x0, path_derivative_at_zero(plan.grid, p), r2 * x0 / k.r0, u)
        gaps.append((pred - res.tau_plus) / res.tau_plus)
    return np.asarray(gaps)


def test_root_predictor_tracks_measured_endpoint():
    gaps = _predictor_gaps(u=6.0, n=600, master_seed=2024)
    assert gaps.size > 590
    # centered: the prediction is median-unbiased for the measured endpoint
    assert abs(np.median(gaps)) <= 0.02
    # per-replicate dispersion from the curvature stand-in stays moderate
    assert np.median(np.abs(gaps)) <= 0.09


def test_root_predictor_dispersion_shrinks_with_threshold():
    lo = np.median(np.abs(_predictor_gaps(u=12.0, n=600, master_seed=2025)))
    assert lo <= 0.05


def _path_lane(alpha, u, n, seed):
    k = make_kernel(alpha)
    grid = c2_grid(u) if alpha == 2.0 else heavy_tail_grid(k, u)
    pairs = partial(sample_conditional_exceedance, build_sampler(k, grid), u)
    return (crossing_bounds(grid, p, u) for p in replicates(pairs, n, seed, 0))


@pytest.mark.parametrize(
    "lane",
    [
        lambda n: _path_lane(2.0, 6.0, n, 1729),
        lambda n: _path_lane(1.0, 10.0, n, 1729),
        lambda n: replicates(partial(sample_limit_length, 1.0, 1.0, limit_grid()), n, 1729, 1),
    ],
    ids=["path-alpha2-u6", "path-alpha1-u10", "limit-alpha1"],
)
def test_origin_sits_uniformly_inside_its_excursion(lane):
    # conditioning on an exceedance at 0 picks the origin uniformly from the
    # excursion set, so U = tau_plus / L is Uniform(0, 1) and independent of L.
    # On the alpha = 1 lanes, placing one side's crossing a cell late, or the
    # regression profile one index off, breaks these bounds.
    n = 4000
    rows = np.array([(r.tau_plus, r.length) for r in lane(n) if not math.isnan(r.length)])
    assert rows.shape[0] >= 0.99 * n
    share = rows[:, 0] / rows[:, 1]
    assert stats.kstest(share, "uniform").statistic <= 2.0 / math.sqrt(n)
    assert abs(stats.spearmanr(share, rows[:, 1]).statistic) <= 3.5 / math.sqrt(n)
