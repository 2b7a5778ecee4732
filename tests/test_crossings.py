"""Excursion endpoint measurement and the smooth-regime root predictor."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
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
from excursions.crossings import walk_intervals
from excursions.streams import replicates


def _path(values, step=1.0):
    """(grid, values) of a hand-written path centred on its middle point."""
    values = np.asarray(values, dtype=float)
    arm = (values.size - 1) // 2
    return Grid(step, step * arm), values


def test_crossing_bounds_hand_oracle():
    # v = [0, 1, 3, 1, 0] on integer times; u = 2 crosses halfway on each side
    tau_minus, tau_plus, length = crossing_bounds(*_path([0.0, 1.0, 3.0, 1.0, 0.0]), 2.0)
    assert tau_plus == pytest.approx(0.5, abs=1e-12)
    assert tau_minus == pytest.approx(-0.5, abs=1e-12)
    assert length == pytest.approx(1.0, abs=1e-12)  # finite: neither side censored


def test_crossing_bounds_interpolation_fraction():
    # right crossing between t=1 (v=4) and t=2 (v=1): frac = (4-2)/(4-1)
    _, tau_plus, _ = crossing_bounds(*_path([0.0, 5.0, 6.0, 4.0, 1.0], step=1.0), 2.0)
    assert tau_plus == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-12)
    # re-evaluating the linear interpolant at the crossing recovers the level
    frac = tau_plus - 1.0
    assert 4.0 + frac * (1.0 - 4.0) == pytest.approx(2.0, abs=1e-12)


def test_parabola_crossing_matches_exact_roots():
    g = Grid(0.001, 1.5)
    t = g.times()
    tau_minus, tau_plus, length = crossing_bounds(g, 1.0 - t * t, 0.0)
    assert tau_plus == pytest.approx(1.0, abs=1e-5)
    assert tau_minus == pytest.approx(-1.0, abs=1e-5)
    assert length == pytest.approx(2.0, abs=2e-5)


def test_crossing_bounds_exact_touch_counts_as_crossing():
    tau_minus, tau_plus, _ = crossing_bounds(*_path([0.0, 2.0, 3.0, 2.0, 0.0]), 2.0)
    # grid value exactly at the level ends the excursion there
    assert tau_plus == pytest.approx(1.0, abs=1e-12)
    assert tau_minus == pytest.approx(-1.0, abs=1e-12)


def test_crossing_bounds_censoring_flags():
    # a censored side is parked on the window's edge, and the length is nan
    tau_minus, tau_plus, length = crossing_bounds(*_path([3.0, 4.0, 5.0, 4.0, 3.0]), 2.0)
    assert math.isnan(length)
    assert tau_minus == -2.0 and tau_plus == 2.0

    tau_minus, tau_plus, length = crossing_bounds(*_path([3.0, 4.0, 5.0, 4.0, 1.0]), 2.0)
    assert math.isnan(length)
    assert tau_minus == -2.0  # censored on the left only
    assert tau_plus == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-12)


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
    tau_minus, tau_plus, length = crossing_bounds(*_path(vals), u)
    assert tau_minus <= 0.0 <= tau_plus
    assert -3.0 <= tau_minus and tau_plus <= 3.0
    if math.isnan(length):  # censored: a side is parked on the window's edge
        assert tau_minus == -3.0 or tau_plus == 3.0
    else:
        assert length == pytest.approx(tau_plus - tau_minus, abs=1e-12)
        assert length >= 0.0
    # raising the level never widens the excursion
    higher = crossing_bounds(*_path(vals), u + 0.25)[2]
    if not (math.isnan(length) or math.isnan(higher)):
        assert higher <= length + 1e-12


@st.composite
def _walks(draw):
    """(grid, full rows) of units of paths above level 0 at the origin: each
    side of each path first reaches 0 or below at a drawn offset, or never
    (censored), and takes any value past it."""
    arm, units, paths = draw(st.integers(1, 30)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    grid, o = Grid(0.25, 0.25 * arm), arm
    full = draw(arrays(float, (units, paths, grid.n), elements=st.floats(-2.0, 2.0)))
    ends = draw(arrays(int, (units, paths, 2), elements=st.integers(0, arm)))  # offset of the first crossing; 0: none
    for (unit, path, side), end in np.ndenumerate(ends):
        cols = slice(o + 1, o + (end or arm + 1)) if side else slice(o - (end or arm + 1) + 1, o)
        full[unit, path, cols] = np.abs(full[unit, path, cols]) + 0.125  # above 0 before the crossing
        if end:
            full[unit, path, o + end if side else o - end] = -abs(full[unit, path, o + end if side else o - end])
    full[:, :, o] = 1.0
    return grid, full


@settings(max_examples=300, deadline=None)
@given(walk=_walks(), width=st.sampled_from([1, 7, 1000]), first=st.integers(0, 33))
@example(walk=(Grid(1.0, 2.0), np.array([[[3.0, 2.0, 1.0, 0.0, -1.0]]])), width=1, first=1)  # left side censored
@example(walk=(Grid(1.0, 2.0), np.array([[[3.0, 2.0, 1.0, 2.0, 3.0]]])), width=1, first=0)  # both sides censored
def test_walk_scans_what_the_full_rows_scan(walk, width, first):
    # an advance that copies the asked columns from precomputed rows gives the
    # whole window's scan bit for bit, censored sides and nan lengths included,
    # at round widths 1, 7 and past the window's edge; a side is asked for
    # exactly while one of its unit's paths is still above the level on it
    grid, full = walk
    o, arm = grid.origin_index, grid.arm
    below = full <= 0.0
    crossed = np.stack([below[..., o::-1].any(axis=2), below[..., o:].any(axis=2)], axis=2)  # (unit, path, side)
    ends = np.where(crossed, np.stack([below[..., o::-1].argmax(axis=2), below[..., o:].argmax(axis=2)], axis=2), arm + 1)
    values = np.full_like(full, math.nan)  # whatever was never asked for reads nan
    values[:, :, o] = full[:, :, o]
    rounds = []

    def advance(sides, lo, hi):
        assert (lo, hi) == (rounds[-1][1] if rounds else 0, min(first + len(rounds) * width, arm))
        rounds.append((lo, hi))
        np.testing.assert_array_equal(sides, (ends > lo).any(axis=1))  # open: a path has not crossed by lo
        assert sides.any()
        for unit, side in zip(*np.nonzero(sides)):
            cols = slice(o + lo + 1, o + hi + 1) if side else slice(o - hi, o - lo)
            values[unit, :, cols] = full[unit, :, cols]

    rows = walk_intervals(grid, 0.0, values, advance, width, first)
    np.testing.assert_array_equal(rows, crossing_bounds(grid, full, 0.0).reshape(-1, 3))
    lo, hi = rounds[-1]
    assert hi == arm or (ends <= hi).all()  # the last round closed every side, or reached the edge


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
    draw = partial(sample_conditional_exceedance, plan, u)
    for p in np.vstack(list(replicates(draw, n, master_seed, 0, 4))):
        _, tau_plus, _ = crossing_bounds(plan.grid, p, u)
        if tau_plus == plan.grid.times()[-1]:  # censored on the right
            continue
        x0 = float(p[plan.grid.origin_index])
        pred = c2_root_predictor(x0, path_derivative_at_zero(plan.grid, p), r2 * x0 / k.r0, u)
        gaps.append((pred - tau_plus) / tau_plus)
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
    draw = partial(sample_conditional_exceedance, build_sampler(k, grid), u)
    return np.concatenate([crossing_bounds(grid, paths, u) for paths in replicates(draw, n, seed, 0, 4)])


def _limit_lane(alpha, n, seed):
    draw = partial(sample_limit_length, alpha, 1.0, limit_grid())
    return np.concatenate(list(replicates(draw, n, seed, 1, 8)))


@pytest.mark.parametrize(
    "lane",
    [
        lambda n: _path_lane(2.0, 6.0, n, 1729),
        lambda n: _path_lane(1.0, 10.0, n, 1729),
        lambda n: _limit_lane(1.0, n, 1729),
    ],
    ids=["path-alpha2-u6", "path-alpha1-u10", "limit-alpha1"],
)
def test_origin_sits_uniformly_inside_its_excursion(lane):
    # conditioning on an exceedance at 0 picks the origin uniformly from the
    # excursion set, so U = tau_plus / L is Uniform(0, 1) and independent of L.
    # On the alpha = 1 lanes, placing one side's crossing a cell late, or the
    # regression profile one index off, breaks these bounds.
    n = 4000
    intervals = lane(n)
    rows = intervals[~np.isnan(intervals[:, 2]), 1:]  # (tau_plus, length) of the uncensored
    assert rows.shape[0] >= 0.99 * n
    share = rows[:, 0] / rows[:, 1]
    assert stats.kstest(share, "uniform").statistic <= 2.0 / math.sqrt(n)
    assert abs(stats.spearmanr(share, rows[:, 1]).statistic) <= 3.5 / math.sqrt(n)
