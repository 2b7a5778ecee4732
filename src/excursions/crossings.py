"""Excursion interval measurement on sampled paths."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PreconditionError
from .sampling import Grid

__all__ = ["crossing_bounds", "c2_root_predictor"]


def crossing_bounds(grid: Grid, values: np.ndarray, u: float) -> np.ndarray:
    """First down-crossings of level u on each side of the origin, for each
    path (last axis) of values sampled on the grid, as (tau_minus, tau_plus,
    length) rows: shape values.shape[:-1] + (3,).

    Interpolates linearly inside each side's first cell, counted outward from
    the origin, whose far endpoint sits at or below u (equality counts as a
    crossing at the grid point itself).  A side with no crossing inside the
    window is censored: its end is parked on the window's last grid point and
    the length is nan.
    """
    paths = np.asarray(values, dtype=float).reshape(-1, grid.n)
    o = grid.origin_index
    if not np.all(paths[:, o] > u):
        raise PreconditionError("path does not exceed the threshold at the origin")
    t = grid.times()
    step = grid.step
    rows = np.arange(paths.shape[0])
    below = paths <= u

    j = o + np.argmax(below[:, o:], axis=1)  # first grid point at/below u on the right
    i = o - np.argmax(below[:, o::-1], axis=1)  # last grid point at/below u on the left
    crossed_right, crossed_left = below[rows, j], below[rows, i]
    with np.errstate(all="ignore"):  # censored sides interpolate junk, which np.where drops
        frac = (paths[rows, j - 1] - u) / (paths[rows, j - 1] - paths[rows, j])
        tau_plus = np.where(crossed_right, t[j - 1] + frac * step, t[-1])
        frac = (paths[rows, i + 1] - u) / (paths[rows, i + 1] - paths[rows, i])
        tau_minus = np.where(crossed_left, t[i + 1] - frac * step, t[0])
    length = np.where(crossed_left & crossed_right, tau_plus - tau_minus, math.nan)
    return np.stack((tau_minus, tau_plus, length), axis=-1).reshape(np.shape(values)[:-1] + (3,))


def c2_root_predictor(x0: float, xprime0: float, xsecond: float, u: float) -> float:
    """Positive root of the local quadratic expansion around the origin.

    Treats the path near 0 as x0 + xprime0 * t + xsecond * t**2 / 2 and returns
    the first time it falls back to u; a diagnostic for smooth-regime paths.
    """
    if not xsecond < 0.0:
        raise DomainError(f"curvature must be negative, got {xsecond!r}")
    if x0 < u:
        raise DomainError("origin value must sit at or above the threshold")
    disc = xprime0 * xprime0 - 2.0 * xsecond * (x0 - u)
    return (math.sqrt(disc) + xprime0) / (-xsecond)
