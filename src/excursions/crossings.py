"""Excursion interval measurement on sampled paths."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PreconditionError
from .sampling import Grid

__all__ = ["crossing_bounds", "c2_root_predictor"]

_SIDES = np.array([[-1], [1]])  # left, right


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
    if not (paths[:, o] > u).all():
        raise PreconditionError("path does not exceed the threshold at the origin")
    below = paths <= u
    # offsets from the origin of each side's first grid point at/below u, left
    # then right; 0 on a side with none (censored), since the origin is above u
    k = np.empty((2, len(paths)), dtype=np.intp)
    below[:, o::-1].argmax(axis=1, out=k[0])
    below[:, o:].argmax(axis=1, out=k[1])
    rows, sides = np.arange(len(paths)), _SIDES * grid.step  # sides: -step, +step
    last = o + _SIDES * k  # each side's first point at/below u
    inner, outer = paths[rows, last - _SIDES], paths[rows, last]
    out = np.empty((3, len(paths)))  # tau_minus, tau_plus, length
    with np.errstate(all="ignore"):  # censored sides interpolate junk, which is overwritten
        frac = (inner - u) / (inner - outer)
    # (k - 1) * sides is grid.times() at the crossing cell's inner end
    np.add((k - 1) * sides, frac * sides, out=out[:2])
    censored = k == 0
    np.copyto(out[:2], o * sides, where=censored)  # parked on the window's last grid point
    np.subtract(out[1], out[0], out=out[2])
    out[2, censored.any(axis=0)] = math.nan
    return out.T.reshape(np.shape(values)[:-1] + (3,))


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
