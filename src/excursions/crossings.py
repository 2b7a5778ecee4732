"""Excursion interval measurement on sampled paths."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .sampling import Grid

__all__ = ["ExcursionResult", "crossing_bounds", "c2_root_predictor"]


@dataclass(frozen=True)
class ExcursionResult:
    tau_minus: float
    tau_plus: float
    length: float  # nan when either side is censored
    censored_left: bool
    censored_right: bool


def crossing_bounds(grid: Grid, values: np.ndarray, u: float) -> ExcursionResult:
    """First down-crossings of level u on each side of the origin of a path
    sampled on the grid.

    Scans outward from the origin and linearly interpolates inside the first
    cell whose far endpoint sits at or below u (equality counts as a crossing
    at the grid point itself).  Sides with no crossing inside the window are
    censored at the window edge and the length is left undefined.
    """
    o = grid.origin_index
    if not values[o] > u:
        raise PreconditionError("path does not exceed the threshold at the origin")
    t = grid.times()
    step = grid.step

    right = np.nonzero(values[o:] <= u)[0]
    if right.size:
        j = o + int(right[0])  # first grid point at/below u on the right
        frac = (values[j - 1] - u) / (values[j - 1] - values[j])
        tau_plus = float(t[j - 1] + frac * step)
        censored_right = False
    else:
        tau_plus = float(t[-1])
        censored_right = True

    left = np.nonzero(values[: o + 1] <= u)[0]
    if left.size:
        i = int(left[-1])  # last grid point at/below u on the left
        frac = (values[i + 1] - u) / (values[i + 1] - values[i])
        tau_minus = float(t[i + 1] - frac * step)
        censored_left = False
    else:
        tau_minus = float(t[0])
        censored_left = True

    censored = censored_left or censored_right
    length = math.nan if censored else tau_plus - tau_minus
    return ExcursionResult(tau_minus, tau_plus, length, censored_left, censored_right)


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
