"""Excursion interval measurement on sampled paths, and the one walk that draws
paths outward from the origin only as far as they cross (walk_intervals)."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, PreconditionError
from .sampling import Grid

__all__ = ["crossing_bounds", "c2_root_predictor"]

_SIDES = np.array([[-1], [1]])  # left, right
# Steps a Markov walk advances on each side per round (markov_intervals).  A
# round draws 4 * MARKOV_CHUNK normals per generator, so this fixes the streams.
MARKOV_CHUNK = 128


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


def walk_intervals(
    grid: Grid, level: float, values: np.ndarray, advance: Callable, width: int, first: int
) -> np.ndarray:
    """crossing_bounds rows, (units * paths, 3), of ``values``, a (units,
    paths, grid.n) buffer filled outward from the origin only as far as its
    paths cross.  Round k fills the offsets lo + 1 .. hi from the origin, hi =
    first + k * width up to the window's edge and lo the previous hi (0 at
    first): advance(open, lo, hi) writes them at least on each side of each
    unit that open[unit, side] (left, right) marks, a side open while one of
    the unit's paths is still above level there; no value past a path's first
    crossing changes its row.  The origin column holds the start values after
    the first round.  Once every side has closed or a round reaches the edge,
    one scan of the symmetric sub-grid walked gives the whole window's rows:
    each path crosses within it or is censored.
    """
    o = grid.origin_index
    above = np.ones(values.shape[:2] + (2,), dtype=bool)  # (unit, path, side): nothing at or below level yet
    reach = [min(hi, grid.arm) for hi in range(min(first, grid.arm), grid.arm + width, width)]
    for lo, hi in zip([0, *reach], reach):
        sides = above.any(axis=1)
        advance(sides, lo, hi)
        for side, cols in enumerate((slice(o - hi, o - lo), slice(o + lo + 1, o + hi + 1))):
            live = np.flatnonzero(sides[:, side])
            above[live, :, side] &= (values[live, :, cols] > level).all(axis=2)
        if not above.any():
            break
    return crossing_bounds(Grid(grid.step, hi * grid.step), values[..., o - hi : o + hi + 1], level).reshape(-1, 3)


def markov_intervals(
    grid: Grid,
    level: float,
    start: np.ndarray,
    decay: float,
    scale: float,
    drift: float,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, int]:
    """walk_intervals rows of the walks x_(k+1) = decay * x_k + scale * z + drift
    from x_0 = start, one on each side of the origin of each of two draws per
    generator (start[2 g] and start[2 g + 1] for rngs[g]), MARKOV_CHUNK steps
    per round, and the number of normals drawn.  In a round every generator
    with an open side draws 4 * MARKOV_CHUNK normals in one call, shaped (draw,
    side, step) with the left side first, and writes all four walks; the others
    draw nothing, so no generator's draws depend on the block it is in.  A
    chunk is summed by doubling, adding decay**d times the partial sums d steps
    back for d = 1, 2, 4, ..., then decay**k times the side's last value.
    """
    o, chunk = grid.origin_index, MARKOV_CHUNK
    powers = decay ** np.arange(1.0, chunk + 1)  # decay**k, k = 1..chunk
    values = np.empty((len(rngs), 2, grid.n))  # (generator, draw, grid point)
    values[:, :, o] = start.reshape(-1, 2)
    normals = []  # per round

    def advance(sides: np.ndarray, lo: int, hi: int) -> None:
        drawing = np.flatnonzero(sides.any(axis=1))
        x = np.empty((drawing.size, 2, 2, chunk))  # (generator, draw, side, step)
        for row, g in zip(x, drawing):
            rngs[g].standard_normal(out=row)
        normals.append(x.size)
        x *= scale
        x += drift
        d = 1
        while d < chunk:
            x[..., d:] += powers[d - 1] * x[..., :-d]
            d *= 2
        x += powers * values[:, :, [o - lo, o + lo]][drawing][..., None]
        values[drawing, :, o - hi : o - lo] = x[:, :, 0, hi - lo - 1 :: -1]
        values[drawing, :, o + lo + 1 : o + hi + 1] = x[:, :, 1, : hi - lo]

    return walk_intervals(grid, level, values, advance, chunk, chunk), sum(normals)


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
