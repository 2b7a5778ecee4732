"""Excursion interval measurement on sampled paths, and on Markov walks drawn
outward from the origin only as far as their crossings."""

from __future__ import annotations

import math

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


def markov_intervals(
    grid: Grid,
    level: float,
    start: np.ndarray,
    decay: float,
    scale: float,
    drift: float,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, int]:
    """crossing_bounds rows of the walks x_(k+1) = decay * x_k + scale * z + drift
    from x_0 = start, one on each side of the origin of each of two draws per
    generator (start[2 g] and start[2 g + 1] for rngs[g]), and the number of
    normals drawn.

    The walks advance outward MARKOV_CHUNK steps per round.  In each round every
    generator with a side that has neither reached the level nor the window's
    edge draws 4 * MARKOV_CHUNK normals in one call, shaped (draw, side, step)
    with the left side first; the others draw nothing, and their walks read
    inf from then on, past their crossings.  So a generator's draws depend on
    its own walks only, never on the block it is in.  A chunk is summed by
    doubling, adding decay**d times the partial sums d steps back for
    d = 1, 2, 4, ..., then decay**k times the side's last value.  The rows are
    those of the whole window's scan: the symmetric sub-grid over the rounds
    drawn holds every side's first crossing, or reaches the window's edge.
    """
    count, chunk, edge = len(rngs), MARKOV_CHUNK, grid.arm
    powers = decay ** np.arange(1.0, chunk + 1)  # decay**k, k = 1..chunk
    walks = [np.repeat(start, 2).reshape(count, 4, 1)]  # (generator, draw and side, step)
    closed = np.zeros((count, 4), dtype=bool)
    drawing = np.arange(count)  # generators with an open side
    normals = 0
    for done in range(0, edge, chunk):  # steps walked on each side so far
        x = np.empty((drawing.size, 4, chunk))
        for row, g in zip(x, drawing):
            rngs[g].standard_normal(out=row)
        normals += x.size
        x *= scale
        x += drift
        d = 1
        while d < chunk:
            x[..., d:] += powers[d - 1] * x[..., :-d]
            d *= 2
        x += powers * walks[-1][drawing, :, -1:]
        walks.append(np.full((count, 4, chunk), math.inf))
        walks[-1][drawing] = x
        closed[drawing] |= (x[..., : edge - done] <= level).any(axis=2)
        drawing = np.flatnonzero(~closed.all(axis=1))
        if not drawing.size:
            break
    r = min(chunk * (len(walks) - 1), edge)
    walk = np.concatenate(walks, axis=2).reshape(2 * count, 2, -1)
    paths = np.concatenate((walk[:, 0, r:0:-1], walk[:, 1, : r + 1]), axis=1)
    return crossing_bounds(Grid(grid.step, r * grid.step), paths, level), normals


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
