"""Heavy-tail limit objects: two-sided fractional Brownian motion, the drifted
limit process, and its zero-hitting interval around the origin.

The limit process is Y_t = sqrt(2 c) B(t) + r0 * t_star - (c / r0) * |t|**alpha
with c = c_alpha(alpha), B a two-sided fBm of Hurst index alpha/2 pinned at
B(0) = 0, and t_star an independent unit exponential level.  At alpha = 1, B is
a Brownian motion on each side of the origin, so each side of Y is a Gaussian
walk from r0 * t_star, drawn outward only as far as its crossing
(crossings.markov_intervals); every other alpha draws the whole window's fBm.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .crossings import crossing_bounds, markov_intervals
from .errors import DomainError
from .kernels import c_alpha
from .sampling import Grid, circulant_draw, circulant_weights
from .streams import generators

__all__ = [
    "fbm_two_sided",
    "limit_process_values",
    "sample_limit_length",
    "sample_tilde_length",
]


@lru_cache(maxsize=32)
def _fgn_weights(alpha: float, grid: Grid) -> tuple[np.ndarray, float, int, int]:
    """(weights, fro_error, embed_factor, band) of the circulant embedding of the
    fractional Gaussian noise formed by the grid.n - 1 increments of an fBm
    with Var B(t) = |t|**alpha; cached because every replicate on the same
    grid reuses them, and reports read the embedding's quality back."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"fBm needs alpha in (0, 2), got {alpha!r}")
    h = grid.step**alpha

    def autocov(k: np.ndarray) -> np.ndarray:
        k = k.astype(float)
        return 0.5 * h * ((k + 1.0) ** alpha + np.abs(k - 1.0) ** alpha - 2.0 * k**alpha)

    embedding = circulant_weights(autocov, grid.n - 1)
    embedding[0].flags.writeable = False  # shared by every caller through the cache
    return embedding


def fbm_two_sided(alpha: float, grid: Grid, seed) -> np.ndarray:
    """Two independent exact two-sided fBm draws with Hurst index alpha/2 per
    substream of ``seed`` (see streams.generators), as rows of a
    (2 * substreams, grid.n) array with B(0) = 0 exactly.  Davies-Harte:
    cumulative sums of exact fGn, shifted to pin the origin; exact for the
    two-sided fBm because its increments are stationary."""
    weights, _, _, band = _fgn_weights(alpha, grid)
    increments = circulant_draw(weights, band, grid.n - 1, generators(seed))
    values = np.zeros((len(increments), grid.n))
    np.cumsum(increments, axis=1, out=values[:, 1:])
    values -= values[:, [grid.origin_index]]  # a copy of the origin column, then in place
    return values


def limit_process_values(
    grid: Grid, b: np.ndarray, t_star, alpha: float, c: float, r0: float
) -> np.ndarray:
    """Drifted limit paths sqrt(2c) B(t) + r0 * t_star - (c/r0) |t|**alpha on the
    grid, for fBm draws b (last axis on the grid) and one level t_star per
    draw; c = c_alpha(alpha) gives the limit process, and c = r0 = 1 its
    drift-normalized (tilde) variant."""
    if not r0 > 0.0:
        raise DomainError(f"r0 must be positive, got {r0!r}")
    t_star = np.asarray(t_star, dtype=float)
    if not np.all(t_star > 0.0):
        raise DomainError(f"t_star must be positive, got {t_star!r}")
    t = grid.times()
    values = math.sqrt(2.0 * c) * b  # then in place: one block-sized array, not three
    values += (r0 * t_star)[..., None]
    values -= (c / r0) * np.abs(t) ** alpha
    return values


def _levels(rngs: list[np.random.Generator]) -> np.ndarray:
    """A unit exponential level t_star > 0 for each of the two draws of every
    generator, in generator order."""
    t_star = np.empty(2 * len(rngs))
    for half in range(t_star.size):
        t_star[half] = rngs[half // 2].standard_exponential()
        while t_star[half] == 0.0:  # zero draws break the origin-positivity precondition
            t_star[half] = rngs[half // 2].standard_exponential()
    return t_star


def _markov_limit_intervals(c: float, r0: float, grid: Grid, rngs: list[np.random.Generator]):
    """(rows, normals drawn) of _draw_intervals at alpha = 1: each generator
    draws its two levels t_star, then each side of each draw walks from
    r0 * t_star with Gaussian steps of mean -(c / r0) * step and variance
    2 c * step, the limit process's exact law on the grid."""
    if not r0 > 0.0:
        raise DomainError(f"r0 must be positive, got {r0!r}")
    scale, drift = math.sqrt(2.0 * c * grid.step), -(c / r0) * grid.step
    return markov_intervals(grid, 0.0, r0 * _levels(rngs), 1.0, scale, drift, rngs)


def _draw_intervals(alpha: float, c: float, r0: float, grid: Grid, seed) -> np.ndarray:
    """Two independent zero-hitting intervals around the origin per substream
    of ``seed``, as crossing_bounds rows.  At alpha = 1 by _markov_limit_intervals;
    otherwise one fBm pair from each substream's generator, then a unit
    exponential level t_star > 0 for each half.  A side with no crossing
    inside the window is censored, never redrawn."""
    rngs = generators(seed)
    if alpha == 1.0:
        return _markov_limit_intervals(c, r0, grid, rngs)[0]
    b = fbm_two_sided(alpha, grid, rngs)
    return crossing_bounds(grid, limit_process_values(grid, b, _levels(rngs), alpha, c, r0), 0.0)


def sample_limit_length(alpha: float, r0: float, grid: Grid, seed) -> np.ndarray:
    """Two independent draws of the limit excursion interval on the given
    window per substream of ``seed``, as crossing_bounds rows; an interval
    that does not fit the window is reported censored."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"limit process needs alpha in (0, 2), got {alpha!r}")
    return _draw_intervals(alpha, c_alpha(alpha), r0, grid, seed)


def sample_tilde_length(alpha: float, grid: Grid, seed) -> np.ndarray:
    """Same draws for the drift-normalized variant."""
    return _draw_intervals(alpha, 1.0, 1.0, grid, seed)
