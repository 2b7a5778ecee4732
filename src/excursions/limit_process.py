"""Heavy-tail limit objects: two-sided fractional Brownian motion, the drifted
limit process, and its zero-hitting interval around the origin.

The limit process is Y_t = sqrt(2 c) B(t) + r0 * t_star - (c / r0) * |t|**alpha
with c = c_alpha(alpha), B a two-sided fBm of Hurst index alpha/2 pinned at
B(0) = 0, and t_star an independent unit exponential level.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .crossings import crossing_bounds
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


def _draw_intervals(alpha: float, c: float, r0: float, grid: Grid, seed) -> np.ndarray:
    """Two independent zero-hitting intervals around the origin per substream
    of ``seed``, as crossing_bounds rows: one fBm pair from each substream's
    generator, then a unit exponential level t_star > 0 for each half.  A side
    with no crossing inside the window is censored, never redrawn."""
    rngs = generators(seed)
    b = fbm_two_sided(alpha, grid, rngs)
    t_star = np.empty(len(b))
    for k, rng in enumerate(rngs):
        for half in (2 * k, 2 * k + 1):
            t_star[half] = rng.standard_exponential()
            while t_star[half] == 0.0:  # zero draws break the origin-positivity precondition
                t_star[half] = rng.standard_exponential()
    return crossing_bounds(grid, limit_process_values(grid, b, t_star, alpha, c, r0), 0.0)


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
