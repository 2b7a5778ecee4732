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

from .crossings import ExcursionResult, crossing_bounds
from .errors import DomainError
from .kernels import c_alpha
from .sampling import Grid, circulant_draw, circulant_weights
from .streams import as_generator, generator

__all__ = [
    "fbm_two_sided",
    "limit_process_values",
    "sample_limit_length",
    "sample_tilde_length",
]


@lru_cache(maxsize=32)
def _fgn_weights(alpha: float, grid: Grid) -> tuple[np.ndarray, float, int]:
    """(weights, fro_error, embed_factor) of the circulant embedding of the
    fractional Gaussian noise formed by the grid.n - 1 increments of an fBm
    with Var B(t) = |t|**alpha; cached because every replicate on the same
    grid reuses them, and reports read the embedding's quality back."""
    h = grid.step**alpha

    def autocov(k: np.ndarray) -> np.ndarray:
        k = k.astype(float)
        return 0.5 * h * ((k + 1.0) ** alpha + np.abs(k - 1.0) ** alpha - 2.0 * k**alpha)

    embedding = circulant_weights(autocov, grid.n - 1)
    embedding[0].flags.writeable = False  # shared by every caller through the cache
    return embedding


def fbm_two_sided(alpha: float, grid: Grid, seed) -> np.ndarray:
    """Two independent exact two-sided fBm draws with Hurst index alpha/2, as a
    (2, grid.n) array with B(0) = 0 exactly.  Davies-Harte: cumulative sums of
    exact fGn, shifted to pin the origin; exact for the two-sided fBm because
    its increments are stationary.  ``seed`` may be an integer or a Generator."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"fBm needs alpha in (0, 2), got {alpha!r}")
    increments = circulant_draw(_fgn_weights(alpha, grid)[0], grid.n - 1, as_generator(seed))
    values = np.concatenate((np.zeros((2, 1)), np.cumsum(increments, axis=1)), axis=1)
    return values - values[:, grid.origin_index, None]


def limit_process_values(
    grid: Grid, b: np.ndarray, t_star: float, alpha: float, c: float, r0: float
) -> np.ndarray:
    """Drifted limit path sqrt(2c) B(t) + r0 * t_star - (c/r0) |t|**alpha on the
    grid, for one fBm draw b; c = c_alpha(alpha) gives the limit process, and
    c = r0 = 1 its drift-normalized (tilde) variant."""
    if not r0 > 0.0:
        raise DomainError(f"r0 must be positive, got {r0!r}")
    if not t_star > 0.0:
        raise DomainError(f"t_star must be positive, got {t_star!r}")
    t = grid.times()
    return math.sqrt(2.0 * c) * b + r0 * t_star - (c / r0) * np.abs(t) ** alpha


def _draw_intervals(
    alpha: float, c: float, r0: float, grid: Grid, seed: int
) -> tuple[ExcursionResult, ExcursionResult]:
    """Two independent zero-hitting intervals around the origin: one fBm pair
    from seed, then a unit exponential level t_star > 0 for each half.  A side
    with no crossing inside the window is censored, never redrawn."""
    rng = generator(seed)
    out = []
    for b in fbm_two_sided(alpha, grid, rng):
        t_star = float(rng.standard_exponential())
        while t_star == 0.0:  # zero draws break the origin-positivity precondition
            t_star = float(rng.standard_exponential())
        values = limit_process_values(grid, b, t_star, alpha, c, r0)
        out.append(crossing_bounds(grid, values, 0.0))
    return tuple(out)


def sample_limit_length(
    alpha: float, r0: float, grid: Grid, seed: int
) -> tuple[ExcursionResult, ExcursionResult]:
    """Two independent draws of the limit excursion interval on the given
    window; an interval that does not fit the window is reported censored."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"limit process needs alpha in (0, 2), got {alpha!r}")
    return _draw_intervals(alpha, c_alpha(alpha), r0, grid, seed)


def sample_tilde_length(alpha: float, grid: Grid, seed: int) -> tuple[ExcursionResult, ExcursionResult]:
    """Same pair of draws for the drift-normalized variant."""
    return _draw_intervals(alpha, 1.0, 1.0, grid, seed)
