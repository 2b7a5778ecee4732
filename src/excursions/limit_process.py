"""Heavy-tail limit objects: two-sided fractional Brownian motion, the drifted
limit process, and its zero-hitting interval around the origin.

The limit process is Y_t = sqrt(2 c) B(t) + r0 * t_star - (c / r0) * |t|**alpha
with c = c_alpha(alpha), B a two-sided fBm of Hurst index alpha/2 pinned at
B(0) = 0, and t_star an independent unit exponential level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .crossings import crossing_bounds
from .errors import DomainError
from .kernels import c_alpha
from .sampling import Grid, Path, circulant_draw, circulant_weights
from .streams import generator

__all__ = [
    "FbmPath",
    "LimitSample",
    "fbm_two_sided",
    "limit_process_path",
    "tilde_process_path",
    "limit_hitting_interval",
    "sample_limit_length",
    "sample_tilde_length",
]


@dataclass
class FbmPath:
    grid: Grid
    values: np.ndarray
    alpha: float
    seed: int

    @property
    def origin_index(self) -> int:
        return self.grid.origin_index


@dataclass(frozen=True)
class LimitSample:
    tau_star_minus: float
    tau_star_plus: float
    length: float  # nan when censored
    censored: bool


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


def _draw_fbm_values(alpha: float, grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Davies-Harte: cumulative sums of exact fGn, shifted so that B(0) = 0; two
    independent draws as a (2, grid.n) array.  Exact for the two-sided fBm
    because its increments are stationary."""
    increments = circulant_draw(_fgn_weights(alpha, grid)[0], grid.n - 1, rng)
    values = np.concatenate((np.zeros((2, 1)), np.cumsum(increments, axis=1)), axis=1)
    return values - values[:, grid.origin_index, None]


def fbm_two_sided(alpha: float, grid: Grid, seed: int) -> tuple[FbmPath, FbmPath]:
    """Two independent exact two-sided fBm draws with Hurst index alpha/2;
    B(0) = 0 exactly."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"fBm needs alpha in (0, 2), got {alpha!r}")
    pair = _draw_fbm_values(alpha, grid, generator(seed))
    return tuple(FbmPath(grid, values, alpha, int(seed)) for values in pair)


def limit_process_path(alpha: float, r0: float, fbm: FbmPath, t_star: float) -> Path:
    """Drifted limit path sqrt(2c) B(t) + r0 * t_star - (c/r0) |t|**alpha."""
    if fbm.alpha != alpha:
        raise DomainError("alpha does not match the fBm draw")
    if not r0 > 0.0:
        raise DomainError(f"r0 must be positive, got {r0!r}")
    if not t_star > 0.0:
        raise DomainError(f"t_star must be positive, got {t_star!r}")
    c = c_alpha(alpha)
    t = fbm.grid.times()
    values = math.sqrt(2.0 * c) * fbm.values + r0 * t_star - (c / r0) * np.abs(t) ** alpha
    return Path(fbm.grid, values, fbm.seed, fbm.grid.origin_index)


def tilde_process_path(alpha: float, fbm: FbmPath, t_star: float) -> Path:
    """Drift-normalized variant sqrt(2) B(t) + t_star - |t|**alpha."""
    if fbm.alpha != alpha:
        raise DomainError("alpha does not match the fBm draw")
    if not t_star > 0.0:
        raise DomainError(f"t_star must be positive, got {t_star!r}")
    t = fbm.grid.times()
    values = math.sqrt(2.0) * fbm.values + t_star - np.abs(t) ** alpha
    return Path(fbm.grid, values, fbm.seed, fbm.grid.origin_index)


def limit_hitting_interval(y: Path) -> LimitSample:
    """Zero-hitting times of a limit path on each side of the origin; a side
    with no crossing inside the window is censored."""
    res = crossing_bounds(y, 0.0)
    return LimitSample(res.tau_minus, res.tau_plus, res.length, res.censored_left or res.censored_right)


def _fbms_and_levels(alpha: float, grid: Grid, seed: int) -> list[tuple[FbmPath, float]]:
    """Two independent fBm draws from seed, each with its own unit exponential
    level t_star > 0, drawn after the normals."""
    rng = generator(seed)
    out = []
    for values in _draw_fbm_values(alpha, grid, rng):
        t_star = float(rng.standard_exponential())
        while t_star == 0.0:  # zero draws break the origin-positivity precondition
            t_star = float(rng.standard_exponential())
        out.append((FbmPath(grid, values, alpha, seed), t_star))
    return out


def sample_limit_length(
    alpha: float, r0: float, grid: Grid, seed: int
) -> tuple[LimitSample, LimitSample]:
    """Two independent draws of the limit excursion interval on the given
    window: exponential level, independent fBm, hitting times.  An interval
    that does not fit the window is reported censored, never redrawn."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"limit process needs alpha in (0, 2), got {alpha!r}")
    if not r0 > 0.0:
        raise DomainError(f"r0 must be positive, got {r0!r}")
    return tuple(
        limit_hitting_interval(limit_process_path(alpha, r0, fbm, t_star))
        for fbm, t_star in _fbms_and_levels(alpha, grid, seed)
    )


def sample_tilde_length(alpha: float, grid: Grid, seed: int) -> tuple[LimitSample, LimitSample]:
    """Same pair of draws for the drift-normalized variant."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"limit process needs alpha in (0, 2), got {alpha!r}")
    return tuple(
        limit_hitting_interval(tilde_process_path(alpha, fbm, t_star))
        for fbm, t_star in _fbms_and_levels(alpha, grid, seed)
    )
