"""Empirical-distribution machinery and the Monte Carlo verification driver.

One master seed drives a run.  Every substream seed yields a pair of
independent draws: replicate i of a lane is half i % 2 of the pure substream
(master, lane, i // 2), so a run of n replicates is the first n replicates of
any longer run, and reports are bit-identical across repeats.  Replicates are
drawn and scanned in blocks of consecutive substreams, sized by the rule in
streams.  Two kinds of lane walk outward from the origin only as far as their
paths cross (crossings.walk_intervals), with a full draw's numbers: the
smooth-regime path lane over the direct sum's basis slices
(_outward_intervals), and at alpha = 1 both heavy-tail lanes by their exact
Markov recursion (_markov_lane).  The other heavy-tail lanes draw whole rows
by FFT on a pool of threads (streams.pooled_rows); the covariance panel draws
them on the calling thread, on the smallest grid that holds its columns
(_panel_rows).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .crossings import crossing_bounds, markov_intervals, walk_intervals
from .errors import CensorBudgetExceeded, DomainError, EmptySampleError
from .kernels import Kernel, c_alpha, delta_u, second_derivative_at_zero
from .limit_law import C2LimitParams, c2_limit_cdf, c2_limit_quantile, c2_limit_sample
from .limit_process import _fgn_weights, _markov_limit_intervals, sample_limit_length
from .sampling import (
    Grid,
    SamplerPlan,
    band_split,
    block_size,
    build_sampler,
    direct_products,
    direct_slices,
    exceedances,
    sample_conditional_exceedance,
    sample_unconditional,
)
from .streams import generators, pooled_rows, replicates, substream_seed

__all__ = [
    "SampleSet",
    "VerificationReport",
    "make_sample_set",
    "ecdf",
    "ks_one_sample",
    "ks_two_sample",
    "wasserstein1",
    "simulate_excursion_lengths",
    "draw_limit_lengths",
    "covariance_panel",
    "median_excursion_length",
    "run_verification",
    "c2_grid",
    "heavy_tail_grid",
    "limit_grid",
]

QUANTILE_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)
# Reach quantiles the report's censoring block records for each lane.
REACH_QUANTILES = {"reach_p50": 0.5, "reach_p99": 0.99, "reach_p999": 0.999}
# Fraction of censored replicates a run may absorb before it aborts.
CENSOR_BUDGET = 0.005
# KS acceptance thresholds by regime at the default run sizes.
KS_THRESHOLDS = {"C2": 0.05, "HeavyTail": 0.08}
MIN_RUN_SIZE = 100

DEFAULT_STEP_FACTOR = 0.01
# Path window half-width in regime units: 1/u smooth, delta_u heavy-tail.  In
# the heavy-tail regime, 99.9% of excursions reach less than 12 delta_u from
# the origin for alpha in [0.5, 1.5] and u in [6, 14] (seed 1729, n = 5000),
# and a 20 delta_u window censors at most 1 replicate in 5000.
WINDOW_FACTOR = 20.0
LIMIT_GRID_STEP = 0.01
LIMIT_GRID_HALF_WIDTH = 10.0

# Substreams per block of the two walks, drawn on the calling thread (see
# streams).  The smooth lane (_outward_intervals) holds its 4 products' rows,
# 1 MiB at 4001 points, twice that at 32.  A Markov lane (_markov_lane) shares
# each round's array operations among many walks, few enough that walks which
# have all crossed seldom wait long for the block's longest; at 16 both
# alpha = 1 lanes ran slower.
_OUTWARD_BLOCK = 16
_MARKOV_BLOCK = 32

# Substream lanes, so path replicates and reference draws never collide.
PATH_LANE = 0
LIMIT_LANE = 1

SCHEMA_VERSION = 12


# ---------------------------------------------------------------------------
# sample containers and empirical statistics


@dataclass(frozen=True, eq=False)
class SampleSet:
    values: np.ndarray  # sorted ascending, finite


def make_sample_set(values) -> SampleSet:
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError("sample values must be finite; censored draws are excluded, not imputed")
    return SampleSet(arr)


def ecdf(s: SampleSet, x: float) -> float:
    """Fraction of sample values <= x (right-continuous)."""
    if s.values.size < 1:
        raise EmptySampleError("ecdf needs at least one sample value")
    return float(np.searchsorted(s.values, x, side="right")) / s.values.size


def _kolmogorov_pvalue(stat: float, n_eff: float) -> float:
    """P(K > sqrt(n_eff) * stat) for the Kolmogorov law K, from its two classical
    series (theta-function form below 1); eight terms of either reach double precision."""
    x = math.sqrt(n_eff) * stat
    if x <= 0.0:
        return 1.0
    if x < 1.0:
        c = -(math.pi**2) / (8.0 * x * x)
        return 1.0 - math.sqrt(2.0 * math.pi) / x * sum(math.exp(c * (2 * k - 1) ** 2) for k in range(1, 9))
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 9))


def ks_one_sample(s: SampleSet, cdf: Callable[[float], float]) -> tuple[float, float]:
    """Two-sided KS statistic against a continuous reference CDF, with the
    asymptotic Kolmogorov p-value at sqrt(n) * D (meaningful for n >= 8)."""
    n = s.values.size
    if n < 1:
        raise EmptySampleError("ks_one_sample needs a non-empty sample")
    f = np.array([cdf(float(x)) for x in s.values], dtype=float)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1.0) / n))
    stat = max(d_plus, d_minus, 0.0)
    return stat, _kolmogorov_pvalue(stat, n)


def ks_two_sample(a: SampleSet, b: SampleSet) -> tuple[float, float]:
    """Two-sided two-sample KS via merged ECDFs; p-value at the effective size
    n_a * n_b / (n_a + n_b)."""
    na, nb = a.values.size, b.values.size
    if na < 1 or nb < 1:
        raise EmptySampleError("ks_two_sample needs two non-empty samples")
    pooled = np.concatenate([a.values, b.values])
    fa = np.searchsorted(a.values, pooled, side="right") / na
    fb = np.searchsorted(b.values, pooled, side="right") / nb
    stat = float(np.max(np.abs(fa - fb)))
    n_eff = na * nb / (na + nb)
    return stat, _kolmogorov_pvalue(stat, n_eff)


def wasserstein1(a: SampleSet, b: SampleSet) -> float:
    """Mean absolute difference of order statistics.

    Both samples are resampled onto the common quantile grid (i + 1/2)/m,
    m = max(n_a, n_b), with the inverted-CDF (order statistic) rule; for equal
    sizes this reduces to the plain sorted-difference mean.  The rule's
    quantile of a sorted sample of size k at q is its order statistic
    ceil(k q - 1), numpy's index, looked up directly: np.quantile spends
    milliseconds where the lookup spends microseconds.
    """
    na, nb = a.values.size, b.values.size
    if na < 1 or nb < 1:
        raise EmptySampleError("wasserstein1 needs two non-empty samples")
    m = max(na, nb)
    q = (np.arange(m) + 0.5) / m
    qa, qb = (s.values[np.ceil(s.values.size * q - 1.0).astype(np.intp)] for s in (a, b))
    return float(np.mean(np.abs(qa - qb)))


# ---------------------------------------------------------------------------
# replicate execution


def _drop_censored(lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """Finite lengths and the count of censored (nan) ones."""
    kept = lengths[~np.isnan(lengths)]
    return kept, lengths.size - kept.size


def _path_intervals(plan: SamplerPlan, u: float, n: int, master_seed: int, lane: int) -> tuple[np.ndarray, dict]:
    """Interval rows (tau_minus, tau_plus, length) of n exactly conditioned
    paths on the plan's grid, drawn and scanned a block at a time, and the
    lane's synthesis block.  FFT plans draw on the pool (pooled_rows); direct
    plans walk outward from the origin (_outward_intervals).  At alpha = 1 the
    path is an Ornstein-Uhlenbeck process, so each side of it walks its exact
    grid recursion from the origin value (_markov_lane)."""
    if plan.kernel.alpha == 1.0:
        decay = math.exp(-plan.grid.step)
        scale = math.sqrt(-plan.kernel.r0 * math.expm1(-2.0 * plan.grid.step))  # sqrt(r0 (1 - decay**2))

        def walk(rngs: list[np.random.Generator]) -> tuple[np.ndarray, int]:
            return markov_intervals(plan.grid, u, exceedances(plan, u, rngs), decay, scale, 0.0, rngs)

        return _markov_lane(walk, n, master_seed, lane)

    def scan(seeds: list[int]) -> np.ndarray:
        return crossing_bounds(plan.grid, sample_conditional_exceedance(plan, u, seeds), u)

    if plan.basis is None:
        rows = pooled_rows(scan, n, master_seed, lane, block_size(plan.spectral_weights))
    else:
        outward = partial(_outward_intervals, plan, u)
        rows = np.concatenate(list(replicates(outward, n, master_seed, lane, _OUTWARD_BLOCK)))
    return rows, _synthesis(plan.spectral_weights, plan.fro_error, plan.embed_factor, plan.band, plan.engine)


def _markov_lane(walk: Callable, n: int, master_seed: int, lane: int) -> tuple[np.ndarray, dict]:
    """Interval rows of n replicates of a lane that walk(rngs) draws as
    (rows, normals drawn) for a block of generators, in blocks of
    _MARKOV_BLOCK substreams on the calling thread; and the lane's synthesis
    block, its engine and the mean normals drawn per pair."""
    drawn = []

    def block(seeds: list[int]) -> np.ndarray:
        rows, normals = walk(generators(seeds))
        drawn.append(normals)
        return rows

    rows = np.concatenate(list(replicates(block, n, master_seed, lane, _MARKOV_BLOCK)))
    return rows, {"engine": "markov", "normals_per_pair": sum(drawn) / ((n + 1) // 2)}


def _outward_intervals(plan: SamplerPlan, u: float, seeds: list[int]) -> np.ndarray:
    """scan(seeds) of _path_intervals bit for bit on a direct plan, from only
    the basis slices its crossings need: crossings.walk_intervals walks the
    slices of direct_slices outward from the one centred on the origin.  Every
    product evaluates and conditions the centre slice, whose origin column
    gives X_0, then the next slice on each side where one of its paths is
    still above u, each column with the bits of a full draw.  A side of a
    round is one stacked np.matmul over the products still open there, in
    place when every product is, then the conditioning of each open product
    on its own, so that its temporary stays one product's size."""
    grid, o, basis = plan.grid, plan.grid.origin_index, plan.basis
    slices = direct_slices(basis)
    centre = slices[len(slices) // 2]
    rngs = generators(seeds)
    coefs = direct_products(plan, rngs)
    height = coefs.shape[1]
    xi = exceedances(plan, u, rngs)
    values = np.empty((len(coefs) * height // 2, 2, grid.n))  # (substream, draw, point), whole products
    rows = values.reshape(len(coefs), height, grid.n)
    shift = np.zeros((len(coefs), height, 1))  # xi, then xi - X_0, per path; 0 on padding rows
    shift.reshape(-1)[: len(xi)] = xi

    def advance(sides: np.ndarray, lo: int, hi: int) -> None:
        live = np.logical_or.reduceat(sides, np.arange(0, len(sides), height // 2))  # (product, side)
        spans = [slice(o - hi, o + hi + 1)] if lo == 0 else [slice(o - hi, o - lo), slice(o + lo + 1, o + hi + 1)]
        for side, cols in enumerate(spans):  # the centre slice first, where every side is open
            open_ = np.flatnonzero(live[:, side])
            if open_.size == len(coefs):  # in place, as in the centre round
                np.matmul(coefs, basis[:, cols], out=rows[:, :, cols])
            elif open_.size:
                rows[open_, :, cols] = np.matmul(coefs[open_], basis[:, cols])
            if lo == 0:
                np.subtract(shift, rows[:, :, o : o + 1], out=shift)
            for p in open_:
                rows[p, :, cols] += shift[p] * plan.profile[cols]
        if lo == 0:
            values[: len(rngs), :, o] = xi.reshape(-1, 2)  # exact, guards the strict exceedance against roundoff

    return walk_intervals(grid, u, values[: len(rngs)], advance, centre.stop - centre.start, o - centre.start)


def _limit_intervals(
    alpha: float, r0: float, grid: Grid, n: int, master_seed: int, lane: int
) -> tuple[np.ndarray, dict]:
    """Interval rows of n heavy-tail limit draws on the grid, and the lane's
    synthesis block."""
    if alpha == 1.0:
        return _markov_lane(partial(_markov_limit_intervals, c_alpha(1.0), r0, grid), n, master_seed, lane)
    embedding = _fgn_weights(alpha, grid)
    draw = partial(sample_limit_length, alpha, r0, grid)
    rows = pooled_rows(draw, n, master_seed, lane, block_size(embedding[0]))
    return rows, _synthesis(*embedding)


def simulate_excursion_lengths(
    kernel: Kernel,
    u: float,
    grid: Grid,
    n: int,
    master_seed: int,
    *,
    lane: int = PATH_LANE,
) -> tuple[np.ndarray, int]:
    """Unscaled excursion lengths of n exactly conditioned paths.

    Censored replicates (no crossing inside the window) are dropped and
    counted, never imputed.  Returns (lengths, n_censored).
    """
    plan = build_sampler(kernel, grid)
    return _drop_censored(_path_intervals(plan, u, n, master_seed, lane)[0][:, 2])


def draw_limit_lengths(
    alpha: float,
    r0: float,
    grid: Grid,
    n: int,
    master_seed: int,
    *,
    lane: int = LIMIT_LANE,
) -> tuple[np.ndarray, int]:
    """n draws of the heavy-tail limit interval length; censored draws dropped
    and counted."""
    return _drop_censored(_limit_intervals(alpha, r0, grid, n, master_seed, lane)[0][:, 2])


def median_excursion_length(
    kernel: Kernel,
    u: float,
    grid: Grid,
    n: int,
    master_seed: int,
) -> float:
    lengths, _ = simulate_excursion_lengths(kernel, u, grid, n, master_seed)
    if lengths.size < 1:
        raise EmptySampleError("all replicates were censored")
    return float(np.median(lengths))


def _panel_rows(plan: SamplerPlan, u: float, cols: list[int], n: int, master_seed: int) -> np.ndarray:
    """u * Z_t at the grid columns ``cols`` of n replicates of the path lane
    on the plan's grid, one row each.  Z_t = X_t - (R(t)/R(0)) * X_0 takes the
    same value on the conditioned path as on the unconditional draw X it
    conditions, so each block draws whole unconditional rows
    (sampling.sample_unconditional) and no exceedance: the path's truncated
    normal comes after its normals, which are the conditioned path's."""
    o, profile = plan.grid.origin_index, plan.profile[cols]

    def residuals(seeds: list[int]) -> np.ndarray:
        x = sample_unconditional(plan, seeds)
        return u * (x[:, cols] - profile * x[:, o, None])

    size = block_size(plan.spectral_weights)
    return np.concatenate(list(replicates(residuals, n, master_seed, PATH_LANE, size)))


def covariance_panel(
    kernel: Kernel,
    u: float,
    pairs: Sequence[tuple[float, float]],
    n: int,
    master_seed: int,
    grid: Grid | None = None,
) -> list[dict]:
    """Empirical covariance of the scaled conditional residual u * Z_t at
    pair times (s, t) in delta_u units, against the fBm target
    c_alpha * (|s|^a + |t|^a - |s-t|^a) of the u -> infinity limit, and against
    the exact finite_u_target u^2 * (R((s-t) d) - R(s d) R(t d) / R(0)),
    d = delta_u, which holds at any u because Z is independent of X_0.

    Z_t = X_t - (R(t)/R(0)) * X_0 on the conditioned path (_panel_rows).
    The panel times must land on points of ``grid``.  Paths are drawn whole,
    in blocks of block_size substreams, on the grid of its step that reaches
    the furthest of them (at least one step): an exact embedding of any grid
    holding the panel's columns gives them the same joint law, so no number
    depends on the window of ``grid``.
    """
    if n < 2:
        raise DomainError(f"a covariance estimate needs n >= 2 replicates, got {n}")
    d = delta_u(kernel, u)
    if grid is None:
        grid = heavy_tail_grid(kernel, u)

    panel_times = sorted({float(v) for pair in pairs for v in pair})
    offsets = {}
    for s in panel_times:
        offset = s * d / grid.step
        idx = round(offset)
        if abs(offset - idx) > 1e-6:
            raise DomainError(f"panel time {s} * delta_u does not land on the grid")
        if not 0 <= grid.origin_index + idx < grid.n:
            raise DomainError(f"panel time {s} * delta_u lies outside the window")
        offsets[s] = idx

    arm = max([1, *map(abs, offsets.values())])
    plan = build_sampler(kernel, Grid(grid.step, arm * grid.step))
    assert plan.grid.arm == arm, (plan.grid, arm)
    rows = _panel_rows(plan, u, [arm + offsets[s] for s in panel_times], n, master_seed)
    col_of = {s: k for k, s in enumerate(panel_times)}
    c = c_alpha(kernel.alpha)
    a = kernel.alpha
    r = kernel.value

    out = []
    for s, t in pairs:
        xs = rows[:, col_of[float(s)]]
        ys = rows[:, col_of[float(t)]]
        cov = float(np.cov(xs, ys, ddof=1)[0, 1])
        var_x = float(np.var(xs, ddof=1))
        var_y = float(np.var(ys, ddof=1))
        se = math.sqrt((var_x * var_y + cov * cov) / n)
        target = c * (abs(s) ** a + abs(t) ** a - abs(s - t) ** a)
        finite_u_target = u * u * (r((s - t) * d) - r(s * d) * r(t * d) / kernel.r0)
        out.append(
            {
                "s": float(s),
                "t": float(t),
                "empirical": cov,
                "target": target,
                "finite_u_target": finite_u_target,
                "se": se,
                "n": n,
            }
        )
    return out


# ---------------------------------------------------------------------------
# verification driver


def c2_grid(u: float, step_factor: float = DEFAULT_STEP_FACTOR, window_factor: float = WINDOW_FACTOR) -> Grid:
    """Smooth-regime grid: resolution and window shrink like 1/u."""
    if not u > 0.0:
        raise DomainError(f"threshold u must be positive, got {u!r}")
    return Grid(step=step_factor / u, half_width=window_factor / u)


def heavy_tail_grid(
    kernel: Kernel,
    u: float,
    step_factor: float = DEFAULT_STEP_FACTOR,
    window_factor: float = WINDOW_FACTOR,
) -> Grid:
    """Heavy-tail grid in units of the excursion scale delta_u."""
    d = delta_u(kernel, u)
    return Grid(step=step_factor * d, half_width=window_factor * d)


def limit_grid(step: float = LIMIT_GRID_STEP, half_width: float = LIMIT_GRID_HALF_WIDTH) -> Grid:
    return Grid(step=step, half_width=half_width)


@dataclass
class VerificationReport:
    regime: str
    ks_stat: float
    ks_pvalue: float
    wasserstein1: float
    quantiles: list[dict]
    n: int
    n_censored: int
    ks_threshold: float
    passed: bool
    config: dict
    runtime_seconds: float
    delta_u: float | None = None
    n_censored_limit: int | None = None
    censoring: dict = field(default_factory=dict)
    synthesis: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        """The report's fields, without the heavy-tail ones a smooth run leaves None."""
        return {key: value for key, value in asdict(self).items() if value is not None}


def _check_censor_budget(n_censored: int, n: int, what: str) -> None:
    rate = n_censored / n
    if rate > CENSOR_BUDGET:
        raise CensorBudgetExceeded(
            f"{what}: censored {n_censored}/{n} replicates "
            f"({rate:.2%} > budget {CENSOR_BUDGET:.2%}); widen the window"
        )


def _grid_echo(grid: Grid) -> dict:
    return {"step": grid.step, "half_width": grid.half_width, "points": grid.n}


def _censoring(intervals: np.ndarray, grid: Grid) -> dict:
    """Censor counts per side, and the REACH_QUANTILES and maximum of each
    replicate's reach max(|tau_-|, tau_+) as a fraction of the window's
    half-width.  crossing_bounds parks a censored side on the last grid point,
    so the half-width is measured to that point: a side is censored exactly
    when it reaches 1."""
    edge = grid.arm * grid.step  # == grid.times()[-1]
    reach = np.abs(intervals[:, :2]) / edge
    furthest = np.sort(reach.max(axis=1))
    return {
        "censored_left": int(np.count_nonzero(reach[:, 0] >= 1.0)),
        "censored_right": int(np.count_nonzero(reach[:, 1] >= 1.0)),
        **{key: _quantile(furthest, q) for key, q in REACH_QUANTILES.items()},
        "reach_max": float(furthest[-1]),
    }


def _synthesis(weights: np.ndarray, fro_error: float, embed_factor: int, band: int, engine: str = "fft") -> dict:
    """Quality and size of one lane's circulant embedding; fft_len is the
    circulant length, which padding to a 5-smooth size decouples from
    embed_factor, modes the complex modes drawn per pair, and engine how the
    lane evaluates its draws: "direct" or "fft" (every limit lane drawn by
    FFT).  Markov lanes embed nothing; _markov_lane writes their block."""
    return {
        "embed_factor": embed_factor,
        "fro_error": fro_error,
        "fft_len": int(weights.size),
        "modes": sum(band_split(weights.size, band)),
        "engine": engine,
    }


def _quantile(x: np.ndarray, q: float) -> float:
    """np.quantile(x, q) of sorted values x, bit for bit, by numpy's default
    linear rule, without the numpy.ma import np.quantile brings."""
    v = (x.size - 1) * q
    lo = math.floor(v)
    a, b, g = x[lo], x[min(lo + 1, x.size - 1)], v - lo
    return float(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)


def _sample_quantile(s: SampleSet, p: float) -> float:
    return _quantile(s.values, p)


def _versions() -> dict:
    """The package's and numpy's own __version__, without importlib.metadata."""
    from . import __version__

    return {"excursions": __version__, "numpy": np.__version__}


def run_verification(
    kernel: Kernel,
    u: float,
    grid: Grid,
    n: int,
    master_seed: int,
    *,
    limit: Grid = limit_grid(),
    ks_threshold: float | None = None,
    extra_config: dict | None = None,
) -> VerificationReport:
    """Simulate n conditioned paths on the grid, scale the excursion lengths,
    and compare them to the reference law of the kernel's regime.

    C2 (alpha = 2): lengths scaled by u, one-sample KS against the closed
    limit CDF.  HeavyTail (alpha < 2): lengths scaled by 1/delta_u, two-sample
    KS against n draws of the limit interval on the ``limit`` grid, which a C2
    run ignores.  Censor rates above CENSOR_BUDGET abort the run.
    """
    t0 = time.perf_counter()
    if n < MIN_RUN_SIZE:
        raise DomainError(f"verification needs n >= {MIN_RUN_SIZE}, got {n}")
    if not u > 0.0:
        raise DomainError(f"threshold u must be positive, got {u!r}")
    regime = "C2" if kernel.alpha == 2.0 else "HeavyTail"
    threshold = KS_THRESHOLDS[regime] if ks_threshold is None else ks_threshold

    config = {
        "regime": regime,
        "alpha": kernel.alpha,
        "r0": kernel.r0,
        "u": u,
        "n": n,
        "master_seed": int(master_seed),
        "path_grid": _grid_echo(grid),
        "censor_budget": CENSOR_BUDGET,
        "versions": _versions(),
    }
    if extra_config:
        config.update(extra_config)

    plan = build_sampler(kernel, grid)
    synthesis = {}
    intervals, synthesis["path"] = _path_intervals(plan, u, n, master_seed, PATH_LANE)
    lengths, n_cens = _drop_censored(intervals[:, 2])
    _check_censor_budget(n_cens, n, "path simulation")
    censoring = {"path": _censoring(intervals, grid)}

    if regime == "C2":
        d_u = n_cens_limit = None
        sample = make_sample_set(u * lengths)
        params = C2LimitParams(kernel.r0, second_derivative_at_zero(kernel))
        stat, pvalue = ks_one_sample(sample, lambda x: c2_limit_cdf(params, x))
        reference = make_sample_set(
            c2_limit_sample(params, substream_seed(master_seed, LIMIT_LANE, 0), size=sample.values.size)
        )
        reference_quantile = partial(c2_limit_quantile, params)
    else:
        d_u = delta_u(kernel, u)
        limit_intervals, synthesis["limit"] = _limit_intervals(
            kernel.alpha, kernel.r0, limit, n, master_seed, LIMIT_LANE
        )
        limit_lengths, n_cens_limit = _drop_censored(limit_intervals[:, 2])
        _check_censor_budget(n_cens_limit, n, "limit-process draws")
        censoring["limit"] = _censoring(limit_intervals, limit)
        config["limit_grid"] = _grid_echo(limit)
        sample = make_sample_set(lengths / d_u)
        reference = make_sample_set(limit_lengths)
        stat, pvalue = ks_two_sample(sample, reference)
        reference_quantile = partial(_sample_quantile, reference)
    quantiles = [
        {"p": p, "empirical": _sample_quantile(sample, p), "reference": reference_quantile(p)}
        for p in QUANTILE_PROBS
    ]

    return VerificationReport(
        regime=regime,
        ks_stat=float(stat),
        ks_pvalue=float(pvalue),
        wasserstein1=wasserstein1(sample, reference),
        quantiles=quantiles,
        n=n,
        n_censored=int(n_cens),
        ks_threshold=float(threshold),
        passed=bool(stat <= threshold),
        config=config,
        runtime_seconds=time.perf_counter() - t0,
        delta_u=d_u,
        n_censored_limit=n_cens_limit,
        censoring=censoring,
        synthesis=synthesis,
    )
