"""Exact synthesis of stationary Gaussian paths and exceedance conditioning.

Sampling is exact for the grid law, never an approximating AR model:
circulant embedding of the Toeplitz covariance, padded until the spectrum is
non-negative and the realized covariance passes a Frobenius check.  One
complex FFT yields two independent exact draws, its real and imaginary parts,
so every substream seed gives a pair.  Eigenvalues at or below
EIGENVALUE_TOL times the largest are clamped to zero, and normals are drawn
only for the band of circular frequencies |k| <= K that keeps a nonzero
weight: the exp(-t**2) kernel keeps a few dozen of its thousands of modes,
the default heavy-tail embeddings keep them all.
A plan evaluates the same draw, from the same normals, in one of two ways.
The FFT transforms the whole circle.  The direct sum (direct_sum) folds each
mode M - k onto k and multiplies the band's coefficients into a cos/sin basis
of the grid, 2 (K + 1) rows, one column slice at a time, the slices
(direct_slices) centred on the origin.  build_sampler picks it when the band
leaves part of the circle undrawn and the product over the whole grid is cheap
against the FFT, as on every default smooth-regime grid; heavy-tail spectra
keep every mode, so their plans transform.  The samplers here evaluate the
whole grid; verify's walks evaluate only what they read.
Samplers take a block of consecutive substream seeds (one seed is a block of
one; block_size sizes a block by the rule in streams); each substream keeps
its own generator, and no block shares a buffer with another, so neither the
block size nor the thread that draws a block changes a number.  A block is a
(2 * substreams, grid.n) array, one path per row, a substream's pair on
consecutive rows, with t = 0 at grid.origin_index.  The same FFT draws
fractional Gaussian noise for the heavy-tail limit process.
Conditioning on an origin exceedance replaces the origin coordinate by an
independent truncated normal and propagates it along the regression profile
R(t)/R(0), which reproduces the conditional law exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import DomainError, SynthesisError
from .kernels import Kernel
from .streams import generators

__all__ = [
    "Grid",
    "SamplerPlan",
    "build_sampler",
    "sample_unconditional",
    "sample_truncated_normal",
    "sample_conditional_exceedance",
    "path_derivative_at_zero",
]

# Circulant embedding is retried on domains padded by doubling factors until
# the circulant would exceed this many points (a memory guard of 128 MiB per
# complex draw); then synthesis gives up.
MAX_EMBED_SIZE = 2**23
# Circulant eigenvalues at or below this fraction of the largest one are
# clamped to zero, and their modes are never drawn; an embedding whose
# spectrum dips below minus this fraction is rejected as indefinite.
EIGENVALUE_TOL = 1e-12
# Relative Frobenius error any accepted embedding must meet.
FACTOR_TOL = 1e-8
# Substreams per whole-row block: as many as fill this many bytes of complex
# circulant rows (block_size), the array an FFT block transforms in place, so a
# block's fixed costs, its crossing scan and its hand-off to a worker thread,
# are shared by 16 path pairs on an 8000-point circulant.  At 512 KiB the heap
# returned each block's arrays to the system and faulted them back in: 73k
# minor faults in `verify-ht --alpha 0.75 --n 2000`, against 9k at 2 MiB.
_BLOCK_BYTES = 2**21
# The direct sum replaces the FFT when its 2 (K + 1) * n multiply-adds per row
# are at most this many times M * ceil(log2 M) for an M-point circulant.  On
# one thread the two cost the same per pair at a ratio of 5 to 7 for M from
# 4000 to 20000 (3.5 at M = 800); the FFT's worker pool wins back about 1.5x.
_DIRECT_COST = 4
# Rows of every direct-sum product, two per substream; a short last chunk is
# padded with zero rows.  OpenBLAS may round a row differently in products of
# different heights, so one fixed height keeps a run the prefix of a longer one.
_DIRECT_ROWS = 8
# Multiply-adds of the largest direct-sum product: OpenBLAS computes one this
# small on the calling thread, while a larger one may wake BLAS threads that
# only contend for the CPU.  The basis is cut into column slices to keep each
# product within it.
_DIRECT_MACS = 2**18
# Entries of the largest k j mod m index band_basis builds at once (128 KiB).
_BASIS_INDEX = 2**14


@dataclass(frozen=True)
class Grid:
    """Uniform grid symmetric around t = 0 with an odd number of points."""

    step: float
    half_width: float

    def __post_init__(self):
        if not (0.0 < self.step < math.inf and 0.0 < self.half_width < math.inf):
            raise DomainError("grid step and half_width must be positive and finite")
        if not self.half_width / self.step < math.inf:
            raise DomainError("grid half_width / step overflows; the grid has too many points")
        if self.arm < 1:
            raise DomainError("grid needs at least 3 points; require half_width >= step")

    @property
    def arm(self) -> int:
        # points strictly to one side of the origin
        return int(math.floor(self.half_width / self.step + 1e-9))

    @property
    def n(self) -> int:
        return 2 * self.arm + 1

    @property
    def origin_index(self) -> int:
        return self.arm

    def times(self) -> np.ndarray:
        m = self.arm
        return np.arange(-m, m + 1) * self.step


@dataclass
class SamplerPlan:
    """Precomputed circulant embedding reused across replicates."""

    kernel: Kernel
    grid: Grid
    fro_error: float
    embed_factor: int
    spectral_weights: np.ndarray  # sqrt(lam / M), length M
    band: int  # largest circular frequency with a nonzero weight
    profile: np.ndarray  # regression profile R(t)/R(0) on the grid
    basis: np.ndarray | None  # direct-sum basis (band_basis), None when the plan draws by FFT

    @property
    def engine(self) -> str:
        """How the plan evaluates its draws: "direct" or "fft"."""
        return "fft" if self.basis is None else "direct"


def _toeplitz_fro_gap(row_target: np.ndarray, row_realized: np.ndarray, n: int) -> float:
    """Relative Frobenius distance between symmetric Toeplitz matrices given by
    their first rows, computed in O(n) via lag multiplicities."""
    w = (n - np.arange(n)).astype(float)
    w[1:] *= 2.0  # each off-diagonal lag appears on both sides
    # both rows scaled by a power of two that brings row_target[0] into [1, 2):
    # exact, and leaves a unit variance as it is, yet the squares neither
    # underflow nor overflow at any variance
    scale = 1 - math.frexp(float(row_target[0]))[1]
    da = np.ldexp(row_target[:n], scale)
    db = np.ldexp(row_realized[:n], scale)
    num = math.sqrt(float(np.sum(w * (da - db) ** 2)))
    den = math.sqrt(float(np.sum(w * da**2)))
    return num / den


def _next_smooth(m: int) -> int:
    """Smallest integer >= m with no prime factor above 5, so that an FFT of
    twice that length never falls back to Bluestein's algorithm."""
    best = 2 ** max(m - 1, 0).bit_length()  # the next power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 = 3**i * 5**j, times the least power of two reaching m
            best = min(best, p35 * 2 ** max(-(-m // p35) - 1, 0).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def circulant_weights(
    autocov: Callable[[np.ndarray], np.ndarray], n: int
) -> tuple[np.ndarray, float, int, int]:
    """Spectral weights of an exact circulant embedding of a stationary
    n-point Gaussian vector whose lag-k covariance is autocov(k).

    Embeddings of the Toeplitz row out to lag _next_smooth(f * (n - 1)), for
    doubling factors f = 1, 2, 4, ..., are tried in turn, up to MAX_EMBED_SIZE
    circulant points; the first n points of a longer row's embedding are still
    exact.  One is rejected when its spectrum dips below -EIGENVALUE_TOL * max
    eigenvalue.  Otherwise every eigenvalue at or below EIGENVALUE_TOL * max is
    clamped to zero, and the embedding is rejected when the covariance the
    clamped spectrum delivers misses the target by more than FACTOR_TOL in
    relative Frobenius norm: the spectrum checked is the one drawn.  Returns
    (weights, fro_error, embed_factor, band), band being the largest circular
    frequency min(k, M - k) with a nonzero weight, else raises SynthesisError;
    a grid whose first embedding is already too large raises DomainError.
    """
    if (size := 2 * _next_smooth(n - 1)) > MAX_EMBED_SIZE:  # before anything is allocated
        raise DomainError(
            f"embedding {n} grid points needs a circulant of {size} points, over the 2**23 limit"
        )
    embed_factor = 1
    while 2 * (ext := _next_smooth(embed_factor * (n - 1))) <= MAX_EMBED_SIZE:
        row = autocov(np.arange(ext + 1))
        c = np.concatenate([row, row[-2:0:-1]])  # wrapped row, length 2 * ext
        lam = np.fft.fft(c).real
        floor = EIGENVALUE_TOL * float(lam.max())
        if float(lam.min()) >= -floor:
            lam[lam <= floor] = 0.0
            realized = np.fft.ifft(lam).real  # covariance the clamped spectrum delivers
            gap = _toeplitz_fro_gap(row, realized, n)
            if gap <= FACTOR_TOL:
                kept = np.flatnonzero(lam)
                band = int(np.minimum(kept, lam.size - kept).max())
                return np.sqrt(lam / lam.size), gap, embed_factor, band
        embed_factor *= 2
    raise SynthesisError(
        f"no circulant embedding of at most {MAX_EMBED_SIZE} points met the exactness tolerance"
    )


def block_size(weights: np.ndarray) -> int:
    """Substreams per whole-row block for draws embedded by ``weights``, on
    either engine: as many as fill _BLOCK_BYTES of the complex array an FFT
    block transforms, and at least one."""
    return max(1, _BLOCK_BYTES // (16 * weights.size))


def band_split(size: int, band: int) -> tuple[int, int]:
    """(head, tail): the modes min(k, size - k) <= band of a size-point
    circulant are [0, head) and [size - tail, size), which meet when the band
    covers the whole circle; head + tail normals are drawn per real or
    imaginary part."""
    return band + 1, min(band, size - band - 1)


def circulant_draw(weights: np.ndarray, band: int, n: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """Two independent exact draws of the n-point vector embedded by ``weights``
    per generator, as a (2 * len(rngs), n) array: the real and imaginary parts
    of the FFT of one row of complex normals per generator (Wood & Chan 1994;
    Dietrich & Newsam 1997).  Each generator draws its real normals for the
    modes of the band (band_split) in ascending order, then its imaginary ones,
    in one call, into an array the block's generators fill in turn; every
    other mode is zero.  The block's rows are one fresh array, which one FFT
    transforms in place along them, so worker threads contend for the GIL as
    seldom as the draws allow."""
    m = weights.size
    head, tail = band_split(m, band)
    drawn = np.empty((2, head + tail))
    z = np.zeros((len(rngs), m), dtype=complex)
    for row, rng in zip(z, rngs):
        rng.standard_normal(out=drawn)
        row.real[:head], row.imag[:head] = drawn[0, :head], drawn[1, :head]
        row.real[m - tail :], row.imag[m - tail :] = drawn[0, head:], drawn[1, head:]
    for modes in (slice(0, head), slice(m - tail, m)):
        z[:, modes] *= weights[modes]
    y = np.fft.fft(z, axis=1, out=z)[:, :n]
    pairs = np.empty((2 * len(rngs), n))
    pairs[0::2], pairs[1::2] = y.real, y.imag
    return pairs


def band_basis(m: int, band: int, n: int) -> np.ndarray:
    """The direct sum's basis for the band of an m-point circulant on the grid
    columns j = 0..n-1: rows cos(2 pi k j / m) for k = 0..band, then
    sin(2 pi k j / m).  Each entry is looked up in one m-point table of
    twiddles at k j mod m, for as many rows at once as keep that index within
    _BASIS_INDEX entries."""
    angle = (2.0 * math.pi / m) * np.arange(m)
    cos = np.cos(angle)
    sin = np.sin(angle, out=angle)
    basis = np.empty((2 * (band + 1), n))
    rows = max(1, _BASIS_INDEX // n)
    for k in range(0, band + 1, rows):
        index = np.outer(np.arange(k, min(k + rows, band + 1)), np.arange(n))
        np.remainder(index, m, out=index)
        np.take(cos, index, out=basis[k : k + len(index)])
        np.take(sin, index, out=basis[band + 1 + k : band + 1 + k + len(index)])
    return basis


def _takes_direct_sum(m: int, band: int, n: int) -> bool:
    """Whether the direct sum over a band that leaves part of the circle
    undrawn costs at most _DIRECT_COST times an m-point FFT."""
    return 2 * band + 1 < m and 2 * (band + 1) * n <= _DIRECT_COST * m * math.ceil(math.log2(m))


def direct_slices(basis: np.ndarray) -> list[slice]:
    """The column slices of ``basis`` (band_basis) that direct-sum products
    evaluate, each within _DIRECT_MACS multiply-adds, so OpenBLAS runs on the
    calling thread: the whole basis, or slices of one odd width, one centred
    on the middle column (a grid's origin), so that a walk outward from it
    advances both sides by the same offsets."""
    terms, n = basis.shape
    width = max(1, _DIRECT_MACS // (_DIRECT_ROWS * terms))
    if n > width:  # a basis no wider than one slice stays one slice
        width -= 1 - width % 2
    starts = range((n // 2 - width // 2) % width - width, n, width)
    return [slice(max(cols, 0), min(cols + width, n)) for cols in starts if cols + width > 0]


def direct_products(plan: SamplerPlan, rngs: list[np.random.Generator]) -> np.ndarray:
    """The coefficients of the direct-sum products of a block of generators,
    stacked as a (products, _DIRECT_ROWS, 2 (K + 1)) array: product p holds the
    pairs of the next _DIRECT_ROWS // 2 generators, the last one padded with
    zero rows, and coef[p] times a basis slice is their pairs there.  Each
    generator draws what it draws in circulant_draw into one (substreams, 2,
    modes) array; the block's normals are weighted by their modes' weights and
    modes M - k are folded onto k at once."""
    weights, m = plan.spectral_weights, plan.spectral_weights.size
    head, tail = band_split(m, plan.band)
    products = -(-len(rngs) // (_DIRECT_ROWS // 2))
    drawn = np.empty((products * _DIRECT_ROWS // 2, 2, head + tail))  # (substream, real/imaginary, mode)
    for row, rng in zip(drawn, rngs):
        rng.standard_normal(out=row)
    drawn[len(rngs) :] = 0.0
    drawn[..., :head] *= weights[:head]
    drawn[..., head:] *= weights[m - tail :]
    a, b = drawn[:, 0], drawn[:, 1]  # real and imaginary parts, modes ascending
    a_fold, b_fold = a[:, : head - 1 : -1], b[:, : head - 1 : -1]  # modes M - k, k = 1..tail
    # y_j = sum_k z_k exp(-2 pi i k j / M) with z_{M-k} folded onto k
    coef = np.empty((len(drawn), 2, 2 * head))  # (substream, real/imaginary row, term)
    real, imag = coef[:, 0], coef[:, 1]
    real[:, :head], real[:, head:] = a[:, :head], b[:, :head]
    imag[:, :head] = b[:, :head]
    np.negative(a[:, :head], out=imag[:, head:])
    real[:, 1 : tail + 1] += a_fold
    real[:, head + 1 : head + tail + 1] -= b_fold
    imag[:, 1 : tail + 1] += b_fold
    imag[:, head + 1 : head + tail + 1] += a_fold
    return coef.reshape(products, _DIRECT_ROWS, 2 * head)


def direct_sum(plan: SamplerPlan, rngs: list[np.random.Generator]) -> np.ndarray:
    """The pairs of a direct plan on its grid, as a (2 * len(rngs), grid.n)
    array: the stacked direct_products coefficients times each direct_slices
    slice of plan.basis, one np.matmul per slice.  The same normals as
    circulant_draw's, summed instead of transformed."""
    coefs, basis = direct_products(plan, rngs), plan.basis
    pairs = np.empty((len(coefs), _DIRECT_ROWS, plan.grid.n))
    for cols in direct_slices(basis):
        np.matmul(coefs, basis[:, cols], out=pairs[:, :, cols])
    return pairs.reshape(-1, plan.grid.n)[: 2 * len(rngs)]


def _draw(plan: SamplerPlan, rngs: list[np.random.Generator]) -> np.ndarray:
    """The plan's unconditional pairs on its grid: circulant_draw or direct_sum."""
    if plan.basis is None:
        return circulant_draw(plan.spectral_weights, plan.band, plan.grid.n, rngs)
    return direct_sum(plan, rngs)


def build_sampler(kernel: Kernel, grid: Grid) -> SamplerPlan:
    """Embed the grid covariance once, for reuse across replicates, and build
    the direct sum's basis when the plan takes it (_takes_direct_sum)."""
    weights, gap, embed_factor, band = circulant_weights(
        lambda lags: kernel.value(lags * grid.step), grid.n
    )
    profile = kernel.value(grid.times()) / kernel.r0
    basis = band_basis(weights.size, band, grid.n) if _takes_direct_sum(weights.size, band, grid.n) else None
    return SamplerPlan(kernel, grid, gap, embed_factor, weights, band, profile, basis)


def sample_unconditional(plan: SamplerPlan, seed) -> np.ndarray:
    """Two independent exact draws of the stationary path on the plan's grid
    per substream of ``seed`` (see streams.generators), as rows of a
    (2 * substreams, grid.n) array."""
    return _draw(plan, generators(seed))


# Above this standardized threshold the inverse-CDF loses nothing to switch to
# rejection from a shifted exponential, whose acceptance rate tends to 1.
_INVERSE_CDF_CUTOFF = 2.0
_STD_NORMAL = NormalDist()


def _normal_tail(a: float) -> float:
    """P(Z > a) for a standard normal Z, without cancellation for large a."""
    return 0.5 * math.erfc(a / math.sqrt(2.0))


def _truncated_std_normal(a: float, rng: np.random.Generator) -> float:
    """Standard normal conditioned on exceeding a; exact for every a.  Its
    uniforms come from rng.random(), the double rng.uniform() returns for the
    same draw, without uniform()'s argument handling."""
    if a <= _INVERSE_CDF_CUTOFF:
        q = _normal_tail(a)
        # (1 - U) keeps the argument strictly positive, so the inverse stays finite
        return -_STD_NORMAL.inv_cdf((1.0 - rng.random()) * q)
    lam = 0.5 * (a + math.sqrt(a * a + 4.0))
    if not lam < math.inf:  # a is nan, or a * a overflowed: no draw would ever be accepted
        raise DomainError(f"threshold u / sigma = {a!r} is nan, or too large to sample above: its square overflows")
    while True:
        x = a + rng.standard_exponential() / lam
        # accept with probability exp(-(x - lam)^2 / 2)
        if math.log(1.0 - rng.random()) <= -0.5 * (x - lam) ** 2:
            return x


def sample_truncated_normal(variance: float, u: float, seed) -> float:
    """Exact draw of N(0, variance) conditioned on exceeding u.

    Inverse-CDF for u/sigma <= 2, shifted-exponential rejection above.  ``seed``
    may be an integer or a Generator (for callers drawing in bulk).
    """
    if not 0.0 < variance < math.inf:
        raise DomainError(f"variance must be positive and finite, got {variance!r}")
    [rng] = generators(seed)
    sigma = math.sqrt(variance)
    return sigma * _truncated_std_normal(u / sigma, rng)


def exceedances(plan: SamplerPlan, u: float, rngs: list[np.random.Generator]) -> np.ndarray:
    """Two origin values above u per generator, each drawn after its normals.
    Where the overshoot is too small for the float resolution of u, a draw
    rounds to u itself; that raises DomainError, and nothing is redrawn."""
    sigma = math.sqrt(plan.kernel.r0)
    xi = sigma * np.array([_truncated_std_normal(u / sigma, rng) for rng in rngs for _ in range(2)])
    if not (xi > u).all():
        raise DomainError(f"threshold u = {u!r} is too large for r0 = {plan.kernel.r0!r}: draws round to u")
    return xi


def sample_conditional_exceedance(plan: SamplerPlan, u: float, seed) -> np.ndarray:
    """Two independent exact draws of the path conditioned on its origin value
    exceeding u per substream of ``seed`` (see streams.generators), as rows of
    a (2 * substreams, grid.n) array.

    Each row is X + (R(t)/R(0)) * (xi - X_0) with X one unconditional draw and
    xi its own truncated normal, drawn from the row's generator after the
    normals; the origin value is xi itself, so the conditioning holds on every
    replicate, never by rejection.
    """
    rngs = generators(seed)
    paths = _draw(plan, rngs)
    xi = exceedances(plan, u, rngs)
    origin = plan.grid.origin_index
    paths += (xi - paths[:, origin])[:, None] * plan.profile
    paths[:, origin] = xi  # exact, guards the strict exceedance against roundoff
    return paths


def path_derivative_at_zero(grid: Grid, values: np.ndarray) -> float:
    """Central difference at the origin of a path sampled on the grid."""
    o = grid.origin_index
    return float((values[o + 1] - values[o - 1]) / (2.0 * grid.step))
