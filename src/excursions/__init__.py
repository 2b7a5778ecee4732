"""Simulation and verification toolkit for the length of high-threshold
excursions of stationary Gaussian processes.

Two regimes of the exp-power covariance family R(t) = r0 * exp(-|t|**alpha):
the smooth case alpha = 2, where scaled excursion lengths follow a closed-form
limit law, and the heavy-tail case alpha < 2, where they converge to the
zero-hitting interval of a drifted fractional Brownian motion.
"""

import os

# No product here is large enough for OpenBLAS to thread (sampling._DIRECT_MACS),
# yet it starts its thread pool when numpy loads; a value already set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .crossings import c2_root_predictor, crossing_bounds
from .errors import (
    CensorBudgetExceeded,
    DomainError,
    EmptySampleError,
    NotC2Error,
    NotHeavyTailError,
    PreconditionError,
    SynthesisError,
)
from .kernels import (
    c_alpha,
    delta_u,
    make_kernel,
    pitman_ratio,
    second_derivative_at_zero,
    spectral_tail,
)
from .limit_law import C2LimitParams, c2_limit_cdf, c2_limit_quantile, c2_limit_sample
from .limit_process import (
    fbm_two_sided,
    limit_process_values,
    sample_limit_length,
    sample_tilde_length,
)
from .sampling import (
    Grid,
    build_sampler,
    path_derivative_at_zero,
    sample_conditional_exceedance,
    sample_truncated_normal,
    sample_unconditional,
)
from .verify import (
    c2_grid,
    covariance_panel,
    draw_limit_lengths,
    ecdf,
    heavy_tail_grid,
    ks_one_sample,
    ks_two_sample,
    limit_grid,
    make_sample_set,
    median_excursion_length,
    run_verification,
    simulate_excursion_lengths,
    wasserstein1,
)

__version__ = "0.1.0"
