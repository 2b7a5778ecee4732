"""Command-line front end: verification runs, limit-law tables, path dumps,
and convergence diagnostics.

The regime follows from the kernel exponent: verify-c2 and limit-cdf have the
one smooth exponent alpha = 2 and take no --alpha flag; verify-ht and
diagnostics need --alpha < 2; sample-paths takes either.

Replicate i of a run is half i % 2 of the path pair drawn from substream
i // 2 of its seed, drawn in blocks of consecutive substreams, sized and
threaded by the block rule in streams; neither the block size nor the number
of worker threads changes a number. Tables go out a chunk at a time, a path or
a whole small table, each formatted and written in one pass.

Exit codes: 0 ok, 1 acceptance failed, 2 configuration error (any bad flag,
including a non-finite number), 3 censor budget exceeded, 4 covariance
synthesis failed, 5 internal error (traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from contextlib import contextmanager
from functools import partial
from itertools import chain, repeat
from pathlib import Path as FilePath

import numpy as np

from .errors import CensorBudgetExceeded, DomainError, SynthesisError
from .kernels import make_kernel, pitman_ratio, second_derivative_at_zero
from .limit_law import C2LimitParams, c2_limit_cdf
from .sampling import block_size, build_sampler, sample_conditional_exceedance
from .streams import replicates
from .verify import (
    DEFAULT_STEP_FACTOR,
    PATH_LANE,
    WINDOW_FACTOR,
    c2_grid,
    covariance_panel,
    heavy_tail_grid,
    limit_grid,
    run_verification,
)

EXIT_OK = 0
EXIT_ACCEPTANCE_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_CENSOR_BUDGET = 3
EXIT_SYNTHESIS_ERROR = 4
EXIT_INTERNAL_ERROR = 5

DEFAULT_SEED = 1729
_COVARIANCE_PAIRS = ((1.0, 1.0), (1.0, 2.0), (-1.0, 1.0))


@contextmanager
def _new_file(path: str):
    """The text file at path, opened for writing; a table goes out a chunk at
    a time as its chunks are produced, so a generator of them is never held in
    memory whole, and if producing them fails, the partial file is removed."""
    fh = open(path, "w", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        FilePath(path).unlink()
        raise


def _write_csv(path: str, header: list[str], chunks) -> None:
    """The bytes csv.writer gives the header and each chunk's rows. A chunk is
    a tuple of columns in header order, each a list of cells or one cell for
    every row, at least one a list. A cell, a number, is written as its str: a
    float, numpy's float64 included, as its shortest round-trip text. A list
    that is the previous chunk's column object is not formatted again."""
    held = [(None, None)] * len(header)  # each column's last list and its texts
    with _new_file(path) as fh:
        fh.write(",".join(header) + "\n")
        for chunk in chunks:
            texts, fields = [], []
            for k, column in enumerate(chunk):
                if isinstance(column, list):
                    if column is not held[k][0]:
                        held[k] = column, [*map(str, column)]
                    texts.append(held[k][1])
                    fields.append("{}")
                else:
                    fields.append(str(column))
            fh.write("".join(map((",".join(fields) + "\n").format, *texts)))


def _write_json(path: str, payload) -> None:
    FilePath(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_table(args, header: list[str], chunks) -> None:
    """Write chunks, shaped as _write_csv takes them, to args.out as CSV, or
    under --format json as the bytes _write_json gives the list of their rows'
    objects keyed by the header: each chunk's objects encoded in one call,
    brackets cut, so only one chunk's objects are in memory."""
    if args.format == "csv":
        return _write_csv(args.out, header, chunks)
    encode = json.JSONEncoder(indent=2, sort_keys=True, check_circular=False).encode
    sep = "[\n"
    with _new_file(args.out) as fh:
        for chunk in chunks:
            rows = zip(*(c if isinstance(c, list) else repeat(c) for c in chunk))
            objects = [dict(zip(header, row)) for row in rows]
            if objects:  # encode([]) is "[]"
                fh.write(sep + encode(objects)[2:-2])
                sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")


def _quantile_csv_path(out: str) -> str:
    p = FilePath(out)
    return str(p.with_name(p.stem + ".quantiles.csv"))


def _write_report(report, out: str) -> None:
    _write_json(out, report.to_dict())
    header = ["p", "empirical", "reference"]
    _write_csv(_quantile_csv_path(out), header, [tuple([row[k] for row in report.quantiles] for k in header)])


def _add_common(sp, *, alpha: float | None, u: float, n: int) -> None:
    """The path and run flags; alpha None fixes alpha = 2, with no --alpha flag."""
    if alpha is None:
        sp.set_defaults(alpha=2.0)
    else:
        sp.add_argument("--alpha", type=float, default=alpha, help=f"kernel exponent (default {alpha})")
    sp.add_argument("--r0", type=float, default=1.0, help="covariance at zero (default 1.0)")
    sp.add_argument("--u", type=float, default=u, help=f"threshold level (default {u})")
    sp.add_argument("--n", type=int, default=n, help=f"replicates (default {n})")
    sp.add_argument(
        "--grid-step-factor",
        type=float,
        default=DEFAULT_STEP_FACTOR,
        help=f"grid step in regime units (default {DEFAULT_STEP_FACTOR})",
    )
    sp.add_argument(
        "--window-factor",
        type=float,
        default=WINDOW_FACTOR,
        help=f"window half-width in regime units, 1/u or delta_u (default {WINDOW_FACTOR})",
    )
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"master seed (default {DEFAULT_SEED})")


def _path_grid(args, kernel):
    """The command's path grid, in regime units: 1/u at alpha = 2, delta_u below."""
    if kernel.alpha == 2.0:
        return c2_grid(args.u, args.grid_step_factor, args.window_factor)
    return heavy_tail_grid(kernel, args.u, args.grid_step_factor, args.window_factor)


def cmd_verify(args) -> int:
    """verify-c2 and verify-ht; the kernel's alpha picks the regime."""
    if args.command == "verify-ht" and args.alpha == 2.0:
        raise DomainError("verify-ht applies to the heavy-tail regime; requires --alpha < 2")
    kernel = make_kernel(args.alpha, args.r0)
    echo = {"grid_step_factor": args.grid_step_factor, "window_factor": args.window_factor}
    # the limit grid's step is in delta_u units, like the heavy-tail path grid's;
    # a smooth run ignores its limit grid, so it keeps the default one
    limit = limit_grid() if kernel.alpha == 2.0 else limit_grid(args.grid_step_factor)
    report = run_verification(
        kernel, args.u, _path_grid(args, kernel), args.n, args.seed, limit=limit, extra_config={"cli": echo}
    )
    _write_report(report, args.out)
    return EXIT_OK if report.passed else EXIT_ACCEPTANCE_FAILED


def _parse_range(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise DomainError(f"range must look like start:stop:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise DomainError(f"range needs finite start, stop and step, got {spec!r}")
    if step <= 0 or stop < start:
        raise DomainError(f"range needs step > 0 and stop >= start, got {spec!r}")
    if not (stop - start) / step < math.inf:
        raise DomainError(f"range {spec!r} has too many points to count")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    try:
        return start + step * np.arange(count)
    except (ValueError, MemoryError) as exc:
        raise DomainError(f"range {spec!r} has {count} points, too many to tabulate") from exc


def cmd_limit_cdf(args) -> int:
    kernel = make_kernel(args.alpha, args.r0)
    params = C2LimitParams(kernel.r0, second_derivative_at_zero(kernel))
    xs = _parse_range(args.range).tolist()
    _write_table(args, ["x", "cdf"], [(xs, [c2_limit_cdf(params, x) for x in xs])])
    return EXIT_OK


def cmd_sample_paths(args) -> int:
    if args.n < 1:
        raise DomainError(f"sample-paths needs --n >= 1, got {args.n}")
    kernel = make_kernel(args.alpha, args.r0)
    plan = build_sampler(kernel, _path_grid(args, kernel))
    times = plan.grid.times().tolist()
    draw = partial(sample_conditional_exceedance, plan, args.u)
    blocks = replicates(draw, args.n, args.seed, PATH_LANE, block_size(plan.spectral_weights))
    # one chunk per path, drawn as it is written: only the blocks in flight are
    # in memory, and the grid's times, the same list each time, are formatted once
    paths = ((times, path.tolist(), i) for i, path in enumerate(chain.from_iterable(blocks)))
    _write_table(args, ["t", "value", "replicate"], paths)
    return EXIT_OK


def cmd_diagnostics(args) -> int:
    if not 0.0 < args.alpha < 2.0:
        raise DomainError("diagnostics applies to the heavy-tail regime; requires --alpha < 2")
    kernel = make_kernel(args.alpha, args.r0)
    # tail-matching curve on a log grid, t decreasing toward 0
    ts = np.geomspace(1.0, 1e-4, 25).tolist()
    ratios = [pitman_ratio(kernel, t) for t in ts]

    grid = _path_grid(args, kernel)
    panel = covariance_panel(kernel, args.u, _COVARIANCE_PAIRS, args.n, args.seed, grid)
    if args.format == "json":
        _write_json(
            args.out,
            {
                "pitman_ratio": [{"t": t, "ratio": r} for t, r in zip(ts, ratios)],
                "covariance": panel,
            },
        )
        return EXIT_OK
    _write_csv(args.out, ["t", "pitman_ratio"], [(ts, ratios)])
    cov_path = FilePath(args.out)
    cov_out = str(cov_path.with_name(cov_path.stem + ".covariance.csv"))
    header = ["s", "t", "empirical", "target", "se", "n"]
    _write_csv(cov_out, header, [tuple([r[k] for r in panel] for k in header)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excursions",
        description="Simulate high-threshold excursions of stationary Gaussian processes "
        "and verify their limiting length laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, alpha, u, what in (
        ("verify-c2", None, 6.0, "smooth-regime verification run (alpha = 2)"),
        ("verify-ht", 1.0, 10.0, "heavy-tail verification run (alpha < 2)"),
    ):
        sp = sub.add_parser(name, help=what)
        _add_common(sp, alpha=alpha, u=u, n=5000)
        sp.add_argument("--out", default="report.json", help="report path (default report.json)")
        sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("limit-cdf", help="tabulate the smooth-regime limit CDF (alpha = 2)")
    sp.add_argument("--r0", type=float, default=1.0, help="covariance at zero (default 1.0)")
    sp.add_argument("--range", default="0:10:0.01", help="x grid as start:stop:step (default 0:10:0.01)")
    sp.add_argument("--out", default="limit_cdf.csv", help="output path (default limit_cdf.csv)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(handler=cmd_limit_cdf, alpha=2.0)

    sp = sub.add_parser("sample-paths", help="dump conditioned paths for inspection")
    _add_common(sp, alpha=2.0, u=6.0, n=5)
    sp.add_argument("--out", default="paths.csv", help="output path (default paths.csv)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(handler=cmd_sample_paths)

    sp = sub.add_parser("diagnostics", help="heavy-tail convergence diagnostics")
    _add_common(sp, alpha=1.0, u=10.0, n=1000)
    sp.add_argument("--out", default="diagnostics.csv", help="output path (default diagnostics.csv)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(handler=cmd_diagnostics)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CensorBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CENSOR_BUDGET
    except SynthesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS_ERROR
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
