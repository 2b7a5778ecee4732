"""Cold set-up probe: import the CLI and build what one command needs, then stop.

Usage: python3 setup_probe.py SPEC_JSON

SPEC_JSON holds "entry" (the console-script entry point, "module:function"),
"steps" (a list of [kind, *args], kinds below) and "stamp" (true to add the
environment to the printed line).  The probe prints one JSON line, with
"imported", the time.monotonic() reading once the entry module is imported, and
leaves through os._exit, so the caller's wall clock stops at the end of set-up
and not after interpreter teardown.

A step that raises, for instance because a later change renamed the function it
calls, is skipped and named in "skipped"; the import of the entry module must
succeed.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import sys
import time


def _module(name: str):
    return importlib.import_module(f"excursions.{name}")


def path_plan(alpha: float, u: float, step_factor=None, window_factor=None) -> None:
    """The circulant plan for the path grid of one command."""
    kernels, verify, sampling = _module("kernels"), _module("verify"), _module("sampling")
    kernel = kernels.make_kernel(alpha)
    factors = [f for f in (step_factor, window_factor) if f is not None]
    if alpha == 2.0:
        grid = verify.c2_grid(u, *factors)
    else:
        grid = verify.heavy_tail_grid(kernel, u, *factors)
    sampling.build_sampler(kernel, grid)


def limit_factor(alpha: float, seed: int) -> None:
    """The first limit-process draw, which builds the fBm factor."""
    _module("limit_process").sample_limit_length(alpha, 1.0, _module("verify").limit_grid(), seed)


STEPS = {"path_plan": path_plan, "limit_factor": limit_factor}


def _stamp() -> dict:
    import numpy
    import scipy

    verify = _module("verify")
    budget = getattr(verify, "thread_budget", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "excursions": getattr(importlib.import_module("excursions"), "__version__", None),
        "workers": budget() if callable(budget) else None,
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    importlib.import_module(spec["entry"].split(":")[0])
    imported = time.monotonic()
    skipped = []
    for kind, *args in spec["steps"]:
        try:
            STEPS[kind](*args)
        except Exception as exc:  # the probe must outlive renamed or removed layers
            skipped.append(f"{kind}: {type(exc).__name__}: {exc}")
    out = {"imported": imported, "skipped": skipped}
    if spec.get("stamp"):
        out["stamp"] = _stamp()
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    main()
