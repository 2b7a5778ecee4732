"""Run the excursions CLI with spans recorded around calls into each layer.

Usage: python3 traced_cli.py OUT_JSON ENTRY CLI_ARGS...

ENTRY is the console-script entry point ("module:function").  Each function in
LAYERS is wrapped in its defining module and in every loaded excursions module
that holds it under any name, because callers look names up in their own
namespace (verify and cli import them).  A function that no longer exists is
listed under "missing" and its layer reads absent; the CLI still runs.

Spans keep name, start, end, parent and thread in memory.  A span opened on a
pool thread with nothing open on that thread is charged to the innermost span
open on the main thread.  After the CLI returns, the launcher times up to
REPLAY_PATHS conditioned paths per plan again, each next to sample_unconditional
on the same plan and seed, on one thread, to split synthesis from conditioning.
Then it writes OUT_JSON, two JSON lines, and exits with the CLI's code.  The
second line holds "post_s", the time spent after the CLI returned, which the
caller subtracts from its wall clock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# (layer, defining module, function)
LAYERS = (
    ("sampling.plan_build", "excursions.sampling", "build_sampler"),
    ("sampling.path", "excursions.sampling", "sample_conditional_exceedance"),
    ("streams.substream", "excursions.streams", "substream_seed"),
    ("crossings.scan", "excursions.crossings", "crossing_bounds"),
    ("limit_process.draw", "excursions.limit_process", "sample_limit_length"),
    ("limit_process.factor", "excursions.limit_process", "_fbm_factor"),
    ("limit_law.cdf", "excursions.limit_law", "c2_limit_cdf"),
    ("limit_law.quantile", "excursions.limit_law", "c2_limit_quantile"),
    ("verify.ks", "excursions.verify", "ks_one_sample"),
    ("verify.ks", "excursions.verify", "ks_two_sample"),
    ("verify.w1", "excursions.verify", "wasserstein1"),
    ("verify.run", "excursions.verify", "run_verification"),
    ("verify.covariance_panel", "excursions.verify", "covariance_panel"),
    ("cli.write", "excursions.cli", "_write_csv"),
    ("cli.write", "excursions.cli", "_write_json"),
)
REPLAY_PATHS = 200


class Recorder:
    def __init__(self):
        self.spans = []  # (id, layer, start, end, parent id, thread id)
        self.counts = Counter()
        self.plans = {}  # id(plan) -> {"plan", "embed_factor", "fft_len", "paths", "replay"}
        self.factor_bytes = {}
        self.missing = []
        self.lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, layer, start, end, parent, threading.get_ident()))
            if observe is not None:
                with self.lock:
                    try:
                        observe(self, result, args, kwargs)
                    except Exception as exc:  # a changed signature or return value must not stop the CLI
                        self.missing.append(f"{layer} observer: {type(exc).__name__}: {exc}")
            return result

        return traced

    def plan_entry(self, plan) -> dict:
        entry = self.plans.get(id(plan))
        if entry is None:
            weights = getattr(plan, "spectral_weights", None)
            entry = self.plans[id(plan)] = {
                "plan": plan,
                "embed_factor": getattr(plan, "embed_factor", None),
                "fft_len": None if weights is None else int(weights.size),
                "paths": 0,
                "replay": [],
            }
        return entry


def _observe_plan(rec, plan, args, kwargs):
    rec.plan_entry(plan)


def _observe_path(rec, path, args, kwargs):
    bound = rec.path_signature.bind(*args, **kwargs)
    entry = rec.plan_entry(bound.arguments["plan"])
    entry["paths"] += 1
    if len(entry["replay"]) < REPLAY_PATHS:
        entry["replay"].append(bound)


def _observe_scan(rec, res, args, kwargs):
    for side in ("censored_left", "censored_right"):
        if hasattr(res, side):
            rec.counts[f"crossings.{side}"] += int(getattr(res, side))


def _observe_draw(rec, sample, args, kwargs):
    for attr in ("window_extensions", "censored"):
        if hasattr(sample, attr):
            rec.counts[f"limit_process.{attr}"] += int(getattr(sample, attr))


def _observe_factor(rec, result, args, kwargs):
    factor = result[0] if isinstance(result, tuple) else result
    rec.factor_bytes[id(factor)] = int(getattr(factor, "nbytes", 0))


OBSERVERS = {
    "sampling.plan_build": _observe_plan,
    "sampling.path": _observe_path,
    "crossings.scan": _observe_scan,
    "limit_process.draw": _observe_draw,
    "limit_process.factor": _observe_factor,
}


def install(rec: Recorder) -> dict:
    """Wrap every LAYERS function wherever an excursions module holds it."""
    originals = {}
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "excursions"]
    for layer, module_name, attr in LAYERS:
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            rec.missing.append(f"{module_name}.{attr}")
            continue
        originals[attr] = original
        wrapped = rec.wrap(layer, original, OBSERVERS.get(layer))
        for module in modules:
            names = [k for k, v in vars(module).items() if v is original]
            for name in names:
                setattr(module, name, wrapped)
    if "sample_conditional_exceedance" in originals:
        rec.path_signature = inspect.signature(originals["sample_conditional_exceedance"])
    return originals


def replay(rec: Recorder, originals: dict) -> dict:
    """Conditioned path and unconditional synthesis on the same plan and seed."""
    path_fn = originals.get("sample_conditional_exceedance")
    uncond_fn = getattr(sys.modules.get("excursions.sampling"), "sample_unconditional", None)
    cond, uncond = [], []
    if uncond_fn is None:
        rec.missing.append("excursions.sampling.sample_unconditional")
    if path_fn is None or uncond_fn is None:
        return {"cond": cond, "uncond": uncond}
    try:
        for entry in rec.plans.values():
            for bound in entry["replay"]:
                t0 = time.perf_counter()
                path_fn(*bound.args, **bound.kwargs)
                t1 = time.perf_counter()
                uncond_fn(entry["plan"], bound.arguments["seed"])
                t2 = time.perf_counter()
                cond.append(t1 - t0)
                uncond.append(t2 - t1)
    except Exception as exc:  # the replay is optional; its layer then reads absent
        rec.missing.append(f"replay: {type(exc).__name__}: {exc}")
        cond, uncond = [], []
    return {"cond": cond, "uncond": uncond}


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(rec: Recorder) -> dict:
    """Per layer: call durations in start order, and summed self time.

    Self time is a span's duration minus the union of its children's intervals,
    children on every thread included, so two pool threads working under one
    driver span are not subtracted twice.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in rec.spans:
        if parent is not None:
            children[parent].append((start, end))
    layers = {}
    for sid, layer, start, end, _, _ in sorted(rec.spans, key=lambda s: s[2]):
        out = layers.setdefault(layer, {"durations": [], "self": 0.0})
        out["durations"].append(end - start)
        out["self"] += (end - start) - _covered(children.get(sid, ()), start, end)
    return layers


def main() -> int:
    out_path, entry, *argv = sys.argv[1:]
    module_name, func_name = entry.split(":")
    start = time.perf_counter()
    module = importlib.import_module(module_name)
    import_s = time.perf_counter() - start

    rec = Recorder()
    originals = install(rec)
    sys.argv = ["excursions", *argv]
    try:
        rc = getattr(module, func_name)()
    except SystemExit as exc:  # argparse rejects flags this way
        rc = exc.code if isinstance(exc.code, int) else 1
    done = time.perf_counter()

    plans = [{k: e[k] for k in ("embed_factor", "fft_len", "paths")} for e in rec.plans.values()]
    report = {
        "import_s": import_s,
        "missing": sorted(set(rec.missing)),
        "layers": summarize(rec),
        "counts": dict(rec.counts),
        "plans": plans,
        "factor_bytes": sum(rec.factor_bytes.values()) if rec.factor_bytes else None,
        "replay": replay(rec, originals),
    }
    with open(out_path, "w") as fh:
        fh.write(json.dumps(report) + "\n")
        fh.flush()
        fh.write(json.dumps({"post_s": time.perf_counter() - done}) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
