"""Benchmark of the excursions CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {c2,ht,inspect} [--seed 1729]
                             [--seconds 34] [--trace 0|1]

Each CLI command runs in a fresh process through the console-script entry point
named in pyproject.toml, with PYTHONPATH set to the checkout's src (the package
is pure Python, so there is nothing to build) and EXCURSION_THREADS unset, so
the program picks its own worker count.  Commands run one at a time.  The
workload seed is passed to every command as --seed; all repetitions within a run
use it, so their outputs must agree bit for bit.

--trace 0 runs the workload's commands untraced, again and again until at least
--seconds have passed, the first SETUP_SETS times each after a set of cold
set-up probes (setup_probe.py), then prints the end-to-end metrics as medians.
--trace 1 alternates untraced runs with runs under traced_cli.py and prints the
per-layer metrics and the tracing overhead.

Every output is checked (checks.py).  Operations are path replicates, limit
draws and limit-cdf rows; censored ones count as failed, and so does every
operation of a command that exits non-zero or fails its check.  The last line
of standard output is the result object; the lines before it describe the run
(environment stamp, samples, fail_frac, absent layers, computed metrics).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run must end within 180 s; commands still running after this are killed.
RUN_LIMIT_S = 170.0
# verify-ht at n = 5000 takes over 20 s here, too long to repeat within a run;
# at 2000 the KS tolerance is widened by checks.ks_tolerance.
HT_N = 2000
IMPORTED = "imported.stamp"
# Set-up probe sets per run; each precedes one of the first runs of the commands.
SETUP_SETS = 3


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple
    setup: tuple  # setup_probe.py steps: what the command builds before its first replicate
    replicates: int  # path replicates plus limit draws
    operations: int  # what fail_frac counts
    check: Callable[[Path], tuple[list, dict]]
    out: str
    seeded: bool = True


# The workloads, with why each exists (also in BENCHMARK.json).
WORKLOADS = {
    # Smooth regime: per-path synthesis on a 4001-point grid dominates, the
    # quadrature limit law runs 5000 CDF calls, the limit process is idle.
    "c2": (
        Command(
            "verify-c2", ("--u", "6", "--n", "5000"), (("path_plan", 2.0, 6.0),),
            5000, 5000, lambda out: checks.check_verify("verify-c2", out, 5000), "c2.json",
        ),
    ),
    # Heavy-tail regime: 10001-point paths plus draws through the dense fBm
    # factor; the only workload with large memory; the limit law is idle.
    "ht": (
        Command(
            "verify-ht", ("--alpha", "1", "--u", "10", "--n", str(HT_N)),
            (("path_plan", 1.0, 10.0), ("limit_factor", 1.0, 0)),
            2 * HT_N, 2 * HT_N, lambda out: checks.check_verify("verify-ht", out, HT_N), "ht.json",
        ),
    ),
    # Short commands dominated by import and set-up, plus CSV writing and the
    # covariance panel: work moved into set-up shows here as a regression.
    "inspect": (
        Command(
            "limit-cdf", ("--range", "0:10:0.01"), (), 0, 1001,
            lambda out: checks.check_limit_cdf(out, 0.0, 10.0, 0.01), "cdf.csv", seeded=False,
        ),
        Command(
            "sample-paths",
            ("--alpha", "1", "--u", "10", "--n", "5", "--grid-step-factor", "0.01", "--window-factor", "20"),
            (("path_plan", 1.0, 10.0, 0.01, 20.0),),
            5, 5, lambda out: checks.check_sample_paths(out, 5, 10.0, checks.grid_points(0.01, 20.0)),
            "paths.csv",
        ),
        Command(
            "diagnostics",
            ("--alpha", "0.75", "--u", "10", "--n", "1000", "--grid-step-factor", "0.01", "--window-factor", "50"),
            (("path_plan", 0.75, 10.0, 0.01, 50.0),),
            1000, 1000, lambda out: checks.check_diagnostics(out, 0.75, 1000), "diag.csv",
        ),
    ),
}


class BenchError(Exception):
    """The program cannot be benchmarked here; no result is printed."""


@dataclass
class Outcome:
    rc: int
    started: float  # time.monotonic() at spawn, comparable with the child's clock
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class SequenceResult:
    wall_s: float = 0.0
    pre_main_s: float = 0.0  # interpreter start and entry-point import, in these processes
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    traces: list = field(default_factory=list)


class Bench:
    def __init__(self, workload: str, seed: int, entry: str, workdir: Path):
        self.commands = WORKLOADS[workload]
        self.seed = seed
        self.entry = entry
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "EXCURSION_THREADS"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.problems = []
        self.facts = {}  # command -> facts of its first run
        self.first_outputs = {}
        self.skipped = set()  # set-up steps the probes could not run

    def spawn(self, argv: list, tag: str) -> Outcome:
        """Run one process to its end; wall clock from spawn to exit, peak RSS from wait4."""
        stdout, stderr = self.workdir / f"{tag}.stdout", self.workdir / f"{tag}.stderr"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            started = time.monotonic()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            proc.returncode, started, wall, usage.ru_maxrss / 1024.0, stdout.read_text(), stderr.read_text()
        )

    def probe(self, command: Command, stamp: bool = False) -> tuple[Outcome, dict]:
        spec = {"entry": self.entry, "steps": [list(s) for s in command.setup], "stamp": stamp}
        out = self.spawn([sys.executable, str(HERE / "setup_probe.py"), json.dumps(spec)], "probe")
        if out.rc != 0:
            raise BenchError(f"set-up probe for {command.name} failed (exit {out.rc}):\n{out.stderr}")
        return out, json.loads(out.stdout.splitlines()[-1])

    def setup_set(self) -> tuple[float, float]:
        """Cold set-up of every command: total, and the part spent building after the import."""
        total = build = 0.0
        for command in self.commands:
            out, info = self.probe(command)
            total += out.wall_s
            build += out.wall_s - (info["imported"] - out.started)
            self.skipped.update(info["skipped"])
        return total, build

    def cli_argv(self, command: Command, traced: bool) -> list:
        args = [command.name, *command.args, "--out", command.out]
        if command.seeded:
            args += ["--seed", str(self.seed)]
        if traced:
            return [sys.executable, str(HERE / "traced_cli.py"), "trace.json", self.entry, *args]
        # the console-script wrapper, plus one clock reading once the entry point is imported
        module, func = self.entry.split(":")
        code = (
            f"import sys, time; stamp = sys.argv.pop(1); from {module} import {func}; "
            f"open(stamp, 'w').write(repr(time.monotonic())); sys.exit({func}())"
        )
        return [sys.executable, "-c", code, IMPORTED, *args]

    def sequence(self, traced: bool) -> SequenceResult:
        seq = SequenceResult()
        for command in self.commands:
            for stale in self.workdir.glob(Path(command.out).stem + "*"):
                stale.unlink()
            out = self.spawn(self.cli_argv(command, traced), command.name)
            wall = out.wall_s
            problems, facts = [], {}
            trace = None
            try:
                problems, facts = command.check(self.workdir / command.out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
            if out.rc != 0:
                problems.insert(0, f"exit code {out.rc}: {out.stderr.strip()[-500:]}")
            imported = self.workdir / IMPORTED
            if imported.exists():
                seq.pre_main_s += float(imported.read_text()) - out.started
                imported.unlink()
            if traced and (self.workdir / "trace.json").exists():
                lines = (self.workdir / "trace.json").read_text().splitlines()
                trace = json.loads(lines[0])
                wall -= json.loads(lines[1])["post_s"]
                (self.workdir / "trace.json").unlink()
            problems += self.repeat_check(command)
            if "ks_stat" in facts:
                self.facts.setdefault(command.name, facts)
            seq.wall_s += wall
            seq.peak_rss_mb = max(seq.peak_rss_mb, out.rss_mb)
            seq.attempted += command.operations
            failed = command.operations if problems else facts.get("censored", 0)
            seq.failed += failed
            seq.completed += command.replicates - min(failed, command.replicates)
            if trace is not None:
                seq.traces.append(trace)
            self.problems += [f"{command.name}{' (traced)' if traced else ''}: {p}" for p in problems]
        return seq

    def repeat_check(self, command: Command) -> list:
        """Runs with one seed must write identical outputs, traced or not."""
        path = self.workdir / command.out
        if not path.exists():
            return []
        data = path.read_bytes()
        if command.out.endswith(".json"):  # the report's runtime differs run to run
            report = json.loads(data)
            report.pop("runtime_seconds", None)
            data = json.dumps(report, sort_keys=True).encode()
        first = self.first_outputs.setdefault(command.name, data)
        return [] if data == first else ["output differs from the first run with the same seed"]


def _entry_point() -> str:
    try:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            return tomllib.load(fh)["project"]["scripts"]["excursions"]
    except (OSError, KeyError, tomllib.TOMLDecodeError) as exc:
        raise BenchError(f"no excursions entry point in {ROOT / 'pyproject.toml'}: {exc}") from exc


def _git_commit() -> str | None:
    if shutil.which("git") is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    res = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env
    )
    return res.stdout.strip() if res.returncode == 0 else None


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(seqs: list, setups: list) -> tuple[dict, dict]:
    """Medians over the run.  replicates_per_s divides by wall minus set-up, where
    the interpreter and import part of set-up is read in the very processes
    timed, so its run-to-run noise cancels, and the build part comes from the
    probes."""
    build = statistics.median(b for _, b in setups)
    metrics = {
        "wall_s": (statistics.median(s.wall_s for s in seqs), "s"),
        "setup_s": (statistics.median(t for t, _ in setups), "s"),
        "replicates_per_s": (
            statistics.median(s.completed / (s.wall_s - s.pre_main_s - build) for s in seqs),
            "1/s",
        ),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in seqs), "MiB"),
    }
    samples = {
        "wall_s": [s.wall_s for s in seqs],
        "pre_main_s": [s.pre_main_s for s in seqs],
        "setup_s": [t for t, _ in setups],
        "setup_build_s": [b for _, b in setups],
    }
    return metrics, samples


# Per-layer metrics: name -> unit.  Layers that did no work read 0 and are listed as absent.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.write_s": "s",
    "sampling.plan_build_s": "s",
    "sampling.path_s.p50": "s",
    "sampling.path_s.p99": "s",
    "sampling.unconditional_s.p50": "s",
    "sampling.unconditional_s.p99": "s",
    "sampling.conditioning_s": "s",
    "sampling.paths": "count",
    "sampling.normals_per_path": "count",
    "sampling.fft_len": "count",
    "sampling.embed_factor": "count",
    "streams.substream_s.p50": "s",
    "streams.substream_s.p99": "s",
    "crossings.scan_s.p50": "s",
    "crossings.scan_s.p99": "s",
    "crossings.censored_left": "count",
    "crossings.censored_right": "count",
    "limit_process.first_draw_s": "s",
    "limit_process.draw_s.p50": "s",
    "limit_process.draw_s.p99": "s",
    "limit_process.draws": "count",
    "limit_process.window_extensions": "count",
    "limit_process.censored": "count",
    "limit_process.factor_mb": "MiB",
    "limit_law.cdf_s.p50": "s",
    "limit_law.cdf_s.p99": "s",
    "limit_law.cdf_calls": "count",
    "limit_law.quantile_s": "s",
    "verify.ks_s": "s",
    "verify.w1_s": "s",
    "verify.run_self_s": "s",
    "verify.covariance_panel_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# Derived from the program's return values, not timed or counted as work happens.
COMPUTED = ("sampling.normals_per_path", "sampling.fft_len", "sampling.embed_factor", "limit_process.factor_mb")
# span layer -> per-call metric
PER_CALL = {
    "sampling.path": "sampling.path_s",
    "streams.substream": "streams.substream_s",
    "crossings.scan": "crossings.scan_s",
    "limit_process.draw": "limit_process.draw_s",
    "limit_law.cdf": "limit_law.cdf_s",
}
# per-run metric -> (span layer, what to sum)
PER_RUN = {
    "cli.write_s": ("cli.write", "total"),
    "sampling.plan_build_s": ("sampling.plan_build", "total"),
    "limit_process.first_draw_s": ("limit_process.draw", "first"),
    "limit_law.quantile_s": ("limit_law.quantile", "total"),
    "verify.ks_s": ("verify.ks", "total"),
    "verify.w1_s": ("verify.w1", "total"),
    "verify.run_self_s": ("verify.run", "self"),
    "verify.covariance_panel_s": ("verify.covariance_panel", "total"),
    "sampling.paths": ("sampling.path", "calls"),
    "limit_process.draws": ("limit_process.draw", "calls"),
    "limit_law.cdf_calls": ("limit_law.cdf", "calls"),
}
COUNTERS = (
    "crossings.censored_left",
    "crossings.censored_right",
    "limit_process.window_extensions",
    "limit_process.censored",
)


def per_layer(traced: list, untraced: list) -> tuple[dict, list]:
    """Per-layer metrics from the traced runs; per-run values are medians over runs."""
    values = {}
    calls = {metric: [] for metric in PER_CALL.values()}
    per_run = {metric: [] for metric in [*PER_RUN, *COUNTERS, "cli.import_s"]}
    cond, uncond, plans, factor_bytes = [], [], [], []
    for seq in traced:
        sums = {metric: None for metric in per_run}
        for trace in seq.traces:
            layers = trace["layers"]
            sums["cli.import_s"] = (sums["cli.import_s"] or 0.0) + trace["import_s"]
            for metric, (layer, kind) in PER_RUN.items():
                if layer in layers:
                    durations = layers[layer]["durations"]
                    value = {
                        "total": sum(durations),
                        "first": durations[0],
                        "self": layers[layer]["self"],
                        "calls": len(durations),
                    }[kind]
                    sums[metric] = (sums[metric] or 0) + value
            for metric in COUNTERS:
                if metric in trace["counts"]:
                    sums[metric] = (sums[metric] or 0) + trace["counts"][metric]
            for layer, metric in PER_CALL.items():
                durations = layers.get(layer, {}).get("durations", [])
                # the first limit draw builds the factor; it is limit_process.first_draw_s
                calls[metric] += durations[1:] if layer == "limit_process.draw" else durations
            cond += trace["replay"]["cond"]
            uncond += trace["replay"]["uncond"]
            plans += trace["plans"]
            if trace["factor_bytes"] is not None:
                factor_bytes.append(trace["factor_bytes"])
        for metric, value in sums.items():
            if value is not None:
                per_run[metric].append(value)

    for metric, runs in per_run.items():
        if runs:
            values[metric] = statistics.median(runs)
    for metric, durations in calls.items():
        if durations:
            values[f"{metric}.p50"] = percentile(durations, 0.50)
            values[f"{metric}.p99"] = percentile(durations, 0.99)
    if uncond:
        values["sampling.unconditional_s.p50"] = percentile(uncond, 0.50)
        values["sampling.unconditional_s.p99"] = percentile(uncond, 0.99)
        values["sampling.conditioning_s"] = statistics.median(c - u for c, u in zip(cond, uncond))
    busiest = max(plans, key=lambda p: p["paths"], default=None)
    if busiest is not None and busiest["fft_len"] is not None:
        values["sampling.fft_len"] = busiest["fft_len"]
        values["sampling.normals_per_path"] = 2 * busiest["fft_len"]  # real and imaginary parts
    if busiest is not None and busiest["embed_factor"] is not None:
        values["sampling.embed_factor"] = busiest["embed_factor"]
    if factor_bytes:
        values["limit_process.factor_mb"] = max(factor_bytes) / 2**20
    traced_wall = statistics.median(s.wall_s for s in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(s.wall_s for s in untraced)
    absent = [m for m in PER_LAYER_UNITS if m not in values]
    return values, absent


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    entry = _entry_point()
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch))
    try:
        bench = Bench(workload, seed, entry, workdir)
        # warm-up: proves the program is there and fills the bytecode cache
        stamp = bench.probe(bench.commands[0], stamp=True)[1]["stamp"]
        stamp.update(
            nproc=os.cpu_count(),
            affinity=len(os.sched_getaffinity(0)),
            platform=platform.platform(),
            commit=_git_commit(),
            seed=seed,
        )

        start = time.monotonic()
        setups, untraced, traced = [], [], []
        while True:
            began = time.monotonic()
            if not trace and len(setups) < SETUP_SETS:
                setups.append(bench.setup_set())
            untraced.append(bench.sequence(traced=False))
            if trace:
                traced.append(bench.sequence(traced=True))
            now = time.monotonic()
            if now - start >= seconds or now + (now - began) > bench.deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    seqs = untraced + traced
    attempted = sum(s.attempted for s in seqs)
    failed = sum(s.failed for s in seqs)
    info = {
        "workload": workload,
        "stamp": stamp,
        "setup_skipped": sorted(bench.skipped),
        "fail_frac": failed / attempted,
        "ks_stat": {name: facts["ks_stat"] for name, facts in bench.facts.items()},
        "problems": bench.problems,
    }
    if trace:
        values, absent = per_layer(traced, untraced)
        metrics = {m: {"value": values.get(m, 0), "unit": u} for m, u in PER_LAYER_UNITS.items()}
        info.update(
            runs={"untraced": len(untraced), "traced": len(traced)},
            absent=absent,
            computed=list(COMPUTED),
            missing=sorted({m for s in traced for t in s.traces for m in t["missing"]}),
        )
    else:
        values, samples = end_to_end(untraced, setups)
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in values.items()}
        info["samples"] = samples
    print(json.dumps(info))
    print(json.dumps({"correct": not bench.problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
