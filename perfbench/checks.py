"""Output oracles for the benchmark's CLI commands.

Every expected value is computed here from closed forms or from the flags the
benchmark passed, never read back from the program.  A check returns a list of
problems (empty when the output is correct) and the facts it recorded.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Share of censored replicates a run may absorb (README: censor budget).
CENSOR_BUDGET = 0.005
# The CLI's KS pass thresholds are calibrated at this run size.
CALIBRATED_N = 5000
KS_CALIBRATED = {"verify-c2": 0.05, "verify-ht": 0.08}
CDF_TOL = 1e-9
QUANTILE_RTOL = 1e-6
RATIO_RTOL = 1e-12
# The covariance panel compares an n-sample covariance with its u -> infinity
# target; the gap must stay inside this many of the reported standard errors.
COVARIANCE_SE = 6.0


def chi3_cdf(a: float) -> float:
    """CDF of the chi law with 3 degrees of freedom (the Maxwell law)."""
    if a <= 0.0:
        return 0.0
    return math.erf(a / math.sqrt(2.0)) - math.sqrt(2.0 / math.pi) * a * math.exp(-0.5 * a * a)


def chi3_quantile(p: float) -> float:
    lo, hi = 0.0, 1.0
    while chi3_cdf(hi) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if chi3_cdf(mid) < p else (lo, mid)
    return 0.5 * (lo + hi)


def c2_scale(r0: float = 1.0) -> float:
    """s = 2 r0 / sqrt(-R''(0)) with R''(0) = -2 r0 for R(t) = r0 exp(-t^2)."""
    return 2.0 * r0 / math.sqrt(2.0 * r0)


def c_alpha(alpha: float) -> float:
    return math.pi / (math.gamma(alpha) * math.sin(math.pi * alpha / 2.0))


def ks_tolerance(command: str, n: int) -> float:
    """The calibrated KS threshold, widened like 1/sqrt(n) below CALIBRATED_N."""
    return KS_CALIBRATED[command] * math.sqrt(max(1.0, CALIBRATED_N / n))


def grid_points(step_factor: float, window_factor: float) -> int:
    return 2 * int(math.floor(window_factor / step_factor + 1e-9)) + 1


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _sidecar(out: Path, suffix: str) -> Path:
    return out.with_name(out.stem + suffix)


def check_verify(command: str, out: Path, n: int) -> tuple[list[str], dict]:
    problems = []
    report = json.loads(out.read_text())
    facts = {
        "ks_stat": report.get("ks_stat"),
        "censored": int(report.get("n_censored", 0)) + int(report.get("n_censored_limit") or 0),
    }
    if report.get("n") != n:
        problems.append(f"report n={report.get('n')} but {n} replicates were asked for")
    for key in ("n_censored", "n_censored_limit"):
        if report.get(key) is not None and report[key] > CENSOR_BUDGET * n:
            problems.append(f"{key}={report[key]} exceeds the censor budget at n={n}")
    tol = ks_tolerance(command, n)
    if not (isinstance(facts["ks_stat"], float) and 0.0 <= facts["ks_stat"] <= tol):
        problems.append(f"ks_stat={facts['ks_stat']} outside [0, {tol}]")

    header, rows = _read_csv(_sidecar(out, ".quantiles.csv"))
    if header != ["p", "empirical", "reference"] or not rows:
        return problems + [f"quantile sidecar has header {header} and {len(rows)} rows"], facts
    table = [tuple(float(v) for v in row) for row in rows]
    if any(not all(math.isfinite(v) for v in row) for row in table):
        problems.append("quantile sidecar holds non-finite values")
    for column in (1, 2):
        values = [row[column] for row in table]
        if values != sorted(values):
            problems.append(f"quantile column {header[column]} is not increasing")
    if command == "verify-c2":
        s = c2_scale()
        for p, empirical, reference in table:
            expected = s * chi3_quantile(p)
            if abs(reference - expected) > QUANTILE_RTOL * expected:
                problems.append(f"reference quantile at p={p} is {reference}, chi3 gives {expected}")
            # the empirical CDF sits within the KS distance of the law everywhere
            if abs(chi3_cdf(empirical / s) - p) > tol + 1.0 / n:
                problems.append(f"empirical quantile at p={p} is off the chi3 law by more than {tol}")
    return problems, facts


def check_limit_cdf(out: Path, start: float, stop: float, step: float) -> tuple[list[str], dict]:
    header, rows = _read_csv(out)
    expected_rows = int(math.floor((stop - start) / step + 1e-9)) + 1
    if header != ["x", "cdf"] or len(rows) != expected_rows:
        return [f"limit-cdf has header {header} and {len(rows)} rows, expected {expected_rows}"], {}
    s = c2_scale()
    worst = 0.0
    for i, (x, value) in enumerate(rows):
        x = float(x)
        if abs(x - (start + i * step)) > 1e-12 * max(1.0, abs(x)):
            return [f"limit-cdf row {i} has x={x}"], {}
        worst = max(worst, abs(float(value) - chi3_cdf(x / s)))
    problems = [] if worst <= CDF_TOL else [f"limit-cdf is {worst} from the chi3 CDF"]
    return problems, {}


def check_sample_paths(out: Path, n: int, u: float, points: int) -> tuple[list[str], dict]:
    header, rows = _read_csv(out)
    if header != ["t", "value", "replicate"]:
        return [f"sample-paths header is {header}"], {}
    problems = []
    if len(rows) != n * points:
        problems.append(f"sample-paths wrote {len(rows)} rows, expected {points} x {n}")
    per_replicate = {}
    origin_values = {}
    for t, value, replicate in rows:
        per_replicate[replicate] = per_replicate.get(replicate, 0) + 1
        if float(t) == 0.0:
            origin_values[replicate] = float(value)
    if sorted(per_replicate, key=int) != [str(i) for i in range(n)]:
        problems.append(f"sample-paths replicates are {sorted(per_replicate)}")
    if any(count != points for count in per_replicate.values()):
        problems.append("sample-paths replicates differ from the grid size")
    below = [r for r in per_replicate if not origin_values.get(r, -math.inf) > u]
    if below:
        problems.append(f"replicates {below} do not exceed u={u} at t=0")
    return problems, {}


def check_diagnostics(out: Path, alpha: float, n: int) -> tuple[list[str], dict]:
    problems = []
    header, rows = _read_csv(out)
    if header != ["t", "pitman_ratio"] or not rows:
        problems.append(f"diagnostics has header {header} and {len(rows)} rows")
    for t, ratio in rows:
        ta = float(t) ** alpha
        expected = -math.expm1(-ta) / ta
        if abs(float(ratio) - expected) > RATIO_RTOL * expected:
            problems.append(f"pitman ratio at t={t} is {ratio}, closed form gives {expected}")
    header, rows = _read_csv(_sidecar(out, ".covariance.csv"))
    if header != ["s", "t", "empirical", "target", "se", "n"] or not rows:
        return problems + [f"covariance panel has header {header} and {len(rows)} rows"], {}
    c = c_alpha(alpha)
    worst = 0.0
    for row in rows:
        s, t, empirical, target, se = (float(v) for v in row[:5])
        expected = c * (abs(s) ** alpha + abs(t) ** alpha - abs(s - t) ** alpha)
        if abs(target - expected) > 1e-9 * abs(expected):
            problems.append(f"covariance target at ({s}, {t}) is {target}, expected {expected}")
        if int(row[5]) != n:
            problems.append(f"covariance panel used n={row[5]}, expected {n}")
        worst = max(worst, abs(empirical - expected) / se)
    if worst > COVARIANCE_SE:
        problems.append(f"covariance panel is {worst:.2f} standard errors from its target")
    return problems, {}
