"""Smoke test of the benchmark and its output oracles.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced at the shortest run length
(--seconds 1: one set-up probe set and one run of the workload's commands at
their benchmark sizes).  Smaller run sizes would make the CLI's own KS verdict
fail by design, which the benchmark counts as a failure.  About two minutes on
two cores.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# layers that do no work on a workload and must read absent there
IDLE = {"c2": "limit_process.", "ht": "limit_law.", "inspect": "limit_process."}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1729",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(res: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert res.returncode == 0, res.stderr
    *head, last = res.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], head[-1]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return json.loads(head[-1]), result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    info, result = _result(_run(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["fail_frac"] == 0.0
    assert {"nproc", "workers", "python", "numpy", "scipy", "commit", "seed"} <= set(info["stamp"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_idle_ones_absent(workload):
    info, result = _result(_run(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    idle = [m for m in expected if m.startswith(IDLE[workload])]
    assert set(idle) <= set(info["absent"])
    assert "trace.overhead_s" not in info["absent"]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = _run("c2", 0, cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""


def test_chi3_oracle_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for a in (0.1, 1.0, 2.5, 6.0):
        assert checks.chi3_cdf(a) == pytest.approx(stats.chi.cdf(a, 3), abs=1e-14)
    for p in (0.05, 0.5, 0.95):
        assert checks.chi3_quantile(p) == pytest.approx(stats.chi.ppf(p, 3), rel=1e-12)


def test_limit_cdf_check_rejects_a_perturbed_value(tmp_path):
    out = tmp_path / "cdf.csv"
    s = checks.c2_scale()
    rows = [(0.5 * i, checks.chi3_cdf(0.5 * i / s)) for i in range(5)]
    out.write_text("x,cdf\n" + "".join(f"{x!r},{c!r}\n" for x, c in rows))
    assert checks.check_limit_cdf(out, 0.0, 2.0, 0.5)[0] == []
    rows[3] = (rows[3][0], rows[3][1] + 1e-7)
    out.write_text("x,cdf\n" + "".join(f"{x!r},{c!r}\n" for x, c in rows))
    assert checks.check_limit_cdf(out, 0.0, 2.0, 0.5)[0]


def test_ks_tolerance_widens_below_the_calibrated_size():
    assert checks.ks_tolerance("verify-c2", 5000) == 0.05
    assert checks.ks_tolerance("verify-ht", 2000) == pytest.approx(0.08 * math.sqrt(2.5))
