"""Command-line surface: flags, file outputs, exit codes, reproducibility."""

import ast
import csv
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from excursions.cli import (
    DEFAULT_SEED,
    EXIT_ACCEPTANCE_FAILED,
    EXIT_CENSOR_BUDGET,
    EXIT_CONFIG_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_SYNTHESIS_ERROR,
    _parse_range,
    _write_csv,
    _write_table,
    build_parser,
    main,
)
import excursions
from excursions import (
    DomainError,
    EmptySampleError,
    PreconditionError,
    sample_conditional_exceedance,
    sample_unconditional,
    sampling,
    verify,
)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parser_defaults_are_documented_values():
    p = build_parser()
    a = p.parse_args(["verify-c2"])
    assert (a.alpha, a.u, a.n, a.window_factor) == (2.0, 6.0, 5000, 20.0)
    assert (a.grid_step_factor, a.seed) == (0.01, DEFAULT_SEED)
    a = p.parse_args(["verify-ht"])
    assert (a.alpha, a.u, a.window_factor) == (1.0, 10.0, 20.0)
    a = p.parse_args(["diagnostics"])
    assert (a.alpha, a.u, a.n, a.window_factor) == (1.0, 10.0, 1000, 20.0)
    a = p.parse_args(["limit-cdf"])
    assert a.range == "0:10:0.01"


def test_csv_writes_floats_as_their_shortest_round_trip_text(tmp_path):
    # every CSV the CLI writes holds each float as repr would write it, a
    # numpy float64 included, so it parses back to the same bits, sign of zero
    # and subnormals included
    values = [-0.0, 5e-324, 1e16, 1e-5, 0.1, math.pi, np.float64(0.1) * 3, np.float64(-2.5e-300)]
    out = tmp_path / "floats.csv"
    _write_csv(str(out), ["x", "k"], [(values, list(range(len(values))))])
    header, rows = _read_csv(out)
    assert header == ["x", "k"]
    assert [text for text, _ in rows] == [repr(float(v)) for v in values]
    assert [k for _, k in rows] == [str(k) for k in range(len(values))]
    for (text, _), v in zip(rows, values):
        assert np.float64(text).tobytes() == np.float64(v).tobytes()
    assert [text for text, _ in rows[:5]] == ["-0.0", "5e-324", "1e+16", "1e-05", "0.1"]


# cells the writers must write as csv and json do: Python floats and numpy
# float64 (the edge cases among them), and ints of any size
_EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf]
_CELLS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from(_EDGE_FLOATS + [np.float64(v) for v in _EDGE_FLOATS]),
    st.integers(),
)


@st.composite
def _tables(draw):
    """A header and chunks for it: each column a list of cells or one cell for
    every row, at least one a list, and sometimes the previous chunk's list
    object again."""
    header = [f"c{k}" for k in range(draw(st.integers(1, 4)))]
    chunks = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 6))
        lists = draw(st.lists(st.booleans(), min_size=len(header), max_size=len(header)).filter(any))
        chunk = []
        for k, is_list in enumerate(lists):
            before = chunks[-1][k] if chunks else None
            if not is_list:
                chunk.append(draw(_CELLS))
            elif isinstance(before, list) and len(before) == n and draw(st.booleans()):
                chunk.append(before)
            else:
                chunk.append(draw(st.lists(_CELLS, min_size=n, max_size=n)))
        chunks.append(tuple(chunk))
    return header, chunks


def _table_rows(chunks):
    rows = []
    for chunk in chunks:
        n = len(next(c for c in chunk if isinstance(c, list)))
        rows += [tuple(c[i] if isinstance(c, list) else c for c in chunk) for i in range(n)]
    return rows


@settings(max_examples=150, deadline=None)
@given(table=_tables())
@example(table=(["t", "value", "replicate"], [([0.5], [np.float64(-0.0)], 3)]))  # one row
def test_writers_write_the_bytes_of_csv_and_json_for_any_chunks(tmp_path_factory, table):
    header, chunks = table
    rows = _table_rows(chunks)
    expected = StringIO(newline="")
    csv.writer(expected, lineterminator="\n").writerows([header, *rows])
    out = tmp_path_factory.mktemp("w") / "t"
    _write_csv(str(out), header, chunks)
    assert out.read_bytes() == expected.getvalue().encode()
    _write_table(types.SimpleNamespace(format="json", out=str(out)), header, chunks)
    objects = [dict(zip(header, row)) for row in rows]
    assert out.read_text() == json.dumps(objects, indent=2, sort_keys=True) + "\n"


def test_csv_formats_a_list_again_unless_it_is_the_previous_chunks_list(tmp_path):
    # the writer keeps the text of a column's last list; an equal-length list
    # with other values, and the first list passed again after it, must each
    # be written with their own values
    first, second = [0.5, 1.5], [2.5, 3.5]
    out = tmp_path / "t.csv"
    _write_csv(str(out), ["t", "k"], [(first, 0), (second, 1), (first, 2), (first, 3)])
    assert out.read_text() == "t,k\n0.5,0\n1.5,0\n2.5,1\n3.5,1\n0.5,2\n1.5,2\n0.5,3\n1.5,3\n"


def test_parse_range():
    np.testing.assert_allclose(_parse_range("0:1:0.25"), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert _parse_range("0:10:0.01").size == 1001
    for bad in ("1:0:1", "0:1:0", "0:1", "a:b:c"):
        with pytest.raises(DomainError):
            _parse_range(bad)


def test_limit_cdf_csv_output(tmp_path):
    out = tmp_path / "cdf.csv"
    assert main(["limit-cdf", "--range", "0:3:0.5", "--out", str(out)]) == EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["x", "cdf"]
    assert len(rows) == 7
    table = {float(x): float(c) for x, c in rows}
    assert table[0.0] == 0.0
    # frozen oracle: the chi(3)/Maxwell closed form at x = 2, scale sqrt(2)
    assert table[2.0] == pytest.approx(0.4275932955291201, abs=1e-9)
    cdfs = [float(c) for _, c in rows]
    assert cdfs == sorted(cdfs)


def test_limit_cdf_json_output(tmp_path):
    out = tmp_path / "cdf.json"
    assert main(["limit-cdf", "--range", "0:1:0.5", "--format", "json", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert [row["x"] for row in payload] == [0.0, 0.5, 1.0]
    assert payload[1]["cdf"] == pytest.approx(0.01132285782420836, abs=1e-9)


def test_limit_cdf_rejects_rough_kernel(tmp_path):
    # the smooth-regime table has one alpha, so there is no --alpha flag
    out = tmp_path / "cdf.csv"
    with pytest.raises(SystemExit) as exc:
        main(["limit-cdf", "--alpha", "1", "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG_ERROR
    assert not out.exists()


def test_regime_commands_validate_alpha(tmp_path):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:  # verify-c2 has no --alpha flag
        main(["verify-c2", "--alpha", "1", "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG_ERROR
    assert main(["verify-ht", "--alpha", "2", "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert main(["verify-c2", "--n", "50", "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()


def test_sample_paths_csv_shape_and_determinism(tmp_path):
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    argv = ["sample-paths", "--n", "3", "--u", "4", "--seed", "11"]
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = _read_csv(out1)
    assert header == ["t", "value", "replicate"]
    reps = {int(r[2]) for r in rows}
    assert reps == {0, 1, 2}
    n_points = sum(1 for r in rows if r[2] == "0")
    assert len(rows) == 3 * n_points
    # conditioned draws exceed the threshold at t = 0
    at_origin = [float(r[1]) for r in rows if float(r[0]) == 0.0]
    assert all(v > 4.0 for v in at_origin)


def test_verify_c2_writes_self_describing_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["verify-c2", "--n", "150", "--seed", "2023", "--out", str(out)]
    )
    payload = json.loads(out.read_text())
    assert code == (EXIT_OK if payload["passed"] else EXIT_ACCEPTANCE_FAILED)
    assert payload["schema_version"] == 12
    assert payload["config"]["n"] == 150
    assert payload["config"]["master_seed"] == 2023
    assert payload["config"]["cli"] == {"grid_step_factor": 0.01, "window_factor": 20.0}
    qcsv = tmp_path / "report.quantiles.csv"
    header, rows = _read_csv(qcsv)
    assert header == ["p", "empirical", "reference"]
    assert [float(r[0]) for r in rows] == [0.05, 0.25, 0.5, 0.75, 0.95]


def test_verify_ht_grid_step_factor_moves_the_limit_grid_too(tmp_path):
    # both heavy-tail grids are in delta_u units, so one step factor sets both
    # and the two lanes stay on matched steps
    out = tmp_path / "report.json"
    code = main(["verify-ht", "--n", "120", "--grid-step-factor", "0.02", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert code == (EXIT_OK if payload["passed"] else EXIT_ACCEPTANCE_FAILED)
    config = payload["config"]
    assert config["limit_grid"]["step"] == 0.02
    assert config["path_grid"]["step"] == pytest.approx(0.02 * payload["delta_u"], rel=1e-15)
    assert config["cli"]["grid_step_factor"] == 0.02


@pytest.mark.parametrize("command", ["verify-c2", "verify-ht"])
def test_verify_commands_take_no_format_flag(tmp_path, command):
    # a report is always JSON; the flag was accepted and ignored once
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "csv", "--n", "200", "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG_ERROR
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["verify-c2", "--n", "200"], ["sample-paths", "--n", "1"]],
    ids=["verify-c2", "sample-paths"],
)
def test_grid_too_large_to_embed_exits_config_error(tmp_path, capsys, argv):
    # step 1e-6 / u with window 20 / u: 40 000 001 points, refused before allocation
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(argv + ["--grid-step-factor", "1e-6", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "40000001" in err and "2**23" in err
    assert peak < 16 * 2**20  # the grid's times alone would take 320 MB
    assert not out.exists()


def _sample_paths_peak(tmp_path, n, fmt):
    tracemalloc.start()
    try:
        out = str(tmp_path / f"p{n}.{fmt}")
        argv = ["sample-paths", "--n", str(n), "--window-factor", "2", "--format", fmt, "--out", out]
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt,n", [("csv", 40), ("json", 10)])
def test_sample_paths_memory_does_not_grow_with_n(tmp_path, monkeypatch, fmt, n):
    # rows are written as each path pair is drawn, never collected, in either
    # format: with one substream per block, runs of n and 10 n paths peak
    # alike once a first run has warmed the caches (collected, the 401-point
    # rows of 360 more paths would take about 20 MB as tuples, and of 90 more
    # about 30 MB as JSON objects, which encode slowly under tracemalloc)
    monkeypatch.setattr(sampling, "_BLOCK_BYTES", 1)
    _sample_paths_peak(tmp_path, 4, fmt)
    assert _sample_paths_peak(tmp_path, 10 * n, fmt) - _sample_paths_peak(tmp_path, n, fmt) <= 2 * 2**20


@pytest.mark.parametrize(
    "argv,kinds",
    [
        (["limit-cdf", "--range", "0:3:0.25"], (float, float)),
        (["sample-paths", "--n", "3"], (float, float, int)),
        (["sample-paths", "--alpha", "0.75", "--u", "10", "--n", "3"], (float, float, int)),
    ],
)
def test_json_tables_are_the_one_shot_dump_of_their_csv_rows(tmp_path, argv, kinds):
    # the JSON writer streams its objects, yet writes the bytes json.dumps
    # gives the whole list; the CSV holds each float's round-trip text, so its
    # rows parse back to the very values
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert main([*argv, "--out", str(csv_out)]) == EXIT_OK
    assert main([*argv, "--format", "json", "--out", str(json_out)]) == EXIT_OK
    header, rows = _read_csv(csv_out)
    table = [{key: kind(text) for key, kind, text in zip(header, kinds, row)} for row in rows]
    assert json_out.read_text() == json.dumps(table, indent=2, sort_keys=True) + "\n"


def test_verify_c2_reports_are_reproducible_minus_runtime(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify-c2", "--n", "150", "--seed", "2023"]
    code_a = main(argv + ["--out", str(a)])
    code_b = main(argv + ["--out", str(b)])
    assert code_a == code_b
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    pa.pop("runtime_seconds")
    pb.pop("runtime_seconds")
    assert pa == pb


def test_verify_c2_censor_budget_exit_code(tmp_path):
    out = str(tmp_path / "r.json")
    code = main(["verify-c2", "--n", "150", "--window-factor", "0.5", "--out", out])
    assert code == EXIT_CENSOR_BUDGET


def test_diagnostics_outputs(tmp_path):
    out = tmp_path / "diag.csv"
    code = main(["diagnostics", "--n", "80", "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["t", "pitman_ratio"]
    ratios = {float(t): float(v) for t, v in rows}
    smallest_t = min(ratios)
    assert ratios[smallest_t] == pytest.approx(1.0, abs=1e-3)
    cov = tmp_path / "diag.covariance.csv"
    header, rows = _read_csv(cov)
    assert header == ["s", "t", "empirical", "target", "se", "n"]
    assert len(rows) == 3
    # target column carries the exact fBm covariance values
    assert float(rows[0][3]) == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_diagnostics_json_format_carries_both_tables(tmp_path):
    out = tmp_path / "diag.json"
    code = main(
        ["diagnostics", "--n", "80", "--seed", "5", "--format", "json", "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(doc) == {"pitman_ratio", "covariance"}
    curve = doc["pitman_ratio"]
    assert len(curve) == 25
    assert curve[-1]["ratio"] == pytest.approx(1.0, abs=1e-3)
    assert len(doc["covariance"]) == 3
    assert doc["covariance"][0]["target"] == pytest.approx(2.0 * math.pi, rel=1e-12)
    # json mode writes a single self-contained file, no csv sidecar
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize(
    "argv, first, second",
    [
        (["verify-c2", "--n", "200"], "x.json", "x.quantiles.csv"),
        (["verify-ht", "--n", "200"], "x.json", "x.quantiles.csv"),
        (["diagnostics", "--n", "80"], "d2.csv", "d2.covariance.csv"),
    ],
    ids=["verify-c2", "verify-ht", "diagnostics"],
)
def test_a_command_that_cannot_write_its_second_file_leaves_neither(tmp_path, capsys, argv, first, second):
    # the second file's path is a directory: the command exits 2 and removes
    # the file it wrote first, so it leaves all its files or none
    (tmp_path / second).mkdir()
    assert main(argv + ["--out", str(tmp_path / first)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == [second]


def test_a_failed_acceptance_still_writes_the_report_and_its_sidecar(monkeypatch, tmp_path):
    monkeypatch.setitem(verify.KS_THRESHOLDS, "C2", 0.0)
    out = tmp_path / "x.json"
    assert main(["verify-c2", "--n", "200", "--out", str(out)]) == EXIT_ACCEPTANCE_FAILED
    assert json.loads(out.read_text())["passed"] is False
    assert _read_csv(tmp_path / "x.quantiles.csv")[0] == ["p", "empirical", "reference"]


def test_diagnostics_rejects_smooth_kernel(tmp_path):
    out = str(tmp_path / "d.csv")
    assert main(["diagnostics", "--alpha", "2", "--out", out]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-c2", "--u", "0"],
        ["sample-paths", "--u", "0"],
        ["sample-paths", "--n", "-3"],
        ["diagnostics", "--n", "1"],
        ["verify-c2", "--window-factor", "inf"],
        ["limit-cdf", "--range", "0:inf:1"],
        ["limit-cdf", "--range", "0:1e15:1e-6"],
        ["verify-c2", "--r0", "inf"],
        ["verify-c2", "--n", "100", "--seed", "-1"],
        ["sample-paths", "--n", "1", "--seed", "-5"],
        # point counts that overflow a float, and u * u underflowing to 0 in delta_u
        ["limit-cdf", "--range", "0:1e300:1e-300"],
        ["verify-c2", "--grid-step-factor", "1e-300", "--window-factor", "1e300"],
        ["sample-paths", "--grid-step-factor", "1e-300", "--window-factor", "1e300"],
        ["verify-ht", "--u", "1e-200"],
        ["sample-paths", "--alpha", "1", "--u", "1e-200"],
        ["diagnostics", "--u", "1e-200"],
        # r0 * u * u overflowing, so delta_u would be 0
        ["verify-ht", "--u", "1e200"],
        ["sample-paths", "--alpha", "1", "--u", "1e200"],
        ["diagnostics", "--u", "1e200"],
        # overshoots above u too small for the float resolution of u: a drawn
        # exceedance rounds to u itself (about 1% of draws at u = 1e7, so 5000
        # of them miss it with probability below 1e-21; all at r0 = 1e-200)
        ["verify-c2", "--u", "1e7", "--n", "5000"],
        ["verify-c2", "--r0", "1e-200", "--n", "100"],
    ],
    ids=[
        "verify-u0",
        "paths-u0",
        "paths-n-3",
        "diagnostics-n1",
        "verify-window-inf",
        "cdf-range-inf",
        "cdf-range-too-long",
        "verify-r0-inf",
        "verify-seed-negative",
        "paths-seed-negative",
        "cdf-range-overflow",
        "verify-grid-overflow",
        "paths-grid-overflow",
        "verify-ht-u-underflow",
        "paths-u-underflow",
        "diagnostics-u-underflow",
        "verify-ht-u-overflow",
        "paths-u-overflow",
        "diagnostics-u-overflow",
        "verify-c2-u-overshoot-rounds",
        "verify-c2-r0-overshoot-rounds",
    ],
)
def test_bad_input_exits_config_error_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "--u" in argv:  # a bad threshold is named as such
        assert "threshold u" in err, err
    if argv[1:3] == ["--r0", "1e-200"]:  # an overshoot lost to rounding names u and r0
        assert "threshold u" in err and "r0" in err, err
    assert not out.exists()


@pytest.mark.parametrize("u", ["10", "0.1"], ids=["scale-underflows", "scale-overflows"])
def test_a_small_alpha_is_named_when_delta_u_leaves_the_floats(tmp_path, capsys, u):
    # at alpha = 0.001, (c_alpha / (r0 u**2))**1000 underflows at the default
    # u and overflows at u = 0.1: the message names alpha, not u alone
    out = tmp_path / "r.json"
    assert main(["verify-ht", "--alpha", "0.001", "--u", u, "--n", "100", "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "alpha = 0.001" in err and "r0 = 1.0" in err and f"threshold u = {float(u)!r}" in err, err
    assert not out.exists()


@pytest.mark.parametrize("r0", ["1e-200", "1e200"])
def test_extreme_variances_embed(tmp_path, r0):
    # the squared covariance row once underflowed (a division by zero, exit 5)
    # or overflowed (no embedding passed its check, exit 4); the scale-free
    # check embeds either, and the run then ends on its threshold or window
    out = tmp_path / "r.json"
    code = main(["verify-c2", "--r0", r0, "--n", "100", "--out", str(out)])
    assert code not in (EXIT_SYNTHESIS_ERROR, EXIT_INTERNAL_ERROR)


def test_threshold_too_large_to_sample_exits_config_error(tmp_path):
    # (u / sigma)**2 overflows above about 1.3e154; the truncated-normal
    # sampler used to spin forever there instead of rejecting the input.  The
    # sample-paths draws fail after their file is opened, and it is removed
    src = str(Path(excursions.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    json_paths = ["sample-paths", "--n", "1", "--format", "json"]
    for argv in (["sample-paths", "--n", "1"], json_paths, ["verify-c2", "--n", "200"]):
        out = tmp_path / "big.csv"
        res = subprocess.run(
            [sys.executable, "-m", "excursions.cli", *argv, "--u", "1e160", "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert res.returncode == EXIT_CONFIG_ERROR, (argv, res.stderr)
        assert "threshold u" in res.stderr
        assert not out.exists()


def test_sample_paths_on_a_grid_past_the_kernels_overflow_exits_ok_under_warnings_as_errors(tmp_path):
    # at u = 1e-300 the grid's lags reach about 2e301, where |t|**2 overflows;
    # R(t) is 0 there, and no numpy warning may end the run with a traceback
    src = str(Path(excursions.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "tiny.csv"
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "excursions.cli", "sample-paths", "--alpha", "2",
         "--u", "1e-300", "--n", "3", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == EXIT_OK, res.stderr
    assert out.exists()


@pytest.mark.parametrize("error", [RuntimeError, PreconditionError, EmptySampleError])
def test_unexpected_exception_exits_internal_error_with_traceback(tmp_path, monkeypatch, capsys, error):
    # no flag can raise a package error other than a domain, synthesis or
    # censor-budget one, so any other is internal, like a RuntimeError
    def boom(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr("excursions.cli.make_kernel", boom)
    assert main(["limit-cdf", "--out", str(tmp_path / "cdf.csv")]) == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err
    assert "Traceback" in err and f"{error.__name__}: boom" in err


# The package's public names: what the CLI, the tests and the README's library
# tour use.  Everything else stays importable from its module.
_PUBLIC_NAMES = frozenset(
    {
        "C2LimitParams", "CensorBudgetExceeded", "DomainError", "EmptySampleError",
        "Grid", "NotC2Error", "NotHeavyTailError", "PreconditionError",
        "SynthesisError", "build_sampler", "c2_grid",
        "c2_limit_cdf", "c2_limit_quantile", "c2_limit_sample", "c2_root_predictor",
        "c_alpha", "covariance_panel", "crossing_bounds", "delta_u",
        "draw_limit_lengths", "ecdf", "fbm_two_sided", "heavy_tail_grid",
        "ks_one_sample", "ks_two_sample", "limit_grid", "limit_process_values",
        "make_kernel", "make_sample_set", "median_excursion_length",
        "path_derivative_at_zero", "pitman_ratio", "run_verification",
        "sample_conditional_exceedance", "sample_limit_length", "sample_tilde_length",
        "sample_truncated_normal", "sample_unconditional", "second_derivative_at_zero",
        "simulate_excursion_lengths", "spectral_tail", "wasserstein1",
    }
)


def test_public_surface_is_frozen():
    public = {
        name
        for name, value in vars(excursions).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == _PUBLIC_NAMES
    assert len(_PUBLIC_NAMES) <= 42


def _perfbench_layers():
    """The (layer, module, function) triples perfbench/traced_cli.py wraps."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("traced_cli.py defines no LAYERS")


def test_benchmark_hook_points_still_exist():
    # the traced benchmark wraps these by name; a missing one silently reads
    # absent, so a rename must fail here instead (_fbm_factor went with the
    # dense fBm factor)
    hooks = {(module, attr) for _, module, attr in _perfbench_layers() if attr != "_fbm_factor"}
    hooks.add(("excursions.sampling", "sample_unconditional"))  # its replay baseline
    assert len(hooks) >= 14
    for module, attr in sorted(hooks):
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    # the replay binds the plan and seed arguments by name
    for fn in (sample_conditional_exceedance, sample_unconditional):
        assert {"plan", "seed"} <= set(inspect.signature(fn).parameters), fn.__name__


def test_unknown_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


_NO_SCIPY_SCRIPT = """
import sys
from excursions.cli import main

runs = [
    (["limit-cdf"], {0}),
    (["sample-paths", "--n", "2"], {0}),
    (["diagnostics", "--n", "10"], {0}),
    (["verify-c2", "--n", "100"], {0, 1}),
    (["verify-ht", "--n", "100"], {0, 1}),
]
for argv, codes in runs:
    code = main(argv + ["--out", argv[0] + ".out"])
    assert code in codes, (argv, code)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_package_version_is_the_one_pyproject_declares():
    # reports echo excursions.__version__, so it must track the distribution's
    # version; read by regex, since Python 3.10 has no tomllib
    text = (Path(excursions.__file__).resolve().parents[2] / "pyproject.toml").read_text()
    [declared] = re.findall(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert excursions.__version__ == declared


@pytest.mark.parametrize("preset", [None, "3"])
def test_importing_the_package_pins_openblas_to_one_thread_unless_set(tmp_path, preset):
    # a fresh interpreter, so that excursions loads numpy; a value the user set wins
    src = str(Path(excursions.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = "import os, sys, excursions; assert 'numpy' in sys.modules; print(os.environ['OPENBLAS_NUM_THREADS'])"
    res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == (preset or "1")


def test_cli_commands_run_without_importing_scipy(tmp_path):
    # a fresh interpreter, so modules the test suite imported do not count
    src = str(Path(excursions.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
