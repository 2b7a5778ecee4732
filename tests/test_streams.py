"""Random streams and the block pool: generator keys, empty runs, and outputs
that do not depend on how many worker threads draw the blocks."""

import json
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from excursions import (
    DomainError,
    Grid,
    build_sampler,
    c2_grid,
    covariance_panel,
    draw_limit_lengths,
    heavy_tail_grid,
    limit_grid,
    make_kernel,
    median_excursion_length,
    run_verification,
    simulate_excursion_lengths,
)
from excursions import streams, verify
from excursions.cli import EXIT_OK, main
from excursions.streams import generator, pooled_rows, replicates, substream_seed


@pytest.mark.parametrize("key", [0, 1729, 2**64 - 1, 2**64 + 12345, 2**96 + 7, 2**128 - 1])
def test_generator_draws_the_stream_of_its_philox_key(key):
    # keyed without drawing OS entropy, yet the same stream as Philox(key=key),
    # whose two key words are the key's low and high 64 bits
    expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(1000)
    np.testing.assert_array_equal(generator(key).standard_normal(1000), expected)


def _lane_word(master, *head):
    return int(np.random.SeedSequence(master, spawn_key=head).generate_state(1, np.uint64)[0])


@settings(max_examples=200, deadline=None)
@given(
    master=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**200)),
    head=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**70)), max_size=3),
    i=st.one_of(st.integers(0, 10**6), st.integers(0, 2**64 - 1)),
)
@example(master=0, head=[], i=0)
@example(master=2**200 - 1, head=[2**64, 1], i=2**64 - 1)  # multiword master and head, the largest index
def test_a_substream_draws_the_philox_stream_of_its_lane_word_and_index(master, head, i):
    # the key's low word is the head's seed sequence word, its high word the
    # last index; asked twice, once from the cache, the key is the same
    key = _lane_word(master, *head) | i << 64
    assert substream_seed(master, *head, i) == key == substream_seed(master, *head, i)
    assert substream_seed(np.int64(master % 2**63), *head, i) == _lane_word(master % 2**63, *head) | i << 64
    expected = np.random.Generator(np.random.Philox(key=key)).integers(2**63, size=8)
    np.testing.assert_array_equal(generator(substream_seed(master, *head, i)).integers(2**63, size=8), expected)


@settings(max_examples=200, deadline=None)
@given(
    master=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**200)),
    heads=st.lists(
        st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**70)), max_size=3).map(tuple),
        min_size=2,
        max_size=2,
        unique=True,
    ),
    i=st.integers(0, 2**64 - 1),
)
@example(master=1729, heads=[(), (0,)], i=5)  # an empty head is a lane of its own
@example(master=1729, heads=[(0,), (1,)], i=5)  # the path and limit lanes
def test_different_heads_give_different_lane_words(master, heads, i):
    # one index in two lanes: the same high word, different low words
    a, b = (substream_seed(master, *head, i) for head in heads)
    assert a >> 64 == b >> 64 == i
    assert a & (2**64 - 1) != b & (2**64 - 1)


@pytest.mark.parametrize(
    "master, lane",
    [(1729, ()), (1729, (-1,)), (1729, (0, -2)), (1729, (-3, 0)), (1729, (2**64,)), (1729, (0, 2**64)), (-1, (0, 0))],
)
def test_substream_seeds_refuse_a_lane_outside_their_key(master, lane):
    # a key needs a last index that fits its high word, and non-negative seed sequence entropy
    with pytest.raises(DomainError):
        substream_seed(master, *lane)


@pytest.mark.parametrize("size", [2, 3, 21, 64])
def test_blocks_get_their_substreams_seeds_in_order(size):
    # every block but the last holds size substreams, each with its own seed
    blocks = list(replicates(lambda seeds: np.repeat(np.array(seeds, object), 2)[:, None], 41, 5, 0, size))
    assert [len(b) for b in blocks[:-1]] == [2 * size] * (len(blocks) - 1)
    expected = [substream_seed(5, 0, k) for k in range(21) for _ in range(2)][:41]
    assert np.concatenate(blocks)[:, 0].tolist() == expected


@pytest.mark.parametrize("n", [0, -3])
def test_an_empty_run_is_a_domain_error_naming_n(n):
    k, g = make_kernel(2.0), c2_grid(6.0)
    runs = [
        lambda: simulate_excursion_lengths(k, 6.0, g, n, 1),
        lambda: median_excursion_length(k, 6.0, g, n, 1),
        lambda: draw_limit_lengths(1.0, 1.0, limit_grid(0.02, 6.0), n, 1),
        lambda: list(replicates(lambda seeds: np.zeros((2 * len(seeds), 1)), n, 1, 0, 4)),
    ]
    for run in runs:
        with pytest.raises(DomainError, match=f"n = {n}"):
            run()


def test_worker_count_is_the_usable_cpus_capped(monkeypatch):
    for cpus, workers in ((1, 1), (3, 3), (64, streams._MAX_WORKERS), (None, 1)):
        monkeypatch.setattr(os, "process_cpu_count", lambda: cpus, raising=False)
        assert streams._worker_count() == workers
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert streams._worker_count() == 1


def test_pooled_rows_come_back_in_block_order_on_at_most_the_workers(monkeypatch):
    # the pooled runner's contract: every block's rows in block order, drawn on
    # at most _worker_count() threads, none of them the caller's, and no
    # thread left once it returns
    monkeypatch.setattr(streams, "_worker_count", lambda: 3)
    lock, running, most, threads = threading.Lock(), [0], [0], set()

    def draw_block(seeds):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
            threads.add(threading.get_ident())
        time.sleep(0.02)
        with lock:
            running[0] -= 1
        return np.array([[s] for s in seeds for _ in range(2)], dtype=object)

    before = threading.active_count()
    rows = pooled_rows(draw_block, 41, 5, 0, 2)
    expected = [substream_seed(5, 0, k) for k in range(21) for _ in range(2)][:41]
    assert rows[:, 0].tolist() == expected
    assert most[0] == 3 and len(threads) == 3
    assert threading.get_ident() not in threads
    assert threading.active_count() == before


def test_workers_switching_every_microsecond_draw_the_same_numbers(monkeypatch):
    # more workers than cores, and the interpreter switching threads as often
    # as it can: each block must still draw what one worker draws (alpha =
    # 0.75, since both alpha = 1 lanes walk on the calling thread)
    plan = build_sampler(make_kernel(0.75), Grid(0.01, 20.0))
    limit = limit_grid(0.02, 6.0)

    def lanes():
        return (
            verify._path_intervals(plan, 10.0, 101, 7, verify.PATH_LANE)[0],
            verify._limit_intervals(0.75, 1.0, limit, 101, 7, verify.LIMIT_LANE)[0],
        )

    monkeypatch.setattr(streams, "_worker_count", lambda: 1)
    expected = lanes()
    monkeypatch.setattr(streams, "_worker_count", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = lanes()
    finally:
        sys.setswitchinterval(interval)
    for rows, reference in zip(got, expected):
        np.testing.assert_array_equal(rows, reference)


def test_only_the_fft_lanes_of_verify_reach_worker_threads(monkeypatch, tmp_path):
    # the alpha = 0.75 path and limit lanes draw their blocks on pool threads;
    # sample-paths on either engine, the covariance panel, the outward smooth
    # walk and both Markov walks draw every block on the calling thread.
    # Every block builds its generators on the thread that draws it.
    monkeypatch.setattr(streams, "_worker_count", lambda: 3)
    threads, keyed = set(), streams.generator

    def recorded(*args):
        threads.add(threading.get_ident())
        return keyed(*args)

    def paths(*flags):
        assert main(["sample-paths", "--n", "101", *flags, "--out", str(tmp_path / "p.csv")]) == EXIT_OK

    monkeypatch.setattr(streams, "generator", recorded)
    here, k1, k2, k075 = threading.get_ident(), make_kernel(1.0), make_kernel(2.0), make_kernel(0.75)
    fft_lanes = {  # 51 pairs: 4 blocks of the path lane, 2 of the limit lane
        "path alpha 0.75": lambda: verify._path_intervals(
            build_sampler(k075, heavy_tail_grid(k075, 10.0)), 10.0, 101, 5, verify.PATH_LANE
        ),
        "limit alpha 0.75": lambda: verify._limit_intervals(0.75, 1.0, limit_grid(), 101, 5, verify.LIMIT_LANE),
    }
    calling_thread = {
        "sample-paths direct": paths,
        "sample-paths fft": lambda: paths("--alpha", "0.75", "--u", "10"),
        # the panel's 201-point grid embeds in 400 points, 327 substreams a block
        "panel": lambda: covariance_panel(k075, 10.0, [(1.0, 1.0)], 801, 5),
        "outward": lambda: verify._path_intervals(build_sampler(k2, c2_grid(6.0)), 6.0, 101, 5, verify.PATH_LANE),
        "markov path": lambda: verify._path_intervals(
            build_sampler(k1, heavy_tail_grid(k1, 10.0)), 10.0, 101, 5, verify.PATH_LANE
        ),
        "markov limit": lambda: verify._limit_intervals(1.0, 1.0, limit_grid(), 101, 5, verify.LIMIT_LANE),
    }
    for lanes, pooled in ((fft_lanes, True), (calling_thread, False)):
        for name, run in lanes.items():
            threads.clear()
            run()
            assert threads and (here not in threads) == pooled, name
            assert pooled or threads == {here}, name


def test_markov_lanes_start_no_worker_pool(monkeypatch):
    # at alpha = 1 both lanes walk their blocks on the calling thread, so a
    # verification run starts no thread however many CPUs it may use
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(streams, "_worker_count", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    k = make_kernel(1.0)
    report = run_verification(k, 10.0, heavy_tail_grid(k, 10.0), 201, 5, limit=limit_grid(0.02, 6.0))
    assert report.synthesis["path"]["engine"] == report.synthesis["limit"]["engine"] == "markov"


def _outputs(tmp_path, n):
    """Every output whose numbers the pool must not move, JSON-ready, with the
    run times removed."""
    reports = []
    for alpha, u in ((2.0, 6.0), (2.0, 10.0), (1.0, 10.0), (0.75, 10.0)):  # c2 at u = 10: a 16000-point embedding
        k = make_kernel(alpha)
        grid = c2_grid(u) if alpha == 2.0 else heavy_tail_grid(k, u)
        reports.append(run_verification(k, u, grid, n, 1729))
    k = make_kernel(1.0)  # a 2.5 delta_u window censors some replicates of each lane
    window = heavy_tail_grid(k, 10.0, 0.02, 2.5)
    reports.append(run_verification(k, 10.0, window, n, 13, limit=limit_grid(0.02, 2.5)))
    out = [{key: v for key, v in r.to_dict().items() if key != "runtime_seconds"} for r in reports]
    for alpha in (1.0, 0.75):  # 2 n spans two of the panel's blocks of 163 substreams
        out.append(covariance_panel(make_kernel(alpha), 10.0, [(1.0, 1.0), (1.0, 2.0), (-1.0, 1.0)], 2 * n, 5150))
    csv_path = tmp_path / f"paths-{n}.csv"
    assert main(["sample-paths", "--n", str(n // 10 + n % 2), "--out", str(csv_path)]) == EXIT_OK
    out.append(csv_path.read_text())
    return json.dumps(out, allow_nan=True)


@pytest.mark.parametrize("n", [201, 200])
def test_outputs_are_the_same_on_any_number_of_workers(monkeypatch, tmp_path, n):
    monkeypatch.setattr(verify, "CENSOR_BUDGET", 1.0)
    outputs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(streams, "_worker_count", lambda w=workers: w)
        outputs[workers] = _outputs(tmp_path, n)
    assert outputs[1] == outputs[2] == outputs[3]


def test_a_failing_block_stops_the_run_and_its_threads(monkeypatch):
    # u / sigma = 1e160 cannot be sampled above, so every block of the alpha =
    # 0.75 path lane raises on a worker: the run stops at the first, no block
    # past the six in flight is started, and no thread is left
    monkeypatch.setattr(streams, "_worker_count", lambda: 3)
    k, started, draw = make_kernel(0.75), [], verify.sample_conditional_exceedance

    def counted(*args):
        started.append(1)
        return draw(*args)

    monkeypatch.setattr(verify, "sample_conditional_exceedance", counted)
    plan = build_sampler(k, heavy_tail_grid(k, 10.0))
    before = threading.active_count()
    with pytest.raises(DomainError, match="threshold u"):
        verify._path_intervals(plan, 1e160, 4000, 5, verify.PATH_LANE)  # 125 blocks of 16 pairs
    assert 1 <= len(started) <= 2 * 3
    assert threading.active_count() == before
