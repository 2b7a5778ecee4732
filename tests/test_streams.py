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
from excursions.cli import EXIT_CONFIG_ERROR, EXIT_OK, main
from excursions.streams import generator, replicates, substream_seed


@pytest.mark.parametrize("key", [0, 1729, 2**64 - 1, 2**64 + 12345])
def test_generator_draws_the_stream_of_its_philox_key(key):
    # keyed without drawing OS entropy, yet the same stream as Philox(key=key)
    expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(1000)
    np.testing.assert_array_equal(generator(key).standard_normal(1000), expected)


def _seed_sequence_key(master, *lane):
    return int(np.random.SeedSequence(master, spawn_key=lane).generate_state(1, np.uint64)[0])


@settings(max_examples=300, deadline=None)
@given(
    master=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**200)),
    head=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**70)), max_size=3),
    k=st.one_of(st.integers(0, 10**6), st.integers(2**32, 2**80)),
)
@example(master=0, head=[0], k=0)
@example(master=2**200 - 1, head=[2**64, 1], k=2**32)  # multiword master and lane words
def test_substream_seeds_are_the_seed_sequence_keys(master, head, k):
    # the cached prefix reproduces SeedSequence(master, spawn_key=lane), so no
    # stream moves; asked twice, once from the cache, the key is the same
    lane = (*head, k)
    assert substream_seed(master, *lane) == _seed_sequence_key(master, *lane)
    assert substream_seed(master, *head, k + 1) == _seed_sequence_key(master, *head, k + 1)
    assert substream_seed(master, *head) == _seed_sequence_key(master, *head)  # the lane may be empty
    assert substream_seed(np.int64(master % 2**63), *lane) == _seed_sequence_key(master % 2**63, *lane)


@settings(max_examples=200, deadline=None)
@given(
    master=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**200)),
    head=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**70)), max_size=2),
    start=st.one_of(st.integers(0, 10**6), st.integers(2**32 - 50, 2**32 + 10), st.integers(0, 2**80)),
    count=st.integers(0, 40),
)
@example(master=2**200 - 1, head=[2**64, 1], start=2**32 - 3, count=6)  # straddles k = 2**32
@example(master=1729, head=[0], start=5, count=0)  # an empty range
def test_the_key_pass_gives_each_seed_of_a_range_of_substreams(master, head, start, count):
    # the numpy pass over a range of last indices is the seed sequence's hash,
    # whatever words the master seed, the lane head and the indices take
    keys = streams._substream_seeds(master, (*head, start), count)
    assert keys.dtype == np.uint64 and keys.shape == (count,)
    expected = [_seed_sequence_key(master, *head, k) for k in range(start, start + count)]
    assert keys.tolist() == expected == [substream_seed(master, *head, k) for k in range(start, start + count)]


@pytest.mark.parametrize("chunk", [1, 5, 4096])
@pytest.mark.parametrize("size", [2, 3])
def test_blocks_get_their_seeds_from_chunks_of_whole_blocks(monkeypatch, chunk, size):
    # keys are derived a chunk of whole blocks at a time: no chunk splits a
    # block, and every block gets its substreams' seeds in order
    monkeypatch.setattr(streams, "_KEY_CHUNK", chunk)
    blocks = list(replicates(lambda seeds: np.repeat(np.array(seeds, np.uint64), 2)[:, None], 41, 5, 0, size))
    assert [len(b) for b in blocks[:-1]] == [2 * size] * (len(blocks) - 1)
    expected = [substream_seed(5, 0, k) for k in range(21) for _ in range(2)][:41]
    np.testing.assert_array_equal(np.concatenate(blocks)[:, 0], expected)


@pytest.mark.parametrize("lane", [(-1,), (0, -2)])
def test_substream_seeds_need_non_negative_lane_indices(lane):
    with pytest.raises(DomainError):
        substream_seed(1729, *lane)


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


def test_blocks_come_back_in_order_with_the_blocks_in_flight_bounded(monkeypatch):
    monkeypatch.setattr(streams, "_worker_count", lambda: 3)
    lock, started, running, most, threads = threading.Lock(), [0], [0], [0], set()

    def draw_block(seeds):
        with lock:
            started[0] += 1
            running[0] += 1
            most[0] = max(most[0], running[0])
            threads.add(threading.get_ident())
        time.sleep(0.02)
        with lock:
            running[0] -= 1
        return np.array([[s] for s in seeds for _ in range(2)], dtype=np.uint64)

    before = threading.active_count()
    blocks = []
    for block in replicates(draw_block, 41, 5, 0, 2):
        blocks.append(block)
        assert started[0] <= len(blocks) + 5  # this block, and at most 2 * 3 - 1 more
    expected = [streams.substream_seed(5, 0, k) for k in range(21) for _ in range(2)][:41]
    np.testing.assert_array_equal(np.concatenate(blocks)[:, 0], expected)
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


def test_whole_row_blocks_go_to_the_pool_and_walks_stay_on_the_calling_thread(monkeypatch, tmp_path):
    # the block rule: blocks that draw whole rows, on either engine, reach
    # worker threads; the outward smooth walk and both Markov walks start no
    # pool.  Every block builds its generators on the thread that draws it.
    monkeypatch.setattr(streams, "_worker_count", lambda: 3)
    threads, keyed = set(), streams.generator

    def recorded(*args):
        threads.add(threading.get_ident())
        return keyed(*args)

    def paths(*flags):
        assert main(["sample-paths", "--n", "101", *flags, "--out", str(tmp_path / "p.csv")]) == EXIT_OK

    monkeypatch.setattr(streams, "generator", recorded)
    here, k1, k2, k075 = threading.get_ident(), make_kernel(1.0), make_kernel(2.0), make_kernel(0.75)
    whole_rows = {
        "sample-paths direct": paths,
        "sample-paths fft": lambda: paths("--alpha", "0.75", "--u", "10"),
        # the panel's 201-point grid embeds in 400 points, 327 substreams a block
        "panel": lambda: covariance_panel(k075, 10.0, [(1.0, 1.0)], 801, 5),
        "limit alpha 0.75": lambda: verify._limit_intervals(0.75, 1.0, limit_grid(), 101, 5, verify.LIMIT_LANE),
    }
    walks = {
        "outward": lambda: verify._path_intervals(build_sampler(k2, c2_grid(6.0)), 6.0, 101, 5, verify.PATH_LANE),
        "markov path": lambda: verify._path_intervals(
            build_sampler(k1, heavy_tail_grid(k1, 10.0)), 10.0, 101, 5, verify.PATH_LANE
        ),
        "markov limit": lambda: verify._limit_intervals(1.0, 1.0, limit_grid(), 101, 5, verify.LIMIT_LANE),
    }
    for lanes, pooled in ((whole_rows, True), (walks, False)):
        for name, run in lanes.items():
            threads.clear()
            run()
            assert threads and (here not in threads) == pooled, name
            assert pooled or threads == {here}, name


def test_sample_paths_on_a_direct_plan_write_the_same_file_on_any_number_of_workers(monkeypatch, tmp_path):
    # alpha = 2 plans sum directly; their whole-row blocks go to the pool too
    files = []
    for workers in (1, 3):
        monkeypatch.setattr(streams, "_worker_count", lambda w=workers: w)
        files.append(tmp_path / f"paths-{workers}.csv")
        assert main(["sample-paths", "--n", "40", "--out", str(files[-1])]) == EXIT_OK
    assert files[0].read_bytes() == files[1].read_bytes()


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
    for alpha in (1.0, 0.75):  # the panel's blocks are drawn on the workers, 2 n spans two blocks of 163
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


def test_a_failing_block_stops_the_run_and_its_threads(monkeypatch, tmp_path):
    # u / sigma = 1e160 cannot be sampled above, so every block raises on a worker
    monkeypatch.setattr(streams, "_worker_count", lambda: 3)
    before = threading.active_count()
    out = tmp_path / "big.csv"
    assert main(["sample-paths", "--u", "1e160", "--n", "40", "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()
    assert threading.active_count() == before
