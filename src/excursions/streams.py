"""Reproducible random streams: one master seed, pure per-pair substreams.

A substream's generator is a Philox keyed by two 64-bit words: the lane's
word and the substream's index.  The lane word is the first word that
SeedSequence(master_seed, spawn_key=head) generates, for the lane indices
(head) before the last, and the index is the last.  Philox is built to take a
stream id as its key: generators with different keys draw independent
streams, so substreams are independent within a lane, and lanes are too
unless two of them hash to the same word (probability 2**-64 a pair).  A key
is a pure function of master seed and lane, so a run is a prefix of any
longer run.

Replicates come in blocks of consecutive substreams, each substream with its
own generator, so neither the block size nor the number of worker threads that
draw the blocks changes a number, only speed and memory.  replicates keys
each block on the calling thread and hands it its seeds; a block builds its
generators from them on the thread that draws it.

Every lane follows one block rule with two cases.  A block that draws whole
rows, by FFT or by direct sum (the heavy-tail path and limit lanes at alpha
other than 1, sample-paths on either engine, the covariance panel), holds
sampling.block_size(weights) substreams, as many as fill sampling._BLOCK_BYTES
of its circulant: 16 path pairs on the default 8000-point circulant, 32 limit
pairs on the 4000-point one, 163 panel substreams on the default panel's
800-point one.  It goes to the worker pool, since its normals and transforms
release the GIL.  A walk (crossings.walk_intervals: verify's smooth path lane
and its alpha = 1 lanes) holds the GIL for most of its time, so it keeps the
fixed count verify gives it and runs on the calling thread.
"""

from __future__ import annotations

import operator
import os
from collections import deque
from functools import cache, lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["substream_seed", "generator", "generators", "replicates"]

# Most worker threads a run draws blocks on.  Two workers draw heavy-tail
# blocks about 1.5x as fast as one, so about a third of a block holds the GIL;
# by Amdahl's law four workers are then at best twice as fast as one, and a
# fifth would add at most 7% for one more block of memory.
_MAX_WORKERS = 4


def substream_seed(master_seed: int, *lane: int) -> int:
    """The Philox key of one substream, ``w | lane[-1] << 64`` with w the word
    of the lane's head lane[:-1]: a pure function of its arguments, so a
    replicate's stream never depends on how many replicates a run draws or in
    which order.  The lane needs one or more indices."""
    master_seed, lane = operator.index(master_seed), tuple(map(operator.index, lane))
    if not lane or master_seed < 0 or min(lane) < 0 or lane[-1] >= 1 << 64:
        msg = "a master seed and one or more lane indices, none negative and the last below 2**64"
        raise DomainError(f"a substream needs {msg}, got {master_seed}, {lane}")
    return _lane_word(master_seed, lane[:-1]) | lane[-1] << 64


@lru_cache(maxsize=64)
def _lane_word(master_seed: int, head: tuple) -> int:
    """The key word of every substream of lane head: one seed sequence per lane."""
    return int(np.random.SeedSequence(master_seed, spawn_key=head).generate_state(1, np.uint64)[0])


def generator(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) keyed directly by ``seed``: the stream of
    ``Philox(key=seed)``, without the OS entropy that call draws for a seed
    sequence it never uses."""
    return np.random.Generator(np.random.Philox(_key_type()(int(seed))))


@cache
def _key_type() -> type:
    """A seed sequence that hands a Philox its key words as they are; made on
    first use, since importing numpy.random slows every CLI start."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: int):
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # the words least significant first, read-only, in one numpy call
            dtype = np.dtype(dtype).newbyteorder("<")
            return np.frombuffer(self.key.to_bytes(n_words * dtype.itemsize, "little"), dtype)

    return Key


def generators(seed) -> list[np.random.Generator]:
    """One generator per substream of a block: ``seed`` is an integer seed or an
    existing Generator (a block of one), or a sequence of them."""
    seeds = [seed] if isinstance(seed, (np.random.Generator, int, np.integer)) else seed
    return [s if isinstance(s, np.random.Generator) else generator(s) for s in seeds]


def _worker_count() -> int:
    """One worker per CPU this process may use, at most _MAX_WORKERS."""
    if hasattr(os, "process_cpu_count"):
        cpus = os.process_cpu_count()
    elif hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    return max(1, min(cpus or 1, _MAX_WORKERS))


def replicates(
    draw_block: Callable[[list[int]], np.ndarray],
    n: int,
    master_seed: int,
    lane: int,
    size: int,
    *,
    pooled: bool = True,
):
    """The first n replicates of a lane, in blocks of ``size`` consecutive substreams.

    ``draw_block(seeds)`` returns two independent draws per seed, as rows in
    seed order; replicate i is row i % 2 of substream_seed(master_seed, lane,
    i // 2)'s pair, so each yielded block holds the rows of its substreams, and
    an odd n drops the last second half.  The seeds are derived here, on the
    calling thread, a block at a time.

    With ``pooled`` (the default), blocks are drawn on up to _worker_count()
    threads at once and yielded in block order.  At most twice that many are
    in flight, drawn or waiting to be yielded, so a worker seldom waits for
    the consumer and memory stays flat in n; the threads end with the run.
    ``draw_block`` must then be safe to call from several threads; each call
    keeps its own generators, so every number is the same on any number of
    workers.  Without ``pooled``, blocks are drawn one at a time on the
    calling thread: the walks of the block rule above.
    """
    if n < 1:
        raise DomainError(f"a run needs n >= 1 replicates, got n = {n}")
    pairs = (n + 1) // 2
    word = substream_seed(master_seed, lane, 0)  # substream 0: the lane word alone

    def seeded():  # (start, seeds) per block
        for start in range(0, pairs, size):
            yield start, [word | k << 64 for k in range(start, min(start + size, pairs))]

    def block(start: int, seeds: list[int]) -> np.ndarray:
        return draw_block(seeds)[: n - 2 * start]

    workers = min(_worker_count(), -(-pairs // size)) if pooled else 1
    if workers == 1:
        yield from (block(*args) for args in seeded())
        return
    # imported here: at the top it would add about 7.5 ms to every CLI start
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers, thread_name_prefix="excursions-block")
    try:
        pending = deque()
        for args in seeded():
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(block, *args))
        while pending:
            yield pending.popleft().result()
    finally:  # also when a block fails or the consumer stops early
        pool.shutdown(cancel_futures=True)
