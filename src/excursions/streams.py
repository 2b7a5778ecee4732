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
own generator, so neither the block size nor the thread that draws a block
changes a number, only speed and memory.  Blocks are keyed on the calling
thread; each builds its generators on the thread that draws it.  A block that
draws whole rows holds sampling.block_size(weights) substreams, as many as
fill sampling._BLOCK_BYTES of its circulant (16 path pairs on the default
8000-point one); a walk (crossings.walk_intervals) keeps the fixed count
verify gives it.  replicates draws blocks one at a time on the calling thread,
pooled_rows on a small pool of threads.  Only verify's FFT lanes (the path
lane on a plan that transforms, the limit lane at alpha other than 1) take
the pool: only their normals and transforms release the GIL long enough.
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

# Most worker threads a run draws blocks on.  On two CPUs, two workers run
# `verify-ht --alpha 0.75 --n 5000` 1.8x as fast as one (0.84 s against 1.53 s),
# so at most a ninth of it holds the GIL; by Amdahl's law four workers are then
# at best 3x as fast as one, and a fifth would add at most 15%.
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


def _seeded(n: int, master_seed: int, lane: int, size: int):
    """(start, seeds) of each block of n replicates: its first substream's
    index and its substreams' seeds.  n is checked at the call."""
    if n < 1:
        raise DomainError(f"a run needs n >= 1 replicates, got n = {n}")
    pairs = (n + 1) // 2
    word = substream_seed(master_seed, lane, 0)  # substream 0: the lane word alone
    return ((i, [word | k << 64 for k in range(i, min(i + size, pairs))]) for i in range(0, pairs, size))


def replicates(draw_block: Callable[[list[int]], np.ndarray], n: int, master_seed: int, lane: int, size: int):
    """The first n replicates of a lane, in blocks of ``size`` consecutive
    substreams, each drawn on the calling thread when it is asked for.

    ``draw_block(seeds)`` returns two independent draws per seed, as rows in
    seed order; replicate i is row i % 2 of substream_seed(master_seed, lane,
    i // 2)'s pair, so each yielded block holds the rows of its substreams, and
    an odd n drops the last second half.
    """
    for start, seeds in _seeded(n, master_seed, lane, size):
        yield draw_block(seeds)[: n - 2 * start]


def pooled_rows(draw_block: Callable[[list[int]], np.ndarray], n: int, master_seed: int, lane: int, size: int):
    """The rows of replicates(draw_block, n, master_seed, lane, size) in one
    array, the blocks drawn on up to _worker_count() threads.  At most twice
    as many blocks as workers are in flight, so memory stays flat in n but for
    the rows; the threads end before this returns or raises, and a failed
    block cancels those not yet started.  ``draw_block`` must be thread-safe;
    each call keeps its own generators, so no number depends on the workers."""
    blocks, workers = _seeded(n, master_seed, lane, size), _worker_count()
    # imported here: at the top it would add about 7.5 ms to every CLI start
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers, thread_name_prefix="excursions-block")
    try:
        rows, pending = [], deque()
        for _, seeds in blocks:
            if len(pending) == 2 * workers:
                rows.append(pending.popleft().result())
            pending.append(pool.submit(draw_block, seeds))
        return np.concatenate(rows + [block.result() for block in pending])[:n]
    finally:
        pool.shutdown(cancel_futures=True)
