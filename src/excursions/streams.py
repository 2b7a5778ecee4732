"""Reproducible random streams: one master seed, pure per-pair substreams.

Replicates come in blocks of consecutive substreams, each substream with its
own generator, so neither the block size nor the number of worker threads that
draw the blocks changes a number, only speed and memory.  Substream seeds are
the keys numpy's SeedSequence derives, computed from a cached prefix of its
mixing state.  replicates derives them on the calling thread, in one numpy
pass (_substream_seeds) per chunk of _KEY_CHUNK consecutive substreams cut at
a block boundary, and hands each block its seeds; a block builds its
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

# Substreams whose seeds one numpy pass derives (_substream_seeds), rounded
# down to whole blocks: a few hundred KiB of temporaries and Python ints,
# whatever the run size.
_KEY_CHUNK = 4096

# numpy's SeedSequence hash constants, and generate_state's first two multipliers.
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _MIX_L, _MIX_R = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_OUT_1, _OUT_2 = _INIT_B * _MULT_B & _MASK, _INIT_B * _MULT_B**2 & _MASK


def substream_seed(master_seed: int, *lane: int) -> int:
    """Derive a 64-bit seed for one replicate from a master seed and lane indices.

    Pure function of its arguments, so a replicate's stream never depends on
    how many replicates a run draws or in which order.  The seed is that of
    ``SeedSequence(master_seed, spawn_key=lane).generate_state(1, np.uint64)``:
    the one-element case of _substream_seeds.
    """
    return int(_substream_seeds(master_seed, lane, 1)[0])


def _substream_seeds(master_seed: int, lane: tuple, count: int) -> np.ndarray:
    """substream_seed(master_seed, *lane[:-1], lane[-1] + i) for i in
    range(count), as a uint64 array, in one numpy pass; an empty lane gives
    the seed of the master seed alone.  A seed sequence hashes its entropy
    words into its pool in order, so the pool after all lane indices but the
    last is cached (_prefix); each last index mixes in the words a seed
    sequence reads of it (_index_words), and two words are hashed out.  Every
    hash constant is shared by the indices, and uint64 products keep their
    low 32 bits exactly."""
    master_seed, lane = operator.index(master_seed), tuple(map(operator.index, lane))
    if master_seed < 0 or min(lane, default=0) < 0:
        raise DomainError(f"master seed and lane indices must be non-negative, got {master_seed}, {lane}")
    words = _index_words(lane[-1], count) if lane else np.zeros((0, count), np.uint64)
    pool, const = _prefix(master_seed, lane[:-1])
    pool = [np.full(count, word, np.uint64) for word in pool]
    # an index's first word is mixed in, and each further one up to its highest nonzero one
    mixes = np.logical_or.accumulate(words[::-1] != 0)[::-1]
    mixes[:1] = True
    for word, live in zip(words, mixes):
        if not live.any():
            break
        for dst in range(4):  # hash the word and mix it into each pool word
            value = (word ^ const) * (const := const * _MULT_A & _MASK) & _MASK
            mixed = (_MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16)) & _MASK
            pool[dst] = np.where(live, mixed ^ mixed >> 16, pool[dst])
    lo = (pool[0] ^ _INIT_B) * _OUT_1 & _MASK
    hi = (pool[1] ^ _OUT_1) * _OUT_2 & _MASK
    return (lo ^ lo >> 16) | (hi ^ hi >> 16) << 32


def _index_words(start: int, count: int) -> np.ndarray:
    """The 32-bit words of the indices start .. start + count - 1, least
    significant first, one column each: start's words plus the offset, carried
    into one more row.  count must be below 2**32."""
    words = np.empty((len(_words(start)) + 1, count), np.uint64)
    carry = np.arange(count, dtype=np.uint64)
    for row, word in zip(words, [*_words(start), 0]):
        carry += word
        np.bitwise_and(carry, _MASK, out=row)
        carry >>= 32
    return words


def _words(value: int) -> list[int]:
    """An integer's 32-bit words, least significant first, as a seed sequence reads it."""
    return [value >> shift & _MASK for shift in range(0, max(value.bit_length(), 1), 32)]


@lru_cache(maxsize=64)
def _prefix(master_seed: int, head: tuple) -> tuple[tuple, int]:
    """The pool of SeedSequence(master_seed, spawn_key=head), which a longer
    spawn key only extends, and its hash constant: 16 hashes fill and mix the
    pool of four words, and 4 more mix in each entropy word beyond the fourth
    (a master seed of fewer words is zero padded, which hashes the same)."""
    hashes = 16 + 4 * (max(0, len(_words(master_seed)) - 4) + sum(len(_words(index)) for index in head))
    pool = np.random.SeedSequence(master_seed, spawn_key=head).pool
    return tuple(map(int, pool)), _INIT_A * pow(_MULT_A, hashes, _MASK + 1) & _MASK


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
    calling thread, a chunk of whole blocks at a time.

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
    chunk = size * max(1, _KEY_CHUNK // size)  # whole blocks

    def seeded():  # (start, seeds) per block, keyed one chunk of blocks at a time
        for first in range(0, pairs, chunk):
            seeds = _substream_seeds(master_seed, (lane, first), min(chunk, pairs - first)).tolist()
            for start in range(first, first + len(seeds), size):
                yield start, seeds[start - first : start - first + size]

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
