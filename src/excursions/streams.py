"""Reproducible random streams: one master seed, pure per-pair substreams.

Replicates come in blocks of consecutive substreams, each substream with its
own generator, so the block size changes no number, only speed and memory.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["substream_seed", "generator", "generators", "replicates"]


def substream_seed(master_seed: int, *lane: int) -> int:
    """Derive a 64-bit seed for one replicate from a master seed and lane indices.

    Pure function of its arguments, so a replicate's stream never depends on
    how many replicates a run draws or in which order.
    """
    if master_seed < 0:
        raise DomainError(f"master seed must be a non-negative integer, got {master_seed}")
    ss = np.random.SeedSequence(master_seed, spawn_key=lane)
    return int(ss.generate_state(1, np.uint64)[0])


def generator(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) keyed directly by ``seed``."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def generators(seed) -> list[np.random.Generator]:
    """One generator per substream of a block: ``seed`` is an integer seed or an
    existing Generator (a block of one), or a sequence of them."""
    seeds = [seed] if isinstance(seed, (np.random.Generator, int, np.integer)) else seed
    return [s if isinstance(s, np.random.Generator) else generator(s) for s in seeds]


def replicates(
    draw_block: Callable[[list[int]], np.ndarray], n: int, master_seed: int, lane: int, size: int
):
    """The first n replicates of a lane, in blocks of ``size`` consecutive substreams.

    ``draw_block(seeds)`` returns two independent draws per seed, as rows in
    seed order; replicate i is row i % 2 of substream_seed(master_seed, lane,
    i // 2)'s pair, so each yielded block holds the rows of its substreams, and
    an odd n drops the last second half.
    """
    pairs = (n + 1) // 2
    for start in range(0, pairs, size):
        seeds = [substream_seed(master_seed, lane, k) for k in range(start, min(start + size, pairs))]
        yield draw_block(seeds)[: n - 2 * start]
