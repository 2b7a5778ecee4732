"""Reproducible random streams: one master seed, pure per-pair substreams."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

__all__ = ["substream_seed", "generator", "as_generator", "replicates"]


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


def as_generator(seed) -> np.random.Generator:
    """Accept either an integer seed or an existing generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return generator(int(seed))


def replicates(draw_pair: Callable[[int], Sequence], n: int, master_seed: int, lane: int):
    """The first n replicates of a lane, drawn in order on one thread.

    ``draw_pair(seed)`` returns two independent draws from one seed; replicate
    i is half i % 2 of draw_pair(substream_seed(master_seed, lane, i // 2)), so
    an odd n drops the last second half.
    """
    for k in range((n + 1) // 2):
        yield from draw_pair(substream_seed(master_seed, lane, k))[: n - 2 * k]
