"""Counter-based random streams addressed by (seed, purpose, index).

Every stochastic routine in the package pulls its randomness from an
independent stream derived from an experiment seed, a purpose tag, and an
optional integer index. Streams never share mutable state, so parallel
evaluation over sigma nodes or measurement indices cannot change results:
partitioning work by index always reproduces the single-threaded draw.
Functions that draw take such a Generator, never an int seed, so no draw
can bypass this addressing.
"""

from __future__ import annotations

import zlib

import numpy as np


def _key_part(part) -> int:
    """Map a stream-path component to a stable non-negative integer."""
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream path ints must be >= 0, got {part}")
        return int(part)
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"stream path parts must be int or str, got {type(part)!r}")


def stream(seed: int, *path) -> np.random.Generator:
    """Return an independent Generator for (seed, *path).

    Args:
        seed: experiment-level seed (any 64-bit unsigned int).
        *path: purpose tags (str) and/or indices (int) identifying the stream.

    Returns:
        numpy Generator seeded so that distinct paths give statistically
        independent, reproducible streams.
    """
    key = tuple(_key_part(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

