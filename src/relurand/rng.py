"""Reproducible counter-based random streams.

Every experiment derives per-trial streams from one master seed so that
trial i is reproducible in isolation and trials can run concurrently
without sharing generator state.  Philox is counter-based: the
(master_seed, stream_id) pair is the 128-bit key, so distinct stream ids
give statistically independent sequences.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["RngStream"]


@functools.cache
def _key_type() -> type:
    """The seed sequence that hands Philox its two key words as they are,
    so that no SeedSequence is built: Philox(key=...) builds one from
    fresh OS entropy and then discards it.  Made on first use, since
    subclassing ISeedSequence imports numpy.random, which importing the
    package leaves to the first stream."""

    class Key(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Key


class RngStream:
    """A single-owner random stream keyed by (master_seed, stream_id): the
    generator of Philox(key=[master_seed, stream_id] mod 2^64)."""

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        key = np.array(
            [self.master_seed % (1 << 64), self.stream_id % (1 << 64)],
            dtype=np.uint64,
        )
        self._gen = np.random.Generator(np.random.Philox(_key_type()(key)))

    def normal(self, size=None, out=None) -> np.ndarray:
        """Standard normals, written into out when given (out.shape ==
        size): the same values as a fresh array of that size."""
        return self._gen.standard_normal(size, out=out)

    def uniform(self, size=None) -> np.ndarray:
        return self._gen.random(size)

    def bernoulli(self, p: float, size=None) -> np.ndarray:
        return self._gen.random(size) < p

    def chi(self, df, size=None):
        """Chi draws with df > 0 degrees of freedom: the norm of a
        standard gaussian vector in df dimensions, from one chisquare draw
        each."""
        return np.sqrt(self._gen.chisquare(df, size))

    def sphere_point(self, dim: int, norm: float = 1.0) -> np.ndarray:
        """Uniform point on the sphere of the given radius."""
        v = self._gen.standard_normal(dim)
        return v * (norm / np.linalg.norm(v))

    def ball_point(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Uniform point in the closed euclidean ball around center."""
        d = center.shape[0]
        u = self.sphere_point(d)
        s = self._gen.random() ** (1.0 / d)
        return center + radius * s * u

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"
