"""Deterministic 64-bit pseudo-random generator for all randomized components.

SplitMix64: the state advances by the 64-bit golden-ratio increment and each
output is a two-round multiply/xor-shift finalizer of the state.  The whole
generator is a handful of integer operations, so a fuzz campaign seeded here
reproduces bit-for-bit in any language that has 64-bit unsigned arithmetic.

State transition and output, with all arithmetic mod 2**64:

    state   <- state + 0x9E3779B97F4A7C15
    z       <- state
    z       <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9
    z       <- (z xor (z >> 27)) * 0x94D049BB133111EB
    output  <- z xor (z >> 31)

Doubles in [0, 1) take the top 53 bits of an output word.

The state after n steps is seed + n * GOLDEN, so output n of a stream is
mix64(seed + n * GOLDEN): ``_words`` reads any outputs of many streams at
once in that counter form, with numpy's uint64 arithmetic, which wraps mod
2**64 exactly as the generator's does.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParameter

__all__ = ["SplitMix64", "derive_seed", "mix64"]

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """SplitMix64 output finalizer."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _checked_seed(seed) -> int:
    """``seed``, if it is an int in [0, 2**64); anything else raises ``BadParameter``.

    The generator reduces its seed mod 2**64, so a seed outside that range
    would run another seed's stream under its own name.
    """
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise BadParameter(f"seed must be an int, got {seed!r}")
    if not 0 <= seed <= MASK64:
        raise BadParameter(f"seed must be in [0, 2**64), got {seed}")
    return seed


def derive_seed(seed: int, index: int) -> int:
    """Sub-seed for stream ``index`` of a campaign seeded with ``seed``.

    Defined as mix64(seed + (index + 1) * GOLDEN); trial streams are fully
    determined by (seed, index), so serial and parallel execution agree.
    """
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


def _words(outputs, states) -> np.ndarray:
    """Output ``outputs[t]`` (counted from 1) of a stream at each of ``states``, as a
    ``(len(outputs), len(states))`` uint64 array of the words ``next_u64`` returns."""
    z = (np.asarray(outputs, dtype=np.uint64)[:, None] * np.uint64(GOLDEN)
         + np.asarray(states, dtype=np.uint64))
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _uniforms(words: np.ndarray) -> np.ndarray:
    """``SplitMix64.uniform()`` of each word: its top 53 bits times 2**-53, both exact."""
    return (words >> np.uint64(11)) * 2.0**-53


class SplitMix64:
    """Sequential SplitMix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def _skip(self, count: int) -> int:
        """The state before the next ``count`` outputs, which the stream then skips.

        ``_words(range(1, count + 1), [state])`` reads them.
        """
        state = self._state
        self._state = (state + count * GOLDEN) & MASK64
        return state

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi) from the top 53 bits of one output."""
        x = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * x

    def below(self, n: int) -> int:
        """Uniform integer in [0, n); modulo bias is negligible for small n."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n
