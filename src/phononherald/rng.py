"""Counter-based deterministic random numbers.

Every variate is a pure function of (seed, trial_index, draw_index), so
trial ranges can be sampled in any order or in parallel chunks and still
produce bit-identical results. The generator is the splitmix64 finalizer
applied to a Weyl sequence over the flattened (trial, draw) counter.
"""

from __future__ import annotations

import numpy as np

DRAWS_PER_TRIAL = 8

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0 ** -53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; mixes ``x`` in place and returns it."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def uniforms(seed: int, trial_indices: np.ndarray,
             draw: int | np.ndarray) -> np.ndarray:
    """Uniform [0, 1) variates of many trials; ``draw`` is one draw slot
    for all of them or an array of one slot per trial."""
    draws = np.asarray(draw)
    if np.any((draws < 0) | (draws >= DRAWS_PER_TRIAL)):
        raise ValueError(f"draw index {draw} outside [0, {DRAWS_PER_TRIAL})")
    trials = np.asarray(trial_indices, dtype=np.uint64)
    # one counter array, hashed in place, and one float array out: a chunk's
    # peak memory stays a few arrays, whatever the threads interleave
    with np.errstate(over="ignore"):
        z = trials * np.uint64(DRAWS_PER_TRIAL)
        z += (draws + 1).astype(np.uint64)
        z *= _GOLDEN
        z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        z = _mix64(z)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= _INV_2_53
    return out
