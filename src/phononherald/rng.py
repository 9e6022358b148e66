"""Counter-based deterministic random numbers.

Every variate is a pure function of (seed, trial_index, draw_index), so
trial ranges can be sampled in any order or in parallel chunks and still
produce bit-identical results. The generator is the splitmix64 finalizer
applied to a Weyl sequence over the flattened (trial, draw) counter.

A variate is u = k * 2**-53 for the top 53 bits k of the hash, so
``clicked`` makes the silent-or-click decision u >= p on the integers
k >= ceil(p * 2**53), exactly, in cache-sized blocks of trials; only the
trials that click get a float.
"""

from __future__ import annotations

import math

import numpy as np

DRAWS_PER_TRIAL = 8

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0 ** -53)
_BLOCK = 1 << 16  # trials per click-pass block: 1 MB of counters and hashes


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; mixes ``x`` in place and returns it."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _bits(seed: int, trial_indices: np.ndarray, draw: int | np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """The 53-bit integers k = hash >> 11 behind ``uniforms``, hashed in
    place in ``out`` (a new array by default)."""
    draws = np.asarray(draw)
    if np.any((draws < 0) | (draws >= DRAWS_PER_TRIAL)):
        raise ValueError(f"draw index {draw} outside [0, {DRAWS_PER_TRIAL})")
    trials = np.asarray(trial_indices, dtype=np.uint64)
    # one counter array, hashed in place: a chunk's peak memory stays a few
    # arrays, whatever the threads interleave
    with np.errstate(over="ignore"):
        z = np.multiply(trials, np.uint64(DRAWS_PER_TRIAL), out=out)
        z += (draws + 1).astype(np.uint64)
        z *= _GOLDEN
        z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        z = _mix64(z)
    z >>= np.uint64(11)
    return z


def uniforms(seed: int, trial_indices: np.ndarray,
             draw: int | np.ndarray) -> np.ndarray:
    """Uniform [0, 1) variates of many trials; ``draw`` is one draw slot
    for all of them or an array of one slot per trial."""
    out = _bits(seed, trial_indices, draw).astype(np.float64)
    out *= _INV_2_53
    return out


def clicked(p: float, seed: int, start: int,
            stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Trials of [start, stop) whose draw-0 uniform u satisfies u >= p, and
    their u: the same trials and variates as ``uniforms(...) >= p``."""
    # u >= p  <=>  k >= p * 2**53 (an exact scaling)  <=>  k >= ceil(...);
    # clamped so that p <= 0 keeps every trial and p > 1 - 2**-53 none
    threshold = np.uint64(min(max(math.ceil(p * 2.0 ** 53), 0), 2 ** 53))
    # one hash buffer for every block: a fresh one each block would return
    # its pages to the system and fault them back in, doubling the pass
    k = np.empty(min(_BLOCK, max(stop - start, 0)), dtype=np.uint64)
    kept = [np.zeros(0, dtype=np.uint64)]
    for lo in range(start, stop, _BLOCK):
        trials = np.arange(lo, min(lo + _BLOCK, stop), dtype=np.uint64)
        hashed = _bits(seed, trials, 0, out=k[:trials.size])
        kept.append(trials[hashed >= threshold])
    trials = np.concatenate(kept)
    return trials, uniforms(seed, trials, 0)
