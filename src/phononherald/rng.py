"""Counter-based deterministic random numbers.

Every variate is a pure function of (seed, trial_index, draw_index), so
trial ranges can be sampled in any order or in parallel chunks and still
produce bit-identical results. The generator is the splitmix64 finalizer
applied to a Weyl sequence over the flattened (trial, draw) counter.

A variate is u = k * 2**-53 for the top 53 bits k of the hash, so
``clicked`` makes the silent-or-click decision u >= p on the integers
k >= T = ceil(p * 2**53), exactly; only the trials that click get a float.
It runs one fused kernel over cache-sized blocks of trials, in buffers
that every block reuses, on three exact integer identities:

- counter: the draw-0 counter of trial t is (8t + 1) G + seed, and
  (8t + 1) G + seed = (t - lo) 8G + ((8 lo + 1) G + seed) modulo 2**64, so
  a block starting at trial lo is one add of a scalar to a fixed stride;
- mix: the splitmix64 finalizer runs in place, its shifts through one
  temporary;
- compare: k >= T  <=>  hash >= T * 2**11 for T < 2**53, so k is never
  formed. The finalizer's last step, hash = x ^ (x >> 31), leaves the top
  31 bits of x as they are, so x >= T * 2**11 with its low 33 bits cleared
  keeps every click and, beyond them, only the trials that tie with the
  threshold in those bits (one in 2**31); the last step and the exact
  compare run on those few trials only.

``bernoulli_clicks`` finds the same kind of trials, each clicking with
probability q, in O(clicks) instead: it draws the gap from one click to the
next, which is Geometric(q), by inversion, G = 1 + floor(ln(1 - u) /
ln(1 - q)) (Devroye, Non-Uniform Random Variate Generation, 1986, ch. X),
the "skip" method of Batagelj & Brandes, PRE 71, 036113 (2005). The k-th
gap of a range [start, stop) takes its u from trial start + k, draw 0;
every gap is at least one trial, so no counter leaves the range.
"""

from __future__ import annotations

import math

import numpy as np

DRAWS_PER_TRIAL = 8

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)
_INV_2_53 = float(2.0 ** -53)
_BLOCK = 1 << 15  # trials per click-pass block: 3 uint64 buffers of 256 KB
_GAP_BATCH = 1 << 16  # most gaps drawn at once: a few arrays of 512 KB


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; mixes ``x`` in place and returns it."""
    x ^= x >> _SHIFT1
    x *= _MIX1
    x ^= x >> _SHIFT2
    x *= _MIX2
    x ^= x >> _SHIFT3
    return x


def uniforms(seed: int, trial_indices: np.ndarray,
             draw: int | np.ndarray) -> np.ndarray:
    """Uniform [0, 1) variates of many trials; ``draw`` is one draw slot
    for all of them or an array of one slot per trial."""
    draws = np.asarray(draw)
    if np.any((draws < 0) | (draws >= DRAWS_PER_TRIAL)):
        raise ValueError(f"draw index {draw} outside [0, {DRAWS_PER_TRIAL})")
    trials = np.asarray(trial_indices, dtype=np.uint64)
    # one counter array, hashed in place: a chunk's peak memory stays a few
    # arrays
    with np.errstate(over="ignore"):
        z = trials * np.uint64(DRAWS_PER_TRIAL)
        z += (draws + 1).astype(np.uint64)
        z *= _GOLDEN
        z += np.uint64(seed & _MASK64)
        z = _mix64(z)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= _INV_2_53
    return out


def clicked(p: float, seed: int, start: int,
            stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Trials of [start, stop) whose draw-0 uniform u satisfies u >= p, and
    their u: the same trials and variates as ``uniforms(...) >= p``."""
    # u >= p  <=>  k >= p * 2**53 (an exact scaling)  <=>  k >= ceil(...);
    # clamped so that p <= 0 keeps every trial and p > 1 - 2**-53 none
    threshold = min(max(math.ceil(p * 2.0 ** 53), 0), 2 ** 53)
    n = min(_BLOCK, max(stop - start, 0))
    kept = [np.zeros(0, dtype=np.uint64)]
    if threshold < 2 ** 53 and n:
        limit = np.uint64(threshold << 11)  # hash >= limit  <=>  k >= T
        coarse = np.uint64(threshold << 11 >> 33 << 33)
        golden = int(_GOLDEN)
        # counter steps (t - lo) 8G of a block's trials, then buffers that
        # every block reuses: fresh ones would return their pages to the
        # system and fault them back in
        stride = np.arange(n, dtype=np.uint64)
        stride *= np.uint64(DRAWS_PER_TRIAL * golden & _MASK64)
        x = np.empty(n, dtype=np.uint64)
        shifted = np.empty(n, dtype=np.uint64)
        above = np.empty(n, dtype=bool)
        for lo in range(start, stop, _BLOCK):
            m = min(_BLOCK, stop - lo)
            z, tmp = x[:m], shifted[:m]
            first = ((DRAWS_PER_TRIAL * lo + 1) * golden + seed) & _MASK64
            np.add(stride[:m], np.uint64(first), out=z)
            np.right_shift(z, _SHIFT1, out=tmp)
            z ^= tmp
            z *= _MIX1
            np.right_shift(z, _SHIFT2, out=tmp)
            z ^= tmp
            z *= _MIX2
            # the last step only for trials whose top 31 bits reach coarse
            near = np.flatnonzero(np.greater_equal(z, coarse, out=above[:m]))
            hashed = z[near]
            hashed ^= hashed >> _SHIFT3
            kept.append(near[hashed >= limit].astype(np.uint64) + np.uint64(lo))
    trials = np.concatenate(kept)
    return trials, uniforms(seed, trials, 0)


def bernoulli_clicks(q: float, seed: int, start: int, stop: int) -> np.ndarray:
    """Trials of [start, stop) that click, each one independently with
    probability q, found by geometric gaps: gap k runs from click k - 1 (or
    from start - 1) to click k and takes its uniform from trial start + k,
    draw 0, so the result is a pure function of (q, seed, start, stop)."""
    n = max(stop - start, 0)
    if q >= 1.0:
        return np.arange(start, start + n, dtype=np.uint64)
    if q <= 0.0 or n == 0:
        return np.zeros(0, dtype=np.uint64)
    log_silent = math.log1p(-q)
    kept = []
    drawn = 0  # gaps drawn so far: the next one's counter is start + drawn
    end = 0  # trials [start, start + end) are decided
    while end < n:
        left = n - end
        mean = left * q  # the clicks still to come, plus a 5-sigma margin
        m = min(left, _GAP_BATCH, math.ceil(mean + 5.0 * math.sqrt(mean) + 8.0))
        u = uniforms(seed, np.arange(start + drawn, start + drawn + m,
                                     dtype=np.uint64), 0)
        with np.errstate(over="ignore"):  # a subnormal q: inf, capped below
            skips = np.floor(np.log1p(-u) / log_silent)
        # a gap of left + 1 trials ends past the range, so the cap loses
        # nothing; it keeps the sums below 2**64 up to the first one past
        # the range, and later sums are never read
        ends = np.cumsum(np.minimum(skips, left).astype(np.uint64) + np.uint64(1))
        ends += np.uint64(end)
        past = ends > n
        inside = int(past.argmax()) if past.any() else m
        clicks = ends[:inside] - np.uint64(1)
        clicks += np.uint64(start)
        kept.append(clicks)
        drawn += m
        end = n if inside < m else int(ends[-1])
    return np.concatenate(kept)
