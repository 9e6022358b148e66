"""Counter-based random numbers: determinism and basic uniformity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phononherald import rng


def test_deterministic():
    idx = np.arange(1000, dtype=np.uint64)
    a = rng.uniforms(42, idx, 0)
    b = rng.uniforms(42, idx, 0)
    assert np.array_equal(a, b)


def test_chunk_invariance():
    # sampling [0, 1000) in one call equals any chunked decomposition
    idx = np.arange(1000, dtype=np.uint64)
    whole = rng.uniforms(7, idx, 3)
    parts = np.concatenate([rng.uniforms(7, idx[:311], 3),
                            rng.uniforms(7, idx[311:800], 3),
                            rng.uniforms(7, idx[800:], 3)])
    assert np.array_equal(whole, parts)


def test_order_invariance():
    idx = np.arange(500, dtype=np.uint64)
    perm = np.random.permutation(500)
    assert np.array_equal(rng.uniforms(3, idx, 1)[perm],
                          rng.uniforms(3, idx[perm], 1))


def test_seed_and_draw_decorrelate():
    idx = np.arange(4000, dtype=np.uint64)
    base = rng.uniforms(1, idx, 0)
    assert not np.array_equal(base, rng.uniforms(2, idx, 0))
    assert not np.array_equal(base, rng.uniforms(1, idx, 1))


def test_range_and_moments():
    idx = np.arange(200_000, dtype=np.uint64)
    u = rng.uniforms(123, idx, 0)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert u.mean() == pytest.approx(0.5, abs=0.005)
    assert u.var() == pytest.approx(1.0 / 12.0, abs=0.005)


def test_draw_index_validated():
    idx = np.arange(4, dtype=np.uint64)
    with pytest.raises(ValueError):
        rng.uniforms(0, idx, rng.DRAWS_PER_TRIAL)
    with pytest.raises(ValueError):
        rng.uniforms(0, idx, -1)


def test_per_trial_draw_matches_scalar_slots():
    idx = np.arange(2 ** 40, 2 ** 40 + 400, dtype=np.uint64)
    draws = np.arange(400) % rng.DRAWS_PER_TRIAL
    got = rng.uniforms(9, idx, draws)
    for draw in range(rng.DRAWS_PER_TRIAL):
        sel = draws == draw
        assert np.array_equal(got[sel], rng.uniforms(9, idx[sel], draw))


@pytest.mark.parametrize("bad", [-1, rng.DRAWS_PER_TRIAL])
def test_per_trial_draw_validated(bad):
    idx = np.arange(4, dtype=np.uint64)
    with pytest.raises(ValueError):
        rng.uniforms(0, idx, np.array([0, 1, bad, 2]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       start=st.integers(0, 2 ** 40),
       draw=st.integers(0, rng.DRAWS_PER_TRIAL - 1))
def test_pure_function_of_counter(seed, start, draw):
    idx = np.arange(start, start + 64, dtype=np.uint64)
    a = rng.uniforms(seed, idx, draw)
    assert np.array_equal(a, rng.uniforms(seed, idx, draw))
    assert np.all((0.0 <= a) & (a < 1.0))


def test_matches_scalar_splitmix64_and_leaves_inputs():
    # the array code hashes in place; it must equal the textbook splitmix64
    # of seed + counter * golden and never write to the caller's indices
    def reference(seed, trial, draw):
        mask = 2 ** 64 - 1
        x = (seed + (trial * rng.DRAWS_PER_TRIAL + draw + 1) * 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        return ((x ^ (x >> 31)) >> 11) * 2.0 ** -53

    idx = np.array([0, 1, 2 ** 40 + 7, 2 ** 61 - 1], dtype=np.uint64)
    draws = np.array([0, 3, 7, 5])
    kept = idx.copy()
    got = rng.uniforms(2 ** 64 - 3, idx, draws)
    assert np.array_equal(idx, kept)
    assert got.tolist() == [reference(2 ** 64 - 3, int(t), int(d))
                            for t, d in zip(kept, draws)]


def _float_clicks(p, seed, start, stop):
    # the reference: one float per trial, compared with p
    idx = np.arange(start, stop, dtype=np.uint64)
    u = rng.uniforms(seed, idx, 0)
    return idx[u >= p], u[u >= p]


# two click-pass blocks; the compare cases below sit on their edges
_SPAN = 2 * rng._BLOCK
# the trial whose draw-0 variate at seed 5 is one of the thresholds below
_ON_GRID = 3 * _SPAN + 40


def _click_probabilities():
    from phononherald import config, protocol
    table = protocol.build_outcome_table(config.default_config(), 100.0)
    # a variate of the range below, so the compare meets u == p exactly
    on_grid = rng.uniforms(5, np.array([_ON_GRID], dtype=np.uint64), 0)[0]
    return [0.0, 1.0 - 2.0 ** -53, 1.0, 1.5, -2.0 ** -50, -1e-3,
            on_grid, np.nextafter(on_grid, 0.0), np.nextafter(on_grid, 1.0),
            np.cumsum(table.probs)[0]]


_RANGES = [  # (start, length, seed)
    (0, 0, 5), (17, 1, 5), (3 * _SPAN - 17, 2 * _SPAN + 101, 5),
    (2 ** 40 + 3, _SPAN - 1, 5), (5, _SPAN, 5),
    # a tail block of one trial; the top seed, where adding the counter
    # offset wraps 2**64; and a range that ends at the config's ceiling of
    # trials x settings, 2**61
    (7, 3 * rng._BLOCK + 1, 5), (7, 3 * rng._BLOCK + 1, 2 ** 64 - 3),
    (3 * _SPAN - 17, 2 * _SPAN + 101, 2 ** 64 - 3),
    (2 ** 61 - 2 * rng._BLOCK - 2, 2 * rng._BLOCK + 1, 5),
    (2 ** 61 - 2 * rng._BLOCK - 2, 2 * rng._BLOCK + 1, 2 ** 64 - 3)]


@pytest.mark.parametrize("p", _click_probabilities())
@pytest.mark.parametrize(
    "start, length, seed", _RANGES,
    ids=[f"{a}-{n}" + ("" if seed == 5 else f"-seed{seed}") for a, n, seed in _RANGES])
def test_clicked_integer_threshold_matches_float_compare(p, start, length, seed):
    trials, u = rng.clicked(p, seed, start, start + length)
    want_trials, want_u = _float_clicks(p, seed, start, start + length)
    assert trials.dtype == np.uint64
    assert np.array_equal(trials, want_trials)
    assert np.array_equal(u, want_u)


def test_clicked_threshold_meets_a_variate():
    # the on-grid case above really reaches u == p; there the hash shares
    # its top bits with the threshold, so the exact compare decides
    idx = np.arange(_ON_GRID - 40, _ON_GRID + _SPAN, dtype=np.uint64)
    u = rng.uniforms(5, idx, 0)
    p = u[40]
    # u == p clicks; one ulp above it does not
    assert _ON_GRID in rng.clicked(p, 5, idx[0], idx[-1] + 1)[0]
    above = rng.clicked(np.nextafter(p, 1.0), 5, idx[0], idx[-1] + 1)[0]
    assert _ON_GRID not in above
