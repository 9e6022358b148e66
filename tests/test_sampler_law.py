"""Law tests: what the samplers draw, against the laws they claim to draw.

Byte digests catch any change to a sampler but cannot tell a correct change
from a wrong one. These checks compare draws at fixed seeds and sizes with
their distributions:

- ``rng.bernoulli_clicks``: click counts against Binomial(n, q), the gaps
  between clicks against Geometric(q), and its output against a reference
  built in one step from every counter of the range;
- thermometry: each colour's clicks against Binomial(pulses per colour, q),
  and the two colours independent of each other;
- ``protocol.sample_trials``: the 16 click-pattern counts of ``tabulate``
  against N * probs, W/R coincidences at trial offsets 1..10 against the
  product of their singles, and click times uniform in their windows.

Each statistical check fails at a false-alarm rate of ALPHA, the two-sided
tail beyond 5 sigma of a normal variable.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from phononherald import analysis, config, gaussian, protocol, rng
from phononherald.detection import silent_subsets

ALPHA = 2.0 * stats.norm.sf(5.0)  # 5.7e-7 per check


def chi2_pvalue(observed, expected, constrained=True):
    """Pearson chi-square p-value. Cells expecting fewer than 5 counts are
    pooled into one, or into the largest cell while the pool itself expects
    fewer than 5. ``constrained``: the counts sum to the expected total, which
    costs one degree of freedom."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    small = expected < 5.0
    obs, exp = list(observed[~small]), list(expected[~small])
    if small.any():
        pool_obs, pool_exp = observed[small].sum(), expected[small].sum()
        if pool_exp >= 5.0:
            obs.append(pool_obs)
            exp.append(pool_exp)
        else:
            big = int(np.argmax(exp))
            obs[big] += pool_obs
            exp[big] += pool_exp
    obs, exp = np.array(obs), np.array(exp)
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    return stats.chi2.sf(statistic, len(obs) - constrained)


def binomial_pvalue(counts, n, q):
    """Chi-square p-value of many Binomial(n, q) counts against its pmf."""
    k = np.arange(n + 1)
    return chi2_pvalue(np.bincount(counts, minlength=n + 1),
                       len(counts) * stats.binom.pmf(k, n, q))


def z_score(total, trials, q):
    """Standard score of a Binomial(trials, q) total."""
    return (total - trials * q) / math.sqrt(trials * q * (1.0 - q))


# --- the geometric-gap primitive -------------------------------------------

def reference_clicks(q, seed, start, stop):
    """The clicks of [start, stop), computed from all of its counters at once:
    gap k is 1 + floor(ln(1 - u_k) / ln(1 - q)), u_k of trial start + k."""
    n = stop - start
    u = rng.uniforms(seed, np.arange(start, stop, dtype=np.uint64), 0)
    with np.errstate(over="ignore"):  # a subnormal q: an infinite gap
        skips = np.floor(np.log1p(-u) / math.log1p(-q))
    gaps = np.minimum(skips, n).astype(np.int64) + 1
    offsets = np.cumsum(gaps) - 1  # at most n gaps of at most n + 1 trials
    return offsets[offsets < n].astype(np.uint64) + np.uint64(start)


@pytest.mark.parametrize("n, q, seeds", [(10, 0.3, 10_000), (25, 0.04, 6_000)])
def test_short_range_counts_match_binomial_pmf(n, q, seeds):
    # one short range per seed, each at its own start: the pmf shows a
    # wrong first or last trial, which a long range would average away
    clicks = [rng.bernoulli_clicks(q, s, 977 * s, 977 * s + n) - np.uint64(977 * s)
              for s in range(seeds)]
    counts = [c.size for c in clicks]
    assert binomial_pvalue(counts, n, q) > ALPHA
    assert abs(z_score(sum(counts), n * seeds, q)) < 5.0
    # each trial of the range clicks with probability q, the first and the
    # last too: n independent Binomial(seeds, q) totals
    offsets = np.concatenate(clicks)
    assert offsets.size == 0 or offsets.max() < n
    scores = [z_score(total, seeds, q) for total in np.bincount(offsets, minlength=n)]
    assert stats.chi2.sf(sum(z * z for z in scores), n) > ALPHA


@pytest.mark.parametrize("q", [1.007e-3, 0.3])
def test_long_range_count_matches_binomial(q):
    start, n = 2 ** 40 + 3, 20_000_000
    clicks = rng.bernoulli_clicks(q, 10, start, start + n)
    assert clicks.dtype == np.uint64
    assert clicks.size == 0 or (clicks[0] >= start and clicks[-1] < start + n)
    assert np.all(np.diff(clicks) > 0)
    assert abs(z_score(clicks.size, n, q)) < 5.0


def test_gaps_between_clicks_are_geometric():
    q, start, n = 0.2, 5, 100_000
    clicks = rng.bernoulli_clicks(q, 3, start, start + n)
    gaps = np.diff(clicks.astype(np.int64), prepend=start - 1)
    top = 60  # gaps of 60 or more trials, P = 0.8**59 = 2e-6, in one cell
    observed = np.bincount(np.minimum(gaps, top), minlength=top + 1)[1:]
    k = np.arange(1, top)
    expected = gaps.size * np.append(q * (1.0 - q) ** (k - 1), (1.0 - q) ** (top - 1))
    assert chi2_pvalue(observed, expected) > ALPHA


_REFERENCE_CASES = [  # (q, seed, start, n)
    (0.3, 1, 0, 10), (0.3, 2 ** 64 - 3, 17, 1000), (1.007e-3, 10, 2 ** 40, 300_000),
    (0.9, 4, 5, 5000), (1e-6, 5, 0, 2_000_000), (0.5, 6, 2 ** 61 - 999, 999),
    (0.02, 7, 123, 1), (0.999, 8, 9, 77)]


@pytest.mark.parametrize("batch", [None, 3], ids=["batch-default", "batch-3"])
@pytest.mark.parametrize("q, seed, start, n", _REFERENCE_CASES)
def test_matches_reference_from_all_counters(monkeypatch, batch, q, seed, start, n):
    # the batches a range is drawn in, default or three gaps, change nothing
    if batch is not None:
        monkeypatch.setattr(rng, "_GAP_BATCH", batch)
    got = rng.bernoulli_clicks(q, seed, start, start + n)
    assert got.dtype == np.uint64
    assert np.array_equal(got, reference_clicks(q, seed, start, start + n))


@pytest.mark.parametrize("q", [0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53, 1.0])
def test_edge_probabilities_warn_nothing(q):
    start, n = 2 ** 61 - 100_000, 100_000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rng.bernoulli_clicks(q, 11, start, start + n)
    if q == 0.0:
        assert got.size == 0
    elif q == 1.0:
        assert np.array_equal(got, np.arange(start, start + n, dtype=np.uint64))
    else:
        assert np.array_equal(got, reference_clicks(q, 11, start, start + n))
    assert got.dtype == np.uint64


def test_empty_range():
    for q in (0.0, 0.5, 1.0):
        assert rng.bernoulli_clicks(q, 1, 10, 10).size == 0
        assert rng.bernoulli_clicks(q, 1, 10, 3).size == 0


# --- thermometry -------------------------------------------------------------

def _click_probabilities(cfg):
    """q per colour, blue then red: 1 - P(no write-window click), the
    background-silent factor times 1 / (1 + eta * n_bar)."""
    eta, log_b = silent_subsets(cfg, cfg.chain.window_write_ns)
    n_bar = cfg.protocol.p_pair * (1.0 + cfg.heating.n_base)
    return [1.0 - float(np.exp(log_b[3] + gaussian.log_no_click(n, 0.0, 0.0, eta[3], 0.0)))
            for n in (n_bar, cfg.protocol.p_pair * cfg.heating.n_base)]


def test_thermometry_clicks_per_colour_are_binomial(monkeypatch):
    # a hot mode makes the colours' q alike (0.0645, 0.0633), so colours that
    # shared their uniforms would give nearly equal counts; chunks of 5
    # pulses make any trial lost at a chunk's edge show
    monkeypatch.setattr(protocol, "SAMPLE_CHUNK", 5)
    cfg = config.default_config()
    cfg = cfg.replace(heating=dataclasses.replace(cfg.heating, n_base=50.0),
                      protocol=dataclasses.replace(cfg.protocol, p_pair=0.05))
    per_color, seeds = 40, 600
    counts = np.array([(r.clicks_blue, r.clicks_red) for r in (
        protocol.simulate_thermometry(cfg.replace(seed=s), 2 * per_color)
        for s in range(seeds))])
    for colour, q in zip(counts.T, _click_probabilities(cfg)):
        assert binomial_pvalue(colour, per_color, q) > ALPHA
        assert abs(z_score(colour.sum(), per_color * seeds, q)) < 5.0
    # independent colours: Fisher's z of the correlation is N(0, 1/(S - 3))
    r = np.corrcoef(counts.T)[0, 1]
    assert abs(math.atanh(r)) * math.sqrt(seeds - 3) < 5.0


def test_thermometry_default_config_counts_are_binomial():
    cfg = config.default_config()
    pulses, seeds = 2_000_000, 10
    results = [protocol.simulate_thermometry(cfg.replace(seed=s), pulses)
               for s in range(seeds)]
    per_color = pulses // 2
    for clicks, q in zip(([r.clicks_blue for r in results],
                          [r.clicks_red for r in results]), _click_probabilities(cfg)):
        assert abs(z_score(sum(clicks), per_color * seeds, q)) < 5.0
        # each seed's count: sum of squared scores is chi-square(seeds)
        dispersion = sum(z_score(c, per_color, q) ** 2 for c in clicks)
        assert ALPHA < stats.chi2.sf(dispersion, seeds) < 1.0 - ALPHA


# --- the trial sampler ---------------------------------------------------------

@pytest.fixture(scope="module")
def bright_run():
    # pairs and read-out ~10x the default's, so 2e6 trials give ~28k clicks
    cfg = config.default_config()
    cfg = cfg.replace(protocol=dataclasses.replace(
        cfg.protocol, p_pair=0.3, eps_read=0.5, trials=2_000_000))
    table = protocol.build_outcome_table(cfg, 100.0)
    stream = protocol.sample_trials(cfg, [table])
    return cfg, table, stream, analysis.tabulate(stream, cfg)[100.0]


@pytest.mark.parametrize("bright", [False, True], ids=["default", "bright"])
def test_pattern_counts_match_table(bright_run, bright):
    if bright:
        _, table, _, trial_table = bright_run
    else:
        cfg = config.default_config()
        cfg = cfg.replace(protocol=dataclasses.replace(cfg.protocol, trials=10_000_000))
        table = protocol.build_outcome_table(cfg, 100.0)
        trial_table = analysis.tabulate(protocol.sample_trials(cfg, [table]), cfg)[100.0]
    observed = trial_table.pattern_counts()
    assert observed.sum() == trial_table.trials
    assert chi2_pvalue(observed, trial_table.trials * table.probs) > ALPHA


def test_write_read_pairs_across_trials_are_independent(bright_run):
    # a W click at trial n and an R click at n + d, d = 1..10, each with
    # P(W) P(R): correlated trials or gaps would show here
    _, table, _, trial_table = bright_run
    p_w, p_r = (float(table.probs[protocol.MASKS[k]].sum()) for k in ("W", "R"))
    offsets = np.arange(1, 11)
    cross = analysis.solve(analysis.g2_cross_estimate(
        trial_table.pattern_counts(), trial_table.trials,
        trial_table.cross_coincidences(10).tolist()))["delta_n"]
    observed = [cross[d].counts["N_coinc"] for d in offsets.tolist()]
    expected = (trial_table.trials - offsets) * p_w * p_r
    assert chi2_pvalue(observed, expected, constrained=False) > ALPHA


@pytest.mark.parametrize("label", [0, 1], ids=["write", "read"])
def test_click_times_uniform_in_their_window(bright_run, label):
    cfg, table, stream, _ = bright_run
    starts, lengths = protocol.window_geometry(cfg, table.delta_t_ns)
    rec = stream.records[stream.records["pulse_label"] == label]
    offset = rec["time_ps"] - starts[label]  # wraps past every length if early
    assert rec.size > 1000 and np.all(offset < lengths[label])
    # whole picoseconds, each cell's midpoint against the continuous uniform:
    # the cells are 1/lengths wide, far below the test's resolution
    mid = (offset.astype(float) + 0.5) / float(lengths[label])
    assert stats.kstest(mid, "uniform").pvalue > ALPHA


def test_click_times_of_one_trial_are_independent(bright_run):
    # a trial's clicks take their times from distinct draws: the difference
    # of two of them, as fractions of their windows, is uniform mod 1
    cfg, table, stream, _ = bright_run
    starts, lengths = protocol.window_geometry(cfg, table.delta_t_ns)
    rec = stream.records
    label = rec["pulse_label"]
    frac = ((rec["time_ps"] - starts[label]).astype(float) + 0.5) / lengths[label]
    second = np.flatnonzero(np.diff(rec["trial_index"]) == 0) + 1
    assert second.size > 200
    assert stats.kstest((frac[second] - frac[second - 1]) % 1.0, "uniform").pvalue > ALPHA
