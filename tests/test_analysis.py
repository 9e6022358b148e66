"""Statistics: likelihood intervals, tabulation, correlation estimators,
the classical bound, thermometry and fits. The Beta intervals are checked
against exact binomial sums, and the profile likelihoods of the bound and
of n_th against scipy's bounded Brent search and brentq."""

import contextlib
import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.special import expit, xlog1py, xlogy
from scipy.stats import beta, norm

from phononherald import analysis as A
from phononherald import protocol, tags
from phononherald.config import ConfigError


def exact_beta_cdf(n: int, t: int, x: float) -> Decimal:
    """CDF of Beta(n+1, t-n+1) at x to 60 digits: the probability that
    Binomial(t+1, x) is at least n+1, summed over the shorter tail."""
    if x <= 0:
        return Decimal(0)
    if x >= 1:
        return Decimal(1)
    with localcontext() as ctx:
        ctx.prec = 60
        m, xd = t + 1, Decimal(x)
        # P(Bin(m, u) <= k): the first k+1 terms of the binomial sum
        u, k = (xd, n) if n <= t - n else (1 - xd, t - n)
        term = (1 - u) ** m
        total = term
        for j in range(k):
            term = term * (m - j) / (j + 1) * u / (1 - u)
            total += term
        return +(1 - total if n <= t - n else total)


class TestBinomialCI:
    def test_zero_events_closed_form(self):
        for t in (10, 100, 5000):
            p_ml, s_minus, s_plus = A.binomial_ci(0, t)
            assert p_ml == 0.0
            assert s_minus == 0.0
            # upper edge where the integrated likelihood leaves 16% above:
            # (1-p)^(T+1) = 0.16
            assert s_plus == pytest.approx(1.0 - 0.16 ** (1.0 / (t + 1)), abs=1e-9)

    def test_all_events_mirror(self):
        p_ml, s_minus, s_plus = A.binomial_ci(30, 30)
        assert p_ml == 1.0 and s_plus == 0.0
        q_ml, q_minus, q_plus = A.binomial_ci(0, 30)
        assert s_minus == pytest.approx(q_plus, abs=1e-12)

    def test_gaussian_limit(self):
        n, t = 400, 40_000
        p_ml, s_minus, s_plus = A.binomial_ci(n, t)
        sigma = np.sqrt(n * (1 - n / t)) / t
        z = norm.ppf(1.0 - A.TAIL_MASS)
        assert 0.5 * (s_minus + s_plus) == pytest.approx(z * sigma, rel=0.02)

    def test_invalid_inputs(self):
        with pytest.raises(A.EstimatorError):
            A.binomial_ci(1, 0)
        with pytest.raises(A.EstimatorError):
            A.binomial_ci(5, 4)

    def test_invalid_array_input_names_the_first_bad_element(self):
        trials = np.full(1000, 4)
        trials[[7, 9]] = 0
        with pytest.raises(A.EstimatorError) as info:
            A.binomial_ci(np.zeros(1000, dtype=int), trials)
        assert str(info.value) == "need at least one trial, got 0 (element 7)"
        events = np.arange(1000) % 5
        with pytest.raises(A.EstimatorError) as info:
            A.binomial_ci(events, np.full(1000, 3))
        assert str(info.value) == "events 4 outside [0, 3] (element 4)"
        with pytest.raises(A.EstimatorError, match=r"^events -1 outside \[0, 3\]$"):
            A.binomial_ci(-1, 3)

    def test_edges_are_beta_quantiles(self):
        # the interval edges are the 16%/84% quantiles of Beta(N+1, T-N+1),
        # clamped at p_ml; where min(N, T-N) is small the Beta CDF is a
        # finite binomial sum, so the true quantile is bracketed exactly.
        # Each pair is solved alone and all of them in one array call
        rel = 1e-12
        pairs = [(n, t) for t in (1, 2, 30, 5000, 10**6, 10**8)
                 for n in sorted({n for n in (0, 1, 2, t // 3, t - 1, t) if n <= t})]
        together = zip(*A.binomial_ci(*np.array(pairs).T))
        for (n, t), joint in zip(pairs, together):
            for p_ml, s_minus, s_plus in (A.binomial_ci(n, t), joint):
                lo, hi = p_ml - s_minus, p_ml + s_plus
                if min(n, t - n) > 2000:
                    dist = beta(n + 1, t - n + 1)
                    assert lo == pytest.approx(min(dist.ppf(A.TAIL_MASS), p_ml),
                                               rel=rel, abs=0), (n, t)
                    assert hi == pytest.approx(max(dist.ppf(1.0 - A.TAIL_MASS), p_ml),
                                               rel=rel, abs=0), (n, t)
                    continue
                tail, head = Decimal(A.TAIL_MASS), Decimal(1.0 - A.TAIL_MASS)
                if s_minus == 0:  # the 16% quantile is at or above p_ml
                    assert exact_beta_cdf(n, t, p_ml * (1 - rel)) <= tail, (n, t)
                else:
                    assert (exact_beta_cdf(n, t, lo * (1 - rel)) <= tail
                            <= exact_beta_cdf(n, t, lo * (1 + rel))), (n, t)
                if s_plus == 0:  # the 84% quantile is at or below p_ml
                    assert exact_beta_cdf(n, t, p_ml * (1 + rel)) >= head, (n, t)
                else:
                    assert (exact_beta_cdf(n, t, hi * (1 - rel)) <= head
                            <= exact_beta_cdf(n, t, hi * (1 + rel))), (n, t)

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.integers(1, 10**9).flatmap(lambda t: st.tuples(
        st.one_of(st.just(0), st.just(t), st.integers(0, min(t, 3)),
                  st.integers(max(t - 3, 0), t), st.integers(0, t)), st.just(t))),
        min_size=1, max_size=30))
    def test_array_call_is_each_element_alone(self, pairs):
        # mixed sizes, N = 0 and N = T (one quantile in closed form, a = 1),
        # N > T - N (solved as the mirrored Beta): elements converge after
        # different numbers of Newton steps and continued-fraction terms, and
        # leaving the active set must not change any other element's bits
        together = np.array(A.binomial_ci(*np.array(pairs).T)).T
        alone = np.array([A.binomial_ci(n, t) for n, t in pairs])
        assert together.tobytes() == alone.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(1, 2000), frac=st.floats(0.0, 1.0))
    def test_interval_inside_unit_range(self, t, frac):
        n = int(round(frac * t))
        p_ml, s_minus, s_plus = A.binomial_ci(n, t)
        assert 0.0 <= p_ml - s_minus <= p_ml + s_plus <= 1.0


def make_table(w1, w2, r1, r2, delta_t=100.0):
    flags = np.array([w1, w2, r1, r2], dtype=bool)
    patterns = protocol.SLOT_BITS @ flags
    clicked = np.flatnonzero(patterns)
    return A.TrialTable(delta_t, len(w1), clicked, patterns[clicked])


def cross_estimate(table, delta_n_max=0):
    """The solved ``g2_cross_estimate`` of a table's count row and lag sweep."""
    return A.solve(A.g2_cross_estimate(table.pattern_counts(), table.trials,
                                       table.cross_coincidences(delta_n_max).tolist()))


def counters(table):
    """A table's trials and each ``MASKS`` event's count, from its count row."""
    row = table.pattern_counts()
    return {"T": table.trials, **{f"N_{name}": int(row[mask].sum())
                                  for name, mask in protocol.MASKS.items()}}


def with_trials(config, trials):
    return config.replace(protocol=dataclasses.replace(config.protocol, trials=trials))


class TestTabulate:
    def stream_for(self, config, entries, trials):
        recs = tags.make_records(
            np.array([e[0] for e in entries], dtype=np.uint64),
            np.array([e[1] for e in entries], dtype=np.uint8),
            np.array([e[2] for e in entries], dtype=np.uint8),
            np.array([e[3] for e in entries], dtype=np.uint64))
        return tags.TagStream(config.config_hash(), trials, recs)

    def test_window_assignment(self, default_config):
        cfg = with_trials(default_config, 10)
        rs = int(protocol.window_geometry(cfg, 100.0)[0, 1])
        entries = [
            (0, 0, tags.WRITE_PULSE, 100),
            (0, 1, tags.READ_PULSE, rs + 500),
            (3, 1, tags.WRITE_PULSE, 39_999),
            (4, 0, tags.READ_PULSE, rs + 54_999),
        ]
        table = A.tabulate(self.stream_for(cfg, entries, 10), cfg)[100.0]
        c = counters(table)
        assert (c["N_W1"], c["N_W2"], c["N_R1"], c["N_R2"]) == (1, 1, 1, 1)
        assert c["N_WR"] == 1  # trial 0 has both a write and a read click

    def test_read_window_trim_drops_late_clicks(self, default_config):
        cfg = with_trials(default_config, 10)
        rs = int(protocol.window_geometry(cfg, 100.0)[0, 1])
        entries = [(0, 0, tags.READ_PULSE, rs + 10_000),
                   (1, 0, tags.READ_PULSE, rs + 45_000)]
        stream = self.stream_for(cfg, entries, 10)
        full = A.tabulate(stream, cfg)[100.0]
        trimmed = A.tabulate(stream, cfg, read_window_ns=30.0)[100.0]
        assert counters(full)["N_R1"] == 2
        assert counters(trimmed)["N_R1"] == 1

    def test_out_of_window_record_rejected(self, default_config):
        cfg = with_trials(default_config, 10)
        entries = [(0, 0, tags.WRITE_PULSE, 41_000)]  # past the 40 ns window
        with pytest.raises(tags.TagFormatError, match="outside its labelled"):
            A.tabulate(self.stream_for(cfg, entries, 10), cfg)

    @pytest.mark.parametrize("k, label, delay", [
        (4, tags.READ_PULSE, 100.0),   # 1000 ns setting, inside 100 ns's read window
        (5, tags.WRITE_PULSE, None),   # last setting, past the 40 ns write window
    ], ids=["read-1000ns-at-100ns-window", "write-last-setting"])
    def test_out_of_window_record_rejected_in_any_setting(self, default_config, k,
                                                          label, delay):
        delays = (100.0, 200.0, 400.0, 700.0, 1000.0, 1500.0)
        cfg = default_config.replace(protocol=dataclasses.replace(
            default_config.protocol, trials=10, delta_t_list_ns=delays))
        time_ps = 41_000 if delay is None else int(
            protocol.window_geometry(cfg, delay)[0, 1]) + 10_000
        trial = 10 * k + 3
        # the setting's first trial has a valid click in each window
        good = [(10 * k, 0, tags.WRITE_PULSE, 100),
                (10 * k, 1, tags.READ_PULSE,
                 int(protocol.window_geometry(cfg, delays[k])[0, 1]) + 100)]
        stream = self.stream_for(cfg, good + [(trial, 0, label, time_ps)], 60)
        with pytest.raises(tags.TagFormatError,
                           match=rf"outside its labelled pulse window \(trial {trial}\)"):
            A.tabulate(stream, cfg)
        ok = counters(A.tabulate(self.stream_for(cfg, good, 60), cfg)[delays[k]])
        assert (ok["N_W1"], ok["N_R2"], ok["N_WR"]) == (1, 1, 1)

    def test_trial_count_mismatch_rejected(self, default_config):
        stream = self.stream_for(default_config, [], 10)
        with pytest.raises(tags.TagFormatError, match="implies"):
            A.tabulate(stream, with_trials(default_config, 99))

    def test_read_and_tabulate_hold_less_than_the_records(self, fast_config, tmp_path):
        # blocks of records fill one key array, grouped in place: no array
        # the size of the stream
        cfg = with_trials(fast_config, 700_000)
        stream = protocol.sample_trials(cfg, [protocol.build_outcome_table(cfg, 100.0)])
        path = tmp_path / "run.tags"
        tags.write_tagstream(stream, path)
        del stream
        tracemalloc.start()
        try:
            tables = A.tabulate(tags.read_tagstream(path), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        records = path.stat().st_size // tags.RECORD_SIZE
        assert records >= 100_000 and counters(tables[100.0])["N_W"] > 0
        assert peak <= 1.75 * records * tags.RECORD_SIZE

    def test_blocks_of_any_size_give_the_same_tables(self, fast_config, monkeypatch):
        # record blocks, and the grouping's cuts, fall anywhere in a trial's
        # records, also inside a run of one repeated record longer than a block
        cfg = fast_config.replace(protocol=dataclasses.replace(
            fast_config.protocol, delta_t_list_ns=(100.0, 400.0), trials=3_000))
        stream = protocol.sample_trials(
            cfg, [protocol.build_outcome_table(cfg, dt) for dt in (100.0, 400.0)])
        recs = stream.records
        messy = tags.TagStream(stream.config_hash, stream.trial_count,
                               [recs[::-1], np.repeat(recs[7:8], 50), recs[:100]])
        want = A.tabulate(stream, cfg)
        for size in (1, 3, 16, 4096):
            monkeypatch.setattr(tags, "BLOCK_RECORDS", size)
            for got in (A.tabulate(stream, cfg), A.tabulate(messy, cfg)):
                for dt in want:
                    assert np.array_equal(got[dt].clicked, want[dt].clicked)
                    assert np.array_equal(got[dt].patterns, want[dt].patterns)

    def test_invalid_trim_rejected(self, default_config):
        stream = self.stream_for(default_config, [], 10)
        with pytest.raises(ConfigError, match="read-window-ns"):
            A.tabulate(stream, with_trials(default_config, 10), read_window_ns=80.0)


class TestCorrelationEstimators:
    def test_cross_estimate_exact_counts(self):
        # 2 coincidences, 4 writes, 3 reads in 10 trials:
        # g = (2/10) / ((4/10)(3/10)) = 5/3
        table = make_table(
            w1=[1, 1, 0, 0, 1, 0, 0, 1, 0, 0],
            w2=[0] * 10,
            r1=[1, 0, 1, 0, 0, 0, 0, 1, 0, 0],
            r2=[0] * 10)
        est = cross_estimate(table)["g2_om"]
        assert est.value == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert est.counts["N_coinc"] == 2
        assert est.sigma_plus > est.sigma_minus > 0

    def test_cross_offset_uses_shifted_pairs(self):
        table = make_table(w1=[1, 0, 0, 0], w2=[0] * 4,
                           r1=[0, 1, 0, 0], r2=[0] * 4)
        cross = cross_estimate(table, 1)
        assert cross["g2_om"].counts["N_coinc"] == 0
        shifted = cross["delta_n"][1]
        assert shifted.counts["N_coinc"] == 1
        assert shifted.counts["pairs"] == 3

    def test_pooled_offsets_accumulate(self):
        rng = np.random.default_rng(5)
        w = rng.random(500) < 0.2
        r = rng.random(500) < 0.2
        table = make_table(w, np.zeros(500), r, np.zeros(500))
        cross = cross_estimate(table, 3)
        pooled = cross["delta_n_pooled"]
        total = sum(cross["delta_n"][d].counts["N_coinc"] for d in (1, 2, 3))
        assert pooled.counts["N_coinc"] == total
        assert pooled.value == pytest.approx(1.0, abs=0.35)

    def test_auto_write_pools_settings(self):
        t1 = make_table([1, 0, 1, 0], [1, 0, 0, 0], [0] * 4, [0] * 4, 100.0)
        t2 = make_table([0, 1, 0, 0], [0, 1, 0, 0], [0] * 4, [0] * 4, 200.0)
        est = A.g2_auto_estimate(t1.pattern_counts() + t2.pattern_counts(),
                                 t1.trials + t2.trials, "WRITE")
        assert est.counts["T"] == 8
        assert est.counts["N_coinc"] == 2

    def test_auto_read_uses_single_setting(self):
        t1 = make_table([0] * 4, [0] * 4, [1, 1, 0, 0], [1, 0, 0, 0], 100.0)
        t2 = make_table([0] * 4, [0] * 4, [1, 1, 1, 1], [1, 1, 1, 1], 200.0)
        est = A.g2_auto_estimate(t1.pattern_counts(), t1.trials, "READ")
        assert est.counts["T"] == 4
        assert est.counts["N_coinc"] == 1

    def test_zero_singles_undefined(self):
        table = make_table([0, 0], [0, 0], [1, 0], [0, 0])
        with pytest.raises(A.EstimatorError, match="zero single"):
            cross_estimate(table)

    def test_count_rows_together_are_each_row_alone(self, default_config):
        # multinomial draws of the 100 ns table's 16 pattern counts at 1e8
        # trials: one solve of the Terms of all of them gives each draw's
        # g2_om, g2_WW and g2_RR with the bits that it gives alone
        trials = 10**8
        probs = protocol.build_outcome_table(default_config, 100.0).probs
        rows = np.random.default_rng(4).multinomial(trials, probs, size=50)

        def terms(counts):
            return {"g2_om": A.g2_cross_estimate(counts, trials)["g2_om"],
                    "g2_WW": A.g2_auto_estimate(counts, trials, "WRITE"),
                    "g2_RR": A.g2_auto_estimate(counts, trials, "READ")}
        together = A.solve(terms(rows))
        for i, row in enumerate(rows):
            for name, alone in A.solve(terms(row)).items():
                est = together[name]
                assert (est.value[i], est.sigma_minus[i], est.sigma_plus[i]) == (
                    alone.value, alone.sigma_minus, alone.sigma_plus), (i, name)


def dense_flags(stream, config, k, read_window_ns=None):
    """Per-trial click booleans (w1, w2, r1, r2) of setting ``k``, leaving out
    read records at or past ``read_window_ns`` into the read window."""
    n = config.protocol.trials
    rec = stream.records[stream.records["trial_index"] // n == k]
    if read_window_ns is not None:
        delta_t = config.protocol.delta_t_list_ns[k]
        end = (int(protocol.window_geometry(config, delta_t)[0, 1])
               + round(read_window_ns * 1000))
        rec = rec[(rec["pulse_label"] == tags.WRITE_PULSE) | (rec["time_ps"] < end)]
    local = (rec["trial_index"] % n).astype(np.int64)
    flags = []
    for label in (tags.WRITE_PULSE, tags.READ_PULSE):
        for det in (0, 1):
            x = np.zeros(n, dtype=bool)
            x[local[(rec["pulse_label"] == label) & (rec["detector"] == det)]] = True
            flags.append(x)
    return flags


def dense_offset_coincidences(w, r, dn):
    """Trials n with a write click at n and a read click at n + dn, dn >= 0."""
    return int((w[: len(w) - dn] & r[dn:]).sum())


def cross_counts(table, delta_n_max):
    """N_coinc of each offset 0..delta_n_max, from g2_cross_estimate."""
    cross = cross_estimate(table, delta_n_max)
    return [e.counts["N_coinc"] for e in (cross["g2_om"], *cross.get("delta_n", {}).values())]


def test_record_level_counts_match_dense_oracle(fast_config):
    settings = (100.0, 400.0, 1000.0)
    cfg = fast_config.replace(protocol=dataclasses.replace(
        fast_config.protocol, delta_t_list_ns=settings, trials=20_000))
    outcome = [protocol.build_outcome_table(cfg, dt) for dt in settings]
    stream = protocol.sample_trials(cfg, outcome)
    for read_window_ns in (None, 30.0):  # the configured 55 ns, and a trim
        tables = A.tabulate(stream, cfg, read_window_ns)
        auto_write = np.zeros(4, dtype=np.int64)
        for k, dt in enumerate(settings):
            table = tables[dt]
            w1, w2, r1, r2 = dense_flags(stream, cfg, k, read_window_ns)
            w, r = w1 | w2, r1 | r2
            assert counters(table) == {
                "T": cfg.protocol.trials,
                "N_W1": int(w1.sum()), "N_W2": int(w2.sum()),
                "N_R1": int(r1.sum()), "N_R2": int(r2.sum()),
                "N_W1W2": int((w1 & w2).sum()), "N_R1R2": int((r1 & r2).sum()),
                "N_W": int(w.sum()), "N_R": int(r.sum()), "N_WR": int((w & r).sum()),
            }
            n = cfg.protocol.trials
            singles = {"N_W": int(w.sum()), "N_R": int(r.sum())}
            cross = cross_estimate(table, 10)
            for dn, est in enumerate((cross["g2_om"], *cross["delta_n"].values())):
                assert est.counts == {
                    "N_coinc": dense_offset_coincidences(w, r, dn),
                    "pairs": n - dn, **singles, "T": n, "delta_n": dn}
            assert cross["delta_n_pooled"].counts == {
                "N_coinc": sum(dense_offset_coincidences(w, r, dn)
                               for dn in range(1, 11)),
                "pairs": sum(n - dn for dn in range(1, 11)), **singles, "T": n,
                "delta_n": list(range(1, 11))}
            read = A.g2_auto_estimate(table.pattern_counts(), table.trials, "READ").counts
            assert (read["N_coinc"], read["N_1"], read["N_2"], read["T"]) == (
                int((r1 & r2).sum()), int(r1.sum()), int(r2.sum()), len(r1))
            auto_write += [int((w1 & w2).sum()), int(w1.sum()), int(w2.sum()),
                           len(w1)]
        write = A.g2_auto_estimate(sum(t.pattern_counts() for t in tables.values()),
                                   sum(t.trials for t in tables.values()), "WRITE").counts
        assert ([write[key] for key in ("N_coinc", "N_1", "N_2", "T")]
                == auto_write.tolist())
        assert write["N_coinc"] > 0 and min(
            counters(t)["N_WR"] for t in tables.values()) > 0

        # record order and repeated records do not matter to the analysis
        rng = np.random.default_rng(3)
        recs = stream.records
        messy = np.concatenate([recs, recs[rng.choice(len(recs), len(recs) // 5)]])
        rng.shuffle(messy)
        again = A.tabulate(tags.TagStream(stream.config_hash, stream.trial_count, messy),
                           cfg, read_window_ns)
        for dt in settings:
            assert counters(again[dt]) == counters(tables[dt])
            for name in ("clicked", "patterns"):
                assert np.array_equal(getattr(again[dt], name), getattr(tables[dt], name))


def random_table(trials, p, seed):
    """A table whose four slots click at random with probability ``p`` each,
    with its dense W and R flags."""
    w1, w2, r1, r2 = np.random.default_rng(seed).random((4, trials)) < p
    return make_table(w1, w2, r1, r2), w1 | w2, r1 | r2


class TestLagSweep:
    """Each call counts the offsets 1..N in one lag sweep out to N, and keeps
    nothing; the dense per-trial flags are the oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_reach_matches_dense_oracle(self, seed):
        t = 240
        table, w, r = random_table(t, 0.08, seed)
        # a wide reach after narrow ones, narrow ones after it, then all of
        # them shuffled
        rest = np.random.default_rng(seed).permutation(t)
        for n in [1, 0, 5, 3, 40, 2, 150, 7, *rest.tolist()]:
            assert table.cross_coincidences(n).tolist() == [
                dense_offset_coincidences(w, r, dn) for dn in range(1, n + 1)], n

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           calls=st.lists(st.integers(0, 10**6), min_size=1, max_size=12))
    def test_any_call_sequence_matches_dense_oracle(self, t, seed, calls):
        table, w, r = random_table(t, 0.3, seed)
        # reaches in 0..(t - 1), drawn as integers of any size
        for n in (c % t for c in calls):
            try:
                counts = cross_counts(table, n)
            except A.EstimatorError:  # no W or no R click: g2 is undefined
                assert not (w.any() and r.any())
                continue
            assert counts == [dense_offset_coincidences(w, r, dn) for dn in range(n + 1)]

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.integers(0, 10**6), max_size=12))
    def test_offsets_asked_together_count_as_each_alone(self, t, seed, picks):
        # each offset's count is the same at every reach that holds it
        table, w, r = random_table(t, 0.3, seed)
        widest = table.cross_coincidences(t - 1).tolist()
        assert widest == [dense_offset_coincidences(w, r, dn) for dn in range(1, t)]
        for n in (c % t for c in picks):
            assert table.cross_coincidences(n).tolist() == widest[:n]
            if w.any() and r.any():  # else g2 is undefined
                assert cross_counts(table, n) == [dense_offset_coincidences(w, r, 0),
                                                  *widest[:n]]

    def test_analyze_sweeps_each_table_once(self, fast_config, monkeypatch):
        from phononherald import cli
        delays, n = (100.0, 400.0), 25
        cfg = fast_config.replace(protocol=dataclasses.replace(
            fast_config.protocol, delta_t_list_ns=delays, trials=5_000))
        stream = protocol.sample_trials(
            cfg, [protocol.build_outcome_table(cfg, dt) for dt in delays])
        swept, count = [], A.TrialTable.cross_coincidences

        def counted(table, delta_n_max):
            swept.append(table.delta_t_ns)
            return count(table, delta_n_max)
        monkeypatch.setattr(A.TrialTable, "cross_coincidences", counted)
        entries = cli._analyze_stream(stream, cfg, None, delta_n_max=n)
        assert swept == list(delays)
        monkeypatch.undo()
        tables = A.tabulate(stream, cfg)
        for entry in entries:
            cross = cross_estimate(tables[entry["delta_t_ns"]], n)
            assert list(cross["delta_n"]) == list(range(1, n + 1))
            for key in ("g2_om", "delta_n", "delta_n_pooled"):
                assert entry[key] == cross[key]

    def test_reach_past_every_gap_and_to_the_last_trial(self):
        t = 1000
        w = np.zeros(t, dtype=bool)
        r = np.zeros(t, dtype=bool)
        w[[10, 15]] = r[[12, 15]] = True
        table = make_table(w, np.zeros(t), r, np.zeros(t))
        for n in (500, 2, 0, 999, 5, 1, 4):  # the W->R gaps are 0, 2 and 5
            assert table.cross_coincidences(n).tolist() == [
                dense_offset_coincidences(w, r, dn) for dn in range(1, n + 1)], n
        # a pair exactly T - 1 trials apart, either way round: only W first
        # is a W->R coincidence
        for first, last, found in (("w", "r", 1), ("r", "w", 0)):
            flags = {"w": np.zeros(t, dtype=bool), "r": np.zeros(t, dtype=bool)}
            flags[first][0] = flags[last][t - 1] = True
            edge = make_table(flags["w"], np.zeros(t), flags["r"], np.zeros(t))
            assert edge.cross_coincidences(t - 2).tolist() == [0] * (t - 2)
            cross = cross_estimate(edge, t - 1)
            assert cross["delta_n"][t - 1].counts["N_coinc"] == found
            assert cross["delta_n_pooled"].counts["N_coinc"] == found

    @pytest.mark.parametrize("size", [1, 5, 64])
    def test_blocks_of_any_size_match_dense_oracle(self, monkeypatch, size):
        # a sweep pairs each block of clicked trials with those lag places on
        monkeypatch.setattr(tags, "BLOCK_RECORDS", size)
        t = 300
        table, w, r = random_table(t, 0.1, 11)
        for n in (3, 0, 40, t - 1, 150, 1):
            assert table.cross_coincidences(n).tolist() == [
                dense_offset_coincidences(w, r, dn) for dn in range(1, n + 1)], n

    def test_count_holds_the_reach_and_the_clicks_not_the_trials(self):
        # three clicks of W1 and R1 in 1e12 trials, two of them 5,000 trials
        # apart: counting offsets 1..1e4 holds the 1e4 counts and a
        # block of clicks' temporaries, not anything of the 1e12 trials
        n = 10**4
        clicked = np.array([0, 5_000, 4 * 10**11])
        table = A.TrialTable(100.0, 10**12, clicked, np.full(3, 10, dtype=np.uint8))
        tracemalloc.start()
        try:
            counts = table.cross_coincidences(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * counts.nbytes
        assert counts.size == n and counts[5_000 - 1] == 1
        assert counts.sum() == 1

    def test_no_click_and_single_click_tables(self):
        t = 50
        empty = make_table(*np.zeros((4, t)))
        assert empty.cross_coincidences(t - 1).tolist() == [0] * (t - 1)
        for n in (0, 3, t - 1):
            with pytest.raises(A.EstimatorError, match="zero single"):
                cross_estimate(empty, n)
        single = np.zeros((4, t))
        single[[0, 2], 17] = 1  # W1 and R1 of trial 17
        table = make_table(*single)
        for n in (t - 1, 0, 1, 20):
            assert cross_counts(table, n) == [1] + [0] * n
        assert cross_estimate(table)["g2_om"].value == pytest.approx(t)

    def test_pooled_sums_the_offsets_one_to_n(self):
        t = 300
        table, w, r = random_table(t, 0.1, 7)
        for n in (5, 1, 12, t - 1):
            cross = cross_estimate(table, n)
            pooled = cross["delta_n_pooled"].counts
            assert pooled["N_coinc"] == sum(
                dense_offset_coincidences(w, r, dn) for dn in range(1, n + 1))
            assert pooled["N_coinc"] == sum(
                est.counts["N_coinc"] for est in cross["delta_n"].values())
            assert pooled["pairs"] == sum(t - dn for dn in range(1, n + 1))
            assert pooled["delta_n"] == list(range(1, n + 1))


def auto_estimate_from_counts(n_coinc, n1, n2, t, window="WRITE"):
    x1 = np.zeros(t, dtype=bool)
    x2 = np.zeros(t, dtype=bool)
    x1[:n1] = True
    x2[n1 - n_coinc: n1 - n_coinc + n2] = True
    table = make_table(x1, x2, x1, x2)
    return A.g2_auto_estimate(table.pattern_counts(), table.trials, window)


def binomial_loglik(n, t, p):
    return xlogy(n, p) + xlog1py(t - n, -p)


def log_binomial_loglik(n, t, a):
    """The binomial log-likelihood at p = exp(a), a <= 0, with ln(1 - p) as
    ln(-expm1(a)) where p nears 1 and as log1p(-exp(a)) where p nears 0: the
    log1mexp of Maechler (2012), exact at either end."""
    if n < t and a == 0.0:
        return -math.inf
    log_miss = math.log(-math.expm1(a)) if a > -math.log(2.0) else math.log1p(-math.exp(a))
    return (n * a if n else 0.0) + ((t - n) * log_miss if n < t else 0.0)


def bound_oracle(write, read):
    """The bound sqrt(g_W * g_R) of counts (N_coinc, N_1, N_2, T) by scipy:
    its value, its profile-likelihood edges, and the profile's deficit
    below its peak. A bound b fixes ln(p_W p_R) = ln k; the deficit is
    maximised over its split p_W = k^(1 - w), p_R = k^w by the bounded Brent
    search in v = logit(w), which resolves 1 - p of either side as it nears
    0, as ln p_W could not."""
    (n_w, n1w, n2w, t_w), (n_r, n1r, n2r, t_r) = write, read
    top = math.sqrt(t_w * t_w / (n1w * n2w) * t_r * t_r / (n1r * n2r))
    # at ln(n / t), as log1p(-(t - n) / t) where n / t nears 1
    peak = sum(log_binomial_loglik(n, t, math.log1p(-(t - n) / t) if 2 * n >= t
                                   else math.log(n / t) if n else -math.inf)
               for n, t in ((n_w, t_w), (n_r, t_r)))

    def deficit(b):
        log_k = 2.0 * math.log(b / top)

        def loglik(v):  # both sides' log-likelihood at w = expit(v)
            return (log_binomial_loglik(n_w, t_w, expit(-v) * log_k)
                    + log_binomial_loglik(n_r, t_r, expit(v) * log_k))
        inner = minimize_scalar(lambda v: -loglik(v), bounds=(-40.0, 40.0),
                                method="bounded", options={"xatol": 1e-12})
        # the search nears a maximum at an end (p_W or p_R = 1, where a side
        # has all coincidences) only to within xatol: the ends are exact
        return peak - max(-inner.fun, loglik(-math.inf), loglik(math.inf))

    def crossing(b):
        return 2.0 * deficit(b) - 1.0
    value = top * math.sqrt(n_w / t_w * n_r / t_r)
    # both edges to brentq's relative tolerance, 4 eps, at any size of b
    lower = brentq(crossing, top * 1e-12, value, xtol=1e-300) if value else 0.0
    upper = brentq(crossing, max(value, top * 1e-12), top * (1.0 - 1e-12), xtol=1e-300)
    return value, lower, upper, deficit


def with_counts(*sides):
    """The WRITE and READ autocorrelations of counts (N_coinc, N_1, N_2, T),
    each from the count row of its window: coincidences, each detector's
    other clicks and the silent trials."""
    terms = []
    for (c, n1, n2, t), (window, x1, x2) in zip(sides, (("WRITE", 8, 4), ("READ", 2, 1))):
        row = np.zeros(16, dtype=np.int64)  # x1 and x2: the window's pattern bits
        row[[x1 | x2, x1, x2, 0]] = c, n1 - c, n2 - c, t - n1 - n2 + c
        terms.append(A.g2_auto_estimate(row, t, window))
    return terms


@contextlib.contextmanager
def brackets_scaled(factor=1e3):
    """Every likelihood edge's bracket ``factor`` times farther from the peak
    and every inner root's bracket ``factor`` times wider, inside [0, 1]."""
    edge, least = A._likelihood_edge, A._convex_minimum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(A, "_likelihood_edge", lambda f, inside, outside: edge(
            f, inside, inside + factor * (outside - inside)))
        mp.setattr(A, "_convex_minimum", lambda f, slope, lo, hi: least(
            f, slope, lo / factor, min(hi * factor, 1.0)))
        yield


@pytest.mark.parametrize("slope, end", [(1.0, 0.3), (-1.0, 0.7)],
                         ids=["increasing", "decreasing"])
def test_golden_section_returns_a_minimum_on_an_end_exactly(slope, end):
    # not a point of the last bracket, within xatol of the end
    assert A._golden_section(lambda x: slope * x, 0.3, 0.7, 1e-4) == (slope * end, end)


@pytest.mark.parametrize("f, want", [
    (lambda x: math.cosh(x - 0.41), 0.41),
    (lambda x: 1.0, None),
    (lambda x: math.exp(x) - 0.5, 0.3),
    (lambda x: math.log(1.5 - x), 0.7),
], ids=["interior", "flat", "increasing", "decreasing"])
def test_golden_section_returns_its_minimums_value(f, want):
    # f at the point it picks, with the bits of a fresh call: callers read
    # the minimum from it instead of calling f there again
    fx, x = A._golden_section(f, 0.3, 0.7, 1e-6)
    assert np.float64(fx).tobytes() == np.float64(f(x)).tobytes()
    if want is None:  # a tie with both ends keeps the estimate
        assert 0.3 < x < 0.7
    elif 0.3 < want < 0.7:
        assert x == pytest.approx(want, abs=1e-5)
    else:
        assert x == want


BOUND_ROWS = {  # (N_coinc, N_1, N_2, T) of WRITE; of READ
    "criterion-4": ((1, 3565, 5107, 10**7), (0, 569, 850, 10**7)),
    "zero-side": ((2, 40, 50, 10_000), (0, 20, 30, 10_000)),
    "zero-side-1e8": ((180, 95_000, 97_000, 10**8), (0, 60_000, 61_000, 10**8)),
    "small": ((3, 40, 50, 10_000), (1, 20, 30, 10_000)),
    "headline-1e8": ((180, 95_000, 97_000, 10**8), (45, 60_000, 61_000, 10**8)),
    "large-counts": ((2500, 2_000_000, 2_100_000, 10**9),
                     (900, 1_000_000, 1_100_000, 10**9)),
}


class TestClassicalBound:
    @pytest.mark.parametrize("write, read, want", [
        (*BOUND_ROWS["criterion-4"], (0.0, 0.0, 2.6354)),
        (*BOUND_ROWS["zero-side"], (0.0, 0.0, 9.6474)),
        (*BOUND_ROWS["zero-side-1e8"], (0.0, 0.0, 0.16347)),
        (*BOUND_ROWS["small"], (15.811, 8.1687, 26.528)),
        (*BOUND_ROWS["headline-1e8"], (1.5497, 1.4235, 1.6818)),
        (*BOUND_ROWS["large-counts"], (0.69786, 0.68438, 0.71151)),
    ], ids=list(BOUND_ROWS))
    def test_matches_profile_oracle(self, write, read, want):
        got = A.classical_bound(*with_counts(write, read))
        value, lower, upper, _ = bound_oracle(write, read)
        assert got.value == pytest.approx(value, rel=1e-12, abs=0)
        assert got.lower == pytest.approx(lower, rel=1e-9, abs=0)
        assert got.upper == pytest.approx(upper, rel=1e-9, abs=0)
        # the table the method was sized on, to its printed digits
        assert [got.value, got.lower, got.upper] == pytest.approx(want, rel=5e-5)

    def test_ml_below_geometric_mean(self):
        aw = auto_estimate_from_counts(3, 40, 50, 10_000)
        ar = auto_estimate_from_counts(1, 20, 30, 10_000, "READ")
        bound = A.classical_bound(aw, ar)
        assert bound.value <= np.sqrt(A.solve(aw).value * A.solve(ar).value) + 1e-9
        assert bound.sigma_minus > 0 and bound.sigma_plus > 0

    def test_zero_coincidence_side_allowed(self):
        aw = auto_estimate_from_counts(2, 40, 50, 10_000)
        ar = auto_estimate_from_counts(0, 20, 30, 10_000, "READ")
        bound = A.classical_bound(aw, ar)
        assert bound.value >= 0.0
        assert bound.sigma_plus > bound.value  # one-sided information only

    def test_both_zero_degenerate(self):
        aw = auto_estimate_from_counts(0, 40, 50, 10_000)
        ar = auto_estimate_from_counts(0, 20, 30, 10_000, "READ")
        with pytest.raises(A.DegenerateCountsError):
            A.classical_bound(aw, ar)

    def test_far_above_any_range_matches_the_oracle(self):
        # g_ML = 1e7 on the WRITE side: no range limits the profile
        write, read = (100, 100, 100, 10**9), (3, 40, 50, 10_000)
        got = A.classical_bound(*with_counts(write, read))
        value, lower, upper, _ = bound_oracle(write, read)
        g_write, g_read = 100 * 10**9 / 100**2, 3 * 10_000 / (40 * 50)
        assert got.value == pytest.approx(math.sqrt(g_write * g_read), rel=1e-12)
        assert got.lower == pytest.approx(lower, rel=1e-9, abs=0)
        assert got.upper == pytest.approx(upper, rel=1e-9, abs=0)

    @settings(max_examples=40, deadline=None)
    @given(coinc=st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(any),
           singles=st.lists(st.integers(40, 5_000), min_size=4, max_size=4),
           log_t=st.tuples(st.integers(4, 9), st.integers(4, 9)))
    def test_edges_property(self, coinc, singles, log_t):
        sides = [(c, n1, n2, 10**e) for c, n1, n2, e in
                 zip(coinc, singles[::2], singles[1::2], log_t)]
        got = A.classical_bound(*with_counts(*sides))
        *_, deficit = bound_oracle(*sides)
        for edge in (got.lower, got.upper):
            if edge > 0:
                assert abs(2.0 * deficit(edge) - 1.0) < 1e-9
        assert (got.lower == 0.0) == (0 in coinc)
        with brackets_scaled():
            wide = A.classical_bound(*with_counts(*sides))
        assert [wide.value, wide.lower, wide.upper] == pytest.approx(
            [got.value, got.lower, got.upper], rel=1e-9, abs=0)

    @settings(max_examples=25, deadline=None)
    @given(c1=st.integers(1, 30), c2=st.integers(1, 30),
           n1=st.integers(40, 200), n2=st.integers(40, 200))
    def test_ml_inequality_property(self, c1, c2, n1, n2):
        t = 100_000
        aw = auto_estimate_from_counts(min(c1, n1), n1, n1 + 10, t)
        ar = auto_estimate_from_counts(min(c2, n2), n2, n2 + 10, t, "READ")
        bound = A.classical_bound(aw, ar)
        assert bound.value <= np.sqrt(A.solve(aw).value * A.solve(ar).value) * (1.0 + 1e-6)


class TestCauchySchwarz:
    def test_clear_violation(self):
        cross = A.CorrelationEstimate(8.0, 2.0, 2.5)
        bound = A.CorrelationEstimate(2.0, 0.5, 1.0)
        verdict = A.cauchy_schwarz_test(cross, bound)
        assert verdict.violated
        assert verdict.margin == pytest.approx((6.0 - 3.0) / 3.0)

    def test_overlap_is_not_violation(self):
        cross = A.CorrelationEstimate(3.0, 1.5, 1.5)
        bound = A.CorrelationEstimate(2.0, 0.5, 1.0)
        assert not A.cauchy_schwarz_test(cross, bound).violated


def occupancy_oracle(red, blue, pulses, background):
    """n_th and its profile-likelihood edges by scipy: the blue rate that
    maximises both colours' likelihood at each n by the bounded Brent
    search, the edges by brentq."""
    rate_red, rate_blue = red / pulses, blue / pulses
    value = max(rate_red - background, 0.0) / (rate_blue - rate_red)

    def loglik(n, b):
        return binomial_loglik(blue, pulses, b) + binomial_loglik(
            red, pulses, (background + n * b) / (1.0 + n))

    def profile(n):
        # searched in the blue rate's logit, to sqrt(eps) of it: in the rate
        # itself that would be ~1e-8, coarse next to a rate near 1
        inner = minimize_scalar(lambda v: -loglik(n, expit(v)), bounds=(-690.0, 36.0),
                                method="bounded", options={"xatol": 1e-12})
        # nor does it reach a maximum at b = 1, where every blue pulse clicks
        return max(-inner.fun, loglik(n, 1.0))

    peak = profile(value)

    def crossing(n):
        return 2.0 * (peak - profile(n)) - 1.0
    floor = 1e-12 * value  # without background, n = 0 is impossible
    # both edges to brentq's relative tolerance, 4 eps, at any size of n
    lower = brentq(crossing, floor, value, xtol=1e-300) if crossing(floor) > 0 else 0.0
    # the upper edge at any n: searched in x = n / (1 + n) < 1
    x_hi = brentq(lambda x: crossing(x / (1.0 - x)), value / (1.0 + value),
                  1.0 - 1e-12, xtol=1e-300)
    return value, lower, x_hi / (1.0 - x_hi)


OCCUPANCY_ROWS = {  # clicks red, clicks blue, pulses per colour, background
    "default-seed": (29, 409, 500_000, 3.4545e-5),  # [0.01729, 0.04681]
    "no-background": (50, 2_050, 100_000, 0.0),
    "red-near-background": (6, 300, 100_000, 5e-5),  # lower edge 0, value > 0
    "red-below-background": (3, 300, 100_000, 1e-4),  # value 0
}


class TestSidebandOccupancy:
    def test_exact_rates(self):
        # n = r_red / (r_blue - r_red) with negligible background
        est = A.sideband_occupancy(50, 2_050, 100_000)
        assert est.value == pytest.approx(0.025, abs=1e-10)
        assert est.sigma_plus > est.sigma_minus > 0

    def test_background_subtracted(self):
        bg = 2e-4
        est = A.sideband_occupancy(70, 2_070, 100_000, background=bg)
        expected = (70 / 100_000 - bg) / (2_000 / 100_000)
        assert est.value == pytest.approx(expected, abs=1e-10)

    def test_pole_rejected(self):
        with pytest.raises(A.EstimatorError, match="pole"):
            A.sideband_occupancy(100, 100, 1000)

    @pytest.mark.parametrize("args", OCCUPANCY_ROWS.values(), ids=list(OCCUPANCY_ROWS))
    def test_matches_two_colour_profile_oracle(self, args):
        got = A.sideband_occupancy(*args)
        value, lower, upper = occupancy_oracle(*args)
        assert got.value == pytest.approx(value, rel=1e-12, abs=0)
        assert got.lower == pytest.approx(lower, rel=1e-11, abs=0)
        assert got.upper == pytest.approx(upper, rel=1e-11, abs=0)

    @pytest.mark.parametrize("args", OCCUPANCY_ROWS.values(), ids=list(OCCUPANCY_ROWS))
    def test_scaled_brackets_change_nothing(self, args):
        got = A.sideband_occupancy(*args)
        with brackets_scaled():
            wide = A.sideband_occupancy(*args)
        assert [wide.value, wide.lower, wide.upper] == pytest.approx(
            [got.value, got.lower, got.upper], rel=1e-9, abs=1e-300)

    def test_no_upper_limit_is_an_error(self):
        # 1000 against 1010 clicks: equal rates lie inside the interval
        with pytest.raises(A.EstimatorError, match="no upper limit"):
            A.sideband_occupancy(1_000, 1_010, 100_000)


# trial totals: a handful, where every count reaches its total often, and up
# to 1e9
TRIAL_TOTALS = st.one_of(st.integers(1, 8), st.integers(1, 10**9))


@st.composite
def window_counts(draw):
    """(N_coinc, N_1, N_2, T) of one window: any counts that T trials can
    give, N_coinc = N_1 = N_2 = T included."""
    t = draw(TRIAL_TOTALS)
    n1, n2 = draw(st.integers(0, t)), draw(st.integers(0, t))
    return draw(st.integers(max(0, n1 + n2 - t), min(n1, n2))), n1, n2, t


@st.composite
def colour_counts(draw):
    """(clicks red, clicks blue, pulses per colour), 0 <= red <= blue <= pulses:
    more red than blue clicks is the pole alone."""
    pulses = draw(TRIAL_TOTALS)
    blue = draw(st.integers(0, pulses))
    return draw(st.integers(0, blue)), blue, pulses


def defined_oracle(oracle, *args):
    """The oracle's result, or None where scipy's searches are undefined:
    brentq's bracket holds no crossing when an edge lies at or beyond the
    range end that the oracle searches to."""
    try:
        return oracle(*args)
    except ValueError:
        return None


def edge_tolerance(trials, floor):
    """Relative tolerance between an edge and its oracle's: ``floor``, the
    oracle's own error, and the ~trials * eps of rounding that the
    log-likelihood of ``trials`` trials carries, which moves an edge next to
    a zero value by about twice that. The bound oracle resolves 1 - p of
    either side and finds each edge to 4 eps: over 12,000 drawn pairs of
    windows its edges lay within 1e-15 * trials of the bound's. The
    occupancy oracle finds its inner maximum to ~sqrt(eps) of the logit,
    which moved an edge by 1.7e-8 at 1.2e7 pulses, 5e-9 beyond the trials
    term."""
    return floor + 1e-15 * trials


def assert_interval(est):
    assert math.isfinite(est.value) and est.value >= 0
    assert math.isfinite(est.sigma_minus) and est.sigma_minus >= 0
    assert math.isfinite(est.sigma_plus) and est.sigma_plus >= 0


@settings(max_examples=150, deadline=None)
@given(window_counts(), window_counts())
@example((0, 1, 1, 1), (1, 1, 1, 1))  # WRITE 0 of 1, READ 1 of 1
@example((20_000,) * 4, (20_000,) * 4)  # a leak that saturates both windows
@example((1, 1, 1, 1), (2, 2, 2, 3))  # the root p_W = 1, which rounding can pass
def test_bound_at_any_counts_is_an_interval_or_an_estimator_error(write, read):
    try:
        got = A.classical_bound(*with_counts(write, read))
    except A.EstimatorError:
        return
    assert_interval(got)
    want = defined_oracle(bound_oracle, write, read)
    if want is not None:
        assert [got.value, got.lower, got.upper] == pytest.approx(
            want[:3], rel=edge_tolerance(max(write[3], read[3]), 1e-12), abs=0)


@settings(max_examples=150, deadline=None)
@given(colour_counts(), st.floats(0.0, 1.0, exclude_max=True))
@example((0, 1, 1), 0.0)  # the one blue pulse clicks, the red one does not
@example((3, 10, 10), 0.1)  # every blue pulse clicks
@example((0, 10**9 - 1, 10**9), 0.0)  # one miss: the search resolves 1 - rate
@example((0, 10**11, 10**11), 0.0)  # a rate of 1 exactly: the float below it costs ~1e-5
def test_occupancy_at_any_counts_is_an_interval_or_an_estimator_error(counts, background):
    try:
        got = A.sideband_occupancy(*counts, background)
    except A.EstimatorError:
        return
    assert_interval(got)
    want = defined_oracle(occupancy_oracle, *counts, background)
    if want is not None:
        assert [got.value, got.lower, got.upper] == pytest.approx(
            want, rel=edge_tolerance(counts[2], 1e-8), abs=0)


class TestExponentialFit:
    def test_decay_round_trip(self):
        t = np.linspace(0.5, 120.0, 60)
        y = 0.8 * np.exp(-t / 34.4) + 0.05
        fit = A.fit_exponential(t, y, "decay")
        assert fit.time_constant == pytest.approx(34.4, rel=1e-6)
        assert fit.amplitude == pytest.approx(0.8, rel=1e-6)
        assert fit.offset == pytest.approx(0.05, abs=1e-8)

    def test_rise_round_trip(self):
        t = np.linspace(0.01, 2.0, 50)
        y = 0.4 * (1.0 - np.exp(-t / 0.37)) + 0.02
        fit = A.fit_exponential(t, y, "saturating-rise")
        assert fit.time_constant == pytest.approx(0.37, rel=1e-6)

    def test_noise_tolerance(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0.5, 150.0, 80)
        y = np.exp(-t / 30.0) + 0.01 * rng.standard_normal(80)
        fit = A.fit_exponential(t, y, "decay")
        assert fit.time_constant == pytest.approx(30.0, rel=0.1)

    def test_constant_series(self):
        t = np.linspace(0, 10, 10)
        fit = A.fit_exponential(t, np.full(10, 0.3), "decay")
        assert fit.amplitude == 0.0
        assert fit.offset == pytest.approx(0.3)

    def test_time_constant_on_a_bound_is_an_error(self):
        # a straight line is the tau -> infinity limit of either model
        t = np.linspace(0.0, 10.0, 20)
        for model in ("decay", "saturating-rise"):
            with pytest.raises(A.FitError, match="at a bound"):
                A.fit_exponential(t, 0.5 + 0.1 * t, model)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            A.fit_exponential([0, 1], [1, 2], "decay")
        with pytest.raises(ValueError):
            A.fit_exponential([0, 1, 1, 2], [1, 2, 3, 4], "decay")
        with pytest.raises(ValueError):
            A.fit_exponential([0, 1, 2, 3], [1, 2, 3, 4], "sigmoid")
