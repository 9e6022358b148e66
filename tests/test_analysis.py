"""Statistics: likelihood intervals, tabulation, correlation estimators,
the convolved classical bound, thermometry and fits."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta, norm

from phononherald import analysis as A
from phononherald import protocol, tags
from phononherald.config import ConfigError


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

    def test_edges_are_beta_quantiles(self):
        # the interval edges are the 16%/84% quantiles of Beta(N+1, T-N+1)
        for t in (1, 2, 30, 5000, 10**6, 10**8):
            for n in sorted({n for n in (0, 1, 2, t // 3, t - 1, t) if n <= t}):
                p_ml, s_minus, s_plus = A.binomial_ci(n, t)
                dist = beta(n + 1, t - n + 1)
                lo = min(dist.ppf(A.TAIL_MASS), p_ml)
                hi = max(dist.ppf(1.0 - A.TAIL_MASS), p_ml)
                assert p_ml - s_minus == pytest.approx(lo, rel=1e-12, abs=0), (n, t)
                assert p_ml + s_plus == pytest.approx(hi, rel=1e-12, abs=0), (n, t)

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(1, 2000), frac=st.floats(0.0, 1.0))
    def test_interval_inside_unit_range(self, t, frac):
        n = int(round(frac * t))
        p_ml, s_minus, s_plus = A.binomial_ci(n, t)
        assert 0.0 <= p_ml - s_minus <= p_ml + s_plus <= 1.0


def make_table(w1, w2, r1, r2, delta_t=100.0):
    channels = (np.flatnonzero(x) for x in (w1, w2, r1, r2))
    return A.TrialTable(delta_t, len(w1), *channels)


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
        rs = protocol.read_window_start_ps(cfg, 100.0)
        entries = [
            (0, 0, tags.WRITE_PULSE, 100),
            (0, 1, tags.READ_PULSE, rs + 500),
            (3, 1, tags.WRITE_PULSE, 39_999),
            (4, 0, tags.READ_PULSE, rs + 54_999),
        ]
        table = A.tabulate(self.stream_for(cfg, entries, 10), cfg)[100.0]
        c = table.counters()
        assert (c["N_W1"], c["N_W2"], c["N_R1"], c["N_R2"]) == (1, 1, 1, 1)
        assert c["N_WR"] == 1  # trial 0 has both a write and a read click

    def test_read_window_trim_drops_late_clicks(self, default_config):
        cfg = with_trials(default_config, 10)
        rs = protocol.read_window_start_ps(cfg, 100.0)
        entries = [(0, 0, tags.READ_PULSE, rs + 10_000),
                   (1, 0, tags.READ_PULSE, rs + 45_000)]
        stream = self.stream_for(cfg, entries, 10)
        full = A.tabulate(stream, cfg)[100.0]
        trimmed = A.tabulate(stream, cfg, read_window_ns=30.0)[100.0]
        assert full.counters()["N_R1"] == 2
        assert trimmed.counters()["N_R1"] == 1

    def test_out_of_window_record_rejected(self, default_config):
        cfg = with_trials(default_config, 10)
        entries = [(0, 0, tags.WRITE_PULSE, 41_000)]  # past the 40 ns window
        with pytest.raises(tags.TagFormatError, match="outside its labelled"):
            A.tabulate(self.stream_for(cfg, entries, 10), cfg)

    def test_trial_count_mismatch_rejected(self, default_config):
        stream = self.stream_for(default_config, [], 10)
        with pytest.raises(tags.TagFormatError, match="implies"):
            A.tabulate(stream, with_trials(default_config, 99))

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
        est = A.g2_cross_estimate(table, 0)
        assert est.value == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert est.counts["N_coinc"] == 2
        assert est.sigma_plus > est.sigma_minus > 0

    def test_cross_offset_uses_shifted_pairs(self):
        table = make_table(w1=[1, 0, 0, 0], w2=[0] * 4,
                           r1=[0, 1, 0, 0], r2=[0] * 4)
        assert A.g2_cross_estimate(table, 0).counts["N_coinc"] == 0
        shifted = A.g2_cross_estimate(table, 1)
        assert shifted.counts["N_coinc"] == 1
        assert shifted.counts["pairs"] == 3

    def test_cross_negative_offset(self):
        table = make_table(w1=[0, 1, 0, 0], w2=[0] * 4,
                           r1=[1, 0, 0, 0], r2=[0] * 4)
        assert A.g2_cross_estimate(table, -1).counts["N_coinc"] == 1

    def test_pooled_offsets_accumulate(self):
        rng = np.random.default_rng(5)
        w = rng.random(500) < 0.2
        r = rng.random(500) < 0.2
        table = make_table(w, np.zeros(500), r, np.zeros(500))
        pooled = A.g2_cross_estimate(table, [1, 2, 3])
        total = sum(A.g2_cross_estimate(table, d).counts["N_coinc"]
                    for d in (1, 2, 3))
        assert pooled.counts["N_coinc"] == total
        assert pooled.value == pytest.approx(1.0, abs=0.35)

    def test_pooled_rejects_zero_offset(self):
        table = make_table([1, 0], [0, 0], [1, 0], [0, 0])
        with pytest.raises(A.EstimatorError):
            A.g2_cross_estimate(table, [0, 1])

    def test_auto_write_pools_settings(self):
        t1 = make_table([1, 0, 1, 0], [1, 0, 0, 0], [0] * 4, [0] * 4, 100.0)
        t2 = make_table([0, 1, 0, 0], [0, 1, 0, 0], [0] * 4, [0] * 4, 200.0)
        est = A.g2_auto_estimate({100.0: t1, 200.0: t2}, "WRITE")
        assert est.counts["T"] == 8
        assert est.counts["N_coinc"] == 2

    def test_auto_read_uses_single_setting(self):
        t1 = make_table([0] * 4, [0] * 4, [1, 1, 0, 0], [1, 0, 0, 0], 100.0)
        t2 = make_table([0] * 4, [0] * 4, [1, 1, 1, 1], [1, 1, 1, 1], 200.0)
        est = A.g2_auto_estimate({100.0: t1, 200.0: t2}, "READ", 100.0)
        assert est.counts["T"] == 4
        assert est.counts["N_coinc"] == 1

    def test_zero_singles_undefined(self):
        table = make_table([0, 0], [0, 0], [1, 0], [0, 0])
        with pytest.raises(A.EstimatorError, match="zero single"):
            A.g2_cross_estimate(table, 0)


def dense_flags(stream, config, k):
    """Per-trial click booleans (w1, w2, r1, r2) of setting ``k``."""
    n = config.protocol.trials
    rec = stream.records[stream.records["trial_index"] // n == k]
    local = (rec["trial_index"] % n).astype(np.int64)
    flags = []
    for label in (tags.WRITE_PULSE, tags.READ_PULSE):
        for det in (0, 1):
            x = np.zeros(n, dtype=bool)
            x[local[(rec["pulse_label"] == label) & (rec["detector"] == det)]] = True
            flags.append(x)
    return flags


def dense_offset_coincidences(w, r, dn):
    """Trials n with a write click at n and a read click at n + dn."""
    t = len(w)
    return int((w[: t - dn] & r[dn:]).sum() if dn >= 0 else (w[-dn:] & r[: t + dn]).sum())


def test_record_level_counts_match_dense_oracle(fast_config):
    settings = (100.0, 400.0, 1000.0)
    cfg = fast_config.replace(protocol=dataclasses.replace(
        fast_config.protocol, delta_t_list_ns=settings, trials=20_000))
    outcome = [protocol.build_outcome_table(cfg, dt) for dt in settings]
    stream = protocol.sample_trials(cfg, outcome)
    tables = A.tabulate(stream, cfg)
    auto_write = np.zeros(4, dtype=np.int64)
    for k, dt in enumerate(settings):
        table = tables[dt]
        w1, w2, r1, r2 = dense_flags(stream, cfg, k)
        w, r = w1 | w2, r1 | r2
        assert table.counters() == {
            "T": cfg.protocol.trials,
            "N_W1": int(w1.sum()), "N_W2": int(w2.sum()),
            "N_R1": int(r1.sum()), "N_R2": int(r2.sum()),
            "N_W1W2": int((w1 & w2).sum()), "N_R1R2": int((r1 & r2).sum()),
            "N_W": int(w.sum()), "N_R": int(r.sum()), "N_WR": int((w & r).sum()),
        }
        n, singles = cfg.protocol.trials, {"N_W": int(w.sum()), "N_R": int(r.sum())}
        for dn in range(-3, 11):
            assert A.g2_cross_estimate(table, dn).counts == {
                "N_coinc": dense_offset_coincidences(w, r, dn), "pairs": n - abs(dn),
                **singles, "T": n, "delta_n": dn}
        assert A.g2_cross_estimate(table, range(1, 11)).counts == {
            "N_coinc": sum(dense_offset_coincidences(w, r, dn) for dn in range(1, 11)),
            "pairs": sum(n - dn for dn in range(1, 11)), **singles, "T": n,
            "delta_n": list(range(1, 11))}
        read = A.g2_auto_estimate(tables, "READ", dt).counts
        assert (read["N_coinc"], read["N_1"], read["N_2"], read["T"]) == (
            int((r1 & r2).sum()), int(r1.sum()), int(r2.sum()), len(r1))
        auto_write += [int((w1 & w2).sum()), int(w1.sum()), int(w2.sum()), len(w1)]
    write = A.g2_auto_estimate(tables, "WRITE").counts
    assert [write[key] for key in ("N_coinc", "N_1", "N_2", "T")] == auto_write.tolist()
    assert write["N_coinc"] > 0 and min(t.counters()["N_WR"] for t in tables.values()) > 0

    # record order and repeated records do not matter to the analysis
    rng = np.random.default_rng(3)
    recs = stream.records
    messy = np.concatenate([recs, recs[rng.choice(len(recs), len(recs) // 5)]])
    rng.shuffle(messy)
    again = A.tabulate(tags.TagStream(stream.config_hash, stream.trial_count, messy), cfg)
    for dt in settings:
        assert again[dt].counters() == tables[dt].counters()
        for name in ("w1", "w2", "r1", "r2"):
            assert np.array_equal(getattr(again[dt], name), getattr(tables[dt], name))


def auto_estimate_from_counts(n_coinc, n1, n2, t, window="WRITE"):
    x1 = np.zeros(t, dtype=bool)
    x2 = np.zeros(t, dtype=bool)
    x1[:n1] = True
    x2[n1 - n_coinc: n1 - n_coinc + n2] = True
    table = make_table(x1, x2, x1, x2)
    return A.g2_auto_estimate({100.0: table}, window, 100.0)


def beta_pdf_likelihood(n_coinc, n_pairs, scale, t_grid):
    """Oracle for ``A._g_log_likelihood``: scipy.stats' Beta density."""
    p = np.exp(t_grid) / scale
    f = np.where(p <= 1.0, beta(n_coinc + 1, n_pairs - n_coinc + 1).pdf(p), 0.0)
    return f / np.trapezoid(f, t_grid)


class TestClassicalBound:
    @pytest.mark.parametrize("write, read", [
        ((2, 40, 50, 10_000), (0, 20, 30, 10_000)),
        ((180, 95_000, 97_000, 10**8), (0, 60_000, 61_000, 10**8)),
        ((3, 40, 50, 10_000), (1, 20, 30, 10_000)),
        ((180, 95_000, 97_000, 10**8), (45, 60_000, 61_000, 10**8)),
        ((2500, 2_000_000, 2_100_000, 10**9), (900, 1_000_000, 1_100_000, 10**9)),
    ], ids=["zero-side", "zero-side-1e8", "small", "headline-1e8", "large-counts"])
    def test_matches_beta_pdf_oracle(self, monkeypatch, write, read):
        sides = [A.CorrelationEstimate(0.0, 0.0, 0.0,
                                       {"N_coinc": c, "N_1": n1, "N_2": n2, "T": t})
                 for c, n1, n2, t in (write, read)]
        got = A.classical_bound(*sides)
        monkeypatch.setattr(A, "_g_log_likelihood", beta_pdf_likelihood)
        want = A.classical_bound(*sides)
        assert got.value == want.value
        assert got.sigma_minus == pytest.approx(want.sigma_minus, rel=1e-12, abs=0)
        assert got.sigma_plus == pytest.approx(want.sigma_plus, rel=1e-12, abs=0)

    def test_ml_below_geometric_mean(self):
        aw = auto_estimate_from_counts(3, 40, 50, 10_000)
        ar = auto_estimate_from_counts(1, 20, 30, 10_000, "READ")
        bound = A.classical_bound(aw, ar)
        assert bound.value <= np.sqrt(aw.value * ar.value) + 1e-9
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

    @settings(max_examples=25, deadline=None)
    @given(c1=st.integers(1, 30), c2=st.integers(1, 30),
           n1=st.integers(40, 200), n2=st.integers(40, 200))
    def test_ml_inequality_property(self, c1, c2, n1, n2):
        t = 100_000
        aw = auto_estimate_from_counts(min(c1, n1), n1, n1 + 10, t)
        ar = auto_estimate_from_counts(min(c2, n2), n2, n2 + 10, t, "READ")
        bound = A.classical_bound(aw, ar)
        assert bound.value <= np.sqrt(aw.value * ar.value) * (1.0 + 1e-6)


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

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            A.fit_exponential([0, 1], [1, 2], "decay")
        with pytest.raises(ValueError):
            A.fit_exponential([0, 1, 1, 2], [1, 2, 3, 4], "decay")
        with pytest.raises(ValueError):
            A.fit_exponential([0, 1, 2, 3], [1, 2, 3, 4], "sigmoid")


class TestHeraldedChain:
    def test_heralded_autocorr_value(self):
        assert A.heralded_autocorr(19.6) == pytest.approx(0.215, abs=0.005)

    def test_heralded_autocorr_undefined_at_or_below_1(self):
        with pytest.raises(ValueError):
            A.heralded_autocorr(1.0)

    def test_fock_fidelity_headline_point(self):
        p0, p1, p_multi = A.fock_fidelity(0.215, 0.04)
        assert p0 == 0.04
        assert p1 == pytest.approx(0.877, abs=0.005)
        assert p0 + p1 + p_multi == pytest.approx(1.0, abs=1e-12)

    def test_fock_fidelity_pure_single_photon(self):
        p0, p1, p_multi = A.fock_fidelity(0.0, 0.0)
        assert (p0, p1, p_multi) == (0.0, 1.0, 0.0)

    def test_fock_fidelity_validates(self):
        with pytest.raises(ValueError):
            A.fock_fidelity(-0.1, 0.0)
        with pytest.raises(ValueError):
            A.fock_fidelity(0.2, 1.0)
