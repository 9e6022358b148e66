"""Protocol pipeline: outcome tables, trial sampling, thermometry."""

import dataclasses
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from phononherald import analysis, protocol, tags
from phononherald import fock as F
from phononherald.config import MAX_TRIALS, ConfigError, ExperimentConfig
from phononherald.detection import silent_subsets


@pytest.fixture(scope="module")
def table():
    from phononherald.config import default_config
    return protocol.build_outcome_table(default_config(), 100.0)


class TestHeatingModel:
    def test_starts_at_baseline(self, default_config):
        heat = default_config.heating
        assert protocol.heating_occupation(0.0, heat) == pytest.approx(heat.n_base)

    def test_rises_then_decays(self, default_config):
        heat = default_config.heating
        rise = [protocol.heating_occupation(t, heat) for t in (50, 200, 600)]
        assert rise[0] < rise[1] < rise[2]    # rise on the ~0.37 us scale
        decay = [protocol.heating_occupation(t, heat)
                 for t in (3_000, 20_000, 500_000)]
        assert decay[0] > decay[1] > decay[2]  # decay on the ~34 us scale
        assert decay[-1] == pytest.approx(heat.n_base, abs=1e-4)

    def test_negative_delay_rejected(self, default_config):
        with pytest.raises(ValueError):
            protocol.heating_occupation(-1.0, default_config.heating)


class TestOutcomeTable:
    def test_probabilities_normalized(self, table):
        assert table.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert table.probs.min() >= 0.0

    def test_write_marginal_matches_detection_oracle(self, table, default_config):
        # the 16-pattern table collapsed over read bits must reproduce a
        # direct POVM evaluation on the post-squeeze state
        cfg = default_config
        n_max = 16
        mech = F.thermal_state(cfg.heating.n_base, n_max, 1e-6)
        state = F.TwoModeFockState.from_single_modes(mech, F.vacuum_rho(n_max), 1e-6)
        state = F.two_mode_squeeze(state, np.arcsinh(np.sqrt(cfg.protocol.p_pair)))
        q = F.pair_click_matrix(n_max, *silent_subsets(cfg, cfg.chain.window_write_ns))
        optical = state.joint_number_distribution().sum(axis=0)
        expected = q @ optical
        got = table.probs.reshape(4, 4).sum(axis=1)
        assert np.allclose(got, expected, atol=1e-12)

    def test_implied_statistics_in_expected_regime(self, table):
        g2_om, g2_ww, g2_rr = protocol.pattern_g2(table.probs)[0]
        assert g2_om > np.sqrt(g2_ww * g2_rr)
        assert 1.0 < g2_ww < 2.1
        assert 1.0 < g2_rr < 2.1

    def test_unnormalized_table_rejected(self, table):
        with pytest.raises(ValueError, match="sums to"):
            protocol.OutcomeTable(100.0, table.probs * 0.5)

    def test_zero_single_undefined(self):
        # nothing ever clicks: every model g2 is undefined, as in the data
        probs = np.zeros(16)
        probs[0] = 1.0
        silent = protocol.OutcomeTable(100.0, probs)
        # g2_om, g2_WW and the bound, which needs g2_WW and g2_RR
        for names in (("g2_om",), ("g2_WW",), ("g2_WW", "g2_RR")):
            with pytest.raises(analysis.EstimatorError, match="zero single"):
                protocol.pattern_g2(silent.probs, names=names)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_table_rejected(self, table, bad):
        with pytest.raises(ValueError, match="sums to"):
            protocol.OutcomeTable(100.0, np.full(16, bad))
        probs = table.probs.copy()
        probs[5] = bad
        with pytest.raises(ValueError, match="sums to"):
            protocol.OutcomeTable(100.0, probs)

    @pytest.mark.parametrize("chain", [
        {"eta_path1": 3.0},
        {"eta_path2": -0.1},
        {"eta_path1": 0.6, "eta_path2": 0.6},
        {"eta_path1": float("nan")},
        {"dark_rate_hz": 1e11},
        {"dark_rate_hz": -1.0},
        {"leak_fraction": 1.5},
    ], ids=["efficiency-above-1", "negative-efficiency", "efficiency-sum",
            "nan-efficiency", "dark-probability", "negative-dark", "negative-leak"])
    def test_detector_model_range_checked(self, chain):
        # the detector model has no range check of its own: a config checks
        # itself when built, so a chain it cannot model never reaches it
        unit = {"eta_fc": 1.0, "eta_c": 1.0, "eta_qe1": 1.0, "eta_qe2": 1.0}
        default_chain = ExperimentConfig().chain
        with pytest.raises(ConfigError, match=r"^chain\."):
            ExperimentConfig(chain=dataclasses.replace(default_chain, **unit, **chain))


class TestSampling:
    def test_thread_count_does_not_change_bytes(self, fast_config, monkeypatch):
        # a prime chunk length makes 7 jobs, so the forked workers really get
        # uneven shares; as many cores as workers, so every worker is forked
        monkeypatch.setattr(protocol, "SAMPLE_CHUNK", 7919)
        monkeypatch.setattr(protocol.os, "cpu_count", lambda: 4)
        tables = [protocol.build_outcome_table(fast_config, 100.0)]
        a = protocol.sample_trials(fast_config, tables, 50_000, threads=1)
        for threads in (2, 4):
            b = protocol.sample_trials(fast_config, tables, 50_000, threads=threads)
            assert a.records.tobytes() == b.records.tobytes()

    def test_pool_bounded_by_jobs_and_cores(self, fast_config, monkeypatch):
        # a recorder stands in for the fork helper, so no process is started
        workers = []

        def fork_shares(shares, run):
            workers.append(len(shares))
            return [part for share in shares for part in run(share)]

        monkeypatch.setattr(protocol, "_fork_shares", fork_shares)
        monkeypatch.setattr(protocol, "SAMPLE_CHUNK", 1000)
        tables = [protocol.build_outcome_table(fast_config, 100.0)]
        serial = protocol.sample_trials(fast_config, tables, 5000)
        for cores, threads, trials, want in [
                (3, 16, 5000, 3),   # cores bound it
                (8, 16, 2500, 3),   # jobs bound it
                (8, 2, 5000, 2),    # the request bounds it
                (None, 16, 5000, 1), (1, 16, 5000, 1), (8, 16, 1000, 1)]:
            monkeypatch.setattr(protocol.os, "cpu_count", lambda cores=cores: cores)
            workers.clear()
            stream = protocol.sample_trials(fast_config, tables, trials, threads=threads)
            assert workers == [want]
            if trials == 5000:
                assert stream.records.tobytes() == serial.records.tobytes()
        # without os.fork, one worker
        monkeypatch.delattr(protocol.os, "fork")
        workers.clear()
        protocol.sample_trials(fast_config, tables, 5000, threads=16)
        assert workers == [1]

    @pytest.mark.parametrize("threads", [2, 4])
    @pytest.mark.parametrize("fault", ["raises", "truncated"])
    def test_failed_worker_raises_and_leaves_no_child(self, fast_config, monkeypatch,
                                                      fault, threads):
        # a fork copies the patch, so only the children's chunks fail: each
        # raises, or writes a record short and exits 0; at 4 workers the first
        # child's fault leaves two children for the cleanup to kill and reap
        parent, chunk = os.getpid(), protocol._sample_chunk

        def failing(*args):
            records = chunk(*args)
            if os.getpid() == parent:
                return records
            if fault == "raises":
                raise MemoryError("worker out of memory")
            return records.view(np.uint8)[:-1]

        monkeypatch.setattr(protocol, "_sample_chunk", failing)
        monkeypatch.setattr(protocol, "SAMPLE_CHUNK", 7919)
        monkeypatch.setattr(protocol.os, "cpu_count", lambda: 4)
        tables = [protocol.build_outcome_table(fast_config, 100.0)]
        status = "status 1" if fault == "raises" else "status 0"
        with pytest.raises(ChildProcessError, match=rf"sampler worker \d+ ended with {status}"):
            protocol.sample_trials(fast_config, tables, 50_000, threads=threads)
        with pytest.raises(ChildProcessError):  # no child, running or zombie
            os.waitpid(-1, os.WNOHANG)

    def test_failed_fork_leaves_no_child_or_pipe(self, fast_config, monkeypatch):
        # the second of three forks fails, as when the system is out of processes
        fork, forked = os.fork, []

        def second_fork_fails():
            if forked:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forked.append(fork())
            return forked[-1]

        monkeypatch.setattr(protocol.os, "fork", second_fork_fails)
        monkeypatch.setattr(protocol.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(protocol, "SAMPLE_CHUNK", 7919)
        tables = [protocol.build_outcome_table(fast_config, 100.0)]
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            protocol.sample_trials(fast_config, tables, 50_000, threads=4)
        assert len(os.listdir("/proc/self/fd")) == fds
        with pytest.raises(ChildProcessError):  # no child, running or zombie
            os.waitpid(-1, os.WNOHANG)

    def test_seed_changes_stream(self, fast_config):
        tables = [protocol.build_outcome_table(fast_config, 100.0)]
        a = protocol.sample_trials(fast_config.replace(seed=1), tables, 20_000)
        b = protocol.sample_trials(fast_config.replace(seed=2), tables, 20_000)
        assert a.records.tobytes() != b.records.tobytes()

    def test_rates_match_table(self, fast_config):
        # unequal detectors, so a swapped detector bit moves counts between patterns
        n = 200_000
        cfg = fast_config.replace(
            chain=dataclasses.replace(fast_config.chain, eta_path2=0.25),
            protocol=dataclasses.replace(fast_config.protocol, trials=n))
        table = protocol.build_outcome_table(cfg, 100.0)
        stream = protocol.sample_trials(cfg, [table])
        counts = analysis.tabulate(stream, cfg)[100.0].pattern_counts()
        for pattern, p in enumerate(table.probs):
            sigma = np.sqrt(p * n) + 1.0
            assert abs(counts[pattern] - p * n) < 6.0 * sigma, pattern

    def test_record_times_inside_windows(self, fast_config):
        tables = [protocol.build_outcome_table(fast_config, 100.0)]
        stream = protocol.sample_trials(fast_config, tables, 30_000)
        rec = stream.records
        write_len = int(fast_config.chain.window_write_ns * 1000)
        read_start = int(protocol.window_geometry(fast_config, 100.0)[0, 1])
        read_len = int(fast_config.chain.window_read_ns * 1000)
        w = rec["pulse_label"] == tags.WRITE_PULSE
        assert (rec["time_ps"][w] < write_len).all()
        t_read = rec["time_ps"][~w]
        assert ((t_read >= read_start) & (t_read < read_start + read_len)).all()

    def test_setting_blocks_own_their_trials(self, fast_config):
        proto = dataclasses.replace(fast_config.protocol,
                                    delta_t_list_ns=(100.0, 300.0))
        cfg = fast_config.replace(protocol=proto)
        tables = [protocol.build_outcome_table(cfg, dt) for dt in (100.0, 300.0)]
        n = 20_000
        stream = protocol.sample_trials(cfg, tables, n)
        assert stream.trial_count == 2 * n
        second = stream.records["trial_index"] >= n
        starts = stream.records["time_ps"][second & (stream.records["pulse_label"] == 1)]
        assert (starts >= int(protocol.window_geometry(cfg, 300.0)[0, 1])).all()

    def test_golden_stream(self, fast_config, monkeypatch):
        # pins the stream bytes of this config and seed, which no sampler
        # change may alter; 300k trials per setting at the inflated rates
        # give every pattern bit ~25k records
        proto = dataclasses.replace(fast_config.protocol,
                                    delta_t_list_ns=(100.0, 300.0))
        cfg = fast_config.replace(protocol=proto)
        tables = [protocol.build_outcome_table(cfg, dt) for dt in (100.0, 300.0)]
        golden = "5a94ac906add43691a0cd20ae44b5908c57488e2e61d5f750785187435b711ea"

        # two cores, so a forked worker sends ~1.2 MB, many pipe buffers
        monkeypatch.setattr(protocol.os, "cpu_count", lambda: 2)

        def digest():
            stream = protocol.sample_trials(cfg, tables, 300_000, threads=2)
            slots = 2 * stream.records["pulse_label"] + stream.records["detector"]
            assert np.bincount(slots, minlength=4).min() > 20_000
            return hashlib.sha256(stream.records.tobytes()).hexdigest()

        assert digest() == golden
        # a prime chunk length splits settings and trials mid-block
        monkeypatch.setattr(protocol, "SAMPLE_CHUNK", 7919)
        assert digest() == golden

    def test_chunk_peak_memory_is_block_sized(self, default_config, table):
        # the silent-or-click pass holds one block of hashes, never an
        # array as long as the chunk
        tracemalloc.start()
        try:
            protocol._sample_chunk(table, default_config, default_config.seed,
                                   0, protocol.SAMPLE_CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_sample_and_write_hold_the_records_once(self, default_config, tmp_path):
        # the stream is the sampler's parts, written part by part: no second
        # copy of the records, as a concatenation would make
        cfg = default_config.replace(protocol=dataclasses.replace(
            default_config.protocol, trials=110_000_000))
        tables = [protocol.build_outcome_table(cfg, 100.0)]
        tracemalloc.start()
        try:
            stream = protocol.sample_trials(cfg, tables, threads=1)
            tags.write_tagstream(stream, tmp_path / "run.tags")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) >= 100_000
        assert peak <= 1.5 * len(stream) * tags.RECORD_SIZE

    def test_table_order_enforced(self, fast_config):
        proto = dataclasses.replace(fast_config.protocol,
                                    delta_t_list_ns=(100.0, 300.0))
        cfg = fast_config.replace(protocol=proto)
        t100 = protocol.build_outcome_table(cfg, 100.0)
        t300 = protocol.build_outcome_table(cfg, 300.0)
        with pytest.raises(ValueError, match="out of order"):
            protocol.sample_trials(cfg, [t300, t100], 100)


class TestThermometry:
    def test_ideal_asymmetry_exceeds_40(self, default_config):
        result = protocol.simulate_thermometry(default_config, 10_000)
        assert result.ideal_asymmetry > 40.0

    def test_asymmetry_tracks_occupation(self, default_config):
        # (n+1)/n at the baseline occupation 0.025 is 41
        result = protocol.simulate_thermometry(default_config, 10_000)
        n = default_config.heating.n_base
        assert result.ideal_asymmetry == pytest.approx((n + 1) / n, rel=0.02)

    def test_blue_rate_exceeds_red(self, default_config):
        result = protocol.simulate_thermometry(default_config, 500_000)
        assert result.clicks_blue > result.clicks_red

    def test_golden_counts(self, default_config):
        # pins the click counts and model floats of this config and seed
        result = protocol.simulate_thermometry(default_config, 2_000_000)
        assert (result.clicks_blue, result.clicks_red) == (839, 51)
        assert result.ideal_asymmetry == 40.96682226600794
        assert result.background_click_prob == 3.4544602543976194e-05

    def test_rejects_nonpositive_pulses(self, default_config):
        with pytest.raises(ConfigError, match="pulses: 0 must be > 0"):
            protocol.simulate_thermometry(default_config, 0)

    def test_rejects_pulses_past_the_counter_limit_at_once(self, default_config,
                                                           monkeypatch):
        # 2 x (2**60 + 1) pulses would reuse trial counters: refused before
        # any click is drawn
        def drawn(*args):
            raise AssertionError("clicks drawn past the counter limit")

        monkeypatch.setattr(protocol.rng, "bernoulli_clicks", drawn)
        pulses = MAX_TRIALS + 2
        with pytest.raises(ConfigError, match=f"pulses: {pulses} give 2 x {pulses // 2} "):
            protocol.simulate_thermometry(default_config, pulses)


class TestPumpProbe:
    def test_long_delay_decays_to_leak_floor(self, default_config):
        grid = np.array([2.0, 50.0, 300.0])
        c = protocol.simulate_pump_probe(default_config, 1.0, grid)
        assert c[0] > c[1] > c[2]

    def test_short_delay_rises(self, default_config):
        grid = np.array([0.02, 0.2, 1.0])
        c = protocol.simulate_pump_probe(default_config, 1.0, grid)
        assert c[0] < c[1] < c[2]

    def test_zero_amplitude_is_flat_baseline(self, default_config):
        grid = np.linspace(0.1, 10.0, 5)
        c = protocol.simulate_pump_probe(default_config, 0.0, grid)
        assert np.ptp(c) < 1e-15
