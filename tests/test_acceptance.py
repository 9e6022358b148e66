"""Acceptance gate: nine end-to-end criteria, one report line each.

Each test computes its criterion from scratch, appends a PASS/FAIL line to
the terminal report (see conftest.pytest_terminal_summary) and asserts.
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

import conftest
from phononherald import analysis as A
from phononherald import calibrate, cli, protocol, tags
from phononherald import config as C
from phononherald import fock as F
from phononherald import gaussian as G
from phononherald.detection import silent_subsets


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{status}] {label}" + (f" ({detail})" if detail else "")
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def overlaps(est, lo, hi):
    return est.lower <= hi and est.upper >= lo


def test_criterion_1_engine_equivalence():
    # CPU time of this thread, which never exceeds wall time: on a 2-core host
    # it reads 0.4-0.5 s idle (5 runs) and 0.5-5.7 s beside two CPU-bound
    # processes (11 runs, 3 above 2 s, all in the threaded Cholesky of the
    # positivity test). Process CPU time would also count the spinning BLAS
    # worker thread: 0.8-1.1 s idle
    t0 = time.thread_time()
    worst = 0.0
    for n_bar in (0.0, 0.025, 0.5):
        n_max = 22 if n_bar > 0.1 else 12
        mech = F.thermal_state(n_bar, n_max, leak_tol=1.0)
        base = F.TwoModeFockState.from_single_modes(
            mech, F.vacuum_rho(n_max), leak_tol=1.0)
        for r in (0.0, 0.05, 0.17, 0.3):
            squeezed = F.two_mode_squeeze(base, r)
            for eta in (0.5, 1.0):
                fst = F.attenuate(squeezed, "B", eta)
                p = fst.joint_number_distribution()
                fock = np.array([
                    fst.mean_occupation("A"), fst.mean_occupation("B"),
                    float(p.sum(axis=1)[0]), float(p.sum(axis=0)[0]),
                    float(p[0, 0])])
                # mode B is the write photon, mode A the mechanics, which
                # is the read photon at eps 1 without heating; a zero
                # efficiency leaves a photon out of the vacuum projection
                n_w, n_r, d = G.detected_moments(np.sinh(r) ** 2, n_bar, 0.0, 1.0)
                no_click = np.exp(G.log_no_click(n_w, n_r, d, [0.0, eta], [0.0, 1.0]))
                gauss = np.array([n_r, eta * n_w, no_click[0, 1], no_click[1, 0],
                                  no_click[1, 1]])
                worst = max(worst, float(np.abs(fock - gauss).max()))
    elapsed = time.thread_time() - t0
    report(1, "Fock vs Gaussian engine agreement",
           worst < 1e-8 and elapsed < 10.0,
           f"worst |diff| {worst:.2e}, {elapsed:.1f} s CPU")


def test_criterion_2_analytic_statistics():
    mech = F.thermal_state(0.1, 24)
    thermal = F.TwoModeFockState.from_single_modes(mech, F.vacuum_rho(24), 1e-6)
    err_thermal = abs(F.g2_auto(thermal, "A") - 2.0)

    mu = 0.03
    vac = F.TwoModeFockState.vacuum(16, 1e-6)
    tmsv = F.two_mode_squeeze(vac, np.arcsinh(np.sqrt(mu)))
    err_cross = abs(F.g2_cross(tmsv) - (2.0 + 1.0 / mu))

    lossy = F.attenuate(F.attenuate(tmsv, "A", 0.6), "B", 0.3)
    err_loss = max(abs(F.g2_cross(lossy) - F.g2_cross(tmsv)),
                   abs(F.g2_auto(lossy, "B") - F.g2_auto(tmsv, "B")))

    single = F.TwoModeFockState.from_single_modes(
        F.thermal_state(0.08, 20), F.vacuum_rho(20), 1e-6)
    split = F.beam_splitter(single, 0.5)
    err_hbt = abs(F.g2_cross(split) - F.g2_auto(single, "A"))

    ok = (err_thermal < 1e-8 and err_cross < 1e-6
          and err_loss < 1e-8 and err_hbt < 1e-8)
    report(2, "analytic g2 statistics and invariances", ok,
           f"thermal {err_thermal:.1e}, cross {err_cross:.1e}, "
           f"loss {err_loss:.1e}, hbt {err_hbt:.1e}")


def test_criterion_3_thermometry():
    t0 = time.time()
    cfg = C.default_config()
    result = protocol.simulate_thermometry(cfg, 2_000_000)
    occ = A.sideband_occupancy(result.clicks_red, result.clicks_blue,
                               result.pulses_per_color,
                               result.background_click_prob)
    elapsed = time.time() - t0
    covered = occ.value - occ.sigma_minus <= 0.025 <= occ.value + occ.sigma_plus
    ok = covered and result.ideal_asymmetry > 40.0 and elapsed < 60.0
    report(3, "sideband thermometry recovers the baseline occupation", ok,
           f"n = {occ.value:.4f} -{occ.sigma_minus:.4f} +{occ.sigma_plus:.4f}, "
           f"asymmetry {result.ideal_asymmetry:.1f}, {elapsed:.1f} s")


def test_criterion_4_headline_correlation():
    t0 = time.time()
    cfg = C.default_config()
    table = protocol.build_outcome_table(cfg, 100.0)
    stream = protocol.sample_trials(cfg, [table], threads=4)
    tt = A.tabulate(stream, cfg)[100.0]
    cross_all = A.solve(A.g2_cross_estimate(tt.pattern_counts(), tt.trials,
                                            tt.cross_coincidences(10).tolist()))
    cross = cross_all["g2_om"]
    auto_w = A.g2_auto_estimate(tt.pattern_counts(), tt.trials, "WRITE")
    auto_r = A.g2_auto_estimate(tt.pattern_counts(), tt.trials, "READ")
    bound = A.classical_bound(auto_w, auto_r)
    verdict = A.cauchy_schwarz_test(cross, bound)
    pooled = cross_all["delta_n_pooled"]
    elapsed = time.time() - t0

    ok_cross = overlaps(cross, 8.0 - 0.5, 8.0 + 0.6)
    ok_bound = overlaps(bound, 2.09 - 0.16, 2.09 + 0.23)
    ok_offsets = overlaps(pooled, 0.95, 1.05)
    ok = (ok_cross and ok_bound and verdict.violated and ok_offsets
          and elapsed < 600.0)
    report(4, "headline cross-correlation at 100 ns over 1e7 trials", ok,
           f"g2_om {cross.value:.2f} [{cross.lower:.2f}, {cross.upper:.2f}], "
           f"bound {bound.value:.2f} [{bound.lower:.2f}, {bound.upper:.2f}], "
           f"violated={verdict.violated}, offsets {pooled.value:.2f} "
           f"[{pooled.lower:.2f}, {pooled.upper:.2f}], {elapsed:.0f} s")


def test_criterion_5_correlation_decay():
    cfg = C.default_config()
    gs, bounds = [], []
    for dt in cli.FIG3C_DELAYS:
        g2_om, g2_ww, g2_rr = protocol.pattern_g2(protocol.build_outcome_table(cfg, dt).probs)[0]
        gs.append(g2_om)
        bounds.append(np.sqrt(g2_ww * g2_rr))
    gs, bounds = np.array(gs), np.array(bounds)
    monotone = bool(np.all(np.diff(gs) < 0))
    above = bool(np.all(gs > bounds))
    beyond_1us = gs[np.array(cli.FIG3C_DELAYS) > 1000.0 - 1e-9]
    bound_1us = bounds[np.array(cli.FIG3C_DELAYS) > 1000.0 - 1e-9]
    ok = monotone and above and bool(np.all(beyond_1us > bound_1us))
    report(5, "correlation decays with delay but stays non-classical", ok,
           f"g2 {gs[0]:.2f} -> {gs[-1]:.2f}, bound {bounds[-1]:.2f} at "
           f"{cli.FIG3C_DELAYS[-1]:.0f} ns")


def test_criterion_6_heating_fit_round_trip():
    cfg = C.default_config()
    amp = 5.0 * cfg.heating.a_heat
    long_grid = np.linspace(2.0, 150.0, 60)
    short_grid = np.linspace(0.02, 1.0, 40)
    decay = A.fit_exponential(long_grid,
                              protocol.simulate_pump_probe(cfg, amp, long_grid),
                              "decay")
    rise = A.fit_exponential(short_grid,
                             protocol.simulate_pump_probe(cfg, amp, short_grid),
                             "saturating-rise")
    err_decay = abs(decay.time_constant - 34.4) / 34.4
    err_rise = abs(rise.time_constant - 0.37) / 0.37
    ok = err_decay < 0.02 and err_rise < 0.05
    report(6, "pump-probe fits round-trip the heating time constants", ok,
           f"decay {decay.time_constant:.2f} us ({err_decay:.1%}), "
           f"rise {rise.time_constant:.3f} us ({err_rise:.1%})")


def test_criterion_7_heralded_state_chain():
    g_point = F.heralded_autocorr(19.6)
    _, p1, _ = F.fock_fidelity(0.215, 0.04)

    cfg = C.default_config()
    n_max = 16
    mech = F.thermal_state(cfg.heating.n_base, n_max, 1e-6)
    state = F.TwoModeFockState.from_single_modes(mech, F.vacuum_rho(n_max), 1e-6)
    state = F.two_mode_squeeze(state, np.arcsinh(np.sqrt(cfg.protocol.p_pair)))
    g_om = F.g2_cross(state)
    q = F.pair_click_matrix(n_max, *silent_subsets(cfg, cfg.chain.window_write_ns))
    cond = F.conditional_mech_states(state, q)
    heralded = cond[1] + cond[2] + cond[3]
    heralded = heralded / np.trace(heralded).real
    g_direct = F.g2_auto_single(heralded)
    g_approx = F.heralded_autocorr(g_om)
    rel = abs(g_direct - g_approx) / g_direct

    ok = (abs(g_point - 0.215) < 0.005 and abs(p1 - 0.877) < 0.005
          and rel < 0.10)
    report(7, "heralded single-phonon chain", ok,
           f"4/(g-1) at 19.6 = {g_point:.3f}, p1 = {p1:.3f}, "
           f"model heralded g2 {g_direct:.3f} vs approx {g_approx:.3f} "
           f"({rel:.1%})")


def test_criterion_8_statistics_engine():
    # closed form at zero events
    _, _, s_plus = A.binomial_ci(0, 200)
    err_zero = abs(s_plus - (1.0 - 0.16 ** (1.0 / 201)))

    # Gaussian limit: mean half-width vs sqrt(N p (1-p)) / T
    n, t = 100, 10_000
    _, s_minus, s_plus = A.binomial_ci(n, t)
    sigma = np.sqrt(n * (1.0 - n / t)) / t
    z = norm.ppf(1.0 - A.TAIL_MASS)
    err_gauss = abs(0.5 * (s_minus + s_plus) - z * sigma) / (z * sigma)

    # interval coverage under repeated sampling
    rng = np.random.default_rng(12345)
    p_true, t_cov, reps = 0.3, 100, 3000
    p_ml, sm, sp = A.binomial_ci(rng.binomial(t_cov, p_true, size=reps), t_cov)
    coverage = np.count_nonzero((p_ml - sm <= p_true) & (p_true <= p_ml + sp)) / reps

    # most-likely bound never exceeds the geometric mean of the ML g2s
    ml_ok = True
    for c1 in (1, 2, 5, 20):
        for c2 in (1, 3, 12):
            x1 = np.zeros(100_000, dtype=bool)
            x2 = np.zeros(100_000, dtype=bool)
            x1[:60], x2[60 - min(c1, c2):140 - min(c1, c2)] = True, True
            patterns = protocol.SLOT_BITS @ np.array([x1, x2, x1, x2])
            clicked = np.flatnonzero(patterns)
            tt = A.TrialTable(100.0, x1.size, clicked, patterns[clicked])
            aw = A.g2_auto_estimate(tt.pattern_counts(), tt.trials, "WRITE")
            c = dict(aw.counts)
            c["N_coinc"] = c1
            aw = aw._replace(counts=c)
            ar = A.g2_auto_estimate(tt.pattern_counts(), tt.trials, "READ")
            cr = dict(ar.counts)
            cr["N_coinc"] = c2
            ar = ar._replace(counts=cr)
            bound = A.classical_bound(aw, ar)
            g1 = c1 / c["T"] / ((c["N_1"] / c["T"]) * (c["N_2"] / c["T"]))
            g2 = c2 / cr["T"] / ((cr["N_1"] / cr["T"]) * (cr["N_2"] / cr["T"]))
            if bound.value > np.sqrt(g1 * g2) * (1.0 + 1e-6):
                ml_ok = False

    ok = (err_zero < 1e-6 and err_gauss < 0.05
          and 0.63 <= coverage <= 0.73 and ml_ok)
    report(8, "likelihood statistics engine", ok,
           f"zero-count {err_zero:.1e}, gaussian {err_gauss:.1%}, "
           f"coverage {coverage:.1%}, ml-inequality {ml_ok}")


def test_criterion_9_determinism_and_formats(tmp_path, fast_config, monkeypatch):
    # a prime chunk length makes 13 jobs, so forked workers get uneven shares;
    # as many cores as workers, so every worker is forked
    monkeypatch.setattr(protocol, "SAMPLE_CHUNK", 7919)
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 4)
    tables = [protocol.build_outcome_table(fast_config, 100.0)]
    one = protocol.sample_trials(fast_config, tables, 100_000, threads=1)
    identical = all(
        protocol.sample_trials(fast_config, tables, 100_000,
                               threads=threads).records.tobytes()
        == one.records.tobytes() for threads in (2, 4))

    path = tmp_path / "stream.tags"
    tags.write_tagstream(one, path)
    loaded = tags.read_tagstream(path)
    path2 = tmp_path / "stream2.tags"
    tags.write_tagstream(loaded, path2)
    round_trip = path.read_bytes() == path2.read_bytes()

    corrupt = tmp_path / "corrupt.tags"
    corrupt.write_bytes(b"\x00" * 64)
    exit_code = cli.main(["analyze", str(corrupt), "--out", str(tmp_path / "o")])

    ok = identical and round_trip and exit_code == cli.EXIT_FORMAT
    report(9, "deterministic sampling and strict binary format", ok,
           f"threads-identical {identical}, round-trip {round_trip}, "
           f"malformed exit {exit_code}")
