"""Truncated Fock engine: analytic statistics, channel invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import binom, xlog1py

from phononherald import config as config_mod
from phononherald import fock as F
from phononherald.detection import PATTERN_FROM_SILENT, silent_subsets

N_MAX = 16


def tmsv(mu, n_max=N_MAX, n_bar=0.0):
    """Two-mode squeezed state on a thermal seed, sinh^2 r = mu."""
    mech = F.thermal_state(n_bar, n_max, leak_tol=1e-6)
    state = F.TwoModeFockState.from_single_modes(mech, F.vacuum_rho(n_max), 1e-6)
    return F.two_mode_squeeze(state, np.arcsinh(np.sqrt(mu)))


class TestConstructors:
    def test_thermal_mean(self):
        rho = F.thermal_state(0.2, 20)
        assert np.real(np.diag(rho)) @ np.arange(21) == pytest.approx(0.2, abs=1e-10)

    def test_thermal_truncation_guard(self):
        with pytest.raises(F.TruncationError):
            F.thermal_state(2.0, 4, leak_tol=1e-8)

    def test_vacuum_is_pure(self):
        state = F.TwoModeFockState.vacuum(4)
        assert np.trace(state.rho @ state.rho).real == pytest.approx(1.0)

    def test_rho_is_write_locked_and_copied(self):
        rho = np.kron(F.vacuum_rho(3), F.vacuum_rho(3))
        state = F.TwoModeFockState(rho, 3)
        rho[0, 0] = 0.5  # caller mutation must not corrupt the state
        assert state.rho[0, 0] == 1.0
        with pytest.raises(ValueError):
            state.rho[0, 0] = 0.0

    def test_trace_violation_rejected(self):
        with pytest.raises(F.StateInvariantError):
            F.TwoModeFockState(2.0 * np.kron(F.vacuum_rho(2), F.vacuum_rho(2)), 2)

    def test_non_hermitian_rejected(self):
        rho = np.kron(F.vacuum_rho(2), F.vacuum_rho(2))
        rho[0, 1] = 1e-3
        with pytest.raises(F.StateInvariantError):
            F.TwoModeFockState(rho, 2)


    @pytest.mark.parametrize("least", [-2e-10, -5e-11], ids=["below", "above"])
    def test_positivity_at_the_eigenvalue_tolerance(self, least):
        # a least eigenvalue on either side of EIGENVALUE_TOL = -1e-10, in a
        # random basis that mixes every level
        n_max, d = 8, 81
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        w = np.full(d, (1.0 - least) / (d - 1))
        w[0] = least
        rho = (q * w) @ q.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        assert np.linalg.eigvalsh(rho).min() == pytest.approx(least, rel=1e-3)
        if least < F.EIGENVALUE_TOL:
            with pytest.raises(F.StateInvariantError, match="negative eigenvalue -2.000e-10"):
                F.TwoModeFockState(rho, n_max, leak_tol=1.0)
        else:
            F.TwoModeFockState(rho, n_max, leak_tol=1.0)


class TestAnalyticStatistics:
    def test_thermal_g2_is_2(self):
        mech = F.thermal_state(0.1, 24)
        state = F.TwoModeFockState.from_single_modes(mech, F.vacuum_rho(24), 1e-6)
        assert F.g2_auto(state, "A") == pytest.approx(2.0, abs=1e-8)

    def test_fock1_g2_is_0(self):
        state = F.TwoModeFockState.from_single_modes(F.fock_state(1, 6),
                                                     F.vacuum_rho(6))
        assert F.g2_auto(state, "A") == pytest.approx(0.0, abs=1e-12)

    def test_tmsv_cross_correlation(self):
        # pair-generation regime: g2_om = 2 + 1/mu
        mu = 0.03
        assert F.g2_cross(tmsv(mu)) == pytest.approx(2.0 + 1.0 / mu, abs=1e-6)

    def test_tmsv_marginal_is_thermal(self):
        state = tmsv(0.05)
        assert F.g2_auto(state, "A") == pytest.approx(2.0, abs=1e-8)
        assert F.g2_auto(state, "B") == pytest.approx(2.0, abs=1e-8)

    def test_tmsv_number_correlations_diagonal(self):
        p = tmsv(0.05).joint_number_distribution()
        off = p - np.diag(np.diag(p))
        assert np.abs(off).max() < 1e-14

    def test_tmsv_pair_ratio(self):
        # P(1,1)/P(0,0) = tanh^2 r = mu/(1+mu)
        mu = 0.04
        p = tmsv(mu).joint_number_distribution()
        assert p[1, 1] / p[0, 0] == pytest.approx(mu / (1.0 + mu), abs=1e-10)

    def test_vacuum_g2_undefined(self):
        with pytest.raises(F.UndefinedCorrelationError):
            F.g2_auto(F.TwoModeFockState.vacuum(4), "A")


class TestChannels:
    def test_loss_invariance_of_g2(self):
        # linear loss rescales intensities but not normalized correlations
        state = tmsv(0.05, n_bar=0.02)
        g_cross = F.g2_cross(state)
        g_auto = F.g2_auto(state, "B")
        lossy = F.attenuate(F.attenuate(state, "B", 0.3), "A", 0.7)
        assert F.g2_cross(lossy) == pytest.approx(g_cross, abs=1e-8)
        assert F.g2_auto(lossy, "B") == pytest.approx(g_auto, abs=1e-8)

    def test_hbt_invariance(self):
        # splitting one thermal mode on a 50/50 splitter: the cross
        # correlation of the outputs equals the input autocorrelation
        mech = F.thermal_state(0.08, 20)
        state = F.TwoModeFockState.from_single_modes(mech, F.vacuum_rho(20), 1e-6)
        g_in = F.g2_auto(state, "A")
        split = F.beam_splitter(state, 0.5)
        assert F.g2_cross(split) == pytest.approx(g_in, abs=1e-8)
        assert F.g2_auto(split, "A") == pytest.approx(g_in, abs=1e-8)

    def test_beam_splitter_full_swap(self):
        state = F.TwoModeFockState.from_single_modes(F.fock_state(2, 6),
                                                     F.vacuum_rho(6))
        swapped = F.beam_splitter(state, 1.0)
        assert swapped.mean_occupation("A") == pytest.approx(0.0, abs=1e-10)
        assert swapped.mean_occupation("B") == pytest.approx(2.0, abs=1e-10)

    def test_beam_splitter_energy_conservation(self):
        state = tmsv(0.05, n_bar=0.03)
        total = state.mean_occupation("A") + state.mean_occupation("B")
        out = F.beam_splitter(state, 0.31)
        assert out.mean_occupation("A") + out.mean_occupation("B") == \
            pytest.approx(total, abs=1e-10)

    def test_loss_kraus_complete(self):
        ops = F.loss_kraus(0.4, 10)
        total = sum(k.conj().T @ k for k in ops)
        assert np.abs(total - np.eye(11)).max() < 1e-12

    def test_attenuate_scales_mean(self):
        state = tmsv(0.05)
        lossy = F.attenuate(state, "B", 0.25)
        assert lossy.mean_occupation("B") == \
            pytest.approx(0.25 * state.mean_occupation("B"), abs=1e-10)

    def test_add_thermal_noise_mean(self):
        rho = F.thermal_state(0.02, 14, 1e-6)
        out = F.add_thermal_noise(rho, 0.4)
        mean = np.real(np.diag(out)) @ np.arange(15)
        assert mean == pytest.approx(0.42, abs=1e-7)

    def test_add_thermal_noise_keeps_thermal(self):
        # a heated thermal state is again thermal: g2 stays exactly 2
        rho = F.thermal_state(0.02, 16, 1e-6)
        out = F.add_thermal_noise(rho, 0.3)
        assert F.g2_auto_single(out) == pytest.approx(2.0, abs=1e-6)
        probs = np.real(np.diag(out))
        ratio = probs[1:6] / probs[:5]
        assert np.ptp(ratio) < 1e-6

    def test_add_thermal_noise_rejects_negative(self):
        with pytest.raises(ValueError):
            F.add_thermal_noise(F.vacuum_rho(4), -0.1)

    def test_two_mode_squeeze_rejects_negative(self):
        with pytest.raises(ValueError):
            F.two_mode_squeeze(F.TwoModeFockState.vacuum(4), -0.2)


def dense_loss(rho, mode, eta, n_max):
    """The loss channel as a dense Kraus sum: sum_k K rho K^dag with K = K_k
    (x) 1 for mode "A", 1 (x) K_k for mode "B", K_k for a single-mode rho."""
    eye = np.eye(n_max + 1)
    out = np.zeros_like(rho)
    for k in F.loss_kraus(eta, n_max):
        full = {"A": np.kron(k, eye), "B": np.kron(eye, k), None: k}[mode]
        out += full @ rho @ full.conj().T
    return out


@settings(max_examples=60, deadline=None)
@given(n_max=st.integers(3, 10), eta=st.floats(0.0, 1.0), n_bar=st.floats(0.0, 0.5),
       r=st.floats(0.0, 0.8), t=st.floats(0.0, 1.0), phase=st.floats(0.0, 2 * np.pi))
def test_attenuate_matches_dense_kraus_sum(n_max, eta, n_bar, r, t, phase):
    # a squeezed thermal pair after a beam splitter, with a phase per basis
    # state: each mode has complex coherences, no mode's operator is
    # symmetric and the two modes differ
    d = n_max + 1
    mech = F.thermal_state(n_bar, n_max, leak_tol=1.0)
    pair = F.TwoModeFockState.from_single_modes(mech, F.vacuum_rho(n_max), leak_tol=1.0)
    pair = F.beam_splitter(F.two_mode_squeeze(pair, r), t)
    u = np.exp(1j * phase * np.arange(d * d))
    state = F.TwoModeFockState(u[:, None] * pair.rho * u.conj(), n_max, leak_tol=1.0)
    for mode in ("A", "B"):
        got = F.attenuate(state, mode, eta).rho
        np.testing.assert_allclose(got, dense_loss(state.rho, mode, eta, n_max),
                                   rtol=0, atol=1e-14)
        single = state.reduced(mode)
        np.testing.assert_allclose(F.attenuate_single(single, eta),
                                   dense_loss(single, None, eta, n_max), rtol=0, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(mu=st.floats(0.0, 0.15), eta=st.floats(0.0, 1.0))
def test_attenuate_preserves_state_invariants(mu, eta):
    state = F.attenuate(tmsv(mu, n_max=10), "B", eta)
    assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(state.rho).min() > -1e-10


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.0, 0.4))
def test_squeeze_preserves_purity(r):
    state = F.two_mode_squeeze(F.TwoModeFockState.vacuum(14, 1e-4), r)
    purity = np.trace(state.rho @ state.rho).real
    assert purity == pytest.approx(1.0, abs=1e-7)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.0, 1.0), mu=st.floats(0.001, 0.1))
def test_beam_splitter_transfers_fraction(t, mu):
    # n_max 12: at n_max 10 the split state leaks past the cutoff for
    # mu >= ~0.094 (see the test below)
    state = tmsv(mu, n_max=12)
    n_a = state.mean_occupation("A")
    out = F.beam_splitter(state, t)
    # mode B starts in vacuum, so it receives exactly t of mode A's photons
    assert out.mean_occupation("B") == pytest.approx(
        t * n_a + (1 - t) * state.mean_occupation("B"), abs=1e-9)


def test_beam_splitter_truncation_guard():
    # a balanced split of the mu = 0.1 pair state pushes more than leak_tol
    # into the top level of an n_max 10 space
    state = tmsv(0.1, n_max=10)
    with pytest.raises(F.TruncationError):
        F.beam_splitter(state, 0.5)


class TestHeraldedChain:
    def test_heralded_autocorr_value(self):
        assert F.heralded_autocorr(19.6) == pytest.approx(0.215, abs=0.005)

    def test_heralded_autocorr_undefined_at_or_below_1(self):
        with pytest.raises(ValueError):
            F.heralded_autocorr(1.0)

    def test_fock_fidelity_headline_point(self):
        p0, p1, p_multi = F.fock_fidelity(0.215, 0.04)
        assert p0 == 0.04
        assert p1 == pytest.approx(0.877, abs=0.005)
        assert p0 + p1 + p_multi == pytest.approx(1.0, abs=1e-12)

    def test_fock_fidelity_pure_single_photon(self):
        p0, p1, p_multi = F.fock_fidelity(0.0, 0.0)
        assert (p0, p1, p_multi) == (0.0, 1.0, 0.0)

    def test_fock_fidelity_validates(self):
        with pytest.raises(ValueError):
            F.fock_fidelity(-0.1, 0.0)
        with pytest.raises(ValueError):
            F.fock_fidelity(0.2, 1.0)


class TestScipyParity:
    """The oracle's binomials and n ln(1 - eta) exponents come from the
    standard library and numpy; scipy.special, which supplied them before,
    is the reference."""

    @pytest.mark.parametrize("n_max", [8, 16, 22])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_loss_kraus(self, eta, n_max):
        for k, op in enumerate(F.loss_kraus(eta, n_max)):
            m = np.arange(n_max + 1 - k)
            want = np.zeros_like(op)
            want[m, m + k] = np.sqrt(binom(m + k, k) * eta ** m * (1 - eta) ** k)
            np.testing.assert_array_max_ulp(op, want, maxulp=1)

    @pytest.mark.parametrize("efficiency_sum_1", [False, True])
    def test_pair_click_matrix(self, default_config, efficiency_sum_1):
        cfg = default_config
        if efficiency_sum_1:
            # subset {1, 2} has eta = 1: its n = 0 exponent is 0 ln 0 = 0
            cfg = cfg.replace(chain=dataclasses.replace(
                cfg.chain, eta_fc=1.0, eta_c=1.0, eta_qe1=1.0, eta_qe2=1.0,
                eta_path1=0.5, eta_path2=0.5))
            config_mod.check(cfg)
        n_max = N_MAX
        for window in (cfg.chain.window_write_ns, cfg.chain.window_read_ns):
            eta, log_b = silent_subsets(cfg, window)
            assert (eta[3] == 1.0) == efficiency_sum_1
            got = F.pair_click_matrix(n_max, eta, log_b)
            log_silent = xlog1py(np.arange(n_max + 1), -eta[:, None]) + log_b[:, None]
            complement = np.expm1(log_silent)
            want = PATTERN_FROM_SILENT @ complement
            want[0] = np.exp(log_silent[3])
            # a click pattern is an alternating sum of silent-probability
            # complements, whose cancellation turns one ulp of a complement
            # into up to ~1e5 ulp of the pattern: allow one ulp of each
            # complement the pattern sums, and one ulp of the all-silent row
            ulp = np.abs(PATTERN_FROM_SILENT) @ np.spacing(np.abs(complement))
            ulp[0] = np.spacing(want[0])
            assert np.isfinite(got).all()
            assert np.all(np.abs(got - want) <= ulp)
