"""Closed-form Gaussian outcome tables against the truncated Fock oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phononherald import config as config_mod
from phononherald import fock as F
from phononherald import gaussian as G
from phononherald import protocol
from phononherald.detection import silent_subsets


def fock_outcome_table(config, delta_t_ns, n_max):
    """The write/heat/read pipeline evolved as truncated density matrices.

    Conditions the mechanics on each write pattern, adds the heating noise,
    swaps a share into the read mode and applies the read-side click POVM.
    Raises fock.TruncationError when a state leaks past the cutoff.
    """
    leak_tol = ORACLE_LEAK_TOL
    proto, heat = config.protocol, config.heating

    mech = F.thermal_state(heat.n_base, n_max, leak_tol)
    state = F.TwoModeFockState.from_single_modes(mech, F.vacuum_rho(n_max), leak_tol)
    state = F.two_mode_squeeze(state, np.arcsinh(np.sqrt(proto.p_pair)))
    q_write = F.pair_click_matrix(n_max, *silent_subsets(config, config.chain.window_write_ns))
    cond = F.conditional_mech_states(state, q_write)
    weights = np.array([float(np.trace(c).real) for c in cond])

    delta_n = protocol.heating_occupation(delta_t_ns, heat) - heat.n_base + heat.read_heat
    delta_n = max(delta_n, 0.0)
    q_read = F.pair_click_matrix(n_max, *silent_subsets(config, config.chain.window_read_ns))

    probs = np.empty(16)
    for wp, (rho_c, w) in enumerate(zip(cond, weights)):
        rho_m = F.add_thermal_noise(rho_c / w, delta_n)
        pair = F.TwoModeFockState.from_single_modes(rho_m, F.vacuum_rho(n_max), leak_tol)
        pair = F.beam_splitter(pair, proto.eps_read)
        read_marginal = pair.joint_number_distribution().sum(axis=0)
        probs[wp * 4: wp * 4 + 4] = w * (q_read @ read_marginal)
    return protocol.OutcomeTable(delta_t_ns, probs)


# The oracle runs at cutoff n_max 16 on the default config. The heralded
# states of the other two, heated for 1500 ns, lose 2e-8..3e-8 of their
# read-time occupation past level 16 (< 4e-10 at n_max 20). Every state's
# top level holds at most ORACLE_LEAK_TOL.
ORACLE_N_MAX = {"default_config": 16, "fast_config": 20, "read_heat_config": 20}
ORACLE_LEAK_TOL = 1e-6

# Inclusion-exclusion cancels the silent probabilities (each within ~1e-3
# of 1) down to the ~2e-13 four-click patterns. Summing complements keeps
# those to ~2e-6 relative, so every pattern agrees to 1e-14 absolute and the
# implied statistics, dominated by multi-click patterns, to 1e-8 relative.
PATTERN_ABS_TOL = 1e-14
IMPLIED_REL_TOL = 1e-8


@pytest.fixture
def read_heat_config(default_config):
    return default_config.replace(
        heating=dataclasses.replace(default_config.heating, read_heat=0.05))


@pytest.mark.parametrize("config_name", sorted(ORACLE_N_MAX))
@pytest.mark.parametrize("delta_t_ns", [0.0, 100.0, 1500.0])
def test_closed_form_matches_fock_oracle(request, config_name, delta_t_ns):
    cfg = request.getfixturevalue(config_name)
    n_max = ORACLE_N_MAX[config_name]
    got = protocol.build_outcome_table(cfg, delta_t_ns)
    want = fock_outcome_table(cfg, delta_t_ns, n_max)
    np.testing.assert_allclose(got.probs, want.probs, rtol=0, atol=PATTERN_ABS_TOL)
    # g2_om, g2_WW, g2_RR and the bound sqrt(g2_WW * g2_RR) of each table
    got_g2, want_g2 = (np.append(g, np.sqrt(g[1] * g[2])) for g in (
        protocol.pattern_g2(t.probs)[0] for t in (got, want)))
    for name, g, w in zip(("g2_om", "g2_WW", "g2_RR", "bound"), got_g2, want_g2):
        assert g == pytest.approx(w, rel=IMPLIED_REL_TOL), name


def test_thermometry_probs_match_fock_oracle(default_config):
    cfg = default_config
    n_max = ORACLE_N_MAX["default_config"]
    mech = F.thermal_state(cfg.heating.n_base, n_max, ORACLE_LEAK_TOL)
    base = F.TwoModeFockState.from_single_modes(mech, F.vacuum_rho(n_max), ORACLE_LEAK_TOL)
    strength, n_base = cfg.protocol.p_pair, cfg.heating.n_base
    blue = F.two_mode_squeeze(base, np.arcsinh(np.sqrt(strength)))
    red = F.beam_splitter(base, strength)
    # the ideal asymmetry uses the same chain without dark counts or leak
    ideal = cfg.replace(chain=dataclasses.replace(cfg.chain, dark_rate_hz=0.0,
                                                  leak_fraction=0.0))
    click = {}  # (chain, colour) -> 1 - P(no write-window click), by the oracle
    for name, chain_cfg in (("chain", cfg), ("ideal", ideal)):
        eta, log_b = silent_subsets(chain_cfg, chain_cfg.chain.window_write_ns)
        q = F.pair_click_matrix(n_max, eta, log_b)
        click[name, None] = 1.0 - q[0, 0]  # no photon: the background alone
        for colour, n_bar, state in (("blue", strength * (1.0 + n_base), blue),
                                     ("red", strength * n_base, red)):
            want = q[0] @ state.joint_number_distribution().sum(axis=0)
            # the closed form that simulate_thermometry draws clicks with
            got = np.exp(log_b[3] + G.log_no_click(n_bar, 0.0, 0.0, eta[3], 0.0))
            assert abs(got - want) <= PATTERN_ABS_TOL
            click[name, colour] = 1.0 - want
    result = protocol.simulate_thermometry(cfg, 2)
    assert result.ideal_asymmetry == pytest.approx(
        click["ideal", "blue"] / click["ideal", "red"], rel=IMPLIED_REL_TOL, abs=0)
    assert abs(result.background_click_prob - click["chain", None]) <= PATTERN_ABS_TOL


@settings(max_examples=60, deadline=None)
@given(eta_path1=st.floats(1e-4, 0.5), eta_path2=st.floats(1e-4, 0.5),
       p_pair=st.floats(1e-4, 1.0), eps_read=st.floats(0.0, 1.0),
       a_heat=st.floats(0.0, 5.0), delta_t_ns=st.sampled_from([0.0, 100.0, 1500.0]))
def test_table_guard_holds(eta_path1, eta_path2, p_pair, eps_read, a_heat,
                           delta_t_ns):
    # efficiencies are the path factors alone (unit coupling and QE)
    cfg = config_mod.default_config()
    cfg = cfg.replace(
        chain=dataclasses.replace(cfg.chain, eta_fc=1.0, eta_c=1.0, eta_qe1=1.0,
                                  eta_qe2=1.0, eta_path1=eta_path1,
                                  eta_path2=eta_path2),
        protocol=dataclasses.replace(cfg.protocol, p_pair=p_pair, eps_read=eps_read),
        heating=dataclasses.replace(cfg.heating, a_heat=a_heat))
    # the OutcomeTable constructor raises unless both of these hold
    table = protocol.build_outcome_table(cfg, delta_t_ns)
    assert abs(table.probs.sum() - 1.0) <= protocol.PROB_SUM_TOL
    assert table.probs.min() >= -1e-15
