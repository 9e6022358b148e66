"""Covariance-matrix oracle: symplectic updates, vacuum probabilities,
agreement with the Fock engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phononherald import fock as F
from phononherald import gaussian as G


def no_click(state, etas):
    """P(no click) of ideal threshold detectors on modes (0, 1): a zero
    efficiency leaves that mode out, so [[1, 0], [0, 1], [1, 1]] gives the
    two single-mode and the joint vacuum probabilities."""
    return np.exp(G.log_vacuum_probability(state, (0, 1), etas))


class TestStates:
    def test_vacuum(self):
        state = G.CovarianceState.vacuum(2)
        assert state.mean_occupation(0) == pytest.approx(0.0)
        assert no_click(state, [1.0, 1.0])[0] == pytest.approx(1.0)

    def test_thermal_occupation_and_vacuum_prob(self):
        state = G.set_thermal(G.CovarianceState.vacuum(2), 0, 0.35)
        assert state.mean_occupation(0) == pytest.approx(0.35)
        # geometric ground-state weight 1/(1+n)
        assert no_click(state, [1.0, 1.0])[0] == pytest.approx(1.0 / 1.35)

    def test_asymmetric_covariance_rejected(self):
        cov = 0.5 * np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError):
            G.CovarianceState(cov)

    def test_uncertainty_violation_rejected(self):
        with pytest.raises(ValueError):
            G.CovarianceState(0.1 * np.eye(2))

    def test_cov_write_locked(self):
        state = G.CovarianceState.vacuum(1)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 3.0


class TestOperations:
    def test_squeeze_occupations(self):
        r = 0.2
        state = G.two_mode_squeeze(G.CovarianceState.vacuum(2), 0, 1, r)
        assert state.mean_occupation(0) == pytest.approx(np.sinh(r) ** 2)
        assert state.mean_occupation(1) == pytest.approx(np.sinh(r) ** 2)

    def test_squeeze_is_symplectic(self):
        state = G.two_mode_squeeze(G.CovarianceState.vacuum(2), 0, 1, 0.3)
        # pure states keep det(2 cov) = 1
        assert np.linalg.det(2.0 * state.cov) == pytest.approx(1.0, abs=1e-10)

    def test_beam_splitter_swap(self):
        state = G.set_thermal(G.CovarianceState.vacuum(2), 0, 0.4)
        out = G.beam_splitter(state, 0, 1, 1.0)
        assert out.mean_occupation(0) == pytest.approx(0.0, abs=1e-12)
        assert out.mean_occupation(1) == pytest.approx(0.4)

    def test_loss_scales_occupation(self):
        state = G.set_thermal(G.CovarianceState.vacuum(1), 0, 0.6)
        out = G.loss(state, 0, 0.25)
        assert out.mean_occupation(0) == pytest.approx(0.15)


class TestFockAgreement:
    """The two engines must agree wherever both apply."""

    @pytest.mark.parametrize("n_bar,r,eta", [
        (0.0, 0.17, 1.0), (0.025, 0.1, 0.5), (0.1, 0.25, 0.8),
    ])
    def test_mean_and_vacuum_probabilities(self, n_bar, r, eta):
        n_max = 18
        mech = F.thermal_state(n_bar, n_max, 1e-6)
        fst = F.TwoModeFockState.from_single_modes(mech, F.vacuum_rho(n_max), 1e-6)
        fst = F.two_mode_squeeze(fst, r)
        fst = F.attenuate(fst, "B", eta)
        p = fst.joint_number_distribution()

        gst = G.set_thermal(G.CovarianceState.vacuum(2), 0, n_bar)
        gst = G.loss(G.two_mode_squeeze(gst, 0, 1, r), 1, eta)
        no_click_a, _, joint = no_click(gst, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert fst.mean_occupation("A") == pytest.approx(
            gst.mean_occupation(0), abs=1e-9)
        assert fst.mean_occupation("B") == pytest.approx(
            gst.mean_occupation(1), abs=1e-9)
        assert float(p[0, 0]) == pytest.approx(joint, abs=1e-9)
        assert float(p.sum(axis=1)[0]) == pytest.approx(no_click_a, abs=1e-9)

    def test_threshold_click_probability(self):
        # lossy threshold click on one arm, cross-checked between engines
        n_bar, r, eta = 0.05, 0.2, 0.3
        n_max = 18
        mech = F.thermal_state(n_bar, n_max, 1e-6)
        fst = F.TwoModeFockState.from_single_modes(mech, F.vacuum_rho(n_max), 1e-6)
        fst = F.two_mode_squeeze(fst, r)
        p_b = fst.joint_number_distribution().sum(axis=0)
        p_click_fock = 1.0 - float(p_b @ (1.0 - eta) ** np.arange(n_max + 1))

        gst = G.set_thermal(G.CovarianceState.vacuum(2), 0, n_bar)
        gst = G.two_mode_squeeze(gst, 0, 1, r)
        assert p_click_fock == pytest.approx(
            1.0 - no_click(gst, [0.0, eta])[0], abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(n_bar=st.floats(0.0, 1.0), eta=st.floats(0.0, 1.0))
def test_loss_preserves_validity(n_bar, eta):
    state = G.loss(G.set_thermal(G.CovarianceState.vacuum(1), 0, n_bar), 0, eta)
    assert state.mean_occupation(0) == pytest.approx(eta * n_bar, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.0, 1.5), t=st.floats(0.0, 1.0))
def test_passive_ops_commute_with_total_number(r, t):
    state = G.two_mode_squeeze(G.CovarianceState.vacuum(2), 0, 1, r)
    total = state.mean_occupation(0) + state.mean_occupation(1)
    out = G.beam_splitter(state, 0, 1, t)
    assert out.mean_occupation(0) + out.mean_occupation(1) == \
        pytest.approx(total, abs=1e-9)
