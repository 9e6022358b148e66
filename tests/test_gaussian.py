"""Closed-form detected state: limiting cases, agreement with the Fock
engine."""

import numpy as np
import pytest

from phononherald import fock as F
from phononherald import gaussian as G


def no_click(moments, eta_w, eta_r):
    """P(no click) table over the efficiency arrays; a zero efficiency leaves
    that photon out."""
    return np.exp(G.log_no_click(*moments, eta_w, eta_r))


def squeezed_pair(n_bar, r):
    """(n_w, n_r, d) of the squeezed pair itself: at eps 1 and no heating the
    read photon is the whole mechanics."""
    return G.detected_moments(np.sinh(r) ** 2, n_bar, 0.0, 1.0)


def fock_squeezed_pair(n_bar, r, n_max):
    """Mechanics (mode A) thermal at n_bar, squeezed with the write photon (B)."""
    mech = F.thermal_state(n_bar, n_max, 1e-6)
    fst = F.TwoModeFockState.from_single_modes(mech, F.vacuum_rho(n_max), 1e-6)
    return F.two_mode_squeeze(fst, r)


class TestStates:
    def test_vacuum(self):
        moments = G.detected_moments(0.0, 0.0, 0.0, 1.0)
        assert moments[:2] == (0.0, 0.0)
        assert no_click(moments, [1.0], [1.0])[0, 0] == pytest.approx(1.0)

    def test_thermal_occupation_and_vacuum_prob(self):
        # no pairs: the read photon is the swapped thermal mechanics
        moments = G.detected_moments(0.0, 0.35, 0.0, 1.0)
        assert moments == pytest.approx((0.0, 0.35, 0.0))
        # geometric ground-state weight 1/(1+n)
        assert no_click(moments, [0.0], [1.0])[0, 0] == pytest.approx(1.0 / 1.35)


class TestOperations:
    def test_squeeze_occupations(self):
        r = 0.2
        n_w, n_r, _ = squeezed_pair(0.0, r)
        assert n_w == pytest.approx(np.sinh(r) ** 2)
        assert n_r == pytest.approx(np.sinh(r) ** 2)

    def test_squeeze_is_symplectic(self):
        # the squeezed vacuum is pure: |<a_w a_r>|^2 = n (n + 1), so d = -n
        # and both photons are silent with probability 1/cosh^2 r
        r = 0.3
        n_w, n_r, d = squeezed_pair(0.0, r)
        assert d == pytest.approx(-n_w, rel=1e-12)
        assert no_click((n_w, n_r, d), [1.0], [1.0])[0, 0] == pytest.approx(
            1.0 / np.cosh(r) ** 2, rel=1e-12)

    def test_beam_splitter_swap(self):
        # eps 1 moves the whole heated mechanics onto the read photon, eps 0
        # none of it
        p, n_base, delta_n = 0.01, 0.4, 0.2
        assert G.detected_moments(p, n_base, delta_n, 1.0)[1] == pytest.approx(
            (1.0 + p) * n_base + p + delta_n)
        assert G.detected_moments(p, n_base, delta_n, 0.0)[1:] == (0.0, 0.0)

    def test_loss_scales_occupation(self):
        full = G.detected_moments(0.0, 0.6, 0.0, 1.0)
        lossy = G.detected_moments(0.0, 0.6, 0.0, 0.25)
        assert lossy[1] == pytest.approx(0.15)
        # a detector of efficiency eta sees the photon after loss eta
        assert no_click(full, [0.0], [0.25])[0, 0] == pytest.approx(
            no_click(lossy, [0.0], [1.0])[0, 0])


class TestFockAgreement:
    """The closed form and the Fock engine must agree wherever both apply."""

    @pytest.mark.parametrize("n_bar,r,eta", [
        (0.0, 0.17, 1.0), (0.025, 0.1, 0.5), (0.1, 0.25, 0.8),
    ])
    def test_mean_and_vacuum_probabilities(self, n_bar, r, eta):
        fst = F.attenuate(fock_squeezed_pair(n_bar, r, 18), "B", eta)
        p = fst.joint_number_distribution()

        n_w, n_r, d = squeezed_pair(n_bar, r)
        silent = no_click((n_w, n_r, d), [0.0, eta], [0.0, 1.0])
        assert fst.mean_occupation("A") == pytest.approx(n_r, abs=1e-9)
        assert fst.mean_occupation("B") == pytest.approx(eta * n_w, abs=1e-9)
        assert float(p[0, 0]) == pytest.approx(silent[1, 1], abs=1e-9)
        assert float(p.sum(axis=1)[0]) == pytest.approx(silent[0, 1], abs=1e-9)

    def test_threshold_click_probability(self):
        # lossy threshold click on one arm, cross-checked between engines
        n_bar, r, eta = 0.05, 0.2, 0.3
        n_max = 18
        p_b = fock_squeezed_pair(n_bar, r, n_max).joint_number_distribution().sum(axis=0)
        p_click_fock = 1.0 - float(p_b @ (1.0 - eta) ** np.arange(n_max + 1))

        silent = no_click(squeezed_pair(n_bar, r), [eta], [0.0])
        assert p_click_fock == pytest.approx(1.0 - silent[0, 0], abs=1e-9)

    def test_heating_and_read_swap(self):
        # heat the mechanics by delta_n < 1 (d < 0) and swap a share eps onto
        # the read photon, for the write photon unobserved and silent
        n_bar, r, delta_n, eps, eta_w, eta_r = 0.025, 0.2, 0.4, 0.3, 0.5, 0.7
        n_max = 24
        ns = np.arange(n_max + 1)
        q_write = np.array([np.ones(n_max + 1), (1.0 - eta_w) ** ns])
        fock = np.empty((2, 2))
        for i, rho in enumerate(F.conditional_mech_states(
                fock_squeezed_pair(n_bar, r, n_max), q_write)):
            weight = float(np.trace(rho).real)
            heated = F.add_thermal_noise(rho / weight, delta_n)
            read = F.beam_splitter(F.TwoModeFockState.from_single_modes(
                heated, F.vacuum_rho(n_max), 1e-6), eps)
            p_r = read.joint_number_distribution().sum(axis=0)
            fock[i] = weight * np.array([p_r.sum(), p_r @ (1.0 - eta_r) ** ns])
            if i == 0:
                read_mean = float(p_r @ ns)

        moments = G.detected_moments(np.sinh(r) ** 2, n_bar, delta_n, eps)
        assert moments[2] < 0.0
        assert read_mean == pytest.approx(moments[1], abs=1e-9)
        np.testing.assert_allclose(no_click(moments, [0.0, eta_w], [0.0, eta_r]),
                                   fock, rtol=0, atol=1e-9)
