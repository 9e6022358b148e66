"""Closed form of the one two-mode Gaussian state the detectors see.

The write pulse two-mode squeezes the thermal mechanics (occupation n_b)
with the write photon, at pair probability p = sinh^2 r; heating adds
delta_n phonons; the read pulse swaps a share eps of the mechanics onto
the read photon. Write and read photon then form a phase-insensitive
two-mode Gaussian state fixed by three numbers: the occupations
n_w = p (1 + n_b) and n_r = eps [(1 + p) n_b + p + delta_n], and
d = n_w n_r - |<a_w a_r>|^2 = eps p (1 + n_b) (delta_n - 1). Threshold
detectors of efficiencies eta_w and eta_r both stay silent with probability
1 / (1 + eta_w n_w + eta_r n_r + eta_w eta_r d), the vacuum term of the
inclusion-exclusion that ``protocol`` builds its tables from (Quesada,
Arrazola & Killoran, PRA 98, 062322 (2018)).

d < 0 exactly when the heating adds less than one phonon, delta_n < 1.
Then |<a_w a_r>|^2 > n_w n_r, so the photon-number cross-correlation
1 + |<a_w a_r>|^2 / (n_w n_r) exceeds 2, the Cauchy-Schwarz bound of the
two thermal marginals (auto-correlations 2 each): delta_n = 1 is the
classical boundary that the paper's test probes (Clauser, PRD 9, 853
(1974)).
"""

from __future__ import annotations

import numpy as np


def detected_moments(p_pair: float, n_base: float, delta_n: float,
                     eps_read: float) -> tuple[float, float, float]:
    """(n_w, n_r, d) of the write and read photons; d is kept factored so
    that nothing cancels near the classical boundary."""
    n_w = p_pair * (1.0 + n_base)
    n_r = eps_read * ((1.0 + p_pair) * n_base + p_pair + delta_n)
    d = eps_read * p_pair * (1.0 + n_base) * (delta_n - 1.0)
    return n_w, n_r, d


def log_no_click(n_w, n_r, d, eta_w, eta_r) -> np.ndarray:
    """log P(no click) of ideal threshold detectors of efficiency eta_w on
    the write photon and eta_r on the read photon, as the outer product
    [i, j] over the two efficiency arrays; a zero efficiency leaves that
    photon out. log1p keeps it accurate while P is close to 1."""
    eta_w = np.asarray(eta_w, dtype=float)
    eta_r = np.asarray(eta_r, dtype=float)
    return -np.log1p(np.add.outer(eta_w * n_w, eta_r * n_r)
                     + np.multiply.outer(eta_w, eta_r) * d)
