"""Threshold (click / no-click) detector model.

SNSPD-style detectors: a mode with n photons produces a click with
probability 1 - (1-eta)^n, independently convolved with dark counts
(per-window probability) and Poissonian leaked pump photons (mean photon
number per pulse reaching the detector, thinned by the same efficiency).
Two detectors split one optical mode, so their efficiencies, which fold in
the split ratio, sum to at most 1.
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig

# P(pattern 2*click1 + click2) = PATTERN_FROM_SILENT @ P(subset silent), with
# the silent subsets ordered {}, {1}, {2}, {1, 2} (inclusion-exclusion)
PATTERN_FROM_SILENT = np.array([
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, -1.0],
    [1.0, -1.0, -1.0, 1.0],
])


def silent_subsets(config: ExperimentConfig, window_ns: float):
    """Summed efficiency and log background-silent factor of each subset of
    the chain's two detectors in a window of ``window_ns``.

    Returns (eta, log_b), each of length 4 in PATTERN_FROM_SILENT order.
    Every detector in a subset S stays silent with probability
    exp(log_b[S]) * (1 - eta[S])^n given n photons in the mode; log_b is
    kept as a log to stay accurate while the probability is close to 1.
    """
    chain = config.chain
    e1, e2 = chain.detector_efficiency(1), chain.detector_efficiency(2)
    dark = chain.dark_prob(window_ns)
    leak = chain.leak_mean_photons(config.protocol.p_pair)
    log_dark = float(np.log1p(-dark))
    l1, l2 = log_dark - e1 * leak, log_dark - e2 * leak
    return (np.array([0.0, e1, e2, e1 + e2]),
            np.array([0.0, l1, l2, l1 + l2]))
