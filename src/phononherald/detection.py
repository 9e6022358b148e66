"""Threshold (click / no-click) detector models.

SNSPD-style detectors: a mode with n photons produces a click with
probability 1 - (1-eta)^n, independently convolved with dark counts
(per-window probability) and Poissonian leaked pump photons (mean photon
number per pulse reaching the detector, thinned by the same efficiency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DetectorModel:
    """One threshold detector.

    efficiency: per-photon detection probability for photons in the
        monitored mode. When two detectors share one mode behind a
        beam-splitter, the split ratio is folded into each efficiency.
    dark_prob: probability of at least one dark count in the window.
    leak_mean: mean leaked pump photons reaching this detector per pulse.
    """

    efficiency: float
    dark_prob: float = 0.0
    leak_mean: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency {self.efficiency} outside [0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValueError(f"dark_prob {self.dark_prob} outside [0, 1)")
        if self.leak_mean < 0.0:
            raise ValueError(f"leak_mean {self.leak_mean} must be >= 0")

    @property
    def background_log_silent_prob(self) -> float:
        """log P(neither dark counts nor leak produce a click), kept as a log
        to stay accurate while the probability is close to 1."""
        return float(np.log1p(-self.dark_prob)) - self.efficiency * self.leak_mean


# P(pattern 2*click1 + click2) = PATTERN_FROM_SILENT @ P(subset silent), with
# the silent subsets ordered {}, {1}, {2}, {1, 2} (inclusion-exclusion)
PATTERN_FROM_SILENT = np.array([
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, -1.0],
    [1.0, -1.0, -1.0, 1.0],
])


def silent_subsets(det1: DetectorModel, det2: DetectorModel):
    """Summed efficiency and log background-silent factor of each subset.

    Returns (eta, log_b), each of length 4 in PATTERN_FROM_SILENT order.
    Every detector in a subset S stays silent with probability
    exp(log_b[S]) * (1 - eta[S])^n given n photons in the mode.
    """
    e1, e2 = det1.efficiency, det2.efficiency
    if e1 + e2 > 1.0 + 1e-12:
        raise ValueError(f"combined efficiencies {e1}+{e2} exceed 1")
    l1, l2 = det1.background_log_silent_prob, det2.background_log_silent_prob
    return (np.array([0.0, e1, e2, min(e1 + e2, 1.0)]),
            np.array([0.0, l1, l2, l1 + l2]))

