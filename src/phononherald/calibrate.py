"""Calibration of the unpublished heating amplitude.

The pump-probe literature fixes the rise/decay time constants but not the
heating amplitude at write-pulse energies, so ``a_heat`` is fitted by
matching the model cross-correlation curve g2_om(delta_t) to a measured
(or target) curve. The fit is a golden-section search over A_HEAT_BOUNDS,
the same one ``analysis.fit_exponential`` uses.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .analysis import _golden_section
from .config import ConfigError, ExperimentConfig
from .protocol import CalibrationError, build_outcome_table, pattern_g2

A_HEAT_BOUNDS = (0.0, 5.0)
RESIDUAL_REL_TOL = 0.05


def model_curve(config: ExperimentConfig, delta_ts, a_heat: float) -> np.ndarray:
    heated = config.replace(
        heating=dataclasses.replace(config.heating, a_heat=float(a_heat)))
    return np.array([pattern_g2(build_outcome_table(heated, dt).probs, names=("g2_om",))[0][0]
                     for dt in delta_ts])


def calibrate_a_heat(config: ExperimentConfig, targets) -> float:
    """Fit a_heat to target (delta_t_ns, g2_om) points by least squares.

    Raises CalibrationError when the best fit misses the target curve by
    more than RESIDUAL_REL_TOL of its mean (unreachable target).
    """
    targets = list(targets)
    if not targets:
        raise ConfigError("calibration target: need at least one point")
    delta_ts = np.array([p[0] for p in targets], dtype=float)
    g_target = np.array([p[1] for p in targets], dtype=float)
    if not (np.isfinite(delta_ts).all() and np.isfinite(g_target).all()):
        raise ConfigError("calibration target: points must be finite")
    if (delta_ts < 0).any():
        raise ConfigError("calibration target: delays must be >= 0")

    def cost(a):
        return float(np.sum((model_curve(config, delta_ts, a) - g_target) ** 2))

    least, best = _golden_section(cost, *A_HEAT_BOUNDS, xatol=1e-4)
    rms = np.sqrt(least / len(targets))
    if rms > RESIDUAL_REL_TOL * np.abs(g_target).mean():
        raise CalibrationError(
            f"bounded search over a_heat in {A_HEAT_BOUNDS} cannot reach the "
            f"target curve (best a_heat={best:.4f}, rms residual {rms:.3f})")
    return best
