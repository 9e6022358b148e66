"""Calibration of the unpublished heating amplitude.

The pump-probe literature fixes the rise/decay time constants but not the
heating amplitude at write-pulse energies, so ``a_heat`` is fitted by
matching the model cross-correlation curve g2_om(delta_t) to a measured
(or target) curve.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import ConfigError, ExperimentConfig
from .protocol import build_outcome_table

A_HEAT_BOUNDS = (0.0, 5.0)
RESIDUAL_REL_TOL = 0.05


class CalibrationError(Exception):
    """No heating amplitude in the search bounds reproduces the target."""


def model_curve(config: ExperimentConfig, delta_ts, a_heat: float) -> np.ndarray:
    heated = config.replace(
        heating=dataclasses.replace(config.heating, a_heat=float(a_heat)))
    return np.array([
        build_outcome_table(heated, dt).g2_cross_implied() for dt in delta_ts])


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

    def cost(a):
        return float(np.sum((model_curve(config, delta_ts, a) - g_target) ** 2))

    from scipy import optimize  # lazy: slow to import, and only this stage needs it
    result = optimize.minimize_scalar(
        cost, bounds=A_HEAT_BOUNDS, method="bounded",
        options={"xatol": 1e-4})
    best = float(result.x)
    rms = np.sqrt(cost(best) / len(targets))
    if rms > RESIDUAL_REL_TOL * np.abs(g_target).mean():
        raise CalibrationError(
            f"bounded search over a_heat in {A_HEAT_BOUNDS} cannot reach the "
            f"target curve (best a_heat={best:.4f}, rms residual {rms:.3f})")
    # the correlation decays monotonically in a_heat, so a flat maximum at
    # the lower bound means "no heating"
    if best < 1e-3 and cost(0.0) <= cost(best) + 1e-12:
        best = 0.0
    return best
