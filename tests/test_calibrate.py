"""Heating-amplitude calibration against a target correlation curve."""

import dataclasses

import pytest

from phononherald import calibrate
from phononherald.config import ConfigError


def test_recovers_known_amplitude(default_config):
    truth = 0.35
    delta_ts = (100.0, 400.0, 1000.0)
    targets = list(zip(delta_ts,
                       calibrate.model_curve(default_config, delta_ts, truth)))
    fitted = calibrate.calibrate_a_heat(default_config, targets)
    assert fitted == pytest.approx(truth, abs=2e-3)


def test_shipped_default_hits_headline_point(default_config):
    curve = calibrate.model_curve(default_config, (100.0,),
                                  default_config.heating.a_heat)
    assert curve[0] == pytest.approx(8.0, abs=0.01)


def test_zero_heating_target_snaps_to_zero(default_config):
    targets = list(zip((100.0, 500.0),
                       calibrate.model_curve(default_config, (100.0, 500.0), 0.0)))
    assert calibrate.calibrate_a_heat(default_config, targets) == 0.0


def test_unreachable_target_raises(default_config):
    # no heating amplitude can push the correlation above the zero-heating
    # curve, let alone to 100x it
    with pytest.raises(calibrate.CalibrationError):
        calibrate.calibrate_a_heat(default_config, [(100.0, 2000.0)])


def test_empty_targets_rejected(default_config):
    with pytest.raises(ConfigError, match="at least one point"):
        calibrate.calibrate_a_heat(default_config, [])
