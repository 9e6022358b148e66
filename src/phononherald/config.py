"""Experiment configuration: schema, validation, canonical hashing.

Configs are plain JSON. The canonical serialization (sorted keys, compact
separators, repr floats) feeds a 64-bit FNV-1a hash that is embedded in
every tag-stream header, so analysis can detect config drift.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field


class ConfigError(Exception):
    """Schema violation; message carries the offending field path."""


@dataclass(frozen=True)
class DeviceParams:
    """Informational device parameters (not used by the counting model)."""

    omega_m_ghz: float = 5.307      # mechanical breathing-mode frequency
    kappa_c_ghz: float = 1.3        # optical cavity linewidth (FWHM)
    g0_khz: float = 825.0           # single-photon optomechanical coupling
    q_factor: float = 1.1e6         # mechanical quality factor


@dataclass(frozen=True)
class DetectionChain:
    """Detection-chain efficiencies and background sources.

    eta_path_i folds in the 50/50 splitter, filter and fiber losses, so the
    per-detector efficiencies eta_i = eta_c * eta_fc * eta_path_i * eta_qe_i
    come out at 1.1% / 1.6% and sum to the ~2.7% overall efficiency.
    """

    eta_fc: float = 0.603           # fiber-to-chip coupling, one-way
    eta_c: float = 0.5              # cavity extraction kappa_ext / kappa_c
    eta_path1: float = 0.05613      # -> eta_1 = 1.1%
    eta_path2: float = 0.05895      # -> eta_2 = 1.6%
    eta_qe1: float = 0.65
    eta_qe2: float = 0.90
    dark_rate_hz: float = 10.0
    suppression_db: float = 84.0    # pump rejection, informational
    leak_fraction: float = 0.04     # leaked pump share of write-window clicks
    window_write_ns: float = 40.0
    window_read_ns: float = 55.0

    def detector_efficiency(self, index: int) -> float:
        path = self.eta_path1 if index == 1 else self.eta_path2
        qe = self.eta_qe1 if index == 1 else self.eta_qe2
        return self.eta_c * self.eta_fc * path * qe

    def dark_prob(self, window_ns: float) -> float:
        return self.dark_rate_hz * window_ns * 1e-9

    def leak_mean_photons(self, p_pair: float) -> float:
        """Mean leaked pump photons per detector per pulse, chosen so the
        leaked share of detected write-window photons equals leak_fraction."""
        f = self.leak_fraction
        return p_pair * f / (1.0 - f)


@dataclass(frozen=True)
class ProtocolParams:
    p_pair: float = 0.03            # Stokes pair probability per write pulse
    eps_read: float = 0.037         # read-pulse state-transfer efficiency
    delta_t_list_ns: tuple = (100.0,)
    rep_period_ms: float = 1.0
    trials: int = 10_000_000


@dataclass(frozen=True)
class HeatingParams:
    """Phenomenological absorption-heating model: rise then decay."""

    n_base: float = 0.025
    a_heat: float = 0.2288          # calibrated so g2_om(100 ns) matches 8.0
    tau_rise_us: float = 0.37
    t_decay_us: float = 34.4
    read_heat: float = 0.0          # extra occupation injected during read


@dataclass(frozen=True)
class NumericsParams:
    n_max: int = 16
    leak_tol: float = 1e-6


@dataclass(frozen=True)
class ExperimentConfig:
    device: DeviceParams = field(default_factory=DeviceParams)
    chain: DetectionChain = field(default_factory=DetectionChain)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    heating: HeatingParams = field(default_factory=HeatingParams)
    numerics: NumericsParams = field(default_factory=NumericsParams)
    seed: int = 10

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["protocol"]["delta_t_list_ns"] = list(self.protocol.delta_t_list_ns)
        return d

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> int:
        return fnv1a64(self.canonical_json())

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


_UNIT_FIELDS = {
    "chain.eta_fc", "chain.eta_c", "chain.eta_path1", "chain.eta_path2",
    "chain.eta_qe1", "chain.eta_qe2", "protocol.p_pair", "protocol.eps_read",
}
_POSITIVE_FIELDS = {
    "device.omega_m_ghz", "device.kappa_c_ghz", "device.g0_khz",
    "device.q_factor", "chain.window_write_ns", "chain.window_read_ns",
    "protocol.rep_period_ms", "heating.tau_rise_us", "heating.t_decay_us",
}
_NONNEGATIVE_FIELDS = {
    "chain.dark_rate_hz", "chain.suppression_db", "heating.n_base",
    "heating.a_heat", "heating.read_heat",
}
_INTEGER_FIELDS = {"protocol.trials", "numerics.n_max", "seed"}


def _type_errors(config: ExperimentConfig) -> list:
    """Every field must hold a finite number, an integer where
    _INTEGER_FIELDS says so; a bool is neither. Values are not coerced, so
    a valid config keeps its canonical JSON and hash."""
    values = {"seed": config.seed}
    for section, cls in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            if f.name != "delta_t_list_ns":
                values[f"{section}.{f.name}"] = getattr(getattr(config, section), f.name)
    for i, t in enumerate(config.protocol.delta_t_list_ns):
        values[f"protocol.delta_t_list_ns[{i}]"] = t
    errors = []
    for path, value in values.items():
        integer = path in _INTEGER_FIELDS
        kind = numbers.Integral if integer else numbers.Real
        if (isinstance(value, bool) or not isinstance(value, kind)
                or (not integer and not math.isfinite(value))):
            expected = "an integer" if integer else "a finite number"
            errors.append(f"{path}: expected {expected}, got {value!r}")
    return errors


def check(config: ExperimentConfig) -> None:
    errors = _type_errors(config)
    if errors:
        raise ConfigError("; ".join(sorted(errors)))
    for path in _UNIT_FIELDS:
        section, name = path.split(".")
        value = getattr(getattr(config, section), name)
        if not 0.0 <= value <= 1.0:
            errors.append(f"{path}: {value} outside [0, 1]")
    for path in _POSITIVE_FIELDS:
        section, name = path.split(".")
        value = getattr(getattr(config, section), name)
        if not value > 0:
            errors.append(f"{path}: {value} must be > 0")
    for path in _NONNEGATIVE_FIELDS:
        section, name = path.split(".")
        value = getattr(getattr(config, section), name)
        if value < 0:
            errors.append(f"{path}: {value} must be >= 0")
    chain = config.chain
    if not 0.0 <= chain.leak_fraction < 1.0:  # leak mean ~ f / (1 - f)
        errors.append(f"chain.leak_fraction: {chain.leak_fraction} outside [0, 1)")
    e1, e2 = chain.detector_efficiency(1), chain.detector_efficiency(2)
    if e1 + e2 > 1.0:  # the two detectors split one optical mode
        errors.append(f"chain.eta_path1, chain.eta_path2: detector efficiencies "
                      f"{e1} + {e2} exceed 1")
    for window in ("window_write_ns", "window_read_ns"):
        dark = chain.dark_prob(getattr(chain, window))
        if dark >= 1.0:
            errors.append(f"chain.dark_rate_hz: dark-count probability {dark} "
                          f"in chain.{window} must be < 1")
    dts = config.protocol.delta_t_list_ns
    if len(dts) == 0:
        errors.append("protocol.delta_t_list_ns: must be non-empty")
    elif any(b <= a for a, b in zip(dts, dts[1:])) or any(t < 0 for t in dts):
        errors.append("protocol.delta_t_list_ns: must be non-negative and ascending")
    if config.protocol.trials < 0:
        errors.append(f"protocol.trials: {config.protocol.trials} must be >= 0")
    if config.numerics.n_max < 2:
        errors.append(f"numerics.n_max: {config.numerics.n_max} must be >= 2")
    if not 0 < config.numerics.leak_tol <= 1:
        errors.append(f"numerics.leak_tol: {config.numerics.leak_tol} outside (0, 1]")
    if not 0 <= config.seed < 2 ** 64:
        errors.append(f"seed: {config.seed} outside unsigned 64-bit range")
    if errors:
        raise ConfigError("; ".join(sorted(errors)))


_SECTIONS = {
    "device": DeviceParams,
    "chain": DetectionChain,
    "protocol": ProtocolParams,
    "heating": HeatingParams,
    "numerics": NumericsParams,
}


def from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    kwargs = {}
    for key, value in data.items():
        if key == "seed":
            kwargs["seed"] = value
            continue
        cls = _SECTIONS.get(key)
        if cls is None:
            raise ConfigError(f"{key}: unknown config section")
        if not isinstance(value, dict):
            raise ConfigError(f"{key}: expected object")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(value) - names
        if unknown:
            raise ConfigError(
                f"{key}.{sorted(unknown)[0]}: unknown field")
        section = dict(value)
        if key == "protocol" and "delta_t_list_ns" in section:
            if not isinstance(section["delta_t_list_ns"], list):
                raise ConfigError("protocol.delta_t_list_ns: expected a list")
            section["delta_t_list_ns"] = tuple(section["delta_t_list_ns"])
        kwargs[key] = cls(**section)
    config = ExperimentConfig(**kwargs)
    check(config)
    return config


def default_config() -> ExperimentConfig:
    config = ExperimentConfig()
    check(config)
    return config


def load(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return from_dict(data)


def save(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
