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

from .rng import DRAWS_PER_TRIAL


class ConfigError(Exception):
    """Schema violation; message carries the offending field path."""


MIN_WINDOW_NS = 0.001  # one picosecond, the unit of a click time
# every (trial, draw) counter of a stream is a distinct uint64, and so is the
# header's trial count
MAX_TRIALS = 2 ** 64 // DRAWS_PER_TRIAL
# a click time is a float64 uniform times its window's length in picoseconds,
# exact only up to 2**53 ps (~104 days): every window ends by then
MAX_WINDOW_END_PS = 2 ** 53
# ~8x a room-temperature occupation of the 5.3 GHz mode, hotter than any
# run of the experiment
MAX_OCCUPATION = 1e4


def _number(default, *, gt=None, ge=None, lt=None, le=None):
    """A numeric field and its range, which `check` enforces. The annotation
    gives the kind: an ``int`` field holds an integer, any other field a
    finite number (a ``tuple`` field element by element); a bool is neither."""
    lo, hi = (ge if gt is None else gt), (le if lt is None else lt)
    return field(default=default,
                 metadata={"range": (lo, gt is not None, hi, lt is not None)})


@dataclass(frozen=True)
class DeviceParams:
    """Informational device parameters (not used by the counting model)."""

    omega_m_ghz: float = _number(5.307, gt=0)  # mechanical breathing-mode frequency
    kappa_c_ghz: float = _number(1.3, gt=0)    # optical cavity linewidth (FWHM)
    g0_khz: float = _number(825.0, gt=0)       # single-photon optomechanical coupling
    q_factor: float = _number(1.1e6, gt=0)     # mechanical quality factor


@dataclass(frozen=True)
class DetectionChain:
    """Detection-chain efficiencies and background sources.

    eta_path_i folds in the 50/50 splitter, filter and fiber losses, so the
    per-detector efficiencies eta_i = eta_c * eta_fc * eta_path_i * eta_qe_i
    come out at 1.1% / 1.6% and sum to the ~2.7% overall efficiency.
    """

    eta_fc: float = _number(0.603, ge=0, le=1)      # fiber-to-chip coupling, one-way
    eta_c: float = _number(0.5, ge=0, le=1)         # cavity extraction kappa_ext / kappa_c
    eta_path1: float = _number(0.05613, ge=0, le=1)  # -> eta_1 = 1.1%
    eta_path2: float = _number(0.05895, ge=0, le=1)  # -> eta_2 = 1.6%
    eta_qe1: float = _number(0.65, ge=0, le=1)
    eta_qe2: float = _number(0.90, ge=0, le=1)
    dark_rate_hz: float = _number(10.0, ge=0)
    suppression_db: float = _number(84.0, ge=0)     # pump rejection, informational
    # leaked pump share of write-window clicks; the leak mean is f / (1 - f)
    leak_fraction: float = _number(0.04, ge=0, lt=1)
    # click times are whole picoseconds, so a shorter window holds no time
    window_write_ns: float = _number(40.0, ge=MIN_WINDOW_NS)
    window_read_ns: float = _number(55.0, ge=MIN_WINDOW_NS)

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
    p_pair: float = _number(0.03, ge=0, le=1)  # Stokes pair probability per write pulse
    eps_read: float = _number(0.037, ge=0, le=1)  # read-pulse state-transfer efficiency
    delta_t_list_ns: tuple = _number((100.0,), ge=0)
    rep_period_ms: float = _number(1.0, gt=0)
    trials: int = _number(10_000_000, ge=0)


@dataclass(frozen=True)
class HeatingParams:
    """Phenomenological absorption-heating model: rise then decay."""

    n_base: float = _number(0.025, ge=0, le=MAX_OCCUPATION)
    # calibrated so g2_om(100 ns) matches 8.0
    a_heat: float = _number(0.2288, ge=0, le=MAX_OCCUPATION)
    tau_rise_us: float = _number(0.37, gt=0)
    t_decay_us: float = _number(34.4, gt=0)
    # extra occupation injected during read
    read_heat: float = _number(0.0, ge=0, le=MAX_OCCUPATION)


@dataclass(frozen=True)
class NumericsParams:
    n_max: int = _number(16, ge=2)
    leak_tol: float = _number(1e-6, gt=0, le=1)


@dataclass(frozen=True)
class ExperimentConfig:
    device: DeviceParams = field(default_factory=DeviceParams)
    chain: DetectionChain = field(default_factory=DetectionChain)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    heating: HeatingParams = field(default_factory=HeatingParams)
    numerics: NumericsParams = field(default_factory=NumericsParams)
    seed: int = _number(10, ge=0, lt=2 ** 64)

    def __post_init__(self):  # every config that exists is valid
        check(self)

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


def _declared_numbers(obj, prefix=""):
    """(path, value, field) for each number declared on ``obj`` and its
    sections; a field without a range is a section."""
    for f in dataclasses.fields(obj):
        path, value = prefix + f.name, getattr(obj, f.name)
        if "range" not in f.metadata:
            yield from _declared_numbers(value, path + ".")
        elif f.type == "tuple":
            for i, item in enumerate(value):
                yield f"{path}[{i}]", item, f
        else:
            yield path, value, f


def _field_error(value, integer, lo, lo_open, hi, hi_open):
    """What ``value`` breaks of its field's kind and range, or None."""
    try:  # math.isfinite overflows on an integer too large for a float
        typed = not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) if integer
            else isinstance(value, numbers.Real) and math.isfinite(value))
    except OverflowError:
        typed = False
    if not typed:
        return f"expected {'an integer' if integer else 'a finite number'}, got {value!r}"
    above_lo = value > lo if lo_open else value >= lo
    if above_lo and (hi is None or (value < hi if hi_open else value <= hi)):
        return None
    broken = (f"must be {'>' if lo_open else '>='} {lo}" if not above_lo
              else f"must be {'<' if hi_open else '<='} {hi}")
    if hi is None:
        return f"{value} {broken}"
    return (f"{value} outside {'(' if lo_open else '['}{lo}, "
            f"{hi}{')' if hi_open else ']'}: {broken}")


def check(config: ExperimentConfig) -> None:
    """Raise ConfigError naming each field outside its declared kind and
    range, else each broken cross-field rule; every ExperimentConfig runs it
    when built. Values are not coerced, so a valid config keeps its
    canonical JSON and hash."""
    errors = []
    for path, value, f in _declared_numbers(config):
        error = _field_error(value, f.type == "int", *f.metadata["range"])
        if error:
            errors.append(f"{path}: {error}")
    if errors:
        raise ConfigError("; ".join(sorted(errors)))
    chain = config.chain
    e1, e2 = chain.detector_efficiency(1), chain.detector_efficiency(2)
    if e1 + e2 > 1.0:  # the two detectors split one optical mode
        errors.append(f"chain.eta_path1, chain.eta_path2: detector efficiencies "
                      f"{e1} + {e2} exceed 1")
    for window in ("window_write_ns", "window_read_ns"):
        # a float window keeps two integers' product from overflowing a float
        dark = chain.dark_prob(float(getattr(chain, window)))
        if dark >= 1.0:
            errors.append(f"chain.dark_rate_hz: dark-count probability {dark} "
                          f"in chain.{window} must be < 1")
    dts = config.protocol.delta_t_list_ns
    for fields, after_write_ns in (("protocol.delta_t_list_ns", max(dts, default=0.0)),
                                   ("chain.window_read_ns", chain.window_read_ns)):
        # protocol.window_geometry's window ends, in floats that cannot overflow
        if (float(chain.window_write_ns) + float(after_write_ns)) * 1e3 > MAX_WINDOW_END_PS:
            errors.append(f"chain.window_write_ns, {fields}: a window ends past 2**53 ps")
    if len(dts) == 0:
        errors.append("protocol.delta_t_list_ns: must be non-empty")
    elif any(b <= a for a, b in zip(dts, dts[1:])):
        errors.append("protocol.delta_t_list_ns: must be strictly ascending")
    if config.protocol.trials * len(dts) >= MAX_TRIALS:
        errors.append(f"protocol.trials: {config.protocol.trials} trials x "
                      f"{len(dts)} delays must be < {MAX_TRIALS}")
    if errors:
        raise ConfigError("; ".join(sorted(errors)))


# section name -> its dataclass; every ExperimentConfig field but the seed
_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(ExperimentConfig)
             if "range" not in f.metadata}


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
    return ExperimentConfig(**kwargs)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


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
