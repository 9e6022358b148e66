"""Write/read pulse protocol: outcome tables and trial sampling.

For a given configuration and write->read delay, the full quantum pipeline
(thermal mechanics, two-mode squeezing write, write-side threshold
detection, absorption-heating rethermalization, beam-splitter read-out,
read-side detection) is collapsed into a 16-entry table of joint click
patterns (W1, W2, R1, R2). Every step is a Gaussian channel, so the table
is closed form: inclusion-exclusion over vacuum probabilities of subsets of
silent detectors (Quesada, Arrazola & Killoran, PRA 98, 062322 (2018)); the
Fock engine in ``fock`` is the tests' oracle. Each trial then draws one
counter-based deterministic uniform that decides silent or click against
P(no click); only the ~1e-3 of trials that click go on to pick their pattern
from the table and draw click times, which makes 1e7+ trials cheap and
embarrassingly parallel.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import gaussian, rng, tags
from .config import ExperimentConfig
from .detection import PATTERN_FROM_SILENT, silent_subsets

PROB_SUM_TOL = 1e-9
SAMPLE_CHUNK = 1_000_000


def heating_occupation(delta_t_ns: float, heating) -> float:
    """Mechanical occupation a delay after the write pulse.

    Phenomenological rise (absorbed pump heat arriving with time constant
    tau_rise) times mechanical decay back to the bath (t_decay).
    """
    if delta_t_ns < 0:
        raise ValueError(f"delta_t must be >= 0, got {delta_t_ns}")
    t_us = delta_t_ns * 1e-3
    rise = 1.0 - np.exp(-t_us / heating.tau_rise_us)
    decay = np.exp(-t_us / heating.t_decay_us)
    return heating.n_base + heating.a_heat * rise * decay


@dataclass(frozen=True)
class OutcomeTable:
    """Joint click-pattern distribution for one (config, delay) point.

    ``probs[w1*8 + w2*4 + r1*2 + r2]`` is the probability of the pattern.
    The table holds click probabilities only: every statistic the pipeline
    reports (g2, the Cauchy-Schwarz bound) is built from click patterns.
    """

    delta_t_ns: float
    probs: np.ndarray

    def __post_init__(self):
        total = float(self.probs.sum())
        # written so that any NaN or infinite entry fails as well
        if not (abs(total - 1.0) <= PROB_SUM_TOL and self.probs.min() >= -1e-15):
            raise ValueError(f"outcome table sums to {total}, not 1")

    def _marginal(self, mask_fn) -> float:
        idx = np.arange(16)
        w1, w2 = (idx >> 3) & 1, (idx >> 2) & 1
        r1, r2 = (idx >> 1) & 1, idx & 1
        return float(self.probs[mask_fn(w1, w2, r1, r2)].sum())

    def p_write(self) -> float:
        return self._marginal(lambda w1, w2, r1, r2: (w1 | w2) == 1)

    def p_read(self) -> float:
        return self._marginal(lambda w1, w2, r1, r2: (r1 | r2) == 1)

    def p_write_and_read(self) -> float:
        return self._marginal(lambda w1, w2, r1, r2: ((w1 | w2) & (r1 | r2)) == 1)

    def g2_cross_implied(self) -> float:
        return self.p_write_and_read() / (self.p_write() * self.p_read())

    def g2_auto_write_implied(self) -> float:
        p1 = self._marginal(lambda w1, w2, r1, r2: w1 == 1)
        p2 = self._marginal(lambda w1, w2, r1, r2: w2 == 1)
        p12 = self._marginal(lambda w1, w2, r1, r2: (w1 & w2) == 1)
        return p12 / (p1 * p2)

    def g2_auto_read_implied(self) -> float:
        p1 = self._marginal(lambda w1, w2, r1, r2: r1 == 1)
        p2 = self._marginal(lambda w1, w2, r1, r2: r2 == 1)
        p12 = self._marginal(lambda w1, w2, r1, r2: (r1 & r2) == 1)
        return p12 / (p1 * p2)

    def classical_bound_implied(self) -> float:
        return float(np.sqrt(self.g2_auto_write_implied() * self.g2_auto_read_implied()))


def build_outcome_table(config: ExperimentConfig, delta_t_ns: float) -> OutcomeTable:
    """Run the write/heat/read pipeline into a 16-pattern click table.

    Modes: 0 mechanics, 1 write photon, 2 read photon. Write detection acts
    on mode 1 only and commutes with the later heating and read steps on
    modes 0 and 2, so one three-mode state carries every joint pattern.
    """
    proto = config.protocol
    heat = config.heating
    delta_n = heating_occupation(delta_t_ns, heat) - heat.n_base + heat.read_heat
    delta_n = max(delta_n, 0.0)

    state = gaussian.set_thermal(gaussian.CovarianceState.vacuum(3), 0, heat.n_base)
    written = gaussian.two_mode_squeeze(state, 0, 1, np.arcsinh(np.sqrt(proto.p_pair)))
    heated = gaussian.add_noise(written, 0, delta_n)
    read = gaussian.beam_splitter(heated, 0, 2, proto.eps_read)

    eta_w, log_b_w = silent_subsets(config, config.chain.window_write_ns)
    eta_r, log_b_r = silent_subsets(config, config.chain.window_read_ns)
    etas = np.stack(np.meshgrid(eta_w, eta_r, indexing="ij"), axis=-1).reshape(16, 2)
    log_silent = (gaussian.log_vacuum_probability(read, (1, 2), etas).reshape(4, 4)
                  + np.add.outer(log_b_w, log_b_r))
    # silent probabilities lie within ~1e-3 of 1 and cancel to click patterns
    # as small as ~1e-13: sum their complements (click rows sum to 0)
    joint = PATTERN_FROM_SILENT @ np.expm1(log_silent) @ PATTERN_FROM_SILENT.T
    joint[0, 0] = np.exp(log_silent[3, 3])
    return OutcomeTable(delta_t_ns, joint.ravel())


def _trial_layout(config: ExperimentConfig, trials_per_setting: int):
    """Global trial-index blocks: setting k owns [k*N, (k+1)*N)."""
    settings = config.protocol.delta_t_list_ns
    return [(k * trials_per_setting, delta_t) for k, delta_t in enumerate(settings)]


def read_window_start_ps(config: ExperimentConfig, delta_t_ns: float) -> int:
    return int(round((config.chain.window_write_ns + delta_t_ns) * 1000.0))


def _clicked_trials(p_silent: float, seed: int, start: int, stop: int):
    """Trials of [start, stop) whose slot-0 uniform u clicks, u >= P(no
    click), and their u: the only per-trial work of a chunk."""
    idx = np.arange(start, stop, dtype=np.uint64)
    u = rng.uniforms(seed, idx, 0)
    clicked = u >= p_silent
    return idx[clicked], u[clicked]


def _sample_chunk(table: OutcomeTable, config: ExperimentConfig, seed: int,
                  start: int, stop: int) -> np.ndarray:
    cdf = np.cumsum(table.probs)
    trial, u = _clicked_trials(cdf[0], seed, start, stop)
    patterns = np.searchsorted(cdf, u, side="right")
    patterns = np.minimum(patterns, 15)  # guard against cdf[-1] rounding below 1
    # slot 2*pulse_label + detector holds pattern bit 3 - slot, so the
    # row-major nonzero lists records in stream order (trial, label, detector)
    row, slot = np.nonzero((patterns[:, None] >> np.arange(3, -1, -1)) & 1)
    trial = trial[row]
    label = slot >> 1
    u = rng.uniforms(seed, trial, 1 + slot)
    starts = np.array([0, read_window_start_ps(config, table.delta_t_ns)],
                      dtype=np.uint64)
    lengths = np.array([round(config.chain.window_write_ns * 1000.0),
                        round(config.chain.window_read_ns * 1000.0)], dtype=float)
    time_ps = starts[label] + (u * lengths[label]).astype(np.uint64)
    return tags.make_records(trial, slot & 1, label, time_ps)


def sample_trials(config: ExperimentConfig, tables, trials_per_setting=None,
                  threads: int = 1) -> tags.TagStream:
    """Draw one click pattern per trial and emit a sorted tag stream.

    Identical configs produce byte-identical streams for any number of
    threads: every variate is a pure function of (config.seed, trial_index),
    the seed that the header's config hash covers.
    """
    if trials_per_setting is None:
        trials_per_setting = config.protocol.trials
    layout = _trial_layout(config, trials_per_setting)
    if len(tables) != len(layout):
        raise ValueError("one outcome table per delta_t setting required")

    jobs = []
    for (offset, delta_t), table in zip(layout, tables):
        if abs(table.delta_t_ns - delta_t) > 1e-9:
            raise ValueError("outcome tables out of order with delta_t_list")
        for start in range(offset, offset + trials_per_setting, SAMPLE_CHUNK):
            stop = min(start + SAMPLE_CHUNK, offset + trials_per_setting)
            jobs.append((table, start, stop))

    def run(job):
        table, start, stop = job
        return _sample_chunk(table, config, config.seed, start, stop)

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, jobs))
    else:
        parts = [run(job) for job in jobs]
    records = (np.concatenate(parts) if parts
               else np.zeros(0, dtype=tags.RECORD_DTYPE))
    total = trials_per_setting * len(layout)
    return tags.TagStream(config.config_hash(), total, records)


@dataclass(frozen=True)
class ThermometryResult:
    pulses_per_color: int
    clicks_blue: int
    clicks_red: int
    background_click_prob: float
    ideal_asymmetry: float | None

    @property
    def rate_blue(self) -> float:
        return self.clicks_blue / self.pulses_per_color

    @property
    def rate_red(self) -> float:
        return self.clicks_red / self.pulses_per_color

    @property
    def rate_blue_corrected(self) -> float:
        return max(self.rate_blue - self.background_click_prob, 0.0)

    @property
    def rate_red_corrected(self) -> float:
        return max(self.rate_red - self.background_click_prob, 0.0)


def _sideband_silent_prob(config: ExperimentConfig, n_bar: float) -> float:
    """P(no write-window click) on a thermal optical mode of occupation
    n_bar: the background-silent factor times the vacuum probability after
    loss eta, 1 / (1 + eta * n_bar)."""
    eta, log_b = silent_subsets(config, config.chain.window_write_ns)
    return float(np.exp(log_b[3] - np.log1p(eta[3] * n_bar)))


def simulate_thermometry(config: ExperimentConfig, pulses: int) -> ThermometryResult:
    """Alternating blue/red pulse trains at the baseline occupation.

    Blue pulses run the two-mode-squeezing (Stokes) interaction, red pulses
    the beam-splitter (anti-Stokes) interaction at the same strength
    p_pair, leaving a thermal optical mode of occupation
    p_pair * (1 + n_base) or p_pair * n_base. The ideal detected-rate
    asymmetry, (n+1)/n, is the click-probability ratio of the same chain
    without dark counts or pump leak; it is None when the ideal red click
    probability is 0 (n_base = 0). The background is the write-window click
    probability of dark counts and leak alone.
    """
    if pulses <= 0:
        raise ValueError(f"pulses must be > 0, got {pulses}")
    per_color = pulses // 2
    n_blue = config.protocol.p_pair * (1.0 + config.heating.n_base)
    n_red = config.protocol.p_pair * config.heating.n_base
    ideal = config.replace(chain=replace(config.chain, dark_rate_hz=0.0,
                                         leak_fraction=0.0))
    blue_ideal = 1.0 - _sideband_silent_prob(ideal, n_blue)
    red_ideal = 1.0 - _sideband_silent_prob(ideal, n_red)
    ideal_asym = blue_ideal / red_ideal if red_ideal > 0 else None

    def count_clicks(n_bar, offset):
        p_silent, end = _sideband_silent_prob(config, n_bar), offset + per_color
        return sum(_clicked_trials(p_silent, config.seed, start,
                                   min(start + SAMPLE_CHUNK, end))[0].size
                   for start in range(offset, end, SAMPLE_CHUNK))

    _, log_b = silent_subsets(config, config.chain.window_write_ns)
    return ThermometryResult(per_color, count_clicks(n_blue, 0),
                             count_clicks(n_red, per_color),
                             -float(np.expm1(log_b[3])), ideal_asym)


def simulate_pump_probe(config: ExperimentConfig, pump_heat_amplitude: float,
                        delta_t_us_grid) -> np.ndarray:
    """Expected read-window count rate versus pump-probe delay.

    Linearized anti-Stokes model: C_R = alpha * n_m(delta_t) + C_leak, with
    alpha set by the read transfer efficiency and the detector chain.
    """
    heat = replace(config.heating, a_heat=pump_heat_amplitude)
    chain = config.chain
    eta_sum = chain.detector_efficiency(1) + chain.detector_efficiency(2)
    alpha = config.protocol.eps_read * eta_sum
    leak = chain.leak_mean_photons(config.protocol.p_pair)
    c_leak = (eta_sum * leak + 2.0 * chain.dark_prob(chain.window_read_ns))
    grid = np.asarray(delta_t_us_grid, dtype=float)
    occ = np.array([heating_occupation(t * 1e3, heat) for t in grid])
    return alpha * occ + c_leak
