"""Write/read pulse protocol: outcome tables and trial sampling.

For a given configuration and write->read delay, the full quantum pipeline
(thermal mechanics, two-mode squeezing write, write-side threshold
detection, absorption-heating rethermalization, beam-splitter read-out,
read-side detection) is collapsed into a 16-entry table of joint click
patterns (W1, W2, R1, R2), indexed by one bit rule (``SLOT_BITS``) that
the sampler and the analysis share. Every step is a Gaussian channel, and
the detectors see one phase-insensitive two-mode Gaussian state of the
write and read photons, so the table is closed form: inclusion-exclusion
(Quesada, Arrazola & Killoran, PRA 98, 062322 (2018)) over the no-click
probabilities that ``gaussian`` gives for each subset of silent detectors;
the Fock engine in ``fock`` is the tests' oracle. Each trial's
counter-based deterministic hash then decides silent or click against
P(no click) (``rng.clicked``, an integer compare); only the ~1e-3 of trials
that click get a float uniform, pick their pattern from the table and draw
click times, which makes 1e7+ trials cheap and embarrassingly parallel.
``pattern_g2`` turns 16-pattern probabilities, or a stream's pattern
counts, into g2_om, g2_WW and g2_RR: one rule for the model and the data.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, replace

import numpy as np

from . import gaussian, rng, tags
from .config import MAX_TRIALS, MIN_WINDOW_NS, ConfigError, ExperimentConfig
from .detection import PATTERN_FROM_SILENT, silent_subsets

PROB_SUM_TOL = 1e-9
SAMPLE_CHUNK = 1_000_000


class EstimatorError(Exception):
    """Undefined estimate (zero singles, empty table, pole, ...)."""


class CalibrationError(Exception):
    """No heating amplitude in the search bounds reproduces the target."""


# a click in record slot 2*pulse_label + detector (W1, W2, R1, R2) sets bit
# SLOT_BITS[slot] = 8 >> slot of its trial's pattern
SLOT_BITS = (8 >> np.arange(4)).astype(np.uint8)
_W1, _W2, _R1, _R2 = ((np.arange(16)[:, None] & SLOT_BITS) != 0).T
# the patterns each counted event covers; every mask leaves out pattern 0
MASKS = {"W1": _W1, "W2": _W2, "R1": _R1, "R2": _R2,
         "W1W2": _W1 & _W2, "R1R2": _R1 & _R2,
         "W": _W1 | _W2, "R": _R1 | _R2, "WR": (_W1 | _W2) & (_R1 | _R2)}


# the (both, one, two) events of each g2 = P(both) / (P(one) P(two))
G2_EVENTS = {"g2_om": ("WR", "W", "R"), "g2_WW": ("W1W2", "W1", "W2"),
             "g2_RR": ("R1R2", "R1", "R2")}


def pattern_g2(counts, total=1.0, names=tuple(G2_EVENTS)):
    """The ``G2_EVENTS`` g2 of each of ``names``, along the last axis, from
    (..., 16) click-pattern counts, or probabilities, out of ``total``: each
    P is the sum of its ``MASKS`` patterns. The one g2 rule of the data and
    the model tables. Also returns 1 / (P(one) P(two)), the factor that turns
    P(both), or an interval of it, into g2. A zero single is an error."""
    counts = np.asarray(counts)
    sums = np.stack([counts[..., MASKS[event]].sum(-1)
                     for name in names for event in G2_EVENTS[name]], -1)
    both, one, two = sums[..., 0::3], sums[..., 1::3], sums[..., 2::3]
    # a zero single, checked before dividing by a total of 0, or a product below the float range
    if not (one.all() and two.all() and (singles := (one / total) * (two / total)).all()):
        raise EstimatorError("zero single-event probability")
    return both / total / singles, 1.0 / singles


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

    ``probs[w1*8 + w2*4 + r1*2 + r2]`` is the probability of the pattern,
    whose bits are the ``SLOT_BITS`` of its clicks.
    The table holds click probabilities only: the model's g2 are
    ``pattern_g2(probs)``, the rule that the analysis applies to a stream's
    pattern counts, and its Cauchy-Schwarz bound is sqrt(g2_WW * g2_RR).
    """

    delta_t_ns: float
    probs: np.ndarray

    def __post_init__(self):
        total = float(self.probs.sum())
        # written so that any NaN or infinite entry fails as well
        if not (abs(total - 1.0) <= PROB_SUM_TOL and self.probs.min() >= -1e-15):
            raise ValueError(f"outcome table sums to {total}, not 1")


def build_outcome_table(config: ExperimentConfig, delta_t_ns: float) -> OutcomeTable:
    """Run the write/heat/read pipeline into a 16-pattern click table.

    Write detection acts on the write photon only and commutes with the
    later heating and read steps, so the two-mode state of
    ``gaussian.detected_moments`` carries every joint pattern.
    """
    proto = config.protocol
    heat = config.heating
    delta_n = heating_occupation(delta_t_ns, heat) - heat.n_base + heat.read_heat
    moments = gaussian.detected_moments(proto.p_pair, heat.n_base, delta_n,
                                        proto.eps_read)

    eta_w, log_b_w = silent_subsets(config, config.chain.window_write_ns)
    eta_r, log_b_r = silent_subsets(config, config.chain.window_read_ns)
    log_silent = (gaussian.log_no_click(*moments, eta_w, eta_r)
                  + np.add.outer(log_b_w, log_b_r))
    # silent probabilities lie within ~1e-3 of 1 and cancel to click patterns
    # as small as ~1e-13: sum their complements (click rows sum to 0)
    joint = PATTERN_FROM_SILENT @ np.expm1(log_silent) @ PATTERN_FROM_SILENT.T
    joint[0, 0] = np.exp(log_silent[3, 3])
    return OutcomeTable(delta_t_ns, joint.ravel())


def window_geometry(config: ExperimentConfig, delta_t_ns: float,
                    read_window_ns=None) -> np.ndarray:
    """[start, length] x [write, read window] in whole picoseconds, indexed
    by pulse label: the one geometry the sampler draws click times in and the
    analysis checks them against, with the read window trimmed to
    ``read_window_ns`` (1 ps up to the configured length)."""
    write_ns, full_ns = config.chain.window_write_ns, config.chain.window_read_ns
    read_ns = full_ns if read_window_ns is None else float(read_window_ns)
    if not MIN_WINDOW_NS <= read_ns <= full_ns:
        raise ConfigError(f"read-window-ns: {read_ns} outside [{MIN_WINDOW_NS}, {full_ns}]")
    return np.array([[0, round((write_ns + delta_t_ns) * 1000.0)],
                     [round(write_ns * 1000.0), round(read_ns * 1000.0)]], dtype=np.uint64)


def _sample_chunk(table: OutcomeTable, config: ExperimentConfig, seed: int,
                  start: int, stop: int) -> np.ndarray:
    cdf = np.cumsum(table.probs)
    trial, u = rng.clicked(cdf[0], seed, start, stop)  # u >= P(no click)
    patterns = np.searchsorted(cdf, u, side="right")
    patterns = np.minimum(patterns, 15)  # guard against cdf[-1] rounding below 1
    # row-major nonzero lists records in stream order (trial, label, detector)
    row, slot = np.nonzero(patterns[:, None] & SLOT_BITS)
    trial = trial[row]
    label = slot >> 1
    u = rng.uniforms(seed, trial, 1 + slot)
    starts, lengths = window_geometry(config, table.delta_t_ns)
    time_ps = starts[label] + (u * lengths[label]).astype(np.uint64)
    return tags.make_records(trial, slot & 1, label, time_ps)


def _fork_shares(shares, run) -> list:
    """run(share) -> record arrays, for each share in share order: the first
    share runs here, each other one in a forked child that writes its
    records' bytes to a pipe and leaves through ``os._exit``, so it never
    returns into the caller. No child outlives the call, also on an error."""
    children = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # e.g. out of processes: the finally reaps the rest
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pipe.writelines(run(share))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children[pid] = open(read_fd, "rb", buffering=0)
        parts = run(shares[0])
        for pid, pipe in list(children.items()):
            with pipe:
                body = pipe.readall()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            code = os.waitstatus_to_exitcode(status)
            if code or len(body) % tags.RECORD_SIZE:
                raise ChildProcessError(f"sampler worker {pid} ended with status "
                                        f"{code} after {len(body)} bytes")
            parts.append(np.frombuffer(body, dtype=tags.RECORD_DTYPE))
        return parts
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def sample_trials(config: ExperimentConfig, tables, trials_per_setting=None,
                  threads: int = 1) -> tags.TagStream:
    """Draw one click pattern per trial and emit a sorted tag stream.

    ``threads`` workers (forked processes, at most one per core; one where
    ``os.fork`` is missing) each take a contiguous share of the chunk jobs.
    Identical configs produce byte-identical streams for any worker count:
    every variate is a pure function of (config.seed, trial_index), the seed
    that the header's config hash covers.
    """
    if trials_per_setting is None:
        trials_per_setting = config.protocol.trials
    settings = config.protocol.delta_t_list_ns
    if len(tables) != len(settings):
        raise ValueError("one outcome table per delta_t setting required")

    jobs = []
    for k, (delta_t, table) in enumerate(zip(settings, tables)):
        if abs(table.delta_t_ns - delta_t) > 1e-9:
            raise ValueError("outcome tables out of order with delta_t_list")
        offset = k * trials_per_setting  # setting k owns [k*N, (k+1)*N)
        for start in range(offset, offset + trials_per_setting, SAMPLE_CHUNK):
            stop = min(start + SAMPLE_CHUNK, offset + trials_per_setting)
            jobs.append((table, start, stop))

    def run(share):
        return [_sample_chunk(table, config, config.seed, start, stop)
                for table, start, stop in share]

    # a worker per core at most: more only hold more block buffers
    cores = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    workers = max(1, min(threads, len(jobs), cores))
    shares = [jobs[len(jobs) * w // workers:len(jobs) * (w + 1) // workers]
              for w in range(workers)]
    return tags.TagStream(config.config_hash(), trials_per_setting * len(settings),
                          _fork_shares(shares, run))


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


def simulate_thermometry(config: ExperimentConfig, pulses: int) -> ThermometryResult:
    """Alternating blue/red pulse trains at the baseline occupation.

    Blue pulses run the two-mode-squeezing (Stokes) interaction, red pulses
    the beam-splitter (anti-Stokes) interaction at the same strength
    p_pair, leaving a thermal optical mode of occupation
    p_pair * (1 + n_base) or p_pair * n_base, n, which clicks in the write
    window with q = 1 - (background-silent factor) / (1 + eta n). The ideal
    detected-rate asymmetry, (n+1)/n, is the ratio of the q's at log
    background 0 (no dark counts or leak), None at an ideal red q of 0
    (n_base = 0); the background is the q of dark counts and leak alone.
    Each colour's clicks come from ``rng.bernoulli_clicks``, one
    ``SAMPLE_CHUNK`` of pulses at a time: the cost grows with clicks, not
    pulses. Blue pulses own trials [0, N) and red ones [N, 2N), N per colour.
    """
    if pulses <= 0:
        raise ConfigError(f"pulses: {pulses} must be > 0")
    per_color = pulses // 2
    if 2 * per_color > MAX_TRIALS:  # every pulse owns its trial counters, as a stream's trials do
        raise ConfigError(f"pulses: {pulses} give 2 x {per_color} pulses per colour, "
                          f"which must be <= {MAX_TRIALS}")
    n_blue = config.protocol.p_pair * (1.0 + config.heating.n_base)
    n_red = config.protocol.p_pair * config.heating.n_base
    eta, log_b = silent_subsets(config, config.chain.window_write_ns)

    def click_prob(n_bar, log_background):
        return 1.0 - float(np.exp(log_background + gaussian.log_no_click(
            n_bar, 0.0, 0.0, eta[3], 0.0)))

    red_ideal = click_prob(n_red, 0.0)
    ideal_asym = click_prob(n_blue, 0.0) / red_ideal if red_ideal > 0 else None

    def count_clicks(n_bar, offset):
        # each SAMPLE_CHUNK restarts its gaps at its first trial
        q = click_prob(n_bar, log_b[3])
        stop = offset + per_color
        return sum(rng.bernoulli_clicks(q, config.seed, start,
                                        min(start + SAMPLE_CHUNK, stop)).size
                   for start in range(offset, stop, SAMPLE_CHUNK))

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
