"""Photon-counting statistics: windowed tabulation, g2 estimators with
binomial-likelihood confidence intervals, the Cauchy-Schwarz classical
bound via likelihood convolution, sideband thermometry and exponential
fits.

scipy is slow to import, so only the functions that use it import it:
``scipy.special`` for the Beta quantiles and likelihood, ``scipy.optimize``
for the fits. CLI stages that compute no statistics never load scipy.

All intervals are 68% confidence regions built from the flat-prior
binomial likelihood L(p) ~ p^N (1-p)^(T-N): the lower/upper uncertainties
leave 16% probability mass below/above them. For the correlation
estimators only the coincidence count carries uncertainty; singles are
held at their maximum-likelihood values (coincidences dominate the error
budget at these count rates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tags
from .config import MIN_WINDOW_NS, ConfigError, ExperimentConfig
from .protocol import (MASKS, SLOT_BITS, EstimatorError, g2_ratio,
                       read_window_start_ps)

TAIL_MASS = 0.16
BOUND_GRID_POINTS = 4096
BOUND_GRID_RANGE = (1e-3, 1e3)


class DegenerateCountsError(EstimatorError):
    """Both autocorrelation inputs carry zero coincidences."""


class FitError(Exception):
    """Exponential fit failed to converge."""


def binomial_ci(n_events: int, n_trials: int) -> tuple[float, float, float]:
    """Maximum-likelihood probability and 68% likelihood interval.

    The normalized likelihood is the Beta(N+1, T-N+1) density; sigma_minus
    and sigma_plus each cut off 16% of its mass, clamped to 0 when the
    corresponding side is exhausted (N=0 or N=T).
    """
    if n_trials < 1:
        raise EstimatorError(f"need at least one trial, got {n_trials}")
    if not 0 <= n_events <= n_trials:
        raise EstimatorError(f"events {n_events} outside [0, {n_trials}]")
    from scipy.special import betaincinv  # lazy: see the module docstring
    p_ml = n_events / n_trials
    a, b = n_events + 1, n_trials - n_events + 1
    sigma_minus = max(p_ml - betaincinv(a, b, TAIL_MASS), 0.0)
    sigma_plus = max(betaincinv(a, b, 1.0 - TAIL_MASS) - p_ml, 0.0)
    return p_ml, sigma_minus, sigma_plus


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    sigma_minus: float
    sigma_plus: float
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0 or self.sigma_minus > self.value + 1e-12:
            raise ValueError("interval extends below zero")

    @property
    def lower(self) -> float:
        return self.value - self.sigma_minus

    @property
    def upper(self) -> float:
        return self.value + self.sigma_plus

    def to_dict(self) -> dict:
        return {"value": self.value, "sigma_minus": self.sigma_minus,
                "sigma_plus": self.sigma_plus, "counts": dict(self.counts)}


@dataclass
class TrialTable:
    """Clicked trials of one write->read delay setting: the sorted, unique
    local trials with a click in the (trimmed) windows, and each one's
    nonzero click pattern, built from ``protocol.SLOT_BITS`` as it indexes
    ``OutcomeTable.probs``."""

    delta_t_ns: float
    trials: int
    clicked: np.ndarray
    patterns: np.ndarray

    def pattern_counts(self) -> np.ndarray:
        """Trials per pattern; pattern 0 is every trial that did not click."""
        counts = np.bincount(self.patterns, minlength=16)
        counts[0] = self.trials - self.clicked.size
        return counts

    def counters(self) -> dict:
        counts = self.pattern_counts()
        return {"T": self.trials, **{f"N_{name}": int(counts[mask].sum())
                                     for name, mask in MASKS.items()}}


def _coincidences(a: np.ndarray, b: np.ndarray, offset: int = 0) -> int:
    """Number of trials n in ``a`` with n + offset in ``b`` (both sorted, unique)."""
    return np.intersect1d(a + offset, b, assume_unique=True).size


def tabulate(stream: tags.TagStream, config: ExperimentConfig,
             read_window_ns=None) -> dict[float, TrialTable]:
    """Assign every record to its setting and trial, setting its slot's bit
    in the trial's click pattern.

    ``read_window_ns`` trims the read evaluation window post hoc (e.g.
    55 ns -> 30 ns, at least 1 ps) without resimulating; records beyond the trimmed but
    inside the configured window are dropped silently. Records outside
    their labelled window are format errors. The tables depend neither on
    the record order nor on repeated records.
    """
    trials_per_setting = config.protocol.trials
    settings = list(config.protocol.delta_t_list_ns)
    expected = trials_per_setting * len(settings)
    if stream.trial_count != expected:
        raise tags.TagFormatError(
            f"stream holds {stream.trial_count} trials, config implies {expected}")
    full_read_ns = config.chain.window_read_ns
    trim_ns = full_read_ns if read_window_ns is None else float(read_window_ns)
    if not MIN_WINDOW_NS <= trim_ns <= full_read_ns:
        raise ConfigError(
            f"read-window-ns: {trim_ns} outside [{MIN_WINDOW_NS}, {full_read_ns}]")
    write_len = int(round(config.chain.window_write_ns * 1000.0))

    out = {}
    rec = stream.records
    setting_of, local = np.divmod(rec["trial_index"].astype(np.int64),
                                  trials_per_setting)
    for k, delta_t in enumerate(settings):
        mine = setting_of == k
        r = rec[mine]
        trial = local[mine]
        read_start = read_window_start_ps(config, delta_t)
        read_len = int(round(full_read_ns * 1000.0))
        is_write = r["pulse_label"] == tags.WRITE_PULSE
        t = r["time_ps"].astype(np.int64)
        bad_write = is_write & (t >= write_len)
        bad_read = ~is_write & ((t < read_start) | (t >= read_start + read_len))
        if bad_write.any() or bad_read.any():
            raise tags.TagFormatError(
                "record time outside its labelled pulse window "
                f"(trial {int(r['trial_index'][(bad_write | bad_read)][0])})")
        keep = is_write | (t < read_start + int(round(trim_ns * 1000.0)))
        # sorted (trial, slot) keys group a trial's records in any record
        # order, and OR-ing their bits ignores repeated records
        key = np.sort(trial[keep] * 4 + 2 * r["pulse_label"][keep] + r["detector"][keep])
        first = np.flatnonzero(np.diff(key >> 2, prepend=-1))
        patterns = np.bitwise_or.reduceat(SLOT_BITS[key & 3], first)
        out[delta_t] = TrialTable(delta_t, trials_per_setting, key[first] >> 2, patterns)
    return out


def _scaled_estimate(n_coinc, n_pairs, n_1, n_2, n_trials, counts) -> CorrelationEstimate:
    """g = P(coincidence) / (P1 * P2) with singles n_1, n_2 out of n_trials."""
    scale = g2_ratio(1.0, n_1, n_2, n_trials)
    p_ml, s_minus, s_plus = binomial_ci(n_coinc, n_pairs)
    return CorrelationEstimate(p_ml * scale, s_minus * scale, s_plus * scale, counts)


def g2_cross_estimate(table: TrialTable, delta_n=0) -> CorrelationEstimate:
    """Cross-correlation between write of trial n and read of trial n+delta_n.

    An int is one offset; a sequence of nonzero offsets gives a single
    estimate pooling their coincidences and trial pairs.
    """
    t = table.trials
    pooled = np.ndim(delta_n) > 0
    offsets = list(delta_n) if pooled else [delta_n]
    w, r = (table.clicked[MASKS[name][table.patterns]] for name in ("W", "R"))
    coinc = pairs = 0
    for dn in offsets:
        if pooled and (dn == 0 or t - abs(dn) < 1):
            raise EstimatorError(f"invalid pooled offset {dn}")
        if t - abs(dn) < 1:
            raise EstimatorError(f"offset {dn} leaves no trial pairs")
        coinc += _coincidences(w, r, dn)
        pairs += t - abs(dn)
    counts = {"N_coinc": coinc, "pairs": pairs, "N_W": w.size, "N_R": r.size,
              "T": t, "delta_n": offsets if pooled else delta_n}
    return _scaled_estimate(coinc, pairs, w.size, r.size, t, counts)


def g2_auto_estimate(tables, window: str, delta_t_ns=None) -> CorrelationEstimate:
    """HBT autocorrelation from the two detectors within one window, over
    ``tables`` as ``tabulate`` returns them (delay -> TrialTable).

    WRITE pools counts across all delay settings (the mechanics are
    reinitialized before each write); READ uses only the table matching
    ``delta_t_ns`` (delayed heating makes the read state delay-dependent).
    """
    if window == "WRITE":
        use = list(tables.values())
    elif window == "READ":
        if delta_t_ns is None:
            raise ValueError("READ autocorrelation needs delta_t_ns")
        use = [tables[delta_t_ns]]
    else:
        raise ValueError(f"window must be WRITE or READ, got {window!r}")
    keys = ("T", "N_W1W2", "N_W1", "N_W2") if window == "WRITE" else (
        "T", "N_R1R2", "N_R1", "N_R2")
    counters = [tab.counters() for tab in use]
    t, coinc, n1, n2 = (sum(c[key] for c in counters) for key in keys)
    counts = {"N_coinc": coinc, "N_1": n1, "N_2": n2, "T": t, "window": window}
    return _scaled_estimate(coinc, t, n1, n2, t, counts)


def _g_log_likelihood(n_coinc, n_pairs, scale, t_grid):
    """Normalized likelihood of t = ln(g) for g = p/(P1*P2).

    This is the binomial likelihood L(p(t)) sampled on the log grid, not a
    transformed probability density: no Jacobian factor, so its maximum
    stays exactly at the maximum-likelihood g.
    """
    from scipy.special import betaln, xlog1py, xlogy  # lazy: see the module docstring
    p = np.exp(t_grid) / scale
    n_miss = n_pairs - n_coinc    # Beta(N+1, T-N+1) density, in log space
    log_f = (xlogy(n_coinc, p) + xlog1py(n_miss, -np.minimum(p, 1.0))
             - betaln(n_coinc + 1, n_miss + 1))
    # p > 1 is impossible: zero mass, without exp overflowing out there
    f = np.exp(np.where(p <= 1.0, log_f, -np.inf))
    norm = np.trapezoid(f, t_grid)
    if norm <= 0:
        raise EstimatorError("autocorrelation likelihood has no mass on the grid")
    return f / norm


def classical_bound(auto_write: CorrelationEstimate,
                    auto_read: CorrelationEstimate) -> CorrelationEstimate:
    """Likelihood of sqrt(g_oo * g_mm) by convolution on a log grid.

    The asymmetric single-likelihoods make the most-likely bound sit at or
    below the square root of the individual maximum-likelihood values.
    """
    sides = []
    for est in (auto_write, auto_read):
        c = est.counts
        if c.get("T", 0) < 1:
            raise EstimatorError("autocorrelation counts missing trial total")
        scale = g2_ratio(1.0, c["N_1"], c["N_2"], c["T"])
        sides.append((c["N_coinc"], c["T"], scale))
    if sides[0][0] == 0 and sides[1][0] == 0:
        raise DegenerateCountsError(
            "both autocorrelations have zero coincidences; bound undefined")

    lo, hi = BOUND_GRID_RANGE
    t_grid = np.linspace(np.log(lo), np.log(hi), BOUND_GRID_POINTS)
    dt = t_grid[1] - t_grid[0]
    f1 = _g_log_likelihood(*sides[0], t_grid)
    f2 = _g_log_likelihood(*sides[1], t_grid)
    f_sum = np.convolve(f1, f2) * dt    # likelihood of ln(g_oo) + ln(g_mm)
    s_grid = np.arange(f_sum.size) * dt + 2 * t_grid[0]
    b_grid = np.exp(0.5 * s_grid)               # bound = sqrt(g_oo * g_mm)
    b_ml = float(b_grid[np.argmax(f_sum)])
    # interval: normalize the convolved likelihood against the bound itself
    # (flat prior in b, not in ln b) so a zero-coincidence side, whose
    # likelihood is flat over decades of ln g, still yields finite tails
    pdf_b = f_sum / np.trapezoid(f_sum, b_grid)
    db = np.diff(b_grid)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf_b[1:] + pdf_b[:-1]) * db)])
    cdf /= cdf[-1]
    lo_q = float(np.interp(TAIL_MASS, cdf, b_grid))
    hi_q = float(np.interp(1.0 - TAIL_MASS, cdf, b_grid))
    counts = {"write": dict(auto_write.counts), "read": dict(auto_read.counts)}
    return CorrelationEstimate(b_ml, max(b_ml - lo_q, 0.0), max(hi_q - b_ml, 0.0), counts)


@dataclass(frozen=True)
class CauchySchwarzVerdict:
    violated: bool
    margin: float

    def to_dict(self) -> dict:
        return {"violated": self.violated, "margin": self.margin}


def cauchy_schwarz_test(cross: CorrelationEstimate,
                        bound: CorrelationEstimate) -> CauchySchwarzVerdict:
    """Violation iff the cross-correlation lower edge clears the bound's
    upper edge; the margin is that separation in interval units."""
    separation = cross.lower - bound.upper
    scale = cross.sigma_minus + bound.sigma_plus
    margin = separation / scale if scale > 0 else np.inf * np.sign(separation)
    return CauchySchwarzVerdict(bool(separation > 0), float(margin))


def sideband_occupancy(clicks_red: int, clicks_blue: int, pulses: int,
                       background: float = 0.0) -> CorrelationEstimate:
    """n = Gamma_R / (Gamma_B - Gamma_R) from alternating-pulse counts.

    ``background`` is the known leak+dark click probability per window,
    subtracted from both rates (it cancels in the denominator). The
    interval is propagated from the red-count likelihood, which dominates
    near the ground state.
    """
    if pulses < 1:
        raise EstimatorError(f"need at least one pulse per color, got {pulses}")
    rate_red = clicks_red / pulses
    rate_blue = clicks_blue / pulses
    denom = rate_blue - rate_red
    if denom <= 0:
        raise EstimatorError(
            f"rate asymmetry pole: Gamma_B={rate_blue} <= Gamma_R={rate_red}")
    red_corr = max(rate_red - background, 0.0)
    value = red_corr / denom
    p_ml, s_minus, s_plus = binomial_ci(clicks_red, pulses)

    def occ(rate):
        return max(rate - background, 0.0) / (rate_blue - rate)

    hi_rate = min(p_ml + s_plus, rate_blue * (1 - 1e-12))
    sigma_plus = max(occ(hi_rate) - value, 0.0)
    sigma_minus = max(value - occ(max(p_ml - s_minus, 0.0)), 0.0)
    counts = {"clicks_red": clicks_red, "clicks_blue": clicks_blue,
              "pulses": pulses, "background": background}
    return CorrelationEstimate(value, sigma_minus, sigma_plus, counts)


@dataclass(frozen=True)
class ExponentialFit:
    amplitude: float
    time_constant: float
    offset: float
    rms_residual: float


def fit_exponential(t, y, model: str = "decay") -> ExponentialFit:
    """Least-squares fit of A*exp(-t/tau)+c or A*(1-exp(-t/tau))+c.

    Seeds come from a log-linear regression of the baseline-subtracted
    series, then a bounded Levenberg-Marquardt refinement.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size < 4 or t.size != y.size:
        raise ValueError("need at least 4 (t, y) points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t must be strictly ascending")
    if np.ptp(y) < 1e-14 * max(1.0, np.abs(y).max()):
        return ExponentialFit(0.0, np.inf, float(y.mean()), float(y.std()))

    if model == "decay":
        def f(tt, a, tau, c):
            return a * np.exp(-tt / tau) + c
        c0 = y[-1]
        z = y - c0
    elif model == "saturating-rise":
        def f(tt, a, tau, c):
            return a * (1.0 - np.exp(-tt / tau)) + c
        c0 = y[0]
        z = y[-1] - y
    else:
        raise ValueError(f"unknown model {model!r}")
    pos = z > 0
    if pos.sum() >= 2:
        slope, intercept = np.polyfit(t[pos], np.log(z[pos]), 1)
        tau0 = -1.0 / slope if slope < 0 else (t[-1] - t[0])
        a0 = np.exp(intercept)
    else:
        tau0, a0 = t[-1] - t[0], np.ptp(y)
    tau0 = min(max(tau0, 1e-9), 1e9)
    from scipy import optimize  # lazy: only the m3 figure fits, and it is slow to import
    try:
        popt, _ = optimize.curve_fit(
            f, t, y, p0=[a0, tau0, c0], maxfev=20000,
            bounds=([-np.inf, 1e-12, -np.inf], [np.inf, 1e12, np.inf]))
    except RuntimeError as exc:
        raise FitError(f"exponential fit did not converge: {exc}") from exc
    residual = float(np.sqrt(np.mean((f(t, *popt) - y) ** 2)))
    return ExponentialFit(float(popt[0]), float(popt[1]), float(popt[2]), residual)


def heralded_autocorr(g_om: float) -> float:
    """Heralded mechanical autocorrelation 4/(g_om - 1).

    Derived for two-mode squeezing on a thermal seed; a good approximation
    only for g_om well above 1 (>= 5 or so).
    """
    if g_om <= 1.0:
        raise ValueError(f"heralded autocorrelation undefined for g_om={g_om} <= 1")
    return 4.0 / (g_om - 1.0)


def fock_fidelity(g_heralded: float, p_false: float) -> tuple[float, float, float]:
    """Diagonal (p0, p1, p>1) of the heralded state from the heralded
    autocorrelation and the false-positive herald fraction.

    Solves p0 = p_false, p_gt1 = g * p1^2 / 2, p0 + p1 + p_gt1 = 1.
    """
    if g_heralded < 0:
        raise ValueError(f"g_heralded must be >= 0, got {g_heralded}")
    if not 0.0 <= p_false < 1.0:
        raise ValueError(f"p_false {p_false} outside [0, 1)")
    rest = 1.0 - p_false
    if g_heralded == 0.0:
        p1 = rest
    else:
        p1 = (-1.0 + np.sqrt(1.0 + 2.0 * g_heralded * rest)) / g_heralded
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"no physical root: p1={p1}")
    return p_false, float(p1), float(g_heralded * p1 ** 2 / 2.0)
