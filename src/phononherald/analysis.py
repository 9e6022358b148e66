"""Photon-counting statistics: windowed tabulation, g2 estimators with
binomial-likelihood confidence intervals, the Cauchy-Schwarz classical
bound, sideband thermometry and exponential fits.

A dn = 0 g2 is ``protocol.pattern_g2`` of a table's 16 pattern counts, as
the model's g2 are of its probabilities; the lag sweep counts dn >= 1.
``solve`` turns ``Term``s, of one count row or an array of them, into estimates.

The numerics are numpy and the standard library only: importing scipy
would cost more than most stages' work. A g2 interval holds 68% of the
flat-prior binomial likelihood of its coincidences, L(p) ~ p^N (1-p)^(T-N),
16% beyond each edge (Beta quantiles of DiDonato & Morris, ACM TOMS 18,
360 (1992), one array solve per stream); singles are held at their
maximum-likelihood values, as coincidences dominate the error budget.
The bound and n_th combine two counts: their intervals are profile
likelihoods, where the log-likelihood is 1/2 below its peak, and each
inner maximum is the root of its stationarity condition. One bisection
to the last float finds every edge and n_th's root. Exponential fits use
variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
(1973)) with ``protocol``'s golden-section search, which otherwise
serves only the heating calibration."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import tags
from .config import ExperimentConfig
from .protocol import (G2_EVENTS, MASKS, SLOT_BITS, EstimatorError, _golden_section,
                       pattern_g2, window_geometry)

TAIL_MASS = 0.16


class DegenerateCountsError(EstimatorError):
    """Both autocorrelation inputs carry zero coincidences."""


class FitError(EstimatorError):
    """Exponential fit failed to converge."""


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# _stirling_correction below 10 at the integers, as numpy has no lgamma
_STIRLING_SMALL = np.array([math.nan] + [math.lgamma(z) - (z - 0.5) * math.log(z) + z
                                         - _HALF_LOG_2PI for z in range(1, 10)])


def _stirling_correction(z: np.ndarray) -> np.ndarray:
    """ln Gamma(z) minus its Stirling approximation (z-1/2) ln z - z + ln(2 pi)/2,
    for integers z >= 1."""
    w = 1.0 / (z * z)  # asymptotic series; the first omitted term is < 1e-15
    series = (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (
        1 / 1680 - w * (1 / 1188 - w * 691 / 360360))))) / z
    return np.where(z < 10.0, _STIRLING_SMALL[np.minimum(z, 9.0).astype(np.intp)], series)


def _beta_fraction(a, b, x, y, lam):
    """I_x(a, b) / (x^a (1-x)^b / B(a, b)) for a, b > 1, y = 1 - x and
    lam = a - (a+b) x >= 0: the continued fraction BFRAC of DiDonato &
    Morris, evaluated by the modified Lentz method, each element until its
    own factor has converged. Given lam, it needs neither 1 - x nor 1 - y,
    so no term cancels when b >> a; it takes O(sqrt(a)) terms."""
    tiny = 1e-300
    out, at = np.empty_like(x), np.arange(x.size)
    c, c0, c1, y1 = lam + 1.0, b / a, 1.0 / a + 1.0, y + 1.0
    p, s = np.ones_like(x), a + 1.0
    g = big_c = c / c1
    d = np.zeros_like(x)
    for n in range(1, 10**7):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        p = t + 1.0
        beta = n + w / s + p / (c1 + t + t) * (c + n * y1)
        s = s + 2.0
        d = beta + alpha * d
        d = 1.0 / np.where(np.abs(d) > tiny, d, tiny)
        big_c = beta + alpha / big_c
        big_c = np.where(np.abs(big_c) > tiny, big_c, tiny)
        factor = big_c * d
        g = g * factor
        if (done := np.abs(factor - 1.0) <= 2.3e-16).any():
            out[at[done]], keep = 1.0 / g[done], ~done
            if not keep.any():
                return out
            at, a, b, x, c, c0, c1, y1, p, s, g, big_c, d = (
                v[keep] for v in (at, a, b, x, c, c0, c1, y1, p, s, g, big_c, d))
    out[at] = 1.0 / g
    return out


def _beta_cdf_pdf(a, b, x, log_norm):
    """Regularized incomplete beta I_x(a, b) and its derivative, for a, b > 1
    and 0 < x < 1, given log_norm = ln(a^a b^b / ((a+b)^(a+b) B(a, b))).

    With e = (a+b) x - a, ln(x^a (1-x)^b / B(a, b)) is a ln(1 + e/a)
    + b ln(1 - e/b) + log_norm: lgamma differences would lose
    ~ulp(ln Gamma(a+b)), which is 2e-7 at a+b = 1e8."""
    e = (a + b) * x - a
    power = np.exp(a * np.log1p(e / a) + b * np.log1p(-e / b) + log_norm)
    upper = e > 0.0  # there I_x(a, b) = 1 - I_(1-x)(b, a)
    frac = _beta_fraction(np.where(upper, b, a), np.where(upper, a, b),
                          np.where(upper, 1.0 - x, x), np.where(upper, x, 1.0 - x), np.abs(e))
    cdf = power * frac
    return np.where(upper, 1.0 - cdf, cdf), power / (x * (1.0 - x))


def _beta_quantile(a, b, q):
    """x with I_x(a, b) = q, elementwise for integers a, b >= 1 and
    0 < q < 1: Newton steps from the starting guess of Press et al.,
    Numerical Recipes 3rd ed. 6.4, kept inside a bracket; each element
    leaves the active set once it has converged."""
    swap = a > b  # solved as I_(1-x)(b, a) = 1 - q
    a, b, q = np.where(swap, b, a), np.where(swap, a, b), np.where(swap, 1.0 - q, q)
    x = -np.expm1(np.log1p(-q) / b)  # I_x(1, b) = 1 - (1-x)^b
    at = np.flatnonzero(a != 1.0)
    a, b, q = a[at], b[at], q[at]
    # Stirling's series for the B(a, b) of _beta_cdf_pdf's log_norm
    log_norm = (0.5 * np.log(a * b / (a + b)) - _HALF_LOG_2PI + _stirling_correction(a + b)
                - _stirling_correction(a) - _stirling_correction(b))
    t = np.sqrt(-2.0 * np.log(np.minimum(q, 1.0 - q)))
    z = (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t)) - t
    z = np.where(q < 0.5, -z, z)
    al = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    w = (z * np.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0))
         * (al + 5.0 / 6.0 - 2.0 / (3.0 * h)))
    xi = a / (a + b * np.exp(2.0 * w))
    lo, hi = np.zeros_like(xi), np.ones_like(xi)
    for _ in range(200):
        if not at.size:
            break
        cdf, pdf = _beta_cdf_pdf(a, b, xi, log_norm)
        below = cdf < q
        lo, hi = np.where(below, xi, lo), np.where(below, hi, xi)
        step = xi - (cdf - q) / np.where(pdf > 0.0, pdf, np.nan)
        exact = cdf == q
        done = exact | (np.abs(step - xi) <= 1e-12 * xi)
        x[at[done]] = np.where(exact, xi, step)[done]
        # outside the bracket, halve the way to its end instead
        xi = np.where((lo < step) & (step < hi), step, 0.5 * (xi + np.where(below, hi, lo)))
        if done.any():
            keep = ~done
            at, a, b, q, log_norm, xi, lo, hi = (
                v[keep] for v in (at, a, b, q, log_norm, xi, lo, hi))
    x[at] = xi
    return np.where(swap, 1.0 - x, x)


def binomial_ci(n_events, n_trials):
    """Maximum-likelihood probability and 68% likelihood interval, elementwise
    over arrays of counts (floats for scalar counts).

    The normalized likelihood is the Beta(N+1, T-N+1) density; sigma_minus
    and sigma_plus each cut off 16% of its mass, clamped to 0 when the
    corresponding side is exhausted (N=0 or N=T).
    """
    n_events, n_trials = np.broadcast_arrays(n_events, n_trials)
    for bad, message in ((n_trials < 1, "need at least one trial, got {1}"),
                         ((n_events < 0) | (n_events > n_trials), "events {0} outside [0, {1}]")):
        if bad.any():  # name the first bad element, not the whole array
            i = bad.argmax()
            raise EstimatorError(message.format(n_events.flat[i], n_trials.flat[i])
                                 + (f" (element {i})" if bad.ndim else ""))
    p_ml = n_events / n_trials
    a, b = (np.tile(np.ravel(v), 2) for v in (n_events + 1.0, n_trials - n_events + 1.0))
    lo, hi = _beta_quantile(a, b, np.repeat([TAIL_MASS, 1.0 - TAIL_MASS], p_ml.size)).reshape(
        2, *p_ml.shape)
    interval = p_ml, np.maximum(p_ml - lo, 0.0), np.maximum(hi - p_ml, 0.0)
    return tuple(v.item() if v.ndim == 0 else v for v in interval)


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    sigma_minus: float
    sigma_plus: float
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any((self.value < 0) | (self.sigma_minus > self.value + 1e-12)):
            raise ValueError("interval extends below zero")

    @property
    def lower(self) -> float:
        return self.value - self.sigma_minus

    @property
    def upper(self) -> float:
        return self.value + self.sigma_plus


@dataclass
class TrialTable:
    """Clicked trials of one write->read delay setting: the sorted, unique
    local trials with a click in the (trimmed) windows and each one's
    nonzero click pattern, built from ``protocol.SLOT_BITS`` as it indexes
    ``OutcomeTable.probs``."""

    delta_t_ns: float
    trials: int
    clicked: np.ndarray
    patterns: np.ndarray

    def cross_coincidences(self, delta_n_max: int) -> np.ndarray:
        """W clicks at trial n with an R click at trial n + dn, for each dn in
        1..delta_n_max (slot dn - 1): one sweep adds each W->R gap to its
        offset's count."""
        counts = np.zeros(delta_n_max, dtype=np.int64)
        c, (w, r) = self.clicked, (MASKS[name][self.patterns] for name in ("W", "R"))
        for lo in range(0, c.size, tags.BLOCK_RECORDS):
            for lag in range(1, c.size - lo):  # clicks lag places apart are >= lag trials apart
                a = slice(lo, min(lo + tags.BLOCK_RECORDS, c.size - lag))
                b = slice(a.start + lag, a.stop + lag)
                gap = c[b] - c[a]
                if not (near := gap <= delta_n_max).any():
                    break
                np.add.at(counts, gap[near & w[a] & r[b]] - 1, 1)
        return counts

    def pattern_counts(self) -> np.ndarray:
        """Trials per pattern; pattern 0 is every trial that did not click."""
        # a block at a time: np.bincount copies its input to intp
        counts = sum((np.bincount(self.patterns[i:i + tags.BLOCK_RECORDS], minlength=16)
                      for i in range(0, self.patterns.size, tags.BLOCK_RECORDS)),
                     np.zeros(16, dtype=np.int64))
        counts[0] = self.trials - self.clicked.size
        return counts


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
    trials, settings = config.protocol.trials, config.protocol.delta_t_list_ns
    if stream.trial_count != trials * len(settings):
        raise tags.TagFormatError(f"stream holds {stream.trial_count} trials, "
                                  f"config implies {trials * len(settings)}")
    # [setting, start|length, pulse label], of the configured and the trimmed windows
    full, trimmed = (np.array([window_geometry(config, dt, ns) for dt in settings])
                     for ns in (None, read_window_ns))
    # one (global trial, slot) key per kept record, 4 * trial + slot < 4 * 2**61,
    # filled a block at a time: one sort groups each trial's records in any
    # record order, and OR-ing their bits ignores repeated records
    key, n = np.empty(len(stream), dtype=np.int64), 0
    for rec in stream.blocks():
        setting, label = rec["trial_index"] // trials, rec["pulse_label"]
        # time past the window start; before it, the uint64 difference wraps
        # beyond every length, so one compare checks both window edges
        offset = rec["time_ps"] - full[setting, 0, label]
        bad = offset >= full[setting, 1, label]
        if bad.any():
            raise tags.TagFormatError("record time outside its labelled pulse window "
                                      f"(trial {int(rec['trial_index'][bad.argmax()])})")
        keep = offset < trimmed[setting, 1, label]
        kept = rec["trial_index"][keep].view(np.int64) * 4 + 2 * label[keep] + rec["detector"][keep]
        key[n:n + kept.size], n = kept, n + kept.size
    key = key[:n]
    key.sort()
    # blocks cut where a trial starts write its trials over the keys they read
    cuts = np.searchsorted(key, key[::tags.BLOCK_RECORDS] & ~3)
    patterns, m = np.empty(n, dtype=np.uint8), 0
    for lo, hi in zip(cuts, [*cuts[1:], n]):
        trial = key[lo:hi] >> 2
        first = np.flatnonzero(np.diff(trial, prepend=-1))
        patterns[m:m + first.size] = np.bitwise_or.reduceat(SLOT_BITS[key[lo:hi] & 3], first)
        key[m:m + first.size], m = trial[first], m + first.size
    clicked, patterns = key[:m], patterns[:m]
    bounds = np.searchsorted(clicked, np.arange(len(settings) + 1) * trials)
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        clicked[lo:hi] -= k * trials  # each setting's own trial indices
    return {dt: TrialTable(dt, trials, clicked[lo:hi], patterns[lo:hi])
            for dt, lo, hi in zip(settings, bounds, bounds[1:])}


# an estimate before its interval solve, g = N_coinc / pairs * scale, per count row
Term = namedtuple("Term", "pairs scale counts")


def solve(nest):
    """``nest``, nested dicts holding ``Term``s, with each Term replaced by its
    estimate: one interval solve, once for a Term held in several places."""
    def each(x, f):  # x with f applied to each of its Terms
        return ({key: each(item, f) for key, item in x.items()} if isinstance(x, dict)
                else f(x) if isinstance(x, Term) else x)
    terms = {}
    each(nest, lambda term: terms.setdefault(id(term), term))
    # each Term's coincidences, trial pairs and scales, then all of them flat
    parts = [np.broadcast_arrays(t.counts["N_coinc"], t.pairs, t.scale) for t in terms.values()]
    coinc, pairs, scale = (np.concatenate([[], *(p[i].ravel() for p in parts)]) for i in range(3))
    intervals = (np.split(v * scale, np.cumsum([p[0].size for p in parts])[:-1])
                 for v in binomial_ci(coinc, pairs))
    done = {key: CorrelationEstimate(*(v.reshape(p[0].shape)[()] for v in iv), t.counts)
            for key, t, p, *iv in zip(terms, terms.values(), parts, *intervals)}
    return each(nest, lambda term: done[id(term)])


def g2_auto_estimate(row, trials: int, window: str) -> Term:
    """HBT autocorrelation in window X (W of WRITE, R of READ) of a count row:
    N_X1X2 over N_X1 and N_X2. WRITE pools every setting's row (the mechanics
    are reinitialized before each write), READ takes one setting's."""
    name = f"g2_{window[0] * 2}"
    coinc, n1, n2 = (row[..., MASKS[event]].sum(-1).tolist() for event in G2_EVENTS[name])
    return Term(trials, pattern_g2(row, trials, (name,))[1][..., 0].tolist(),
                {"N_coinc": coinc, "N_1": n1, "N_2": n2, "T": trials, "window": window})


def g2_cross_estimate(row, trials: int, swept=()) -> dict:
    """The write at trial n against the read at n + dn: g2_om from a count row's N_WR,
    N_W and N_R, and "delta_n" and "delta_n_pooled" from a lag sweep's dn = 1..N counts."""
    scale = pattern_g2(row, trials, ("g2_om",))[1][..., 0].tolist()
    n_wr, n_w, n_r = (row[..., MASKS[event]].sum(-1).tolist() for event in G2_EVENTS["g2_om"])

    def term(dn, coinc, pairs):
        return Term(pairs, scale, {"N_coinc": coinc, "pairs": pairs, "N_W": n_w,
                                   "N_R": n_r, "T": trials, "delta_n": dn})
    cross, pooled = {"g2_om": term(0, n_wr, trials)}, range(1, len(swept) + 1)
    if swept:
        cross["delta_n"] = {dn: term(dn, k, trials - dn) for dn, k in zip(pooled, swept)}
        cross["delta_n_pooled"] = term(list(pooled), sum(swept), trials * len(swept) - sum(pooled))
    return cross


def _binomial_deficit(n_events: int, n_trials: int, p: float) -> float:
    """ln L(N/T) - ln L(p) of the binomial likelihood, summed as T times a
    Kullback-Leibler divergence; infinite at p = 0 or 1 unless N/T is."""
    p_ml = n_events / n_trials
    if not 0.0 < p < 1.0:
        return 0.0 if p == p_ml else math.inf
    return ((n_events * math.log(p_ml / p) if n_events else 0.0)
            + ((n_trials - n_events) * math.log1p((p - p_ml) / (1.0 - p))
               if n_events < n_trials else 0.0))


def _bisect(holds, inside: float, outside: float) -> float:
    """The last float from ``inside`` to ``outside`` where ``holds``, by
    bisection, for a ``holds`` true at ``inside`` that turns false once."""
    if holds(outside):
        return outside
    while inside != (mid := 0.5 * (inside + outside)) != outside:
        inside, outside = (mid, outside) if holds(mid) else (inside, mid)
    return inside


def _likelihood_edge(deficit, inside: float, outside: float) -> float:
    """Where a unimodal profile's log-likelihood ``deficit``, 0 at ``inside``,
    reaches 1/2 towards ``outside`` (68.3%: Wilks, Ann. Math. Stat. 9, 60 (1938))."""
    return _bisect(lambda v: deficit(v) <= 0.5, inside, outside)


def _convex_minimum(f, slope, lo: float, hi: float) -> float:
    """The least f on [lo, hi] of a convex f, at its ``slope``'s sign change."""
    at = _bisect(lambda v: slope(v) < 0.0, lo, hi)
    return min(f(at), f(math.nextafter(at, hi)))


def classical_bound(auto_write: Term, auto_read: Term) -> CorrelationEstimate:
    """Profile likelihood of b = sqrt(g_WW * g_RR) of the autocorrelations'
    Terms (Rolke, Lopez & Conrad, NIM A 551, 493 (2005)). With g = p * scale,
    a fixed b fixes p_W * p_R; the joint log-likelihood is concave in ln p_W
    along it, so its maximum is a root of the quadratic of its stationarity
    condition, and the profile is concave in ln b. The value is the bound of
    the maximum-likelihood g's: 0, with the one-sided interval [0, upper],
    when a side has no coincidence."""
    counts = {"write": dict(auto_write.counts), "read": dict(auto_read.counts)}
    (n_w, t_w, s_w), (n_r, t_r, s_r) = ((t.counts["N_coinc"], t.counts["T"], t.scale)
                                        for t in (auto_write, auto_read))
    if n_w == 0 and n_r == 0:
        raise DegenerateCountsError(
            "both autocorrelations have zero coincidences; bound undefined")
    top = math.sqrt(s_w * s_r)  # the bound at p_W = p_R = 1

    def deficit(b):
        if not 0.0 < b < top:
            return math.inf
        k = (b / top) ** 2  # p_W * p_R
        # d ln L / d p_W times p_W (1 - p_W) (p_W - k): >= 0 at k, <= 0 at 1
        qa, qc = n_r - t_w, k * (t_r - n_w)
        qb = (n_w - n_r) * (1.0 + k) + k * ((t_w - n_w) - (t_r - n_r))
        if qa:
            q = -0.5 * (qb + math.copysign(math.sqrt(qb * qb - 4.0 * qa * qc), qb))
            p_w = q / qa if qb >= 0.0 else qc / q  # (-qb - sqrt(qb^2 - 4 qa qc)) / (2 qa)
        else:  # a linear condition; at qb = qc = 0 the profile is flat
            p_w = -qc / qb if qb else k
        p_w = min(max(p_w, k), 1.0)  # the root, in [k, 1] also after rounding
        return _binomial_deficit(n_w, t_w, p_w) + _binomial_deficit(n_r, t_r, k / p_w)

    value = math.sqrt((n_w / t_w * s_w) * (n_r / t_r * s_r))
    lower, upper = (_likelihood_edge(deficit, value, end) for end in (0.0, top))
    return CorrelationEstimate(value, value - lower, upper - value, counts)


@dataclass(frozen=True)
class CauchySchwarzVerdict:
    violated: bool
    margin: float


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
    interval is the profile likelihood of both colours' counts: at
    x = n / (1 + n) the red rate is (1 - x) background + x Gamma_B, and the
    joint log-likelihood, concave in Gamma_B, peaks between the colours'
    own maxima. An interval reaching equal rates (x = 1) is an error.
    """
    if pulses < 1:
        raise EstimatorError(f"need at least one pulse per color, got {pulses}")
    rate_red, rate_blue = clicks_red / pulses, clicks_blue / pulses
    denom = rate_blue - rate_red
    if denom <= 0:
        raise EstimatorError(
            f"rate asymmetry pole: Gamma_B={rate_blue} <= Gamma_R={rate_red}")
    value = max(rate_red - background, 0.0) / denom

    def profile(x):  # the least joint log-likelihood deficit over Gamma_B
        if not 0.0 <= x <= 1.0:
            return math.inf

        def joint(blue):
            return (_binomial_deficit(clicks_blue, pulses, blue) + _binomial_deficit(
                clicks_red, pulses, (1.0 - x) * background + x * blue))

        def slope(blue):  # d joint / d Gamma_B times Gamma_B (1 - Gamma_B) r (1 - r) / pulses
            red = (1.0 - x) * background + x * blue
            return ((blue - rate_blue) * red * (1.0 - red)
                    + x * (red - rate_red) * blue * (1.0 - blue))
        blue_at_red = (rate_red - (1.0 - x) * background) / x if x else rate_blue
        return _convex_minimum(joint, slope,
                               *sorted((rate_blue, min(max(blue_at_red, 0.0), 1.0))))

    x_ml = value / (1.0 + value)
    peak = profile(x_ml)
    x_lo, x_hi = (_likelihood_edge(lambda x: profile(x) - peak, x_ml, end)
                  for end in (0.0, 1.0))
    if x_hi == 1.0:
        raise EstimatorError("red and blue rates agree within the interval: "
                             "n_th has no upper limit")
    counts = {"clicks_red": clicks_red, "clicks_blue": clicks_blue,
              "pulses": pulses, "background": background}
    return CorrelationEstimate(value, value - x_lo / (1.0 - x_lo),
                               x_hi / (1.0 - x_hi) - value, counts)


@dataclass(frozen=True)
class ExponentialFit:
    amplitude: float
    time_constant: float
    offset: float
    rms_residual: float


FIT_TAU_BOUNDS = (1e-12, 1e12)
FIT_SCAN_POINTS = 121


def _projected_fit(t, y, log_tau):
    """a, c and the residual sum of squares of the linear least squares
    y ~ a * (exp(-t/tau) - 1) + c at fixed tau. Both models are this one
    with a shifted offset; expm1 keeps the basis exact as tau grows."""
    u = np.expm1(-t / math.exp(log_tau))
    uc = u - u.mean()
    suu = float(uc @ uc)
    a = float(uc @ (y - y.mean())) / suu if suu > 0 else 0.0
    c = float(y.mean() - a * u.mean())
    resid = y - (a * u + c)
    return a, c, float(resid @ resid)


def fit_exponential(t, y, model: str = "decay") -> ExponentialFit:
    """Least-squares fit of A*exp(-t/tau)+c or A*(1-exp(-t/tau))+c.

    Variable projection: at fixed tau, A and c solve a linear least
    squares, so only tau is searched, on a grid in log tau over
    FIT_TAU_BOUNDS and then by golden section between the grid neighbours
    of the best point. A best tau on a bound is a FitError.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size < 4 or t.size != y.size:
        raise ValueError("need at least 4 (t, y) points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t must be strictly ascending")
    if model not in ("decay", "saturating-rise"):
        raise ValueError(f"unknown model {model!r}")
    if np.ptp(y) < 1e-14 * max(1.0, np.abs(y).max()):
        return ExponentialFit(0.0, np.inf, float(y.mean()), float(y.std()))

    def ssr(log_tau):
        return _projected_fit(t, y, log_tau)[2]

    grid = np.linspace(*np.log(FIT_TAU_BOUNDS), FIT_SCAN_POINTS)
    best = int(np.argmin([ssr(x) for x in grid]))
    if not 0 < best < grid.size - 1:
        raise FitError(f"exponential fit: best time constant at a bound of "
                       f"{FIT_TAU_BOUNDS}")
    _, log_tau = _golden_section(ssr, grid[best - 1], grid[best + 1], 1e-10)
    a, c, rss = _projected_fit(t, y, log_tau)
    amplitude, offset = (a, c - a) if model == "decay" else (-a, c)
    tau = math.exp(log_tau)
    if not np.isfinite([tau, amplitude, offset, rss]).all():
        raise FitError(f"exponential fit did not converge (tau={tau})")
    return ExponentialFit(amplitude, tau, offset, math.sqrt(rss / t.size))
