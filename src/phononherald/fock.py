"""Truncated Fock-space engine for a pair of bosonic modes.

States are density operators on the tensor basis |n_A> x |n_B| with mode A
listed first and a common per-mode photon-number cutoff ``n_max``. All
channels return new states; nothing is mutated in place. Every constructor
and channel re-checks the state invariants (trace, Hermiticity, positivity
and top-level truncation leakage), so a state that survives a pipeline is
guaranteed to be numerically trustworthy.

With the click POVM of two threshold detectors on one mode
(``pair_click_matrix``) and pattern-conditioned states
(``conditional_mech_states``) it is the tests' oracle for the closed-form
outcome tables of ``protocol``; no production path imports it. The
heralded-state approximations that the oracle checks sit next to it. Like
the rest of the package it needs numpy and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import PATTERN_FROM_SILENT

DEFAULT_N_MAX = 8
DEFAULT_LEAK_TOL = 1e-8
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = -1e-10
N_FLOOR = 1e-12


class TruncationError(Exception):
    """The state leaks population into the top Fock level of a mode."""


class StateInvariantError(Exception):
    """Trace, Hermiticity or positivity of a density operator is broken."""


class UndefinedCorrelationError(Exception):
    """g2 requested for a mode whose mean occupation is below the floor."""


def destroy(n_max: int) -> np.ndarray:
    """Single-mode annihilation operator on the truncated space."""
    d = n_max + 1
    a = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def thermal_probs(n_bar: float, n_max: int) -> np.ndarray:
    """Renormalized truncated geometric distribution with mean ~ n_bar."""
    if n_bar < 0:
        raise ValueError(f"n_bar must be >= 0, got {n_bar}")
    if n_bar == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    ns = np.arange(n_max + 1)
    p = np.exp(ns * np.log(n_bar / (1.0 + n_bar))) / (1.0 + n_bar)
    return p / p.sum()


def thermal_state(n_bar: float, n_max: int = DEFAULT_N_MAX,
                  leak_tol: float = DEFAULT_LEAK_TOL) -> np.ndarray:
    """Single-mode thermal density operator, diagonal in the Fock basis.

    Raises TruncationError when the (pre-normalization) population of the
    top level exceeds ``leak_tol``.
    """
    p = thermal_probs(n_bar, n_max)
    if p[-1] > leak_tol:
        raise TruncationError(
            f"thermal state n_bar={n_bar} leaks {p[-1]:.3e} into level "
            f"{n_max} (tolerance {leak_tol:.1e})")
    return np.diag(p).astype(complex)


def fock_state(n: int, n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """Projector onto |n> as a single-mode density operator."""
    if not 0 <= n <= n_max:
        raise ValueError(f"Fock index {n} outside [0, {n_max}]")
    rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    rho[n, n] = 1.0
    return rho


def vacuum_rho(n_max: int) -> np.ndarray:
    return fock_state(0, n_max)


@dataclass(frozen=True)
class TwoModeFockState:
    """Two-mode density operator with per-mode cutoff ``n_max``.

    ``rho`` has shape ((n_max+1)**2, (n_max+1)**2) in the kron ordering
    where mode A is the slow index.
    """

    rho: np.ndarray
    n_max: int
    leak_tol: float = DEFAULT_LEAK_TOL

    def __post_init__(self):
        object.__setattr__(self, "rho", np.array(self.rho, dtype=complex))
        validate_two_mode(self.rho, self.n_max, self.leak_tol)
        self.rho.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @classmethod
    def from_single_modes(cls, rho_a: np.ndarray, rho_b: np.ndarray,
                          leak_tol: float = DEFAULT_LEAK_TOL) -> "TwoModeFockState":
        if rho_a.shape != rho_b.shape:
            raise ValueError("mode cutoffs must match")
        n_max = rho_a.shape[0] - 1
        return cls(np.kron(rho_a, rho_b), n_max, leak_tol)

    @classmethod
    def vacuum(cls, n_max: int = DEFAULT_N_MAX,
               leak_tol: float = DEFAULT_LEAK_TOL) -> "TwoModeFockState":
        return cls.from_single_modes(vacuum_rho(n_max), vacuum_rho(n_max), leak_tol)

    def joint_number_distribution(self) -> np.ndarray:
        """P(n_A, n_B) as a real (d, d) array."""
        d = self.dim
        return np.real(np.diag(self.rho)).reshape(d, d)

    def reduced(self, mode: str) -> np.ndarray:
        """Partial trace down to a single-mode density operator."""
        d, ket = self.dim, _mode_axis(mode)
        return np.trace(self.rho.reshape(d, d, d, d), axis1=1 - ket, axis2=3 - ket)

    def mean_occupation(self, mode: str) -> float:
        return _number_moments(self.reduced(mode))[0]


def _mode_axis(mode: str) -> int:
    """Ket axis of mode A (0) or B (1) in rho.reshape(d, d, d, d); its bra
    axis is two further on."""
    if mode not in ("A", "B"):
        raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")
    return "AB".index(mode)


def validate_two_mode(rho: np.ndarray, n_max: int, leak_tol: float) -> None:
    d = n_max + 1
    if rho.shape != (d * d, d * d):
        raise ValueError(f"rho shape {rho.shape} inconsistent with n_max={n_max}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateInvariantError(f"trace {tr} deviates from 1 by {abs(tr-1):.3e}")
    if np.abs(rho - rho.conj().T).max() > HERMITICITY_TOL:
        raise StateInvariantError("density operator not Hermitian within tolerance")
    w = np.linalg.eigvalsh(rho)
    if w.min() < EIGENVALUE_TOL:
        raise StateInvariantError(f"negative eigenvalue {w.min():.3e}")
    p = np.real(np.diag(rho)).reshape(d, d)
    leak_a = p[d - 1, :].sum()
    leak_b = p[:, d - 1].sum()
    if leak_a > leak_tol or leak_b > leak_tol:
        raise TruncationError(
            f"top-level population (A={leak_a:.3e}, B={leak_b:.3e}) exceeds "
            f"leak_tol={leak_tol:.1e}; state is truncation-unsafe")


def _apply_unitary(state: TwoModeFockState, generator: np.ndarray) -> TwoModeFockState:
    # generator is anti-Hermitian, so i*G is Hermitian and the truncated
    # propagator is exactly unitary (trace preserved by construction).
    h = 1j * generator
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    rho = u @ state.rho @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return TwoModeFockState(rho, state.n_max, state.leak_tol)


def two_mode_squeeze(state: TwoModeFockState, r: float) -> TwoModeFockState:
    """Apply U = exp[r (a_A^dag a_B^dag - h.c.)]."""
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    if r == 0:
        return state
    a = destroy(state.n_max)
    ab = np.kron(a, a)  # a_A a_B
    return _apply_unitary(state, r * (ab.conj().T - ab))


def beam_splitter(state: TwoModeFockState, transmittance: float) -> TwoModeFockState:
    """Two-mode rotation that swaps a fraction ``transmittance`` of mode A
    into mode B (and vice versa): at transmittance 1 the modes exchange.
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    if transmittance == 0:
        return state
    theta = np.arcsin(np.sqrt(transmittance))
    a = destroy(state.n_max)
    cross = np.kron(a.conj().T, a)  # a_A^dag a_B
    return _apply_unitary(state, theta * (cross - cross.conj().T))


def loss_kraus(eta: float, n_max: int) -> list[np.ndarray]:
    """Kraus decomposition of the single-mode loss channel."""
    d = n_max + 1
    ops = []
    for k in range(d):
        m = np.arange(d - k)  # K_k maps |m + k> to |m>
        binom = np.array([math.comb(n, k) for n in range(k, d)], dtype=float)
        kk = np.zeros((d, d))
        kk[m, m + k] = np.sqrt(binom * eta ** m * (1 - eta) ** k)
        ops.append(kk)
    return ops


def attenuate_single(rho: np.ndarray, eta: float) -> np.ndarray:
    """Loss channel with transmissivity ``eta`` on the last two axes (one
    mode's ket and bra) of ``rho``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if eta == 1.0:
        return rho.copy()
    d = rho.shape[-1]
    out = np.zeros_like(rho)
    for k, kk in enumerate(loss_kraus(eta, d - 1)):
        # K_k rho K_k^dag moves rho[m + k, m' + k] to [m, m'], weighted by
        # K_k's k-th superdiagonal at m and at m'
        w = np.diagonal(kk, k)
        out[..., :d - k, :d - k] += w[:, None] * rho[..., k:, k:] * w
    return out


def attenuate(state: TwoModeFockState, mode: str, eta: float) -> TwoModeFockState:
    """Single-mode loss channel applied to mode A or B of a two-mode state."""
    d, ket = state.dim, _mode_axis(mode)
    if eta == 1.0:
        return state
    axes = (ket, ket + 2)
    rho = np.moveaxis(state.rho.reshape(d, d, d, d), axes, (2, 3))
    out = np.moveaxis(attenuate_single(rho, eta), (2, 3), axes).reshape(d * d, d * d)
    out = 0.5 * (out + out.conj().T)
    return TwoModeFockState(out, state.n_max, state.leak_tol)


def _number_moments(rho: np.ndarray) -> tuple[float, float]:
    """<n> and <n(n - 1)> of a single-mode density operator."""
    p_n = np.real(np.diag(rho))
    ns = np.arange(p_n.size)
    return float(p_n @ ns), float(p_n @ (ns * (ns - 1)))


def g2_auto(state: TwoModeFockState, mode: str, n_floor: float = N_FLOOR) -> float:
    """<n(n-1)> / <n>^2 evaluated exactly on the truncated state."""
    return g2_auto_single(state.reduced(mode), n_floor)


def g2_auto_single(rho: np.ndarray, n_floor: float = N_FLOOR) -> float:
    """Autocorrelation of a bare single-mode density operator."""
    mean, pair = _number_moments(rho)
    if mean <= n_floor:
        raise UndefinedCorrelationError(
            f"mean occupation {mean:.3e} below floor {n_floor:.1e}")
    return pair / mean ** 2


def g2_cross(state: TwoModeFockState, n_floor: float = N_FLOOR) -> float:
    """<n_A n_B> / (<n_A><n_B>) evaluated exactly on the truncated state."""
    mean_a, mean_b = state.mean_occupation("A"), state.mean_occupation("B")
    if mean_a <= n_floor or mean_b <= n_floor:
        raise UndefinedCorrelationError(
            f"mean occupations ({mean_a:.3e}, {mean_b:.3e}) below floor {n_floor:.1e}")
    ns = np.arange(state.dim)
    return float(ns @ state.joint_number_distribution() @ ns) / (mean_a * mean_b)


def add_thermal_noise(rho: np.ndarray, delta_n: float) -> np.ndarray:
    """Additive thermal noise on a single-mode state: <n> -> <n> + delta_n.

    Realized as a pure-loss channel with transmissivity 1/G followed by a
    quantum-limited amplifier of gain G = 1 + delta_n (the amplifier is a
    two-mode squeezer against a vacuum ancilla, traced out). The composite
    is the classical additive-noise Gaussian channel: unit transmissivity,
    covariance grows by delta_n per quadrature pair.
    """
    if delta_n < 0:
        raise ValueError(f"delta_n must be >= 0, got {delta_n}")
    if delta_n < 1e-15:
        return rho.copy()
    gain = 1.0 + delta_n
    n_max = rho.shape[0] - 1
    cooled = attenuate_single(rho, 1.0 / gain)
    # leak check deferred to the caller's final state; the intermediate
    # amplified joint state may legitimately populate the ancilla top level
    state = TwoModeFockState(np.kron(cooled, vacuum_rho(n_max)), n_max, leak_tol=1.0)
    amplified = two_mode_squeeze(state, np.arccosh(np.sqrt(gain)))
    return amplified.reduced("A")


def pair_click_matrix(n_max: int, eta: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """Joint click POVM for two detectors watching one mode.

    ``eta`` and ``log_b`` are the silent-subset efficiencies and log
    background factors of ``detection.silent_subsets``. Returns a
    (4, n_max+1) array q[pattern, n] with pattern index 2*click1 + click2.
    """
    # n ln(1 - eta), with 0 ln 0 = 0 at n = 0 when a subset's eta is 1
    with np.errstate(divide="ignore", invalid="ignore"):
        log_silent = np.arange(n_max + 1) * np.log1p(-eta[:, None])
    log_silent[:, 0] = 0.0
    log_silent += log_b[:, None]
    # click patterns are alternating sums of silent probabilities near 1:
    # sum their complements, which keep full relative accuracy
    q = PATTERN_FROM_SILENT @ np.expm1(log_silent)
    q[0] = np.exp(log_silent[3])
    return q


def conditional_mech_states(state: TwoModeFockState, q_patterns: np.ndarray):
    """Unnormalized mode-A states of ``state`` conditioned on the click
    patterns of ``q_patterns`` (rows of a ``pair_click_matrix``) on mode B.

    The POVM elements are diagonal in the optical number basis, so the
    conditional mode-A operator is a q-weighted partial trace over mode B.
    """
    d = state.dim
    r4 = state.rho.reshape(d, d, d, d)
    return [np.einsum("injn,n->ij", r4, q.astype(complex)) for q in q_patterns]


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
