"""Covariance-matrix representation of zero-mean Gaussian states.

Quadrature ordering is (x_1, p_1, x_2, p_2, ...) with the vacuum at
cov = I/2. Second moments evolve under thermal / squeezing /
beam-splitter / loss / additive-noise channels and give exact mean
occupations and the vacuum (no-click) probabilities of lossy mode subsets,
the one quantity the click tables of ``protocol`` are built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12
UNCERTAINTY_TOL = 1e-10


def symplectic_form(n_modes: int) -> np.ndarray:
    omega1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), omega1)


@dataclass(frozen=True)
class CovarianceState:
    """Zero-mean Gaussian state of ``n_modes`` bosonic modes."""

    cov: np.ndarray

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        object.__setattr__(self, "cov", cov)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
            raise ValueError(f"covariance shape {cov.shape} is not (2m, 2m)")
        if np.abs(cov - cov.T).max() > SYMMETRY_TOL:
            raise ValueError("covariance matrix not symmetric within tolerance")
        omega = symplectic_form(cov.shape[0] // 2)
        w = np.linalg.eigvalsh(cov + 0.5j * omega)
        if w.min() < -UNCERTAINTY_TOL:
            raise ValueError(
                f"uncertainty relation violated (min eigenvalue {w.min():.3e})")
        cov.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2

    @classmethod
    def vacuum(cls, n_modes: int) -> "CovarianceState":
        return cls(0.5 * np.eye(2 * n_modes))

    def mean_occupation(self, mode: int) -> float:
        k = 2 * mode
        return 0.5 * (self.cov[k, k] + self.cov[k + 1, k + 1]) - 0.5

    def _submatrix(self, modes) -> np.ndarray:
        idx = np.concatenate([[2 * m, 2 * m + 1] for m in modes])
        return self.cov[np.ix_(idx, idx)]


def _embed(n_modes: int, block: np.ndarray, modes) -> np.ndarray:
    s = np.eye(2 * n_modes)
    idx = np.concatenate([[2 * m, 2 * m + 1] for m in modes])
    s[np.ix_(idx, idx)] = block
    return s


def apply_symplectic(state: CovarianceState, s: np.ndarray) -> CovarianceState:
    return CovarianceState(s @ state.cov @ s.T)


def set_thermal(state: CovarianceState, mode: int, n_bar: float) -> CovarianceState:
    """Replace one mode by an uncorrelated thermal state."""
    if n_bar < 0:
        raise ValueError(f"n_bar must be >= 0, got {n_bar}")
    cov = np.array(state.cov)
    k = 2 * mode
    cov[k:k + 2, :] = 0.0
    cov[:, k:k + 2] = 0.0
    cov[k, k] = cov[k + 1, k + 1] = n_bar + 0.5
    return CovarianceState(cov)


def two_mode_squeeze(state: CovarianceState, mode_a: int, mode_b: int,
                     r: float) -> CovarianceState:
    c, s = np.cosh(r), np.sinh(r)
    # a -> cosh r * a + sinh r * b^dag
    mix = s * np.diag([1.0, -1.0])
    block = np.block([[c * np.eye(2), mix], [mix.T, c * np.eye(2)]])
    return apply_symplectic(state, _embed(state.n_modes, block, [mode_a, mode_b]))


def beam_splitter(state: CovarianceState, mode_a: int, mode_b: int,
                  transmittance: float) -> CovarianceState:
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    theta = np.arcsin(np.sqrt(transmittance))
    c, s = np.cos(theta), np.sin(theta)
    mix = s * np.eye(2)
    block = np.block([[c * np.eye(2), mix], [-mix.T, c * np.eye(2)]])
    return apply_symplectic(state, _embed(state.n_modes, block, [mode_a, mode_b]))


def loss(state: CovarianceState, mode: int, eta: float) -> CovarianceState:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    x = np.eye(2 * state.n_modes)
    y = np.zeros_like(x)
    k = 2 * mode
    x[k, k] = x[k + 1, k + 1] = np.sqrt(eta)
    y[k, k] = y[k + 1, k + 1] = 0.5 * (1.0 - eta)
    return CovarianceState(x @ state.cov @ x.T + y)


def add_noise(state: CovarianceState, mode: int, delta_n: float) -> CovarianceState:
    """Classical additive-noise channel: <n> -> <n> + delta_n on one mode."""
    if delta_n < 0:
        raise ValueError(f"delta_n must be >= 0, got {delta_n}")
    cov = np.array(state.cov)
    cov[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] += delta_n * np.eye(2)
    return CovarianceState(cov)


def log_vacuum_probability(state: CovarianceState, modes, etas) -> np.ndarray:
    """log P(``modes`` all in vacuum after loss ``etas[j]``), one per row j.

    Loss eta turns the vacuum projection into the no-click POVM (1 - eta)^n
    of a threshold detector. With root the per-quadrature sqrt(eta), the
    lossy covariance plus I/2 is I + x, x = root (cov - I/2) root, and
    P = det(I + x)^(-1/2) is summed from log1p of the eigenvalues of the
    symmetric x, so log P stays accurate near P = 1.
    """
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    if etas.min() < 0.0 or etas.max() > 1.0:
        raise ValueError("efficiencies must lie in [0, 1]")
    root = np.sqrt(np.repeat(etas, 2, axis=1))
    sub = state._submatrix(modes) - 0.5 * np.eye(2 * len(modes))
    x = root[:, :, None] * sub * root[:, None, :]
    return -0.5 * np.log1p(np.linalg.eigvalsh(x)).sum(axis=1)
