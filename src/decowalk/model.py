"""Continuous-time walk on the N-cycle with site monitoring.

A single walker hops between nearest neighbours of a cycle of N vertices
while every vertex is weakly monitored at rate gamma.  Monitoring leaves
the vertex populations untouched and damps every coherence at the same
rate, so the density matrix rho(t) obeys

    d rho_jk / dt = (i/4) (rho_{j,k+1} - rho_{j+1,k} - rho_{j-1,k} + rho_{j,k-1})
                    - gamma (1 - delta_jk) rho_jk,

all indices cyclic.  The phase change of variables

    S_jk = i^(k-j) rho_jk

(with j, k taken as the integer representatives 0..N-1) turns the
coherent part into a real difference stencil,

    d S_jk / dt = (1/4) (S_{j,k+1} + S_{j+1,k} - S_{j-1,k} - S_{j,k-1})
                  - gamma (1 - delta_jk) S_jk,

so a real initial S stays real for all times.  The change of variables is
single valued only when N is a multiple of 4; for other N the wrap-around
rows of the stencil disagree with the density equation and the two
pictures genuinely drift apart (see checks.representation_agreement).

This module holds the configuration record, the initial states, both
right-hand sides, and the change of variables rho -> S.  It is
also the one home of the input rules every other module applies:

* check_cycle_size: N is an integer (not a bool) >= 3;
* check_positive: a rate, step or window is finite and > 0;
* check_eps: a total-variation threshold lies in (0, 2];
* check_times: every time is finite and >= 0.

WalkConfig applies the fifth rule, gamma finite and >= 0, itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# i^m for m = 0..3; table lookup keeps the phases exact.
_QUARTER_PHASES = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


def check_cycle_size(n) -> None:
    """N must be an integer >= 3, so that left and right neighbours are distinct."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError(f"n must be an integer, got {n!r}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")


def check_positive(name: str, value: float) -> None:
    """A rate, step or window length must be finite and > 0."""
    if not (value > 0 and np.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_eps(eps: float) -> None:
    """Total variation lies in [0, 2], so a threshold must lie in (0, 2]."""
    if not 0 < eps <= 2:
        raise ValueError(f"eps must lie in (0, 2], got {eps}")


def check_times(t) -> np.ndarray:
    """Times as a float array, each one finite and >= 0."""
    t = np.asarray(t, dtype=float)
    ok = np.isfinite(t) & (t >= 0)
    if not ok.all():
        raise ValueError(f"t must be finite and >= 0, got {t[~ok].flat[0]}")
    return t


@dataclass(frozen=True)
class WalkConfig:
    """Cycle size (see check_cycle_size) and monitoring rate.

    gamma = 0 recovers the closed (unitary) walk.
    """

    n: int
    gamma: float = 0.0

    def __post_init__(self) -> None:
        check_cycle_size(self.n)
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


def offdiagonal_mask(n: int) -> np.ndarray:
    """Ones everywhere except the diagonal; the support of the damping."""
    return 1.0 - np.eye(n)


def initial_state(config: WalkConfig) -> np.ndarray:
    """Walker localised at vertex 0 in the phase-rotated picture (real S)."""
    s = np.zeros((config.n, config.n))
    s[0, 0] = 1.0
    return s


def initial_density(config: WalkConfig) -> np.ndarray:
    """Walker localised at vertex 0 as a density matrix."""
    rho = np.zeros((config.n, config.n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _check_state_shape(config: WalkConfig, x: np.ndarray) -> None:
    """A state, or each state of a stack, must be N x N."""
    if x.shape[-2:] != (config.n, config.n):
        raise ValueError(f"state must be {config.n}x{config.n}, got {x.shape}")


def s_rhs(config: WalkConfig, s: np.ndarray) -> np.ndarray:
    """Time derivative of the phase-rotated state S.

    Quarter-rate neighbour stencil plus uniform off-diagonal damping at
    rate gamma.  Row/column shifts are cyclic.  A stack of states
    (..., N, N) gives the stack of their derivatives.
    """
    _check_state_shape(config, s)
    # np.roll(s, -1, axis=-1)[..., j, k] = s[..., j, k+1] etc., all mod n.
    coherent = 0.25 * (
        np.roll(s, -1, axis=-1)
        + np.roll(s, -1, axis=-2)
        - np.roll(s, 1, axis=-2)
        - np.roll(s, 1, axis=-1)
    )
    return coherent - config.gamma * offdiagonal_mask(config.n) * s


def rho_rhs(config: WalkConfig, rho: np.ndarray) -> np.ndarray:
    """Time derivative of the density matrix rho.

    Coherent part is -i [H, rho] with H the cycle adjacency scaled so
    nearest-neighbour amplitudes move at rate 1/4; damping and stacks as
    in s_rhs.
    """
    _check_state_shape(config, rho)
    coherent = 0.25j * (
        np.roll(rho, -1, axis=-1)
        - np.roll(rho, -1, axis=-2)
        - np.roll(rho, 1, axis=-2)
        + np.roll(rho, 1, axis=-1)
    )
    return coherent - config.gamma * offdiagonal_mask(config.n) * rho


def rho_to_s(rho: np.ndarray) -> np.ndarray:
    """Apply S_jk = i^(k-j) rho_jk entrywise, j and k taken as 0..n-1."""
    n = rho.shape[0]
    if rho.shape != (n, n):
        raise ValueError(f"expected a square matrix, got {rho.shape}")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return _QUARTER_PHASES[np.mod(k - j, 4)] * rho
