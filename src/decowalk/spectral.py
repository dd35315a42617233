"""Spectral analysis of the monitored walk at small dephasing.

The undamped part of the literal-S generator is a circulant stencil on
the discrete torus Z_N x Z_N, so its eigenvectors are the 2-d Fourier
modes V^(m,n) with eigenvalues

    lambda_(m,n) = i sin(pi (m+n)/N) cos(pi (m-n)/N)
                 = (i/2) (sin(2 pi m / N) + sin(2 pi n / N)).

The damping term is a rank-structured perturbation whose matrix elements
between Fourier modes depend only on the index sums: modes couple only
when (m+n) is congruent to (m'+n') mod N (u_similarity).  Within its
index-sum block, a mode whose index sum is not 0 mod N shares its
eigenvalue only with its swapped partner (n, m), so first-order
perturbation theory works on that pair: the shift is u(m,n,m,n) =
-gamma (N-1)/N, plus the swap coupling u(m,n,n,m) = gamma/N when m != n,

    -gamma (N-1)/N   for equal-index modes,
    -gamma (N-2)/N   for swapped-pair modes.

The modes with index sum 0 mod N all have eigenvalue 0 and carry only
the stationary uniform term.

Summing the shifted modes reconstructs the distribution at small gamma,
and bounding the mode sum gives the small-dephasing mixing-time bound.
The reconstruction is an evolution.ModeSum over the same index-sum
blocks that DiagonalPropagator solves exactly: perturbative means those
blocks at first order, each rank-one damping term cut to its diagonal.
Everything here also covers the gamma = 0 walk in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import ModeSum, _block_rates, _check_modesum_size
from .model import WalkConfig, check_cycle_size, check_eps, check_positive, check_times


def cycle_eigenvalues(n: int) -> np.ndarray:
    """Adjacency eigenvalues of the N-cycle: 2 cos(2 pi j / N)."""
    check_cycle_size(n)
    return 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)


def unitary_amplitudes(n: int, t) -> np.ndarray:
    """Closed walk started at vertex 0, bare adjacency generator.

    psi_j(t) = (1/N) sum_m exp(-2it cos(2 pi m / N)) exp(-2 pi i m j / N),
    global phase dropped.  An array of times gives one row per time, by
    one batched transform whose rows have the bits of each time alone.
    Note the time unit: this propagates with the full adjacency, while
    the master equations in this package carry a quarter-rate hopping
    stencil, so their gamma = 0 trajectories match these amplitudes at
    t/4 (see checks.zero_dephasing_agreement).
    """
    phases = np.exp(-1j * np.multiply.outer(check_times(t), cycle_eigenvalues(n)))
    return np.fft.fft(phases, axis=-1) / n


def unitary_distribution(n: int, t) -> np.ndarray:
    """Vertex probabilities |psi_j(t)|^2 of the closed walk, one row per time
    for an array of times."""
    amps = unitary_amplitudes(n, t)
    return np.abs(amps) ** 2


def m_function(n: int, j: int, t: float) -> complex:
    """Fourier kernel (1/N) sum_m exp(i t sin(2 pi m / N)) omega_N^(m j).

    Bounded by 1 in modulus and equal to delta_j0 at t = 0.  Squaring at
    half time expands into the full two-index mode sum, and the diagonal
    (m, m) modes alone resum to the kernel at doubled vertex index:

        M_j(t/2)^2 = (1/N^2) sum_{m,n} exp(t lambda_(m,n)) omega^{(m+n) j}
        M_{2j mod N}(t) = (1/N) sum_m exp(t lambda_(m,m)) omega^{2 m j}
    """
    if not 0 <= j < n:
        raise ValueError(f"vertex index must lie in [0, {n}), got {j}")
    m = np.arange(n)
    kernel = np.exp(1j * t * np.sin(2.0 * np.pi * m / n))
    return complex(np.sum(kernel * np.exp(2j * np.pi * m * j / n)) / n)


def torus_eigenvalue(m: int, n: int, size: int) -> complex:
    """Eigenvalue of the undamped generator on Fourier mode (m, n)."""
    _check_mode(m, n, size)
    return 1j * math.sin(math.pi * (m + n) / size) * math.cos(math.pi * (m - n) / size)


def torus_eigenvector(m: int, n: int, size: int) -> np.ndarray:
    """Unit-norm Fourier mode (1/N) omega^(m mu + n nu), flattened row-major."""
    _check_mode(m, n, size)
    mu = np.arange(size)
    row = np.exp(2j * np.pi * m * mu / size)
    col = np.exp(2j * np.pi * n * mu / size)
    return np.outer(row, col).ravel() / size


def u_similarity(m: int, n: int, m2: int, n2: int, size: int, gamma: float) -> float:
    """Damping matrix element between Fourier modes (m, n) and (m2, n2).

    Conjugating the off-diagonal damping by the mode basis leaves
    -gamma on the mode diagonal plus gamma/N whenever the index sums are
    congruent mod N; everything else vanishes.  Symmetric in its two
    mode arguments.
    """
    _check_mode(m, n, size)
    _check_mode(m2, n2, size)
    value = 0.0
    if (m, n) == (m2, n2):
        value -= gamma
    if ((m2 - m) + (n2 - n)) % size == 0:
        value += gamma / size
    return value


def _check_mode(m: int, n: int, size: int) -> None:
    check_cycle_size(size)
    if not (0 <= m < size and 0 <= n < size):
        raise ValueError(f"mode indices must lie in [0, {size}), got ({m}, {n})")


def perturbative_modes(n: int, gammas) -> ModeSum:
    """First-order shifted modes of each of gammas, one ModeSum member each.

    Block s of the literal-S generator is diag(lambda_m) - gamma I plus
    the rank-one term (gamma/N) 1 1^T.  At first order only the diagonal
    of the merged block survives, so a merged mode of weight c (1 for
    m = s-m, 2 for a swap pair) keeps amplitude c and its undamped rate
    shifted by -gamma + gamma c / N: -gamma (N-1)/N for c = 1 and
    -gamma (N-2)/N for c = 2.  Both tables are _block_rates' (beta,
    counts) tables taken entrywise, built once for all gammas, so a
    padding entry keeps amplitude 0.
    """
    _check_modesum_size(n)
    gamma = np.asarray(gammas, dtype=float)[:, None, None]
    beta, counts, _ = _block_rates(n, np.arange(1, n // 2 + 1), "s-literal")
    return ModeSum(n, 1j * beta - gamma + gamma * counts / n,
                   np.broadcast_to(counts, gamma.shape[:1] + counts.shape))


class _PerturbativeKernel:
    """First-order shifted modes of one config as a ModeSum over the index-sum
    blocks (perturbative_modes); modes, if given, is its member of a stack
    built with other gammas."""

    def __init__(self, config: WalkConfig, modes: ModeSum | None = None) -> None:
        self._modes = perturbative_modes(config.n, [config.gamma]) if modes is None else modes

    def distributions(self, times: np.ndarray, eps: float | None = None,
                      uniform: bool = False) -> np.ndarray:
        """Distributions at many times; with eps, the rows before the
        envelope's cut only (evolution.ModeSum.distributions)."""
        return self._modes.distributions(times, eps, uniform)


def perturbative_distribution(config: WalkConfig, t: float) -> np.ndarray:
    """Distribution reconstructed from first-order-shifted Fourier modes.

    P_j(t) = 1/N + (1/N^2) sum over modes with nonzero index sum of
    exp(t (lambda + shift)) omega^{(m+n) j}.  Real by conjugate pairing
    and exact at gamma = 0, where it reproduces the literal-S dynamics
    for every N.  Intended regime gamma * N << 1.
    """
    return _PerturbativeKernel(config).distributions(np.array([t]))[0]


def small_gamma_mixing_bound(n: int, gamma: float, eps: float) -> float:
    """Mixing-time bound in the small-dephasing regime.

    (1/gamma) * ln(N/eps) * (1 + 2/(N-2)): the slowest shifted mode
    decays at rate gamma (N-2)/N, and the mode sum stays under eps once
    that envelope does.
    """
    check_cycle_size(n)
    check_positive("gamma", gamma)
    check_eps(eps)
    if eps == 2:
        raise ValueError("eps = 2 is vacuous: total variation never exceeds 2")
    return (1.0 / gamma) * math.log(n / eps) * (1.0 + 2.0 / (n - 2))
