"""Strong-dephasing behaviour of the monitored walk.

Summing the literal-S state along its wrapped diagonals collapses the
stencil exactly: every minor-diagonal sum obeys d[k]'(t) = -gamma d[k],
independent of everything else, so coherences drain at rate gamma while
the main diagonal is conserved.  At large gamma the state is therefore
supported, after a fast transient, on its main diagonal a_j = S_jj and
the symmetrised first off-diagonal d_j = S_{j,j+1} + S_{j+1,j}.
Truncating there closes the dynamics into 2N linear equations

    a_j' = (d_j - d_{j-1}) / 4,
    d_j' = (a_{j+1} - a_j) / 2 - gamma d_j,

whose Fourier modes decay at the two rates solving
x (gamma - x) = sin^2(pi k / N) / 2.  Keeping only the slow branch gives
a classical diffusion on the cycle with per-direction hop rate
1/(8 gamma); both mixing-time bounds in this module come from that
picture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import ModeSum, check_table_size
from .model import WalkConfig, check_cycle_size, check_eps, check_positive, check_times


@dataclass(frozen=True)
class ModeRates:
    """Slow and fast decay rates of truncated Fourier mode k.

    Roots of x (gamma - x) = sin^2(pi k / N) / 2 with gamma0 <= gamma1;
    they satisfy gamma0 + gamma1 = gamma and
    gamma0 * gamma1 = sin^2(pi k / N) / 2.
    """

    k: int
    gamma0: float
    gamma1: float


@dataclass(frozen=True)
class BoundsReport:
    """Strong-dephasing mixing-time bounds for (n, gamma, eps).

    t_lower / t_upper bracket the diffusive mixing time; t_lower is
    reported as 0 when eps >= 2/N makes it vacuous.  t_lower_large_n is
    the large-N simplification (2 gamma N^2 / pi^2) ln(2/(N eps));
    t_lower_large_n_alt is the same estimate with half the coefficient,
    a normalisation that is also in circulation for this bound, reported
    alongside rather than silently chosen.
    """

    n: int
    gamma: float
    eps: float
    t_lower: float
    t_upper: float
    t_lower_large_n: float
    t_lower_large_n_alt: float


def diagonal_sums(state: np.ndarray) -> np.ndarray:
    """Wrapped-diagonal sums d[k] = sum_j S[j, (j+k) mod N]."""
    state = np.asarray(state)
    n = state.shape[0]
    if state.shape != (n, n):
        raise ValueError(f"expected a square matrix, got {state.shape}")
    return np.array([np.trace(np.roll(state, -k, axis=1)) for k in range(n)])


def mode_rates(k: int, config: WalkConfig) -> ModeRates:
    """Exact decay rates of truncated Fourier mode k.

    Computed through the root product to avoid cancellation in the slow
    root at large gamma.  Raises when gamma^2 < 2 sin^2(pi k / N), where
    the roots turn complex and the truncated model loses its meaning.
    """
    if not 0 <= k < config.n:
        raise ValueError(f"mode index must lie in [0, {config.n}), got {k}")
    product = 0.5 * math.sin(math.pi * k / config.n) ** 2
    disc = config.gamma**2 - 4.0 * product
    if disc < 0:
        raise ValueError(
            f"gamma={config.gamma} is outside the strong-dephasing regime for mode {k}: "
            "decay rates are complex"
        )
    gamma1 = 0.5 * (config.gamma + math.sqrt(disc))
    gamma0 = product / gamma1 if gamma1 > 0 else 0.0
    return ModeRates(k=k, gamma0=gamma0, gamma1=gamma1)


def closed_form_a(config: WalkConfig, t: float | np.ndarray,
                  eps: float | None = None) -> np.ndarray:
    """Slow-branch vertex distribution at strong dephasing.

    a_j(t) = (1/N) sum_k exp(-sin^2(pi k / N) t / (2 gamma)) omega^{jk}:
    the classical heat kernel on the cycle with per-direction hop rate
    1/(8 gamma), started at vertex 0.  Fast transients (rates close to
    gamma) are dropped.  An array of times gives one row per time.  The
    rates of k and N - k are equal, so this is an evolution.ModeSum with
    one mode per block s = 1..N/2, of rate -sin^2(pi s / N) / (2 gamma)
    and amplitude N, and it is evaluated as every mode sum is: times
    split as lead x lag, in chunks, one inverse real FFT per row.  A
    result of all the times above MAX_TABLE_BYTES is refused before any
    work starts.

    With eps (ascending times), the rows past the mode sum's envelope
    cut are left out: E(t) = sum_{k=1}^{N-1} exp(-sin^2(pi k / N) t /
    (2 gamma)) bounds sum_j |a_j - 1/N|, and the result holds the rows
    before the first lead time with E <= eps - envelope_margin, bitwise
    the rows of the whole table (ModeSum.distributions).
    """
    check_positive("gamma", config.gamma)
    t = check_times(t)
    check_table_size("closed-form distribution table", t.size, 8 * config.n)
    n = config.n
    rates = -np.sin(np.pi * np.arange(1, n // 2 + 1) / n) ** 2 / (2.0 * config.gamma)
    out = ModeSum(n, rates[:, None], np.full((rates.size, 1), float(n))).distributions(t, eps)
    return out if eps is not None else out.reshape(t.shape + (n,))


def classical_heat_kernel(n: int, hop_rate: float, t: float) -> np.ndarray:
    """Continuous-time simple random walk on the cycle, started at vertex 0.

    Independent route for cross-checking closed_form_a: dense exponential
    of the classical rate matrix with per-direction hop rate hop_rate.
    """
    import scipy.linalg

    check_cycle_size(n)
    check_positive("hop_rate", hop_rate)
    check_times(t)
    shift = np.roll(np.eye(n), 1, axis=1)
    rates = hop_rate * (shift + shift.T - 2.0 * np.eye(n))
    delta = np.zeros(n)
    delta[0] = 1.0
    return scipy.linalg.expm(rates * t) @ delta


def full_large_gamma_state(config: WalkConfig, t: float) -> np.ndarray:
    """Cyclic tri-diagonal state carried by the two-band truncation.

    Diagonal a_j from closed_form_a; off-diagonal entries d_j / 2 with
    both decay branches of each Fourier mode retained at leading-order
    amplitude D_k = (i/gamma) sin(pi k / N) exp(i pi k / N):

        d_j(t) = (1/N) sum_k D_k (e^{-gamma0 t} - e^{-gamma1 t}) omega^{jk},

    real because the k and N-k terms are conjugate.  Entries beyond the
    cyclic tri-diagonal are exactly zero; the stencil applied to this
    state is honoured on the tri-diagonal support up to O(1/gamma^2),
    while the leaked second-off-diagonal terms are O(1/gamma) (see
    checks.truncation_residual_report).
    """
    n = config.n
    a = closed_form_a(config, t)
    coeff = np.empty(n, dtype=complex)
    for k in range(n):
        rates = mode_rates(k, config)
        amp = (1j / config.gamma) * math.sin(math.pi * k / n) * np.exp(1j * math.pi * k / n)
        coeff[k] = amp * (math.exp(-rates.gamma0 * t) - math.exp(-rates.gamma1 * t))
    d = np.real(np.fft.ifft(coeff))  # equals (1/N) sum_k coeff_k omega^{jk}
    state = np.diag(a)
    idx = np.arange(n)
    state[idx, (idx + 1) % n] += 0.5 * d
    state[(idx + 1) % n, idx] += 0.5 * d
    return state


def large_gamma_bounds(n: int, gamma: float, eps: float) -> BoundsReport:
    """Mixing-time bounds of the slow-branch diffusion.

    t_lower = (2 gamma / sin^2(pi/N)) ln(2/(N eps)) (0 when vacuous),
    t_upper = (gamma N^2 / 2) ln((2 + eps)/eps), plus the large-N
    simplification of t_lower in both circulating normalisations.
    """
    check_cycle_size(n)
    check_positive("gamma", gamma)
    check_eps(eps)
    if eps == 2:
        raise ValueError("eps = 2 is vacuous: total variation never exceeds 2")
    if eps >= 2.0 / n:
        t_lower = 0.0
        t_lower_large_n = 0.0
    else:
        log_term = math.log(2.0 / (n * eps))
        t_lower = 2.0 * gamma / math.sin(math.pi / n) ** 2 * log_term
        t_lower_large_n = 2.0 * gamma * n**2 / math.pi**2 * log_term
    t_upper = 0.5 * gamma * n**2 * math.log((2.0 + eps) / eps)
    return BoundsReport(
        n=int(n),
        gamma=gamma,
        eps=eps,
        t_lower=t_lower,
        t_upper=t_upper,
        t_lower_large_n=t_lower_large_n,
        t_lower_large_n_alt=0.5 * t_lower_large_n,
    )
