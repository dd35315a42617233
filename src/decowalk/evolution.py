"""Time evolution of the monitored-walk master equations.

Both pictures are linear: flattening the N x N state row-major turns
each right-hand side into a fixed N^2 x N^2 generator, and trajectories
are computed three ways,

* a dense matrix exponential of the generator (the oracle),
* classical fixed-step fourth-order Runge-Kutta,
* a Fourier-block propagator for the vertex-0 start (DiagonalPropagator):
  the generator splits into N diagonal-plus-rank-one blocks, one per
  index sum, so the distribution is a sum of about N^2/4 decaying modes,
  summed block by block.  A time costs O(N^2) exponentials, and a uniform
  grid of T times O(N^2 sqrt(T)) (see ModeSum).  Its setup runs one
  O(N^3) eigenvalue solve per block, about N/2 of them, so it grows
  close to N^4, not N^3.

The oracle and the RK4 step matrices build the generator and are
guarded to n <= MAX_DENSE_N.  integrate builds it only below
STENCIL_MIN_N; from there up it holds a few N x N arrays and refuses
only a working set above MAX_TABLE_BYTES.  The block propagator never
forms the generator and is guarded to n <= MAX_MODESUM_N.  Its mode
sum, ModeSum, is the one evaluator behind every analytic distribution:
the perturbative route (spectral) fills the same blocks with
first-order rates.

For a linear autonomous system the classical RK4 update is exactly the
degree-4 Taylor polynomial of the step map,

    v  ->  (I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24) v,

and integrate applies it in one of two ways.  Below STENCIL_MIN_N it
precomputes that polynomial as a dense N^2 x N^2 matrix once and
applies it per sample.  From STENCIL_MIN_N up it never builds an
N^2 x N^2 array: stencil_step evaluates the same polynomial in Horner
form on the N x N state, with G(X) = L X - X L - gamma M o X (L the
circulant neighbour coupling, M the off-diagonal mask), at O(N^3) per
step.  The dense matrix costs O(N^6) to build and O(N^4) per sample,
so the stencil wins once N is large; BENCH_6.json has the measured
crossover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import (
    WalkConfig,
    check_positive,
    check_times,
    initial_density,
    initial_state,
    offdiagonal_mask,
    rho_rhs,
    s_rhs,
)

MODELS = ("s-literal", "rho")

# Routes that build the dense N^2 x N^2 generator (the expm oracle and the
# RK4 step matrices) refuse larger N: at n = 200 one step matrix would
# take 12.8 GB.
MAX_DENSE_N = 64
# Mode sums hold S x K rate and amplitude tables (about N^2/4 entries
# each) and evaluate in temporaries of at most _CHUNK_ENTRIES entries.
# Setup plus one 2049-time grid at gamma = 3 peaked at 36 / 70 MiB of
# traced allocations (45 / 71 MiB of resident growth) at n = 256 / 512,
# and setup alone took 4.4 / 45 s there (BENCH_8.json): at this size the
# O(N^4) setup, not memory, is the cost that grows.
MAX_MODESUM_N = 512
# A trajectory table is held whole in memory before it is written out,
# and is refused above this budget before any work starts; the stencil
# working set and the RK4 step-power cache share it.  A mode sum needs
# far less even at MAX_MODESUM_N (70 MiB, above).
MAX_TABLE_BYTES = 5 << 28  # 1.25 GiB
# integrate steps the N x N state with stencil_step from this size up,
# and multiplies by a dense step matrix below it.  Over 5000 steps,
# sampled every 10, the dense route is cheaper at n = 28 and the stencil
# at n = 32, in both pictures (BENCH_6.json).
STENCIL_MIN_N = 32


class IntegrationError(RuntimeError):
    """Trajectory left the trusted regime (non-finite values or trace drift)."""


@dataclass(frozen=True)
class TimeGrid:
    """Fixed-step integration window [0, t_end] with subsampled output.

    dt is a request; the integrator may shrink it to respect stiffness
    (see integrate).  Samples are kept every sample_stride accepted
    steps, plus the final time.
    """

    t_end: float
    dt: float = 0.01
    sample_stride: int = 10

    def __post_init__(self) -> None:
        check_positive("t_end", self.t_end)
        check_positive("dt", self.dt)
        if self.dt > self.t_end:
            raise ValueError(f"dt must not exceed t_end={self.t_end}, got {self.dt}")
        if int(self.sample_stride) != self.sample_stride or self.sample_stride < 1:
            raise ValueError(f"sample_stride must be a positive integer, got {self.sample_stride}")


@dataclass
class TimeSeries:
    """Sampled trajectory: times, vertex distributions, optional matrices."""

    times: np.ndarray
    dists: np.ndarray
    dt_used: float
    states: list[np.ndarray] | None = None


def _check_model(model: str) -> None:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


def _check_dense_size(config: WalkConfig) -> None:
    """Refuse n > MAX_DENSE_N before any N^2 x N^2 array is built."""
    if config.n > MAX_DENSE_N:
        raise ValueError(
            f"dense N^2 x N^2 generator guarded to n <= {MAX_DENSE_N}, got {config.n}"
        )


def _check_modesum_size(n: int) -> None:
    """Refuse n > MAX_MODESUM_N before any block of a mode sum is built."""
    if n > MAX_MODESUM_N:
        raise ValueError(f"mode sum guarded to n <= {MAX_MODESUM_N}, got {n}")


def check_table_size(rows: float, row_bytes: int) -> None:
    """Refuse a table of rows x row_bytes above MAX_TABLE_BYTES before it is built."""
    if rows * row_bytes > MAX_TABLE_BYTES:
        raise ValueError(
            f"trajectory table of {rows:.3g} rows x {row_bytes} bytes exceeds "
            f"the {MAX_TABLE_BYTES}-byte budget"
        )


def build_full_operator(config: WalkConfig, model: str = "s-literal") -> np.ndarray:
    """Assemble the dense N^2 x N^2 generator of the chosen picture.

    Row index is the output entry (mu, nu) flattened as mu*n + nu, column
    index the input entry (alpha, beta) flattened the same way.  Each row
    holds the four cyclic-neighbour couplings of the stencil plus the
    damping -gamma on off-diagonal entries (mu != nu).  Applying the
    matrix to a flattened state reproduces s_rhs or rho_rhs entrywise.
    """
    _check_model(model)
    n = config.n
    if model == "s-literal":
        dtype = float
        # coefficients of S[mu, nu+1], S[mu+1, nu], S[mu-1, nu], S[mu, nu-1]
        coeffs = (0.25, 0.25, -0.25, -0.25)
    else:
        dtype = complex
        coeffs = (0.25j, -0.25j, -0.25j, 0.25j)
    mat = np.zeros((n * n, n * n), dtype=dtype)
    rows = np.arange(n * n)
    mu, nu = np.divmod(rows, n)
    # += rather than =: adding -0.25j to a zero keeps a +0.0 real part.
    for (dmu, dnu), c in zip(((0, 1), (1, 0), (-1, 0), (0, -1)), coeffs):
        mat[rows, ((mu + dmu) % n) * n + (nu + dnu) % n] += c
    damped = rows[mu != nu]
    mat[damped, damped] -= config.gamma
    return mat


def _as_state_vector(config: WalkConfig, model: str, initial: np.ndarray | None) -> np.ndarray:
    if initial is None:
        initial = initial_state(config) if model == "s-literal" else initial_density(config)
    state = np.asarray(initial)
    if state.shape != (config.n, config.n):
        raise ValueError(f"initial state must be {config.n}x{config.n}, got {state.shape}")
    if model == "s-literal":
        if np.iscomplexobj(state):
            if np.abs(state.imag).max() > 0:
                raise ValueError("literal-S states are real matrices")
            state = state.real
        return state.astype(float).ravel().copy()
    return state.astype(complex).ravel().copy()


def exact_evolve(
    config: WalkConfig,
    t: float,
    model: str = "s-literal",
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Propagate to time t with a dense matrix exponential.

    Scaling-and-squaring Pade exponential of t times the generator; this
    is the oracle every integrator is measured against.  Guarded to
    n <= MAX_DENSE_N, where the N^2 x N^2 exponential is still cheap.
    """
    _check_model(model)
    check_times(t)
    _check_dense_size(config)
    op = build_full_operator(config, model)
    vec = _as_state_vector(config, model, initial)
    out = scipy.linalg.expm(op * t) @ vec
    if not np.isfinite(out.view(float)).all():
        raise IntegrationError(f"dense exponential is not finite at t={t:g}")
    return out.reshape(config.n, config.n)


def rk4_step_matrix(generator: np.ndarray, dt: float) -> np.ndarray:
    """One-step transfer matrix of classical RK4 for a linear system.

    Horner evaluation of I + A + A^2/2 + A^3/6 + A^4/24 with A = dt*G.
    """
    a = dt * generator
    eye = np.eye(a.shape[0], dtype=a.dtype)
    poly = eye + a / 4.0
    poly = eye + (a / 3.0) @ poly
    poly = eye + (a / 2.0) @ poly
    return eye + a @ poly


def stencil_step(config: WalkConfig, model: str, dt: float):
    """One classical RK4 step of the N x N state, without any N^2 x N^2 array.

    Returns X -> the step of X.  G(X) = L X - X L - gamma M o X, with L
    the circulant neighbour coupling of the picture and M the
    off-diagonal mask, equals the action of build_full_operator on the
    flattened state; the step is the Horner form of rk4_step_matrix with
    h = dt (w = X + (h/4) G X, then h/3, then h/2, then X + h G w).
    """
    _check_model(model)
    n = config.n
    shift = np.roll(np.eye(n), 1, axis=1)  # shift[j, j+1] = 1
    if model == "s-literal":
        left = 0.25 * (shift - shift.T)
    else:
        left = -0.25j * (shift + shift.T)
    damping = config.gamma * offdiagonal_mask(n)
    # Stage k adds h_k G(w) to X; h_k is folded into both terms.
    stages = [(h * left, h * damping) for h in (dt / 4.0, dt / 3.0, dt / 2.0, dt)]

    def step(x: np.ndarray) -> np.ndarray:
        w = x
        for coupling, decay in stages:
            nxt = coupling @ w
            nxt -= w @ coupling
            nxt -= decay * w
            nxt += x
            w = nxt
        return w

    return step


def effective_step(span: float, dt_request: float, gamma: float) -> tuple[float, int]:
    """Largest step <= request that also respects the damping stiffness cap.

    The off-diagonal damping rate gamma sets the fastest time scale, so
    the step is capped at 0.1 / max(gamma, 1).  Returns (dt, step count)
    with dt dividing the span exactly; raises ValueError when the step
    count overflows a double.
    """
    cap = 0.1 / max(gamma, 1.0)
    base = min(dt_request, cap)
    if not math.isfinite(span / base):
        raise ValueError(f"a span of {span:g} in steps of {base:g} overflows the step count")
    n_steps = max(1, math.ceil(span / base - 1e-9))
    return span / n_steps, n_steps


def _diag_indices(n: int) -> np.ndarray:
    idx = np.arange(n)
    return idx * n + idx


def integrate(
    config: WalkConfig,
    grid: TimeGrid,
    model: str = "s-literal",
    initial: np.ndarray | None = None,
    keep_states: bool = False,
) -> TimeSeries:
    """Fixed-step RK4 trajectory, sampled every grid.sample_stride steps.

    The effective step is min(grid.dt, 0.1/max(gamma, 1)) rounded so it
    divides the window exactly.  Below STENCIL_MIN_N the samples are
    advanced by a precomputed dense power of the step matrix; from
    STENCIL_MIN_N up, step by step with stencil_step.  Every sample is
    checked for finiteness and for conservation of the diagonal sum
    (within 1e-10 of its initial value); violations raise
    IntegrationError.  The output table (stored states included) and,
    from STENCIL_MIN_N up, the stencil's N x N working set are each
    refused above MAX_TABLE_BYTES before any work starts.
    """
    _check_model(model)
    n = config.n
    dt_eff, n_steps = effective_step(grid.t_end, grid.dt, config.gamma)
    stride = int(grid.sample_stride)
    # Density-picture states are complex.
    state_bytes = n * n * (16 if model == "rho" else 8)
    check_table_size(-(-n_steps // stride) + 1, state_bytes if keep_states else 8 * n)
    if n >= STENCIL_MIN_N:
        # Twelve N x N arrays: the coupling and damping factors of the
        # four stages, the state, the stage iterate, its successor and
        # one product.
        check_table_size(12, state_bytes)

    vec = _as_state_vector(config, model, initial)
    diag = _diag_indices(n)
    trace0 = float(np.real(vec[diag].sum()))
    trace_tol = 1e-10 * max(1.0, abs(trace0))

    if n >= STENCIL_MIN_N:
        step = stencil_step(config, model, dt_eff)

        def advance(v: np.ndarray, hop: int) -> np.ndarray:
            x = v.reshape(n, n)
            for _ in range(hop):
                x = step(x)
            return x.ravel()
    else:
        step_matrix = rk4_step_matrix(build_full_operator(config, model), dt_eff)
        step_stride = np.linalg.matrix_power(step_matrix, stride)

        def advance(v: np.ndarray, hop: int) -> np.ndarray:
            if hop == stride:
                return step_stride @ v
            return np.linalg.matrix_power(step_matrix, hop) @ v

    sample_steps = np.arange(0, n_steps + 1, stride)
    if sample_steps[-1] != n_steps:
        sample_steps = np.append(sample_steps, n_steps)

    times = dt_eff * sample_steps
    times[-1] = grid.t_end
    dists = np.empty((sample_steps.size, n))
    states: list[np.ndarray] | None = [] if keep_states else None

    def record(pos: int, v: np.ndarray) -> None:
        if not np.all(np.isfinite(v.view(float))):
            raise IntegrationError(f"non-finite state at t={times[pos]:g}; reduce dt")
        dsum = float(np.real(v[diag].sum()))
        if abs(dsum - trace0) > trace_tol:
            raise IntegrationError(
                f"diagonal sum drifted to {dsum!r} at t={times[pos]:g} (started at {trace0!r})"
            )
        dists[pos] = np.real(v[diag])
        if states is not None:
            states.append(v.reshape(n, n).copy())

    record(0, vec)
    done = 0
    for pos, target in enumerate(sample_steps[1:], start=1):
        vec = advance(vec, target - done)
        done = target
        record(pos, vec)

    return TimeSeries(times=times, dists=dists, dt_used=dt_eff, states=states)


# Newton steps that polish each secular root from its eigenvalue guess.
_NEWTON_STEPS = 3
# A block's roots are trusted when each leaves |h(z)| below this fraction
# of sum_m |term_m| and the amplitudes add up to N within this fraction.
_SECULAR_RESIDUAL_TOL = 1e-12
# ... and when sum |amplitude| <= _CANCEL_TOL * N.  Near an exceptional
# point the amplitudes grow and cancel, and their rounding shows in the
# distribution: over n <= 12, both models and t <= 40 the error against
# exact_evolve stayed below 1e-13 up to a ratio of 20 and reached 1.3e-12
# at 62.
_CANCEL_TOL = 10.0
# Entries (complex or real) that any one temporary of a ModeSum
# evaluation may hold: times, blocks and batched expm slices are split to
# stay at or below it.
_CHUNK_ENTRIES = 1 << 20


def _expm_flows(times: np.ndarray, block: np.ndarray, root: np.ndarray) -> np.ndarray:
    """expm(t B) r at each t, shape (len(times), k), in batches of <= _CHUNK_ENTRIES entries."""
    k = block.shape[0]
    step = max(1, _CHUNK_ENTRIES // k**2)
    out = np.empty((times.size, k), dtype=complex)
    for lo in range(0, times.size, step):
        out[lo:lo + step] = scipy.linalg.expm(times[lo:lo + step, None, None] * block) @ root
    return out


class ModeSum:
    """Vertex distribution from vertex 0 as a sum over the index-sum blocks.

    P_j(t) = 1/N + Re sum_s c_s omega^(s j) f_s(t) for s = 1..N/2, with
    c_s = 2/N^2 (1/N^2 at s = N/2) folding in f_(N-s) = conj(f_s); the
    s = 0 block is the stationary uniform term.  blocks holds one entry
    per s, either (rates, amps), so that f_s(t) = sum_k amps_k
    exp(rates_k t), or (B, r), a block evaluated as r^T expm(t B) r.

    The rates and amplitudes are padded with zeros into S x K tables
    (S = N//2 blocks, K the largest block, S <= K); an evaluation fills
    f_s(t) for every block and then combines the blocks once, through
    the n x S phase table c_s omega^(s j), at O(n S) per time.  Times equal
    to np.linspace(0, t_end, T) with T >= 3 take a factorised path: with
    t_k = k Delta and k = a B + b, B = ceil(sqrt(T)),

        exp(z t_k) = exp(z a B Delta) exp(z b Delta),

    so f on the whole grid is one batched (S, A, K) @ (S, K, B) product
    from O(S K sqrt(T)) exponentials, each computed directly, so that no
    rounding accumulates along the grid.  An expm block takes the same
    two factors, r^T expm(a B Delta B_s) and expm(b Delta B_s) r, from
    A + B exponentials.  Any other times (bisection midpoints, a single
    time) take one exponential per mode and time, and an expm block one
    expm per time.
    """

    def __init__(self, n: int, blocks: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self.n = n
        count, width = len(blocks), max(first.shape[0] for first, _ in blocks)
        self._rates = np.zeros((count, width), dtype=complex)
        self._amps = np.zeros((count, width), dtype=complex)
        self.dense = []
        for row, (first, second) in enumerate(blocks):
            if first.ndim == 2:
                self.dense.append((row, first, second))
            else:
                self._rates[row, :first.size] = first
                self._amps[row, :first.size] = second
        s = np.arange(1, count + 1)[:, None]
        scale = np.where(2 * s == n, 1.0, 2.0) / n**2
        phase = scale * np.exp(2j * np.pi * s * np.arange(n) / n)
        # Re(sum_s phase_s f_s) as one real product with the (T, 2S) real
        # view of f: row 2s holds Re phase_s, row 2s + 1 holds -Im phase_s.
        self._combine = np.empty((2 * count, n))
        self._combine[0::2], self._combine[1::2] = phase.real, -phase.imag

    def distributions(self, times: np.ndarray) -> np.ndarray:
        """Distributions at many times, shape (len(times), n)."""
        times = check_times(times).ravel()
        out = np.empty((times.size, self.n))
        if times.size >= 3 and np.array_equal(times, np.linspace(0.0, times[-1], times.size)):
            chunks = self._grid_sums(times[1], times.size)
        else:
            chunks = self._direct_sums(times)
        for lo, sums in chunks:
            rows = out[lo:lo + sums.shape[0]]
            np.matmul(sums.view(float), self._combine, out=rows)
            rows += 1.0 / self.n
        return out

    def _direct_sums(self, times: np.ndarray):
        """(offset, f) per chunk of times, f of shape (chunk, S): f_s at each time."""
        # S <= K, so chunk x K^2 bounds the (S, K, chunk) terms and a dense
        # block's batch of expm.
        step = max(1, _CHUNK_ENTRIES // self._rates.shape[1] ** 2)
        for lo in range(0, times.size, step):
            chunk = times[lo:lo + step]
            terms = self._rates[:, :, None] * chunk
            np.exp(terms, out=terms)
            sums = np.ascontiguousarray((self._amps[:, None, :] @ terms)[:, 0, :].T)
            for row, block, root in self.dense:
                sums[:, row] = _expm_flows(chunk, block, root) @ root
            yield lo, sums

    def _grid_sums(self, delta: float, size: int):
        """(offset, f) per chunk of the grid k delta, k < size, by the split k = a B + b."""
        count, width = self._rates.shape
        inner = math.isqrt(size - 1) + 1  # B, the smallest with B^2 >= size
        lead = delta * np.arange(0, size, inner)  # a B delta, one per a
        lag = delta * np.arange(inner)  # b delta
        rows = max(1, _CHUNK_ENTRIES // (width * inner))  # a per chunk; S <= K
        for a0 in range(0, lead.size, rows):
            heads = lead[a0:a0 + rows]
            lo = a0 * inner
            valid = min(size - lo, heads.size * inner)
            sums = np.empty((valid, count), dtype=complex)
            group = max(1, _CHUNK_ENTRIES // max(width * heads.size, width * inner,
                                                 heads.size * inner))
            for first in range(0, count, group):
                blocks = slice(first, first + group)
                # Exponentials in place: one table per factor, not two.
                head = heads[:, None] * self._rates[blocks, None, :]
                np.exp(head, out=head)
                head *= self._amps[blocks, None, :]
                tail = self._rates[blocks, :, None] * lag
                np.exp(tail, out=tail)
                grid = (head @ tail).reshape(head.shape[0], -1)
                sums[:, blocks] = grid[:, :valid].T
            for row, block, root in self.dense:
                head = _expm_flows(heads, block.T, root)  # rows r^T expm(a B delta B)
                tail = _expm_flows(lag, block, root)
                sums[:, row] = (head @ tail.T).ravel()[:valid]
            yield lo, sums


class DiagonalPropagator:
    """Vertex distribution from vertex 0 at arbitrary times, by Fourier blocks.

    Both generators commute with the diagonal shift (j, k) -> (j+1, k+1),
    so in the torus Fourier basis they split exactly into N blocks, one
    per index sum s, over the modes (m, s-m):

        B_s = diag(lambda_m) - gamma I + (gamma/N) 1 1^T

    (rates from _block_rates).  The vertex-0 start has flat Fourier
    coefficients, so P_j(t) = N^-2 sum_s omega^(s j) f_s(t) with
    f_s(t) = 1^T exp(t B_s) 1, a ModeSum.  Modes with equal rates are
    merged with summed weights c_m.  The rates that 1^T can see are the
    roots z of the secular equation

        h(z) = sum_m c_m (lambda_m - z) / (z + gamma - lambda_m) = 0,

    each with amplitude (N/gamma)^2 / sum_m c_m / (z + gamma - lambda_m)^2,
    so f_s(t) = sum_k amp_k exp(z_k t) over about N/2 roots per block.
    The setup runs one eigvals per block, O(N^3) each and close to
    O(N^4) in all (measured 0.05 / 4.1 s at n = 64 / 256, gamma = 3).  A
    block whose roots cannot be trusted (see _block_modes) is evaluated
    instead with expm of its merged form, and mode then reads "expm"
    rather than "eig"; on a uniform grid such a block costs about
    2 sqrt(T) matrix exponentials, and at any other time one per time.
    """

    def __init__(self, config: WalkConfig, model: str = "s-literal") -> None:
        _check_modesum_size(config.n)
        _check_model(model)
        n = config.n
        blocks = []
        for s in range(1, n // 2 + 1):
            beta, counts = _block_rates(n, s, model)
            found = _block_modes(beta, counts, config.gamma, n)
            if found is None:
                found = (_merged_block(beta, counts, config.gamma, n), np.sqrt(counts))
            blocks.append(found)
        self._modes = ModeSum(n, blocks)
        self.mode = "expm" if self._modes.dense else "eig"

    def distribution(self, t: float) -> np.ndarray:
        return self._modes.distributions(np.array([float(t)]))[0]

    def distributions(self, times: np.ndarray) -> np.ndarray:
        """Distributions at many times, shape (len(times), n)."""
        return self._modes.distributions(times)


def _block_rates(n: int, s: int, model: str) -> tuple[np.ndarray, np.ndarray]:
    """Distinct undamped rates i*beta of index-sum block s, with multiplicities.

    Mode (m, s-m) has rate (i/2)(sin 2 pi m/N + sin 2 pi (s-m)/N) in the
    literal-S picture and (i/2)(cos 2 pi (s-m)/N - cos 2 pi m/N) in the
    density picture.  Writing either as i sin(pi s/N) g(pi (2m - s)/N)
    shows the only coincidences: m <-> s-m in the literal picture
    (g = cos), and m <-> s - N/2 - m in the density picture at even N
    (g = sin).
    """
    m = np.arange(n)
    if model == "s-literal":
        beta = 0.5 * (np.sin(2 * np.pi * m / n) + np.sin(2 * np.pi * (s - m) / n))
        partner = (s - m) % n
    else:
        beta = 0.5 * (np.cos(2 * np.pi * (s - m) / n) - np.cos(2 * np.pi * m / n))
        partner = (s - n // 2 - m) % n if n % 2 == 0 else m
    keep = m <= partner
    return beta[keep], np.where(m[keep] == partner[keep], 1.0, 2.0)


def _merged_block(beta: np.ndarray, counts: np.ndarray, gamma: float, n: int) -> np.ndarray:
    """B_s on the merged modes: f_s(t) = r^T exp(t B) r with r = sqrt(counts)."""
    root = np.sqrt(counts)
    return np.diag(1j * beta - gamma) + (gamma / n) * np.outer(root, root)


def _block_modes(
    beta: np.ndarray, counts: np.ndarray, gamma: float, n: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Secular roots and amplitudes of one merged block, or None if untrusted.

    Roots start from the eigenvalues of the merged block and take
    _NEWTON_STEPS Newton steps on h.  Each is held as anchor + delta,
    the anchor being the origin or the nearest pole i*beta_k - gamma.
    offset[i, m] = anchor_i - pole_m is exact for both kinds of anchor,
    so z + gamma - lambda_m = delta + offset and lambda_m - z =
    (gamma - offset) - delta lose no digits to cancellation: neither the
    slow root near 0 at large gamma (fixed only to eps*gamma by the
    eigenvalue solver) nor the roots within O(gamma) of a pole at small
    gamma.  The roots are trusted when finite, when each leaves a
    residual under _SECULAR_RESIDUAL_TOL, and when the amplitudes add up
    to f_s(0) = N and cancel by at most _CANCEL_TOL.  A defective block
    (at an exceptional point) fails these, and so does gamma below about
    1e-13, where the eigenvalues cannot resolve the O(gamma) offsets.
    """
    if gamma == 0.0:
        return 1j * beta, counts.astype(complex)
    poles = 1j * beta - gamma
    guess = np.linalg.eigvals(_merged_block(beta, counts, gamma, n))
    nearest = np.abs(guess[:, None] - np.concatenate(([0.0], poles))).argmin(axis=1)
    at_origin = nearest == 0
    pole = np.maximum(nearest - 1, 0)
    anchor = np.where(at_origin, 0.0, poles[pole])
    offset = (np.where(at_origin, gamma, 0.0)[:, None]
              + 1j * (np.where(at_origin, 0.0, beta[pole])[:, None] - beta))
    lam_gap = gamma - offset  # lambda_m - anchor_i
    delta = guess - anchor
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            w = delta[:, None] + offset
            h = (counts * (lam_gap - delta[:, None]) / w).sum(axis=1)
            slope = -gamma * (counts / w**2).sum(axis=1)
            delta = delta - h / slope
        w = delta[:, None] + offset
        terms = counts * (lam_gap - delta[:, None]) / w
        residual = np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1)
        amp = 1.0 / (counts * (gamma / (n * w)) ** 2).sum(axis=1)
    z = anchor + delta
    trusted = (
        np.all(np.isfinite(z))
        and np.all(np.isfinite(amp))
        and residual.max() <= _SECULAR_RESIDUAL_TOL
        and abs(amp.sum() - n) <= _SECULAR_RESIDUAL_TOL * n
        and np.abs(amp).sum() <= _CANCEL_TOL * n
    )
    return (z, amp) if trusted else None
