"""Time evolution of the monitored-walk master equations.

Both pictures are linear: flattening the N x N state row-major turns
each right-hand side into a fixed N^2 x N^2 generator, and trajectories
are computed three ways,

* a dense matrix exponential of the generator (the oracle),
* classical fixed-step fourth-order Runge-Kutta,
* a Fourier-block propagator for the vertex-0 start (DiagonalPropagator):
  the generator splits into N diagonal-plus-rank-one blocks, one per
  index sum, so the distribution is a sum of about N^2/4 decaying modes,
  summed block by block over times split as lead + lag.  A time costs
  O(N^2) exponentials and a uniform grid of T times O(N^2 sqrt(T)) (see
  ModeSum).  Its setup runs one O(N^3) eigenvalue solve per block, about
  N/2 of them, so it grows close to N^4, not N^3.

Only the oracle builds the N^2 x N^2 generator (build_full_operator,
also the tests' reference), and it is guarded to n <= MAX_DENSE_N, as
are the RK4 mixing methods.  The block propagator never forms the
generator and is guarded to n <= MAX_MODESUM_N.  Its mode sum, ModeSum,
is the one evaluator behind every analytic distribution: the
perturbative route (spectral) fills the same blocks with first-order
rates.  SciPy is imported only by the functions that call expm, so
importing the package, and the command line, does not load it.

For a linear autonomous system the classical RK4 update is exactly the
degree-4 Taylor polynomial of the step map,

    v  ->  (I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24) v,

and RK4 applies it in one of two ways.  Both generators commute with the
diagonal shift (j, k) -> (j+1, k+1), so a Fourier transform along the
diagonals splits G into N blocks of N x N (generator_blocks, read off
the right-hand sides in O(N^3 log N)), and the step polynomial into N
step blocks (rk4_step_matrix on the stack): O(N^4) to build or to square,
16 N^3 bytes each, and O(N^3) per step of a state in block coordinates
(to_blocks / from_blocks).  integrate uses them below STENCIL_MIN_N,
one batched product per sample, and the RK4 mixing methods always do
(mixing._SteppedDistributions).  From STENCIL_MIN_N up integrate holds
no N^3 table: stencil_step evaluates the same polynomial in Horner form
on the N x N state, with G(X) = L X - X L - gamma M o X (L the circulant
neighbour coupling, M the off-diagonal mask), at O(N^3) per step.  Every
working set is refused above MAX_TABLE_BYTES before any work starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

# The expm oracle builds the dense N^2 x N^2 generator and refuses larger
# N (at n = 200 it would take 12.8 GB); the RK4 mixing methods, the
# oracle's cross-check of T_mix, keep the same limit.
MAX_DENSE_N = 64
# Mode sums hold S x K rate and amplitude tables (about N^2/4 entries
# each) and evaluate in temporaries of at most _CHUNK_ENTRIES entries.
# Setup plus one 2049-time grid at gamma = 3 peaked at 36 / 70 MiB of
# traced allocations (45 / 71 MiB of resident growth) at n = 256 / 512,
# and setup alone took 4.4 / 45 s there (BENCH_8.json): at this size the
# O(N^4) setup, not memory, is the cost that grows.
MAX_MODESUM_N = 512
# A trajectory table is held whole in memory before it is written out,
# and is refused above this budget before any work starts, by
# check_table_size; so are the RK4 step blocks, their levels and the
# stencil working set.  A mode sum needs far less even at MAX_MODESUM_N
# (70 MiB, above).
MAX_TABLE_BYTES = 5 << 28  # 1.25 GiB
# integrate steps the N x N state with stencil_step from this size up,
# and takes one product with the stride power of the step blocks per
# sample below it.  Over 5000 steps sampled every 10 the blocks are the
# faster route at every size measured, n = 40..192 (at 192: 5.5 against
# 9.5 s literal-S, 6.3 against 35 s density), but their O(N^4) setup
# needs 176 samples to pay off at 192, and their tables grow as 16 N^3
# bytes: 566 MB at the peak of the build at 192, against a few MB for
# the stencil (BENCH_11.json).
STENCIL_MIN_N = 192
# Complex N x N x N tables integrate holds at once on the block route:
# the generator blocks and four temporaries of rk4_step_matrix, or the
# step, its stride power and the powers matrix_power builds.
_STEP_BLOCK_TABLES = 6


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


def _check_dense_size(n: int) -> None:
    """Refuse n > MAX_DENSE_N before the oracle or an RK4 mixing search starts."""
    if n > MAX_DENSE_N:
        raise ValueError(
            f"the expm oracle and RK4 mixing are guarded to n <= {MAX_DENSE_N}, got {n}")


def _check_modesum_size(n: int) -> None:
    """Refuse n > MAX_MODESUM_N before any block of a mode sum is built."""
    if n > MAX_MODESUM_N:
        raise ValueError(f"mode sum guarded to n <= {MAX_MODESUM_N}, got {n}")


def check_table_size(table: str, rows: float, row_bytes: int) -> None:
    """Refuse the named table of rows x row_bytes above MAX_TABLE_BYTES before it is built."""
    if rows * row_bytes > MAX_TABLE_BYTES:
        raise ValueError(
            f"{table} of {rows:.3g} rows x {row_bytes} bytes exceeds "
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
    import scipy.linalg

    _check_model(model)
    check_times(t)
    _check_dense_size(config.n)
    op = build_full_operator(config, model)
    vec = _as_state_vector(config, model, initial)
    out = scipy.linalg.expm(op * t) @ vec
    if not np.isfinite(out.view(float)).all():
        raise IntegrationError(f"dense exponential is not finite at t={t:g}")
    return out.reshape(config.n, config.n)


def rk4_step_matrix(generator: np.ndarray, dt: float) -> np.ndarray:
    """One-step transfer matrix of classical RK4 for a linear system.

    Horner evaluation of I + A + A^2/2 + A^3/6 + A^4/24 with A = dt*G.
    A stack of generators (..., K, K), such as generator_blocks, gives
    the stack of their step matrices.
    """
    a = dt * generator
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    poly = eye + a / 4.0
    poly = eye + (a / 3.0) @ poly
    poly = eye + (a / 2.0) @ poly
    return eye + a @ poly


def _shift_columns(n: int) -> np.ndarray:
    """cols[j, d] = (j + d) mod n: entry (j, d) of a state's diagonal-shift coordinates."""
    j = np.arange(n)
    return (j[:, None] + j) % n


def to_blocks(x: np.ndarray) -> np.ndarray:
    """States (..., N, N) in the block coordinates of generator_blocks.

    Y[j, d] = X[j, j + d] (indices mod N) is X along its N shifted
    diagonals, and the result is its Fourier transform over j,
    Y^[q, d] = sum_j exp(-2 pi i q j / N) Y[j, d] (np.fft.fft).  The
    vertex distribution is X[j, j] = Y[j, 0], the inverse transform of
    Y^[:, 0].
    """
    n = x.shape[-1]
    return np.fft.fft(x[..., np.arange(n)[:, None], _shift_columns(n)], axis=-2)


def from_blocks(y: np.ndarray, real: bool) -> np.ndarray:
    """Inverse of to_blocks; real keeps the real part (literal-S states)."""
    n = y.shape[-1]
    shifted = np.fft.ifft(y, axis=-2)
    x = np.empty_like(shifted)
    x[..., np.arange(n)[:, None], _shift_columns(n)] = shifted
    return x.real if real else x


def block_diagonal(y: np.ndarray) -> np.ndarray:
    """The real vertex distribution X[j, j] of block states (..., N, N), shape (..., N)."""
    return np.fft.ifft(y[..., 0], axis=-1).real


def generator_blocks(config: WalkConfig, model: str) -> np.ndarray:
    """The generator as N blocks of N x N, shape (N, N, N), complex.

    Both generators commute with the diagonal shift (j, k) -> (j+1, k+1),
    which in the coordinates of to_blocks only moves j.  The Fourier
    transform over j therefore splits the generator: blocks[q] maps
    Y^[q, :] to the same row of the derivative, blocks @ Y^[..., None]
    being the whole derivative.  Column d' of every block is read off
    the right-hand side (s_rhs or rho_rhs) applied to the unit state at
    X[0, d'], whose coordinates Y^[q, d] = delta(d, d') are the same for
    every q.  N right-hand sides and one transform cost O(N^3 log N); no
    rate, root or closed form enters, so RK4 on the blocks stays a route
    independent of the mode sums.
    """
    _check_model(model)
    n = config.n
    rhs = s_rhs if model == "s-literal" else rho_rhs
    unit = np.zeros((n, n), dtype=float if model == "s-literal" else complex)
    images = np.empty((n, n, n), dtype=unit.dtype)  # images[j, k, d'], one per unit state
    for column in range(n):
        unit[0, column] = 1.0
        images[..., column] = rhs(config, unit)
        unit[0, column] = 0.0
    return np.fft.fft(images[np.arange(n)[:, None], _shift_columns(n)], axis=0)


def apply_blocks(blocks: np.ndarray, y: np.ndarray) -> np.ndarray:
    """blocks[q] @ y[q] for every q: one batched product."""
    return (blocks @ y[..., None])[..., 0]


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


def integrate(
    config: WalkConfig,
    grid: TimeGrid,
    model: str = "s-literal",
    initial: np.ndarray | None = None,
    keep_states: bool = False,
) -> TimeSeries:
    """Fixed-step RK4 trajectory, sampled every grid.sample_stride steps.

    The effective step is min(grid.dt, 0.1/max(gamma, 1)) rounded so it
    divides the window exactly.  Below STENCIL_MIN_N the state is held
    in block coordinates (to_blocks) and each sample is one batched
    product with the stride power of the RK4 step blocks (O(N^4) to
    build, O(N^3) per sample); from STENCIL_MIN_N up it is stepped with
    stencil_step (O(N^3) per step on N x N arrays).  Every sample is
    checked for finiteness and for conservation of the diagonal sum
    (within 1e-10 of its initial value); violations raise
    IntegrationError.  The output table (stored states included) and the
    working set of the route, step blocks or stencil arrays, are each
    refused above MAX_TABLE_BYTES before any work starts.
    """
    _check_model(model)
    n = config.n
    dt_eff, n_steps = effective_step(grid.t_end, grid.dt, config.gamma)
    stride = int(grid.sample_stride)
    # Density-picture states are complex.
    state_bytes = n * n * (16 if model == "rho" else 8)
    check_table_size("trajectory table", -(-n_steps // stride) + 1,
                     state_bytes if keep_states else 8 * n)
    if n >= STENCIL_MIN_N:
        # Twelve N x N arrays: the coupling and damping factors of the
        # four stages, the state, the stage iterate, its successor and
        # one product.
        check_table_size("stencil working set", 12, state_bytes)
    else:
        # Complex N x N x N tables: at most _STEP_BLOCK_TABLES at once,
        # while the step blocks and their stride power are built.
        check_table_size("RK4 step blocks", _STEP_BLOCK_TABLES * n, 16 * n * n)

    start = _as_state_vector(config, model, initial).reshape(n, n)
    trace0 = float(np.real(np.trace(start)))
    trace_tol = 1e-10 * max(1.0, abs(trace0))

    if n >= STENCIL_MIN_N:
        step = stencil_step(config, model, dt_eff)
        state = start

        def advance(x: np.ndarray, hop: int) -> np.ndarray:
            for _ in range(hop):
                x = step(x)
            return x

        def diagonal(x: np.ndarray) -> np.ndarray:
            return np.real(np.diagonal(x))

        def full(x: np.ndarray) -> np.ndarray:
            return x.copy()
    else:
        step = rk4_step_matrix(generator_blocks(config, model), dt_eff)
        stride_power = np.linalg.matrix_power(step, stride)
        state = to_blocks(start)

        def advance(y: np.ndarray, hop: int) -> np.ndarray:
            power = stride_power if hop == stride else np.linalg.matrix_power(step, hop)
            return apply_blocks(power, y)

        diagonal = block_diagonal

        def full(y: np.ndarray) -> np.ndarray:
            return from_blocks(y, real=model == "s-literal")

    sample_steps = np.arange(0, n_steps + 1, stride)
    if sample_steps[-1] != n_steps:
        sample_steps = np.append(sample_steps, n_steps)

    times = dt_eff * sample_steps
    times[-1] = grid.t_end
    dists = np.empty((sample_steps.size, n))
    states: list[np.ndarray] | None = [] if keep_states else None

    def record(pos: int, v: np.ndarray) -> None:
        if not np.all(np.isfinite(v)):
            raise IntegrationError(f"non-finite state at t={times[pos]:g}; reduce dt")
        dists[pos] = diagonal(v)
        dsum = float(dists[pos].sum())
        if abs(dsum - trace0) > trace_tol:
            raise IntegrationError(
                f"diagonal sum drifted to {dsum!r} at t={times[pos]:g} (started at {trace0!r})"
            )
        if states is not None:
            states.append(full(v))

    record(0, state)
    done = 0
    for pos, target in enumerate(sample_steps[1:], start=1):
        state = advance(state, target - done)
        done = target
        record(pos, state)

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
    import scipy.linalg

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
    exp(rates_k t), or (B, r) with B complex symmetric, a block evaluated
    as r^T expm(t B) r.

    The rates and amplitudes are padded with zeros into S x K tables
    (S = N//2 blocks, K the largest block, S <= K); an evaluation fills
    f_s(t) for every block and then combines the blocks once, through
    the n x S phase table c_s omega^(s j), at O(n S) per time.  One kernel
    fills f at t = lead_a + lag_b, where exp(z t) = exp(z lead_a)
    exp(z lag_b): f over all (a, b) is one batched (S, A, K) @ (S, K, B)
    product of directly computed exponentials, and an expm block takes
    expm(lead_a B) r and expm(lag_b B) r (B symmetric, so the first is
    also r^T expm(lead_a B)), from A + B exponentials.  The grid
    np.linspace(0, t_end, T), T >= 3, splits as k = a B + b with
    B = ceil(sqrt(T)), lead = a B Delta, lag = b Delta: O(S K sqrt(T))
    exponentials, no rounding accumulated along the grid.  Any other
    times (bisection midpoints, a single time) take lead = times and
    lag = [0], where exp(0) = 1 and expm(0) = I exactly.
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
        """Distributions at many times, shape (len(times), n); IntegrationError if not finite."""
        times = check_times(times).ravel()
        out = np.empty((times.size, self.n))
        if times.size >= 3 and np.array_equal(times, np.linspace(0.0, times[-1], times.size)):
            inner = math.isqrt(times.size - 1) + 1  # B, the smallest with B^2 >= T
            lead, lag = times[1] * np.arange(0, times.size, inner), times[1] * np.arange(inner)
        else:
            lead, lag = times, np.zeros(1)
        with np.errstate(over="ignore", invalid="ignore"):  # the check below names the time
            for lo, sums in self._sums(lead, lag, times.size):
                rows = out[lo:lo + sums.shape[0]]
                np.matmul(sums.view(float), self._combine, out=rows)
                rows += 1.0 / self.n
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            raise IntegrationError(f"mode sum is not finite at t={times[np.argmin(finite)]:g}")
        return out

    def _sums(self, lead: np.ndarray, lag: np.ndarray, size: int):
        """(offset, f) per chunk, f of shape (chunk, S): f_s at lead[a] + lag[b]
        in row a len(lag) + b, for the first size rows."""
        count, width = self._rates.shape
        inner = lag.size
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
                head = _expm_flows(heads, block, root)  # rows r^T expm(lead B)
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
    rather than "eig"; at the same lead + lag split as the modes, it takes
    about 2 sqrt(T) expm on a grid of T times and one per other time.
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
