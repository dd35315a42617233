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
  ModeSum).  Its setup solves each of the about N^2/4 secular roots,
  with its amplitude, from a closed form, one scalar equation per root,
  across all the gammas of a sweep (secular_mode_sums): O(N^2) per
  gamma, with no eigenvalue problem (0.07 s at n = 512, gamma = 3,
  against 22 s for one O(N^3) eigvals per block).

Only the oracle builds the N^2 x N^2 generator (build_full_operator,
also the tests' reference), and it is guarded to n <= MAX_DENSE_N.  The
block propagator never forms the generator and is guarded to
n <= MAX_MODESUM_N.  Its mode sum, ModeSum, is the one evaluator behind
every mixing time and every analytic distribution, combining its
blocks through one inverse real FFT per time: the perturbative route
(spectral) fills the same blocks with first-order rates, and the
strong-dephasing closed form (large_gamma) with one heat-kernel mode
each.  SciPy is imported only by the functions that call expm, so
importing the package, and the command line, does not load it.

For a linear autonomous system the classical RK4 update is exactly the
degree-4 Taylor polynomial of the step map,

    v  ->  (I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24) v,

and RK4 (integrate, for trajectories) applies it in one of two ways.
Both generators commute with the diagonal shift (j, k) -> (j+1, k+1),
so a Fourier transform along the diagonals splits G into N blocks of
N x N.  The states are real
(literal-S) or Hermitian (density), so the blocks past N/2 mirror the
others (to_blocks) and only the half spectrum, N//2 + 1 blocks, is
built (generator_blocks, read off the right-hand sides in
O(N^3 log N)); so is the step polynomial (rk4_step_matrix on the
stack): O(N^4) to build or to square, 8 N^3 bytes each, and O(N^3) per
step of a state in block coordinates (to_blocks / from_blocks).
integrate uses them below STENCIL_MIN_N and reads its chain of hops
H^k y0, H the stride power of the step, as lead x lag (_HopChain): row 0
of (H^B)^a against H^b y0, at O(N^2) per sample plus O(N^4 log B) and
with no table of states.  Only keep_states takes one batched product
per sample.  From STENCIL_MIN_N up integrate holds no N^3 table:
stencil_step evaluates the same polynomial in Horner form on the N x N
state, with G(X) = L X - X L - gamma M o X (L the circulant neighbour
coupling, M the off-diagonal mask), at O(N^3) per step.  Every working
set is refused above MAX_TABLE_BYTES before any work starts.
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
# N (at n = 200 it would take 12.8 GB).  Nothing else is held to this limit.
MAX_DENSE_N = 64
# Mode sums hold S x K rate and amplitude tables (about N^2/4 entries
# each) and evaluate in temporaries of at most _CHUNK_ENTRIES entries.
# Setup plus one 2049-time grid at gamma = 3 peaked at 36 / 70 MiB of
# traced allocations (45 / 71 MiB of resident growth) at n = 256 / 512
# (BENCH_8.json).  Setup alone, the closed-form roots and amplitudes,
# takes 0.018 / 0.067 s there, against 2.0 / 22 s with one eigvals per
# block (BENCH_24.json, BENCH_25.json); the bound is kept until a larger
# size is measured.
MAX_MODESUM_N = 512
# A trajectory table is held whole in memory before it is written out,
# and is refused above this budget before any work starts, by
# check_table_size; so are the RK4 step blocks, the lead and lag tables
# of their chains and the stencil working set.  A mode sum needs far
# less even at MAX_MODESUM_N (70 MiB, above).
MAX_TABLE_BYTES = 5 << 28  # 1.25 GiB
# integrate steps the N x N state with stencil_step from this size up,
# and uses the step blocks below it.  Over 5000 steps sampled every 10
# the blocks were the faster route at every size measured, n = 40..192,
# even at one batched product per sample (at 192: 5.5 against 9.5 s
# literal-S, 6.3 against 35 s density; the lead x lag chain now costs
# less per sample), but their O(N^4) setup needs 176 samples to pay off
# at 192, and their tables grew as 16 N^3 bytes on all N blocks: 566 MB
# at the peak of the build at 192, against a few MB for the stencil
# (BENCH_11.json); the half spectrum about halves both.
STENCIL_MIN_N = 192
# integrate refuses a stencil run of more than this many state-entry
# steps (steps x N^2) before the first step.  One stencil_step at
# n = 512 took 38.6 ms, 1.5e-7 s per entry (2-core Xeon VM, 2 BLAS
# threads; 23 ms literal-S and 73 ms density in a later timing), so the
# budget is about ten minutes of stepping (6 to 19 by picture): 15258
# steps, t = 152 at dt = 0.01, at n = 512.
MAX_STENCIL_WORK = 4e9
# Complex (N//2 + 1) x N x N tables integrate holds at once on the block route:
# the generator blocks and four temporaries of rk4_step_matrix, or the
# step, its stride power H and the powers matrix_power builds for H or
# H^B.
_STEP_BLOCK_TABLES = 6
# Entries of the stacks of unit states generator_blocks passes to a
# right-hand side at once.  Each call makes about eight temporaries of
# the stack's size: about one N x N x N table at n = 40, less above.
_RHS_STACK_ENTRIES = 1 << 13


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
    """Refuse n > MAX_DENSE_N before the oracle builds its generator."""
    if n > MAX_DENSE_N:
        raise ValueError(f"the expm oracle is guarded to n <= {MAX_DENSE_N}, got {n}")


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
    # A non-finite start is left to the integrators, which name it at t = 0.
    if np.isfinite(state).all() and not np.array_equal(state, np.conj(state).T):
        raise ValueError("density-picture states are Hermitian matrices")
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
    It takes the starts integrate takes: real literal-S, Hermitian density.
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
    # Four full-size buffers, each term formed in place: a, a / k, and two
    # polynomial iterates, one the product's output (a / 1 is a, exactly).
    poly = a / 4.0
    poly += eye
    scaled, nxt = np.empty_like(a), np.empty_like(a)
    for divisor in (3.0, 2.0, 1.0):
        np.divide(a, divisor, out=scaled)
        np.matmul(scaled, poly, out=nxt)
        nxt += eye
        poly, nxt = nxt, poly
    return poly


def _shift_columns(n: int) -> np.ndarray:
    """cols[j, d] = (j + d) mod n: entry (j, d) of a state's diagonal-shift coordinates."""
    j = np.arange(n)
    return (j[:, None] + j) % n


def _half_spectrum(a: np.ndarray, axis: int) -> np.ndarray:
    """Rows q = 0..N//2 of the Fourier transform of a over axis (N long): rfft if a is real."""
    if np.isrealobj(a):
        return np.fft.rfft(a, axis=axis)
    return np.fft.fft(a, axis=axis).take(np.arange(a.shape[axis] // 2 + 1), axis=axis)


def to_blocks(x: np.ndarray) -> np.ndarray:
    """States (..., N, N) in the block coordinates of generator_blocks, shape (..., N//2 + 1, N).

    Y[j, d] = X[j, j + d] (indices mod N) is X along its N shifted
    diagonals, and the block coordinates are its Fourier transform over
    j, Y^[q, d] = sum_j exp(-2 pi i q j / N) Y[j, d], on the half
    spectrum q = 0..N//2.  The other rows follow from these for the
    states the two pictures hold, with omega = exp(2 pi i / N):

        real X (literal-S):     Y^[N - q, d] = conj(Y^[q, d]),
        Hermitian X (density):  Y^[N - q, d] = omega^(-q d) conj(Y^[q, -d]).

    At d = 0 both read Y^[N - q, 0] = conj(Y^[q, 0]), so the vertex
    distribution X[j, j] = Y[j, 0] is the inverse real transform of
    Y^[:, 0] (block_diagonal).
    """
    n = x.shape[-1]
    return _half_spectrum(x[..., np.arange(n)[:, None], _shift_columns(n)], axis=-2)


def from_blocks(y: np.ndarray, real: bool) -> np.ndarray:
    """Inverse of to_blocks: the real (literal-S) or else Hermitian (density) states of y."""
    n = y.shape[-1]
    if real:
        shifted = np.fft.irfft(y, n=n, axis=-2)
    else:
        p = np.arange((n - 1) // 2, 0, -1)  # rows N - p = N//2 + 1..N - 1, by the mirror
        d = np.arange(n)
        mirror = np.exp(-2j * np.pi * (p[:, None] * d % n) / n) * y[..., p[:, None], -d % n].conj()
        shifted = np.fft.ifft(np.concatenate((y, mirror), axis=-2), axis=-2)
    x = np.empty_like(shifted)
    x[..., np.arange(n)[:, None], _shift_columns(n)] = shifted
    return x


def block_diagonal(y: np.ndarray) -> np.ndarray:
    """The real vertex distribution X[j, j] of block states (..., N//2 + 1, N), shape (..., N)."""
    return np.fft.irfft(y[..., 0], n=y.shape[-1], axis=-1)


def generator_blocks(config: WalkConfig, model: str) -> np.ndarray:
    """The generator as N//2 + 1 blocks of N x N, shape (N//2 + 1, N, N), complex.

    Both generators commute with the diagonal shift (j, k) -> (j+1, k+1),
    which in the coordinates of to_blocks only moves j.  The Fourier
    transform over j therefore splits the generator: blocks[q] maps
    Y^[q, :] to the same row of the derivative, blocks @ Y^[..., None]
    being the whole derivative, and the rows q > N/2 of a state mirror
    the others (to_blocks).  Column d' of every block is read off the
    right-hand side (s_rhs or rho_rhs) applied to the unit state at
    X[0, d'], whose coordinates Y^[q, d] = delta(d, d') are the same for
    every q.  The right-hand side takes the unit states as stacks of at
    most _RHS_STACK_ENTRIES entries; with one transform (rfft of the
    real literal-S images) that costs O(N^3 log N).  No rate, root or closed form enters, so RK4 on
    the blocks stays a route independent of the mode sums.
    """
    _check_model(model)
    n = config.n
    rhs = s_rhs if model == "s-literal" else rho_rhs
    dtype = float if model == "s-literal" else complex
    images = np.empty((n, n, n), dtype=dtype)  # images[j, k, d'], one per unit state
    width = max(1, _RHS_STACK_ENTRIES // (n * n))
    for lo in range(0, n, width):
        units = np.zeros((min(width, n - lo), n, n), dtype=dtype)
        units[np.arange(units.shape[0]), 0, np.arange(lo, lo + units.shape[0])] = 1.0
        images[..., lo:lo + units.shape[0]] = rhs(config, units).transpose(1, 2, 0)
    return _half_spectrum(images[np.arange(n)[:, None], _shift_columns(n)], axis=0)


def apply_blocks(blocks: np.ndarray, y: np.ndarray) -> np.ndarray:
    """blocks[q] @ y[q] for every q: one batched product."""
    return (blocks @ y[..., None])[..., 0]


def _chain_split(count: int) -> tuple[int, int]:
    """(B, A) for count states read as k = a B + b: B = ceil(sqrt(count)), A = ceil(count / B)."""
    inner = math.isqrt(count - 1) + 1  # the smallest B with B^2 >= count
    return inner, -(-count // inner)


def _chain_chunk(blocks: int, inner: int) -> int:
    """Lead rows per contraction of a _HopChain: (blocks, rows, B) of at most _CHUNK_ENTRIES."""
    return max(1, _CHUNK_ENTRIES // (blocks * inner))


class _HopChain:
    """Vertex distributions of the block states y_k = H^k y0, k < T, read as lead x lag.

    integrate's samples on the stride lattice: H is the stride power of
    the RK4 step blocks, a stack of M = N//2 + 1 hop blocks (M, N, N),
    and y0 the start as a block state (M, N) (to_blocks).  As in ModeSum, k splits as a B + b with
    B = ceil(sqrt(T)) (_chain_split), and only the entry block_diagonal
    reads is formed: Y^_k[q, 0] = e0^T (H_q^B)^a H_q^b y0_q.  The lag
    states H^b y0 (B - 1 batched products), the lead covectors, row 0 of
    (H^B)^a (one matrix_power and A - 1 products with H^B,
    A = ceil(T/B)), and one batched (M, A, N) @ (M, N, B) product, split
    by lead rows into chunks of at most _CHUNK_ENTRIES entries, each
    combined by one inverse real FFT written into the distributions,
    give every distribution: O(N^2 T + N^4 log B), against O(N^3 T) for
    T sequential hops, and about sqrt(T) N^2 entries, not T N^2.  The
    lag states and H^B are kept, so state(k) rebuilds any y_k as (H^B)^a
    applied to lag state b: the last lattice state, where a partial
    stride starts.

    dists (T, N) is written into out.  bad is the first k whose lag
    state, lead covector or distribution is not finite (T if none): the
    distribution at k and every lag or lead factor it reads are finite
    for every k < bad.  The caller checks the lag, lead and chunk tables
    (table_rows) against MAX_TABLE_BYTES before building them.
    """

    def __init__(self, hop: np.ndarray, state: np.ndarray, out: np.ndarray) -> None:
        count, n = out.shape
        blocks = hop.shape[0]
        self.inner, outer = _chain_split(count)
        self.dists = out
        self.lag = np.empty((self.inner, blocks, n), dtype=complex)
        # Non-finite values are allowed to run on; bad names where they start.
        with np.errstate(over="ignore", invalid="ignore"):
            self.lag[0] = state
            for b in range(1, self.inner):
                state = apply_blocks(hop, state)
                self.lag[b] = state
            self.lead_hop = np.linalg.matrix_power(hop, self.inner)
            lead = np.zeros((blocks, outer, n), dtype=complex)  # lead[q, a] = row 0 of (H_q^B)^a
            lead[:, 0, 0] = 1.0
            for a in range(1, outer):
                lead[:, a:a + 1] = lead[:, a - 1:a] @ self.lead_hop
            lag = self.lag.transpose(1, 2, 0)
            rows = _chain_chunk(blocks, self.inner)
            for a0 in range(0, outer, rows):
                lo = a0 * self.inner
                hi = min(count, lo + rows * self.inner)
                grid = (lead[:, a0:a0 + rows] @ lag).reshape(blocks, -1)[:, :hi - lo]
                np.fft.irfft(grid.T, n=n, axis=-1, out=out[lo:hi])
        self.bad = min(_first_non_finite(self.lag, count),
                       self.inner * _first_non_finite(lead.transpose(1, 0, 2), outer),
                       _first_non_finite(out, count))

    @staticmethod
    def table_rows(n: int, count: int) -> int:
        """Rows of n doubles in the lag and lead tables and the complex product
        of one contraction chunk (rounded up), for count states of N//2 + 1 blocks."""
        blocks = n // 2 + 1
        inner, outer = _chain_split(count)
        chunk = 2 * blocks * min(outer, _chain_chunk(blocks, inner)) * inner
        return 2 * blocks * (inner + outer) - (-chunk // n)

    def state(self, k: int) -> np.ndarray:
        """Block state y_k, rebuilt as (H^B)^a applied to lag state b, k = a B + b."""
        a, b = divmod(k, self.inner)
        state = self.lag[b]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(a):
                state = apply_blocks(self.lead_hop, state)
        return state


def _first_non_finite(table: np.ndarray, default: int) -> int:
    """Index of the first entry along axis 0 of table that is not finite, else default."""
    finite = np.isfinite(table).reshape(table.shape[0], -1).all(axis=1)
    return default if finite.all() else int(np.argmin(finite))


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


def _check_samples(times: np.ndarray, dists: np.ndarray, finite: np.ndarray,
                   trace0: float, trace_tol: float) -> None:
    """Raise IntegrationError at the first sample that is not finite or
    whose diagonal sum is more than trace_tol from trace0."""
    with np.errstate(invalid="ignore"):
        sums = dists.sum(axis=1)
        failed = ~finite | (np.abs(sums - trace0) > trace_tol)
    if failed.any():
        pos = int(np.argmax(failed))
        if not finite[pos]:
            raise IntegrationError(f"non-finite state at t={times[pos]:g}; reduce dt")
        raise IntegrationError(
            f"diagonal sum drifted to {float(sums[pos])!r} at t={times[pos]:g} "
            f"(started at {trace0!r})"
        )


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
    in block coordinates (to_blocks, N//2 + 1 blocks), where H, the
    stride power of the RK4 step blocks, hops one sample (O(N^4) to
    build).  The samples on its lattice are then read as lead x lag
    (_HopChain): row 0 of (H^B)^a against H^b y0, O(N^2) per sample
    plus O(N^4 log B), with no per-sample product.  A last partial
    stride starts from the last lattice state, rebuilt by the chain, and
    takes one product with the step's power for the steps left.  With keep_states every sample is
    instead one batched product with H, O(N^3), since every state is
    stored anyway.  From STENCIL_MIN_N up the state is stepped with
    stencil_step (O(N^3) per step on N x N arrays).  A literal-S start
    must be real and a density-picture start Hermitian, else ValueError.

    Every sample's distribution is checked for finiteness and for
    conservation of the diagonal sum (within 1e-10 of its initial
    value); violations raise IntegrationError at the first sample that
    fails.  A state the route holds whole (each sample on the sequential
    routes, the rebuilt and the final state of a partial stride) must be
    finite in every entry, and so must every lag state and lead
    covector of the chain, at the first sample that reads it.  The
    output table (stored states included) and the working set of the
    route, step blocks, chain tables or stencil arrays, are each refused
    above MAX_TABLE_BYTES before any work starts, and so is a stencil
    run of more than MAX_STENCIL_WORK state-entry steps.
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
        if n_steps * n * n > MAX_STENCIL_WORK:
            raise ValueError(
                f"{n_steps} RK4 stencil steps of {n}x{n} states exceed the "
                f"{MAX_STENCIL_WORK:.3g} state-entry step budget; shorten t_end"
            )
    else:
        # Complex (N//2 + 1) x N x N tables: at most _STEP_BLOCK_TABLES at
        # once, while the step blocks, their stride power and H^B are built.
        check_table_size("RK4 step blocks", _STEP_BLOCK_TABLES * (n // 2 + 1), 16 * n * n)
    lattice = n_steps // stride + 1  # samples on the stride lattice
    chained = n < STENCIL_MIN_N and not keep_states
    if chained:
        check_table_size("RK4 lead and lag tables", _HopChain.table_rows(n, lattice), 8 * n)

    start = _as_state_vector(config, model, initial).reshape(n, n)
    trace0 = float(np.real(np.trace(start)))
    trace_tol = 1e-10 * max(1.0, abs(trace0))

    sample_steps = np.arange(0, n_steps + 1, stride)
    if sample_steps[-1] != n_steps:
        sample_steps = np.append(sample_steps, n_steps)

    times = dt_eff * sample_steps
    times[-1] = grid.t_end

    if chained:
        step = rk4_step_matrix(generator_blocks(config, model), dt_eff)
        partial = lattice < times.size
        tail = np.linalg.matrix_power(step, n_steps % stride) if partial else None
        hop = np.linalg.matrix_power(step, stride)
        del step  # not held while the chain takes H^B
        dists = np.empty((times.size, n))
        chain = _HopChain(hop, to_blocks(start), dists[:lattice])
        finite = np.arange(times.size) < chain.bad
        if partial:
            state = chain.state(lattice - 1)
            finite[lattice - 1] &= np.isfinite(state).all()
            with np.errstate(over="ignore", invalid="ignore"):
                state = apply_blocks(tail, state)
            finite[-1] = np.isfinite(state).all()
            dists[-1] = block_diagonal(state)
        _check_samples(times, dists, finite, trace0, trace_tol)
        return TimeSeries(times=times, dists=dists, dt_used=dt_eff)

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

    dists = np.empty((times.size, n))
    states: list[np.ndarray] | None = [] if keep_states else None

    def record(pos: int, v: np.ndarray) -> None:
        dists[pos] = diagonal(v)
        _check_samples(times[pos:pos + 1], dists[pos:pos + 1], np.isfinite(v).all()[None],
                       trace0, trace_tol)
        if states is not None:
            states.append(full(v))

    record(0, state)
    done = 0
    for pos, target in enumerate(sample_steps[1:], start=1):
        state = advance(state, target - done)
        done = target
        record(pos, state)

    return TimeSeries(times=times, dists=dists, dt_used=dt_eff, states=states)


# Most Newton steps on a root's closed-form equation (_closed_form_roots;
# a root takes one more step once converged, then stops): from its
# starts, 7 left no block unsolved over N = 3..40 and 64, both pictures,
# every s and 161 values of c in [1e-6, 1e4] (138782 blocks), 6 left 157
# and 5 left 266.
_CLOSED_FORM_STEPS = 8
# Complex tables of G S K entries _closed_form_roots holds at once,
# counted with room to spare (its traced peak was 26 to 33 of them at
# n = 20..512): secular_mode_sums hands it at most _CHUNK_ENTRIES /
# _CLOSED_FORM_TABLES roots at a time.
_CLOSED_FORM_TABLES = 40
# A block's roots are trusted when the amplitudes add up to N within
# this fraction of N, and sum amp z^2 to -sigma^2 N / 2 within this
# fraction of sum |amp| |z|^2 (_closed_form_roots),
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
# Entries that a temporary stacked over several members may hold: ModeSum.scan
# groups a slab's members within it, and envelope_leads sizes its chunks by
# it.  A member larger than it is scanned alone, in _CHUNK_ENTRIES chunks.
_STACK_ENTRIES = 1 << 14


def _expm_flows(times: np.ndarray, block: np.ndarray, root: np.ndarray) -> np.ndarray:
    """expm(t B) r at each t, shape (len(times), k), in batches of <= _CHUNK_ENTRIES entries."""
    import scipy.linalg

    k = block.shape[0]
    step = max(1, _CHUNK_ENTRIES // k**2)
    out = np.empty((times.size, k), dtype=complex)
    for lo in range(0, times.size, step):
        out[lo:lo + step] = scipy.linalg.expm(times[lo:lo + step, None, None] * block) @ root
    return out


def lead_lag(times: np.ndarray, uniform: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Split flat times as lead[a] + lag[b], time k in row k = a len(lag) + b.

    The grid np.linspace(0, t_end, T), T >= 3, splits as k = a B + b with
    B = ceil(sqrt(T)), lead = a B Delta and lag = b Delta, so a mode sum
    takes A + ceil(log2 B) exponentials per mode, not T: the lag factors
    come by doubling (_lag_factors), each a product of at most
    ceil(log2 B) of them, so no rounding builds up along the grid.  Any
    other times are their own lead with lag = [0],
    where exp(0) = 1 and expm(0) = I exactly.  uniform says that times
    is such a grid, built so by the caller, and skips comparing it with
    a fresh one.
    """
    if times.size >= 3 and (uniform or np.array_equal(times,
                                                      np.linspace(0.0, times[-1], times.size))):
        inner, _ = _chain_split(times.size)
        return times[1] * np.arange(0, times.size, inner), times[1] * np.arange(inner)
    return times, np.zeros(1)


def envelope_margin(eps: float, reach, modes, n: int, lags: int = 1):
    """How far under eps a mode-sum envelope must fall before grid rows are left out.

    Rounding can lift a computed distance above the exact one and put a
    computed envelope below the exact one.  At an envelope of at most
    eps the two together stay, to first order, under u ((reach + modes
    + n + 4 d) eps + n), u = 2^-53:

    * reach = max |z| t_end, for the exponent z t of each term, rounded
      as lead and lag apart;
    * modes + n, for the sums over the modes and blocks and over the n
      vertices;
    * n, for the inverse real FFT that forms P_j = 1/N + x, and back;
    * 4 d, d = ceil(log2 lags), for a lag factor taken by doubling
      (_lag_factors): a product of at most d exponentials, each within
      about u, in at most d - 1 complex products, each within sqrt(5) u
      (Brent, Percival and Zimmermann, Math. Comp. 76, 2007), so a
      relative error under (1 + sqrt 5) d u < 4 d u of a term whose
      modulus the envelope bounds.  Its exponents' rounding is reach's.

    The margin is 8 times that bound.  Arrays of reach and modes give
    one margin per member.
    """
    doublings = (int(lags) - 1).bit_length()
    return 8.0 * 2.0**-53 * ((reach + modes + n + 4 * doublings) * eps + n)


def envelope_leads(lead: np.ndarray, lags: int, step: np.ndarray, eps: float, n: int,
                   rates: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Lead rows of each member's lead x lag split on which its distance may still exceed eps.

    Member g has the lead times lead[g] (lead is G x A) and the lags
    b step[g], b < lags.  rates (G, M), real or complex, and weights
    (G, M) >= 0, with Re z < 0 wherever the weight is nonzero, give its
    envelope E_g(t) = sum_m weights_gm exp(Re z_gm t).  It bounds the
    distance sum_j |P_j - 1/N| of a mode sum and decreases in t, so once
    E_g(lead_ga) <= eps - envelope_margin the computed distance stays at
    or under eps at lead_ga and at every later time of the split.  The
    result is, per member, the first lead row where it does so, or every
    row (A) if none does or its leads do not ascend.  Since only the
    first such row counts, E is evaluated at the lead times of every
    member still undecided at once, in chunks of 1, 1, 2, 4, ... rows
    (each of at most _STACK_ENTRIES entries, or one row per member), up
    to the first chunk that holds its row.  Each E_g(t) is its own sum
    over the M modes, padding included (weight 0 adds 0), so a member's
    result is the one it gets alone.
    """
    members, rows_all = lead.shape
    kept = np.full(members, rows_all)
    if rows_all == 0:
        return kept
    live = weights > 0
    reach = np.abs(np.where(live, rates, 0.0)).max(axis=1) * (lead[:, -1] + step * (lags - 1))
    level = eps - envelope_margin(eps, reach, live.sum(axis=1), n, lags)
    decay = np.where(live, rates.real, 0.0)  # a padding mode adds 0 exp(0)
    pending = np.flatnonzero((lead[:, 1:] >= lead[:, :-1]).all(axis=1))
    lo, rows = 0, 1
    while pending.size and lo < rows_all:
        envelope = lead[pending, lo:lo + rows, None] * decay[pending, None, :]
        np.exp(envelope, out=envelope)
        envelope *= weights[pending, None, :]
        clear = envelope.sum(axis=-1) <= level[pending, None]
        hit = clear.any(axis=1)
        kept[pending[hit]] = lo + clear[hit].argmax(axis=1)
        pending = pending[~hit]
        most = max(1, _STACK_ENTRIES // max(1, pending.size * decay.shape[1]))
        lo, rows = lo + rows, min(lo + rows, most)
    return kept


def _lag_factors(rates: np.ndarray, step: np.ndarray, count: int) -> np.ndarray:
    """exp(z b step[g]) for b < count, as (G, S, K, count) for (G, S, K) rates, by doubling.

    Only the ceil(log2 count) exponentials exp(z 2^i step) are taken (z
    step is rounded once; 2^i scales it exactly).  Entry b is entry
    b - 2^i, 2^i the highest power of two in b, times exp(z 2^i step):
    a product over the set bits of b, so each entry is at most
    ceil(log2 count) rounded factors and no rounding builds up along the
    lags (envelope_margin).  Entry 0 is 1.  The table is built lag-major,
    each doubling one product of contiguous slabs, and returned as a
    view with the lag last, the layout the batched product takes fastest.
    """
    table = np.empty((count, *rates.shape), dtype=rates.dtype)
    table[0] = 1.0
    scaled = rates * step[:, None, None]
    width = 1
    while width < count:
        np.multiply(table[:min(width, count - width)], np.exp(scaled * width),
                    out=table[width:2 * width])
        width *= 2
    return table.transpose(1, 2, 3, 0)


def _mode_products(heads: np.ndarray, tail: np.ndarray, rates: np.ndarray,
                   amps: np.ndarray) -> np.ndarray:
    """f_s at head + lag_b as exp(z head) times the lag factor exp(z lag_b):
    (G, S, A, B) for heads (G, A), (G, S, K) rate and amplitude tables and
    lag factors tail (G, S, K, B), in one batched product."""
    # Exponentials in place: one table, not two.
    head = heads[:, None, :, None] * rates[:, :, None, :]
    np.exp(head, out=head)
    head *= amps[:, :, None, :]
    return head @ tail


class ModeSum:
    """Vertex distributions from vertex 0 as sums over the index-sum blocks, for G members.

    Member g (one gamma of a sweep, say) gives P_j(t) = 1/N + Re sum_s
    c_s omega^(s j) f_s(t) for s = 1..S, S = N//2, with c_s = 2/N^2
    (1/N^2 at s = N/2) folding in f_(N-s) = conj(f_s); the s = 0 block is
    the stationary uniform term.  Row s - 1 of member g of the G x S x K
    tables rates and amps gives f_s(t) = sum_k amps_k exp(rates_k t), a
    block of fewer modes being padded with zero amplitudes.  dense[g]
    holds member g's blocks evaluated instead as r^T expm(t B) r, as
    (row, B, r) with B complex symmetric; their table rows are zero.  The
    combine is the inverse real FFT: the half spectrum (1, f_1/N, ...,
    f_S/N) gives P_j = np.fft.irfft(..., N)_j exactly as the sum above,
    at O(N log N) per time.  Building a ModeSum costs at most a copy of
    its tables; member(g) is member g alone, on views of them.

    distributions evaluates a ModeSum of one member at many times, and
    scan every member on a uniform grid of its own, in one stacked pass
    per group of members.  Both are one kernel (_sums), distributions its
    G = 1 case.  It fills f at t = lead_a + lag_b, where exp(z t) =
    exp(z lead_a) exp(z lag_b): f over all (a, b) is one batched
    (G, S, A, K) @ (G, S, K, B) product (_mode_products) of the lead
    exponentials and the lag factors, and an expm block takes
    expm(lead_a B) r and expm(lag_b B) r (B symmetric, so the first is
    also r^T expm(lead_a B)), from A + B exponentials.  The grid
    np.linspace(0, t_end, T), T >= 3, splits as k = a B + b with
    B = ceil(sqrt(T)) (lead_lag): O(S K sqrt(T)) exponentials, the lag
    factors by doubling (_lag_factors), each a product of at most
    ceil(log2 B) of them.  Any other times (a single time, say) take
    lead = times and lag = [0], a factor of 1.  Every temporary, the
    half spectra included, holds at most _CHUNK_ENTRIES entries, split
    by lead rows and then by blocks, and one that spans several members
    at most _STACK_ENTRIES.

    at evaluates every member at one time of its own, the bisection
    midpoints of a sweep's searches in lockstep (mixing.LockstepSearch):
    the same kernel on lead = that time and lag = [0], one stacked
    (G, S, 1, K) @ (G, S, K, 1) product and one inverse real FFT of the
    G half spectra, so row g is bitwise what member g alone gives at its
    time.  Its (G, S, 1, K) temporaries stay within _CHUNK_ENTRIES
    entries because a slab of LockstepSearch does (stack_slab).

    The distance sum_j |P_j - 1/N| is at most the envelope
    E(t) = n sum_s c_s sum_k |amp_sk| exp(Re z_sk t), since each
    |P_j - 1/N| is at most sum_s c_s |f_s(t)|.  When no block is dense,
    every rate and amplitude is finite and every mode of nonzero
    amplitude decays (Re z < 0), E decreases in t and
    distributions(times, eps) and scan leave out the grid rows from the
    first lead time with E <= eps - envelope_margin on (envelope_leads): their
    distance is known to be at or under eps.  Those rows cannot hold a
    non-finite value either, since each of their terms is a finite
    amplitude times an exponential of modulus at most 1.  A dense block
    or a mode that does not decay (gamma = 0) leaves no envelope, and
    every row is evaluated.
    """

    def __init__(self, n: int, rates: np.ndarray, amps: np.ndarray, dense=None) -> None:
        self.n = n
        # Real tables stay real: the heat kernel's rates (real exponentials)
        # and the perturbative amplitudes (a broadcast view, not a copy);
        # a real amplitude times a complex exponential is the same product.
        self._rates = np.asarray(rates, np.result_type(rates, float))
        self._amps = np.asarray(amps, np.result_type(amps, float))
        if self._rates.ndim != 3 or self._amps.shape != self._rates.shape:
            raise ValueError(f"mode tables must be (G, S, K) alike, got {self._rates.shape} "
                             f"and {self._amps.shape}")
        self.dense = [list(d) for d in dense] if dense is not None else [[] for _ in self._rates]

    def member(self, g: int) -> ModeSum:
        """Member g alone: a ModeSum of one member, on views of these tables."""
        return ModeSum(self.n, self._rates[g:g + 1], self._amps[g:g + 1], self.dense[g:g + 1])

    @staticmethod
    def stack(sums: list[ModeSum]) -> ModeSum:
        """The members of sums, in order, as one ModeSum (copies of their
        tables; one ModeSum is itself)."""
        if len(sums) == 1:
            return sums[0]
        return ModeSum(sums[0].n, np.concatenate([s._rates for s in sums]),
                       np.concatenate([s._amps for s in sums]), [d for s in sums for d in s.dense])

    def reach(self, t_end: np.ndarray) -> np.ndarray:
        """How far a grid to t_end[g] turns the phases of member g's modes,
        one value per member: the largest |z| min(t_end, 1/|Re z|) over its
        modes, and t_end times the largest row sum of a dense block (which
        bounds its rates).  Past 1/|Re z| a mode's phase error |z| t u is
        damped by its own exp(Re z t) at least as fast as it grows, so only
        the modes that have not yet decayed count in full (envelope_margin's
        reach).  A padding mode has rate 0 and adds nothing."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            limit = np.minimum(t_end[:, None, None], 1.0 / np.abs(self._rates.real))
            out = (np.abs(self._rates) * limit).max(axis=(1, 2), initial=0.0)
            for g, dense in enumerate(self.dense):
                for _, block, _ in dense:
                    out[g] = max(out[g], np.abs(block).sum(axis=1).max() * t_end[g])
        return out

    @staticmethod
    def failure(t: float) -> IntegrationError:
        """The error of a distribution that is not finite at time t."""
        return IntegrationError(f"mode sum is not finite at t={t:g}")

    def _envelope(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every member's envelope: (rates, weights, bounded), the rates and the
        weights n c_s |amp| (zero at padding) flattened to (G, S K), and
        whether each member has one (see the class docstring); built at
        each call with eps, so that a slab's members do not keep theirs."""
        n, members = self.n, self._rates.shape[0]
        s = np.arange(1, self._rates.shape[1] + 1)[:, None]
        weights = (n * (np.where(2 * s == n, 1.0, 2.0) / n**2) * np.abs(self._amps)).reshape(
            members, -1)
        rates = self._rates.reshape(members, -1)
        bounded = (np.isfinite(rates).all(axis=1) & np.isfinite(weights).all(axis=1)
                   & ~((weights > 0) & ~(rates.real < 0)).any(axis=1)
                   & np.array([not dense for dense in self.dense], dtype=bool))
        return rates, weights, bounded

    def _cut(self, lead: np.ndarray, lags: int, step: np.ndarray, eps: float | None) -> np.ndarray:
        """Lead rows each member evaluates: those before its envelope's cut
        with eps (envelope_leads), else all of them."""
        kept = np.full(lead.shape[0], lead.shape[1])
        if eps is not None:
            rates, weights, bounded = self._envelope()
            if bounded.any():
                kept[bounded] = envelope_leads(lead[bounded], lags, step[bounded], eps, self.n,
                                               rates[bounded], weights[bounded])
        return kept

    def distributions(self, times: np.ndarray, eps: float | None = None,
                      uniform: bool = False) -> np.ndarray:
        """Distributions of the one member at many times, shape (len(times), n);
        IntegrationError if not finite.

        With eps, the rows from the envelope's cut on (see the class
        docstring) are left out and the result holds the first rows only;
        those it holds are bitwise the rows of the whole table.  uniform
        says that times is np.linspace(0, times[-1], times.size), as the
        caller built it (lead_lag).  A grid's rows are bitwise its rows
        in scan.
        """
        if self._rates.shape[0] != 1:
            raise ValueError(f"distributions takes a ModeSum of one member, not "
                             f"{self._rates.shape[0]}; see member, at and scan")
        times = check_times(times).ravel()
        lead, lag = lead_lag(times, uniform)
        step = lag[1:2] if lag.size > 1 else np.zeros(1)
        kept = self._cut(lead[None], lag.size, step, eps)[0]
        out = self._table(lead[None, :kept], step, lag.size, min(times.size, kept * lag.size))[0]
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            raise self.failure(times[np.argmin(finite)])
        return out

    def scan(self, t_end: np.ndarray, count: int, eps: float | None):
        """Every member's distributions on its own grid np.linspace(0, t_end[g], count), count >= 3.

        The grids split as lead x lag alike (lead_lag), with the step
        t_end / (count - 1), bitwise linspace's, and every member's
        envelope cut with eps is taken in one evaluation (envelope_leads).
        The members then go, in order of their kept lead rows, in groups
        whose temporaries hold at most _STACK_ENTRIES entries, each in one
        stacked product and one inverse real FFT (a member larger than
        that alone, in chunks of _CHUNK_ENTRIES).  A member of one kept
        lead row goes with no member of more: its product is then a
        vector-matrix one, which rounds unlike a matrix-matrix one.
        Yields (index, table, rows) per group: table (len(index), R, n)
        holds member index[k]'s distributions, rows[k] of them before its
        cut, each bitwise what distributions gives on its grid alone, and
        the rest at later times of its grid.  Rows are not checked: a row
        that is not finite is its member's failure (failure at that
        time), and the others stand.
        """
        step = t_end / (count - 1)
        inner, _ = _chain_split(count)
        lead = step[:, None] * np.arange(0, count, inner)
        kept = self._cut(lead, inner, step, eps)
        rows = np.minimum(count, kept * inner)
        blocks, modes = self._rates.shape[1:]

        def entries(lead_rows: int) -> int:
            """A member's largest temporary: lag factors, products or distributions."""
            return max(blocks * modes * max(lead_rows, inner), lead_rows * inner * self.n)

        order = np.argsort(kept, kind="stable")
        lo = 0
        while lo < order.size:
            hi = lo + 1
            while (hi < order.size and (hi + 1 - lo) * entries(kept[order[hi]]) <= _STACK_ENTRIES
                   and (kept[order[hi - 1]] != 1 or kept[order[hi]] == 1)):
                hi += 1
            index = order[lo:hi]
            group = ModeSum(self.n, self._rates[index], self._amps[index],
                            [self.dense[g] for g in index])
            top = kept[order[hi - 1]]
            yield index, group._table(lead[index, :top], step[index], inner,
                                      min(count, top * inner)), rows[index]
            lo = hi

    def at(self, times: np.ndarray) -> np.ndarray:
        """Member g's distribution at times[g], for every member g: shape (G, n).

        Rows are not checked: a row that is not finite is its member's
        failure (failure(times[g])), and the other rows stand.
        """
        lag = np.zeros(1)
        spectrum = np.empty((times.size, self._rates.shape[1] + 1), dtype=complex)
        spectrum[:, 0] = 1.0
        out = np.empty((times.size, self.n))
        with np.errstate(over="ignore", invalid="ignore"):
            tail = self._rates[..., None] * lag
            np.exp(tail, out=tail)
            spectrum[:, 1:] = _mode_products(times[:, None], tail, self._rates,
                                             self._amps)[..., 0, 0]
            for g, dense in enumerate(self.dense):
                for row, block, root in dense:
                    head = _expm_flows(times[g:g + 1], block, root)
                    spectrum[g, 1 + row] = (head @ _expm_flows(lag, block, root).T)[0, 0]
            self._combine(spectrum, out)
        return out

    def _combine(self, spectrum: np.ndarray, out: np.ndarray) -> None:
        """out = the distributions of half spectra (..., S + 1), f_s in column s."""
        blocks = spectrum[..., 1:].view(float)  # f_s / N, on the real view
        blocks *= 1.0 / self.n
        np.fft.irfft(spectrum, n=self.n, axis=-1, out=out)

    def _table(self, lead: np.ndarray, step: np.ndarray, inner: int, size: int) -> np.ndarray:
        """(G, size, n): member g's distribution at lead[g, a] + b step[g] in
        row a inner + b, for the first size rows; not checked."""
        out = np.empty((lead.shape[0], size, self.n))
        with np.errstate(over="ignore", invalid="ignore"):  # the caller names the time
            for lo, spectrum in self._sums(lead, step, inner, size):
                self._combine(spectrum, out[:, lo:lo + spectrum.shape[1]])
        return out

    def _sums(self, lead: np.ndarray, step: np.ndarray, inner: int, size: int):
        """(offset, spectrum) per chunk, spectrum of shape (G, chunk, S + 1):
        1 in column 0 and member g's f_s at lead[g, a] + b step[g] in
        column s of row a inner + b, for the first size rows."""
        rates, amps = self._rates, self._amps
        members, count, width = rates.shape
        # Lead rows per chunk, set per member, so that a member's chunks are
        # those it has alone; scan keeps a group's temporaries within
        # _STACK_ENTRIES, and they come to one chunk.
        rows = max(1, _CHUNK_ENTRIES // (max(width, count + 1) * inner))
        for a0 in range(0, lead.shape[1], rows):
            heads = lead[:, a0:a0 + rows]
            lo, chunk = a0 * inner, heads.shape[1]
            valid = min(size - lo, chunk * inner)
            spectrum = np.empty((members, valid, count + 1), dtype=complex)
            spectrum[..., 0] = 1.0
            group = max(1, _CHUNK_ENTRIES // (members * max(width * chunk, width * inner,
                                                             chunk * inner)))
            for first in range(0, count, group):
                part = np.s_[:, first:first + group]
                grid = _mode_products(heads, _lag_factors(rates[part], step, inner),
                                      rates[part], amps[part])
                grid = grid.reshape(*grid.shape[:2], -1)[..., :valid]
                spectrum[..., 1 + first:1 + first + group] = grid.transpose(0, 2, 1)
            for g, dense in enumerate(self.dense):
                lag = step[g] * np.arange(inner)
                for row, block, root in dense:
                    head = _expm_flows(heads[g], block, root)  # rows r^T expm(lead B)
                    tail = _expm_flows(lag, block, root)
                    spectrum[g, :, 1 + row] = (head @ tail.T).ravel()[:valid]
            yield lo, spectrum


def stack_slab(entries: int) -> int:
    """Members of entries table entries each that one ModeSum stacks for
    ModeSum.at: its tables and temporaries within _CHUNK_ENTRIES entries."""
    return max(1, _CHUNK_ENTRIES // entries)


class DiagonalPropagator:
    """Vertex distribution from vertex 0 at arbitrary times, by Fourier blocks.

    Both generators commute with the diagonal shift (j, k) -> (j+1, k+1),
    so in the torus Fourier basis they split exactly into N blocks, one
    per index sum s, over the modes (m, s-m):

        B_s = diag(lambda_m) - gamma I + (gamma/N) 1 1^T.

    The vertex-0 start has flat Fourier coefficients, so P_j(t) =
    N^-2 sum_s omega^(s j) f_s(t) with f_s(t) = 1^T exp(t B_s) 1, a
    ModeSum.  Modes with equal rates are merged with summed weights c_m.
    The rates that 1^T can see are the roots z of the secular equation

        h(z) = sum_m c_m (lambda_m - z) / (z + gamma - lambda_m) = 0,

    each with amplitude (N/gamma)^2 / sum_m c_m / (z + gamma - lambda_m)^2,
    so f_s(t) = sum_k amp_k exp(z_k t) over about N/2 roots per block.

    The blocks are one family in three numbers (sigma, phi, c).  Block
    s has lambda_m = i sigma cos(theta_m), sigma = sin(pi s/N), on the
    grid theta_m = phi + 2 pi m/N with phi = -pi s/N in the literal-S
    picture and phi = -pi s/N - pi/2 in the density picture
    (_block_rates).  So B_s = sigma A(c) with c = gamma/sigma and
    A(c) = i diag(cos theta) - c I + (c/N) 1 1^T, and with
    x = cosh(eta) = -i (zeta + c) for a root zeta of A the secular sum
    is a Chebyshev partial fraction in closed form (Mason & Handscomb,
    Chebyshev Polynomials, CRC 2003):

        (1/N) sum_m 1/(x - cos theta_m)
            = sinh(N eta) / (sinh(eta) (cosh(N eta) - cos(N phi))) = i/c.

    cos(N phi) is (-1)^s in the literal-S picture and (-1)^s cos(N pi/2)
    in the density picture: the same when 4 | N, where the two pictures
    have the same blocks, the other parity when N = 2 mod 4, and 0 at
    odd N.  About pole j, eta = i theta_j + d, this is one scalar
    equation per root with no cancellation,

        sinh(i theta_j + d) tanh(L d) = -i c,

    with L = N/2, or L = N in the density picture at odd N
    (_closed_form_roots solves them all).  The same identity gives each
    amplitude: as 1/S(x) = sinh(eta) tanh(L d) in eta, the sum of c_m /
    (zeta + c - i cos theta_m)^2 is N S'(x), so amp = N sinh(eta) / F'(d)
    for F(d) = sinh(i theta_j + d) tanh(L d) + i c.  The setup solves
    every root of the blocks s = 1..N/2 across a sweep's gammas so, with
    its amplitude and its block's trust verdict, at O(1) per root and
    O(N^2) per gamma (secular_mode_sums; a propagator built alone is its
    one-gamma case).  A block whose roots cannot be trusted is evaluated
    instead with expm of its merged form, and mode then reads "expm"
    rather than "eig"; at the same lead + lag split as the modes, it
    takes about 2 sqrt(T) expm on a grid of T times and one per other
    time.

    modes, if given, is config's mode sum, a ModeSum of one member: a
    member of the stack secular_mode_sums solved with other gammas.  It
    is not solved again.
    """

    def __init__(self, config: WalkConfig, model: str = "s-literal",
                 modes: ModeSum | None = None) -> None:
        if modes is None:
            modes = secular_mode_sums(config.n, [config.gamma], model)
        self._modes = modes
        self.mode = "expm" if modes.dense[0] else "eig"

    def distribution(self, t: float) -> np.ndarray:
        return self._modes.distributions(np.array([float(t)]))[0]

    def distributions(self, times: np.ndarray, eps: float | None = None,
                      uniform: bool = False) -> np.ndarray:
        """Distributions at many times, shape (len(times), n); with eps, the
        rows before the envelope's cut only (ModeSum.distributions)."""
        return self._modes.distributions(times, eps, uniform)


def secular_mode_sums(n: int, gammas, model: str = "s-literal") -> ModeSum:
    """The exact mode sums of the index-sum blocks at gammas, one member each, solved as one stack.

    The undamped rates of the blocks s = 1..N/2 and their grid angles do
    not depend on gamma (_block_rates) and are built once.
    _closed_form_roots solves every root of every block at every gamma,
    with its amplitude and its block's trust verdict, at most
    _CHUNK_ENTRIES / _CLOSED_FORM_TABLES roots at a time; each root's
    bits are its own, so a block gets the bits it would get alone.  A
    block at gamma = 0 is undamped: its roots are the poles i beta, with
    amplitudes counts.  A block whose roots are untrusted is kept in
    merged form for expm (ModeSum.dense), its table rows zero.  The
    members share one (gammas, S, K) rate and amplitude table.
    """
    _check_modesum_size(n)
    _check_model(model)
    gammas = np.asarray(gammas, dtype=float)
    sums = np.arange(1, n // 2 + 1)
    beta, counts, angles = _block_rates(n, sums, model)
    sigma, live = np.sin(np.pi * sums / n), counts > 0
    rates = np.empty((gammas.size, *beta.shape), dtype=complex)
    amps = np.empty_like(rates)
    trusted = np.empty(rates.shape[:2], dtype=bool)
    rows = max(1, _CHUNK_ENTRIES // (_CLOSED_FORM_TABLES * beta.shape[1]))  # (gamma, s) per solve
    width, depth = min(rows, sigma.size), max(1, rows // sigma.size)
    for g in range(0, gammas.size, depth):
        for s in range(0, sigma.size, width):
            part = np.s_[g:g + depth, s:s + width]
            rates[part], amps[part], trusted[part] = _closed_form_roots(
                n, model, angles[s:s + width], live[s:s + width], sigma[s:s + width],
                gammas[g:g + depth])
    undamped = gammas == 0
    rates[undamped], amps[undamped], trusted[undamped] = 1j * beta, counts, True
    rates[~trusted] = amps[~trusted] = 0.0
    dense: list[list] = [[] for _ in gammas]
    for g, s in zip(*np.nonzero(~trusted)):
        k = np.count_nonzero(counts[s])
        dense[g].append((s, _merged_block(beta[s, :k], counts[s, :k], gammas[g], n),
                         np.sqrt(counts[s, :k])))
    return ModeSum(n, rates, amps, dense)


def _block_rates(n: int, s, model: str):
    """Distinct undamped rates i*beta of index-sum block s, with multiplicities and grid angles.

    Mode (m, s-m) has rate (i/2)(sin 2 pi m/N + sin 2 pi (s-m)/N) in the
    literal-S picture and (i/2)(cos 2 pi (s-m)/N - cos 2 pi m/N) in the
    density picture, i sigma cos(theta_m) with sigma = sin(pi s/N) and
    theta_m = pi (2m - s)/N, less pi/2 in the density picture (see
    DiagonalPropagator).  The only coincidences are m <-> s-m in the
    literal picture, and m <-> s - N/2 - m in the density picture at even
    N: their angles are opposite.  An array of index sums gives (beta,
    counts, angles) tables, one row per entry holding its kept modes in
    order of m, padded with zeros to the longest row (a count is never
    zero otherwise); a single index sum gives its rows unpadded.  The
    angle is the integer q in [0, 2N] with |theta_m| = pi q/(2N) mod
    2 pi, which fixes sin and cos of the angle exactly.
    """
    sums = np.atleast_1d(s)[:, None]
    m = np.arange(n)
    if model == "s-literal":
        beta = 0.5 * (np.sin(2 * np.pi * m / n) + np.sin(2 * np.pi * (sums - m) / n))
        partner = (sums - m) % n
        angle = (4 * m - 2 * sums) % (4 * n)
    else:
        beta = 0.5 * (np.cos(2 * np.pi * (sums - m) / n) - np.cos(2 * np.pi * m / n))
        partner = (sums - n // 2 - m) % n if n % 2 == 0 else np.broadcast_to(m, beta.shape)
        angle = (4 * m - 2 * sums - n) % (4 * n)
    keep = m <= partner
    counts = np.where(keep, np.where(m == partner, 1.0, 2.0), 0.0)
    # The kept modes of each row first, in order of m.
    order = np.argsort(~keep, axis=1, kind="stable")[:, :keep.sum(axis=1).max()]
    rows = np.arange(keep.shape[0])[:, None]
    angle = np.minimum(angle, 4 * n - angle)  # cos is even: fold into [0, pi]
    tables = (np.where(keep, beta, 0.0)[rows, order], counts[rows, order],
              np.where(keep, angle, 0)[rows, order])
    return tables if np.ndim(s) else tuple(table[0] for table in tables)


def _merged_block(beta: np.ndarray, counts: np.ndarray, gamma, n: int) -> np.ndarray:
    """B_s on the merged modes: f_s(t) = r^T exp(t B) r with r = sqrt(counts).

    Stacks of rates (..., k) and of gammas (...) give stacks of blocks (..., k, k).
    """
    gamma = np.asarray(gamma, dtype=float)[..., None]  # against each block's modes
    root = np.sqrt(counts)
    block = ((gamma[..., None] / n) * (root[..., :, None] * root[..., None, :])).astype(complex)
    diagonal = np.arange(beta.shape[-1])
    block[..., diagonal, diagonal] += 1j * beta - gamma
    return block


def _closed_form_roots(n: int, model: str, angles: np.ndarray, live: np.ndarray,
                       sigma: np.ndarray, gammas: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every secular root of S index-sum blocks at gammas, with its amplitude, from its closed form.

    angles (S, K) are the blocks' grid angles of _block_rates, live
    (S, K) their kept modes and sigma (S,) sin(pi s/N).  In
    DiagonalPropagator's units (c = gamma/sigma, L its length) root j of
    block s is sigma (i cosh eta - c), with eta = i alpha + e solving

        F(e) = sinh(eta) T(L e) + i c = 0,

    one scalar equation per root, solved over all of them at once by
    _closed_form_newton.  The anchor alpha is the root's pole theta_j,
    with T = tanh, or, for a root that starts next to its midpoint
    theta_j + side pi/(2L) (large c, below), that midpoint, with T = coth:
    tanh(L e + i side pi/2) = coth(L e).  A root at large c sits at that
    pole of tanh, where a pole-anchored e would keep only about u c of
    its offset (e is O(1/(L c))); about the midpoint it keeps them all.
    The host of a block is its mode nearest theta = pi/2 (the upper one
    of a tie, for determinism: the grid is symmetric about pi/2 then);
    the others take their sides (+1 below it, -1 above).  As c grows,
    root j leaves its pole and moves towards its midpoint on the host's
    side, and the host's root becomes the slow root.  The starts follow
    that path, so that no two of them find the same root:

    * e = the root nearest 0 of (L cos theta) e^2 + (i L sin theta) e +
      i c, where |L e| < 1/2 (small c, the edges theta = 0, pi at the
      smallest; there e and -e are one root, and both lie on its path);
    * e = -sin a / (L c - i cos a) about the midpoint a, where
      c >= 3 sin theta (large c);
    * else L e = -artanh(w), or -artanh(1/w) + i side pi/2 for |w| > 1,
      with w = c/sin theta and then once more with w = c/(sin theta -
      i cos theta e), from tanh(L e) = -c/(sin theta - i cos theta e)
      to first order in e;
    * the host, past c = 1 or past the exceptional point c_EP of a pair
      of modes at pi/2 +- pi/(2L) (_exceptional_point), and a host at
      pi/2 itself at every c: eta = i pi/2 - u, with u = artanh(c)/L
      (c up to 0.99), cosh u = c at large c, and u >= u_EP.

    Since 1/S(x) = sinh(eta) T(L e) is an identity in eta, the amplitude
    of a root is N sinh(eta) / F'(e) (DiagonalPropagator), taken where
    the root lands after one Newton step past its convergence.  A block
    is trusted when

    * it is certified: every root leaves |F| under 1e-10 of its terms;
    * its roots and amplitudes are finite;
    * the amplitudes add up to f_s(0) = N within _SECULAR_RESIDUAL_TOL N
      and cancel by at most _CANCEL_TOL: sum |amp| <= _CANCEL_TOL N;
    * sum amp z^2 = f_s''(0) = 1^T B^2 1 = -sigma^2 N/2 (B 1 = i beta 1,
      and the grid's cos^2 average 1/2) within _SECULAR_RESIDUAL_TOL
      sum |amp| |z|^2, a check of the roots against the block itself
      that scales with their rounding.

    A block within a relative 1e-4 (N = 8) to 1e-6 (N = 256) of an
    exceptional point is not trusted: there the host's root meets
    another.  Over the default grid at n = 5..64 in both pictures 39 of
    51000 blocks were not trusted, and over n = 3..40, 64 and 128 with
    gamma / sin(pi/N) from 1e-6 to 1e12 16 of 36630, every one with c
    within 3% of 1, where the amplitudes cancel.  A root that strays
    onto another's path loses its own amplitude and doubles the other's,
    so the sums reject its block: checks that each root stays on its
    path and the host's root apart from the others moved no verdict
    over these blocks, nor over 74718 blocks within a relative 1e-2 to
    1e-12 of c_EP.

    The result is (rates (G, S, K), amps (G, S, K), trusted (G, S)),
    zero at the padding modes (not live).  A rate is written
    about its anchor, the pole or midpoint i sigma cos alpha - gamma plus
    sigma (i cos alpha 2 sinh^2(e/2) - sin alpha sinh e), or, for the
    slow root (the host nearer the origin than its pole), about the
    origin, sigma i (e^eta - (1 + tanh L e) sinh eta) where Re eta < 0
    (else its mirror form): neither loses digits to cancellation.  It
    holds about _CLOSED_FORM_TABLES tables of G S K entries.
    """
    turn = 2 * n  # angle units per pi
    length = n if model == "rho" and n % 2 else n / 2
    blocks = np.arange(angles.shape[0])
    host = np.zeros(angles.shape, dtype=bool)
    host[blocks, np.where(live, 2 * np.abs(angles - n) - (angles > n), 4 * n).argmin(axis=1)] = True
    side = np.sign(angles[host][:, None] - angles)
    s, j = np.nonzero(live)  # the roots, per gamma
    q, side_q, host_q = angles[s, j], side[s, j], host[s, j]
    sin_t = np.sin(np.pi * np.minimum(q, turn - q) / turn)
    cos_t = np.sin(np.pi * (n - q) / turn)
    mid = q + side_q * round(n / length)  # the midpoint, pi/(2L) to the host's side
    sin_m = np.sin(np.pi * np.minimum(mid, turn - mid) / turn)
    cos_m = np.sin(np.pi * (n - mid) / turn)
    rate = sigma[s]
    c = gammas[:, None] / rate
    with np.errstate(all="ignore"):
        def across(w: np.ndarray, side: np.ndarray) -> np.ndarray:
            """L e from tanh(L e) = -w: -artanh(w), or -artanh(1/w) + i side pi/2 for |w| > 1,
            the branch towards the side's midpoint (artanh(w) - artanh(1/w) = +-i pi/2)."""
            t = np.arctanh(w)
            return np.where(np.abs(w) > 1, (np.sign(t.imag) + side) * 0.5j * np.pi - t, -t)

        b = 1j * length * sin_t
        disc = np.sqrt(b * b - 4j * length * cos_t * c)
        disc = np.where((b.conj() * disc).real < 0, -disc, disc)
        small = -2j * c / (b + disc)
        near = np.abs(small) * length < 0.5
        large = ~near & (c >= 3 * sin_t)
        e = np.where(large, -sin_m / (length * c - 1j * cos_m), small)
        between = np.nonzero(~near & ~large)  # the roots that take the artanh start
        if between[0].size:
            side_b, c_b = side_q[between[1]], c[between]
            sin_b, cos_b = sin_t[between[1]], cos_t[between[1]]
            w = c_b / sin_b  # at w = 1 (c = sin theta) the double below 1 stands in
            y = across(np.where(w == 1, 1 - 2.0**-53, w) + 0j, side_b)
            refined = across(c_b / (sin_b - 1j * cos_b * y / length), side_b)
            e[between] = np.where(np.isfinite(refined), refined, y) / length
        u = np.maximum(np.arctanh(np.minimum(c, 0.99)) / length, np.arccosh(np.maximum(c, 1.0)))
        switch = np.ones_like(c)
        pair = host_q & (q != n)
        if n % 2 == 0 and (pair & (c >= 1)).any():
            c_ep, u_ep = _exceptional_point(length)
            u = np.where(pair, np.maximum(u, u_ep), u)
            switch = np.where(pair, c_ep, 1.0)
        slow_start = 0.5j * np.pi - u - 1j * np.pi * q / turn
        e = np.where(host_q & ~near & ((c >= switch) | (q == n)), slow_start, e)
        # No host is anchored at a midpoint: where c >= 3 sin theta >= 1.5 > c_EP
        # it takes the slow start.
        flip = large & ~host_q
        cos_a, sin_a = np.where(flip, cos_m, cos_t), np.where(flip, sin_m, sin_t)
        del b, disc, small, near, large, u, switch, slow_start  # not held through the steps
        e, converged = _closed_form_newton(e, cos_a, sin_a, flip, c, length)
        sinh_eta, _, slope = _closed_form_terms(e, cos_a, sin_a, flip, length)
        amp = n * sinh_eta / slope
        del sinh_eta, slope
        off = 1j * cos_a * 2 * _sinh_cosh(e / 2)[0] ** 2 - sin_a * _sinh_cosh(e)[0]
        z = (1j * rate * cos_a - gammas[:, None]) + rate * off
        slow = host_q & (np.abs(1j * cos_a - c + off) < np.abs(off))
        if slow.any():
            d = e[slow]
            sign = np.where(d.real < 0, 1.0, -1.0)
            eta = 1j * np.pi * np.broadcast_to(q, slow.shape)[slow] / turn + d
            rise = np.exp(2 * sign * length * d)
            z[slow] = np.broadcast_to(rate, slow.shape)[slow] * 1j * (
                np.exp(sign * eta) - sign * 2 * rise / (1 + rise) * np.sinh(eta))
        good = converged & np.isfinite(z) & np.isfinite(amp)
        del e, off, flip, cos_a, sin_a, converged
        shape = (gammas.size, *angles.shape)
        rates, amps = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
        certified = np.array(np.broadcast_to(~live, shape))
        rates[:, s, j], amps[:, s, j], certified[:, s, j] = z, amp, good
        del z, amp, good
        square = rates * rates
        moment = np.abs((amps * square).sum(axis=-1) + sigma**2 * (n / 2))
        square = np.abs(square)
        square *= np.abs(amps)
        trusted = (certified.all(axis=-1)
                   & (np.abs(amps.sum(axis=-1) - n) <= _SECULAR_RESIDUAL_TOL * n)
                   & (np.abs(amps).sum(axis=-1) <= _CANCEL_TOL * n)
                   & (moment <= _SECULAR_RESIDUAL_TOL * square.sum(axis=-1)))
    return rates, amps, trusted


def _closed_form_newton(e, cos_a, sin_a, flip, c, length):
    """Newton steps on _closed_form_roots' equation F(e) = 0 from the starts
    e: each root steps until |F| is under 1e-10 of its terms, at most
    _CLOSED_FORM_STEPS times, then takes one step more, and only the roots
    still stepping are evaluated, so each root's steps are its own.
    Returns the roots and whether each converged."""
    shape = e.shape
    e = e.ravel().copy()
    cos_a, sin_a, flip, c = (np.broadcast_to(x, shape).ravel() for x in (cos_a, sin_a, flip, c))
    converged = np.zeros(e.size, dtype=bool)
    live = np.arange(e.size)
    d, ca, sa, fl, cc = e, cos_a, sin_a, flip, c
    for step in range(_CLOSED_FORM_STEPS + 1):
        _, term, slope = _closed_form_terms(d, ca, sa, fl, length)
        value = term + 1j * cc
        done = np.abs(value) <= 1e-10 * (np.abs(term) + cc)
        converged[live[done]] = True
        d = d - value / slope
        e[live] = d
        if step == _CLOSED_FORM_STEPS or done.all():
            break
        keep = ~done
        live, d, ca, sa, fl, cc = live[keep], d[keep], ca[keep], sa[keep], fl[keep], cc[keep]
    return e.reshape(shape), converged.reshape(shape)


def _closed_form_terms(e, cos_a, sin_a, flip, length):
    """(sinh eta, sinh(eta) T(L e), F'(e)) at eta = i alpha + e for
    _closed_form_roots' equation, T = tanh, or coth where flip.

    With L e = a + i b, tanh(L e) = (tanh a + i k)/(cos^2 b + tanh^2 a
    sin^2 b) and coth(L e) = (tanh a - i k)/(tanh^2 a cos^2 b + sin^2 b),
    k = sin b cos b sech^2 a, and their derivatives are sech^2 a/p^2 and
    -sech^2 a/m^2, p = cos b + i tanh a sin b and m = tanh a cos b + i sin b
    (cosh and sinh of L e over cosh a).  Every denominator is a sum of
    squares, zero only at a pole of T, and sech^2 a underflows to 0 where
    cosh a overflows: neither T nor T' cancels or overflows, as 1 - T^2
    or cosh(L e) would.
    """
    sinh_e, cosh_e = _sinh_cosh(e)
    sinh_eta = cos_a * sinh_e + 1j * (sin_a * cosh_e)
    cosh_eta = cos_a * cosh_e + 1j * (sin_a * sinh_e)
    x = length * e
    tanh_a, sech2_a = np.tanh(x.real), 1.0 / np.cosh(x.real) ** 2
    sin_b, cos_b = np.sin(x.imag), np.cos(x.imag)
    k = sin_b * cos_b * sech2_a
    p, m = cos_b + 1j * (tanh_a * sin_b), tanh_a * cos_b + 1j * sin_b
    t = np.where(flip, (tanh_a - 1j * k) / (m.real**2 + sin_b**2),
                 (tanh_a + 1j * k) / (cos_b**2 + p.imag**2))
    dt = sech2_a / np.where(flip, -m * m, p * p)
    return sinh_eta, sinh_eta * t, cosh_eta * t + length * sinh_eta * dt


def _sinh_cosh(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sinh d and cosh d of complex d, from the real functions of its parts."""
    sinh_a, cosh_a, sin_b, cos_b = np.sinh(d.real), np.cosh(d.real), np.sin(d.imag), np.cos(d.imag)
    return sinh_a * cos_b + 1j * (cosh_a * sin_b), cosh_a * cos_b + 1j * (sinh_a * sin_b)


def _exceptional_point(length: float) -> tuple[float, float]:
    """(c_EP, u_EP): the minimum over u > 0 of cosh(u) coth(L u), and where it lies.

    At even N a block with no mode at theta = pi/2 has two at pi/2 +-
    pi/(2L).  Their roots are a complex pair below c_EP, meet on the
    real axis at eta = i pi/2 - u_EP when c = c_EP, and are two real
    roots, a fast one and the slow one, above it: there they solve
    cosh(u) coth(L u) = c.  c_EP tends to 1 as N grows (sqrt 2 at
    N = 4, 1.00782 at 64).  Bisection on the derivative, written in
    e^(-2 L u) so that it cannot overflow; it changes sign once in
    (0, 1) for every L >= 2.  Kept per L in _EXCEPTIONAL_POINTS.
    """
    if length in _EXCEPTIONAL_POINTS:
        return _EXCEPTIONAL_POINTS[length]

    def slope(u: float) -> float:
        e = math.exp(-2 * length * u)
        gap = -math.expm1(-2 * length * u)
        return math.sinh(u) * (1 + e) / gap - 4 * length * math.cosh(u) * e / gap**2

    lo, hi = 0.0, 1.0
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) < 0 else (lo, mid)
    u = 0.5 * (lo + hi)
    c = math.cosh(u) * (1 + math.exp(-2 * length * u)) / -math.expm1(-2 * length * u)
    _EXCEPTIONAL_POINTS[length] = c, u
    return c, u


_EXCEPTIONAL_POINTS: dict[float, tuple[float, float]] = {}
