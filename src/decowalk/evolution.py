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
  ModeSum).  Its setup solves the about N/2 blocks as at most two
  stacks of equal size, each stacked across the gammas of a sweep
  (secular_mode_sums), but still one O(N^3) eigenvalue problem per
  block, so it grows close to N^4 per gamma, not N^3.

Only the oracle builds the N^2 x N^2 generator (build_full_operator,
also the tests' reference), and it is guarded to n <= MAX_DENSE_N, as
are the RK4 mixing methods.  The block propagator never forms the
generator and is guarded to n <= MAX_MODESUM_N.  Its mode sum, ModeSum,
is the one evaluator behind every analytic distribution, combining its
blocks through one inverse real FFT per time: the perturbative route
(spectral) fills the same blocks with first-order rates, and the
strong-dephasing closed form (large_gamma) with one heat-kernel mode
each.  SciPy is imported only by the functions that call expm, so
importing the package, and the command line, does not load it.

For a linear autonomous system the classical RK4 update is exactly the
degree-4 Taylor polynomial of the step map,

    v  ->  (I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24) v,

and RK4 applies it in one of two ways.  Both generators commute with the
diagonal shift (j, k) -> (j+1, k+1), so a Fourier transform along the
diagonals splits G into N blocks of N x N.  The states are real
(literal-S) or Hermitian (density), so the blocks past N/2 mirror the
others (to_blocks) and only the half spectrum, N//2 + 1 blocks, is
built (generator_blocks, read off the right-hand sides in
O(N^3 log N)); so is the step polynomial (rk4_step_matrix on the
stack): O(N^4) to build or to square, 8 N^3 bytes each, and O(N^3) per
step of a state in block coordinates (to_blocks / from_blocks).
integrate uses them below STENCIL_MIN_N, and the RK4 mixing methods
always do.  Both read a chain of hops H^k y0 as lead x lag (_HopChain):
row 0 of (H^B)^a against H^b y0, at O(N^2) per sample plus
O(N^4 log B) and with no table of states, H being the stride power of
the step for integrate and the coarse-grid hop for the 2049-time grid
of mixing._SteppedDistributions.  Only integrate's keep_states takes
one batched product per sample.  From STENCIL_MIN_N up integrate holds
no N^3 table: stencil_step evaluates the same polynomial in Horner form
on the N x N state, with G(X) = L X - X L - gamma M o X (L the
circulant neighbour coupling, M the off-diagonal mask), at O(N^3) per
step.  Every working set is
refused above MAX_TABLE_BYTES before any work starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
# check_table_size; so are the RK4 step blocks, their levels, the lead
# and lag tables of their chains and the stencil working set.  A mode sum needs far less even at MAX_MODESUM_N
# (70 MiB, above).
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

    H is a stack of M = N//2 + 1 hop blocks (M, N, N) and y0 a block
    state (M, N) (to_blocks).  As in ModeSum, k splits as a B + b with
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
    applied to lag state b.

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
# Complex (G, k, k + 1) tables _block_modes holds at once, counted with
# room to spare (the merged blocks and pole distances, then the offsets,
# w and the terms of h, formed in place).  The setup stacks G blocks, of
# one gamma or of a slab of them, so that all of them fit in
# _CHUNK_ENTRIES entries: sized per table, G = 62
# blocks at n = 256 peaked at 96.5 MiB traced, against 16.4 MiB for
# G = 10, in the same setup time (about 3.2 s, eigvals-bound).
_SECULAR_TABLES = 6


def _expm_flows(times: np.ndarray, block: np.ndarray, root: np.ndarray) -> np.ndarray:
    """expm(t B) r at each t, shape (len(times), k), in batches of <= _CHUNK_ENTRIES entries."""
    import scipy.linalg

    k = block.shape[0]
    step = max(1, _CHUNK_ENTRIES // k**2)
    out = np.empty((times.size, k), dtype=complex)
    for lo in range(0, times.size, step):
        out[lo:lo + step] = scipy.linalg.expm(times[lo:lo + step, None, None] * block) @ root
    return out


def lead_lag(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split flat times as lead[a] + lag[b], time k in row k = a len(lag) + b.

    The grid np.linspace(0, t_end, T), T >= 3, splits as k = a B + b with
    B = ceil(sqrt(T)), lead = a B Delta and lag = b Delta, so a mode sum
    takes A + B exponentials per mode, not T, and accumulates no rounding
    along the grid.  Any other times are their own lead with lag = [0],
    where exp(0) = 1 and expm(0) = I exactly.
    """
    if times.size >= 3 and np.array_equal(times, np.linspace(0.0, times[-1], times.size)):
        inner, _ = _chain_split(times.size)
        return times[1] * np.arange(0, times.size, inner), times[1] * np.arange(inner)
    return times, np.zeros(1)


def envelope_margin(eps: float, reach: float, modes: int, n: int) -> float:
    """How far under eps a mode-sum envelope must fall before grid rows are left out.

    Rounding can lift a computed distance above the exact one and put a
    computed envelope below the exact one.  At an envelope of at most
    eps the two together stay, to first order, under u ((reach + modes
    + n) eps + n), u = 2^-53:

    * reach = max |z| t_end, for the exponent z t of each term, rounded
      as lead and lag apart;
    * modes + n, for the sums over the modes and blocks and over the n
      vertices;
    * n, for the inverse real FFT that forms P_j = 1/N + x, and back.

    The margin is 8 times that bound.
    """
    return 8.0 * 2.0**-53 * ((reach + modes + n) * eps + n)


def envelope_leads(lead: np.ndarray, lag: np.ndarray, eps: float, n: int,
                   rates: np.ndarray, weights: np.ndarray) -> int:
    """Lead rows of a lead x lag split on which the distance may still exceed eps.

    rates (M,), real or complex, all with Re z < 0, and weights (M,) >= 0
    give the envelope E(t) = sum_m weights_m exp(Re z_m t).  It bounds the
    distance sum_j |P_j - 1/N| of a mode sum and decreases in t, so once
    E(lead_a) <= eps - envelope_margin the computed distance stays at or
    under eps at lead_a and at every later time of the split.  E is
    evaluated once at the lead times, in chunks of at most _CHUNK_ENTRIES
    entries, and the result is the first lead row where it does so, or
    every row (lead.size) if none does or the leads do not ascend.
    """
    if lead.size == 0 or np.any(lead[1:] < lead[:-1]):
        return lead.size
    reach = float(np.abs(rates).max()) * (lead[-1] + lag[-1])
    level = eps - envelope_margin(eps, reach, rates.size, n)
    decay = rates.real
    envelope = np.empty(lead.size)
    step = max(1, _CHUNK_ENTRIES // rates.size)
    for lo in range(0, lead.size, step):
        envelope[lo:lo + step] = np.exp(lead[lo:lo + step, None] * decay) @ weights
    clear = np.flatnonzero(envelope <= level)
    return int(clear[0]) if clear.size else lead.size


class ModeSum:
    """Vertex distribution from vertex 0 as a sum over the index-sum blocks.

    P_j(t) = 1/N + Re sum_s c_s omega^(s j) f_s(t) for s = 1..S, S = N//2,
    with c_s = 2/N^2 (1/N^2 at s = N/2) folding in f_(N-s) = conj(f_s);
    the s = 0 block is the stationary uniform term.  Row s - 1 of the
    S x K tables rates and amps gives f_s(t) = sum_k amps_k exp(rates_k t),
    a block of fewer modes being padded with zero amplitudes.  dense holds
    the blocks evaluated instead as r^T expm(t B) r, as (row, B, r) with B
    complex symmetric; their table rows are zero.  The combine is the
    inverse real FFT: the half spectrum (1, f_1/N, ..., f_S/N) gives
    P_j = np.fft.irfft(..., N)_j exactly as the sum above, at O(N log N)
    per time.  Building a ModeSum costs at most a copy of its tables, so
    a caller may build one per call (large_gamma.closed_form_a).

    One kernel fills f at t = lead_a + lag_b, where exp(z t) =
    exp(z lead_a) exp(z lag_b): f over all (a, b) is one batched
    (S, A, K) @ (S, K, B) product of directly computed exponentials, and
    an expm block takes expm(lead_a B) r and expm(lag_b B) r (B symmetric,
    so the first is also r^T expm(lead_a B)), from A + B exponentials.
    The grid np.linspace(0, t_end, T), T >= 3, splits as k = a B + b with
    B = ceil(sqrt(T)) (lead_lag): O(S K sqrt(T)) exponentials, no
    rounding accumulated along the grid.  Any other times (bisection
    midpoints, a single time) take lead = times and lag = [0].  Every
    temporary, the half spectra included, holds at most _CHUNK_ENTRIES
    entries, split by lead rows and then by blocks.

    The distance sum_j |P_j - 1/N| is at most the envelope
    E(t) = n sum_s c_s sum_k |amp_sk| exp(Re z_sk t), since each
    |P_j - 1/N| is at most sum_s c_s |f_s(t)|.  When no block is dense,
    every rate and amplitude is finite and every mode of nonzero
    amplitude decays (Re z < 0), E decreases in t and
    distributions(times, eps) leaves out the grid rows from the first
    lead time with E <= eps - envelope_margin on (envelope_leads): their
    distance is known to be at or under eps.  Those rows cannot hold a
    non-finite value either, since each of their terms is a finite
    amplitude times an exponential of modulus at most 1.  A dense block
    or a mode that does not decay (gamma = 0) leaves no envelope, and
    every row is evaluated.
    """

    def __init__(self, n: int, rates: np.ndarray, amps: np.ndarray, dense=()) -> None:
        self.n = n
        # Real tables (the heat kernel's) stay real: real exponentials.
        dtype = np.result_type(rates, amps, float)
        self._rates, self._amps = np.asarray(rates, dtype), np.asarray(amps, dtype)
        self.dense = list(dense)

    @cached_property
    def _envelope(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The envelope's modes, (rates, weights n c_s |amp|) of nonzero
        weight, or None if it has none; built at the first call with eps."""
        n = self.n
        s = np.arange(1, self._rates.shape[0] + 1)[:, None]
        weights = n * (np.where(2 * s == n, 1.0, 2.0) / n**2) * np.abs(self._amps)
        live = weights > 0
        if (not self.dense and np.isfinite(self._rates).all() and np.isfinite(weights).all()
                and (self._rates.real[live] < 0).all()):
            return self._rates[live], weights[live]
        return None

    def distributions(self, times: np.ndarray, eps: float | None = None) -> np.ndarray:
        """Distributions at many times, shape (len(times), n); IntegrationError if not finite.

        With eps, the rows from the envelope's cut on (see the class
        docstring) are left out and the result holds the first rows only;
        those it holds are bitwise the rows of the whole table.
        """
        times = check_times(times).ravel()
        lead, lag = lead_lag(times)
        size = times.size
        if eps is not None and self._envelope is not None:
            keep = envelope_leads(lead, lag, eps, self.n, *self._envelope)
            lead, size = lead[:keep], min(size, keep * lag.size)
        out = np.empty((size, self.n))
        with np.errstate(over="ignore", invalid="ignore"):  # the check below names the time
            for lo, spectrum in self._sums(lead, lag, size):
                blocks = spectrum[:, 1:].view(float)  # f_s / N, on the real view
                blocks *= 1.0 / self.n
                np.fft.irfft(spectrum, n=self.n, axis=-1, out=out[lo:lo + spectrum.shape[0]])
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            raise IntegrationError(f"mode sum is not finite at t={times[np.argmin(finite)]:g}")
        return out

    def _sums(self, lead: np.ndarray, lag: np.ndarray, size: int):
        """(offset, spectrum) per chunk, spectrum of shape (chunk, S + 1):
        1 in column 0 and f_s at lead[a] + lag[b] in column s of row
        a len(lag) + b, for the first size rows."""
        count, width = self._rates.shape
        inner = lag.size
        rows = max(1, _CHUNK_ENTRIES // (max(width, count + 1) * inner))  # a per chunk
        for a0 in range(0, lead.size, rows):
            heads = lead[a0:a0 + rows]
            lo = a0 * inner
            valid = min(size - lo, heads.size * inner)
            spectrum = np.empty((valid, count + 1), dtype=complex)
            spectrum[:, 0] = 1.0
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
                spectrum[:, 1 + first:1 + first + group] = grid[:, :valid].T
            for row, block, root in self.dense:
                head = _expm_flows(heads, block, root)  # rows r^T expm(lead B)
                tail = _expm_flows(lag, block, root)
                spectrum[:, 1 + row] = (head @ tail.T).ravel()[:valid]
            yield lo, spectrum


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
    The merged blocks come in at most two sizes, split by the parity of
    s, and the setup solves each size class as a stack across a sweep's
    gammas (secular_mode_sums; a propagator built alone is its one-gamma
    case), in groups whose temporaries together hold at most
    _CHUNK_ENTRIES entries: O(N^3) per block and close to O(N^4) per
    gamma (measured 0.02 / 2.9 s at n = 64 / 256, gamma = 3).  A block
    whose roots cannot be trusted is evaluated instead with expm of its
    merged form, and mode then reads "expm" rather than "eig"; at the
    same lead + lag split as the modes, it takes about 2 sqrt(T) expm on
    a grid of T times and one per other time.

    modes, if given, is config's mode sum as secular_mode_sums solved it
    in a stack with other gammas; it is not solved again.
    """

    def __init__(self, config: WalkConfig, model: str = "s-literal",
                 modes: ModeSum | None = None) -> None:
        if modes is None:
            modes = secular_mode_sums(config.n, [config.gamma], model)[0]
        self.config = config
        self._modes = modes
        self.mode = "expm" if modes.dense else "eig"

    def distribution(self, t: float) -> np.ndarray:
        return self._modes.distributions(np.array([float(t)]))[0]

    def distributions(self, times: np.ndarray, eps: float | None = None) -> np.ndarray:
        """Distributions at many times, shape (len(times), n); with eps, the
        rows before the envelope's cut only (ModeSum.distributions)."""
        return self._modes.distributions(times, eps)


def secular_mode_sums(n: int, gammas, model: str = "s-literal") -> list[ModeSum]:
    """The exact mode sum of the index-sum blocks at each of gammas, solved as one stack.

    The undamped rates of the blocks s = 1..N/2 and their size classes
    do not depend on gamma (_size_classes) and are built once.  Each
    class is stacked across all gammas, block s of gamma g in one row,
    and solved by _block_modes in groups of at most _secular_group rows,
    so each block gets the bits it would get alone.  A block whose
    roots are untrusted is kept in merged form for expm
    (ModeSum.dense).  The mode sums share one (gammas, S, K) rate and
    amplitude table; secular_slab sizes a sweep's stacks.
    """
    _check_modesum_size(n)
    _check_model(model)
    gammas = np.asarray(gammas, dtype=float)
    beta, counts, classes = _size_classes(n, model)
    rates = np.zeros((gammas.size, *beta.shape), dtype=complex)
    amps = np.zeros_like(rates)
    dense: list[list] = [[] for _ in gammas]
    for size, rows in classes.items():
        which = np.repeat(np.arange(gammas.size), rows.size)  # the gamma of each stacked block
        blocks = np.tile(rows, gammas.size)
        step = _secular_group(size)
        for lo in range(0, blocks.size, step):
            g, s = which[lo:lo + step], blocks[lo:lo + step]
            b, c = beta[s, :size], counts[s, :size]
            z, amp, trusted = _block_modes(b, c, gammas[g], n)
            rates[g[trusted], s[trusted], :size] = z[trusted]
            amps[g[trusted], s[trusted], :size] = amp[trusted]
            for i in np.flatnonzero(~trusted):
                dense[g[i]].append((s[i], _merged_block(b[i], c[i], gammas[g[i]], n),
                                    np.sqrt(c[i])))
    return [ModeSum(n, r, a, d) for r, a, d in zip(rates, amps, dense)]


def secular_slab(n: int, model: str = "s-literal") -> int:
    """How many gammas secular_mode_sums stacks into one group per size class.

    As many as keep every class's stack across them within one group of
    _block_modes, _SECULAR_TABLES G k (k + 1) <= _CHUNK_ENTRIES, and at
    least one: all 25 of the default grid up to n = 46, 9 at n = 64 and
    one from n = 112 up, where a class about fills a group alone.
    """
    _, _, classes = _size_classes(n, model)
    return max(1, min(_secular_group(size) // rows.size for size, rows in classes.items()))


def _secular_group(size: int) -> int:
    """Blocks of size k that _block_modes takes at once, the largest G with
    _SECULAR_TABLES G k (k + 1) <= _CHUNK_ENTRIES (at least one)."""
    return max(1, _CHUNK_ENTRIES // (_SECULAR_TABLES * size * (size + 1)))


def _size_classes(n: int, model: str):
    """(beta, counts, {size: rows}): _block_rates of s = 1..N/2 and the rows
    (s - 1) of each merged size, in increasing size."""
    beta, counts = _block_rates(n, np.arange(1, n // 2 + 1), model)
    sizes = np.count_nonzero(counts, axis=1)
    return beta, counts, {int(size): np.flatnonzero(sizes == size) for size in np.unique(sizes)}


def _block_rates(n: int, s, model: str):
    """Distinct undamped rates i*beta of index-sum block s, with multiplicities.

    Mode (m, s-m) has rate (i/2)(sin 2 pi m/N + sin 2 pi (s-m)/N) in the
    literal-S picture and (i/2)(cos 2 pi (s-m)/N - cos 2 pi m/N) in the
    density picture.  Writing either as i sin(pi s/N) g(pi (2m - s)/N)
    shows the only coincidences: m <-> s-m in the literal picture
    (g = cos), and m <-> s - N/2 - m in the density picture at even N
    (g = sin).  An array of index sums gives (beta, counts) tables, one
    row per entry in order of m, padded with zeros to the longest row
    (a count is never zero otherwise); a single index sum gives its row
    unpadded.
    """
    sums = np.atleast_1d(s)[:, None]
    m = np.arange(n)
    if model == "s-literal":
        beta = 0.5 * (np.sin(2 * np.pi * m / n) + np.sin(2 * np.pi * (sums - m) / n))
        partner = (sums - m) % n
    else:
        beta = 0.5 * (np.cos(2 * np.pi * (sums - m) / n) - np.cos(2 * np.pi * m / n))
        partner = (sums - n // 2 - m) % n if n % 2 == 0 else np.broadcast_to(m, beta.shape)
    keep = m <= partner
    counts = np.where(keep, np.where(m == partner, 1.0, 2.0), 0.0)
    # The kept modes of each row first, in order of m.
    order = np.argsort(~keep, axis=1, kind="stable")[:, :keep.sum(axis=1).max()]
    rows = np.arange(keep.shape[0])[:, None]
    beta, counts = np.where(keep, beta, 0.0)[rows, order], counts[rows, order]
    return (beta, counts) if np.ndim(s) else (beta[0], counts[0])


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


def _block_modes(
    beta: np.ndarray, counts: np.ndarray, gamma, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Secular roots and amplitudes of a stack of merged blocks of one size.

    beta and counts are (G, k), gamma (G,), the rate of each block, or
    one rate for all.  The result is (roots (G, k), amplitudes (G, k),
    trusted (G,)), roots and amplitudes holding only where trusted.
    Every step acts on the whole stack: one stacked eigvals gives the
    guesses, which take _NEWTON_STEPS Newton steps on h, and each block
    is decided on its own, in the bits it would get alone.  Each root is
    held as anchor + delta, the anchor being the origin or the nearest
    pole i*beta_k - gamma.  offset[i, m] = anchor_i - pole_m is exact for
    both kinds of anchor, so z + gamma - lambda_m = delta + offset and
    lambda_m - z = (gamma - offset) - delta lose no digits to
    cancellation: neither the slow root near 0 at large gamma (fixed
    only to eps*gamma by the eigenvalue solver) nor the roots within
    O(gamma) of a pole at small gamma.  A block's roots are trusted when
    finite, when each leaves a residual under _SECULAR_RESIDUAL_TOL, and
    when the amplitudes add up to f_s(0) = N and cancel by at most
    _CANCEL_TOL.  A defective block (at an exceptional point) fails
    these, and so does gamma below about 1e-13, where the eigenvalues
    cannot resolve the O(gamma) offsets.  A block at gamma = 0 is
    undamped: its roots are the poles i*beta, with amplitudes counts.
    It holds up to _SECULAR_TABLES tables of G k (k + 1) entries at
    once; the caller sizes G.
    """
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), beta.shape[:1])
    if not gamma.all():
        z, amp = 1j * beta, counts.astype(complex)
        trusted = np.ones(gamma.shape, dtype=bool)
        live = gamma != 0
        if live.any():
            z[live], amp[live], trusted[live] = _block_modes(beta[live], counts[live],
                                                             gamma[live], n)
        return z, amp, trusted
    rate = gamma[:, None]  # each block's gamma, against its modes
    poles = 1j * beta - rate
    guess = np.linalg.eigvals(_merged_block(beta, counts, gamma, n))
    targets = np.concatenate((np.zeros((beta.shape[0], 1), dtype=complex), poles), axis=-1)
    nearest = np.abs(guess[..., :, None] - targets[..., None, :]).argmin(axis=-1)
    at_origin = nearest == 0
    pole = np.maximum(nearest - 1, 0)
    anchor = np.where(at_origin, 0.0, np.take_along_axis(poles, pole, axis=-1))
    anchor_beta = np.where(at_origin, 0.0, np.take_along_axis(beta, pole, axis=-1))
    offset = 1j * (anchor_beta[..., None] - beta[..., None, :])
    offset += np.where(at_origin, rate, 0.0)[..., None]
    counts = counts[..., None, :]
    # The only (G, k, k) tables held through the Newton steps: offset, w
    # and the terms, each formed in place (the same operations, so the
    # same bits, as forming them afresh).
    w, terms = np.empty_like(offset), np.empty_like(offset)

    def secular_terms(delta: np.ndarray) -> None:
        """w = z + gamma - lambda_m and terms = c_m (lambda_m - z) / w."""
        np.add(delta[..., None], offset, out=w)
        np.subtract(rate[..., None], offset, out=terms)  # lambda_m - anchor_i
        np.subtract(terms, delta[..., None], out=terms)
        np.multiply(terms, counts, out=terms)
        np.divide(terms, w, out=terms)

    delta = guess - anchor
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            secular_terms(delta)
            h = terms.sum(axis=-1)
            np.square(w, out=terms)
            np.divide(counts, terms, out=terms)
            slope = -rate * terms.sum(axis=-1)
            delta = delta - h / slope
        secular_terms(delta)
        residual = np.abs(terms.sum(axis=-1)) / np.abs(terms).sum(axis=-1)
        w *= n  # then gamma / (n w), squared, times c_m
        np.divide(rate[..., None], w, out=w)
        np.square(w, out=w)
        w *= counts
        amp = 1.0 / w.sum(axis=-1)
        z = anchor + delta
        trusted = (
            np.isfinite(z).all(axis=-1)
            & np.isfinite(amp).all(axis=-1)
            & (residual.max(axis=-1) <= _SECULAR_RESIDUAL_TOL)
            & (np.abs(amp.sum(axis=-1) - n) <= _SECULAR_RESIDUAL_TOL * n)
            & (np.abs(amp).sum(axis=-1) <= _CANCEL_TOL * n)
        )
    return z, amp, trusted
