"""Fields on the cylinder [0, eps] x S^1 and the APS boundary value problem.

A cylinder field is modal in theta and nodal in t: values[j] holds the full
mode vector {u_n(t_j)} at t_j = j * T / M_t.  The operator under study is
D = d/dt + L with L = J d/dtheta, which acts per mode as u_n' + lambda_n u_n
with lambda_n = -n.

Mixed APS boundary data prescribes the nonnegative spectral part of L at
t = 0 and the negative part at t = eps, through the boundary operator
beta = -Pi^+_L r_0(u) + Pi^-_L r_eps(u).  With that sign convention D has
the explicit right inverse Q (boundary data, per-mode exponentials) + P
(interior forcing, per-mode Duhamel integrals):

* Q on a lambda >= 0 mode produces -e^{-lambda t} beta (the minus sign
  cancels the one in the boundary operator; the lambda = 0 mode takes this
  branch so that the right-inverse identity holds there too);
* Q on a lambda < 0 mode produces e^{-(t-eps) lambda} beta;
* P integrates forward from 0 on lambda >= 0 modes and backward from eps on
  lambda < 0 modes, each time against the decaying exponential kernel.

Duhamel integrals use exponentially weighted quadrature that is exact for
piecewise-linear forcing, so accuracy is uniform in lambda * eps.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .coverage import tracked
from .hamiltonian import HamiltonianModel, grad_h_modes
from .loops import (
    Loop,
    aps_project,
    lambda_of_modes,
    mode_numbers,
    sobolev_norm,
    sobolev_weights,
    theta_values,
)

# -- stable phi functions -------------------------------------------------------


def phi1(w: np.ndarray) -> np.ndarray:
    """(e^w - 1)/w with the w -> 0 limit."""
    w = np.asarray(w, dtype=float)
    out = np.ones_like(w)
    nz = w != 0
    out[nz] = np.expm1(w[nz]) / w[nz]
    return out


def phi2(w: np.ndarray) -> np.ndarray:
    """(e^w - 1 - w)/w^2 with a series branch against cancellation."""
    w = np.asarray(w, dtype=float)
    out = np.full_like(w, 0.5)
    small = np.abs(w) < 1e-4
    ws = w[small]
    out[small] = 0.5 + ws / 6.0 + ws**2 / 24.0 + ws**3 / 120.0
    big = ~small
    wb = w[big]
    out[big] = (np.expm1(wb) - wb) / wb**2
    return out


# -- domain types ----------------------------------------------------------------


@dataclass(frozen=True)
class CylinderMap:
    """Mode-in-theta, node-in-t field on [0, T] x S^1.

    values has shape (M_t + 1, 2N + 1, d); row j is the mode vector at
    t_j = j T / M_t, so restriction to a node is a well-formed Loop.
    """

    d: int
    N: int
    T: float
    M_t: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("cylinder length T must be positive")
        if self.M_t < 8:
            raise ValueError("need at least M_t >= 8 time intervals")
        v = np.array(self.values, dtype=complex)
        expected = (self.M_t + 1, 2 * self.N + 1, self.d)
        if v.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {v.shape}")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("cylinder values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @staticmethod
    def zero(d: int, N: int, T: float, M_t: int) -> "CylinderMap":
        return CylinderMap(d, N, T, M_t, np.zeros((M_t + 1, 2 * N + 1, d), complex))

    @staticmethod
    def constant(loop: Loop, T: float, M_t: int) -> "CylinderMap":
        vals = np.broadcast_to(loop.coeffs, (M_t + 1,) + loop.coeffs.shape)
        return CylinderMap(loop.d, loop.N, T, M_t, vals.copy())

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M_t + 1)

    @property
    def dt(self) -> float:
        return self.T / self.M_t

    def restrict(self, j: int) -> Loop:
        return Loop(self.d, self.N, self.values[j])

    def rest_0(self) -> Loop:
        return self.restrict(0)

    def rest_end(self) -> Loop:
        return self.restrict(self.M_t)

    def __add__(self, other: "CylinderMap") -> "CylinderMap":
        if (self.d, self.N, self.M_t) != (other.d, other.N, other.M_t) or not np.isclose(
            self.T, other.T
        ):
            raise ValueError("cylinder shape mismatch")
        return CylinderMap(self.d, self.N, self.T, self.M_t, self.values + other.values)

    def __sub__(self, other: "CylinderMap") -> "CylinderMap":
        return self + (-1.0) * other

    def __mul__(self, a: complex) -> "CylinderMap":
        return CylinderMap(self.d, self.N, self.T, self.M_t, self.values * a)

    __rmul__ = __mul__


@dataclass(frozen=True)
class BoundaryData:
    """Mixed APS data beta = beta^+_0 + beta^-_eps, split by the spectrum of L.

    plus0 lives on the lambda >= 0 sector (modes n <= 0) and is prescribed at
    t = 0; minus_end lives on lambda < 0 (modes n > 0), prescribed at t = eps.
    """

    plus0: Loop
    minus_end: Loop

    def __post_init__(self):
        self.plus0._check(self.minus_end)
        if np.any(aps_project(self.plus0, "minus").coeffs != 0):
            raise ValueError("plus0 must be supported on modes n <= 0")
        if np.any(aps_project(self.minus_end, "plus").coeffs != 0):
            raise ValueError("minus_end must be supported on modes n > 0")

    @property
    def d(self) -> int:
        return self.plus0.d

    @property
    def N(self) -> int:
        return self.plus0.N

    @staticmethod
    def zero(d: int, N: int) -> "BoundaryData":
        return BoundaryData(Loop.zero(d, N), Loop.zero(d, N))

    def norm(self) -> float:
        """Combined L^2_{1/2} norm of the two spectral pieces."""
        return float(
            np.sqrt(
                sobolev_norm(self.plus0, 0.5) ** 2 + sobolev_norm(self.minus_end, 0.5) ** 2
            )
        )

    def __add__(self, other: "BoundaryData") -> "BoundaryData":
        return BoundaryData(self.plus0 + other.plus0, self.minus_end + other.minus_end)

    def __sub__(self, other: "BoundaryData") -> "BoundaryData":
        return BoundaryData(self.plus0 - other.plus0, self.minus_end - other.minus_end)

    def __mul__(self, a: complex) -> "BoundaryData":
        return BoundaryData(a * self.plus0, a * self.minus_end)

    __rmul__ = __mul__


def decompose(b: Loop) -> BoundaryData:
    """Split a loop into mixed boundary data whose collar solution traces b.

    The plus slot carries -Pi^+_L b: the boundary operator negates the t = 0
    trace, so this choice makes the solution restrict to Pi^+_L b at t = 0
    (and to Pi^-_L b at t = eps), i.e. short collars limit onto b itself.
    """
    return BoundaryData(
        plus0=-1.0 * aps_project(b, "plus"), minus_end=aps_project(b, "minus")
    )


def combine(bd: BoundaryData) -> Loop:
    """Inverse of decompose: b = -plus0 + minus_end."""
    return -1.0 * bd.plus0 + bd.minus_end


# -- shared finite-difference / quadrature helpers -------------------------------

# Bytes of one time block.  The aps kernels and norms stream their fields
# through blocks of whole time rows that fit in a core's L2 cache, and work in
# per-block scratch buffers: fresh block-sized temporaries cost more in page
# faults than the arithmetic on them
BLOCK_BYTES = 1 << 20


def block_rows(n_rows: int, row_nbytes: int) -> int:
    """Rows per time block: the whole rows that fit in BLOCK_BYTES, at least one
    and at most n_rows."""
    return max(1, min(n_rows, BLOCK_BYTES // max(1, row_nbytes)))


def time_blocks(n_rows: int, rows: int):
    """(start, stop) of consecutive blocks of `rows` rows covering range(n_rows)."""
    for start in range(0, n_rows, rows):
        yield start, min(start + rows, n_rows)


# Bytes of all column blocks in flight.  The aps sweeps build their batch
# fields (M+1, modes, batch) one block of whole batch columns at a time, so
# that no field of the whole batch is ever alive; the blocks that run at the
# same time share this budget (see map_columns)
COLUMN_BYTES = 1 << 23

# Elements of a time row, per thread in flight.  The sweeps step through
# time one row at a time, and the Python work of every row holds the GIL,
# so k column blocks run at once only with rows of k * SHARED_ROW elements
# each (see map_columns); narrower ones on more threads mostly take turns.
# A sector sweep covers about half the modes, so the rows of two threads
# hold 512 elements or more a sector: numpy releases the GIL on ufunc loops
# over more than 500 elements
SHARED_ROW = 512


def workers() -> int:
    """Threads for the column sweeps: one per CPU this process may run on."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        n = os.cpu_count() or 1
    return max(1, n)


def map_columns(fn, n_cols: int, col_nbytes: int, col_len: int) -> list:
    """fn(cols) for consecutive column blocks cols of range(n_cols), in block order.

    A column has col_len modes and takes col_nbytes; 0 marks a sweep whose
    memory does not grow with its block.  k blocks run at once, on threads:
    the most, up to workers(), for which the budget's k-th part keeps two
    columns and rows of k * SHARED_ROW elements.  They share COLUMN_BYTES,
    each at most its worker's share unless those rows need more.  The blocks
    are near-equal and as few as keep them that narrow, but hold two columns
    or more, and rows that wide when k > 1: numpy sums the modes of a
    one-column batch pairwise, not in sequence.  Each column's arithmetic
    then does not depend on the others, so the results do not depend on the
    plan.  The first exception of fn, in block order, reaches the caller
    once no block runs any more; the blocks not started by then are
    dropped.  With one thread it is a plain loop in the calling thread.
    """
    n = workers()
    budget = min(n_cols, COLUMN_BYTES // col_nbytes) if col_nbytes else n_cols
    share = COLUMN_BYTES // n // col_nbytes if col_nbytes else n_cols
    k = n
    while k > 1 and (budget // k < 2 or budget // k * col_len < k * SHARED_ROW):
        k -= 1
    wide = -(-k * SHARED_ROW // col_len)  # columns of a row of k * SHARED_ROW elements
    cols = max(1, min(-(-budget // k), max(share, wide)))
    least = max(2, wide) if k > 1 else 2
    n_blocks = max(1, min(-(-n_cols // cols), n_cols // least))
    bounds = [n_cols * i // n_blocks for i in range(n_blocks + 1)]
    blocks = [slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]
    k = min(k, n_blocks)
    if k == 1:
        return [fn(block) for block in blocks]
    # imported here: the CLI's other commands never load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(k, thread_name_prefix="looplab-columns") as pool:
        futures = [pool.submit(fn, block) for block in blocks]
        try:
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def column_maxima(n_cols: int, col_shape: tuple[int, int], ratios) -> list[float]:
    """Largest value over all batch columns of each per-column ratio.

    ratios(cols) returns the ratios of the batch columns in the slice cols,
    whose fields hold complex (nodes, modes) = col_shape a column; it runs
    once per column block, on the column workers, and each ratio is then
    reduced over all columns at once.
    """
    nodes, modes = col_shape
    col_nbytes = nodes * modes * np.dtype(complex).itemsize
    parts = map_columns(ratios, n_cols, col_nbytes, modes)
    return [float(np.max(np.concatenate(per_block))) for per_block in zip(*parts)]


def _over_2h(x: np.ndarray, h: float) -> None:
    """x /= 2h in place.

    numpy divides a complex a + bi by the real 2h as (a + b*0) * (1/(2h))
    and (b - a*0) * (1/(2h)), with 1/(2h) formed in x's precision, so a
    complex x is scaled through its float view by that factor: the same
    values at a real multiply's cost, with only the sign of a zero part free
    to differ.
    """
    if x.dtype.kind == "c":
        real = x.real.dtype.type
        x = x.view(real)
        np.multiply(x, real(1.0) / real(2.0 * h), out=x)
    else:
        np.divide(x, 2.0 * h, out=x)


def dt_derivative_rows(
    values: np.ndarray, h: float, start: int, stop: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Rows start:stop of dt_derivative(values, h), read with a one-row halo."""
    n = len(values)
    if out is None:
        out = np.empty((stop - start,) + values.shape[1:], values.dtype)
    lo, hi = max(start, 1), min(stop, n - 1)
    if lo < hi:
        inner = out[lo - start : hi - start]
        np.subtract(values[lo + 1 : hi + 1], values[lo - 1 : hi - 1], out=inner)
        _over_2h(inner, h)
    if start == 0:
        out[0] = -3.0 * values[0] + 4.0 * values[1] - values[2]
        _over_2h(out[:1], h)
    if stop == n:
        out[-1] = 3.0 * values[-1] - 4.0 * values[-2] + values[-3]
        _over_2h(out[-1:], h)
    return out


def dt_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order time derivative at nodes: centered inside, one-sided at ends."""
    return dt_derivative_rows(values, h, 0, len(values))


def time_trapezoid(node_values: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid rule along axis 0."""
    return h * (np.sum(node_values, axis=0) - 0.5 * (node_values[0] + node_values[-1]))


# -- L^2 and L^2_1 norms of node values ------------------------------------------

# The norms walk node values (M+1, modes, batch...) in time blocks, building the
# node density (M+1, batch...) in block-sized scratch buffers; one trapezoid
# rule then integrates it.  One field (M+1, 2N+1, d) is one batch column.


def _abs_sq(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|z|^2 into out, computed as np.abs(z) ** 2 computes it."""
    np.abs(z, out=out)
    return np.square(out, out=out)


def mode_scratch(rows: int, row_shape) -> np.ndarray:
    """Float scratch (rows,) + row_shape for the per-mode terms of a mode sum over axis 1.

    For a batch of two or more columns the buffer is mode-major in memory:
    numpy then adds the modes of each node in sequence, as it does on the
    contiguous layout, but with one long inner loop over rows and columns.  A
    one-column batch keeps the contiguous layout, on which numpy sums the
    modes pairwise instead.
    """
    modes, batch = row_shape[0], tuple(row_shape[1:])
    if math.prod(batch) < 2:
        return np.empty((rows, modes) + batch)
    return np.empty((modes, rows) + batch).swapaxes(0, 1)


def l2_rows(block: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """L^2 density sum_n |u_n|^2 of a block of rows into out, via a float scratch buffer."""
    return np.sum(_abs_sq(block, scratch[: len(block)]), axis=1, out=out)


def add_l2_rows(block: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add the L^2 density sum_n |u_n|^2 of a block of rows to out.

    The sum runs in mode order and starts from out, so for a batch of two or
    more columns a density built up sector by sector has the bits of one sum
    over all modes.  scratch comes from mode_scratch with one leading slot,
    for out, ahead of the block's modes.
    """
    x = scratch[: len(block)]
    x[:, 0] = out
    _abs_sq(block, x[:, 1:])
    return np.sum(x, axis=1, out=out)


def l2_batch(values: np.ndarray, h: float) -> np.ndarray:
    """L^2 norm over [0, T] x S^1 of every batch column of values."""
    rows = block_rows(len(values), values[0].nbytes)
    sq = mode_scratch(rows, values.shape[1:])
    density = np.empty((len(values),) + values.shape[2:])
    for start, stop in time_blocks(len(values), rows):
        l2_rows(values[start:stop], sq, density[start:stop])
    return np.sqrt(time_trapezoid(density, h))


def l21_density(values: np.ndarray, h: float, weight: np.ndarray) -> np.ndarray:
    """Node density sum_n w_n |u_n|^2 + |d_t u_n|^2 of every batch column of values."""
    weight = weight.reshape((-1,) + (1,) * (values.ndim - 2))
    rows = block_rows(len(values), values[0].nbytes)
    du = np.empty((rows,) + values.shape[1:], values.dtype)
    sq, du_sq = mode_scratch(rows, values.shape[1:]), np.empty(du.shape)
    density = np.empty((len(values),) + values.shape[2:])
    for start, stop in time_blocks(len(values), rows):
        m = stop - start
        x = np.multiply(weight, _abs_sq(values[start:stop], sq[:m]), out=sq[:m])
        x += _abs_sq(dt_derivative_rows(values, h, start, stop, out=du[:m]), du_sq[:m])
        np.sum(x, axis=1, out=density[start:stop])
    return density


def l21_batch(values: np.ndarray, h: float, weight: np.ndarray) -> np.ndarray:
    """Weighted L^2_1 norm of every batch column of values; weight has one entry per mode."""
    return np.sqrt(time_trapezoid(l21_density(values, h, weight), h))


def l2_norm(values: np.ndarray, h: float) -> float:
    """L^2 norm of one field (M+1, 2N+1, d), its modes x coordinates as one column."""
    return float(l2_batch(values.reshape(len(values), -1, 1), h)[0])


def l4_batch(values: np.ndarray, h: float, N: int) -> np.ndarray:
    """L^4 norm over [0, T] x S^1 of every batch column of values, one time block at a time."""
    rows = block_rows(len(values), values[0].nbytes)
    quartic = np.empty((len(values), values.shape[2]))
    for start, stop in time_blocks(len(values), rows):
        # reorder to (rows, batch, modes, 1) so the theta axis lands second-to-last
        sampled = theta_values(np.swapaxes(values[start:stop], 1, 2)[..., None], N)[..., 0]
        quartic[start:stop] = np.mean(np.abs(sampled) ** 4, axis=-1)
    return time_trapezoid(quartic, h) ** 0.25


# -- low-level kernels (arrays in, arrays out; trailing axes broadcast) ----------


def _sector_split(lam: np.ndarray) -> int:
    """Number of leading lambda >= 0 modes; the lambda < 0 modes must follow."""
    n_fwd = int(np.count_nonzero(lam >= 0))
    if not (np.all(lam[:n_fwd] >= 0) and np.all(lam[n_fwd:] < 0)):
        raise ValueError("lam must list the lambda >= 0 sector first, as lambda_of_modes does")
    return n_fwd


def kernel_q_values(
    plus_coeffs: np.ndarray,
    minus_coeffs: np.ndarray,
    lam: np.ndarray,
    times: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Node values of Q applied to spectral data blocks of shape (modes, ...).

    Each sector multiplies only its own coefficients by its exponential; the
    other sector's coefficients enter through their product with a zero factor,
    which is the same at every node and fixes the sign of zero outputs.
    """
    n_fwd = _sector_split(lam)
    fwd, bwd = slice(None, n_fwd), slice(n_fwd, None)
    tt = times[:, None]
    trailing = np.broadcast_shapes(plus_coeffs.shape, minus_coeffs.shape)
    out = np.empty(
        (len(times),) + trailing, np.result_type(plus_coeffs, minus_coeffs, float)
    )
    expand = (slice(None), slice(None)) + (None,) * (len(trailing) - 1)
    # the exponents are <= 0 for times in [0, eps]; outside it the clip caps them at 0
    plus_factor = -np.exp(np.minimum(-lam[None, fwd] * tt, 0.0))
    minus_factor = np.exp(np.minimum((eps - tt) * lam[None, bwd], 0.0))
    out_f, out_b = out[:, fwd], out[:, bwd]
    np.multiply(plus_factor[expand], plus_coeffs[None, fwd], out=out_f)
    out_f += 0.0 * minus_coeffs[None, fwd]
    np.multiply(minus_factor[expand], minus_coeffs[None, bwd], out=out_b)
    out_b += 0.0 * plus_coeffs[None, bwd]
    return out


class SectorSweep:
    """The Duhamel recurrence of P on one spectral sector, one block of rows at a time.

    The lambda >= 0 sector integrates forward from t = 0 and the lambda < 0
    sector backward from the far end.  Rows are taken in sweep order: callers
    pass the backward sector's rows as reversed-time views, so both sectors
    advance with increasing row index.  The weights are computed on all modes
    of lam and then cut to the sector, and are full rows of the given shape
    and dtype, so that no step broadcasts or casts; a complex row holds the
    promoted real weight, which gives the same products as the real one.
    """

    def __init__(self, lam, h: float, sector: slice, forward: bool, row_shape, dtype, rows: int):
        w = ((-lam if forward else lam) * h).reshape((len(lam),) + (1,) * (len(row_shape) - 1))
        p1, p2 = phi1(w), phi2(w)
        # out[j+1] = (decay out[j] + a g[j]) + b g[j+1] forward in time,
        # out[j] = decay out[j+1] - (a g[j] + b g[j+1]) backward
        a, b = (h * (p1 - p2), h * p2) if forward else (h * p2, h * (p1 - p2))
        self.decay, self.a, self.b = (
            np.broadcast_to(wt[sector], row_shape).astype(dtype) for wt in (np.exp(w), a, b)
        )
        self.forward = forward
        self.A, self.B = (np.empty((rows,) + tuple(row_shape), dtype) for _ in range(2))

    def advance(self, u: np.ndarray, g: np.ndarray) -> None:
        """Write u[1:] from u[0] and the forcing rows g, both in sweep order.

        u and g have one row more than the block has steps.
        """
        m = len(u) - 1
        # a step is two or three in-place ufunc calls on one row; local names
        # and positional outputs keep the per-call overhead down on short rows
        multiply, add, subtract = np.multiply, np.add, np.subtract
        A, B = self.A[:m], self.B[:m]
        decay = self.decay
        if self.forward:
            multiply(self.a, g[:m], A)
            multiply(self.b, g[1:], B)
            for prev, cur, a_k, b_k in zip(u[:m], u[1:], A, B):
                multiply(decay, prev, cur)
                add(cur, a_k, cur)
                add(cur, b_k, cur)
        else:
            # in time order the forcing of a step is a g[j] + b g[j+1], with
            # g[j] the row after g[j+1] in sweep order
            multiply(self.a, g[1:], A)
            multiply(self.b, g[:m], B)
            add(A, B, A)
            for prev, cur, f_k in zip(u[:m], u[1:], A):
                multiply(decay, prev, cur)
                subtract(cur, f_k, cur)


def sector_sweeps(lam: np.ndarray):
    """(sector slice, forward) of the lambda >= 0 and the lambda < 0 sector of lam."""
    n_fwd = _sector_split(lam)
    return (slice(0, n_fwd), True), (slice(n_fwd, len(lam)), False)


def sweep_order(values: np.ndarray, forward: bool) -> np.ndarray:
    """values (time first) in a sector's sweep order: itself, or its reversed-time view."""
    return values if forward else values[::-1]


def kernel_p_values(g_values: np.ndarray, lam: np.ndarray, h: float) -> np.ndarray:
    """Duhamel integrals of g (shape (M_t+1, modes, ...)) against e^{-lambda (t-tau)}.

    lambda >= 0 modes integrate forward from t = 0, lambda < 0 modes backward
    from the far end; the quadrature is exact for piecewise-linear g, which
    keeps the accuracy uniform in lambda * h.  Each sector's sweep runs in
    place over its own slice of modes, with its forcing products formed one
    time block at a time.
    """
    out = np.empty_like(g_values)
    n_steps = g_values.shape[0] - 1
    rows = block_rows(n_steps, g_values[0].nbytes)
    for sector, forward in sector_sweeps(lam):
        o = sweep_order(out[:, sector], forward)
        g = sweep_order(g_values[:, sector], forward)
        o[0] = 0.0
        if not o.size:
            continue
        sweep = SectorSweep(lam, h, sector, forward, o.shape[1:], out.dtype, rows)
        for start, stop in time_blocks(n_steps, rows):
            sweep.advance(o[start : stop + 1], g[start : stop + 1])
    return out


# -- smooth batch fields and the right-inverse residual -------------------------


def _smooth_rows(coeffs, tau: np.ndarray, tau_sq: np.ndarray, out: np.ndarray, quad) -> np.ndarray:
    """Rows c0 + c1 tau + c2 tau^2 of smooth fields into out, at node times tau (rows, 1, 1).

    quad is complex scratch of at least as many rows as out.
    """
    c0, c1, c2 = coeffs
    np.multiply(c1, tau, out=out)
    out += c0
    out += np.multiply(c2, tau_sq, out=quad[: len(out)])
    return out


def smooth_fields(coeffs, M: int, cols=slice(None)) -> np.ndarray:
    """Smooth fields (M+1, modes, columns) of the batch columns cols of coeffs = (c0, c1, c2).

    Each coefficient block has shape (modes, batch); node j holds
    c0 + c1 tau + c2 tau^2 with tau = j / M.  The field is written one time
    block at a time.
    """
    coeffs = [c[:, cols] for c in coeffs]
    out = np.empty((M + 1,) + coeffs[0].shape, complex)
    tau = np.linspace(0.0, 1.0, M + 1)[:, None, None]
    tau_sq = tau**2
    rows = block_rows(M + 1, out[0].nbytes)
    quad = np.empty((rows,) + out.shape[1:], complex)
    for start, stop in time_blocks(M + 1, rows):
        _smooth_rows(coeffs, tau[start:stop], tau_sq[start:stop], out[start:stop], quad)
    return out


def _right_inverse_block(coeffs, lam: np.ndarray, h: float, M: int, batch: int) -> np.ndarray:
    """D P g - g relative to g in L^2, per batch column of one column block.

    g holds the smooth forcings of coeffs on M time steps.  Each spectral
    sector is streamed once in its sweep direction, one time block at a time:
    a block forms its forcing rows, advances P over them and adds the
    sector's |D P g - g|^2 and |g|^2 to the node densities, so no field of
    the whole batch is ever made.  The residual lags the sweep by one row, so
    that each residual row has both neighbours for its time derivative; the
    buffers carry the last three rows of P g and of g into the next block.
    coeffs is one column block of a batch of `batch` columns probed at the
    same time; its time blocks are as long as those of the whole batch, so
    all blocks together hold the scratch of one probe.
    """
    tau = np.linspace(0.0, 1.0, M + 1)[:, None, None]
    # node densities of |D P g - g|^2 and |g|^2, summed over the modes sector by sector
    densities = [np.zeros((M + 1,) + coeffs[0].shape[1:]) for _ in range(2)]
    for sector, forward in sector_sweeps(lam):
        sector_coeffs = [c[sector] for c in coeffs]
        row = sector_coeffs[0].shape
        rows = block_rows(M, row[0] * batch * np.dtype(complex).itemsize)
        sweep = SectorSweep(lam, h, sector, forward, row, complex, rows)
        # complex copies of the real factors give the products numpy forms
        # when it casts them, without casting every block
        lam_u = lam[sector][:, None].astype(complex)
        t = sweep_order(tau, forward)
        t, t_sq = t.astype(complex), (t**2).astype(complex)
        sweep_densities = [sweep_order(d, forward) for d in densities]
        # buffer row i holds sweep row start - 2 + i of the current block
        u, g = (np.empty((rows + 3,) + row, complex) for _ in range(2))
        quad, du, lam_du = (np.empty((rows + 2,) + row, complex) for _ in range(3))
        scratch = mode_scratch(rows + 2, (1 + row[0],) + row[1:])
        u[2] = 0.0
        _smooth_rows(sector_coeffs, t[:1], t_sq[:1], g[2:3], quad)
        done = 0  # residual rows, in sweep order, already added
        for start, stop in time_blocks(M, rows):
            m, off = stop - start, start - 2
            new_rows = slice(start + 1, stop + 1)
            _smooth_rows(sector_coeffs, t[new_rows], t_sq[new_rows], g[3 : 3 + m], quad)
            sweep.advance(u[2 : 3 + m], g[2 : 3 + m])
            lo, hi = done, stop - 1 if stop < M else M + 1
            if hi > lo:
                # the rows lo:hi with their halo; the one-sided stencil of
                # the first row reads the two rows after it.  Against the
                # sweep of the lambda < 0 sector time runs backward, so its
                # derivative there is the negated one in sweep order
                w_lo, w_hi = max(lo - 1, 0), min(max(hi + 1, 3), M + 1)
                window, a, b = u[w_lo - off : w_hi - off], lo - w_lo, hi - w_lo
                g_rows = g[lo - off : hi - off]
                r = dt_derivative_rows(window, h, a, b, out=du[: hi - lo])
                if not forward:
                    np.negative(r, out=r)
                r += np.multiply(lam_u, window[a:b], out=lam_du[: hi - lo])
                r -= g_rows
                for x, density in zip((r, g_rows), sweep_densities):
                    add_l2_rows(x, scratch, density[lo:hi])
                done = hi
            u[:3], g[:3] = u[m : m + 3], g[m : m + 3]
    r_density, g_density = densities
    return np.sqrt(time_trapezoid(r_density, h)) / np.sqrt(time_trapezoid(g_density, h))


def right_inverse_residual(coeffs, lam: np.ndarray, h: float, M: int) -> np.ndarray:
    """|D P g - g| / |g| in L^2 per batch column, g the smooth fields of coeffs on M steps of h.

    coeffs = (c0, c1, c2) as in smooth_fields.  The columns run in blocks on
    the column workers (map_columns), each block streamed through time
    blocks without making its forcing field or its P image.
    """
    batch = coeffs[0].shape[1]

    def probe(cols):
        return _right_inverse_block([c[:, cols] for c in coeffs], lam, h, M, batch)

    return np.concatenate(map_columns(probe, batch, 0, len(lam)))


# -- public operations ------------------------------------------------------------


@tracked("cylinder.apply_D")
def apply_D(u: CylinderMap) -> CylinderMap:
    """D u = du/dt + L u, per mode u_n' + lambda_n u_n with lambda_n = -n."""
    lam = lambda_of_modes(u.N).astype(float)
    du = dt_derivative(u.values, u.dt)
    vals = du + lam[None, :, None] * u.values
    return CylinderMap(u.d, u.N, u.T, u.M_t, vals)


@tracked("cylinder.q_op")
def q_op(beta: BoundaryData, eps: float, M_t: int = 64) -> CylinderMap:
    """Kernel element of D with the prescribed mixed boundary data."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    lam = lambda_of_modes(beta.N).astype(float)
    times = np.linspace(0.0, eps, M_t + 1)
    vals = kernel_q_values(beta.plus0.coeffs, beta.minus_end.coeffs, lam, times, eps)
    return CylinderMap(beta.d, beta.N, eps, M_t, vals)


@tracked("cylinder.p_op")
def p_op(g: CylinderMap) -> CylinderMap:
    """Right inverse of D with vanishing mixed boundary data, applied to g."""
    lam = lambda_of_modes(g.N).astype(float)
    vals = kernel_p_values(g.values, lam, g.dt)
    return CylinderMap(g.d, g.N, g.T, g.M_t, vals)


@tracked("cylinder.aps_boundary")
def aps_boundary(u: CylinderMap) -> BoundaryData:
    """beta^+_0 = -Pi^+_L r_0(u), beta^-_eps = Pi^-_L r_eps(u)."""
    return BoundaryData(
        plus0=-1.0 * aps_project(u.rest_0(), "plus"),
        minus_end=aps_project(u.rest_end(), "minus"),
    )


@tracked("cylinder.cyl_norm")
def cyl_norm(u: CylinderMap, which: str) -> float:
    """Cylinder norms: L2, L2_1 (|u|^2 + |u_t|^2 + |u_theta|^2) or L4."""
    h = u.dt
    if which == "L2":
        return l2_norm(u.values, h)
    if which == "L2_1":
        # one column of modes x coordinates: each mode's weight once per coordinate
        weight = np.repeat(sobolev_weights(1, u.N), u.d)
        return float(l21_batch(u.values.reshape(u.M_t + 1, -1, 1), h, weight)[0])
    if which == "L4":
        grid = theta_values(u.values, u.N)
        quartic = np.mean(np.sum(np.abs(grid) ** 2, axis=-1) ** 2, axis=1)
        return float(time_trapezoid(quartic, h) ** 0.25)
    raise ValueError("which must be one of 'L2', 'L2_1', 'L4'")


@tracked("cylinder.energy")
def energy(m: HamiltonianModel, u: CylinderMap) -> float:
    """E(u) = 1/2 int (|u_t|^2 + |u_theta - X_H(u)|^2) dtheta/2pi dt."""
    h = u.dt
    du = dt_derivative(u.values, h)
    n = mode_numbers(u.N).astype(float)
    u_theta = (1j * n)[None, :, None] * u.values
    xh_modes = 1j * grad_h_modes(m, theta_values(u.values, u.N), u.N)
    defect = u_theta - xh_modes
    density = np.sum(np.abs(du) ** 2 + np.abs(defect) ** 2, axis=(1, 2))
    return float(0.5 * time_trapezoid(density, h))


# -- diagnostics for single-mode boundary data ------------------------------------


def trace_defect_sq(u: CylinderMap) -> float:
    """Squared L^2_{1/2} distance between the two end traces of u."""
    diff = u.rest_end() - u.rest_0()
    return sobolev_norm(diff, 0.5) ** 2


def kernel_dt_mass(u: CylinderMap) -> float:
    """int |d_t u|^2 for kernel fields of D, exactly from node values.

    On a field with d_t u_n = -lambda_n u_n (every Q output), |u_n(t)|^2 is a
    pure exponential on each interval, so the integral has a closed form in
    the node values; no finite differences enter.
    """
    lam = lambda_of_modes(u.N).astype(float)
    h = u.dt
    nz = lam != 0
    lam_nz = lam[nz]
    left_sq = np.sum(np.abs(u.values[:-1, nz, :]) ** 2, axis=2)
    weight = (1.0 - np.exp(-2.0 * lam_nz * h)) / (2.0 * lam_nz)
    per_mode = np.sum(left_sq * weight[None, :], axis=0)
    return float(np.sum(lam_nz**2 * per_mode))


def boundary_trace_half_norm_sq(u: CylinderMap) -> float:
    """Squared L^2_{1/2} norm of the full boundary trace (both end circles)."""
    return sobolev_norm(u.rest_0(), 0.5) ** 2 + sobolev_norm(u.rest_end(), 0.5) ** 2
