"""Fields on the cylinder [0, eps] x S^1 and the APS boundary value problem.

A cylinder field is modal in theta and nodal in t: values[j] holds the full
mode vector {u_n(t_j)} at t_j = j * T / M_t, and the block (M_t + 1, 2N + 1, d)
fixes d, N and M_t.  The operator under study is D = d/dt + L with
L = J d/dtheta, which acts per mode as u_n' + lambda_n u_n with lambda_n = -n.

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

from dataclasses import dataclass, field

import numpy as np

from .coverage import tracked
from .hamiltonian import HamiltonianModel, grad_action_values
from .loops import (
    Loop,
    aps_project,
    block_N,
    frozen_block,
    lambda_of_modes,
    sobolev_norm,
    sobolev_weights,
    theta_points,
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

    T: float
    values: np.ndarray = field(repr=False)
    d: int = field(init=False)
    N: int = field(init=False)
    M_t: int = field(init=False)

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("cylinder length T must be positive")
        values = frozen_block(self.values, 3, "cylinder values")
        if len(values) < 9:
            raise ValueError("need at least M_t >= 8 time intervals")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "d", values.shape[2])
        object.__setattr__(self, "N", block_N(values))
        object.__setattr__(self, "M_t", len(values) - 1)

    @staticmethod
    def zero(d: int, N: int, T: float, M_t: int) -> "CylinderMap":
        return CylinderMap(T, np.zeros((M_t + 1, 2 * N + 1, d), complex))

    @staticmethod
    def constant(loop: Loop, T: float, M_t: int) -> "CylinderMap":
        vals = np.broadcast_to(loop.coeffs, (M_t + 1,) + loop.coeffs.shape)
        return CylinderMap(T, vals.copy())

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M_t + 1)

    @property
    def dt(self) -> float:
        return self.T / self.M_t

    def restrict(self, j: int) -> Loop:
        return Loop(self.values[j])

    def rest_0(self) -> Loop:
        return self.restrict(0)

    def rest_end(self) -> Loop:
        return self.restrict(self.M_t)

    def __add__(self, other: "CylinderMap") -> "CylinderMap":
        if self.values.shape != other.values.shape or not np.isclose(self.T, other.T):
            raise ValueError("cylinder shape mismatch")
        return CylinderMap(self.T, self.values + other.values)


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

# Bytes of one time block: the package's one memory budget, which changes no
# computed value.  The aps kernels stream their fields through blocks of whole
# time rows that fit in a core's L2 cache: P's sweep forms its forcing in
# sub-blocks, residual_gram keeps a window of two blocks of sweep rows and
# forms its residual rows one such sub-block at a time, _add_gram its
# product buffer, l4_combination its theta samples and q_kernel_defect its
# halo blocks of Q and D Q in this size, and quadratic_forms runs its batch
# in column chunks of this size.  The coefficient stacks of the flow's node
# blocks and of the cycles' action_values calls take solver.stack_rows rows,
# whose theta samples fill an eighth of it
BLOCK_BYTES = 1 << 20


def block_rows(n_rows: int, row_nbytes: int) -> int:
    """Rows per time block: the whole rows that fit in BLOCK_BYTES, at least one
    and at most n_rows."""
    return max(1, min(n_rows, BLOCK_BYTES // max(1, row_nbytes)))


def time_blocks(n_rows: int, rows: int):
    """(start, stop) of consecutive blocks of `rows` rows covering range(n_rows)."""
    for start in range(0, n_rows, rows):
        yield start, min(start + rows, n_rows)


def column_chunks(n_cols: int, col_nbytes: int):
    """(start, stop) of consecutive column chunks covering range(n_cols) that fit
    BLOCK_BYTES, each of at least two columns when n_cols >= 2.

    numpy reduces the (modes, 1, k) products of a single column as one
    contiguous run, in another order than a column of a wider batch, so a
    lone last column joins the chunk before it.
    """
    starts = list(range(0, n_cols, max(2, block_rows(n_cols, col_nbytes))))
    if len(starts) > 1 and n_cols - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_cols]))


def dt_derivative_rows(values: np.ndarray, h: float, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of dt_derivative(values, h), read with a one-row halo."""
    n = len(values)
    out = np.empty_like(values[start:stop])
    lo, hi = max(start, 1), min(stop, n - 1)
    if lo < hi:
        inner = out[lo - start : hi - start]
        np.subtract(values[lo + 1 : hi + 1], values[lo - 1 : hi - 1], out=inner)
        inner /= 2.0 * h
    if start == 0:
        out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    if stop == n:
        out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


def dt_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order time derivative at nodes: centered inside, one-sided at ends."""
    return dt_derivative_rows(values, h, 0, len(values))


def _d_rows(values: np.ndarray, lam: np.ndarray, h: float, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of D values = d_t values + lambda_n values, per mode of lam."""
    out = dt_derivative_rows(values, h, start, stop)
    out += lam[:, None] * values[start:stop]
    return out


def time_trapezoid(node_values: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid rule along axis 0."""
    return h * (np.sum(node_values, axis=0) - 0.5 * (node_values[0] + node_values[-1]))


def l2_norm(values: np.ndarray, h: float) -> float:
    """L^2 norm of one field (M+1, 2N+1, d), summed jointly over modes and coordinates."""
    return float(np.sqrt(time_trapezoid(np.sum(np.abs(values) ** 2, axis=(1, 2)), h)))


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

    Mode by mode, the plus coefficients take the factor -e^{-lambda t} where
    lambda >= 0 and the minus coefficients e^{(eps - t) lambda} where
    lambda < 0; each mode's other coefficients enter through their product
    with a zero factor, which fixes the sign of zero outputs.  The minus
    products are added in place, and each factor is dropped once used.
    """
    tt, lam_row = times[:, None], lam[None, :]
    shape = (len(times), len(lam)) + (1,) * (plus_coeffs.ndim - 1)
    # the exponents are <= 0 for times in [0, eps]; outside it the clip caps them at 0
    factor = np.where(lam_row >= 0, -np.exp(np.minimum(-lam_row * tt, 0.0)), 0.0)
    out = factor.reshape(shape) * plus_coeffs
    factor = np.where(lam_row < 0, np.exp(np.minimum((eps - tt) * lam_row, 0.0)), 0.0)
    minus = factor.reshape(shape) * minus_coeffs
    # real plus and complex minus coefficients promote as the sum would
    out = out.astype(np.result_type(out, minus), copy=False)
    out += minus
    return out


def _p_sweep(g_values: np.ndarray, lam: np.ndarray, h: float, rows: int, window):
    """P's recurrence over both sectors at once, at most `rows` sweep steps a block.

    Sweep row j holds the forward sector at t_j and the backward sector at
    t_{M_t - j}; row 0 is zero.  For each block of steps [start, stop),
    window(start, stop) returns rows start..stop of an array whose first row
    holds sweep row start; rows start+1..stop are written after it in place.
    The forcing products are formed one sub-block of a block at a time, the
    backward ones read through reversed-time views of g, and once the rows
    of a sub-block are written, the last sweep row written is yielded.
    """
    n_steps = g_values.shape[0] - 1
    n_fwd = _sector_split(lam)
    fwd, bwd = slice(0, n_fwd), slice(n_fwd, len(lam))
    g_bwd = g_values[:, bwd][::-1]
    # both sectors step with w = -|lambda| h: the decay e^w, and the weights
    # of the forcing at the start and at the end of a sweep step.  They are
    # made full rows of g's dtype and memory layout (which for a broadcast
    # basis puts the modes innermost), so that every step runs on contiguous
    # rows of a window of that layout and nothing broadcasts or casts; a
    # complex row holds the promoted real weight, which gives the same
    # products as the real one
    w = (-np.abs(lam) * h).reshape((len(lam),) + (1,) * (g_values.ndim - 2))
    p2 = phi2(w)
    decay, a, b = (np.empty_like(g_values[0]) for _ in range(3))
    for full, wt in zip((decay, a, b), (np.exp(w), h * (phi1(w) - p2), h * p2)):
        full[...] = wt
    # the forcing products A and B of a sub-block of a block's steps take a
    # quarter of BLOCK_BYTES together; a small field is one sub-block
    sub = block_rows(rows, 8 * g_values[0].nbytes)
    A, B = (np.empty_like(g_values[:sub]) for _ in range(2))
    # local names and positional outputs keep the per-call overhead down
    multiply, add, negative = np.multiply, np.add, np.negative
    for start, stop in time_blocks(n_steps, rows):
        us = window(start, stop)
        if start == 0:
            us[0] = 0.0
        for lo, hi in time_blocks(stop - start, sub):
            m, j = hi - lo, start + lo
            multiply(a[fwd], g_values[j : j + m, fwd], A[:m, fwd])
            multiply(b[fwd], g_values[j + 1 : j + m + 1, fwd], B[:m, fwd])
            # the backward forcing enters as A = -(a g + b g) with B = -0.0; as
            # x + (-0.0) == x for every x, each row below is the same three calls
            # and keeps the bytes of decay out[j+1] - (a g[j+1] + b g[j])
            A_b, B_b = A[:m, bwd], B[:m, bwd]
            multiply(a[bwd], g_bwd[j : j + m], A_b)
            multiply(b[bwd], g_bwd[j + 1 : j + m + 1], B_b)
            add(A_b, B_b, A_b)
            negative(A_b, A_b)
            B_b[...] = -0.0
            # out[j+1] = (decay out[j] + A[j]) + B[j]
            for prev, cur, a_k, b_k in zip(us[lo:hi], us[lo + 1 : hi + 1], A, B):
                multiply(decay, prev, cur)
                add(cur, a_k, cur)
                add(cur, b_k, cur)
            yield j + m


def kernel_p_values(g_values: np.ndarray, lam: np.ndarray, h: float) -> np.ndarray:
    """Duhamel integrals of g (shape (M_t+1, modes, ...)) against e^{-lambda (t-tau)}.

    lambda >= 0 modes integrate forward from t = 0, lambda < 0 modes backward
    from the far end; the quadrature is exact for piecewise-linear g, which
    keeps the accuracy uniform in lambda * h.  One sweep (_p_sweep) steps
    both sectors in place in out, whose row j holds the forward sector at t_j
    and the backward sector at t_{M_t - j}; the backward sector is put back
    in time order after it, one pair of blocks at a time.
    """
    out = np.empty_like(g_values)
    rows = block_rows(g_values.shape[0] - 1, g_values[0].nbytes)
    for _ in _p_sweep(g_values, lam, h, rows, lambda start, stop: out[start : stop + 1]):
        pass
    top = out[:, _sector_split(lam) :]
    bottom = top[::-1]
    tmp = np.empty_like(top[:rows])
    for start, stop in time_blocks(len(out) // 2, rows):
        m = stop - start
        tmp[:m] = top[start:stop]
        top[start:stop] = bottom[start:stop]
        bottom[start:stop] = tmp[:m]
    return out


# -- smooth batch fields and their per-mode Gram forms ---------------------------

# Every random forcing of the aps checks is g = c0 + c1 tau + c2 tau^2 at the
# nodes tau = j / M, with one coefficient block (modes, batch) per power.  P,
# D and every norm weight act mode by mode, so P g = sum_k c_k P[tau^k] per
# mode, and each squared norm of a batch column (of g, P g, d_t P g, the
# residual D P g - g or an end trace) is sum_n c_n^H G_n c_n, with a real
# symmetric 3 x 3 Gram matrix G_n per mode built from one P sweep over the
# basis 1, tau, tau^2.


def tau_powers(M: int) -> np.ndarray:
    """The basis 1, tau, tau^2 at the nodes tau = j / M, shape (M+1, 3)."""
    tau = np.linspace(0.0, 1.0, M + 1)
    return np.stack([np.ones_like(tau), tau, tau**2], axis=1)


def smooth_fields(coeffs, M: int) -> np.ndarray:
    """Smooth fields (M+1, modes, batch) of coeffs = (c0, c1, c2), each (modes, batch).

    Node j holds c0 + c1 tau + c2 tau^2 with tau = j / M.
    """
    c0, c1, c2 = coeffs
    _, tau, tau_sq = tau_powers(M).T[:, :, None, None]
    return c0 + c1 * tau + c2 * tau_sq


def basis_p_values(lam: np.ndarray, h: float, M: int) -> np.ndarray:
    """P[tau^k] in every mode, shape (M+1, modes, 3): one sweep over a broadcast basis."""
    powers = tau_powers(M)[:, None, :]
    return kernel_p_values(np.broadcast_to(powers, (M + 1, len(lam), 3)), lam, h)


def _outer(row: np.ndarray) -> np.ndarray:
    """Per-mode outer products (modes, k, k) of a row (modes, k)."""
    return row[:, :, None] * row[:, None, :]


def _add_gram(total: np.ndarray, x: np.ndarray) -> None:
    """Add sum_j X_jn X_jn^T onto total (modes, k, k) per mode, one row j of the
    real field x (rows, modes, k) after the other, in the order of its rows.

    Row 0 of a buffer carries the sum so far and the rows after it the
    products of x's rows, for all k(k+1)/2 pairs a <= b of every mode; numpy
    reduces a buffer of more than one entry a row over its first axis one row
    after the other, so the sums do not depend on how the rows are split
    between calls.  The buffer takes a quarter of BLOCK_BYTES.
    """
    modes, k = x.shape[1:]
    pairs = [(a, b) for a in range(k) for b in range(a, k)]
    rows = block_rows(len(x), 4 * len(pairs) * modes * 8)
    buf = np.empty((rows + 1, len(pairs), modes))
    for p, (a, b) in enumerate(pairs):
        buf[0, p] = total[:, a, b]
    for start, stop in time_blocks(len(x), rows):
        m = stop - start
        for p, (a, b) in enumerate(pairs):
            np.multiply(x[start:stop, :, a], x[start:stop, :, b], out=buf[1 : m + 1, p])
        buf[0] = np.add.reduce(buf[: m + 1], axis=0)
    for p, (a, b) in enumerate(pairs):
        total[:, a, b] = total[:, b, a] = buf[0, p]


def mode_gram(x: np.ndarray, h: float) -> np.ndarray:
    """Per-mode Gram matrices int X_n X_n^T dt (trapezoid rule) of the real
    field X (nodes, modes, k), shape (modes, k, k); the sum runs over the
    nodes in order (_add_gram)."""
    _, modes, k = x.shape
    total = np.zeros((modes, k, k))
    _add_gram(total, x)
    return h * (total - 0.5 * (_outer(x[0]) + _outer(x[-1])))


def _halo(start: int, stop: int, n: int) -> tuple[int, int]:
    """First and last of the n rows that dt_derivative_rows reads for rows start:stop."""
    first, last = max(start - 1, 0), min(stop, n - 1)
    if start == 0:
        last = max(last, 2)
    if stop == n:
        first = min(first, n - 3)
    return first, last


def residual_gram(lam: np.ndarray, h: float, M: int) -> np.ndarray:
    """mode_gram of the right-inverse residuals D P[tau^k] - tau^k on M steps,
    formed while P's sweep over the basis 1, tau, tau^2 runs; no sweep is kept.

    The residual is read in the sweep's own frame, where t -> eps - t makes
    each backward mode a forward one at |lambda|.  The stencils of
    dt_derivative_rows are odd under time reversal and rounding is
    sign-symmetric, so D at |lambda| of a backward sweep row is the exact
    negative of D at lambda of its row in time order, and the products of
    the Gram cannot see the sign.  Each stretch of sweep rows whose time
    derivative the sweep has written is one _d_rows call over all modes,
    from a window of the last two time blocks of sweep rows, and is added to
    the Gram in sweep order (_add_gram): forward rows in time order,
    backward rows reversed, so the sums do not depend on the blocks.
    """
    n = M + 1
    powers = tau_powers(M)[:, None, :]
    basis = np.broadcast_to(powers, (n, len(lam), 3))
    rows = block_rows(n, basis[0].nbytes)
    n_fwd = _sector_split(lam)
    abs_lam = np.abs(lam)
    total = np.zeros((len(lam), 3, 3))
    ends = []
    # the window holds sweep rows base..; when a block does not fit, it keeps
    # the block's first row and the `rows` rows before it, which hold every
    # row a stretch of residual rows still reads
    win = np.empty_like(basis[: 2 * rows + 2])
    base = 0

    def window(start, stop):
        nonlocal base
        if stop - base >= len(win):
            keep = start - rows
            win[: start + 1 - keep] = win[keep - base : start + 1 - base]
            base = keep
        return win[start - base : stop + 1 - base]

    done = 0
    for swept in _p_sweep(basis, lam, h, rows, window):
        stop = n if swept == M else swept
        first, last = _halo(done, stop, n)
        if last > swept:  # row 0's one-sided stencil reads sweep row 2
            continue
        r = _d_rows(win[first - base : last + 1 - base], abs_lam, h, done - first, stop - first)
        r[:, :n_fwd] -= powers[done:stop]
        r[:, n_fwd:] += powers[::-1][done:stop]
        _add_gram(total, r)
        if done == 0:
            ends.append(_outer(r[0]))
        if stop == n:
            ends.append(_outer(r[-1]))
        done = stop
    return h * (total - 0.5 * (ends[0] + ends[1]))


def q_kernel_defect(beta: BoundaryData, eps: float, M: int) -> float:
    """max |D Q beta| / max |Q beta| of u = q_op(beta, eps, M), bit for bit, with
    no whole field formed.

    The rows after the first eight steps come in time blocks, each with Q
    formed on its halo rows (kernel_q_values) and D by _d_rows at the grid's
    step h, as in residual_gram; six block fields fit in BLOCK_BYTES.  The
    first eight steps go through apply_D, so that the public operator runs,
    and is counted, once per field whatever the blocks; 8 h is exact, so
    that CylinderMap's step is h bit for bit.
    """
    lam = lambda_of_modes(beta.N)
    times = np.linspace(0.0, eps, M + 1)
    h = eps / M

    def q_rows(first, last):
        return kernel_q_values(
            beta.plus0.coeffs, beta.minus_end.coeffs, lam, times[first : last + 1], eps
        )

    head = q_rows(0, 8)
    top_u = float(np.max(np.abs(head)))
    top_du = float(np.max(np.abs(apply_D(CylinderMap(8 * h, head)).values[:8])))
    rows = block_rows(M - 7, 6 * beta.plus0.coeffs.nbytes)
    for start in range(8, M + 1, rows):
        stop = min(start + rows, M + 1)
        first, last = _halo(start, stop, M + 1)
        u = q_rows(first, last)
        top_u = max(top_u, float(np.max(np.abs(u))))
        du = _d_rows(u, lam, h, start - first, stop - first)
        top_du = max(top_du, float(np.max(np.abs(du))))
    return top_du / top_u


def quadratic_forms(gram: np.ndarray, coeffs) -> np.ndarray:
    """sum_n c_n^H G_n c_n per batch column, with c_n = (c0[n], c1[n], c2[n]).

    gram (modes, 3, 3), or (1, 3, 3) for one matrix shared by every mode, is
    real symmetric, so the form is that of the real parts plus that of the
    imaginary parts.  The batch runs in column chunks (column_chunks).
    """
    modes, n_cols = coeffs[0].shape
    out = np.empty(n_cols)
    for start, stop in column_chunks(n_cols, modes * len(coeffs) * np.dtype(complex).itemsize):
        c = np.stack([ck[:, start:stop] for ck in coeffs], axis=-1)  # (modes, cols, 3)
        out[start:stop] = sum(np.sum(x * (x @ gram), axis=(0, 2)) for x in (c.real, c.imag))
    return out


def _l4_rows(block: np.ndarray) -> np.ndarray:
    """Quartic density mean_theta |u|^4 (rows, batch) of a block of rows (rows, modes, batch)."""
    # reorder to (rows, batch, modes, 1) so the theta axis lands second-to-last
    sampled = theta_values(np.swapaxes(block, 1, 2)[..., None])[..., 0]
    return np.mean(np.abs(sampled) ** 4, axis=-1)


def l4_combination(basis: np.ndarray, coeffs, h: float) -> np.ndarray:
    """L^4 norm per batch column of the field sum_k c_k[n] X[:, n, k].

    basis X is real (nodes, 2N+1, K) and depends on the mode, and coeffs
    holds K blocks (2N+1, batch); the field is formed and reduced one time
    block at a time, sized by its theta samples (batch, theta_points(N)) per
    row.  A basis shared by every mode goes to l4_shared_basis.
    """
    n_nodes, batch = len(basis), coeffs[0].shape[1]
    M = theta_points(block_N(coeffs[0]))
    rows = block_rows(n_nodes, batch * M * np.dtype(complex).itemsize)
    quartic = np.empty((n_nodes, batch))
    for start, stop in time_blocks(n_nodes, rows):
        x = basis[start:stop]
        u = x[:, :, 0, None] * coeffs[0]
        for k in range(1, len(coeffs)):
            u += x[:, :, k, None] * coeffs[k]
        quartic[start:stop] = _l4_rows(u)
    return time_trapezoid(quartic, h) ** 0.25


def l4_shared_basis(basis: np.ndarray, coeffs, h: float) -> np.ndarray:
    """L^4 norm per batch column of the field sum_k c_k[n] X[:, k].

    basis X is real (nodes, K) and shared by every mode, and coeffs holds K
    blocks (modes, batch).  With s_k the theta samples of c_k, |u(t, theta)|^2
    is sum_p y_p(t) G_p(theta) over the pairs p = (k <= l), where
    y_p = (2 - delta_kl) x_k x_l and G_p = Re(s_k conj s_l).  So
    int mean_theta |u|^4 dt = mean_theta sum_pq Y_pq G_p G_q, with the
    trapezoid rule Y_pq of y_p y_q: each block is sampled once, and no field
    is formed.
    """
    samples = [theta_values(c.T[..., None])[..., 0] for c in coeffs]  # (batch, M)
    pairs = [(k, l) for k in range(len(coeffs)) for l in range(k, len(coeffs))]
    y = np.stack([(1.0 if k == l else 2.0) * basis[:, k] * basis[:, l] for k, l in pairs], axis=1)
    Y = time_trapezoid(y[:, :, None] * y[:, None, :], h)
    G = [
        samples[k].real * samples[l].real + samples[k].imag * samples[l].imag for k, l in pairs
    ]
    quartic = np.zeros_like(G[0])
    for p, G_p in enumerate(G):
        # sum_q Y_pq G_q, one (batch, M) array at a time
        row = Y[p, 0] * G[0]
        for q in range(1, len(G)):
            row += Y[p, q] * G[q]
        quartic += G_p * row
    return np.mean(quartic, axis=-1) ** 0.25


# -- public operations ------------------------------------------------------------


@tracked("cylinder.apply_D")
def apply_D(u: CylinderMap) -> CylinderMap:
    """D u = du/dt + L u, per mode u_n' + lambda_n u_n with lambda_n = -n."""
    return CylinderMap(u.T, _d_rows(u.values, lambda_of_modes(u.N), u.dt, 0, u.M_t + 1))


@tracked("cylinder.q_op")
def q_op(beta: BoundaryData, eps: float, M_t: int = 64) -> CylinderMap:
    """Kernel element of D with the prescribed mixed boundary data."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    lam = lambda_of_modes(beta.N)
    times = np.linspace(0.0, eps, M_t + 1)
    vals = kernel_q_values(beta.plus0.coeffs, beta.minus_end.coeffs, lam, times, eps)
    return CylinderMap(eps, vals)


@tracked("cylinder.p_op")
def p_op(g: CylinderMap) -> CylinderMap:
    """Right inverse of D with vanishing mixed boundary data, applied to g."""
    vals = kernel_p_values(g.values, lambda_of_modes(g.N), g.dt)
    return CylinderMap(g.T, vals)


@tracked("cylinder.aps_boundary")
def aps_boundary(u: CylinderMap) -> BoundaryData:
    """beta^+_0 = -Pi^+_L r_0(u), beta^-_eps = Pi^-_L r_eps(u)."""
    return BoundaryData(
        plus0=-1.0 * aps_project(u.rest_0(), "plus"),
        minus_end=aps_project(u.rest_end(), "minus"),
    )


@tracked("cylinder.cyl_norm")
def cyl_norm(u: CylinderMap, which: str) -> float:
    """Cylinder norms: L2_1 (|u|^2 + |u_t|^2 + |u_theta|^2) or L4; l2_norm gives L2."""
    h = u.dt
    if which == "L2_1":
        weight = sobolev_weights(1, u.N)[None, :, None]
        du = dt_derivative(u.values, h)
        density = np.sum(weight * np.abs(u.values) ** 2 + np.abs(du) ** 2, axis=(1, 2))
        return float(np.sqrt(time_trapezoid(density, h)))
    if which == "L4":
        grid = theta_values(u.values)
        quartic = np.mean(np.sum(np.abs(grid) ** 2, axis=-1) ** 2, axis=1)
        return float(time_trapezoid(quartic, h) ** 0.25)
    raise ValueError("which must be one of 'L2_1', 'L4'")


@tracked("cylinder.energy")
def energy(m: HamiltonianModel, u: CylinderMap) -> float:
    """E(u) = 1/2 int (|u_t|^2 + |grad CSD(u(t))|^2), grad CSD = -J (u_theta - X_H(u))."""
    h = u.dt
    du = dt_derivative(u.values, h)
    density = np.sum(np.abs(du) ** 2 + np.abs(grad_action_values(m, u.values)) ** 2, axis=(1, 2))
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
    lam = lambda_of_modes(u.N)
    h = u.dt
    nz = lam != 0
    lam_nz = lam[nz]
    left_sq = np.sum(np.abs(u.values[:-1, nz, :]) ** 2, axis=2)
    weight = (1.0 - np.exp(-2.0 * lam_nz * h)) / (2.0 * lam_nz)
    per_mode = np.sum(left_sq * weight[None, :], axis=0)
    return float(np.sum(lam_nz**2 * per_mode))
