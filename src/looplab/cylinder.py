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

from dataclasses import dataclass, field

import numpy as np

from .coverage import tracked
from .hamiltonian import HamiltonianModel, grad_action_values
from .loops import (
    Loop,
    aps_project,
    frozen_block,
    lambda_of_modes,
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
        shape = (self.M_t + 1, 2 * self.N + 1, self.d)
        object.__setattr__(self, "values", frozen_block(self.values, shape, "cylinder values"))

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

# Bytes of one time block.  The aps kernels stream their fields through blocks
# of whole time rows that fit in a core's L2 cache.  kernel_p_values writes
# each block's forcing products into two scratch buffers made once per call,
# one of which also carries the blocks of its time reversal; residual_gram
# and l4_combination allocate new arrays for every block.  l4_shared_basis
# forms no field, so it has no time blocks
BLOCK_BYTES = 1 << 20


def block_rows(n_rows: int, row_nbytes: int) -> int:
    """Rows per time block: the whole rows that fit in BLOCK_BYTES, at least one
    and at most n_rows."""
    return max(1, min(n_rows, BLOCK_BYTES // max(1, row_nbytes)))


def time_blocks(n_rows: int, rows: int):
    """(start, stop) of consecutive blocks of `rows` rows covering range(n_rows)."""
    for start in range(0, n_rows, rows):
        yield start, min(start + rows, n_rows)


def dt_derivative_rows(values: np.ndarray, h: float, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of dt_derivative(values, h), read with a one-row halo."""
    n = len(values)
    out = np.empty((stop - start,) + values.shape[1:], values.dtype)
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
    with a zero factor, which fixes the sign of zero outputs.
    """
    tt, lam_row = times[:, None], lam[None, :]
    # the exponents are <= 0 for times in [0, eps]; outside it the clip caps them at 0
    plus_factor = np.where(lam_row >= 0, -np.exp(np.minimum(-lam_row * tt, 0.0)), 0.0)
    minus_factor = np.where(lam_row < 0, np.exp(np.minimum((eps - tt) * lam_row, 0.0)), 0.0)
    shape = plus_factor.shape + (1,) * (plus_coeffs.ndim - 1)
    return plus_factor.reshape(shape) * plus_coeffs + minus_factor.reshape(shape) * minus_coeffs


def kernel_p_values(g_values: np.ndarray, lam: np.ndarray, h: float) -> np.ndarray:
    """Duhamel integrals of g (shape (M_t+1, modes, ...)) against e^{-lambda (t-tau)}.

    lambda >= 0 modes integrate forward from t = 0, lambda < 0 modes backward
    from the far end; the quadrature is exact for piecewise-linear g, which
    keeps the accuracy uniform in lambda * h.  One sweep steps both sectors
    in place: during it, row j of out holds the forward sector at t_j and the
    backward sector at t_{M_t - j}, and the backward sector is put back in
    time order after it.  The forcing products are formed one time block at
    a time, the backward ones read through reversed-time views of g.
    """
    out = np.empty_like(g_values)
    n_steps = g_values.shape[0] - 1
    rows = block_rows(n_steps, g_values[0].nbytes)
    n_fwd = _sector_split(lam)
    fwd, bwd = slice(0, n_fwd), slice(n_fwd, len(lam))
    g_bwd = g_values[:, bwd][::-1]
    # both sectors step with w = -|lambda| h: the decay e^w, and the weights
    # of the forcing at the start and at the end of a sweep step.  They are
    # made full rows of out's dtype and memory layout (out follows g's, which
    # for a broadcast basis puts the modes innermost), so that every step
    # runs on contiguous rows and nothing broadcasts or casts; a complex row
    # holds the promoted real weight, which gives the same products as the
    # real one
    w = (-np.abs(lam) * h).reshape((len(lam),) + (1,) * (g_values.ndim - 2))
    p2 = phi2(w)
    decay, a, b = (np.empty_like(out[0]) for _ in range(3))
    for full, wt in zip((decay, a, b), (np.exp(w), h * (phi1(w) - p2), h * p2)):
        full[...] = wt
    A, B = (np.empty_like(out[:rows]) for _ in range(2))
    # local names and positional outputs keep the per-call overhead down
    multiply, add, negative = np.multiply, np.add, np.negative
    out[0] = 0.0
    for start, stop in time_blocks(n_steps, rows):
        m, us = stop - start, out[start : stop + 1]
        multiply(a[fwd], g_values[start:stop, fwd], A[:m, fwd])
        multiply(b[fwd], g_values[start + 1 : stop + 1, fwd], B[:m, fwd])
        # the backward forcing enters as A = -(a g + b g) with B = -0.0; as
        # x + (-0.0) == x for every x, each row below is the same three calls
        # and keeps the bytes of decay out[j+1] - (a g[j+1] + b g[j])
        A_b, B_b = A[:m, bwd], B[:m, bwd]
        multiply(a[bwd], g_bwd[start:stop], A_b)
        multiply(b[bwd], g_bwd[start + 1 : stop + 1], B_b)
        add(A_b, B_b, A_b)
        negative(A_b, A_b)
        B_b[...] = -0.0
        # out[j+1] = (decay out[j] + A[j]) + B[j]
        for prev, cur, a_k, b_k in zip(us[:m], us[1:], A, B):
            multiply(decay, prev, cur)
            add(cur, a_k, cur)
            add(cur, b_k, cur)
    # put the backward sector back in time order, one pair of blocks at a
    # time through A's backward part
    top = out[:, bwd]
    bottom = top[::-1]
    for start, stop in time_blocks(len(out) // 2, rows):
        tmp = A[: stop - start, bwd]
        tmp[...] = top[start:stop]
        top[start:stop] = bottom[start:stop]
        bottom[start:stop] = tmp
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


def mode_gram(blocks, h: float) -> np.ndarray:
    """Per-mode Gram matrices int X_n X_n^T dt (trapezoid rule), shape (modes, k, k).

    blocks yields the real field X (nodes, modes, k) as consecutive time
    blocks; a whole field is passed as [X].
    """
    total = first = 0.0
    for i, x in enumerate(blocks):
        total = total + np.einsum("jnk,jnl->nkl", x, x)
        if i == 0:
            first = _outer(x[0])
        last = _outer(x[-1])
    return h * (total - 0.5 * (first + last))


def residual_gram(basis_p: np.ndarray, lam: np.ndarray, h: float) -> np.ndarray:
    """mode_gram of the right-inverse residuals D P[tau^k] - tau^k of basis_p_values.

    The residual rows are formed one time block at a time, their time
    derivative read with a one-row halo.
    """
    n = len(basis_p)
    powers = tau_powers(n - 1)[:, None, :]
    rows = block_rows(n, basis_p[0].nbytes)

    def residual_blocks():
        for start, stop in time_blocks(n, rows):
            r = dt_derivative_rows(basis_p, h, start, stop)
            r += lam[:, None] * basis_p[start:stop]
            r -= powers[start:stop]
            yield r

    return mode_gram(residual_blocks(), h)


def quadratic_forms(gram: np.ndarray, coeffs) -> np.ndarray:
    """sum_n c_n^H G_n c_n per batch column, with c_n = (c0[n], c1[n], c2[n]).

    gram (modes, 3, 3), or (1, 3, 3) for one matrix shared by every mode, is
    real symmetric, so the form is that of the real parts plus that of the
    imaginary parts.
    """
    c = np.stack(coeffs, axis=-1)  # (modes, batch, 3)
    return sum(np.sum(x * (x @ gram), axis=(0, 2)) for x in (c.real, c.imag))


def _l4_rows(block: np.ndarray, N: int) -> np.ndarray:
    """Quartic density mean_theta |u|^4 (rows, batch) of a block of rows (rows, modes, batch)."""
    # reorder to (rows, batch, modes, 1) so the theta axis lands second-to-last
    sampled = theta_values(np.swapaxes(block, 1, 2)[..., None], N)[..., 0]
    return np.mean(np.abs(sampled) ** 4, axis=-1)


def l4_combination(basis: np.ndarray, coeffs, h: float, N: int) -> np.ndarray:
    """L^4 norm per batch column of the field sum_k c_k[n] X[:, n, k].

    basis X is real (nodes, modes, K) and depends on the mode, and coeffs
    holds K blocks (modes, batch); the field is formed and reduced one time
    block at a time.  A basis shared by every mode goes to l4_shared_basis.
    """
    n_nodes, batch = len(basis), coeffs[0].shape[1]
    rows = block_rows(n_nodes, coeffs[0].size * np.dtype(complex).itemsize)
    quartic = np.empty((n_nodes, batch))
    for start, stop in time_blocks(n_nodes, rows):
        x = basis[start:stop]
        u = x[:, :, 0, None] * coeffs[0]
        for k in range(1, len(coeffs)):
            u += x[:, :, k, None] * coeffs[k]
        quartic[start:stop] = _l4_rows(u, N)
    return time_trapezoid(quartic, h) ** 0.25


def l4_shared_basis(basis: np.ndarray, coeffs, h: float, N: int) -> np.ndarray:
    """L^4 norm per batch column of the field sum_k c_k[n] X[:, k].

    basis X is real (nodes, K) and shared by every mode, and coeffs holds K
    blocks (modes, batch).  With s_k the theta samples of c_k, |u(t, theta)|^2
    is sum_p y_p(t) G_p(theta) over the pairs p = (k <= l), where
    y_p = (2 - delta_kl) x_k x_l and G_p = Re(s_k conj s_l).  So
    int mean_theta |u|^4 dt = mean_theta sum_pq Y_pq G_p G_q, with the
    trapezoid rule Y_pq of y_p y_q: each block is sampled once, and no field
    is formed.
    """
    samples = [theta_values(c.T[..., None], N)[..., 0] for c in coeffs]  # (batch, M)
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
        weight = sobolev_weights(1, u.N)[None, :, None]
        du = dt_derivative(u.values, h)
        density = np.sum(weight * np.abs(u.values) ** 2 + np.abs(du) ** 2, axis=(1, 2))
        return float(np.sqrt(time_trapezoid(density, h)))
    if which == "L4":
        grid = theta_values(u.values, u.N)
        quartic = np.mean(np.sum(np.abs(grid) ** 2, axis=-1) ** 2, axis=1)
        return float(time_trapezoid(quartic, h) ** 0.25)
    raise ValueError("which must be one of 'L2', 'L2_1', 'L4'")


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
