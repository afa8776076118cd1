"""Picard solver for the perturbed Cauchy-Riemann equation and gradient flow.

The cylinder equation d/dt u + J d/dtheta u + grad H(u) = 0 is solved on
short cylinders with mixed APS data through the fixed point of

    v  |->  -grad H(Q(beta) + P(v)),

starting at v = 0; the solution is u = Q(beta) + P(v*).  The iteration is
monitored: successive-ratio growth raises ContractionFailure, leaving the
ball of radius 1/(8C) (C the recorded Sobolev-Lipschitz constant of the
nonlinearity) raises BallExit.

The upward gradient flow d/dt c = grad_action_values(c) is integrated with
the first-order exponential scheme c <- e^{n dt} c - dt phi1(n dt) grad H,
exact on the stiff diagonal part.  flow_trajectory is the one place that
steps, validates and defaults the flow (dt = 0.09 / N unless given); it is
a lean stepper, whose dense theta matrices (loops.theta_matrices) cost
O(N^2) a step and beat the FFT pair up to about N = 32, and node
diagnostics taken per block on the shared grad-H path.  flow_step and
gf_pushforward are views of it.
Growing plus-modes are the point of the polarization, so trajectories that
overflow raise Blowup with the time of failure instead of being damped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverage import tracked
from .cylinder import (
    BoundaryData,
    CylinderMap,
    block_rows,
    decompose,
    energy as cylinder_energy,
    l2_norm,
    p_op,
    phi1,
    q_op,
)
from .hamiltonian import HamiltonianModel, action, action_values, grad_action_values
from .hamiltonian import grad_h_modes, k_factor_constant, theta_samples
from .loops import Loop, block_N, mode_numbers, sobolev_sq, theta_matrices, theta_points


MAX_ITER = 200  # Picard iteration budget
BLOWUP_NORM = 1e8  # L^2 norm at which the upward flow counts as blown up


def stack_rows(n_rows: int, block: np.ndarray) -> int:
    """block_rows of a stack (..., 2N+1, d) whose theta samples fill BLOCK_BYTES / 8."""
    samples = theta_points(block_N(block)) * block.shape[-1] * np.dtype(complex).itemsize
    return block_rows(n_rows, 8 * samples)


class SolverError(Exception):
    """Base class for solver failures."""


class ContractionFailure(SolverError):
    """Successive Picard increments grew for several consecutive steps."""


class BallExit(SolverError):
    """An iterate left the contraction ball of radius 1/(8C)."""


class MaxIterExceeded(SolverError):
    """The Picard tolerance was not met within the iteration budget."""


class Blowup(SolverError):
    """The upward flow exceeded the overflow guard (expected for generic data)."""

    def __init__(self, trace: "FlowTrace"):
        super().__init__(f"flow trajectory blew up at t = {trace.blowup_time:.6g}")
        self.time = trace.blowup_time
        self.trace = trace  # the cut trace of the nodes before the guard fired


# -- results ----------------------------------------------------------------------


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a contraction solve; u = q_op(beta) + p_op(v) by construction."""

    u: CylinderMap
    v: CylinderMap
    iterations: int
    contraction_ratio: float
    residual: float
    energy: float
    action_in: float
    action_out: float
    ball_radius: float
    v_norm: float


@dataclass(frozen=True)
class FlowTrace:
    """Per-node record of an upward-flow trajectory."""

    times: np.ndarray
    actions: np.ndarray
    cumulative_energy: np.ndarray
    norms: np.ndarray
    final: Loop
    blowup_time: float | None = None  # set on the cut trace a Blowup carries


# -- contraction solver -------------------------------------------------------------


@tracked("solver.picard_solve")
def picard_solve(
    m: HamiltonianModel,
    beta: BoundaryData,
    eps: float,
    tol: float = 1e-11,
    M_t: int = 64,
) -> SolveResult:
    """Solve d/dt u + J d/dtheta u + grad H(u) = 0 with mixed APS data beta.

    Iterates v <- -grad H(q_op(beta) + p_op(v)) from v = 0 until the L^2
    increment drops below tol.  Raises ContractionFailure after three
    consecutive non-contracting steps, BallExit outside radius 1/(8C),
    MaxIterExceeded past the budget.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    q = q_op(beta, eps, M_t=M_t)
    h = q.dt

    C = k_factor_constant(m)
    ball = 1.0 / (8.0 * C)

    v_vals = np.zeros_like(q.values)
    prev_inc = None
    worst_ratio = 0.0
    bad_streak = 0
    iterations = 0

    for iterations in range(1, MAX_ITER + 1):
        u = q + p_op(CylinderMap(eps, v_vals))
        v_next = -grad_h_modes(m, u.values)
        inc = l2_norm(v_next - v_vals, h)
        v_norm = l2_norm(v_next, h)
        if not np.isfinite(inc) or v_norm > ball:
            raise BallExit(
                f"iterate norm {v_norm:.3g} left the contraction ball 1/(8C) = {ball:.3g}"
            )
        if prev_inc is not None and prev_inc > 0:
            ratio = inc / prev_inc
            worst_ratio = max(worst_ratio, ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
            if bad_streak >= 3:
                raise ContractionFailure(
                    f"increment ratios stayed >= 1 for 3 steps (last {ratio:.3g})"
                )
        v_vals = v_next
        if inc <= tol:
            break
        prev_inc = inc
    else:
        raise MaxIterExceeded(f"no convergence to {tol:.3g} in {MAX_ITER} iterations")

    v = CylinderMap(eps, v_vals)
    u = q + p_op(v)
    # the linear part D u equals v at the nodes by construction, so the PDE
    # residual at the nodes is the fixed-point defect
    residual = l2_norm(v_vals + grad_h_modes(m, u.values), h)
    return SolveResult(
        u=u,
        v=v,
        iterations=iterations,
        contraction_ratio=worst_ratio,
        residual=residual,
        energy=cylinder_energy(m, u),
        action_in=action(m, u.rest_0()),
        action_out=action(m, u.rest_end()),
        ball_radius=ball,
        v_norm=l2_norm(v_vals, h),
    )


@tracked("solver.collar_solve")
def collar_solve(m: HamiltonianModel, b: Loop, eps: float, tol: float = 1e-11) -> SolveResult:
    """Unique small-energy solution whose mixed boundary value is carried by b."""
    return picard_solve(m, decompose(b), eps, tol=tol)


@tracked("solver.h_eps_sensitivity")
def h_eps_sensitivity(
    m: HamiltonianModel, beta: BoundaryData, eps: float, delta_beta: BoundaryData
) -> float:
    """Finite-difference sensitivity of the fixed point to the boundary data.

    Returns ||v*(beta + delta) - v*(beta)||_{L^2} / ||delta||_{L^2_{1/2}}.
    """
    denom = delta_beta.norm()
    if denom == 0:
        raise ValueError("delta_beta must be nonzero")
    base = picard_solve(m, beta, eps)
    bumped = picard_solve(m, beta + delta_beta, eps)
    h = base.v.dt
    return l2_norm(bumped.v.values - base.v.values, h) / denom


# -- upward gradient flow -------------------------------------------------------------


def _etd_coefficients(N: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    n = mode_numbers(N).astype(float)
    return np.exp(n * dt), dt * phi1(n * dt)


def _etd_operators(N: int, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (S, A, grow) of one ETD step at step dt.

    S and Y are the theta_matrices of the FFT bridge, A is Y with
    -2 dt phi1(n dt) folded into its rows, and grow is e^{n dt}.
    """
    grow, weight = (w[:, None] for w in _etd_coefficients(N, dt))
    S, Y = theta_matrices(N)
    return S, -2.0 * weight * Y, grow


def _etd_step(m: HamiltonianModel, ops: tuple, c: np.ndarray) -> np.ndarray:
    """c e^{n dt} - dt phi1(n dt) (grad H(c))_n, through the dense operators ops."""
    S, A, grow = ops
    x = S @ c
    s = np.add.reduce(np.square(x.view(float)), axis=-1)  # |x|^2
    return grow * c + A @ (m.h_prime(s)[:, None] * x)


@tracked("solver.flow_step")
def flow_step(m: HamiltonianModel, gamma: Loop, dt: float) -> Loop:
    """One ETD step of the upward flow d/dt c_n = n c_n - (grad H)_n.

    The final loop of flow_trajectory(m, gamma, dt, dt), whose checks and
    Blowup it shares.
    """
    return flow_trajectory(m, gamma, dt, dt).final


def _cumulative_simpson(g: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of node values, quadratic-interpolation accurate.

    Even nodes add up Simpson panels left to right; each odd node adds the
    quadratic through its last three nodes to the node before it (through
    the first three for node 1).
    """
    n = len(g)
    out = np.zeros(n)
    if n == 2:
        out[1] = 0.5 * h * (g[0] + g[1])
    if n < 3:
        return out
    panels = h * (g[:-2:2] + 4.0 * g[1:-1:2] + g[2::2]) / 3.0
    out[::2] = np.add.accumulate(np.concatenate(([0.0], panels)))
    out[1] = h * (5.0 * g[0] + 8.0 * g[1] - g[2]) / 12.0
    out[3::2] = out[2:-1:2] + h * (-g[1:-2:2] + 8.0 * g[2:-1:2] + 5.0 * g[3::2]) / 12.0
    return out


@tracked("solver.flow_trajectory")
def flow_trajectory(
    m: HamiltonianModel, gamma: Loop, T: float, dt: float | None = None
) -> FlowTrace:
    """Integrate the upward flow for time T, recording action and energy.

    T is covered in round(T / dt) equal steps, at least one when T > 0; dt
    defaults to 0.09 / N, inside the stability budget 0.1 / N.
    cumulative_energy is the quadrature of ||grad CSD||_{L^2}^2 along the
    trajectory, which on solutions equals the action increment.  The nodes
    are stepped one by one into a buffer of stack_rows rows, and each block
    of nodes gets its norms, actions (action_values) and ||grad CSD||^2
    (grad_action_values) in one call each, both read from one theta
    sampling (theta_samples); those values do not depend on the block.
    Raises Blowup at the first node whose L^2 norm passes the overflow
    guard, with the trace of the nodes before it attached (its final loop
    is the last of them, or gamma when there is none, and its blowup_time
    the time of the Blowup); the steps already taken past that node are
    discarded.
    """
    N = gamma.N
    if dt is None:
        dt = 0.09 / N
    if not dt > 0:
        raise ValueError(f"flow step dt must be positive, got {dt!r}")
    if T < 0:
        raise ValueError("flow time must be nonnegative")

    steps = max(int(round(T / dt)), 1) if T > 0 else 0
    dt_eff = T / steps if steps else dt
    if steps and dt_eff > 0.1 / N + 1e-15:
        raise ValueError(f"dt = {dt_eff:.3g} exceeds the stability budget 0.1/N = {0.1 / N:.3g}")
    ops = _etd_operators(N, dt_eff)

    times = np.arange(steps + 1) * dt_eff
    actions = np.zeros(steps + 1)
    grad_sq = np.zeros(steps + 1)
    norms = np.zeros(steps + 1)

    def trace(k: int, final: np.ndarray, blowup_time: float | None = None) -> FlowTrace:
        """The trace of the first k nodes, ending on the loop final."""
        cumulative = _cumulative_simpson(grad_sq[:k], dt_eff)
        return FlowTrace(times[:k], actions[:k], cumulative, norms[:k], Loop(final), blowup_time)

    buffer = np.empty((stack_rows(steps + 1, gamma.coeffs),) + gamma.coeffs.shape, complex)
    c = before = gamma.coeffs
    for start in range(0, steps + 1, len(buffer)):
        nodes = buffer[: steps + 1 - start]
        stop = start + len(nodes)
        # past a blowup the steps may overflow; the guard below discards them
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(len(nodes)):
                nodes[j] = c
                if start + j < steps:
                    c = _etd_step(m, ops, c)
            norms[start:stop] = np.sqrt(sobolev_sq(nodes, 0))
        failed = np.flatnonzero(~(norms[start:stop] <= BLOWUP_NORM))
        passed = int(failed[0]) if len(failed) else len(nodes)
        if passed:
            done = nodes[:passed]
            samples = theta_samples(done)
            actions[start : start + passed] = action_values(m, done, samples)
            grad_sq[start : start + passed] = sobolev_sq(grad_action_values(m, done, samples), 0)
        if passed < len(nodes):
            k = start + passed
            raise Blowup(trace(k, nodes[passed - 1] if passed else before, k * dt_eff))
        before = nodes[-1].copy()
    return trace(steps + 1, c)


@tracked("solver.gf_pushforward")
def gf_pushforward(
    m: HamiltonianModel, points: list[Loop], t: float, dt: float | None = None
) -> list[FlowTrace]:
    """The flow_trajectory of every point for time t; a point that blows up
    gives its Blowup's cut trace, whose blowup_time is set, and is not fatal."""
    traces = []
    for p in points:
        try:
            traces.append(flow_trajectory(m, p, t, dt))
        except Blowup as exc:
            traces.append(exc.trace)
    return traces
