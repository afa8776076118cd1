"""Concrete cycle families, the perturbation map, and the periodic-orbit finders.

Two families of subsets of the loop space drive the existence argument:

* the sphere family: plus-polarized loops of fixed half-norm alpha, on which
  the action is bounded below by some beta > 0 for suitable alpha;
* the box family: minus-polarized loops of half-norm <= tau shifted by
  s * e_plus, 0 <= s <= tau, whose boundary has nonpositive action once tau
  is large.

They intersect exactly in the single point alpha * e_plus, transversely on
the finite truncation.  Critical points are produced by a short upward flow
followed by Newton iteration on the mode-space residual n c_n - (grad H)_n,
whose Jacobian is the closed-form Hessian of the action, and checked against
an independent scalar oracle: for radial Hamiltonians a circle of squared
radius s with winding k is critical iff 2 h'(s) = k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverage import tracked
from .hamiltonian import HamiltonianModel, action, action_values, grad_action, grad_action_values
from .loops import (
    Loop,
    block_N,
    gaussian_block,
    inner_values,
    mode_numbers,
    sobolev_norm,
    sobolev_sq,
    theta_matrices,
)
from .cylinder import time_blocks
from .solver import Blowup, flow_trajectory, stack_rows


class NoRoot(Exception):
    """The winding number is outside the range of 2 h'."""


class NegativeBeta(Exception):
    """The sphere minimum came out nonpositive (alpha outside the window)."""

    def __init__(self, value: float):
        super().__init__(f"sphere action minimum is nonpositive: {value:.6g}")
        self.value = value


class NoAdmissibleTau(Exception):
    """The box boundary action maximum stayed positive at every tau derive_tau tried."""

    def __init__(self, tau: float, value: float):
        super().__init__(f"box boundary maximum {value:.6g} > 0 at tau = {tau:g}, the last tried")
        self.tau, self.value = tau, value


class NewtonDivergence(Exception):
    """Newton iteration failed to converge."""


class FlowBlowup(Exception):
    """The preparatory flow blew up even after shortening the flow time."""


# -- distinguished plus direction -------------------------------------------------


def e_plus(d: int = 1, N: int = 32) -> Loop:
    """Unit plus vector: coefficient 1 on mode n = 1, coordinate 0."""
    return Loop.from_modes(d, N, {1: 1.0})


def winding_seed(alpha: float, k: int, N: int) -> Loop:
    """Mode-k circle of half-norm alpha in C: alpha / sqrt(max(|k|, 1)) on mode k."""
    return Loop.from_modes(1, N, {k: alpha / np.sqrt(max(abs(k), 1))})


# -- cycle samplers ----------------------------------------------------------------


def _rescale(x: np.ndarray, radius: float) -> None:
    """Scale each row of the block x of nonzero half-norm to half-norm radius, in place."""
    nrm = np.sqrt(sobolev_sq(x, 0.5))
    scaled = nrm > 0
    x[scaled] = x[scaled] * (radius / nrm[scaled])[:, None, None]


def _gamma_block(alpha: float, count: int, seed: int, d: int, N: int) -> np.ndarray:
    """The (count, 2N+1, d) block of sample_gamma's loops."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if count < 0:
        raise ValueError(f"sample count must be nonnegative, got {count}")
    if alpha == 0:
        return np.zeros((count, 2 * N + 1, d), complex)
    rng = np.random.default_rng(seed)
    g = np.empty((count, 2 * N + 1, d), complex)
    for row in g:  # one gaussian_loop draw per sample
        row[...] = gaussian_block(rng, row.shape)
    g[:, mode_numbers(N) <= 0] = 0.0  # the plus projection
    _rescale(g, alpha)
    return g


def _sigma_block(tau: float, e_plus_coeffs: np.ndarray, count: int, seed: int) -> np.ndarray:
    """The (count, 2N+1, d) block of sample_sigma's boundary points."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if count < 0:
        raise ValueError(f"sample count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    direction = np.empty((count,) + e_plus_coeffs.shape, complex)
    radius, s = np.empty(count), np.empty(count)
    for i, row in enumerate(direction):
        row[...] = gaussian_block(rng, row.shape)
        face = i % 3
        if face == 0:
            radius[i], s[i] = tau, tau * rng.uniform()
        elif face == 1:
            radius[i], s[i] = tau * np.sqrt(rng.uniform()), 0.0
        else:
            radius[i], s[i] = tau * np.sqrt(rng.uniform()), tau
    direction[:, mode_numbers(block_N(e_plus_coeffs)) > 0] = 0.0  # the minus projection
    _rescale(direction, 1.0)
    return direction * radius[:, None, None] + e_plus_coeffs * s[:, None, None]


@tracked("cycles.sample_gamma")
def sample_gamma(
    alpha: float, count: int, seed: int, d: int = 1, N: int = 32
) -> list[Loop]:
    """Plus-polarized Gaussian loops rescaled to half-norm exactly alpha."""
    return [Loop(row) for row in _gamma_block(alpha, count, seed, d, N)]


@tracked("cycles.sample_sigma")
def sample_sigma(tau: float, e_plus_loop: Loop, count: int, seed: int) -> list[Loop]:
    """Boundary points gamma^- + s e_plus of the box ||gamma^-||_{1/2} <= tau, 0 <= s <= tau.

    The samples sit on the three boundary faces ||gamma^-|| = tau, s = 0 and
    s = tau (cycled deterministically).
    """
    return [Loop(row) for row in _sigma_block(tau, e_plus_loop.coeffs, count, seed)]


# -- sphere minimum and box boundary ------------------------------------------------


#: derive_tau doubles tau from 1 at most this many times
_TAU_DOUBLINGS = 12


def _descent_step(
    m: HamiltonianModel,
    c: np.ndarray,
    value: np.ndarray,
    step: np.ndarray,
    active: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """One projected descent step of the rows `active` of the block c.

    Updates c, value and step in place and returns the rows still descending.
    The backtracking line search runs in windows: each of the s rows still
    searching gets k = max(1, stack_rows(s * trials left, c) // s) consecutive
    trials, stacked row by row into one action_values call.
    Trial j of a window uses the row's step halved j times.  A row takes
    its first trial that lowers its value, with that trial's step times
    1.3; a row with none carries its step halved k times into the next
    window, and stops after 25 trials.  Every candidate row is formed
    and evaluated exactly as the same trial of a row searching alone.
    """
    plus = (mode_numbers(block_N(c)) > 0)[:, None]
    gamma = c[active]
    g = np.where(plus, grad_action_values(m, gamma), 0.0)
    # remove the radial component in the half-norm metric
    radial = inner_values(g, gamma, 0.5) / alpha**2
    direction = g - gamma * radial[:, None, None]
    dir_norm = np.sqrt(sobolev_sq(direction, 0.5))
    moving = dir_norm > 1e-14 * (1.0 + alpha)
    active, gamma = active[moving], gamma[moving]
    direction, dir_norm = direction[moving], dir_norm[moving]
    searching = np.arange(active.size)  # positions in `active`
    trials_left = 25
    while searching.size and trials_left:
        k = max(1, stack_rows(searching.size * trials_left, c) // searching.size)
        rows = active[searching]
        # steps[r, j]: the step of row r halved j times, one halving at a time
        halvings = np.full((rows.size, k), 0.5)
        halvings[:, 0] = step[rows]
        steps = np.multiply.accumulate(halvings, axis=1)
        candidate = (
            gamma[searching, None] - direction[searching, None]
            * (steps / dir_norm[searching, None])[:, :, None, None]
        ).reshape((-1,) + gamma.shape[1:])
        _rescale(candidate, alpha)
        cand_value = action_values(m, candidate)
        accept = cand_value.reshape(rows.size, k) < value[rows, None] - 1e-15
        took = accept.any(axis=1)
        trial = accept.argmax(axis=1)[took]  # each accepting row's first accepting trial
        win = rows[took]
        pick = np.flatnonzero(took) * k + trial
        c[win] = candidate[pick]
        value[win] = cand_value[pick]
        step[win] = steps[took, trial] * 1.3
        step[rows[~took]] = steps[~took, -1] * 0.5
        searching = searching[~took]
        trials_left -= k
    return np.delete(active, searching)


@tracked("cycles.estimate_beta")
def estimate_beta(
    m: HamiltonianModel,
    alpha: float,
    samples: int = 48,
    descent_steps: int = 120,
    seed: int = 0,
    d: int = 1,
    N: int = 32,
) -> float:
    """Minimum of the action over the alpha-sphere in the plus sector.

    Projected gradient descent constrained to the sphere, from `samples`
    random starts plus the distinguished point alpha * e_plus.  For alpha > 0
    raises NegativeBeta when the estimate is nonpositive; alpha = 0 returns
    0.0, since that sphere is the zero loop alone.

    All starts descend together as one (starts, 2N+1, d) block: the rows of
    sample_gamma's block, then alpha * e_plus.  Each row keeps its own
    action value and step, and runs its own backtracking line search (at
    most 25 trials, in the windows of _descent_step); a row stops when
    its tangential gradient vanishes or a search fails.  Every row sees the
    same operations in the same order as a start descending alone, one
    trial at a time, so the estimate does not depend on how many starts
    share the block or on how many trials share a window.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if descent_steps < 0:
        raise ValueError(f"descent_steps must be nonnegative, got {descent_steps}")
    if alpha == 0:
        return 0.0
    c = np.concatenate([_gamma_block(alpha, samples, seed, d, N), [(alpha * e_plus(d, N)).coeffs]])
    # values only ever decrease, so each row's final value is its minimum
    value = action_values(m, c)
    step = np.full(len(c), 0.1 * alpha)
    active = np.arange(len(c))
    for _ in range(descent_steps):
        if active.size == 0:
            break
        active = _descent_step(m, c, value, step, active, alpha)
    best = float(value.min())
    if best <= 0:
        raise NegativeBeta(best)
    return best


@tracked("cycles.scan_alpha")
def scan_alpha(
    m: HamiltonianModel,
    alphas: np.ndarray | None = None,
    samples: int = 48,
    descent_steps: int = 120,
    seed: int = 0,
    N: int = 32,
) -> tuple[float, float, list[dict]]:
    """Scan alpha over a log grid for the largest beta > 0 (NegativeBeta if there is none)."""
    if alphas is None:
        alphas = np.geomspace(0.05, 2.0, 12)
    if len(alphas) == 0:
        raise ValueError("alphas must not be empty")
    if any(float(a) < 0 for a in alphas):
        raise ValueError("alpha must be nonnegative")
    table = []
    best_alpha, best_beta = None, 0.0
    for a in alphas:
        try:
            beta = estimate_beta(
                m, float(a), samples=samples, descent_steps=descent_steps, seed=seed, N=N
            )
        except NegativeBeta as exc:
            beta = float(exc.value)
        table.append({"alpha": float(a), "beta": beta, "positive": beta > 0})
        if beta > best_beta:
            best_alpha, best_beta = float(a), beta
    if best_alpha is None:
        raise NegativeBeta(max(row["beta"] for row in table))
    return best_alpha, best_beta, table


@tracked("cycles.check_sigma_boundary")
def check_sigma_boundary(
    m: HamiltonianModel,
    tau: float,
    samples: int = 240,
    seed: int = 1,
    d: int = 1,
    N: int = 32,
) -> float:
    """Maximum of the action over sampled boundary faces of the box family."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    coeffs = _sigma_block(tau, e_plus(d, N).coeffs, samples, seed)
    blocks = time_blocks(samples, stack_rows(samples, coeffs))
    return float(max(np.max(action_values(m, coeffs[a:b])) for a, b in blocks))


def derive_tau(
    m: HamiltonianModel, samples: int = 240, seed: int = 1, N: int = 32
) -> tuple[float, float]:
    """Double tau from 1 until the box boundary action maximum is nonpositive.

    Returns that tau and the maximum measured there; raises NoAdmissibleTau
    when none of the _TAU_DOUBLINGS values of tau is admissible.
    """
    tau = 1.0
    for _ in range(_TAU_DOUBLINGS):
        boundary_max = check_sigma_boundary(m, tau, samples=samples, seed=seed, N=N)
        if boundary_max <= 0:
            return tau, boundary_max
        tau *= 2.0
    raise NoAdmissibleTau(tau / 2.0, boundary_max)


# -- perturbation map ----------------------------------------------------------------


@tracked("cycles.rho")
def rho(x):
    """C^1 bump: 1 on [-1, 1], 1/x^2 outside [-2, 2], monotone Hermite between."""
    x = np.abs(np.asarray(x, dtype=float))
    t = np.clip(x - 1.0, 0.0, 1.0)
    # cubic Hermite on [1, 2]: values 1 -> 1/4, slopes 0 -> -1/4
    blend = (2 * t**3 - 3 * t**2 + 1) + 0.25 * (-2 * t**3 + 3 * t**2) - 0.25 * (t**3 - t**2)
    with np.errstate(divide="ignore"):
        tail = np.where(x >= 2.0, 1.0 / np.maximum(x, 2.0) ** 2, 0.0)
    out = np.where(x <= 1.0, 1.0, np.where(x >= 2.0, tail, blend))
    return float(out) if out.ndim == 0 else out


@tracked("cycles.perturb")
def perturb(sigma_point: Loop, v: Loop) -> Loop:
    """sigma_point + rho(||sigma_point||^2_{1/2}) v, with v in the unit L^2_2 ball."""
    sigma_point._check(v)
    ball = float(sobolev_sq(v.coeffs, 2))
    if ball > 1.0 + 1e-12:
        raise ValueError(f"perturbation lies outside the unit L^2_2 ball ({ball:.4g} > 1)")
    scale = rho(sobolev_norm(sigma_point, 0.5) ** 2)
    return sigma_point + scale * v


# -- orbit results --------------------------------------------------------------------

#: largest radius or action error of a found orbit against radial_orbit_oracle
ORACLE_ERROR_MAX = 1e-6


@dataclass(frozen=True)
class OrbitResult:
    """A (candidate) periodic orbit: radial circle of given winding number."""

    loop: Loop
    winding: int
    radius: float
    action: float
    gradient_norm: float
    newton_iterations: int
    action_below_beta: bool = False


@tracked("cycles.radial_orbit_oracle")
def radial_orbit_oracle(m: HamiltonianModel, k: int) -> OrbitResult:
    """Ground-truth orbit from scalar root finding: solve 2 h'(s) = k by bisection.

    Independent of the PDE machinery: monotone h' makes the root unique, and
    the circle sqrt(s) e^{i k theta} satisfies gamma' = X_H(gamma) exactly.
    """
    if m.variant != "bump":
        raise ValueError("the orbit oracle needs the bump variant")
    if not isinstance(k, (int, np.integer)) or k == 0:
        raise ValueError("winding k must be a nonzero integer")
    if not (0 < k < 2.0 * m.slope):
        raise NoRoot(f"2 h' ranges over (0, {2 * m.slope:.6g}]; no root for k = {k}")
    lo, hi = m.s0, m.s1
    f = lambda s: 2.0 * m.h_prime(s) - k
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * m.s1:
            break
    s = 0.5 * (lo + hi)
    radius = float(np.sqrt(s))
    N = max(32, abs(k) + 1)
    loop = Loop.from_modes(1, N, {k: radius})
    orbit_action = 0.5 * k * s - float(m.h(s))
    grad = grad_action(m, loop)
    return OrbitResult(
        loop=loop,
        winding=int(k),
        radius=radius,
        action=float(orbit_action),
        gradient_norm=sobolev_norm(grad, 0),
        newton_iterations=0,
    )


# -- Newton refinement ------------------------------------------------------------------


def _flatten_real(block: np.ndarray) -> np.ndarray:
    return np.concatenate([block.real.ravel(), block.imag.ravel()])


def _newton_matrix(m: HamiltonianModel, gamma: Loop) -> tuple[np.ndarray, np.ndarray]:
    """Residual and dense real Jacobian of R(c) = {n c_n - (grad H o gamma)_n}.

    The Jacobian is n minus the closed-form Hessian of the theta mean of H.
    At a node value x, Hess H (w) = a w + b conj(w) with the d x d matrices
    a = 2 h' I + 2 h'' x x^H and b = 2 h'' x x^T (h', h'' at |x|^2).  With
    (S, Y) = theta_matrices(N), coordinate pair (i, j) gives the mode blocks
    A_ij = Y a_ij S and B_ij = Y b_ij conj(S), and a direction u + i v maps
    to (A + B) u + i (A - B) v.  In the layout of _flatten_real that is

        J = diag(n, n) - [[Re(A + B), -Im(A - B)], [Im(A + B), Re(A - B)]].
    """
    N, d = gamma.N, gamma.d
    S, Y = theta_matrices(N)
    x = S @ gamma.coeffs
    s = np.sum(np.abs(x) ** 2, axis=-1)
    hp, hpp = (2.0 * m.h_prime(s))[:, None, None], (2.0 * m.h_second(s))[:, None, None]
    a = hp * np.eye(d) + hpp * x[:, :, None] * x.conj()[:, None, :]
    b = hpp * x[:, :, None] * x[:, None, :]

    K = 2 * N + 1
    plus, minus = np.empty((2, K, d, K, d), complex)
    for i, j in np.ndindex(d, d):
        A = (Y * a[:, i, j]) @ S
        B = (Y * b[:, i, j]) @ S.conj()
        plus[:, i, :, j], minus[:, i, :, j] = A + B, A - B
    plus, minus = plus.reshape(K * d, K * d), minus.reshape(K * d, K * d)
    jac = -np.block([[plus.real, -minus.imag], [plus.imag, minus.real]])
    jac[np.diag_indices_from(jac)] += np.tile(np.repeat(mode_numbers(N), d), 2)
    return _flatten_real(grad_action_values(m, gamma.coeffs)), jac


#: Newton steps, and halvings of a flow time that blew up, in find_critical_point
_MAX_NEWTON, _FLOW_RETRIES = 60, 3


@tracked("cycles.find_critical_point")
def find_critical_point(
    m: HamiltonianModel,
    seed_loop: Loop,
    flow_time: float = 1.0,
    newton_tol: float = 1e-10,
    beta: float | None = None,
) -> OrbitResult:
    """Short upward flow, then Newton on the mode-space critical equation.

    The flow escapes the flat core (where every loop is critical only in the
    trivial sense); Newton converges quadratically near nondegenerate radial
    orbits.  A blown-up flow is retried with half the time, then FlowBlowup.
    An orbit with action below the supplied beta is flagged, not rejected.
    """
    if flow_time < 0:
        raise ValueError(f"flow_time must be nonnegative, got {flow_time!r}")
    if newton_tol < 0:
        raise ValueError(f"newton_tol must be nonnegative, got {newton_tol!r}")
    gamma = seed_loop
    if flow_time > 0 and sobolev_norm(seed_loop, 0) > 0:
        t = flow_time
        for attempt in range(_FLOW_RETRIES + 1):
            try:
                gamma = flow_trajectory(m, seed_loop, t).final
                break
            except Blowup:
                t *= 0.5
        else:
            raise FlowBlowup(f"flow blew up down to flow_time = {t * 2:.3g}")

    c = gamma.coeffs.copy()
    iterations = 0
    initial_norm = None
    for iterations in range(0, _MAX_NEWTON + 1):
        current = Loop(c)
        res, jac = _newton_matrix(m, current)
        res_norm = float(np.linalg.norm(res))
        if initial_norm is None:
            initial_norm = res_norm
        if not np.isfinite(res_norm) or res_norm > 1e6 * (1.0 + initial_norm):
            raise NewtonDivergence(f"residual grew to {res_norm:.3g}")
        if res_norm <= newton_tol:
            break
        if iterations == _MAX_NEWTON:
            raise NewtonDivergence(
                f"no convergence to {newton_tol:.3g} in {_MAX_NEWTON} Newton steps"
            )
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        c = c + (step[: c.size] + 1j * step[c.size :]).reshape(c.shape)

    final = Loop(c)
    radius = sobolev_norm(final, 0)
    if radius <= 1e-6:
        winding = 0
        radius = 0.0
    else:
        amplitudes = np.sum(np.abs(final.coeffs) ** 2, axis=1)
        winding = int(final.modes[int(np.argmax(amplitudes))])
    value = action(m, final)
    grad_norm = sobolev_norm(grad_action(m, final), 0)
    flagged = beta is not None and value < beta - 1e-12
    return OrbitResult(
        loop=final,
        winding=winding,
        radius=float(radius),
        action=float(value),
        gradient_norm=float(grad_norm),
        newton_iterations=iterations,
        action_below_beta=bool(flagged),
    )


# -- transversality at the intersection point --------------------------------------------


def transversality_check(alpha: float, tau: float, N: int = 32) -> dict:
    """Finite-truncation transversality of the sphere/box intersection.

    Assembles the tangent spaces at alpha * e_plus (sphere tangent inside the
    plus sector, box tangent = minus sector plus the e_plus segment) as real
    coefficient vectors and reports the smallest singular value of the
    combined square matrix, plus the uniqueness datum: the plus sector meets
    the box parameterization span only along e_plus, forcing s = alpha.
    """
    if not (0 < alpha <= tau):
        raise ValueError("need 0 < alpha <= tau for the intersection point to exist")
    n_entries = 2 * N + 1
    units = np.eye(2 * n_entries)

    def unit_indices(modes: np.ndarray) -> np.ndarray:
        """Flat indices (as _flatten_real lays them out for d = 1) of the unit
        vectors of `modes` x (real, imaginary), in that order."""
        return ((N + modes)[:, None] + np.array([0, n_entries])[None, :]).ravel()

    # the plus sector, e_plus = real unit of mode 1 first
    plus = unit_indices(np.arange(1, N + 1))
    # sphere tangent: plus sector minus the e_plus direction itself; box
    # tangent: full minus sector plus the segment direction e_plus
    box = np.append(unit_indices(np.arange(-N, 1)), plus[0])
    matrix = units[:, np.concatenate([plus[1:], box])]
    svals = np.linalg.svd(matrix, compute_uv=False)
    # intersection of the plus sector with span(minus sector, e_plus):
    # count common directions via principal angles
    q_plus, _ = np.linalg.qr(units[:, plus])
    q_box, _ = np.linalg.qr(units[:, box])
    cosines = np.linalg.svd(q_plus.T @ q_box, compute_uv=False)
    intersection_dim = int(np.sum(cosines >= 1.0 - 1e-10))

    point = alpha * e_plus(1, N)
    return {
        "sigma_min": float(svals[-1]),
        "sigma_max": float(svals[0]),
        "intersection_dim": intersection_dim,
        "point": point,
        "s_at_intersection": float(alpha),
    }
