"""The shared theta grid and grad-H path reproduce every former per-site copy.

Each nonlinear term used to sample on its own 4N-point grid and resynthesize
grad H (or X_H) by hand.  The reference functions below keep those copies as
they were written at each call site; the tests require byte-identical
results from `theta_values` + `grad_h_modes` and from the routines built on
them.

The upward flow is the exception: it steps through dense sampling and
synthesis matrices, which round differently from the FFT pair of its
reference `old_flow_nodes`.  Its coefficients, actions, norms and energies
are compared at relative 1e-14 in norm; times, node counts and blowup
times stay exact, as does flow_step against the one-step trajectory.  Its
node diagnostics are bit-identical whatever the block they are taken in.
"""

import warnings

import numpy as np
import pytest

from looplab import cylinder, solver
from looplab.cycles import _flatten_real, _newton_matrix
from looplab.cylinder import CylinderMap, dt_derivative, energy, time_trapezoid
from looplab.hamiltonian import (
    HamiltonianModel,
    action,
    eval_gradH,
    eval_H,
    eval_XH,
    grad_action,
    grad_action_values,
    grad_h_modes,
)
from looplab.loops import (
    Loop,
    gaussian_loop,
    project,
    sample,
    sample_coeffs,
    sobolev_norm,
    synthesize_values,
    theta_points,
    theta_values,
)
from looplab.solver import (
    BLOWUP_NORM,
    Blowup,
    _cumulative_simpson,
    _etd_coefficients,
    _etd_operators,
    flow_step,
    flow_trajectory,
)

NS = (4, 8, 32)
DS = (1, 2)
MODELS = (HamiltonianModel(), HamiltonianModel(eps_H=0.3, variant="pure_quadratic"))
DEFAULT_BLOCK_BYTES = cylinder.BLOCK_BYTES


def coefficient_block(N, d, lead=(), seed=0):
    """Random modes whose theta values spread over the core, ramp and tail of h."""
    rng = np.random.default_rng(seed + 97 * N + 13 * d + len(lead))
    shape = lead + (2 * N + 1, d)
    scale = 1.2 / np.sqrt(2 * N + 1)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def assert_same_bytes(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


def assert_close(new, old, rel):
    """new within rel of old in the Euclidean norm of the whole array."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype
    assert np.linalg.norm(new - old) <= rel * np.linalg.norm(old)


# -- the former per-site copies ----------------------------------------------------


def old_solver_grad_h_modes(m, values, N):
    """The former solver._grad_h_modes, now hamiltonian.grad_h_modes (Picard, uniqueness)."""
    grid = sample_coeffs(values, 4 * N)
    return synthesize_values(eval_gradH(m, grid), N)


def old_grad_action(m, gamma):
    """Body of hamiltonian.grad_action."""
    vals = sample(gamma, 4 * gamma.N)
    grad_modes = synthesize_values(eval_gradH(m, vals), gamma.N)
    n = gamma.modes.astype(float)
    return n[:, None] * gamma.coeffs - grad_modes


def old_action(m, gamma):
    """Body of hamiltonian.action."""
    n = gamma.modes.astype(float)
    quad = 0.5 * float(np.sum(n[:, None] * np.abs(gamma.coeffs) ** 2))
    vals = sample(gamma, 4 * gamma.N)
    return quad - float(np.mean(eval_H(m, vals)))


def old_flow_nodes(m, c, N, T, dt):
    """Per-node loop of solver.flow_trajectory with the FFT pair of each step.

    Returns times, actions, |grad|^2 and norms of the nodes before the
    overflow guard fired, the coefficients at the last of them (the start
    when there is none), the blowup time (None without one) and the step
    actually taken.
    """
    steps = max(int(round(T / dt)), 0) if T > 0 else 0
    if T > 0 and steps == 0:
        steps = 1
    dt = T / steps if steps else dt
    n = np.arange(-N, N + 1).astype(float)
    grow, weight = _etd_coefficients(N, dt)
    times, actions, grad_sq, norms = (np.zeros(steps + 1) for _ in range(4))
    c = before = c.copy()
    for k in range(steps + 1):
        t_k = k * dt
        norm_k = float(np.sqrt(np.sum(np.abs(c) ** 2)))
        times[k], norms[k] = t_k, norm_k
        if not np.isfinite(norm_k) or norm_k > BLOWUP_NORM:
            return times[:k], actions[:k], grad_sq[:k], norms[:k], before, t_k, dt
        grid = sample_coeffs(c, 4 * N)
        quad = 0.5 * float(np.sum(n[:, None] * np.abs(c) ** 2))
        actions[k] = quad - float(np.mean(m.h(np.sum(np.abs(grid) ** 2, axis=-1))))
        grad_modes = n[:, None] * c - synthesize_values(eval_gradH(m, grid), N)
        grad_sq[k] = float(np.sum(np.abs(grad_modes) ** 2))
        if k < steps:
            before, c = c, grow[:, None] * c + weight[:, None] * (grad_modes - n[:, None] * c)
    return times, actions, grad_sq, norms, c, None, dt


def old_cumulative_simpson(g, h):
    """solver._cumulative_simpson as a loop over the nodes."""
    n = len(g)
    out = np.zeros(n)
    if n == 1:
        return out
    if n == 2:
        out[1] = 0.5 * h * (g[0] + g[1])
        return out
    for k in range(1, n):
        if k == 1:
            out[1] = h * (5.0 * g[0] + 8.0 * g[1] - g[2]) / 12.0
        elif k % 2 == 0:
            out[k] = out[k - 2] + h * (g[k - 2] + 4.0 * g[k - 1] + g[k]) / 3.0
        else:
            out[k] = out[k - 1] + h * (-g[k - 2] + 8.0 * g[k - 1] + 5.0 * g[k]) / 12.0
    return out


def old_newton_residual(m, gamma):
    """Hand-expanded residual block of cycles._newton_matrix."""
    N = gamma.N
    n = np.arange(-N, N + 1).astype(float)
    vals = sample_coeffs(gamma.coeffs, 4 * N)
    s = np.sum(np.abs(vals) ** 2, axis=-1)
    hp = m.h_prime(s)
    return n[:, None] * gamma.coeffs - synthesize_values((2.0 * hp)[:, None] * vals, N)


def old_newton_jacobian(m, gamma):
    """Jacobian block of cycles._newton_matrix: the Hessian pushed through
    the theta grid one basis direction at a time, read back as columns."""
    N, d = gamma.N, gamma.d
    n = np.arange(-N, N + 1).astype(float)
    vals = theta_values(gamma.coeffs)
    s = np.sum(np.abs(vals) ** 2, axis=-1)
    hp = m.h_prime(s)
    hpp = m.h_second(s)

    n_entries = (2 * N + 1) * d
    basis = np.zeros((2 * n_entries, 2 * N + 1, d), complex)
    eye = np.eye(n_entries).reshape(n_entries, 2 * N + 1, d)
    basis[:n_entries] = eye
    basis[n_entries:] = 1j * eye

    w_vals = theta_values(basis)  # (B, M, d)
    cross = np.sum((vals.conj()[None] * w_vals).real, axis=-1)  # Re<x, w>
    hess_vals = (2.0 * hp)[None, :, None] * w_vals + (4.0 * hpp)[None, :, None] * cross[
        :, :, None
    ] * vals[None]
    hess_modes = synthesize_values(hess_vals, N)
    columns = n[None, :, None] * basis - hess_modes  # (B, 2N+1, d)

    B = 2 * n_entries
    return np.concatenate([columns.real.reshape(B, -1), columns.imag.reshape(B, -1)], axis=1).T


def old_energy_xh_modes(m, values, N):
    """X_H modes in cylinder.energy."""
    grid = sample_coeffs(values, 4 * N)
    return synthesize_values(eval_XH(m, grid), N)


def old_energy_defect_form(m, u):
    """cylinder.energy with the density |u_theta - X_H(u)|^2 in place of |grad CSD|^2."""
    h = u.dt
    du = dt_derivative(u.values, h)
    n = np.arange(-u.N, u.N + 1).astype(float)
    u_theta = (1j * n)[None, :, None] * u.values
    defect = u_theta - 1j * grad_h_modes(m, u.values)
    density = np.sum(np.abs(du) ** 2 + np.abs(defect) ** 2, axis=(1, 2))
    return float(0.5 * time_trapezoid(density, h))


def old_energy(m, u):
    """cylinder.energy as a whole."""
    h = u.dt
    du = dt_derivative(u.values, h)
    n = np.arange(-u.N, u.N + 1).astype(float)
    u_theta = (1j * n)[None, :, None] * u.values
    defect = u_theta - old_energy_xh_modes(m, u.values, u.N)
    density = np.sum(np.abs(du) ** 2 + np.abs(defect) ** 2, axis=(1, 2))
    return float(0.5 * time_trapezoid(density, h))


# -- the shared path ---------------------------------------------------------------


def test_theta_grid_is_4n():
    for N in NS:
        assert theta_points(N) == 4 * N
        c = coefficient_block(N, 2)
        assert_same_bytes(theta_values(c), sample_coeffs(c, 4 * N))


@pytest.mark.parametrize("m", MODELS, ids=("bump", "pure_quadratic"))
@pytest.mark.parametrize("lead", [(), (5,)], ids=("loop", "time_axis"))
@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("N", NS)
def test_grad_h_modes_matches_solver_copy(N, d, lead, m):
    c = coefficient_block(N, d, lead)
    new = grad_h_modes(m, c)
    assert new.shape == lead + (2 * N + 1, d)
    assert_same_bytes(new, old_solver_grad_h_modes(m, c, N))


@pytest.mark.parametrize("lead", [(), (5,)], ids=("loop", "time_axis"))
@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("N", NS)
def test_energy_xh_modes(N, d, lead):
    m = MODELS[0]
    c = coefficient_block(N, d, lead, seed=1)
    new = 1j * grad_h_modes(m, c)
    assert_same_bytes(new, old_energy_xh_modes(m, c, N))


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("N", NS)
def test_energy(N, d):
    m = MODELS[0]
    u = CylinderMap(0.1, coefficient_block(N, d, (9,), seed=2))
    assert_same_bytes(energy(m, u), old_energy(m, u))


@pytest.mark.parametrize("m", MODELS, ids=("bump", "pure_quadratic"))
@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("N", NS)
def test_energy_is_the_defect_form(N, d, m):
    # u_theta - X_H(u) = i (n u - grad H), and |.| ignores the sign and order of the parts
    u = CylinderMap(0.1, coefficient_block(N, d, (9,), seed=5))
    assert_same_bytes(energy(m, u), old_energy_defect_form(m, u))


@pytest.mark.parametrize("m", MODELS, ids=("bump", "pure_quadratic"))
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=("loop", "lead5", "lead2x3"))
@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("N", NS)
def test_grad_action_values_per_block(N, d, lead, m):
    c = coefficient_block(N, d, lead, seed=6)
    new = grad_action_values(m, c)
    assert new.shape == c.shape
    for idx in np.ndindex(lead):
        gamma = Loop(c[idx])
        assert_same_bytes(new[idx], grad_action(m, gamma).coeffs)
        assert_same_bytes(new[idx], old_grad_action(m, gamma))


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("N", NS)
def test_action_and_grad_action(N, d):
    for m in MODELS:
        gamma = Loop(coefficient_block(N, d, seed=3))
        assert_same_bytes(grad_action(m, gamma).coeffs, old_grad_action(m, gamma))
        assert_same_bytes(action(m, gamma), old_action(m, gamma))


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("N", NS)
def test_newton_residual(N, d):
    m = MODELS[0]
    gamma = Loop(coefficient_block(N, d, seed=4))
    residual, _ = _newton_matrix(m, gamma)
    assert_same_bytes(residual, _flatten_real(old_newton_residual(m, gamma)))


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("N", (8, 32))
def test_newton_jacobian_matches_basis_columns(N, d):
    # the closed-form Hessian against the whole-basis push through the FFT
    # pair; measured at most 2.1e-16 of max |J|
    m = MODELS[0]
    gamma = Loop(coefficient_block(N, d, seed=4))
    _, jac = _newton_matrix(m, gamma)
    old = old_newton_jacobian(m, gamma)
    assert jac.shape == old.shape and jac.dtype == old.dtype
    assert np.max(np.abs(jac - old)) <= 1e-13 * np.max(np.abs(old))


@pytest.mark.parametrize("d", (1, 2, 3))
def test_newton_jacobian_columns_are_residual_derivatives(d):
    # central differences of the residual, which shares no code with the
    # Hessian; measured at most 4.6e-11 of max |J|
    m, N, step = MODELS[0], 8, 1e-6
    gamma = Loop(coefficient_block(N, d, seed=4))
    _, jac = _newton_matrix(m, gamma)
    size = gamma.coeffs.size
    for col in (0, N * d, size - 1, size, size + N * d + d - 1, 2 * size - 1):
        delta = np.zeros(2 * size)
        delta[col] = step
        shift = (delta[:size] + 1j * delta[size:]).reshape(gamma.coeffs.shape)
        up, _ = _newton_matrix(m, Loop(gamma.coeffs + shift))
        down, _ = _newton_matrix(m, Loop(gamma.coeffs - shift))
        assert np.max(np.abs((up - down) / (2 * step) - jac[:, col])) <= 1e-9 * np.max(np.abs(jac))


FLOW_REL = 1e-14  # the dense step against the FFT pair; measured at most 6.1e-16


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("N", NS)
def test_flow_step(N, d):
    gamma = Loop(coefficient_block(N, d, seed=5))
    dt = 0.05 / N
    for m in MODELS:
        # flow_step is one step of the trajectory, bit for bit
        old = old_flow_nodes(m, gamma.coeffs, N, dt, dt)[4]
        step = flow_step(m, gamma, dt).coeffs
        assert_close(step, old, FLOW_REL)
        assert_same_bytes(step, flow_trajectory(m, gamma, dt, dt).final.coeffs)


def assert_same_trace(trace, old):
    times, actions, grad_sq, norms, _, _, dt = old
    assert_same_bytes(trace.times, times)
    assert_close(trace.actions, actions, FLOW_REL)
    assert_close(trace.norms, norms, FLOW_REL)
    assert_close(trace.cumulative_energy, old_cumulative_simpson(grad_sq, dt), FLOW_REL)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("N", NS)
def test_flow_trajectory(N, d):
    gamma = Loop(coefficient_block(N, d, seed=6))
    dt = 0.05 / N
    for m in MODELS:
        # 12 steps, no step (T = 0), and 12 steps of T / 12 for a T that dt does not divide
        for steps in (12, 0, 12.4):
            trace = flow_trajectory(m, gamma, steps * dt, dt)
            old = old_flow_nodes(m, gamma.coeffs, N, steps * dt, dt)
            assert old[5] is None and len(trace.times) == round(steps) + 1
            assert_same_trace(trace, old)
            assert_close(trace.final.coeffs, old[4], FLOW_REL)


def blowup_seed():
    """A plus-mode loop at N = 32 whose flow passes the overflow guard at node 269 or 275."""
    rng = np.random.default_rng(43)
    seed = project(gaussian_loop(1, 32, rng), "plus")
    return (0.45 / sobolev_norm(seed, 0.5)) * seed, 3.0, 0.09 / 32


@pytest.mark.parametrize("m", MODELS, ids=("bump", "pure_quadratic"))
def test_flow_trajectory_blowup(m):
    seed, T, dt = blowup_seed()
    with pytest.raises(Blowup) as exc:
        flow_trajectory(m, seed, T, dt)
    old = old_flow_nodes(m, seed.coeffs, 32, T, dt)
    assert old[5] is not None and len(old[0]) > 0
    assert exc.value.time == old[5]
    trace = exc.value.trace
    assert len(trace.times) == len(old[0])
    assert_same_trace(trace, old)
    # the partial trace ends on the last node before the guard fired
    assert_close(trace.final.coeffs, old[4], FLOW_REL)


def flow_outcome(m, gamma, T, dt):
    """(trace, blowup time or None) of flow_trajectory, the partial trace on a blowup."""
    try:
        return flow_trajectory(m, gamma, T, dt), None
    except Blowup as exc:
        return exc.trace, exc.time


def stack_budget(rows, gamma):
    """The BLOCK_BYTES at which stack_rows gives `rows` rows of gamma's coefficient stack."""
    return rows * 8 * theta_points(gamma.N) * gamma.d * np.dtype(complex).itemsize


@pytest.mark.parametrize("rows", [1, 2, 7, None], ids=("rows1", "rows2", "rows7", "default"))
def test_flow_trajectory_node_blocks(rows, monkeypatch):
    """Node diagnostics per block match those of one block holding every node."""
    # 1001 nodes at N = 8, d = 2 (128 a default block), and the guard firing
    # inside the fifth default block at N = 32 (64 a block)
    full = (Loop.from_modes(2, 8, {1: [0.55, 0.1j], -2: [0.3j, 0.2], 3: [0.1, 0.0]}), 0.5, 5e-4)
    for m in MODELS:
        for (gamma, T, dt), blows_up in ((full, False), (blowup_seed(), True)):
            monkeypatch.setattr(cylinder, "BLOCK_BYTES", stack_budget(10**6, gamma))
            whole, whole_time = flow_outcome(m, gamma, T, dt)
            budget = DEFAULT_BLOCK_BYTES if rows is None else stack_budget(rows, gamma)
            monkeypatch.setattr(cylinder, "BLOCK_BYTES", budget)
            assert solver.stack_rows(10**6, gamma.coeffs) == (rows or 2048 // (gamma.N * gamma.d))
            trace, time = flow_outcome(m, gamma, T, dt)
            assert (whole_time is not None) == blows_up and len(whole.times) > 256
            assert time == whole_time
            for key in ("times", "actions", "cumulative_energy", "norms"):
                assert_same_bytes(getattr(trace, key), getattr(whole, key))
            assert_same_bytes(trace.final.coeffs, whole.final.coeffs)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("N", NS)
def test_stack_rows_fill_an_eighth_of_block_bytes(N, d, monkeypatch):
    # one row of a stack is 4N d complex theta samples: 64 rows at N = 32 and
    # 256 at N = 8 for d = 1 in the default 1 MiB, at least one, at most n_rows
    block = coefficient_block(N, d, lead=(3,))
    assert solver.stack_rows(10**6, block) == 2**20 // (8 * 4 * N * d * 16)
    assert solver.stack_rows(5, block) == 5
    monkeypatch.setattr(cylinder, "BLOCK_BYTES", stack_budget(7, Loop(block[0])) + 1)
    assert solver.stack_rows(10**6, block) == 7
    monkeypatch.setattr(cylinder, "BLOCK_BYTES", 1)
    assert solver.stack_rows(10**6, block) == 1


@pytest.mark.parametrize("N", (8, 32))
def test_flow_blowup_raises_no_warning(N):
    """A start far past the guard overflows the discarded steps silently."""
    gamma = Loop.from_modes(1, N, {N: 1e200})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Blowup) as exc:
            flow_trajectory(MODELS[0], gamma, 100 * 0.09 / N, 0.09 / N)
        with pytest.raises(Blowup):
            flow_step(MODELS[0], gamma, 0.09 / N)
    assert exc.value.time == 0.0 and len(exc.value.trace.times) == 0
    assert_same_bytes(exc.value.trace.final.coeffs, gamma.coeffs)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("N", NS)
def test_etd_operators_match_fft_bridge(N, d):
    dt = 0.05 / N
    S, A, _ = _etd_operators(N, dt)
    c = coefficient_block(N, d, seed=8)
    values = theta_values(coefficient_block(N, d, seed=9))
    weight = _etd_coefficients(N, dt)[1][:, None]
    assert_close(S @ c, sample_coeffs(c, theta_points(N)), 1e-15)
    assert_close(A @ values, -2.0 * weight * synthesize_values(values, N), 1e-15)


@pytest.mark.parametrize("n", [*range(1, 10), 50001])
def test_cumulative_simpson(n):
    g = np.random.default_rng(n).standard_normal(n) ** 2
    for h in (1e-5, 0.3):
        assert_same_bytes(_cumulative_simpson(g, h), old_cumulative_simpson(g, h))
