import numpy as np
import pytest

from looplab.cylinder import BoundaryData, CylinderMap, cyl_norm, decompose, p_op, q_op
from looplab.hamiltonian import HamiltonianModel, action
from looplab.loops import Loop, gaussian_loop, project, sobolev_norm
from looplab.solver import (
    BallExit,
    Blowup,
    ContractionFailure,
    SolverError,
    collar_solve,
    flow_step,
    flow_trajectory,
    gf_pushforward,
    h_eps_sensitivity,
    picard_solve,
)


def assert_same_trace(trace, expected):
    """Two FlowTraces with the same bytes in every array and the same blowup time."""
    for key in ("times", "actions", "cumulative_energy", "norms"):
        assert getattr(trace, key).tobytes() == getattr(expected, key).tobytes()
    assert trace.final.coeffs.tobytes() == expected.final.coeffs.tobytes()
    assert trace.blowup_time == expected.blowup_time


@pytest.fixture(scope="module")
def model():
    return HamiltonianModel()


def mode_data(n: int, coeff: complex, N: int = 32) -> BoundaryData:
    loop = Loop.from_modes(1, N, {n: coeff})
    if n <= 0:
        return BoundaryData(plus0=loop, minus_end=Loop.zero(1, N))
    return BoundaryData(plus0=Loop.zero(1, N), minus_end=loop)


class TestPicard:
    def test_zero_data_zero_solution(self, model):
        res = picard_solve(model, BoundaryData.zero(1, 8), 0.1)
        assert res.iterations == 1
        assert res.v_norm == 0
        assert np.all(res.u.values == 0)

    def test_small_single_mode(self, model):
        res = picard_solve(model, mode_data(-1, 0.01), 0.05, tol=1e-12)
        assert res.contraction_ratio < 0.5
        assert res.residual < 1e-8
        assert res.energy >= 0

    def test_fixed_point_consistency(self, model):
        # v* = -grad H(q + p(v*)) within tolerance, data engaging the bump
        res = picard_solve(model, mode_data(-1, 0.9), 0.1, tol=1e-12)
        assert res.residual <= 1e-10 * (1 + res.v_norm)

    def test_solution_is_q_plus_p_of_v(self, model):
        res = picard_solve(model, mode_data(-1, 0.9), 0.1, tol=1e-12)
        beta = mode_data(-1, 0.9)
        recon = q_op(beta, 0.1, M_t=res.u.M_t) + p_op(res.v)
        assert np.max(np.abs(recon.values - res.u.values)) == 0

    def test_large_data_fails_loudly(self, model):
        with pytest.raises((BallExit, ContractionFailure)):
            picard_solve(model, mode_data(-1, 1e3), 0.5)

    def test_grid_convergence_second_order(self, model):
        beta = mode_data(-1, 0.8)
        sols = {
            M_t: picard_solve(model, beta, 0.1, tol=1e-13, M_t=M_t)
            for M_t in (32, 64, 128)
        }
        d1 = np.max(np.abs(sols[32].u.values - sols[64].u.values[::2]))
        d2 = np.max(np.abs(sols[64].u.values - sols[128].u.values[::2]))
        assert 3 <= d1 / d2 <= 5

    def test_energy_identity_on_solved_cylinder(self, model):
        res = picard_solve(model, mode_data(-1, 0.9), 0.1, tol=1e-13, M_t=256)
        delta = res.action_out - res.action_in
        assert abs(delta - res.energy) <= 1e-5 * (1 + abs(res.energy))

    def test_uniqueness_of_small_energy_fixed_point(self, model):
        # second start: a small random v0; both converge to the same point
        beta = mode_data(-1, 0.7)
        eps, M_t, tol = 0.1, 64, 1e-12
        base = picard_solve(model, beta, eps, tol=tol, M_t=M_t)
        rng = np.random.default_rng(41)
        from looplab.hamiltonian import grad_h_modes

        v = 1e-3 * (
            rng.standard_normal(base.v.values.shape)
            + 1j * rng.standard_normal(base.v.values.shape)
        )
        q = q_op(beta, eps, M_t=M_t)
        for _ in range(60):
            u = q + p_op(CylinderMap(eps, v))
            v = -grad_h_modes(model, u.values)
        dist = np.max(np.abs(v - base.v.values))
        assert dist <= 10 * tol


class TestCollar:
    def test_zero_loop(self, model):
        res = collar_solve(model, Loop.zero(1, 8), 0.05)
        assert res.v_norm == 0

    def test_radial_orbit_reproduced(self, model):
        from looplab.cycles import radial_orbit_oracle

        orbit = radial_orbit_oracle(model, 1).loop
        res = collar_solve(model, orbit, 4e-4, tol=1e-13)
        assert np.max(np.abs(res.u.rest_0().coeffs - orbit.coeffs)) <= 1e-6
        assert np.max(np.abs(res.u.rest_end().coeffs - orbit.coeffs)) <= 1e-6
        assert res.energy <= 1e-10

    def test_fixed_point_norm_decreases_with_eps(self, model):
        rng = np.random.default_rng(42)
        b = 0.9 * project(gaussian_loop(1, 8, rng, max_mode=3), "minus")
        b = (0.9 / sobolev_norm(b, 0.5)) * b
        norms = []
        for k in range(2, 11):
            res = collar_solve(model, b, 2.0**-k, tol=1e-12)
            norms.append(res.v_norm)
        assert all(norms[i + 1] < norms[i] for i in range(len(norms) - 1))
        # asymptotically ||v*|| ~ sqrt(eps): halving eps shrinks it by ~0.707
        assert norms[-1] < 0.3 * norms[0]
        assert norms[-1] / norms[-2] == pytest.approx(2**-0.5, abs=0.05)


class TestSensitivity:
    def test_flat_data_is_insensitive(self, model):
        beta = mode_data(-1, 0.01)
        db = mode_data(-2, 0.001)
        assert h_eps_sensitivity(model, beta, 0.05, db) <= 1e-9

    def test_sweep_decreases(self, model):
        beta = mode_data(-1, 0.9)
        db = mode_data(-2, 0.05)
        vals = [h_eps_sensitivity(model, beta, 2.0**-k, db) for k in range(2, 9)]
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))

    def test_first_order_scaling(self, model):
        beta = mode_data(-1, 0.9)
        small = mode_data(-2, 0.01)
        double = mode_data(-2, 0.02)
        eps = 0.1
        s1 = h_eps_sensitivity(model, beta, eps, small)
        s2 = h_eps_sensitivity(model, beta, eps, double)
        assert s2 == pytest.approx(s1, rel=0.01)


class TestFlow:
    def test_linear_single_mode_exact(self, model):
        g = Loop.from_modes(1, 8, {2: 0.05})
        dt = 0.01
        out = flow_step(model, g, dt)
        assert out.mode(2)[0] == pytest.approx(0.05 * np.exp(2 * dt), rel=1e-14)

    def test_semigroup_in_flat_region(self, model):
        g = Loop.from_modes(1, 8, {1: 0.1, 3: 0.02j, -2: 0.05})
        two = flow_step(model, flow_step(model, g, 0.005), 0.005)
        one = flow_step(model, g, 0.01)
        assert two.allclose(one, atol=1e-12)

    def test_step_past_the_guard_blows_up(self, model):
        # the start passes the guard, its one step does not
        g = Loop.from_modes(1, 8, {8: 0.999e8})
        dt = 0.1 / 8
        with pytest.raises(Blowup) as exc:
            flow_step(model, g, dt)
        assert exc.value.time == dt
        assert exc.value.trace.blowup_time == dt and len(exc.value.trace.times) == 1

    def test_default_dt_is_0_09_over_n(self, model):
        for N, T in ((8, 0.3), (12, 0.25)):
            g = Loop.from_modes(1, N, {1: 0.55, 2: 0.3j})
            assert_same_trace(flow_trajectory(model, g, T), flow_trajectory(model, g, T, 0.09 / N))

    def test_dt_stability_guard(self, model):
        g = Loop.from_modes(1, 8, {1: 0.1})
        with pytest.raises(ValueError):
            flow_step(model, g, 0.1)  # 0.1 > 0.1/8

    @pytest.mark.parametrize("T, dt", [(0.5, 0.0), (0.01, -1.0), (0.0, 0.0), (0.5, float("nan"))])
    def test_nonpositive_dt_rejected(self, model, T, dt):
        # dt = 0 used to divide by zero; dt = -1 ran one step of length T
        g = Loop.from_modes(1, 8, {1: 0.1})
        with pytest.raises(ValueError, match="dt"):
            flow_trajectory(model, g, T, dt)

    def test_orbit_is_stationary(self, model):
        # truncation chosen so e^{N t} cannot amplify round-off past 1e-8
        from looplab.cycles import radial_orbit_oracle

        radius = radial_orbit_oracle(model, 1).radius
        loop = Loop.from_modes(1, 12, {1: radius})
        trace = flow_trajectory(model, loop, 1.0, 0.09 / 12)
        assert np.max(np.abs(trace.final.coeffs - loop.coeffs)) <= 1e-8

    def test_linear_flow_energy_closed_form(self, model):
        n, alpha, T = 1, 0.1, 0.5
        g = Loop.from_modes(1, 8, {n: alpha})
        trace = flow_trajectory(model, g, T, 1e-3)
        expected = 0.5 * n * alpha**2 * (np.exp(2 * n * T) - 1)
        assert abs(trace.cumulative_energy[-1] - expected) <= 1e-8
        defect = abs((trace.actions[-1] - trace.actions[0]) - trace.cumulative_energy[-1])
        assert defect <= 1e-8

    def test_energy_identity_nonlinear(self, model):
        seed = Loop.from_modes(1, 8, {1: 0.55, 2: 0.3j, 3: 0.1})
        trace = flow_trajectory(model, seed, 0.5, 1e-5)
        E = trace.cumulative_energy[-1]
        defect = abs((trace.actions[-1] - trace.actions[0]) - E)
        assert defect <= 1e-5 * (1 + E)

    def test_actions_nondecreasing(self, model):
        seed = Loop.from_modes(1, 8, {1: 0.55, 2: 0.3j})
        trace = flow_trajectory(model, seed, 0.4, 1e-4)
        assert np.all(np.diff(trace.actions) >= -1e-12)

    def test_blowup_reported_with_time(self, model):
        rng = np.random.default_rng(43)
        seed = project(gaussian_loop(1, 32, rng), "plus")
        seed = (0.45 / sobolev_norm(seed, 0.5)) * seed
        with pytest.raises(Blowup) as exc:
            flow_trajectory(model, seed, 3.0, 0.09 / 32)
        assert 0 < exc.value.time < 3.0
        trace = exc.value.trace
        assert trace is not None
        # the partial trace ends on its last recorded node, not on the start
        assert np.sqrt(np.sum(np.abs(trace.final.coeffs) ** 2)) == trace.norms[-1]
        assert trace.times[-1] < exc.value.time


class TestPushforward:
    def test_zero_time_is_identity(self, model):
        rng = np.random.default_rng(44)
        pts = [gaussian_loop(1, 8, rng, scale=0.1) for _ in range(3)]
        out = gf_pushforward(model, pts, 0.0, 1e-3)
        assert all(r.blowup_time is None for r in out)
        for r, p in zip(out, pts):
            assert r.final.allclose(p, atol=0)

    def test_orbit_points_unchanged(self, model):
        from looplab.cycles import radial_orbit_oracle

        radius = radial_orbit_oracle(model, 1).radius
        pts = [Loop.from_modes(1, 12, {1: radius})]
        out = gf_pushforward(model, pts, 0.5, 0.09 / 12)
        assert out[0].blowup_time is None
        assert out[0].final.allclose(pts[0], atol=1e-9)

    def test_actions_increase_off_critical_points(self, model):
        from looplab.cycles import sample_gamma

        pts = sample_gamma(0.3, 4, seed=45, N=8)
        out = gf_pushforward(model, pts, 0.05, 1e-4)
        for r, p in zip(out, pts):
            assert r.blowup_time is None
            assert action(model, r.final) > action(model, p)

    def test_blowups_recorded_not_fatal(self, model):
        rng = np.random.default_rng(46)
        wild = project(gaussian_loop(1, 32, rng), "plus")
        wild = (0.45 / sobolev_norm(wild, 0.5)) * wild
        tame = Loop.from_modes(1, 32, {1: 0.01})
        out = gf_pushforward(model, [wild, tame], 2.5, 0.09 / 32)
        assert out[0].blowup_time is not None
        assert out[1].blowup_time is None

    def test_traces_are_flow_trajectories(self, model):
        # one trace per point, byte for byte that point's flow_trajectory,
        # or the cut trace of its Blowup
        rng = np.random.default_rng(46)
        wild = project(gaussian_loop(1, 32, rng), "plus")
        wild = (0.45 / sobolev_norm(wild, 0.5)) * wild
        pts = [wild, Loop.from_modes(1, 32, {1: 0.01}), Loop.from_modes(1, 32, {1: 1.4})]
        out = gf_pushforward(model, pts, 2.5)
        assert len(out) == len(pts)
        for r, p in zip(out, pts):
            try:
                expected = flow_trajectory(model, p, 2.5, 0.09 / 32)
            except Blowup as exc:
                expected = exc.trace
                assert r.blowup_time == exc.time
            assert_same_trace(r, expected)
        assert [r.blowup_time is None for r in out] == [False, True, False]
