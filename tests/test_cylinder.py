import csv
import json

import numpy as np
import pytest

from looplab.cylinder import (
    BoundaryData,
    CylinderMap,
    aps_boundary,
    apply_D,
    combine,
    cyl_norm,
    decompose,
    energy,
    kernel_dt_mass,
    l2_norm,
    p_op,
    q_op,
    trace_defect_sq,
)
from looplab.files import from_json, mode_table, write_csv, write_json
from looplab.hamiltonian import HamiltonianModel
from looplab.loops import Loop, gaussian_loop, project, sobolev_norm


def single_mode_data(n: int, coeff: complex, N: int = 8, d: int = 1) -> BoundaryData:
    """Boundary data carried by a single mode (n <= 0 goes to the t=0 slot)."""
    loop = Loop.from_modes(d, N, {n: coeff})
    if n <= 0:
        return BoundaryData(plus0=loop, minus_end=Loop.zero(d, N))
    return BoundaryData(plus0=Loop.zero(d, N), minus_end=loop)


class TestApplyD:
    def test_kernel_element_small_residual(self):
        # u_n(t) = e^{-lambda t} with lambda = -n solves u' + lambda u = 0
        N, M_t, T = 4, 64, 0.5
        times = np.linspace(0, T, M_t + 1)
        vals = np.zeros((M_t + 1, 2 * N + 1, 1), complex)
        for n in range(-N, N + 1):
            lam = -n
            vals[:, N + n, 0] = np.exp(-lam * times)
        u = CylinderMap(T, vals)
        res = apply_D(u)
        coarse = np.max(np.abs(res.values))
        # refined grid shrinks the defect by the square of the refinement
        M_t2 = 4 * M_t
        times2 = np.linspace(0, T, M_t2 + 1)
        vals2 = np.zeros((M_t2 + 1, 2 * N + 1, 1), complex)
        for n in range(-N, N + 1):
            vals2[:, N + n, 0] = np.exp(n * times2)
        fine = np.max(np.abs(apply_D(CylinderMap(T, vals2)).values))
        assert coarse < 2e-2
        assert coarse / fine == pytest.approx(16, rel=0.35)

    def test_constant_zero_mode_exact(self):
        u = CylinderMap.constant(Loop.from_modes(1, 4, {0: 2.0 + 1j}), 0.3, 16)
        res = apply_D(u)
        assert np.max(np.abs(res.values)) == 0


class TestQOp:
    def test_positive_lambda_closed_form(self):
        # data on mode n = -3 (lambda = 3): values -e^{-3t}, at t = eps -e^{-0.3}
        eps = 0.1
        u = q_op(single_mode_data(-3, 1.0), eps, M_t=50)
        times = u.times
        got = u.values[:, u.N - 3, 0]
        assert np.allclose(got, -np.exp(-3 * times), atol=1e-14)
        assert got[-1] == pytest.approx(-np.exp(-0.3), abs=1e-15)

    def test_negative_lambda_closed_form(self):
        # mode n = 2 (lambda = -2): values e^{2(t-eps)}, at t=0 e^{-2 eps}
        eps = 0.25
        u = q_op(single_mode_data(2, 1.0), eps, M_t=40)
        times = u.times
        got = u.values[:, u.N + 2, 0]
        assert np.allclose(got, np.exp(2 * (times - eps)), atol=1e-14)
        assert got[0] == pytest.approx(np.exp(-0.5), abs=1e-15)

    def test_zero_mode_branch(self):
        # lambda = 0 takes the t=0 branch: constant -beta_0
        u = q_op(single_mode_data(0, 1.5 - 0.5j), 0.2, M_t=16)
        assert np.allclose(u.values[:, u.N, 0], -(1.5 - 0.5j), atol=0)

    def test_right_inverse_identity(self):
        rng = np.random.default_rng(31)
        g = gaussian_loop(2, 6, rng)
        beta = decompose(g)
        u = q_op(beta, 0.07, M_t=32)
        back = aps_boundary(u)
        assert back.plus0.allclose(beta.plus0, atol=1e-14)
        assert back.minus_end.allclose(beta.minus_end, atol=1e-14)

    def test_kernel_of_d_on_refined_grid(self):
        rng = np.random.default_rng(32)
        beta = decompose(gaussian_loop(1, 6, rng))
        u = q_op(beta, 0.3, M_t=512)
        res = apply_D(u)
        assert np.max(np.abs(res.values)) < 2e-4


class TestPOp:
    def test_zero_forcing(self):
        g = CylinderMap.zero(1, 4, 0.2, 16)
        assert np.all(p_op(g).values == 0)

    def test_constant_forcing_closed_form(self):
        # lambda = 2 (mode n = -2), g = 1: u(t) = (1 - e^{-2t})/2
        N, M_t, eps = 4, 64, 0.8
        vals = np.zeros((M_t + 1, 2 * N + 1, 1), complex)
        vals[:, N - 2, 0] = 1.0
        u = p_op(CylinderMap(eps, vals))
        times = u.times
        expected = (1 - np.exp(-2 * times)) / 2
        assert np.allclose(u.values[:, N - 2, 0], expected, atol=1e-12)

    def test_boundary_data_vanishes(self):
        rng = np.random.default_rng(33)
        N, M_t, eps = 6, 32, 0.15
        vals = rng.standard_normal((M_t + 1, 2 * N + 1, 1)) + 1j * rng.standard_normal(
            (M_t + 1, 2 * N + 1, 1)
        )
        u = p_op(CylinderMap(eps, vals))
        bd = aps_boundary(u)
        assert bd.norm() <= 1e-10

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    def test_right_inverse_refined(self, eps):
        # D(P g) = g to 1e-6 relative; the grid must resolve both the stiff
        # transients (h * lambda small) and the data's own t/eps scale
        rng = np.random.default_rng(34)
        N = 6
        M_t = max(2048, int(np.ceil(eps * 2500)))
        times = np.linspace(0, eps, M_t + 1)
        # random smooth forcing: low-order polynomial in t per mode
        c0 = rng.standard_normal((2 * N + 1, 1)) + 1j * rng.standard_normal((2 * N + 1, 1))
        c1 = rng.standard_normal((2 * N + 1, 1)) + 1j * rng.standard_normal((2 * N + 1, 1))
        c2 = rng.standard_normal((2 * N + 1, 1)) + 1j * rng.standard_normal((2 * N + 1, 1))
        tau = (times / eps)[:, None, None]
        vals = c0[None] + c1[None] * tau + c2[None] * tau**2
        g = CylinderMap(eps, vals)
        residual = apply_D(p_op(g)).values - g.values
        rel = l2_norm(residual, g.dt) / l2_norm(g.values, g.dt)
        assert rel <= 1e-6


def duhamel_linear(c0, c1, lam, times, eps):
    """Exact P of the forcing c0 + c1 t per mode, in extended precision.

    lambda >= 0: int_0^t e^{-lambda (t - s)} g(s) ds; lambda < 0:
    -int_t^eps e^{lambda (s - t)} g(s) ds.  Returns shape (nodes, modes, ...).
    """
    ld = np.longdouble
    t = np.asarray(times, ld)[:, None]
    lam = np.asarray(lam, ld)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        # forward sector (lambda > 0), with s = t - tau
        k0_f = -np.expm1(-lam * t) / lam
        k1_f = (1 - np.exp(-lam * t) * (1 + lam * t)) / lam**2
        # backward sector, with s = tau - t on [0, L], L = eps - t
        span = ld(eps) - t
        k0_b = -np.expm1(lam * span) / lam
        k1_b = -(np.exp(lam * span) * (lam * span - 1) + 1) / lam**2
    zero = lam == 0
    fwd = lam > 0
    # coefficient of c0 and of c1 in u(t)
    w0 = np.where(zero, t, np.where(fwd, k0_f, k0_b))
    w1 = np.where(zero, t**2 / 2, np.where(fwd, t * k0_f - k1_f, t * k0_b + k1_b))
    extra = (None,) * (c0.ndim - 1)
    w0, w1 = w0[(...,) + extra], w1[(...,) + extra]
    return w0 * c0.astype(np.clongdouble)[None] + w1 * c1.astype(np.clongdouble)[None]


class TestPExactOracle:
    """The quadrature is exact for piecewise-linear forcing, so P of constant
    and of linear-in-t forcing matches the closed-form Duhamel integrals on
    both sectors and on the lambda = 0 mode, at every node."""

    ROWS = 16  # rows per time block, set through BLOCK_BYTES

    @pytest.mark.parametrize(
        "trailing", [(), (2,), (2, 3)], ids=["modes", "modes_d", "modes_d_batch"]
    )
    @pytest.mark.parametrize("n_nodes", [9, ROWS + 1, 2 * ROWS + 7])
    @pytest.mark.parametrize("linear", [False, True], ids=["constant", "linear"])
    def test_matches_closed_form(self, monkeypatch, trailing, n_nodes, linear):
        from looplab import cylinder
        from looplab.loops import lambda_of_modes

        N = 4
        h = 1.0 / 16
        eps = h * (n_nodes - 1)
        lam = lambda_of_modes(N)
        times = np.linspace(0.0, eps, n_nodes)
        rng = np.random.default_rng(n_nodes + 10 * len(trailing))
        shape = (2 * N + 1,) + trailing
        c0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape) if linear else 0 * c0
        extra = (None,) * len(trailing)
        g = c0[None] + c1[None] * times[(slice(None), None) + extra]
        monkeypatch.setattr(cylinder, "BLOCK_BYTES", self.ROWS * g[0].nbytes)

        u = cylinder.kernel_p_values(g, lam, h)
        exact = duhamel_linear(c0, c1, lam, times, eps)
        err = np.abs(u - exact).astype(float)
        scale = np.max(np.abs(exact), axis=0).astype(float)
        assert np.all(np.max(err, axis=0) <= 1e-13 * scale)
        # the prescribed ends are exact zeros
        assert np.all(u[0, lam >= 0] == 0) and np.all(u[-1, lam < 0] == 0)

    @pytest.mark.parametrize("eps", (1e-3, 0.1, 1.0))
    def test_basis_sweep_closed_form(self, eps):
        # P[1] and P[tau] of basis_p_values on the grids of the aps right
        # inverse check: t phi1(-lam t) and (t^2/eps) phi2(-lam t) for
        # lam >= 0, and -(eps - t) phi1(-|lam| (eps - t)) for P[1] at lam < 0
        from looplab import cylinder
        from looplab.loops import lambda_of_modes

        N = 32
        M = max(2048, int(np.ceil(12000 * eps)))
        h = eps / M
        lam = lambda_of_modes(N)
        t = (h * np.arange(M + 1))[:, None]
        pv = cylinder.basis_p_values(lam, h, M)
        fwd, bwd = lam >= 0, lam < 0
        s = eps - t
        oracles = [
            (pv[:, fwd, 0], t * cylinder.phi1(-lam[fwd] * t)),
            (pv[:, fwd, 1], (t**2 / eps) * cylinder.phi2(-lam[fwd] * t)),
            (pv[:, bwd, 0], -s * cylinder.phi1(-np.abs(lam[bwd]) * s)),
        ]
        for got, exact in oracles:
            scale = np.max(np.abs(exact), axis=0)
            assert np.all(np.max(np.abs(got - exact), axis=0) <= 1e-11 * scale)


class TestBoundaryData:
    def test_decompose_combine_roundtrip(self):
        rng = np.random.default_rng(35)
        b = gaussian_loop(2, 5, rng)
        assert combine(decompose(b)).allclose(b, atol=0)
        bd = decompose(b)
        bd2 = decompose(combine(bd))
        assert bd2.plus0.allclose(bd.plus0, atol=0)
        assert bd2.minus_end.allclose(bd.minus_end, atol=0)

    def test_collar_trace_matches_loop_at_zero(self):
        # the t=0 trace of Q(decompose(b)) recovers the plus-spectral part of b
        rng = np.random.default_rng(36)
        b = gaussian_loop(1, 5, rng)
        u = q_op(decompose(b), 0.05, M_t=16)
        from looplab.loops import aps_project

        assert aps_project(u.rest_0(), "plus").allclose(aps_project(b, "plus"), atol=1e-14)
        assert aps_project(u.rest_end(), "minus").allclose(
            aps_project(b, "minus"), atol=1e-14
        )

    def test_support_validation(self):
        good = Loop.from_modes(1, 4, {-1: 1.0})
        bad = Loop.from_modes(1, 4, {1: 1.0})
        with pytest.raises(ValueError):
            BoundaryData(plus0=bad, minus_end=bad)
        with pytest.raises(ValueError):
            BoundaryData(plus0=good, minus_end=good)

    def test_minus_field_constant_has_zero_plus_trace(self):
        u = CylinderMap.constant(Loop.from_modes(1, 4, {2: 1.0}), 0.1, 16)
        bd = aps_boundary(u)
        assert sobolev_norm(bd.plus0, 0.5) == 0


class TestNorms:
    def test_zero_field(self):
        u = CylinderMap.zero(2, 4, 0.3, 16)
        assert l2_norm(u.values, u.dt) == 0
        for which in ("L2_1", "L4"):
            assert cyl_norm(u, which) == 0

    def test_constant_field_l2(self):
        v = 1.5 - 2.0j
        T = 0.7
        u = CylinderMap.constant(Loop.from_modes(1, 4, {0: v}), T, 32)
        assert l2_norm(u.values, u.dt) == pytest.approx(abs(v) * np.sqrt(T), rel=1e-12)

    def test_single_mode_closed_forms(self):
        # u_2(t) = a + b t on [0, T]; all three norms have closed forms and
        # the second-order discretization converges to them
        a, b, T, n = 0.7, -0.4, 0.9, 2
        M_t = 8192
        N = 4
        times = np.linspace(0, T, M_t + 1)
        vals = np.zeros((M_t + 1, 2 * N + 1, 1), complex)
        vals[:, N + n, 0] = a + b * times
        u = CylinderMap(T, vals)

        def poly_int(p):  # integral over [0, T] of (a + b t)^p
            ts = np.linspace(0, T, 40001)
            return np.trapezoid((a + b * ts) ** p, ts)

        l2 = np.sqrt(poly_int(2))
        l2_1 = np.sqrt((1 + n**2) * poly_int(2) + b**2 * T)
        l4 = poly_int(4) ** 0.25
        assert l2_norm(u.values, u.dt) == pytest.approx(l2, rel=1e-8)
        assert cyl_norm(u, "L2_1") == pytest.approx(l2_1, rel=1e-8)
        assert cyl_norm(u, "L4") == pytest.approx(l4, rel=1e-8)


class TestEnergy:
    def test_constant_flat_map(self):
        m = HamiltonianModel()
        u = CylinderMap.constant(Loop.from_modes(1, 4, {0: 0.2}), 0.4, 16)
        assert energy(m, u) == pytest.approx(0, abs=1e-16)

    def test_linear_flow_closed_form(self):
        # u_n(t) = alpha e^{n t} in the flat region: E = (n/2) alpha^2 (e^{2nT} - 1)
        m = HamiltonianModel()
        n, alpha, T = 1, 0.1, 0.5
        M_t = 8192
        N = 4
        times = np.linspace(0, T, M_t + 1)
        vals = np.zeros((M_t + 1, 2 * N + 1, 1), complex)
        vals[:, N + n, 0] = alpha * np.exp(n * times)
        u = CylinderMap(T, vals)
        expected = 0.5 * n * alpha**2 * (np.exp(2 * n * T) - 1)
        assert energy(m, u) == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_critical_orbit_cylinder_has_no_energy(self):
        from looplab.cycles import radial_orbit_oracle

        m = HamiltonianModel()
        orbit = radial_orbit_oracle(m, 1)
        u = CylinderMap.constant(orbit.loop, 0.2, 16)
        assert energy(m, u) <= 1e-10


class TestModeIdentities:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    def test_boundary_defect_and_dt_mass(self, eps):
        # defect lambda (1 - e^{-eps lambda})^2, time-derivative mass
        # lambda (1 - e^{-2 eps lambda}), and the inequality between them
        N = 32
        for lam in range(1, N + 1):
            beta = single_mode_data(-lam, 1.0, N=N)
            u = q_op(beta, eps, M_t=64)
            defect = trace_defect_sq(u)
            expected_defect = lam * (1 - np.exp(-eps * lam)) ** 2
            dt_mass = 2.0 * kernel_dt_mass(u)
            expected_mass = lam * (1 - np.exp(-2 * eps * lam))
            assert abs(defect - expected_defect) <= 1e-10
            assert abs(dt_mass - expected_mass) <= 1e-6
            assert expected_mass - defect >= -1e-12


def old_field_csv(u: CylinderMap, path) -> None:
    """The former CylinderMap.to_csv: columns mode,t,re,im (plus coord when d > 1)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["mode", "t", "re", "im"] if u.d == 1 else ["mode", "coord", "t", "re", "im"])
        for idx, n in enumerate(range(-u.N, u.N + 1)):
            for c in range(u.d):
                for j, t in enumerate(u.times):
                    z = u.values[j, idx, c]
                    row = [n, f"{t:.12g}", f"{z.real:.17g}", f"{z.imag:.17g}"]
                    if u.d > 1:
                        row.insert(1, c)
                    w.writerow(row)


def write_field_csv(u: CylinderMap, path) -> None:
    """solve_cylinder_field.csv as `lab solve-cylinder` writes it."""
    write_csv(path, *mode_table(u.values, u.times, coord=u.d > 1))


class TestBlockLayout:
    def test_fortran_ordered_values_are_stored_c_ordered(self):
        rng = np.random.default_rng(17)
        v = rng.standard_normal((9, 9, 3)) + 1j * rng.standard_normal((9, 9, 3))
        u = CylinderMap(0.1, np.asfortranarray(v))
        assert u.values.tobytes() == CylinderMap(0.1, v).values.tobytes()
        assert u.values.flags.c_contiguous and not u.values.flags.writeable

    def test_reads_d_N_and_M_t_off_its_values(self):
        u = CylinderMap(0.2, np.zeros((17, 9, 2)))
        assert (u.d, u.N, u.M_t, u.dt) == (2, 4, 16, 0.2 / 16)

    @pytest.mark.parametrize(
        "shape", [(9, 9), (9, 8, 1), (9, 1, 1), (9, 9, 0), (8, 9, 1)],
        ids=["2-D", "even modes", "N=0", "d=0", "M_t=7"],
    )
    def test_rejects_blocks_of_other_shapes(self, shape):
        with pytest.raises(ValueError, match="cylinder values|M_t >= 8"):
            CylinderMap(0.1, np.zeros(shape, complex))

    def test_rejects_nonfinite_values_and_nonpositive_T(self):
        vals = np.zeros((9, 9, 1), complex)
        with pytest.raises(ValueError, match="T must be positive"):
            CylinderMap(0.0, vals)
        vals[4, 4, 0] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            CylinderMap(0.1, vals)


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(37)
        vals = rng.standard_normal((17, 9, 2)) + 1j * rng.standard_normal((17, 9, 2))
        vals[0, 0, 0] = complex(-0.0, -0.0)
        vals[5, 3, 1] = complex(0.0, -0.0)
        u = CylinderMap(0.25, vals)
        path = tmp_path / "field.json"
        write_json(path, u)
        back = from_json(CylinderMap, json.loads(path.read_text()), "field")
        assert (back.d, back.N, back.T, back.M_t) == (u.d, u.N, u.T, u.M_t)
        # bit for bit, signed zeros included
        assert back.values.tobytes() == u.values.tobytes()

    @pytest.mark.parametrize("key", ["d", "N", "M_t"])
    def test_rejects_shape_keys_that_disagree_with_the_values(self, tmp_path, key):
        path = tmp_path / "field.json"
        write_json(path, CylinderMap(0.25, np.ones((9, 5, 2), complex)))
        obj = json.loads(path.read_text())
        obj[key] += 1
        with pytest.raises(ValueError, match=rf"\['{key}'\] disagree"):
            from_json(CylinderMap, obj, "field")

    def test_csv_export(self, tmp_path):
        u = CylinderMap.constant(Loop.from_modes(1, 2, {1: 1.0 + 2.0j}), 0.1, 8)
        path = tmp_path / "field.csv"
        write_field_csv(u, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mode,t,re,im"
        assert len(lines) == 1 + 5 * 9  # (2N+1) modes x (M_t+1) nodes

    @pytest.mark.parametrize("d", [1, 2])
    def test_field_csv_matches_former_writer(self, tmp_path, d):
        rng = np.random.default_rng(41 + d)
        vals = rng.standard_normal((9, 7, d)) + 1j * rng.standard_normal((9, 7, d))
        vals[2, 1, d - 1] = complex(-0.0, 0.0)
        u = CylinderMap(0.3, vals)
        write_field_csv(u, tmp_path / "new.csv")
        old_field_csv(u, tmp_path / "old.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        header = new.split(b"\r\n")[0]
        assert header == (b"mode,t,re,im" if d == 1 else b"mode,coord,t,re,im")
        assert new.count(b"\r\n") == 1 + 7 * d * 9
