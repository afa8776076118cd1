import numpy as np
import pytest

from looplab.cycles import (
    FlowBlowup,
    _newton_matrix,
    NegativeBeta,
    NoAdmissibleTau,
    NoRoot,
    check_sigma_boundary,
    derive_tau,
    e_plus,
    estimate_beta,
    find_critical_point,
    perturb,
    radial_orbit_oracle,
    rho,
    sample_gamma,
    sample_sigma,
    scan_alpha,
    transversality_check,
    winding_seed,
)
from looplab.hamiltonian import HamiltonianModel, action, grad_action
from looplab.loops import Loop, gaussian_loop, mode_numbers, project, sobolev_norm


@pytest.fixture(scope="module")
def model():
    return HamiltonianModel()


@pytest.fixture(scope="module")
def geometry(model):
    # shared alpha*/beta* scan (the expensive part), reduced sampling for unit tests
    alpha_star, beta_star, table = scan_alpha(model, samples=24, descent_steps=80, seed=3)
    return alpha_star, beta_star, table


class TestSamplers:
    def test_gamma_constraints(self):
        for g in sample_gamma(0.7, 12, seed=10, N=16):
            assert sobolev_norm(project(g, "minus"), 0.5) == 0
            assert sobolev_norm(g, 0.5) == pytest.approx(0.7, abs=1e-12)

    def test_e_plus_scaled_is_a_gamma_point(self):
        e = e_plus(1, 16)
        assert sobolev_norm(e, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert sobolev_norm(0.7 * e, 0.5) == pytest.approx(0.7, abs=1e-15)

    def test_sigma_constraints(self):
        e = e_plus(1, 16)
        for p in sample_sigma(2.0, e, 12, seed=11):
            minus = project(p, "minus")
            plus = project(p, "plus")
            assert sobolev_norm(minus, 0.5) <= 2.0 + 1e-12
            # the plus part is s * e_plus with 0 <= s <= tau
            s = plus.mode(1)[0].real
            assert 0 <= s <= 2.0 + 1e-12
            assert sobolev_norm(plus - s * e, 0.5) <= 1e-12

    def test_sigma_boundary_faces(self):
        e = e_plus(1, 16)
        tau = 1.5
        for p in sample_sigma(tau, e, 30, seed=12):
            minus_norm = sobolev_norm(project(p, "minus"), 0.5)
            s = project(p, "plus").mode(1)[0].real
            on_radius = abs(minus_norm - tau) <= 1e-12
            on_s_face = abs(s) <= 1e-12 or abs(s - tau) <= 1e-12
            assert on_radius or on_s_face

    def test_sigma_point_with_s_alpha_is_intersection_point(self):
        # gamma^- = 0, s = alpha gives alpha * e_plus, the transverse point
        e = e_plus(1, 16)
        point = 0.0 * project(e, "minus") + 0.6 * e
        assert point.allclose(0.6 * e, atol=0)


class TestWindingSeed:
    @pytest.mark.parametrize("k", (-2, 0, 1, 2))
    def test_half_norm_alpha_in_the_bits_of_the_forms_it_replaced(self, k):
        alpha, N = 1.43017, 8
        seed = winding_seed(alpha, k, N)
        assert sobolev_norm(seed, 0.5) == pytest.approx(alpha, rel=1e-15)
        unit = sobolev_norm(Loop.from_modes(1, N, {k: 1.0}), 0.5)
        forms = [Loop.from_modes(1, N, {k: alpha / unit})]
        if k == 1:
            forms.append(alpha * e_plus(1, N))
        if k == 2:
            forms.append(Loop.from_modes(1, N, {2: alpha / np.sqrt(2)}))
        assert all(seed.coeffs.tobytes() == form.coeffs.tobytes() for form in forms)


class TestBetaEstimate:
    def test_flat_alpha_closed_form(self, model):
        # all sphere loops stay in the flat core: the action is constant 1/2 alpha^2
        beta = estimate_beta(model, 0.2, samples=16, descent_steps=60, seed=3)
        assert beta == pytest.approx(0.02, abs=1e-14)

    def test_zero_alpha(self, model):
        assert estimate_beta(model, 0.0) == 0.0

    def test_descent_never_increases_minimum(self, model):
        # the reported minimum is below every start's raw action value
        starts = sample_gamma(0.9, 8, seed=13)
        raw_min = min(action(model, g) for g in starts)
        beta = estimate_beta(model, 0.9, samples=8, descent_steps=40, seed=13)
        assert beta <= raw_min + 1e-14

    def test_negative_counts_rejected(self, model):
        # a negative count used to leave alpha e_plus as the only start
        with pytest.raises(ValueError, match="count"):
            sample_gamma(0.5, -1, seed=3)
        with pytest.raises(ValueError, match="count"):
            sample_sigma(1.0, e_plus(1, 8), -1, seed=3)
        with pytest.raises(ValueError, match="tau"):
            sample_sigma(0.0, e_plus(1, 8), 3, seed=3)
        with pytest.raises(ValueError, match="count"):
            estimate_beta(model, 0.5, samples=-1, descent_steps=10, seed=3)
        with pytest.raises(ValueError, match="descent_steps"):
            estimate_beta(model, 0.5, samples=4, descent_steps=-1, seed=3)
        with pytest.raises(ValueError, match="descent_steps"):
            estimate_beta(model, 0.0, descent_steps=-1)
        with pytest.raises(ValueError):
            scan_alpha(model, alphas=[0.5], samples=-1, descent_steps=10, seed=3)

    def test_negative_beta_raised(self, model):
        with pytest.raises(NegativeBeta):
            estimate_beta(model, 4.0, samples=8, descent_steps=60, seed=3)

    def test_scan_without_positive_beta_reports_largest(self):
        quadratic = HamiltonianModel(variant="pure_quadratic")
        alphas = [0.1, 0.5, 2.0]
        betas = []
        for a in alphas:
            with pytest.raises(NegativeBeta) as exc:
                estimate_beta(quadratic, a, samples=4, descent_steps=5, seed=0, N=8)
            betas.append(exc.value.value)
        with pytest.raises(NegativeBeta) as exc:
            scan_alpha(quadratic, alphas=alphas, samples=4, descent_steps=5, seed=0, N=8)
        assert np.isfinite(exc.value.value)
        assert exc.value.value == max(betas)

    def test_zero_alpha_is_not_admissible(self, model):
        # beta(0) = 0 comes back without NegativeBeta, but only beta > 0 counts
        kw = dict(samples=4, descent_steps=20, seed=0, N=8)
        alpha, beta, table = scan_alpha(model, alphas=[0.0, 0.3], **kw)
        assert (alpha, beta) == (0.3, estimate_beta(model, 0.3, **kw))
        assert [row["positive"] for row in table] == [False, True]
        assert table[0]["beta"] == 0.0
        with pytest.raises(NegativeBeta) as exc:
            scan_alpha(model, alphas=[0.0, 3.0], **kw)
        assert exc.value.value == 0.0

    def test_scan_produces_positive_window(self, model, geometry):
        alpha_star, beta_star, table = geometry
        assert beta_star > 0
        assert any(not row["positive"] for row in table)  # window is bounded


class TestSigmaBoundary:
    def test_s_zero_face_nonpositive(self, model):
        # minus-polarized loops have nonpositive quadratic term and H >= 0
        for g in sample_gamma(1.0, 6, seed=14):
            minus = project(gaussian_loop(1, 16, np.random.default_rng(15)), "minus")
            assert action(model, minus) <= 1e-12

    def test_doubling_never_increases_max(self, model):
        taus = [1.0, 2.0, 4.0, 8.0]
        vals = [check_sigma_boundary(model, t, samples=120, seed=16) for t in taus]
        assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))

    def test_pure_plus_face_negative_for_large_tau(self, model):
        tau = 4.0
        val = action(model, tau * e_plus(1, 16))
        assert val < 0

    def test_derived_tau_admissible(self, model):
        tau, worst = derive_tau(model, samples=120, seed=16)
        assert worst == check_sigma_boundary(model, tau, samples=120, seed=16) <= 0

    def test_no_admissible_tau_raises(self):
        # a core this wide keeps the boundary action positive up to the last doubling
        wide = HamiltonianModel(s0=1e8, s1=2e8)
        with pytest.raises(NoAdmissibleTau) as exc:
            derive_tau(wide, samples=4, seed=1, N=8)
        assert exc.value.tau == 2048.0
        assert exc.value.value == check_sigma_boundary(wide, 2048.0, samples=4, seed=1, N=8) > 0


class TestPerturbation:
    def test_rho_values(self):
        assert rho(0.5) == 1.0
        assert rho(3.0) == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert rho(-3.0) == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_rho_c1_at_joints(self):
        h = 1e-7
        for x0 in (1.0, 2.0):
            left = (rho(x0) - rho(x0 - h)) / h
            right = (rho(x0 + h) - rho(x0)) / h
            assert abs(left - right) <= 1e-5

    def test_rho_monotone_on_blend(self):
        xs = np.linspace(1.0, 2.0, 2001)
        vals = rho(xs)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals > 0)

    def test_perturb_identity_at_zero(self):
        rng = np.random.default_rng(17)
        g = gaussian_loop(1, 8, rng)
        assert perturb(g, Loop.zero(1, 8)).allclose(g, atol=0)

    def test_perturb_ball_validation(self):
        g = Loop.zero(1, 8)
        v = Loop.from_modes(1, 8, {3: 1.0})  # L^2_2 weight (1+9)^2 = 100 > 1
        with pytest.raises(ValueError):
            perturb(g, v)

    def test_action_shift_bounded_across_scales(self, model):
        # |CSD(perturb(g, v)) - CSD(g)| stays bounded while ||g|| spans
        # three orders of magnitude (the large-norm damping of rho)
        rng = np.random.default_rng(18)
        worst = 0.0
        n = mode_numbers(8).astype(float)
        w2 = (1.0 + n**2) ** 2
        for scale in (0.05, 0.5, 5.0, 50.0):
            for _ in range(250):
                g = gaussian_loop(1, 8, rng, scale=scale)
                v = gaussian_loop(1, 8, rng)
                ball = np.sqrt(np.sum(w2[:, None] * np.abs(v.coeffs) ** 2))
                v = (0.999 / ball) * v
                shift = abs(action(model, perturb(g, v)) - action(model, g))
                worst = max(worst, shift)
        assert worst <= 10.0


class TestOracle:
    def test_winding_one_unique_root(self, model):
        orb = radial_orbit_oracle(model, 1)
        s = orb.radius**2
        assert model.s0 < s < model.s1
        assert 2 * model.h_prime(s) == pytest.approx(1.0, abs=1e-8)
        assert orb.action == pytest.approx(0.5 * s - float(model.h(s)), abs=1e-12)

    def test_out_of_range_winding(self, model):
        with pytest.raises(NoRoot):
            radial_orbit_oracle(model, 3)  # 3 > 2(1 + 0.1)
        with pytest.raises(NoRoot):
            radial_orbit_oracle(model, -1)

    def test_oracle_loop_is_critical(self, model):
        for k in (1, 2):
            orb = radial_orbit_oracle(model, k)
            assert sobolev_norm(grad_action(model, orb.loop), 0) <= 1e-8

    def test_orbit_result_invariants(self, model):
        orb = radial_orbit_oracle(model, 2)
        assert orb.gradient_norm <= 1e-8
        assert abs(orb.action - (0.5 * 2 * orb.radius**2 - float(model.h(orb.radius**2)))) <= 1e-6
        assert 2 * model.h_prime(orb.radius**2) == pytest.approx(2.0, abs=1e-8)


class TestMorseBott:
    """The Newton Jacobian at a radial orbit is the Hessian of the action,
    nondegenerate transverse to the orbit family {e^{ik theta} v : |v| = r},
    a (2d - 1)-sphere in C^d (Bourgeois & Oancea 2009)."""

    @pytest.mark.parametrize("d", (1, 2, 3))
    @pytest.mark.parametrize("k", (1, 2))
    def test_nullity_is_the_orbit_family(self, model, k, d):
        circle = Loop.from_modes(d, 32, {k: radial_orbit_oracle(model, k).radius})
        _, jac = _newton_matrix(model, circle)
        # measured: asymmetry 2.2e-15; next singular value 0.2142 (k = 1), 0.2597 (k = 2)
        assert np.max(np.abs(jac - jac.T)) <= 1e-13
        svals = np.sort(np.linalg.svd(jac, compute_uv=False))
        nullity = 2 * d - 1
        assert np.all(svals[:nullity] < 1e-8)
        assert svals[nullity] >= 0.2


class TestFinder:
    def test_oracle_seed_returns_immediately(self, model):
        orb = radial_orbit_oracle(model, 1)
        res = find_critical_point(model, orb.loop, flow_time=0.0)
        assert res.newton_iterations <= 1
        assert res.loop.allclose(orb.loop, atol=1e-10)

    def test_gamma_seed_finds_winding_one(self, model, geometry):
        alpha_star, beta_star, _ = geometry
        orb = radial_orbit_oracle(model, 1)
        res = find_critical_point(model, alpha_star * e_plus(1, 32), flow_time=1.0)
        assert res.winding == 1
        assert abs(res.radius - orb.radius) <= 1e-6
        assert abs(res.action - orb.action) <= 1e-6
        assert res.gradient_norm <= 1e-8
        assert res.action >= beta_star - 1e-6
        assert not res.action_below_beta or res.action >= beta_star

    def test_mode_two_seed_finds_winding_two(self, model, geometry):
        alpha_star, beta_star, _ = geometry
        orb2 = radial_orbit_oracle(model, 2)
        seed = Loop.from_modes(1, 32, {2: alpha_star / np.sqrt(2)})
        res = find_critical_point(model, seed, flow_time=1.0)
        assert res.winding == 2
        assert abs(res.radius - orb2.radius) <= 1e-6
        assert abs(res.action - orb2.action) <= 1e-6
        assert res.gradient_norm <= 1e-8
        assert res.action >= beta_star - 1e-6

    def test_zero_seed_gives_flagged_trivial_orbit(self, model):
        res = find_critical_point(model, Loop.zero(1, 16), flow_time=0.5, beta=0.1)
        assert res.winding == 0
        assert res.action == pytest.approx(0.0, abs=1e-12)
        assert res.action_below_beta


class TestTransversality:
    def test_full_rank_and_unique_point(self, geometry):
        alpha_star, _, _ = geometry
        out = transversality_check(alpha_star, 2.0)
        assert out["sigma_min"] > 0
        assert out["intersection_dim"] == 1
        assert out["s_at_intersection"] == pytest.approx(alpha_star)
        assert out["point"].allclose(alpha_star * e_plus(1, 32), atol=1e-15)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            transversality_check(3.0, 2.0)  # alpha > tau: no intersection
