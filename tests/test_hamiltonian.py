import numpy as np
import pytest

from looplab.hamiltonian import (
    HamiltonianModel,
    _smoothstep_int,
    action,
    eval_H,
    eval_XH,
    eval_compact_part,
    eval_gradH,
    grad_action,
    k_factor,
    k_factor_constant,
    split,
)
from looplab.loops import Loop, gaussian_loop, inner, sobolev_norm


@pytest.fixture(scope="module")
def model():
    return HamiltonianModel()


@pytest.fixture(scope="module")
def quad_model():
    return HamiltonianModel(variant="pure_quadratic")


class TestProfile:
    def test_flat_core(self, model):
        s = np.array([0.0, 0.1, 0.25])
        assert np.all(model.h(s) == 0)
        assert np.all(model.h_prime(s) == 0)

    def test_tail_slope(self, model):
        s = np.array([4.0, 5.0, 100.0])
        assert np.allclose(model.h_prime(s), 1.1)

    def test_tail_is_quadratic_plus_offset(self, model):
        # beyond s1 the profile is (1+eps) s + c_inf with c_inf = -(1+eps)(s0+s1)/2
        c_inf = model.tail_offset
        assert c_inf == pytest.approx(-1.1 * (0.25 + 4.0) / 2)
        for s in (4.0, 7.5, 40.0):
            assert model.h(s) == pytest.approx(1.1 * s + c_inf, rel=1e-12)

    def test_h_nonnegative_and_monotone(self, model):
        s = np.linspace(0, 10, 5001)
        h = model.h(s)
        hp = model.h_prime(s)
        assert np.all(h >= 0)
        assert np.all(np.diff(hp) >= -1e-14)
        assert np.all(hp <= 1.1 + 1e-14)

    def test_c2_junctions(self, model):
        # h, h' and h'' are continuous at both ends of the ramp
        for s_star in (model.s0, model.s1):
            lo, hi = s_star - 1e-7, s_star + 1e-7
            assert model.h(hi) - model.h(lo) == pytest.approx(0, abs=1e-6)
            assert model.h_prime(hi) - model.h_prime(lo) == pytest.approx(0, abs=1e-6)
            assert model.h_second(hi) - model.h_second(lo) == pytest.approx(0, abs=1e-5)

    def test_integer_levels_hit_once(self, model):
        # monotone h' means every k with 0 < k < 2.2 is a simple level of 2h'
        s = np.linspace(model.s0, model.s1, 200001)
        two_hp = 2 * model.h_prime(s)
        for k in (1, 2):
            crossings = np.sum(np.diff(np.sign(two_hp - k)) != 0)
            assert crossings == 1

    def test_pure_quadratic(self, quad_model):
        s = np.array([0.1, 3.0, 50.0])
        assert np.allclose(quad_model.h(s), 1.1 * s)
        assert quad_model.tail_offset == 0.0


def old_h(m, s):
    """HamiltonianModel.h of the bump variant as it was, evaluating every point."""
    s = np.asarray(s, dtype=float)
    t = m._ramp(s)
    tail = np.where(s > m.s1, m.slope * (s - m.s1), 0.0)
    return m.slope * (m.s1 - m.s0) * _smoothstep_int(t) + tail


def same_result(a, b):
    return type(a) is type(b) and np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestFlatCoreSkip:
    """h evaluates only the points off the flat core, and gives the bytes (and the
    type) of the formula evaluated at every point."""

    MODELS = (HamiltonianModel(), HamiltonianModel(eps_H=0.3, s0=0.5, s1=2.0))

    @staticmethod
    def inputs(m):
        rng = np.random.default_rng(34)
        mixed = rng.uniform(-0.5, 1.5 * m.s1, 257)
        mixed[::3] = rng.uniform(0.0, m.s0, mixed[::3].size)
        return {
            "all_core": np.linspace(0.0, m.s0, 64),
            "mixed": mixed,
            "mixed_2d": mixed[:256].reshape(16, 16),
            "at_s0": np.array([m.s0, np.nextafter(m.s0, 0), np.nextafter(m.s0, 9)]),
            "at_s1": np.array([m.s1, np.nextafter(m.s1, 0), np.nextafter(m.s1, 9)]),
            "tail": np.linspace(m.s1, 10 * m.s1, 33),
            "nan": np.array([np.nan, 0.1, np.nan, 1.0, 5.0]),
            "empty": np.zeros(0),
        }

    @pytest.mark.parametrize("m", MODELS, ids=("default", "wide"))
    def test_arrays(self, m):
        for name, s in self.inputs(m).items():
            s_bytes = s.tobytes()
            assert same_result(m.h(s), old_h(m, s)), name
            assert s.tobytes() == s_bytes, name

    @pytest.mark.parametrize("m", MODELS, ids=("default", "wide"))
    def test_zero_d(self, m):
        # the ramp draws catch a 0-d s taken through a one-point array, whose
        # power differs from the scalar power in about 5% of values
        ramp = np.random.default_rng(7).uniform(m.s0, m.s1, 200)
        for s in (0.0, 0.1, m.s0, 0.5 * (m.s0 + m.s1), m.s1, 3 * m.s1, np.nan, *ramp):
            for x in (s, np.float64(s), np.array(s)):
                assert same_result(m.h(x), old_h(m, x)), s

    def test_flat_core_is_positive_zero(self, model):
        h = model.h(np.array([-1.0, 0.0, 0.1, model.s0]))
        assert h.tobytes() == np.zeros(4).tobytes()


class TestPointwiseFields:
    def test_flat_region_zeroes(self, model):
        x = np.array([0.3 + 0.2j])  # |x|^2 = 0.13 <= 0.25
        assert eval_H(model, x) == 0
        assert np.all(eval_gradH(model, x) == 0)
        assert np.all(eval_XH(model, x) == 0)

    def test_quadratic_region_field(self, model):
        # beyond s1 the slope is 1 + eps, so X_H = 2.2 i x
        x = np.array([2.0 + 1.0j])  # |x|^2 = 5 >= 4
        assert np.allclose(eval_XH(model, x), 2.2j * x)

    def test_gradient_matches_finite_differences(self, model):
        rng = np.random.default_rng(21)
        h = 1e-6
        for _ in range(20):
            # random points in the transition band
            s = rng.uniform(0.3, 3.9)
            phase = rng.uniform(0, 2 * np.pi)
            x = np.array([np.sqrt(s) * np.exp(1j * phase)], complex)
            g = eval_gradH(model, x)[0]
            for direction in (1.0, 1j):
                fd = (
                    eval_H(model, x + h * np.array([direction]))
                    - eval_H(model, x - h * np.array([direction]))
                ) / (2 * h)
                exact = (g * np.conj(direction)).real
                assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)


class TestKFactor:
    def test_flat_region_zero(self, model):
        assert k_factor(model, np.array([0.1 + 0.1j])) == 0

    def test_exact_factorization(self, model):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((50, 1)) + 1j * rng.standard_normal((50, 1))
        kappa = k_factor(model, x)
        assert np.allclose(kappa[:, None] * 1j * x, eval_XH(model, x), atol=0)

    def test_pure_quadratic_rejected(self, quad_model):
        with pytest.raises(ValueError):
            k_factor(quad_model, np.array([1.0 + 0j]))

    def test_lipschitz_product_bound(self, model):
        # |K(x) x - K(y) y| <= 2C (|x| + |y|) |x - y| on 10^4 random pairs
        C = k_factor_constant(model)
        rng = np.random.default_rng(23)
        x = 3.0 * (rng.standard_normal((10_000, 1)) + 1j * rng.standard_normal((10_000, 1)))
        y = 3.0 * (rng.standard_normal((10_000, 1)) + 1j * rng.standard_normal((10_000, 1)))
        lhs = np.abs(eval_XH(model, x) - eval_XH(model, y))[:, 0]
        rhs = (
            2.0
            * C
            * (np.abs(x)[:, 0] + np.abs(y)[:, 0])
            * np.abs(x - y)[:, 0]
        )
        assert np.all(lhs <= rhs + 1e-12)

    def test_pointwise_bound_near_zero(self, model):
        C = k_factor_constant(model)
        rng = np.random.default_rng(24)
        x = rng.standard_normal((2000, 1)) + 1j * rng.standard_normal((2000, 1))
        kappa = k_factor(model, x)
        assert np.all(kappa <= C * np.sqrt(np.sum(np.abs(x) ** 2, axis=1)) + 1e-12)

    def test_constant_evaluated_once_per_model(self, monkeypatch):
        # an equal model reuses the recorded constant and samples no profile
        points = []
        h_prime = HamiltonianModel.h_prime

        def counted(m, s):
            points.append(len(s))
            return h_prime(m, s)

        monkeypatch.setattr(HamiltonianModel, "h_prime", counted)
        k_factor_constant.cache_clear()
        first = k_factor_constant(HamiltonianModel(eps_H=0.3))
        assert points == [20001]
        second = k_factor_constant(HamiltonianModel(eps_H=0.3))
        assert points == [20001]
        assert second == first == k_factor_constant.__wrapped__(HamiltonianModel(eps_H=0.3))
        assert k_factor_constant(HamiltonianModel(eps_H=0.2)) != first and len(points) == 3


class TestAction:
    def test_zero_loop(self, model):
        assert action(model, Loop.zero(1, 8)) == 0

    def test_small_circle_flat_region(self, model):
        # 0.1 e^{i theta}: quadratic term 1/2 * 1 * 0.01, H term vanishes
        g = Loop.from_modes(1, 8, {1: 0.1})
        assert action(model, g) == pytest.approx(0.005, abs=1e-15)

    def test_radial_closed_form(self, model):
        # r e^{i k theta}: action = k r^2 / 2 - h(r^2)
        for k, r in ((1, 0.9), (2, 1.7), (3, 0.4)):
            g = Loop.from_modes(1, 8, {k: r})
            expected = 0.5 * k * r**2 - float(model.h(r**2))
            assert action(model, g) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_gradient_flat_region_is_mode_multiplication(self, model):
        g = Loop.from_modes(1, 6, {-2: 0.05, 0: 0.02, 3: 0.04j})
        grad = grad_action(model, g)
        n = g.modes.astype(float)
        assert np.allclose(grad.coeffs, n[:, None] * g.coeffs, atol=1e-14)

    def test_gradient_matches_directional_finite_difference(self, model):
        rng = np.random.default_rng(25)
        h = 1e-4
        for _ in range(30):
            g = gaussian_loop(1, 8, rng, scale=0.35)
            delta = gaussian_loop(1, 8, rng, scale=0.35)
            pairing = inner(grad_action(model, g), delta, 0)
            fd = (action(model, g + h * delta) - action(model, g - h * delta)) / (2 * h)
            assert abs(pairing - fd) <= 1e-5 * (1 + abs(pairing))


class TestSplitting:
    def test_constant_and_flag(self, model):
        spl = split(model)
        assert spl.c == pytest.approx(2.2j)
        assert spl.nonresonant

    def test_resonant_flag(self):
        spl = split(HamiltonianModel(eps_H=0.5))  # c = 3i resonant
        assert not spl.nonresonant

    def test_compact_part_vanishes_at_infinity(self, model):
        spl = split(model)
        x = np.array([3.0 + 0j])  # |x|^2 = 9 >= s1
        assert np.allclose(eval_compact_part(spl, x), 0)

    def test_splitting_exact(self, model):
        spl = split(model)
        rng = np.random.default_rng(26)
        x = 2.0 * (rng.standard_normal((100, 1)) + 1j * rng.standard_normal((100, 1)))
        recon = spl.c * x + eval_compact_part(spl, x)
        assert np.allclose(recon, eval_XH(model, x), atol=1e-14)

    def test_compact_part_l2_lipschitz_on_loops(self, model):
        # ||X_{H_c}(u1) - X_{H_c}(u2)||_{L^2} <= C ||u1 - u2||_{L^2} on samples
        spl = split(model)
        C = spl.lipschitz_bound()
        rng = np.random.default_rng(27)
        M = 64
        from looplab.loops import sample

        for _ in range(50):
            a = gaussian_loop(1, 8, rng)
            b = gaussian_loop(1, 8, rng)
            xa, xb = sample(a, M), sample(b, M)
            lhs = np.sqrt(np.mean(np.sum(np.abs(
                eval_compact_part(spl, xa) - eval_compact_part(spl, xb)
            ) ** 2, axis=1)))
            rhs = C * np.sqrt(np.mean(np.sum(np.abs(xa - xb) ** 2, axis=1)))
            assert lhs <= rhs + 1e-12


class TestNonlinearLipschitz:
    def test_l4_inequality_on_cylinder_fields(self, model):
        # ||X_H(a) - X_H(b)||_{L^2} <= 2C (||a||_{L4} + ||b||_{L4}) ||a - b||_{L4}
        # over random cylinder fields, pointwise products integrated in (t, theta)
        C = k_factor_constant(model)
        rng = np.random.default_rng(28)
        n_t, M = 9, 48
        for _ in range(1000):
            a = rng.standard_normal((n_t, M, 1)) + 1j * rng.standard_normal((n_t, M, 1))
            b = rng.standard_normal((n_t, M, 1)) + 1j * rng.standard_normal((n_t, M, 1))
            diff_sq = np.sum(np.abs(eval_XH(model, a) - eval_XH(model, b)) ** 2, axis=-1)
            lhs = np.sqrt(np.mean(diff_sq))
            na = np.mean(np.sum(np.abs(a) ** 2, axis=-1) ** 2) ** 0.25
            nb = np.mean(np.sum(np.abs(b) ** 2, axis=-1) ** 2) ** 0.25
            nd = np.mean(np.sum(np.abs(a - b) ** 2, axis=-1) ** 2) ** 0.25
            assert lhs <= 2 * C * (na + nb) * nd + 1e-12


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        HamiltonianModel(eps_H=-0.1)
    with pytest.raises(ValueError):
        HamiltonianModel(s0=2.0, s1=1.0)
    with pytest.raises(ValueError):
        HamiltonianModel(variant="exotic")
