import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looplab.files import from_json, write_json
from looplab.loops import (
    Loop,
    aps_project,
    block_N,
    gaussian_block,
    gaussian_loop,
    inner,
    inner_values,
    project,
    sample,
    sample_coeffs,
    sobolev_norm,
    sobolev_sq,
    sobolev_weights,
    synthesize,
    synthesize_values,
    theta_matrices,
)


def direct_eval(loop: Loop, thetas: np.ndarray) -> np.ndarray:
    """Independent evaluation of the Fourier sum (no FFT path)."""
    n = loop.modes
    phases = np.exp(1j * np.outer(thetas, n))
    return phases @ loop.coeffs


class TestSobolevNorm:
    def test_single_mode_half_norm(self):
        # sum |c_n|^2 |n| + |c_0|^2 with only c_2 = 3 gives 9 * 2 = 18
        g = Loop.from_modes(1, 4, {2: 3.0})
        assert sobolev_norm(g, 0.5) ** 2 == pytest.approx(18.0, abs=1e-14)

    def test_zero_loop_all_orders(self):
        z = Loop.zero(2, 5)
        for order in (0, 0.5, 1, 2):
            assert sobolev_norm(z, order) == 0.0

    def test_zero_mode_weight(self):
        g = Loop.from_modes(1, 3, {0: 2.0})
        assert sobolev_norm(g, 0.5) ** 2 == pytest.approx(4.0, abs=1e-14)
        assert sobolev_norm(g, 1) ** 2 == pytest.approx(4.0, abs=1e-14)

    def test_parseval_against_quadrature(self):
        # oracle: rectangle rule for int |gamma|^2 dtheta/2pi on a 4N grid,
        # with gamma evaluated by direct summation
        rng = np.random.default_rng(7)
        g = gaussian_loop(2, 8, rng)
        M = 4 * g.N
        thetas = 2 * np.pi * np.arange(M) / M
        vals = direct_eval(g, thetas)
        quad = np.mean(np.sum(np.abs(vals) ** 2, axis=1))
        norm_sq = sobolev_norm(g, 0) ** 2
        assert abs(norm_sq - quad) <= 1e-10 * norm_sq

    def test_bad_order_rejected(self):
        g = Loop.zero(1, 2)
        with pytest.raises(ValueError):
            sobolev_norm(g, 0.25)
        with pytest.raises(ValueError):
            sobolev_sq(np.ones((2, 5, 1), complex), 3)

    @pytest.mark.parametrize("order", (0, 0.5, 1, 2))
    @pytest.mark.parametrize("d", (1, 2, 3))
    @pytest.mark.parametrize("lead", ((), (5,), (2, 3)), ids=["block", "stack", "grid"])
    def test_sobolev_sq_per_block(self, order, d, lead):
        # each block of a stack has the bytes of sobolev_norm of its loop and
        # of the weighted sum over that block alone
        N = 7
        rng = np.random.default_rng(40 + d + 3 * len(lead))
        shape = lead + (2 * N + 1, d)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sq = sobolev_sq(c, order)
        assert sq.shape == lead
        w = sobolev_weights(order, N)[:, None]
        for idx in np.ndindex(*lead):
            root = float(np.sqrt(sq[idx])).hex()
            assert root == sobolev_norm(Loop(c[idx]), order).hex()
            assert root == float(np.sqrt(np.sum(w * np.abs(c[idx]) ** 2))).hex()

    def test_order_two_weight(self):
        # the L^2_2 weight (1 + n^2)^2 is the square of the L^2_1 weight, bit for bit
        w2 = sobolev_weights(2, 9)
        assert w2.tobytes() == (sobolev_weights(1, 9) ** 2).tobytes()
        assert np.array_equal(w2, (1.0 + np.arange(-9, 10) ** 2) ** 2)


class TestProjections:
    def test_plus_keeps_positive_modes_only(self):
        g = Loop.from_modes(1, 2, {-1: 1.0 + 2j, 0: 3.0, 1: 4.0 - 1j})
        p = project(g, "plus")
        assert p.mode(1)[0] == 4.0 - 1j
        assert p.mode(0)[0] == 0 and p.mode(-1)[0] == 0

    def test_complementary_exact(self):
        rng = np.random.default_rng(3)
        g = gaussian_loop(2, 6, rng)
        total = project(g, "plus") + project(g, "minus")
        assert np.array_equal(total.coeffs, g.coeffs)

    def test_mutually_annihilating(self):
        rng = np.random.default_rng(4)
        g = gaussian_loop(1, 5, rng)
        pm = project(project(g, "plus"), "minus")
        assert np.all(pm.coeffs == 0)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        g = gaussian_loop(1, 5, rng)
        p = project(g, "plus")
        assert np.array_equal(project(p, "plus").coeffs, p.coeffs)

    def test_norm_monotone(self):
        rng = np.random.default_rng(6)
        g = gaussian_loop(2, 7, rng)
        for sector in ("plus", "minus"):
            assert sobolev_norm(project(g, sector), 0.5) <= sobolev_norm(g, 0.5)


class TestApsProjection:
    def test_positive_mode_killed_by_plus(self):
        g = Loop.from_modes(1, 3, {1: 1.0})
        assert np.all(aps_project(g, "plus").coeffs == 0)

    def test_zero_mode_kept_by_plus(self):
        g = Loop.from_modes(1, 3, {0: 2.5})
        assert aps_project(g, "plus").mode(0)[0] == 2.5

    def test_aps_plus_equals_polarization_minus(self):
        rng = np.random.default_rng(11)
        g = gaussian_loop(2, 6, rng)
        assert np.array_equal(
            aps_project(g, "plus").coeffs, project(g, "minus").coeffs
        )


def ref_sample_coeffs(coeffs, N, M):
    """sample_coeffs in its n % M scatter form."""
    spec = np.zeros(coeffs.shape[:-2] + (M,) + coeffs.shape[-1:], complex)
    spec[..., np.arange(-N, N + 1) % M, :] = coeffs
    return np.fft.ifft(spec, axis=-2) * M


def ref_synthesize_values(values, N):
    """synthesize_values in its n % M gather form."""
    M = values.shape[-2]
    spec = np.fft.fft(values, axis=-2) / M
    return spec[..., np.arange(-N, N + 1) % M, :]


def same_bytes(new, ref):
    return new.shape == ref.shape and new.dtype == ref.dtype and new.tobytes() == ref.tobytes()


class TestSamplingBridge:
    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)], ids=("loop", "lead5", "lead3x4"))
    @pytest.mark.parametrize("grid", ("2N+2", "4N", "odd"))
    def test_slice_copies_match_modulo_forms(self, grid, lead):
        # both directions keep the bits of the n % M forms, and every block
        # comes back C-ordered, which the gather form is not under a leading axis
        N, d = 6, 2
        M = {"2N+2": 2 * N + 2, "4N": 4 * N, "odd": 2 * N + 3}[grid]
        rng = np.random.default_rng(M + len(lead))
        coeffs = rng.standard_normal(lead + (2 * N + 1, d)) + 1j * rng.standard_normal(
            lead + (2 * N + 1, d)
        )
        values = sample_coeffs(coeffs, M)
        assert same_bytes(values, ref_sample_coeffs(coeffs, N, M))
        assert values.flags.c_contiguous
        grid_values = rng.standard_normal(lead + (M, d)) + 1j * rng.standard_normal(lead + (M, d))
        for vals in (values, grid_values):
            out = synthesize_values(vals, N)
            assert same_bytes(out, ref_synthesize_values(vals, N))
            assert out.flags.c_contiguous

    @pytest.mark.parametrize("N", (1, 8, 32))
    def test_theta_matrices_are_the_bridge_on_the_identity(self, N):
        S, Y = theta_matrices(N)
        assert same_bytes(S, sample_coeffs(np.eye(2 * N + 1, dtype=complex), 4 * N))
        assert same_bytes(Y, synthesize_values(np.eye(4 * N, dtype=complex), N))
        # formed once per N and shared, so read-only
        assert theta_matrices(N)[0] is S and not S.flags.writeable and not Y.flags.writeable

    def test_roundtrip(self):
        rng = np.random.default_rng(12)
        g = gaussian_loop(2, 8, rng)
        back = synthesize(sample(g, 4 * g.N), g.N)
        assert np.max(np.abs(back.coeffs - g.coeffs)) <= 1e-12

    def test_constant_loop_sample(self):
        g = Loop.from_modes(1, 4, {0: 1.5 - 0.5j})
        vals = sample(g, 12)
        assert np.allclose(vals, 1.5 - 0.5j)

    def test_first_mode_gives_roots_of_unity(self):
        g = Loop.from_modes(1, 3, {1: 1.0})
        vals = sample(g, 8)
        expected = np.exp(2j * np.pi * np.arange(8) / 8)
        assert np.max(np.abs(vals[:, 0] - expected)) <= 1e-14

    def test_small_grid_rejected(self):
        g = Loop.zero(1, 4)
        with pytest.raises(ValueError):
            sample(g, 2 * g.N + 1)
        with pytest.raises(ValueError):
            synthesize(np.zeros((2 * g.N + 1, 1), complex), g.N)


class TestInner:
    def test_inner_is_norm_squared(self):
        rng = np.random.default_rng(13)
        g = gaussian_loop(2, 6, rng)
        for order in (0, 0.5):
            assert inner(g, g, order) == pytest.approx(
                sobolev_norm(g, order) ** 2, rel=1e-14
            )

    def test_distinct_modes_orthogonal(self):
        a = Loop.from_modes(1, 3, {1: 1.0})
        b = Loop.from_modes(1, 3, {2: 1.0})
        assert inner(a, b, 0) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(14)
        g = gaussian_loop(2, 6, rng)
        h = gaussian_loop(2, 6, rng)
        assert abs(inner(g, h, 0) - inner(h, g, 0)) <= 1e-14

    @pytest.mark.parametrize("order", (0, 0.5))
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=("loop", "lead5", "lead2x3"))
    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_inner_values_per_block(self, d, lead, order):
        # each block pairs with the bytes of inner and of the whole-block sum
        rng = np.random.default_rng(15 + d)
        N = 6
        shape = lead + (2 * N + 1, d)
        a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
        values = inner_values(a, b, order)
        assert values.shape == lead
        w = sobolev_weights(order, N)[:, None]
        for idx in np.ndindex(lead):
            whole = np.sum(w * (a[idx] * b[idx].conj()).real)
            paired = inner(Loop(a[idx]), Loop(b[idx]), order)
            assert repr(float(values[idx])) == repr(paired) == repr(float(whole))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            inner(Loop.zero(1, 3), Loop.zero(1, 4))
        with pytest.raises(ValueError):
            Loop.zero(1, 3) + Loop.zero(2, 3)


class TestBlockLayout:
    @pytest.mark.parametrize("layout", ("fortran", "transposed", "strided"))
    def test_any_layout_stores_the_c_ordered_block(self, layout):
        rng = np.random.default_rng(16)
        c = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
        rows = np.zeros((18, 2), complex)
        rows[::2] = c
        block = {
            "fortran": np.asfortranarray(c),
            "transposed": np.ascontiguousarray(c.T).T,
            "strided": rows[::2],
        }[layout]
        assert not block.flags.c_contiguous
        g = Loop(block)
        assert same_bytes(g.coeffs, Loop(c).coeffs)
        assert g.coeffs.flags.c_contiguous and not g.coeffs.flags.writeable


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        c = gaussian_loop(2, 5, rng).coeffs.copy()
        c[0, 1] = complex(-0.0, 0.0)
        c[3, 0] = complex(0.0, -0.0)
        g = Loop(c)
        path = tmp_path / "loop.json"
        write_json(path, g)
        back = from_json(Loop, json.loads(path.read_text()), "loop")
        assert (back.d, back.N) == (g.d, g.N)
        # bit for bit, signed zeros included
        assert back.coeffs.tobytes() == g.coeffs.tobytes()

    def test_rejects_nonfinite(self):
        c = np.zeros((7, 1), complex)
        c[0, 0] = np.inf
        with pytest.raises(ValueError):
            Loop(c)

    @pytest.mark.parametrize("key", ["d", "N"])
    def test_rejects_shape_keys_that_disagree_with_the_array(self, tmp_path, key):
        path = tmp_path / "loop.json"
        write_json(path, Loop(np.ones((7, 2), complex)))
        obj = json.loads(path.read_text())
        obj[key] += 1
        with pytest.raises(ValueError, match=rf"\['{key}'\] disagree"):
            from_json(Loop, obj, "loop")


class TestBlockShape:
    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    def test_block_N_of_stacks(self, lead):
        assert block_N(np.zeros(lead + (11, 2))) == 5

    def test_loop_reads_d_and_N_off_its_coefficients(self):
        g = Loop(np.zeros((9, 3)))
        assert (g.d, g.N) == (3, 4)

    @pytest.mark.parametrize(
        "shape", [(9,), (9, 2, 1), (8, 2), (1, 2), (9, 0)],
        ids=["1-D", "3-D", "even modes", "N=0", "d=0"],
    )
    def test_rejects_blocks_of_other_shapes(self, shape):
        with pytest.raises(ValueError, match="loop coefficients"):
            Loop(np.zeros(shape, complex))

    @pytest.mark.parametrize("d", [1, 3, 100, 1000])
    def test_gaussian_draws_keep_the_stream(self, d):
        # all real parts are drawn before the imaginary parts, so a seeded
        # batch has the bytes of the two-draw form and the stream stays in step
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        c = gaussian_loop(d, 8, rng).coeffs
        assert same_bytes(c, ref.standard_normal((17, d)) + 1j * ref.standard_normal((17, d)))
        assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("shape", [(1,), (17, 1), (65, 3), (65, 1000), (2, 3, 4)])
    def test_gaussian_block_is_a_plus_i_b(self, seed, shape):
        # a and b are drawn into the complex output through one real buffer;
        # the bytes and the stream after the draws are those of a + 1j * b
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        c = gaussian_block(rng, shape)
        assert c.dtype == complex and c.flags.c_contiguous
        assert same_bytes(c, ref.standard_normal(shape) + 1j * ref.standard_normal(shape))
        assert rng.standard_normal() == ref.standard_normal()


@st.composite
def small_loops(draw):
    N = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return gaussian_loop(d, N, rng)


@given(small_loops())
@settings(max_examples=60, deadline=None)
def test_projection_partition_property(g):
    recon = project(g, "plus") + project(g, "minus")
    assert np.array_equal(recon.coeffs, g.coeffs)
    assert np.all(project(project(g, "plus"), "minus").coeffs == 0)


@given(small_loops())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(g):
    back = synthesize(sample(g, 2 * g.N + 2), g.N)
    assert np.max(np.abs(back.coeffs - g.coeffs)) <= 1e-12
