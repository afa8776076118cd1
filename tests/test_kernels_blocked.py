"""The streamed aps kernels and the cylinder norms against their whole-array forms.

The reference functions below evaluate every expression over the whole field
at once.  The streamed kernels and the norms in looplab must give the same
bytes: the comparisons use tobytes(), so even the sign of a zero counts.
Shrinking BLOCK_BYTES to a few rows puts block edges next to both one-sided
end stencils of the time derivative.  The aps ratios that looplab computes
as per-mode Gram forms of P's basis sweeps sum the same terms in another
order, so they are held to the whole-array references at stated relative
allowances, and must make the same random draws in the same order.
"""

import functools
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from looplab import coverage, cylinder, harness
from looplab.cylinder import (
    CylinderMap,
    cyl_norm,
    dt_derivative,
    kernel_p_values,
    kernel_q_values,
    l2_norm,
    phi1,
    phi2,
    smooth_fields,
    time_trapezoid,
)
from looplab.harness import Config
from looplab.loops import (
    Loop,
    gaussian_loop,
    lambda_of_modes,
    mode_numbers,
    sobolev_weights,
    theta_values,
)

# -- whole-array reference forms -------------------------------------------------


def ref_dt_derivative(values, h):
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


def ref_kernel_q_values(plus_coeffs, minus_coeffs, lam, times, eps):
    tt = times[:, None]
    lam_row = lam[None, :]
    plus_factor = np.where(lam_row >= 0, -np.exp(np.minimum(-lam_row * tt, 0.0)), 0.0)
    minus_factor = np.where(lam_row < 0, np.exp(np.minimum((eps - tt) * lam_row, 0.0)), 0.0)
    extra = plus_coeffs.ndim - 1
    shape = (len(times), len(lam)) + (1,) * extra
    return plus_factor.reshape(shape) * plus_coeffs[None] + minus_factor.reshape(
        shape
    ) * minus_coeffs[None]


def ref_kernel_p_values(g_values, lam, h):
    n_nodes = g_values.shape[0]
    fwd = lam >= 0
    bwd = ~fwd
    out = np.zeros_like(g_values)
    extra = g_values.ndim - 2
    reshape = (len(lam),) + (1,) * extra
    w_f = (-lam * h).reshape(reshape)
    decay_f = np.exp(w_f)
    a_f = h * (phi1(w_f) - phi2(w_f))
    b_f = h * phi2(w_f)
    mask_f = fwd.reshape(reshape)
    v_b = (lam * h).reshape(reshape)
    decay_b = np.exp(v_b)
    a_b = h * phi2(v_b)
    b_b = h * (phi1(v_b) - phi2(v_b))
    mask_b = bwd.reshape(reshape)
    for j in range(n_nodes - 1):
        out[j + 1] = np.where(
            mask_f, decay_f * out[j] + a_f * g_values[j] + b_f * g_values[j + 1], out[j + 1]
        )
    for j in range(n_nodes - 2, -1, -1):
        out[j] = np.where(
            mask_b, decay_b * out[j + 1] - (a_b * g_values[j] + b_b * g_values[j + 1]), out[j]
        )
    return out


def ref_smooth_coeffs(rng, N, batch):
    return [
        rng.standard_normal((2 * N + 1, batch)) + 1j * rng.standard_normal((2 * N + 1, batch))
        for _ in range(3)
    ]


def ref_smooth_field(cs, M_t):
    tau = np.linspace(0.0, 1.0, M_t + 1)[:, None, None]
    return cs[0][None] + cs[1][None] * tau + cs[2][None] * tau**2


def ref_random_smooth_fields(rng, N, M_t, batch):
    return ref_smooth_field(ref_smooth_coeffs(rng, N, batch), M_t)


def ref_l2_batch(values, h):
    density = np.sum(np.abs(values) ** 2, axis=1)
    return np.sqrt(time_trapezoid(density, h))


def ref_l21_batch(values, h, N):
    n_sq = mode_numbers(N).astype(float) ** 2
    du = ref_dt_derivative(values, h)
    density = np.sum((1.0 + n_sq)[None, :, None] * np.abs(values) ** 2 + np.abs(du) ** 2, axis=1)
    return np.sqrt(time_trapezoid(density, h))


def ref_gradient_density(values, h, N):
    """The node density of int |grad f|^2 in aps.end_vanishing."""
    n_sq = mode_numbers(N).astype(float) ** 2
    du = ref_dt_derivative(values, h)
    return np.sum(np.abs(du) ** 2 + n_sq[None, :, None] * np.abs(values) ** 2, axis=1)


def ref_cyl_norms(values, h, N):
    """cyl_norm "L2" and "L2_1" of one field, with joint sums over modes and coordinates."""
    weight = sobolev_weights(1, N)[None, :, None]
    du = ref_dt_derivative(values, h)
    l2 = np.sum(np.abs(values) ** 2, axis=(1, 2))
    l21 = np.sum(weight * np.abs(values) ** 2 + np.abs(du) ** 2, axis=(1, 2))
    return float(np.sqrt(time_trapezoid(l2, h))), float(np.sqrt(time_trapezoid(l21, h)))


def ref_random_loop_batch(rng, N, batch, max_mode=None):
    """Coefficient block (2N+1, batch) of iid complex Gaussians."""
    c = rng.standard_normal((2 * N + 1, batch)) + 1j * rng.standard_normal((2 * N + 1, batch))
    if max_mode is not None:
        c = np.where((np.abs(mode_numbers(N)) <= max_mode)[:, None], c, 0.0)
    return c


def ref_right_inverse_residual(g_vals, u_vals, lam, h):
    du = ref_dt_derivative(u_vals, h) + lam[None, :, None] * u_vals
    return ref_l2_batch(du - g_vals, h) / ref_l2_batch(g_vals, h)


def ref_end_vanishing(config):
    """The computed value of aps.end_vanishing_l4, each chunk of 250 fields one whole field."""
    rng = config.rng("aps.end_vanishing")
    N, M_t = config.N, config.M_t
    tau = np.linspace(0.0, 1.0, M_t + 1)
    worst = 0.0
    for eps in (0.5, 0.1, 0.01):
        h = eps / M_t
        for chunk in range(4):
            f = ref_random_smooth_fields(rng, N, M_t, 250)
            f = f * (tau if chunk % 2 == 0 else 1.0 - tau)[:, None, None]
            grad_sq = time_trapezoid(ref_gradient_density(f, h, N), h)
            worst = max(worst, float(np.max(ref_l4_batch(f, h, N) ** 4 / (eps * grad_sq**2))))
    return worst


@functools.lru_cache
def ref_right_inverse_errors(N, M_t, eps, seed):
    """The right-inverse errors at one eps, and the rng's next draw.

    Each chunk of ten forcings is one whole field, as in the unstreamed probe;
    the traces are those of P on the first chunk's fields on the M_t grid.
    """
    rng = np.random.default_rng(seed)
    lam = lambda_of_modes(N).astype(float)
    w = sobolev_weights(0.5, N)[:, None]
    plus_mask = (mode_numbers(N) <= 0)[:, None]
    M_ref = max(2048, int(np.ceil(12000 * eps)))
    h = eps / M_ref
    worst_rel = 0.0
    chunks = [ref_smooth_coeffs(rng, N, 10) for _ in range(10)]
    for cs in chunks:
        g = ref_smooth_field(cs, M_ref)
        u = ref_kernel_p_values(g, lam, h)
        worst_rel = max(worst_rel, float(np.max(ref_right_inverse_residual(g, u, lam, h))))
    u = ref_kernel_p_values(ref_smooth_field(chunks[0], M_t), lam, eps / M_t)
    trace0 = np.sqrt(np.sum(w * plus_mask * np.abs(u[0]) ** 2, axis=0))
    trace1 = np.sqrt(np.sum(w * ~plus_mask * np.abs(u[-1]) ** 2, axis=0))
    worst_trace = max(float(np.max(trace0)), float(np.max(trace1)))
    return worst_rel, worst_trace, rng.standard_normal()


def ref_half_norm(coeffs, N):
    w = sobolev_weights(0.5, N)
    return np.sqrt(np.sum(w[:, None] * np.abs(coeffs) ** 2, axis=0))


def ref_boundary_half_norm(values, N):
    w = sobolev_weights(0.5, N)[:, None]
    return np.sqrt(
        np.sum(w * np.abs(values[0]) ** 2, axis=0) + np.sum(w * np.abs(values[-1]) ** 2, axis=0)
    )


def ref_l4_batch(values, h, N):
    sampled = theta_values(np.swapaxes(values, 1, 2)[..., None], N)[..., 0]
    return time_trapezoid(np.mean(np.abs(sampled) ** 4, axis=-1), h) ** 0.25


def ref_uniformity_estimates(rng, N, M_t, eps):
    """The uniformity estimates at one eps, each probe set one field of its whole batch."""
    lam = lambda_of_modes(N).astype(float)
    m_eff = max(M_t, int(np.ceil(10 * N * eps)))
    h = eps / m_eff
    times = np.linspace(0.0, eps, m_eff + 1)
    mixes = gaussian_loop(1000, N, rng).coeffs
    probes = np.eye(2 * N + 1)
    c = np.concatenate([probes, mixes], axis=1)
    plus = np.where((mode_numbers(N) <= 0)[:, None], c, 0.0)
    minus = np.where((mode_numbers(N) > 0)[:, None], c, 0.0)
    qv = kernel_q_values(plus, minus, lam, times, eps)
    est_q = float(np.max(ref_l21_batch(qv, h, N) / ref_half_norm(c, N)))
    n_probes = probes.shape[1]
    g_vals = np.empty((m_eff + 1, 2 * N + 1, n_probes + 1000), complex)
    g_vals[:, :, :n_probes] = probes
    g_vals[:, :, n_probes:] = ref_random_smooth_fields(rng, N, m_eff, 1000)
    pv = kernel_p_values(g_vals, lam, h)
    g_l2 = ref_l2_batch(g_vals, h)
    est_p = float(np.max(ref_l21_batch(pv, h, N) / g_l2))
    est_r = float(np.max(ref_boundary_half_norm(pv, N) / g_l2))
    c2 = gaussian_loop(100, N, rng).coeffs
    plus2 = np.where((mode_numbers(N) <= 0)[:, None], c2, 0.0)
    minus2 = np.where((mode_numbers(N) > 0)[:, None], c2, 0.0)
    g2 = ref_random_smooth_fields(rng, N, m_eff, 100)
    u2 = kernel_q_values(plus2, minus2, lam, times, eps) + kernel_p_values(g2, lam, h)
    denom = ref_half_norm(c2, N) + ref_l2_batch(g2, h)
    est_mix = float(np.max(ref_l4_batch(u2, h, N) / denom))
    return est_p, est_q, est_r, est_mix


# -- fixtures ------------------------------------------------------------------------

N = 4
H = 0.01


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_field(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(params=[1, 2, 7, None], ids=["rows1", "rows2", "rows7", "default"])
def blocks_of(request, monkeypatch):
    """Set BLOCK_BYTES to a whole number of rows of a given row size."""

    def apply(row_nbytes):
        if request.param is not None:
            monkeypatch.setattr(cylinder, "BLOCK_BYTES", request.param * row_nbytes)

    return apply


NODES = (9, 16, 23)
TRAILING = ((), (2,), (2, 3), (1,), (3,))

# -- tests ----------------------------------------------------------------------------


class TestBlockHelpers:
    def test_blocks_cover_rows_once(self, monkeypatch):
        monkeypatch.setattr(cylinder, "BLOCK_BYTES", 7 * 16 + 15)
        rows = cylinder.block_rows(23, 16)
        blocks = list(cylinder.time_blocks(23, rows))
        assert rows == 7 and blocks[0] == (0, 7) and blocks[-1] == (21, 23)
        assert [a for a, _ in blocks[1:]] == [b for _, b in blocks[:-1]]
        assert cylinder.block_rows(5, 16) == 5
        monkeypatch.setattr(cylinder, "BLOCK_BYTES", 1)
        rows = cylinder.block_rows(3, 16)
        assert list(cylinder.time_blocks(3, rows)) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("n_nodes", (3, 4, 9, 23))
    def test_derivative_rows_match_whole_field(self, n_nodes):
        values = random_field(n_nodes, (n_nodes, 2 * N + 1, 3))
        whole = ref_dt_derivative(values, H)
        assert same_bytes(dt_derivative(values, H), whole)
        for start in range(n_nodes):
            for stop in range(start + 1, n_nodes + 1):
                rows = cylinder.dt_derivative_rows(values, H, start, stop)
                assert same_bytes(rows, whole[start:stop])

    # at h = 0.007, 1/(2h) in single precision is not 1/(2h) rounded from double
    @pytest.mark.parametrize("h", (H, 0.3, 1e-5, 0.007))
    def test_derivative_on_signed_zeros(self, h):
        # every stencil divides by 2h as the whole-array form does, so complex
        # double, complex single and real fields keep its bytes, signed zeros
        # included, in whole fields and in row blocks
        zeros = [complex(sr * 0.0, si * 0.0) for sr in (1, -1) for si in (1, -1)]
        values = random_field(31, (9, 2 * N + 1, 8))
        values[:, :, :4] = zeros  # the same signed zero at every node
        values[::2, :3, 4] = -0.0  # zeros between nonzero rows
        values[:, 5, 5] = complex(-0.0, 1.5)  # constant in time: zero differences
        values[:, 6, 6] = complex(2.5, -0.0)
        values[[0, -1], 7, 7] = complex(0.0, -0.0)  # zeros at the one-sided ends
        # real parts +0, +0, -0, -0, ...: some centered differences are -0 + 2i
        values[:, 8, 7] = [complex((-1) ** (j // 2) * 0.0, j) for j in range(9)]
        for field in (values, values.astype(np.complex64), values.real.copy()):
            ref = ref_dt_derivative(field, h)
            assert same_bytes(dt_derivative(field, h), ref)
            for start, stop in ((0, 3), (2, 7), (6, 9)):
                rows = cylinder.dt_derivative_rows(field, h, start, stop)
                assert same_bytes(rows, ref[start:stop])


class TestKernelP:
    @pytest.mark.parametrize("n_nodes", NODES)
    @pytest.mark.parametrize("trailing", TRAILING)
    def test_bit_identical(self, blocks_of, n_nodes, trailing):
        lam = lambda_of_modes(N).astype(float)
        g = random_field(n_nodes + len(trailing), (n_nodes, 2 * N + 1) + trailing)
        blocks_of(g[0].nbytes)
        assert same_bytes(kernel_p_values(g, lam, H), ref_kernel_p_values(g, lam, H))

    def test_stiff_steps_and_strided_input(self, blocks_of):
        lam = lambda_of_modes(N).astype(float)
        field = random_field(5, (16, 2 * N + 1, 8))
        g = field[:, :, 2:7]  # a view, as a slice of a wider batch
        blocks_of(g[0].nbytes)
        for h in (1e-6, 0.3, 40.0):
            assert same_bytes(kernel_p_values(g, lam, h), ref_kernel_p_values(g, lam, h))

    @pytest.mark.parametrize("n_nodes", (2, 3))
    def test_fewest_nodes(self, blocks_of, n_nodes):
        # the backward sector is put back in time order by swapping rows j
        # and M_t - j: one pair at two nodes, one pair and a middle row at three
        lam = lambda_of_modes(N).astype(float)
        g = random_field(40 + n_nodes, (n_nodes, 2 * N + 1, 3))
        blocks_of(g[0].nbytes)
        assert same_bytes(kernel_p_values(g, lam, H), ref_kernel_p_values(g, lam, H))

    def test_signed_zero_forcing(self, blocks_of):
        # forcing columns of exact +0.0 and -0.0 in each sector, beside
        # random ones: the backward steps add A = -(a g + b g) and B = -0.0,
        # and must keep the zero signs of decay out - (a g + b g)
        lam = lambda_of_modes(N).astype(float)
        g = random_field(42, (9, 2 * N + 1, 6))
        g[:, :, :4] = [complex(sr * 0.0, si * 0.0) for sr in (1, -1) for si in (1, -1)]
        for field in (g, g.real.copy()):
            blocks_of(field[0].nbytes)
            assert same_bytes(kernel_p_values(field, lam, H), ref_kernel_p_values(field, lam, H))

    def test_one_sector_only(self, blocks_of):
        g = random_field(6, (9, 3, 2))
        blocks_of(g[0].nbytes)
        for lam in (np.array([2.0, 1.0, 0.0]), np.array([-1.0, -2.0, -3.0])):
            assert same_bytes(kernel_p_values(g, lam, H), ref_kernel_p_values(g, lam, H))

    @pytest.mark.parametrize("n_nodes", NODES)
    def test_basis_sweep(self, blocks_of, n_nodes):
        # P over the broadcast basis 1, tau, tau^2 gives the bytes of P over
        # that basis written out in every mode
        lam = lambda_of_modes(N).astype(float)
        tau = np.linspace(0.0, 1.0, n_nodes)
        full = np.repeat(np.stack([np.ones_like(tau), tau, tau**2], axis=1)[:, None], 2 * N + 1, 1)
        blocks_of(full[0].nbytes)
        basis_p = cylinder.basis_p_values(lam, H, n_nodes - 1)
        assert same_bytes(basis_p, ref_kernel_p_values(full, lam, H))

    def test_rejects_unsorted_sectors(self):
        g = random_field(7, (9, 3))
        with pytest.raises(ValueError, match="sector"):
            kernel_p_values(g, np.array([-1.0, 0.0, 1.0]), H)


def signed_zero_coeffs(batch):
    """Coefficient blocks with one-hot probes, signed zeros and random mixes."""
    modes = 2 * N + 1
    zeros = np.array([complex(sr * 0.0, si * 0.0) for sr in (1, -1) for si in (1, -1)])
    c = np.concatenate(
        [np.broadcast_to(zeros, (modes, 4)), np.eye(modes), random_field(8, (modes, batch))],
        axis=1,
    )
    plus = np.where((mode_numbers(N) <= 0)[:, None], c, 0.0)
    minus = np.where((mode_numbers(N) > 0)[:, None], c, 0.0)
    return c, plus, minus


class TestKernelQ:
    @pytest.mark.parametrize("eps", (1.0, 0.01))
    def test_bit_identical_on_probes_and_signed_zeros(self, eps):
        lam = lambda_of_modes(N).astype(float)
        times = np.linspace(0.0, eps, 17)
        c, plus, minus = signed_zero_coeffs(5)
        for p, m in ((plus, minus), (c, c), (-1.0 * plus, minus), (plus, -1.0 * c)):
            out = kernel_q_values(p, m, lam, times, eps)
            assert same_bytes(out, ref_kernel_q_values(p, m, lam, times, eps))
        # the zero coefficients give +0.0, as the whole-array form does
        probe_out = kernel_q_values(plus, minus, lam, times, eps)[:, :, 4 : 4 + 2 * N + 1]
        off_probe = probe_out[:, np.eye(2 * N + 1) == 0]
        assert not np.any(off_probe)
        assert not np.any(np.signbit(off_probe.real)) and not np.any(np.signbit(off_probe.imag))

    def test_bit_identical_on_boundary_data(self):
        # decompose negates the plus slot, so its off-sector zeros are -0.0
        from looplab.cylinder import decompose

        lam = lambda_of_modes(N).astype(float)
        times = np.linspace(0.0, 0.5, 9)
        for coeffs in (random_field(9, (2 * N + 1, 2)), np.zeros((2 * N + 1, 2), complex)):
            beta = decompose(Loop(2, N, coeffs))
            p, m = beta.plus0.coeffs, beta.minus_end.coeffs
            assert same_bytes(
                kernel_q_values(p, m, lam, times, 0.5), ref_kernel_q_values(p, m, lam, times, 0.5)
            )

    def test_real_coefficients(self):
        lam = lambda_of_modes(N).astype(float)
        times = np.linspace(0.0, 0.2, 9)
        c = np.random.default_rng(10).standard_normal((2 * N + 1, 3))
        assert same_bytes(
            kernel_q_values(c, -c, lam, times, 0.2), ref_kernel_q_values(c, -c, lam, times, 0.2)
        )

    def test_modes_in_any_order(self):
        # Q acts mode by mode, so permuted lam and coefficients give the
        # permuted bytes, also when the lambda < 0 modes come first
        lam = lambda_of_modes(N).astype(float)
        times = np.linspace(0.0, 0.3, 9)
        _, plus, minus = signed_zero_coeffs(3)
        perm = np.random.default_rng(31).permutation(2 * N + 1)
        assert lam[perm][0] < 0
        out = kernel_q_values(plus, minus, lam, times, 0.3)
        permuted = kernel_q_values(plus[perm], minus[perm], lam[perm], times, 0.3)
        assert same_bytes(permuted, out[:, perm])


class TestHarnessHelpers:
    @pytest.mark.parametrize("n_nodes", NODES)
    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_norms_bit_identical(self, blocks_of, n_nodes, d):
        # the single-field norms are whole-array expressions: l2_norm, which
        # the Picard solver calls directly, and cyl_norm "L2_1" sum modes and
        # coordinates jointly, with the bytes of the reference at any BLOCK_BYTES
        values = random_field(11 + n_nodes, (n_nodes, 2 * N + 1, d))
        blocks_of(values[0].nbytes)
        l2, l21 = ref_cyl_norms(values, H, N)
        assert same_bytes(l2_norm(values, H), l2)
        u = CylinderMap(d, N, H * (n_nodes - 1), n_nodes - 1, values)
        assert same_bytes(cyl_norm(u, "L2_1"), l21)

    def test_norms_on_probe_fields(self):
        # one field whose coordinates are Q's one-hot probes, signed zeros and
        # random mixes: the norms keep the bytes of the reference
        lam = lambda_of_modes(N).astype(float)
        times = np.linspace(0.0, 0.1, 10)
        _, plus, minus = signed_zero_coeffs(3)
        qv = kernel_q_values(plus, minus, lam, times, 0.1)
        u = CylinderMap(qv.shape[2], N, 0.1, 9, qv)
        l2, l21 = ref_cyl_norms(qv, u.dt, N)
        assert same_bytes(cyl_norm(u, "L2"), l2)
        assert same_bytes(cyl_norm(u, "L2_1"), l21)

    @pytest.mark.parametrize("n_nodes", NODES)
    def test_right_inverse_residual(self, blocks_of, n_nodes):
        # |D P g - g| / |g| as Gram forms of P's basis sweep, its residual
        # rows streamed in time blocks, against the whole fields.  On these
        # short grids the residual is about 1e-3 |g|, and the time derivative
        # divides the rounding of P g by 2h: the Gram forms move it by at most
        # 1.5e-13 relative, within an allowance of 1e-11
        lam = lambda_of_modes(N).astype(float)
        M = n_nodes - 1
        coeffs = harness._smooth_field_coeffs(np.random.default_rng(12), N, 3)
        g = ref_random_smooth_fields(np.random.default_rng(12), N, M, 3)
        blocks_of((2 * N + 1) * 3 * 8)  # rows of the basis sweep
        gram = cylinder.residual_gram(cylinder.basis_p_values(lam, H, M), lam, H)
        g_gram = cylinder.mode_gram([cylinder.tau_powers(M)[:, None]], H)
        forms = [cylinder.quadratic_forms(gr, coeffs) for gr in (gram, g_gram)]
        rel = np.sqrt(forms[0] / forms[1])
        ref = ref_right_inverse_residual(g, ref_kernel_p_values(g, lam, H), lam, H)
        np.testing.assert_allclose(rel, ref, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("eps", (0.5, 0.001))
    def test_right_inverse_errors(self, blocks_of, eps):
        # all hundred forcings as Gram forms against ten whole chunk fields.
        # The worst residual is 2.7e-8 |g| at eps = 0.5 and 1.6e-7 |g| at
        # eps = 0.001, a cancellation in which the time derivative divides
        # the rounding of P g by 2h: it moves by up to 6.4e-8 relative,
        # within an allowance of 1e-6.  The traces keep their bytes
        blocks_of((2 * N + 1) * 3 * 8)  # rows of the basis sweep
        rng = np.random.default_rng(22)
        worst_rel, worst_trace, next_draw = ref_right_inverse_errors(N, 16, eps, 22)
        counts = coverage.counts()
        rel, trace = harness._right_inverse_errors(rng, N, 16, eps)
        assert rel == pytest.approx(worst_rel, rel=1e-6, abs=0) and trace == worst_trace
        # the same draws, in the same order, and no public operation runs
        assert rng.standard_normal() == next_draw
        assert coverage.counts() == counts

    @pytest.mark.parametrize("batch", (1, 4))
    def test_random_smooth_fields(self, batch):
        n_nodes = 23
        coeffs = harness._smooth_field_coeffs(np.random.default_rng(13), N, batch)
        ref = ref_random_smooth_fields(np.random.default_rng(13), N, n_nodes - 1, batch)
        assert same_bytes(smooth_fields(coeffs, n_nodes - 1), ref)


class TestGramForms:
    """Per-mode Gram forms against the fields they stand for."""

    @pytest.mark.parametrize("n_nodes", NODES)
    def test_mode_gram_in_blocks(self, n_nodes):
        # the trapezoid rule on per-node outer products, in time blocks of any
        # size; entries may cancel, so the allowance is relative to the largest
        x = np.random.default_rng(n_nodes).standard_normal((n_nodes, 2 * N + 1, 3))
        ref = time_trapezoid(x[:, :, :, None] * x[:, :, None, :], H)
        for rows in (1, 2, 7, n_nodes):
            blocks = [x[a:b] for a, b in cylinder.time_blocks(n_nodes, rows)]
            gram = cylinder.mode_gram(blocks, H)
            np.testing.assert_allclose(gram, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))

    def test_quadratic_forms(self):
        # sum_n c_n^H G_n c_n is the squared L^2 norm of the field sum_k c_k X_k,
        # and a (1, 3, 3) Gram serves every mode
        rng = np.random.default_rng(25)
        x = rng.standard_normal((17, 2 * N + 1, 3))
        coeffs = harness._smooth_field_coeffs(rng, N, 5)
        field = sum(x[:, :, k, None] * c for k, c in enumerate(coeffs))
        forms = cylinder.quadratic_forms(cylinder.mode_gram([x], H), coeffs)
        np.testing.assert_allclose(forms, ref_l2_batch(field, H) ** 2, rtol=1e-14, atol=0)
        shared = np.broadcast_to(x[:, :1], x.shape)
        field = sum(shared[:, :, k, None] * c for k, c in enumerate(coeffs))
        forms = cylinder.quadratic_forms(cylinder.mode_gram([x[:, :1]], H), coeffs)
        np.testing.assert_allclose(forms, ref_l2_batch(field, H) ** 2, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("window", ("tau", "1-tau"))
    @pytest.mark.parametrize("n_nodes", NODES)
    def test_windowed_gradient_gram(self, n_nodes, window):
        # int |grad f|^2 of the fields f = w (c0 + c1 tau + c2 tau^2) of
        # aps.end_vanishing, as Gram forms of the windowed basis w (1, tau,
        # tau^2), against the whole fields: sums of squares in another order
        tau = np.linspace(0.0, 1.0, n_nodes)[:, None, None]
        w = tau if window == "tau" else 1.0 - tau
        basis = w * cylinder.tau_powers(n_nodes - 1)[:, None]
        coeffs = harness._smooth_field_coeffs(np.random.default_rng(28), N, 5)
        f = w * ref_smooth_field(coeffs, n_nodes - 1)
        n_sq = mode_numbers(N).astype(float) ** 2
        forms = cylinder.quadratic_forms(harness._sobolev_gram(basis, n_sq, H), coeffs)
        ref = time_trapezoid(ref_gradient_density(f, H, N), H)
        np.testing.assert_allclose(forms, ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n_nodes", NODES)
    def test_l4_combination(self, blocks_of, n_nodes):
        # the field sum_k c_k X_k, formed one time block at a time, has the
        # L^4 norms of the whole field summed in the same order
        rng = np.random.default_rng(26 + n_nodes)
        basis = rng.standard_normal((n_nodes, 2 * N + 1, 4))
        coeffs = [random_field(27 + k, (2 * N + 1, 3)) for k in range(4)]
        field = basis[:, :, 0, None] * coeffs[0]
        for k in range(1, 4):
            field = field + basis[:, :, k, None] * coeffs[k]
        blocks_of(field[0].nbytes)
        assert same_bytes(cylinder.l4_combination(basis, coeffs, H, N), ref_l4_batch(field, H, N))
        # a basis shared by every mode goes through the quartic form of
        # l4_shared_basis: within 1e-14 of l4_combination on its broadcast
        shared = basis[:, 0]
        np.testing.assert_allclose(
            cylinder.l4_shared_basis(shared, coeffs, H, N),
            cylinder.l4_combination(np.broadcast_to(shared[:, None], basis.shape), coeffs, H, N),
            rtol=1e-14,
            atol=0,
        )

    @pytest.mark.parametrize("window", ("tau", "1-tau"))
    @pytest.mark.parametrize("n_nodes", NODES)
    def test_l4_shared_basis_windows(self, n_nodes, window):
        # the fields w (c0 + c1 tau + c2 tau^2) of aps.end_vanishing as the
        # quartic form of the windowed basis w (1, tau, tau^2), against the
        # L^4 norms of the whole fields: the same terms summed in another order
        tau = np.linspace(0.0, 1.0, n_nodes)
        w = tau if window == "tau" else 1.0 - tau
        basis = w[:, None] * cylinder.tau_powers(n_nodes - 1)
        coeffs = harness._smooth_field_coeffs(np.random.default_rng(29), N, 5)
        field = w[:, None, None] * ref_smooth_field(coeffs, n_nodes - 1)
        np.testing.assert_allclose(
            cylinder.l4_shared_basis(basis, coeffs, H, N), ref_l4_batch(field, H, N),
            rtol=1e-14, atol=0,
        )

    @pytest.mark.parametrize("K", (1, 2, 3))
    def test_l4_shared_basis_random(self, K):
        # a random real basis (nodes, K) shared by every mode, against the
        # L^4 norms of the whole field sum_k c_k X_k
        basis = np.random.default_rng(30 + K).standard_normal((23, K))
        coeffs = [random_field(31 + k, (2 * N + 1, 5)) for k in range(K)]
        field = sum(basis[:, k, None, None] * c for k, c in enumerate(coeffs))
        np.testing.assert_allclose(
            cylinder.l4_shared_basis(basis, coeffs, H, N), ref_l4_batch(field, H, N),
            rtol=1e-14, atol=0,
        )


class TestUniformityBlocked:
    """The uniformity estimates, their fields streamed in time blocks, against whole batches."""

    @pytest.mark.parametrize("cols", (3, None), ids=["cols3", "default"])
    def test_estimates_bit_identical(self, monkeypatch, cols):
        # only P's basis sweeps and the mixed L^4 fields are streamed, and
        # their bytes do not depend on the block size: a BLOCK_BYTES of three
        # whole columns (one row a block of the 100-column mixed L^4 fields)
        # or the default gives the bytes of one row a block.  Each squared
        # norm sums the terms of its whole-batch reference in another order,
        # per mode before over time, with no cancellation: the estimates move
        # by at most 4.4e-16 relative, within 1e-14
        M_t = 16
        for eps in (1.0, 0.5, 0.1, 0.01, 0.001):
            with monkeypatch.context() as mp:
                mp.setattr(cylinder, "BLOCK_BYTES", 1)
                one_row = harness._uniformity_estimates(np.random.default_rng(20), N, M_t, eps)
            if cols is not None:
                m_eff = max(M_t, int(np.ceil(10 * N * eps)))
                col_nbytes = (m_eff + 1) * (2 * N + 1) * 16
                monkeypatch.setattr(cylinder, "BLOCK_BYTES", cols * col_nbytes)
            rng, rng_ref = np.random.default_rng(20), np.random.default_rng(20)
            counts = coverage.counts()
            estimates = harness._uniformity_estimates(rng, N, M_t, eps)
            assert same_bytes(estimates, one_row)
            ref = ref_uniformity_estimates(rng_ref, N, M_t, eps)
            assert estimates == pytest.approx(ref, rel=1e-14, abs=0)
            # the same draws, in the same order, and no public operation runs
            assert rng.standard_normal() == rng_ref.standard_normal()
            assert coverage.counts() == counts


@functools.lru_cache
def suite_uniformity():
    """(eps, Gram forms, estimates) of the default config's uniformity sweep, in its draw order."""
    config = Config()
    rng = config.rng("aps.uniformity")
    return [
        (
            eps,
            harness._uniformity_grams(config.N, config.M_t, eps),
            harness._uniformity_estimates(rng, config.N, config.M_t, eps),
        )
        for eps in config.eps_list
    ]


def span_supremum(gram, g_gram):
    """Largest ratio sqrt(c^T G_n c / c^T G^g c) over all modes n and real c.

    It is the square root of the largest eigenvalue of the pencils
    (G_n, G^g): with G^g = L L^T, those of L^-1 G_n L^-T.
    """
    inv = np.linalg.inv(np.linalg.cholesky(g_gram[0]))
    return float(np.sqrt(np.max(np.linalg.eigvalsh(inv @ gram @ inv.T))))


class TestUniformityGrams:
    """The uniformity estimates as Gram forms, against exact suprema."""

    def test_p_and_restriction_below_span_suprema(self):
        # over the span of 1, tau, tau^2 in each mode the largest P and
        # restriction ratios are exact: a ratio of sums over modes never
        # beats its best mode, and the best of a mode is the largest
        # eigenvalue of a 3 x 3 symmetric-definite pencil (Rayleigh-Ritz).
        # The sampled estimates, whose probes and mixes lie in that span,
        # stay below it, and fall short by up to 10%
        suprema = {}
        for eps, grams, (est_p, _, est_r, _) in suite_uniformity():
            sup_p = span_supremum(grams["p"], grams["g"])
            sup_r = span_supremum(grams["trace"], grams["g"])
            assert est_p <= sup_p * (1 + 1e-12) and est_r <= sup_r * (1 + 1e-12)
            suprema[eps] = (est_p, sup_p, est_r, sup_r)
        assert suprema[1.0][:2] == pytest.approx((1.1547, 1.1854), abs=1e-4)
        assert suprema[0.1][2:] == pytest.approx((0.6380, 0.7051), abs=1e-4)

    def test_q_estimate_is_the_probe_maximum(self):
        # Q is diagonal, so a mix of modes never beats its best mode: the
        # unit probes reach the largest ratio sqrt(q_n / w_n)
        w = sobolev_weights(0.5, 32)
        for _, grams, (_, est_q, _, _) in suite_uniformity():
            assert est_q == pytest.approx(float(np.max(np.sqrt(grams["q"] / w))), rel=1e-12, abs=0)

    @pytest.mark.parametrize("eps", Config().eps_list)
    def test_q_gram_closed_form(self, eps):
        # Q e_n is e^{-|n| s} in the distance s to its prescribed end, so
        # |Q e_n|^2 in L^2_1 is (1 + 2 n^2)(1 - e^{-2|n| eps}) / (2|n|), and eps at n = 0
        N = 32
        n = np.abs(mode_numbers(N)).astype(float)
        exact = np.full(2 * N + 1, eps)
        nz = n > 0
        exact[nz] = (1 + 2 * n[nz] ** 2) * -np.expm1(-2 * n[nz] * eps) / (2 * n[nz])
        assert harness._uniformity_grams(N, 64, eps)["q"] == pytest.approx(exact, rel=1e-2, abs=0)


@pytest.fixture(params=[1, 2, 3], ids=["workers1", "workers2", "workers3"])
def n_workers(request):
    """Threads of the caller that run the aps sweeps at once."""
    return request.param


def in_threads(n, fn):
    """[fn(0), ..., fn(n - 1)], each call in its own thread, all started together."""
    results, errors = [None] * n, []
    start = threading.Barrier(n)

    def run(i):
        start.wait()
        try:
            results[i] = fn(i)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def aps_report(config):
    return json.dumps([r.to_json_dict() for r in harness._suite_aps(config)])


def aps_group(monkeypatch, config, name):
    """The check group `name` of config's aps suite, unrun."""
    groups = {}

    def collect(suite, gs):
        groups.update((g.__name__, g) for g in gs)
        return []

    with monkeypatch.context() as mp:
        mp.setattr(harness, "_run_groups", collect)
        harness._suite_aps(config)
    return groups[name]


class TestColumnWorkers:
    """The aps sweeps keep no state between calls: threads of the caller that
    run them at once get the bytes and the draws of one serial run."""

    @pytest.mark.parametrize("rows", (7, None), ids=["rows7", "default"])
    @pytest.mark.parametrize("eps", (0.5, 0.001))
    def test_right_inverse_errors(self, n_workers, monkeypatch, rows, eps):
        if rows is not None:
            # rows of the basis sweep and of its residual blocks
            monkeypatch.setattr(cylinder, "BLOCK_BYTES", rows * (2 * N + 1) * 3 * 8)
        worst_rel, worst_trace, next_draw = ref_right_inverse_errors(N, 16, eps, 22)
        serial = harness._right_inverse_errors(np.random.default_rng(22), N, 16, eps)
        assert serial[0] == pytest.approx(worst_rel, rel=1e-6, abs=0) and serial[1] == worst_trace
        counts = coverage.counts()

        def run(i):
            rng = np.random.default_rng(22)
            return harness._right_inverse_errors(rng, N, 16, eps), rng.standard_normal()

        for errors, draw in in_threads(n_workers, run):
            assert same_bytes(errors, serial) and draw == next_draw
        # no public operation runs, in any thread
        assert coverage.counts() == counts

    @pytest.mark.parametrize("cols", (6, None), ids=["cols6", "default"])
    def test_uniformity_estimates(self, n_workers, monkeypatch, cols):
        M_t = 16
        for eps in (1.0, 0.001):
            if cols is not None:
                # six whole columns: the 100-column mixed L^4 fields stream
                # one or two rows a block
                m_eff = max(M_t, int(np.ceil(10 * N * eps)))
                monkeypatch.setattr(cylinder, "BLOCK_BYTES", cols * (m_eff + 1) * (2 * N + 1) * 16)
            rng_ref = np.random.default_rng(20)
            ref = ref_uniformity_estimates(rng_ref, N, M_t, eps)
            next_draw = rng_ref.standard_normal()
            serial = harness._uniformity_estimates(np.random.default_rng(20), N, M_t, eps)
            assert serial == pytest.approx(ref, rel=1e-14, abs=0)
            counts = coverage.counts()

            def run(i, eps=eps):
                rng = np.random.default_rng(20)
                return harness._uniformity_estimates(rng, N, M_t, eps), rng.standard_normal()

            for estimates, draw in in_threads(n_workers, run):
                assert same_bytes(estimates, serial) and draw == next_draw
            assert coverage.counts() == counts

    def test_aps_groups(self, n_workers):
        # every group of a small aps suite in each thread against its serial
        # run, and end_vanishing against whole fields.  Its gradient is a
        # per-mode Gram form and its L^4 norm a quartic form of the windowed
        # basis, the same terms summed in another order: within 1e-14
        config = Config(N=4, M_t=8, eps_list=(0.1, 0.01))
        serial = aps_report(config)
        computed = json.loads(serial)[-1]["computed"]
        assert computed == pytest.approx(ref_end_vanishing(config), rel=1e-14, abs=0)
        assert in_threads(n_workers, lambda i: aps_report(config)) == [serial] * n_workers

    def test_failing_part_is_a_group_error(self, n_workers, monkeypatch):
        # in the first thread the residual Gram of the second eps fails: its
        # right-inverse group alone adds an error record and records its
        # checks as not run, and the other threads' suites keep the bytes of
        # the serial run
        config = Config(N=4, M_t=8, eps_list=(0.1, 0.01))
        serial = aps_report(config)
        gram, local = harness.residual_gram, threading.local()

        def second_part_fails(*args):
            local.calls += 1
            if local.fails and local.calls == 2:
                raise FloatingPointError("residual Gram 2")
            return gram(*args)

        def run(i):
            local.fails, local.calls = i == 0, 0
            return harness._suite_aps(config)

        monkeypatch.setattr(harness, "residual_gram", second_part_fails)
        records, *others = in_threads(n_workers, run)
        names = [r.name for r in records]
        (error,) = [r for r in records if r.name == "aps.right_inverse.error"]
        assert error.details == {"exception": "FloatingPointError: residual Gram 2"}
        assert not error.passed
        (residual,) = [r for r in records if r.name == "aps.right_inverse_residual"]
        assert residual.computed == np.inf and not residual.passed
        assert residual.details == {
            "not_run": "right_inverse raised FloatingPointError: residual Gram 2"
        }
        assert "aps.uniformity_p_variation" in names and "aps.end_vanishing_l4" in names
        for other in others:
            assert json.dumps([r.to_json_dict() for r in other]) == serial

    def test_cli_import_leaves_concurrent_futures_unloaded(self):
        # no module of the package needs it; importing the CLI must not
        # load it, or every command would pay for it
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, looplab.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestCylNorm:
    """cyl_norm sums one field's modes and coordinates jointly."""

    @pytest.mark.parametrize("n_nodes", NODES)
    @pytest.mark.parametrize("d", (1, 2))
    @pytest.mark.parametrize("modes", (N, 32))  # long mode sums expose any reordering
    def test_l2_and_l21_bit_identical(self, blocks_of, n_nodes, d, modes):
        values = random_field(16 + n_nodes, (n_nodes, 2 * modes + 1, d))
        u = CylinderMap(d, modes, H * (n_nodes - 1), n_nodes - 1, values)
        blocks_of(values[0].nbytes)
        l2, l21 = ref_cyl_norms(u.values, u.dt, modes)
        assert same_bytes(cyl_norm(u, "L2"), l2)
        assert same_bytes(cyl_norm(u, "L2_1"), l21)


class TestRandomLoops:
    @pytest.mark.parametrize("batch", (1, 1000))
    @pytest.mark.parametrize("max_mode", (None, 2))
    def test_gaussian_loop_block_bit_identical(self, batch, max_mode):
        new = gaussian_loop(batch, N, np.random.default_rng(17), max_mode=max_mode).coeffs
        ref = ref_random_loop_batch(np.random.default_rng(17), N, batch, max_mode)
        assert same_bytes(new, ref)


class TestStreamingMemory:
    """Peak traced allocations: the sweeps stream their fields or reduce them to Gram forms."""

    SHAPE = (2049, 65, 10)

    def peak(self, fn, *args):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_kernel_p_values_peak(self):
        g = random_field(15, self.SHAPE)
        lam = lambda_of_modes(32).astype(float)
        out, peak = self.peak(kernel_p_values, g, lam, 1e-4)
        assert peak < 1.25 * out.nbytes

    def test_uniformity_estimates_peak(self):
        # at eps = 1 a probe set of the whole batch would be one
        # (321, 65, 1065) field of 355 MB; the Gram forms need only P's basis
        # sweep, and the mixed L^4 fields are formed one time block at a time
        _, peak = self.peak(harness._uniformity_estimates, np.random.default_rng(18), 32, 64, 1.0)
        assert peak < 80 * 2**20

    def test_end_vanishing_peak(self, monkeypatch):
        # at the default config a chunk of 250 fields is 17 MB; no field is
        # formed: the L^4 norms are a quartic form of the theta samples of
        # the coefficient blocks, and the gradient a Gram form of the
        # windowed basis (65, 1, 3)
        group = aps_group(monkeypatch, Config(), "end_vanishing")
        (record,), peak = self.peak(lambda: harness._run_groups("aps", (group,)))
        assert record.name == "aps.end_vanishing_l4" and peak < 8 * 2**20

    def test_right_inverse_streams(self):
        # no forcing field or P image of the batch is ever made, only P's
        # basis sweep (nodes, 65, 3): at eps = 0.001 the peak stays under one
        # (2049, 65, 10) field, and at eps = 1, where one such field of ten
        # forcings would take 125 MB, under 64 MiB
        field_nbytes = 2049 * 65 * 10 * 16
        _, peak = self.peak(harness._right_inverse_errors, np.random.default_rng(19), 32, 64, 0.001)
        assert peak < field_nbytes
        _, peak = self.peak(harness._right_inverse_errors, np.random.default_rng(19), 32, 64, 1.0)
        assert peak < 64 * 2**20
