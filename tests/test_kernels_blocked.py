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
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from looplab import coverage, cylinder, harness
from looplab.cylinder import (
    CylinderMap,
    apply_D,
    cyl_norm,
    decompose,
    dt_derivative,
    energy,
    kernel_p_values,
    kernel_q_values,
    l2_norm,
    phi1,
    phi2,
    q_op,
    smooth_fields,
    time_trapezoid,
)
from looplab.cycles import winding_seed
from looplab.files import Config, FindOrbit, from_json
from looplab.hamiltonian import HamiltonianModel
from looplab.loops import (
    Loop,
    gaussian_loop,
    lambda_of_modes,
    mode_numbers,
    sobolev_weights,
    theta_values,
)
from looplab.solver import flow_trajectory

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
            worst = max(worst, float(np.max(ref_l4_batch(f, h) ** 4 / (eps * grad_sq**2))))
    return worst


@functools.lru_cache
def ref_right_inverse_errors(N, M_t, eps, seed):
    """The right-inverse errors at one eps, and the rng's next draw.

    Each chunk of ten forcings is one whole field, as in the unstreamed probe;
    the traces are those of P on the first chunk's fields on the M_t grid.
    """
    rng = np.random.default_rng(seed)
    lam = lambda_of_modes(N)
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


def ref_gram_sum(x, total=0.0):
    """total plus sum_j x_jn x_jn^T per mode of x (rows, modes, k), added one
    row after the other."""
    for row in x:
        total = total + row[:, :, None] * row[:, None, :]
    return total


def ref_residual_gram(lam, h, M):
    """residual_gram from the whole sweep: the residual field D P[tau^k] - tau^k
    of ref_kernel_p_values over the basis written out in every mode, its
    per-mode Gram summed row by row in sweep order, forward in time on the
    lambda >= 0 sector and backward on the lambda < 0 sector."""
    powers = cylinder.tau_powers(M)[:, None, :]
    p = ref_kernel_p_values(np.repeat(powers, len(lam), axis=1), lam, h)
    r = ref_dt_derivative(p, h) + lam[:, None] * p - powers
    n_fwd = int(np.count_nonzero(lam >= 0))
    total = np.concatenate([ref_gram_sum(r[:, :n_fwd]), ref_gram_sum(r[::-1, n_fwd:])])
    first, last = (x[:, :, None] * x[:, None, :] for x in (r[0], r[-1]))
    return h * (total - 0.5 * (first + last))


def ref_half_norm(coeffs, N):
    w = sobolev_weights(0.5, N)
    return np.sqrt(np.sum(w[:, None] * np.abs(coeffs) ** 2, axis=0))


def ref_boundary_half_norm(values, N):
    w = sobolev_weights(0.5, N)[:, None]
    return np.sqrt(
        np.sum(w * np.abs(values[0]) ** 2, axis=0) + np.sum(w * np.abs(values[-1]) ** 2, axis=0)
    )


def ref_l4_batch(values, h):
    sampled = theta_values(np.swapaxes(values, 1, 2)[..., None])[..., 0]
    return time_trapezoid(np.mean(np.abs(sampled) ** 4, axis=-1), h) ** 0.25


def ref_uniformity_estimates(rng, N, M_t, eps):
    """The uniformity estimates at one eps, each probe set one field of its whole batch."""
    lam = lambda_of_modes(N)
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
    est_mix = float(np.max(ref_l4_batch(u2, h) / denom))
    return est_p, est_q, est_r, est_mix


# -- fixtures ------------------------------------------------------------------------

N = 4
H = 0.01
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    def test_column_chunks(self, monkeypatch):
        # chunks cover the columns once, and none holds a single column
        # unless the batch does: a lone last column joins the chunk before it
        monkeypatch.setattr(cylinder, "BLOCK_BYTES", 3 * 16)
        assert cylinder.column_chunks(10, 16) == [(0, 3), (3, 6), (6, 10)]
        assert cylinder.column_chunks(9, 16) == [(0, 3), (3, 6), (6, 9)]
        assert cylinder.column_chunks(1, 16) == [(0, 1)]
        monkeypatch.setattr(cylinder, "BLOCK_BYTES", 1)
        assert cylinder.column_chunks(5, 16) == [(0, 2), (2, 5)]
        assert cylinder.column_chunks(4, 16) == [(0, 2), (2, 4)]

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

    @pytest.mark.parametrize("n_nodes", (3, 4, 9, 23))
    def test_reversed_rows_negate(self, n_nodes):
        # the Gram reads the backward sector in sweep order, at |lambda|: on
        # time-reversed rows, D at |lambda| = -lambda is the exact negative of
        # D at lambda, row for row, in every block of rows and so at both
        # one-sided end stencils.  Zeros may change sign, which no product of
        # the Gram can see, so the rows are compared as values
        lam = lambda_of_modes(N)
        lam = lam[lam < 0]
        values = random_field(47, (n_nodes, len(lam), 4))
        values[:, 0, 0] = complex(-0.0, 0.0)  # signed zeros at every node
        values[::2, 1, 1] = -0.0  # zeros between nonzero rows
        values[:, 2, 2] = complex(2.5, -0.0)  # constant in time: zero differences
        values[[0, -1], 3, 3] = complex(0.0, -0.0)  # zeros at the one-sided ends
        for field in (values, values.astype(np.complex64), values.real.copy()):
            whole = cylinder._d_rows(field, lam, H, 0, n_nodes)[::-1]
            for start in range(n_nodes):
                for stop in range(start + 1, n_nodes + 1):
                    rows = cylinder._d_rows(field[::-1], np.abs(lam), H, start, stop)
                    assert rows.dtype == whole.dtype
                    assert np.array_equal(rows, -whole[start:stop])


class TestKernelP:
    @pytest.mark.parametrize("n_nodes", NODES)
    @pytest.mark.parametrize("trailing", TRAILING)
    def test_bit_identical(self, blocks_of, n_nodes, trailing):
        lam = lambda_of_modes(N)
        g = random_field(n_nodes + len(trailing), (n_nodes, 2 * N + 1) + trailing)
        blocks_of(g[0].nbytes)
        assert same_bytes(kernel_p_values(g, lam, H), ref_kernel_p_values(g, lam, H))

    def test_stiff_steps_and_strided_input(self, blocks_of):
        lam = lambda_of_modes(N)
        field = random_field(5, (16, 2 * N + 1, 8))
        g = field[:, :, 2:7]  # a view, as a slice of a wider batch
        blocks_of(g[0].nbytes)
        for h in (1e-6, 0.3, 40.0):
            assert same_bytes(kernel_p_values(g, lam, h), ref_kernel_p_values(g, lam, h))

    @pytest.mark.parametrize("n_nodes", (2, 3))
    def test_fewest_nodes(self, blocks_of, n_nodes):
        # the backward sector is put back in time order by swapping rows j
        # and M_t - j: one pair at two nodes, one pair and a middle row at three
        lam = lambda_of_modes(N)
        g = random_field(40 + n_nodes, (n_nodes, 2 * N + 1, 3))
        blocks_of(g[0].nbytes)
        assert same_bytes(kernel_p_values(g, lam, H), ref_kernel_p_values(g, lam, H))

    def test_signed_zero_forcing(self, blocks_of):
        # forcing columns of exact +0.0 and -0.0 in each sector, beside
        # random ones: the backward steps add A = -(a g + b g) and B = -0.0,
        # and must keep the zero signs of decay out - (a g + b g)
        lam = lambda_of_modes(N)
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
        lam = lambda_of_modes(N)
        tau = np.linspace(0.0, 1.0, n_nodes)
        full = np.repeat(np.stack([np.ones_like(tau), tau, tau**2], axis=1)[:, None], 2 * N + 1, 1)
        blocks_of(full[0].nbytes)
        basis_p = cylinder.basis_p_values(lam, H, n_nodes - 1)
        assert same_bytes(basis_p, ref_kernel_p_values(full, lam, H))

    @pytest.mark.parametrize("rows", (20, 24, 30))
    def test_forcing_sub_blocks(self, monkeypatch, rows):
        # blocks of 20, 24 and 30 rows form their forcing products in
        # sub-blocks of 2, 3 and 3 rows, the last of each block shorter when
        # the block is; the sweep keeps its bytes
        lam = lambda_of_modes(N)
        for g in (random_field(43, (101, 2 * N + 1, 2)), random_field(44, (101, 2 * N + 1))):
            monkeypatch.setattr(cylinder, "BLOCK_BYTES", rows * g[0].nbytes)
            assert cylinder.block_rows(100, 8 * g[0].nbytes) == rows // 8
            assert same_bytes(kernel_p_values(g, lam, H), ref_kernel_p_values(g, lam, H))

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


class TestResidualGram:
    """The residual Gram, formed while P's basis sweep runs, against the whole sweep."""

    # (M, rows): time blocks of one row put edges beside both one-sided end
    # stencils; blocks of 2, 3, 5 and 7 rows on 8 to 23 steps put edges next
    # to them and at and beside the middle row, where a forward row's time
    # meets its backward mirror; None is the default size
    @pytest.mark.parametrize("M", (2, 3, 8, 9, 15, 16, 22))
    @pytest.mark.parametrize("rows", (1, 2, 3, 5, 7, None))
    def test_bit_identical(self, monkeypatch, M, rows):
        # forward rows arrive in time order, backward rows reversed: both
        # sectors keep the bytes of the whole sweep's Gram summed row by row
        lam = lambda_of_modes(N)
        row_nbytes = (2 * N + 1) * 3 * 8
        if rows is not None:
            monkeypatch.setattr(cylinder, "BLOCK_BYTES", rows * row_nbytes)
        n_fwd = int(np.count_nonzero(lam >= 0))
        for h in (H, 1e-5, 0.3):
            gram = cylinder.residual_gram(lam, h, M)
            ref = ref_residual_gram(lam, h, M)
            assert same_bytes(gram[:n_fwd], ref[:n_fwd])
            assert same_bytes(gram[n_fwd:], ref[n_fwd:])

    @pytest.mark.parametrize(
        "lam", ([1.0, 0.0, -1.0], [2.0, 1.0, 0.0, -1.0, -2.0]), ids=("1_mode_sector", "2_modes")
    )
    @pytest.mark.parametrize("M", (9, 100, 2000))
    def test_one_result_across_row_counts(self, monkeypatch, lam, M):
        # the Gram does not depend on the rows of the time blocks, also for a
        # sector of one mode, whose reduce over a buffer of one entry a row
        # numpy would sum pairwise
        lam = np.array(lam)
        grams = []
        for rows in (1, 2, 3, 7, 64, None):
            with monkeypatch.context() as mp:
                if rows is not None:
                    mp.setattr(cylinder, "BLOCK_BYTES", rows * len(lam) * 3 * 8)
                grams.append(cylinder.residual_gram(lam, 1.0 / M, M).tobytes())
        assert len(set(grams)) == 1
        assert grams[0] == ref_residual_gram(lam, 1.0 / M, M).tobytes()

    @pytest.mark.parametrize("rows", (20, 30))
    def test_forcing_sub_blocks(self, monkeypatch, rows):
        # P's sweep forms the forcing of each block in sub-blocks of 2 or 3
        # rows; the sweep rows, and so the Gram, keep their bytes
        lam = lambda_of_modes(N)
        row_nbytes = (2 * N + 1) * 3 * 8
        monkeypatch.setattr(cylinder, "BLOCK_BYTES", rows * row_nbytes)
        ref = ref_residual_gram(lam, H, 100)
        assert same_bytes(cylinder.residual_gram(lam, H, 100), ref)

    @pytest.mark.parametrize("rows", (1, 2, None))
    def test_one_sector_only(self, monkeypatch, rows):
        for lam in (np.array([2.0, 1.0, 0.0]), np.array([-1.0, -2.0, -3.0])):
            if rows is not None:
                monkeypatch.setattr(cylinder, "BLOCK_BYTES", rows * len(lam) * 3 * 8)
            ref = ref_residual_gram(lam, H, 9)
            assert same_bytes(cylinder.residual_gram(lam, H, 9), ref)


class TestKernelQ:
    @pytest.mark.parametrize("eps", (1.0, 0.01))
    def test_bit_identical_on_probes_and_signed_zeros(self, eps):
        lam = lambda_of_modes(N)
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

        lam = lambda_of_modes(N)
        times = np.linspace(0.0, 0.5, 9)
        for coeffs in (random_field(9, (2 * N + 1, 2)), np.zeros((2 * N + 1, 2), complex)):
            beta = decompose(Loop(coeffs))
            p, m = beta.plus0.coeffs, beta.minus_end.coeffs
            assert same_bytes(
                kernel_q_values(p, m, lam, times, 0.5), ref_kernel_q_values(p, m, lam, times, 0.5)
            )

    def test_real_coefficients(self):
        lam = lambda_of_modes(N)
        times = np.linspace(0.0, 0.2, 9)
        c = np.random.default_rng(10).standard_normal((2 * N + 1, 3))
        assert same_bytes(
            kernel_q_values(c, -c, lam, times, 0.2), ref_kernel_q_values(c, -c, lam, times, 0.2)
        )

    def test_modes_in_any_order(self):
        # Q acts mode by mode, so permuted lam and coefficients give the
        # permuted bytes, also when the lambda < 0 modes come first
        lam = lambda_of_modes(N)
        times = np.linspace(0.0, 0.3, 9)
        _, plus, minus = signed_zero_coeffs(3)
        perm = np.random.default_rng(31).permutation(2 * N + 1)
        assert lam[perm][0] < 0
        out = kernel_q_values(plus, minus, lam, times, 0.3)
        permuted = kernel_q_values(plus[perm], minus[perm], lam[perm], times, 0.3)
        assert same_bytes(permuted, out[:, perm])


class TestQKernelDefect:
    """The kernel defect of Q, formed in halo time blocks, against the whole field."""

    @staticmethod
    def whole(beta, eps, M):
        u = q_op(beta, eps, M_t=M)
        return float(np.max(np.abs(apply_D(u).values))) / float(np.max(np.abs(u.values)))

    @staticmethod
    def calls(monkeypatch):
        """The number of steps of each field passed to apply_D, in call order."""
        steps, original = [], cylinder.apply_D
        monkeypatch.setattr(cylinder, "apply_D", lambda u: steps.append(u.M_t) or original(u))
        return steps

    # 67, 662 and 3305 steps are grids of aps.q_kernel_of_d; the others lie
    # around 256 steps and its multiples.  n_windows counts the 256-step
    # windows, one every 255 steps, that a grid spans
    @pytest.mark.parametrize(("M", "n_windows"), (
        (67, 1), (200, 1), (256, 1), (257, 2), (510, 2), (662, 3), (765, 3), (3305, 13),
    ))
    @pytest.mark.parametrize("eps", (0.5, 0.1, 0.01))
    def test_bit_identical(self, monkeypatch, M, n_windows, eps):
        betas = [decompose(gaussian_loop(1, 32, np.random.default_rng(seed))) for seed in range(2)]
        refs = [self.whole(beta, eps, M) for beta in betas]
        steps = self.calls(monkeypatch)
        for beta, ref in zip(betas, refs):
            assert same_bytes(cylinder.q_kernel_defect(beta, eps, M), ref)
        assert steps == []

    # the fewest steps that both one-sided end stencils take, in blocks of
    # 1, 2 and 7 rows and of the whole grid
    @pytest.mark.parametrize("M", range(2, 8))
    def test_shortest_grids(self, blocks_of, M):
        beta = decompose(Loop(random_field(M, (2 * N + 1, 2))))
        blocks_of(6 * beta.plus0.coeffs.nbytes)
        lam = lambda_of_modes(N)
        for eps in (0.5, 0.01):
            h = eps / M
            times = np.linspace(0.0, eps, M + 1)
            u = ref_kernel_q_values(beta.plus0.coeffs, beta.minus_end.coeffs, lam, times, eps)
            du = ref_dt_derivative(u, h) + lam[None, :, None] * u
            ref = float(np.max(np.abs(du))) / float(np.max(np.abs(u)))
            assert same_bytes(cylinder.q_kernel_defect(beta, eps, M), ref)

    # blocks of 1, 2 and 7 rows (each blocks_of but the default) put block
    # edges beside both one-sided end stencils, on grids of one block and of
    # up to 1026 blocks
    @pytest.mark.parametrize("M", (8, 9, 14, 15, 16, 22, 23, 100, 1025))
    def test_small_windows(self, blocks_of, M):
        beta = decompose(Loop(random_field(M, (2 * N + 1, 2))))
        blocks_of(6 * beta.plus0.coeffs.nbytes)
        for eps in (0.5, 0.01):
            assert same_bytes(cylinder.q_kernel_defect(beta, eps, M), self.whole(beta, eps, M))

    def test_apply_D_is_the_whole_field_form(self):
        # apply_D, residual_gram and q_kernel_defect share one row kernel of D
        u = CylinderMap(0.3, random_field(3, (17, 2 * N + 1, 2)))
        ref = ref_dt_derivative(u.values, u.dt) + lambda_of_modes(N)[None, :, None] * u.values
        assert same_bytes(apply_D(u).values, ref)


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
        u = CylinderMap(H * (n_nodes - 1), values)
        assert same_bytes(cyl_norm(u, "L2_1"), l21)

    def test_norms_on_probe_fields(self):
        # one field whose coordinates are Q's one-hot probes, signed zeros and
        # random mixes: the norms keep the bytes of the reference
        lam = lambda_of_modes(N)
        times = np.linspace(0.0, 0.1, 10)
        _, plus, minus = signed_zero_coeffs(3)
        qv = kernel_q_values(plus, minus, lam, times, 0.1)
        u = CylinderMap(0.1, qv)
        l2, l21 = ref_cyl_norms(qv, u.dt, N)
        assert same_bytes(l2_norm(u.values, u.dt), l2)
        assert same_bytes(cyl_norm(u, "L2_1"), l21)

    @pytest.mark.parametrize("n_nodes", NODES)
    def test_right_inverse_residual(self, blocks_of, n_nodes):
        # |D P g - g| / |g| as Gram forms of P's basis sweep, its residual
        # rows formed in time blocks while the sweep runs, against the whole
        # fields.  On these
        # short grids the residual is about 1e-3 |g|, and the time derivative
        # divides the rounding of P g by 2h: the Gram forms move it by at most
        # 1.5e-13 relative, within an allowance of 1e-11
        lam = lambda_of_modes(N)
        M = n_nodes - 1
        coeffs = harness._smooth_field_coeffs(np.random.default_rng(12), N, 3)
        g = ref_random_smooth_fields(np.random.default_rng(12), N, M, 3)
        blocks_of((2 * N + 1) * 3 * 8)  # rows of the basis sweep
        gram = cylinder.residual_gram(lam, H, M)
        g_gram = cylinder.mode_gram(cylinder.tau_powers(M)[:, None], H)
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
        # _add_gram over any split of the rows gives the bytes of one call,
        # which adds the rows one after the other, on contiguous, reversed and
        # Fortran-ordered fields of one to nine modes, with exact and signed
        # zeros among the values.  mode_gram is the trapezoid rule on
        # per-node outer products; entries may cancel, so the allowance is
        # relative to the largest
        rng = np.random.default_rng(n_nodes)
        for modes in (1, 2, 9):
            x = rng.standard_normal((n_nodes, modes, 4))
            x[:, :, 1] = 0.0
            x[::2, :, 2] = -0.0
            x[:, :, 3] = -np.abs(x[:, :, 3])  # its products with column 1 are all -0.0
            start = rng.standard_normal((modes, 4, 4))
            start = start + np.swapaxes(start, 1, 2)
            for field in (x, x[:, :, :3], x[::-1, ::-1], np.asfortranarray(x)):
                k = field.shape[2]
                whole = start[:, :k, :k].copy()
                cylinder._add_gram(whole, field)
                assert same_bytes(whole, ref_gram_sum(field, start[:, :k, :k]))
                for rows in (1, 2, 7):
                    split = start[:, :k, :k].copy()
                    for a, b in cylinder.time_blocks(n_nodes, rows):
                        cylinder._add_gram(split, field[a:b])
                    assert same_bytes(split, whole)
            x = x[:, :, :3]
            ref = time_trapezoid(x[:, :, :, None] * x[:, :, None, :], H)
            gram = cylinder.mode_gram(x, H)
            np.testing.assert_allclose(gram, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))

    def test_quadratic_forms(self):
        # sum_n c_n^H G_n c_n is the squared L^2 norm of the field sum_k c_k X_k,
        # and a (1, 3, 3) Gram serves every mode
        rng = np.random.default_rng(25)
        x = rng.standard_normal((17, 2 * N + 1, 3))
        coeffs = harness._smooth_field_coeffs(rng, N, 5)
        field = sum(x[:, :, k, None] * c for k, c in enumerate(coeffs))
        forms = cylinder.quadratic_forms(cylinder.mode_gram(x, H), coeffs)
        np.testing.assert_allclose(forms, ref_l2_batch(field, H) ** 2, rtol=1e-14, atol=0)
        shared = np.broadcast_to(x[:, :1], x.shape)
        field = sum(shared[:, :, k, None] * c for k, c in enumerate(coeffs))
        forms = cylinder.quadratic_forms(cylinder.mode_gram(x[:, :1], H), coeffs)
        np.testing.assert_allclose(forms, ref_l2_batch(field, H) ** 2, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("cols", (1, 2, 3, 7, None), ids=lambda c: f"cols{c}")
    @pytest.mark.parametrize("batch", (1, 2, 22))
    def test_quadratic_forms_in_column_chunks(self, monkeypatch, cols, batch):
        # column chunks of any size give the bytes of the whole batch's forms,
        # per-mode and shared Grams alike
        rng = np.random.default_rng(34)
        gram = cylinder.mode_gram(rng.standard_normal((17, 2 * N + 1, 3)), H)
        coeffs = harness._smooth_field_coeffs(rng, N, batch)
        c = np.stack(coeffs, axis=-1)
        if cols is not None:
            monkeypatch.setattr(cylinder, "BLOCK_BYTES", cols * (2 * N + 1) * 3 * 16)
        for g in (gram, gram[:1]):
            whole = sum(np.sum(x * (x @ g), axis=(0, 2)) for x in (c.real, c.imag))
            assert same_bytes(cylinder.quadratic_forms(g, coeffs), whole)

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
        assert same_bytes(cylinder.l4_combination(basis, coeffs, H), ref_l4_batch(field, H))
        # a basis shared by every mode goes through the quartic form of
        # l4_shared_basis: within 1e-14 of l4_combination on its broadcast
        shared = basis[:, 0]
        np.testing.assert_allclose(
            cylinder.l4_shared_basis(shared, coeffs, H),
            cylinder.l4_combination(np.broadcast_to(shared[:, None], basis.shape), coeffs, H),
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
            cylinder.l4_shared_basis(basis, coeffs, H), ref_l4_batch(field, H),
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
            cylinder.l4_shared_basis(basis, coeffs, H), ref_l4_batch(field, H),
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


def equivalence_group(config):
    """The records of config's flow.equivalence_nonresonant group, keyed by name."""
    group = harness.CHECKS["flow"]["equivalence_nonresonant"]
    return {r.name: r for r in harness._run_groups("flow", config, [group])}


class TestEquivalenceGrams:
    """The flow suite's energy/norm equivalence as per-mode Gram forms, against
    energy and cyl_norm on the formed fields and against the exact extremes."""

    C_IM = 2.0 * 1.1  # the pure-quadratic model at eps_H = 0.1

    @pytest.mark.parametrize("N, M_t, fields", [(4, 16, 200), (32, 64, 40)],
                             ids=["small", "default-subset"])
    def test_ratios_match_energy_over_norm(self, N, M_t, fields):
        # the group's own draws (the first `fields` of its stream), one field at a time
        m_quad = HamiltonianModel(eps_H=0.1, variant="pure_quadratic")
        g_energy, g_norm = harness._equivalence_grams(N, M_t, self.C_IM)
        rng = Config(N=N, M_t=M_t).rng("flow.equivalence")
        draws = [harness._smooth_field_coeffs(rng, N, 1) for _ in range(fields)]
        coeffs = [np.concatenate(c, axis=1) for c in zip(*draws)]
        ratios = cylinder.quadratic_forms(g_energy, coeffs) / cylinder.quadratic_forms(g_norm, coeffs)
        for ratio, draw in zip(ratios, draws):
            u = CylinderMap(0.4, smooth_fields(draw, M_t))
            assert ratio == pytest.approx(energy(m_quad, u) / cyl_norm(u, "L2_1") ** 2, rel=1e-13, abs=0)

    @pytest.mark.parametrize("N", [1, 2, 8, 32])
    def test_pencil_extremes_are_the_bounds(self, N):
        # a constant field in mode n has the ratio (n - c_im)^2 / (2 (1 + n^2))
        # and the time derivative alone 1/2, so over the span of 1, tau, tau^2
        # the extremes are the per-mode bounds whenever they straddle 1/2
        lo, hi = harness._bounds_for(N, self.C_IM)
        extremes = harness._pencil_extremes(*harness._equivalence_grams(N, 64, self.C_IM))
        assert extremes == pytest.approx((lo, hi), rel=1e-13, abs=0)

    @pytest.mark.parametrize("budget", [1 << 20, 28 << 10, 7 * 9360], ids=["default", "28KiB", "cols7"])
    def test_chunks_keep_the_bytes_of_one_batch(self, monkeypatch, budget):
        # every one of the 1000 forms, in column chunks (eight of 112 and one
        # of 104 by default; chunks of three at 28 KiB, whose lone last column
        # joins the chunk before it) and as one batch, and the same draws
        config = Config()
        grams = harness._equivalence_grams(config.N, config.M_t, self.C_IM)
        forms = []
        for size in (budget, 1 << 30):
            monkeypatch.setattr(cylinder, "BLOCK_BYTES", size)
            rng = config.rng("flow.equivalence")
            energies, norms_sq, first = harness._equivalence_forms(rng, config.N, *grams, 1000)
            forms.append((energies.tobytes(), norms_sq.tobytes(), np.array(first).tobytes(), rng.random()))
        assert forms[0] == forms[1]


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


def aps_records(config, *names):
    """The records of config's aps suite, or of its check groups `names` alone."""
    table = harness.CHECKS["aps"]
    return harness._run_groups("aps", config, [table[n] for n in names] or table.values())


def aps_report(config):
    return json.dumps([r.to_json_dict() for r in aps_records(config)])


class TestBlockBudget:
    """BLOCK_BYTES is a memory budget: it changes no byte of a report."""

    # the aps Gram sums run row by row in sweep order and the kernel defect
    # takes its maxima over halo blocks, whatever the time blocks.
    # The flow's node blocks and the descent's windows take stack_rows rows:
    # 7 at N = 8, d = 1 in 28 KiB, 256 in the default 1 MiB; action_values
    # and grad_h_modes count no call per block
    BUDGETS = {
        "aps": (256 << 10, 1 << 20, 4 << 20, 16 << 20),
        "flow": (1 << 20, 28 << 10),
        "orbits": (1 << 20, 28 << 10),
        "contraction": (1 << 20, 28 << 10),
    }
    # the batched forms harness reduces to its records.  harness may split a
    # batch into more calls on a smaller budget, so the results are kept in
    # call order per kernel and first argument (the Gram or basis), and each
    # such stream must be the same bytes whatever the budget
    KERNELS = ("quadratic_forms", "l4_combination", "l4_shared_basis", "residual_gram", "mode_gram")

    @pytest.mark.parametrize("suite", BUDGETS)
    def test_report_does_not_follow_block_bytes(self, monkeypatch, suite):
        reports, streams = [], []

        def recorded(fn):
            @functools.wraps(fn)
            def wrapper(first, *args, **kwargs):
                out = fn(first, *args, **kwargs)
                key = (fn.__name__, out.dtype.str, hashlib.sha256(np.ascontiguousarray(first)).digest())
                streams[-1][key] = streams[-1].get(key, b"") + out.tobytes()
                return out

            return wrapper

        for name in self.KERNELS:
            monkeypatch.setattr(harness, name, recorded(getattr(harness, name)))
        for budget in self.BUDGETS[suite]:
            monkeypatch.setattr(cylinder, "BLOCK_BYTES", budget)
            streams.append({})
            report = harness.run_suite(Config(seed=2026), suite, write=False)
            reports.append(json.dumps([[r.to_json_dict() for r in report.records],
                                       report.coverage_counts]))
        assert reports[1:] == reports[:1] * (len(reports) - 1)
        assert streams[1:] == streams[:1] * (len(streams) - 1)
        assert bool(streams[0]) == (suite in ("aps", "flow"))  # the others form none


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
            return aps_records(config)

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
        u = CylinderMap(H * (n_nodes - 1), values)
        blocks_of(values[0].nbytes)
        l2, l21 = ref_cyl_norms(u.values, u.dt, modes)
        assert same_bytes(l2_norm(u.values, u.dt), l2)
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
        lam = lambda_of_modes(32)
        out, peak = self.peak(kernel_p_values, g, lam, 1e-4)
        assert peak < 1.25 * out.nbytes

    def test_uniformity_estimates_peak(self):
        # at eps = 1 a probe set of the whole batch would be one
        # (321, 65, 1065) field of 355 MB; the Gram forms need only P's basis
        # sweep, the probe and the mix columns are taken apart and run in
        # column chunks, each drawn batch is let go before the next, and the
        # mixed L^4 fields are formed one time block of theta samples at a
        # time: 5.8 MiB, held under 6.25 MiB
        _, peak = self.peak(harness._uniformity_estimates, np.random.default_rng(18), 32, 64, 1.0)
        assert peak < 6.25 * 2**20

    def test_q_kernel_defect_peak(self):
        # the kernel defect at eps = 0.5, on its m_fine = 3305 grid, is taken
        # over halo time blocks of Q and D Q: the group peaks at 1.8 MiB,
        # under one (3306, 65, 1) field of 3.3 MiB
        config = Config()
        records, peak = self.peak(aps_records, config, "q_right_inverse")
        kernel = next(r for r in records if r.name == "aps.q_kernel_of_d")
        m_fine = max(kernel.details["m_fine"])
        assert m_fine == 3305
        assert peak < (m_fine + 1) * (2 * config.N + 1) * 16

    def test_end_vanishing_peak(self):
        # at the default config a chunk of 250 fields is 17 MB; no field is
        # formed: the L^4 norms are a quartic form of the theta samples of
        # the coefficient blocks, and the gradient a Gram form of the
        # windowed basis (65, 1, 3)
        (record,), peak = self.peak(aps_records, Config(), "end_vanishing")
        assert record.name == "aps.end_vanishing_l4" and peak < 8 * 2**20

    def test_flow_trajectory_peak(self):
        # lab find-orbit's flow (N = 32, T = 1, dt = 0.09 / 32): its node
        # blocks hold the stack_rows of an eighth of BLOCK_BYTES, 64 nodes,
        # and their diagnostics peak at 0.88 MiB, where blocks of 256 nodes
        # took 2.31 MiB
        with open(CONFIGS / "find_orbit.json", encoding="utf-8") as f:
            cfg = from_json(FindOrbit, json.load(f), "config")
        seed, dt = winding_seed(cfg.alpha, cfg.winding, cfg.N), 0.09 / cfg.N
        flow_trajectory(cfg.model, seed, dt, dt)  # one step first: one-off caches not counted
        trace, peak = self.peak(flow_trajectory, cfg.model, seed, cfg.flow_time, dt)
        assert len(trace.times) == 357 and peak < 2**20

    def test_equivalence_group_peak(self):
        # the 1000 equivalence fields are drawn into column chunks whose
        # working set fits BLOCK_BYTES and reduced to Gram forms: 1.05 MiB,
        # held under 1.5 MiB, where the whole batch at once peaks at 7.5 MiB
        equivalence_group(Config())  # once first: one-off caches not counted
        records, peak = self.peak(equivalence_group, Config())
        assert len(records) == 4 and peak < 1.5 * 2**20

    def test_right_inverse_streams(self):
        # no forcing field or P image of the batch is ever made, and P's
        # basis sweep is reduced to the residual Gram while it runs: at
        # eps = 0.001 the peak stays under one (2049, 65, 10) field, and at
        # eps = 1, where one such field of ten forcings would take 125 MB and
        # the whole basis sweep (12001, 65, 3) 17.9 MiB, the sweep forms its
        # forcing in sub-blocks: 4.8 MiB, held under 5.25 MiB
        field_nbytes = 2049 * 65 * 10 * 16
        _, peak = self.peak(harness._right_inverse_errors, np.random.default_rng(19), 32, 64, 0.001)
        assert peak < field_nbytes
        _, peak = self.peak(harness._right_inverse_errors, np.random.default_rng(19), 32, 64, 1.0)
        assert peak < 5.25 * 2**20
