"""The streamed aps kernels and norms against their whole-array forms.

The reference functions below evaluate every expression over the whole field
at once.  The streamed versions in looplab must give the same bytes: the
comparisons use tobytes(), so even the sign of a zero counts.  Shrinking
BLOCK_BYTES to a few rows puts block edges next to both one-sided end
stencils of the time derivative.  The column sweeps must give the same bytes
and make the same random draws at every number of column workers.
"""

import concurrent.futures
import functools
import json
import os
import subprocess
import sys
import threading
import time
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
    l21_batch,
    l21_density,
    l2_batch,
    l4_batch,
    map_columns,
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
    l21_weight = sobolev_weights(1, N)
    m_eff = max(M_t, int(np.ceil(10 * N * eps)))
    h = eps / m_eff
    times = np.linspace(0.0, eps, m_eff + 1)
    mixes = gaussian_loop(1000, N, rng).coeffs
    probes = np.eye(2 * N + 1)
    c = np.concatenate([probes, mixes], axis=1)
    plus = np.where((mode_numbers(N) <= 0)[:, None], c, 0.0)
    minus = np.where((mode_numbers(N) > 0)[:, None], c, 0.0)
    qv = kernel_q_values(plus, minus, lam, times, eps)
    est_q = float(np.max(l21_batch(qv, h, l21_weight) / ref_half_norm(c, N)))
    n_probes = probes.shape[1]
    g_vals = np.empty((m_eff + 1, 2 * N + 1, n_probes + 1000), complex)
    g_vals[:, :, :n_probes] = probes
    g_vals[:, :, n_probes:] = ref_random_smooth_fields(rng, N, m_eff, 1000)
    pv = kernel_p_values(g_vals, lam, h)
    g_l2 = l2_batch(g_vals, h)
    est_p = float(np.max(l21_batch(pv, h, l21_weight) / g_l2))
    est_r = float(np.max(ref_boundary_half_norm(pv, N) / g_l2))
    c2 = gaussian_loop(100, N, rng).coeffs
    plus2 = np.where((mode_numbers(N) <= 0)[:, None], c2, 0.0)
    minus2 = np.where((mode_numbers(N) > 0)[:, None], c2, 0.0)
    g2 = ref_random_smooth_fields(rng, N, m_eff, 100)
    u2 = kernel_q_values(plus2, minus2, lam, times, eps) + kernel_p_values(g2, lam, h)
    denom = ref_half_norm(c2, N) + l2_batch(g2, h)
    est_mix = float(np.max(l4_batch(u2, h, N) / denom))
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


def column_plan(n_cols, col_nbytes, col_len):
    """The column blocks map_columns runs, in order, and the threads it opens (1: none)."""
    blocks, threads = [], [1]

    class InCallingThread:
        """A ThreadPoolExecutor stand-in that runs each block as it is submitted."""

        def __init__(self, n, thread_name_prefix=""):
            threads.append(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    def record(cols):
        blocks.append((cols.start, cols.stop))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ThreadPoolExecutor", InCallingThread)
        map_columns(record, n_cols, col_nbytes, col_len)
    return blocks, threads[-1]


def assert_plan(blocks, k, n_cols, col_nbytes, col_len, n_workers):
    """The planning rule of map_columns, with the SHARED_ROW and COLUMN_BYTES in force."""
    # the blocks cover the columns in order, at least two columns each, near-equal
    assert [i for a, b in blocks for i in range(a, b)] == list(range(n_cols))
    widths = [b - a for a, b in blocks]
    assert min(widths) >= min(2, n_cols) and max(widths) - min(widths) <= 1
    budget = min(n_cols, cylinder.COLUMN_BYTES // col_nbytes) if col_nbytes else n_cols

    def shares_rows(j):  # j blocks of the budget's j-th part hold two columns and wide rows
        return budget // j >= 2 and budget // j * col_len >= j * cylinder.SHARED_ROW

    # at most k blocks at once, k as many as keep rows of k * SHARED_ROW elements,
    # and every block keeps those rows
    assert 1 <= k <= min(n_workers, len(blocks))
    assert k == 1 or shares_rows(k)
    assert k == min(n_workers, len(blocks)) or not shares_rows(k + 1)
    least = max(2, -(-k * cylinder.SHARED_ROW // col_len)) if k > 1 else 2
    assert min(widths) >= min(least, n_cols)
    # the blocks in flight stay within COLUMN_BYTES plus fewer than k columns,
    # unless one block more would be narrower than that
    assert not col_nbytes or k * max(widths) < budget + k or n_cols // (len(blocks) + 1) < least


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

    @pytest.mark.parametrize("budget", (1, 2, 4))  # whole columns in COLUMN_BYTES
    def test_column_blocks(self, monkeypatch, budget):
        # one worker: one block at a time, within the budget but for the
        # two-column floor
        monkeypatch.setattr(cylinder, "workers", lambda: 1)
        col_nbytes = 48
        monkeypatch.setattr(cylinder, "COLUMN_BYTES", budget * col_nbytes + col_nbytes - 1)
        for n in (2, 3, budget + 1, 2 * budget + 1, 7 * budget):
            blocks, k = column_plan(n, col_nbytes, 65)
            assert_plan(blocks, k, n, col_nbytes, 65, 1)
            assert k == 1 and len(blocks) == max(1, min(-(-n // budget), n // 2))
        assert column_plan(1, col_nbytes, 65) == ([(0, 1)], 1)

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
        # a complex field is scaled by 1/(2h) through its float view, which
        # gives numpy's complex division by the real 2h but for the sign of a
        # zero part: equal values, and |d_t u|^2 with the same bytes
        zeros = [complex(sr * 0.0, si * 0.0) for sr in (1, -1) for si in (1, -1)]
        values = random_field(31, (9, 2 * N + 1, 8))
        values[:, :, :4] = zeros  # the same signed zero at every node
        values[::2, :3, 4] = -0.0  # zeros between nonzero rows
        values[:, 5, 5] = complex(-0.0, 1.5)  # constant in time: zero differences
        values[:, 6, 6] = complex(2.5, -0.0)
        values[[0, -1], 7, 7] = complex(0.0, -0.0)  # zeros at the one-sided ends
        ref = ref_dt_derivative(values, h)
        du = dt_derivative(values, h)
        assert du.dtype == ref.dtype and np.array_equal(du, ref)
        assert same_bytes(np.abs(du) ** 2, np.abs(ref) ** 2)
        for start, stop in ((0, 3), (2, 7), (6, 9)):
            rows = cylinder.dt_derivative_rows(values, h, start, stop)
            assert np.array_equal(rows, ref[start:stop])
        # a single-precision field is scaled by 1/(2h) formed in single
        # precision, as its division forms it
        single = values.astype(np.complex64)
        ref = ref_dt_derivative(single, h)
        du = dt_derivative(single, h)
        assert du.dtype == np.complex64 and np.array_equal(du, ref)
        assert same_bytes(np.abs(du) ** 2, np.abs(ref) ** 2)
        # a real field still divides, with the bytes of the whole-array form
        real = values.real.copy()
        assert same_bytes(dt_derivative(real, h), ref_dt_derivative(real, h))


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

    def test_one_sector_only(self, blocks_of):
        g = random_field(6, (9, 3, 2))
        blocks_of(g[0].nbytes)
        for lam in (np.array([2.0, 1.0, 0.0]), np.array([-1.0, -2.0, -3.0])):
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


class TestHarnessHelpers:
    @pytest.mark.parametrize("n_nodes", NODES)
    @pytest.mark.parametrize("batch", (1, 2, 3))
    def test_norms_bit_identical(self, blocks_of, n_nodes, batch):
        values = random_field(11 + n_nodes, (n_nodes, 2 * N + 1, batch))
        blocks_of(values[0].nbytes)
        assert same_bytes(l2_batch(values, H), ref_l2_batch(values, H))
        assert same_bytes(
            l21_batch(values, H, sobolev_weights(1, N)), ref_l21_batch(values, H, N)
        )
        n_sq = mode_numbers(N).astype(float) ** 2
        assert same_bytes(l21_density(values, H, n_sq), ref_gradient_density(values, H, N))

    def test_norms_on_probe_fields(self, blocks_of):
        lam = lambda_of_modes(N).astype(float)
        times = np.linspace(0.0, 0.1, 10)
        _, plus, minus = signed_zero_coeffs(3)
        qv = kernel_q_values(plus, minus, lam, times, 0.1)
        blocks_of(qv[0].nbytes)
        h = times[1]
        assert same_bytes(l21_batch(qv, h, sobolev_weights(1, N)), ref_l21_batch(qv, h, N))

    @pytest.mark.parametrize("n_nodes", NODES)
    @pytest.mark.parametrize("modes", (N, 32))
    def test_l4_batch_bit_identical(self, blocks_of, n_nodes, modes):
        values = random_field(24 + n_nodes, (n_nodes, 2 * modes + 1, 3))
        blocks_of(values[0].nbytes)
        assert same_bytes(l4_batch(values, H, modes), ref_l4_batch(values, H, modes))

    @pytest.mark.parametrize("n_nodes", NODES)
    def test_right_inverse_residual(self, blocks_of, n_nodes):
        # short sweeps: at the default block size one block holds a whole sector
        lam = lambda_of_modes(N).astype(float)
        coeffs = harness._smooth_field_coeffs(np.random.default_rng(12), N, 3)
        g = ref_random_smooth_fields(np.random.default_rng(12), N, n_nodes - 1, 3)
        blocks_of((N + 1) * 3 * 16)  # rows of the lambda >= 0 sector
        rel = cylinder.right_inverse_residual(coeffs, lam, H, n_nodes - 1)
        u = ref_kernel_p_values(g, lam, H)
        assert same_bytes(rel, ref_right_inverse_residual(g, u, lam, H))

    @pytest.mark.parametrize("eps", (0.5, 0.001))
    def test_right_inverse_errors(self, blocks_of, eps):
        # all hundred forcings in one streamed pass against ten whole chunk fields
        blocks_of((N + 1) * 100 * 16)  # rows of the lambda >= 0 sector
        rng = np.random.default_rng(22)
        worst_rel, worst_trace, next_draw = ref_right_inverse_errors(N, 16, eps, 22)
        assert harness._right_inverse_errors(rng, N, 16, eps) == (worst_rel, worst_trace)
        # the same draws, in the same order
        assert rng.standard_normal() == next_draw

    @pytest.mark.parametrize("batch", (1, 4))
    def test_random_smooth_fields(self, blocks_of, batch):
        n_nodes = 23
        blocks_of((2 * N + 1) * batch * 16)
        coeffs = harness._smooth_field_coeffs(np.random.default_rng(13), N, batch)
        ref = ref_random_smooth_fields(np.random.default_rng(13), N, n_nodes - 1, batch)
        assert same_bytes(smooth_fields(coeffs, n_nodes - 1), ref)
        # one column slice of drawn coefficients, as the column blocks build them
        part = smooth_fields(coeffs, n_nodes - 1, slice(batch // 2, batch))
        assert same_bytes(part, ref[:, :, batch // 2 :])


class TestUniformityBlocked:
    """The uniformity estimates, built one column block at a time, against whole batches."""

    @pytest.mark.parametrize("cols", (3, None), ids=["cols3", "default"])
    def test_estimates_bit_identical(self, monkeypatch, cols):
        # a budget of three columns splits the 1009-column and the 100-column
        # batch into near-equal blocks of two and three columns
        M_t = 16
        for eps in (1.0, 0.5, 0.1, 0.01, 0.001):
            if cols is not None:
                m_eff = max(M_t, int(np.ceil(10 * N * eps)))
                col_nbytes = (m_eff + 1) * (2 * N + 1) * 16
                monkeypatch.setattr(cylinder, "COLUMN_BYTES", cols * col_nbytes)
            rng, rng_ref = np.random.default_rng(20), np.random.default_rng(20)
            assert harness._uniformity_estimates(rng, N, M_t, eps) == ref_uniformity_estimates(
                rng_ref, N, M_t, eps
            )
            # the same draws, in the same order
            assert rng.standard_normal() == rng_ref.standard_normal()

    def test_block_columns_reduce_as_in_the_whole_batch(self, monkeypatch):
        # every per-column norm of a column block is that column's norm in the
        # whole batch; a one-column block would sum its modes pairwise instead
        modes = 32
        field = random_field(21, (17, 2 * modes + 1, 10))
        col_nbytes = field[:, :, 0].nbytes
        monkeypatch.setattr(cylinder, "COLUMN_BYTES", 3 * col_nbytes)

        monkeypatch.setattr(cylinder, "workers", lambda: 1)

        def norms(values):
            return (
                l2_batch(values, H),
                l21_batch(values, H, sobolev_weights(1, modes)),
                np.sqrt(harness._half_norm_sq(values[0], modes)),
                np.sqrt(harness._half_norm_sq(values[-1], modes)),
                l4_batch(values, H, modes),
            )

        whole = norms(field)
        blocks, _ = column_plan(10, col_nbytes, 2 * modes + 1)
        assert blocks == [(0, 2), (2, 5), (5, 7), (7, 10)]
        for start, stop in blocks:
            for part, ref in zip(norms(np.ascontiguousarray(field[:, :, start:stop])), whole):
                assert same_bytes(part, ref[start:stop])


@pytest.fixture(params=[1, 2, 3], ids=["workers1", "workers2", "workers3"])
def n_workers(request, monkeypatch):
    """Run the column sweeps with a given number of workers, whatever the CPU count.

    Rows of one element may run beside others, so the small fields of these
    tests split into parts and blocks as the wide fields of the suite do.
    """
    monkeypatch.setattr(cylinder, "workers", lambda: request.param)
    monkeypatch.setattr(cylinder, "SHARED_ROW", 1)
    return request.param


@pytest.fixture
def column_calls(monkeypatch):
    """(blocks, threads) of the plan of every map_columns call the aps sweeps make."""
    calls = []

    def spy(fn, *plan):
        calls.append(column_plan(*plan))
        return map_columns(fn, *plan)

    monkeypatch.setattr(cylinder, "map_columns", spy)
    return calls


def assert_parts(blocks, n_cols):
    """Every block holds at least two columns, and the blocks cover the columns in order."""
    assert [i for a, b in blocks for i in range(a, b)] == list(range(n_cols))
    assert min(b - a for a, b in blocks) >= min(2, n_cols)


# (columns, nodes) and (block count, threads) on 1, 2, 3, 8 and 50 CPUs of
# the default aps sweeps at N = 32 (65 modes): the right-inverse probe (no
# nodes: its memory does not grow with its blocks), the uniformity Q and
# P/restriction sweeps and the mixed L^4 sweep at m_eff = 320, 160 and 64,
# and end_vanishing
APS_PLANS = {
    "probe": ((100, 0), [(1, 1), (2, 2), (3, 3), (3, 3), (3, 3)]),
    "uniformity_320": ((1065, 321), [(43, 1), (89, 1), (134, 1), (134, 1), (134, 1)]),
    "uniformity_160": ((1065, 161), [(22, 1), (43, 2), (66, 2), (66, 2), (66, 2)]),
    "uniformity_64": ((1065, 65), [(9, 1), (18, 2), (26, 3), (44, 3), (44, 3)]),
    "mixed_l4_320": ((100, 321), [(4, 1), (9, 1), (13, 1), (13, 1), (13, 1)]),
    "mixed_l4_160": ((100, 161), [(2, 1), (4, 2), (6, 2), (6, 2), (6, 2)]),
    "mixed_l4_64": ((100, 65), [(1, 1), (2, 2), (3, 3), (4, 3), (4, 3)]),
    "end_vanishing": ((250, 65), [(3, 1), (5, 2), (7, 3), (10, 3), (10, 3)]),
}


class TestColumnWorkers:
    """The column sweeps give the same bytes and the same draws at every worker count."""

    def test_workers(self):
        assert 1 <= cylinder.workers() <= (os.cpu_count() or 1)

    def test_parts_and_blocks(self, n_workers, monkeypatch):
        monkeypatch.setattr(cylinder, "SHARED_ROW", 4)
        monkeypatch.setattr(cylinder, "COLUMN_BYTES", 12 * 48)
        for n_cols in range(1, 40):
            for col_len in (1, 2, 5):
                for col_nbytes in (0, 48, 5 * 48, 13 * 48):
                    blocks, k = column_plan(n_cols, col_nbytes, col_len)
                    assert_plan(blocks, k, n_cols, col_nbytes, col_len, n_workers)

    @pytest.mark.parametrize("shared_row", (1, 20, 200))
    @pytest.mark.parametrize(
        "col_nbytes", (48, cylinder.COLUMN_BYTES // 30, cylinder.COLUMN_BYTES // 3)
    )
    def test_blocks_in_flight(self, n_workers, monkeypatch, shared_row, col_nbytes):
        monkeypatch.setattr(cylinder, "SHARED_ROW", shared_row)
        blocks, k = column_plan(300, col_nbytes, 2)
        assert_plan(blocks, k, 300, col_nbytes, 2, n_workers)
        # a block is no wider than its worker's share, or than the rows of
        # k * SHARED_ROW elements (of two modes a column) need
        share = cylinder.COLUMN_BYTES // n_workers // col_nbytes
        assert max(b - a for a, b in blocks) <= max(3, share, -(-k * shared_row // 2))

    @pytest.mark.parametrize("cpus", (2, 8, 50))
    def test_rows_stay_shared_on_many_cpus(self, monkeypatch, cpus):
        # the aps suite at N = 32: probe blocks and column blocks that run
        # beside others keep sector rows (32 or 33 of the 65 modes) of more
        # than 500 elements, on which numpy drops the GIL, and rows of
        # SHARED_ROW elements per thread in flight, whatever the CPU count
        monkeypatch.setattr(cylinder, "workers", lambda: cpus)
        for (n_cols, nodes), _ in APS_PLANS.values():
            col_nbytes = nodes * 65 * 16
            blocks, k = column_plan(n_cols, col_nbytes, 65)
            assert_plan(blocks, k, n_cols, col_nbytes, 65, cpus)
            assert k <= 3 and (k == 1 or min(b - a for a, b in blocks) * 32 > 500)

    @pytest.mark.parametrize("cpus", (1, 2, 3, 8, 50))
    def test_aps_plans(self, monkeypatch, cpus):
        monkeypatch.setattr(cylinder, "workers", lambda: cpus)
        column = (1, 2, 3, 8, 50).index(cpus)
        for name, ((n_cols, nodes), plans) in APS_PLANS.items():
            col_nbytes = nodes * 65 * 16
            blocks, k = column_plan(n_cols, col_nbytes, 65)
            assert (len(blocks), k) == plans[column], name

    def test_map_columns(self, n_workers, monkeypatch):
        seen = []

        def fn(cols):
            seen.append(threading.current_thread() is threading.main_thread())
            return cols.start, cols.stop

        # one block per worker: rows of one element may run beside others
        blocks = [(10 * k // n_workers, 10 * (k + 1) // n_workers) for k in range(n_workers)]
        assert cylinder.map_columns(fn, 10, 0, 1) == blocks
        assert all(seen) == (n_workers == 1)
        seen.clear()
        # a budget of two columns runs one block at a time, in the calling thread
        with monkeypatch.context() as mp:
            mp.setattr(cylinder, "COLUMN_BYTES", 2 * 48)
            assert cylinder.map_columns(fn, 10, 48, 1) == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
        assert all(seen)

        def fails(cols):
            raise ArithmeticError(f"column block {cols.start}:{cols.stop}")

        # the first exception in block order
        with pytest.raises(ArithmeticError, match=f"^column block 0:{blocks[0][1]}$"):
            cylinder.map_columns(fails, 10, 0, 1)

        # no block still runs when the exception arrives
        running, lock = [], threading.Lock()

        def slow_after_failure(cols):
            if cols.start == 0:
                raise ArithmeticError("first part")
            with lock:
                running.append(cols.start)
            time.sleep(0.05)
            with lock:
                running.remove(cols.start)

        with pytest.raises(ArithmeticError, match="first part"):
            cylinder.map_columns(slow_after_failure, 10, 0, 1)
        assert running == []
        # and no thread of the sweep outlives the call
        assert not [t for t in threading.enumerate() if t.name.startswith("looplab-columns")]

    def test_more_workers_than_cores(self, monkeypatch):
        # many short blocks on more threads than cores, switching threads
        # often: every column still gets the bytes of the serial sweep
        n = (os.cpu_count() or 1) + 2
        monkeypatch.setattr(cylinder, "workers", lambda: n)
        monkeypatch.setattr(cylinder, "SHARED_ROW", 1)
        eps = 0.001
        col_nbytes = (max(16, int(np.ceil(10 * N * eps))) + 1) * (2 * N + 1) * 16
        monkeypatch.setattr(cylinder, "COLUMN_BYTES", 2 * n * col_nbytes)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            estimates = harness._uniformity_estimates(np.random.default_rng(24), N, 16, eps)
            errors = harness._right_inverse_errors(np.random.default_rng(22), N, 16, eps)
        finally:
            sys.setswitchinterval(interval)
        assert estimates == ref_uniformity_estimates(np.random.default_rng(24), N, 16, eps)
        assert errors == ref_right_inverse_errors(N, 16, eps, 22)[:2]

    @pytest.mark.parametrize("rows", (7, None), ids=["rows7", "default"])
    @pytest.mark.parametrize("eps", (0.5, 0.001))
    def test_right_inverse_errors(self, n_workers, column_calls, monkeypatch, rows, eps):
        if rows is not None:
            # rows of the lambda >= 0 sector of all parts together
            monkeypatch.setattr(cylinder, "BLOCK_BYTES", rows * (N + 1) * 100 * 16)
        rng = np.random.default_rng(22)
        worst_rel, worst_trace, next_draw = ref_right_inverse_errors(N, 16, eps, 22)
        counts = coverage.counts()
        assert harness._right_inverse_errors(rng, N, 16, eps) == (worst_rel, worst_trace)
        assert rng.standard_normal() == next_draw
        # no public operation runs, in a worker or elsewhere
        assert coverage.counts() == counts
        ((parts, threads),) = column_calls
        assert len(parts) == threads == n_workers
        assert_parts(parts, 100)

    @pytest.mark.parametrize("cols", (6, None), ids=["cols6", "default"])
    def test_uniformity_estimates(self, n_workers, column_calls, monkeypatch, cols):
        M_t = 16
        for eps in (1.0, 0.001):
            m_eff = max(M_t, int(np.ceil(10 * N * eps)))
            col_nbytes = (m_eff + 1) * (2 * N + 1) * 16
            if cols is not None:
                # a budget of six columns: a worker's share of 6, 3 or 2 columns
                monkeypatch.setattr(cylinder, "COLUMN_BYTES", cols * col_nbytes)
            column_calls.clear()
            rng, rng_ref = np.random.default_rng(20), np.random.default_rng(20)
            counts = coverage.counts()
            assert harness._uniformity_estimates(rng, N, M_t, eps) == ref_uniformity_estimates(
                rng_ref, N, M_t, eps
            )
            assert rng.standard_normal() == rng_ref.standard_normal()
            assert coverage.counts() == counts
            # the Q, P/restriction and mixed L^4 sweeps, each over its whole batch
            assert len(column_calls) == 3
            for (blocks, threads), n_cols in zip(column_calls, (2 * N + 1001, 2 * N + 1001, 100)):
                assert_parts(blocks, n_cols)
                assert threads == n_workers
                share = max(2, cylinder.COLUMN_BYTES // n_workers // col_nbytes)
                assert max(b - a for a, b in blocks) <= share + 1

    def test_column_maxima(self, n_workers, monkeypatch):
        modes = 32
        field = random_field(23, (17, 2 * modes + 1, 11))
        monkeypatch.setattr(cylinder, "COLUMN_BYTES", 6 * field[:, :, 0].nbytes)

        def ratios(cols):
            part = field[:, :, cols]
            return l2_batch(part, H), l4_batch(part, H, modes) / l2_batch(part, H)

        whole = ratios(slice(None))
        maxima = cylinder.column_maxima(11, field.shape[:2], ratios)
        assert maxima == [float(np.max(r)) for r in whole]

    def test_aps_groups(self, n_workers, monkeypatch):
        # every group of a small aps suite against its serial run, and
        # end_vanishing against whole fields
        config = Config(N=4, M_t=8, eps_list=(0.1, 0.01))

        def report():
            return json.dumps([r.to_json_dict() for r in harness._suite_aps(config)])

        records = report()
        assert json.loads(records)[-1]["computed"] == ref_end_vanishing(config)
        monkeypatch.setattr(cylinder, "workers", lambda: 1)
        assert records == report()

    def test_failing_part_is_a_group_error(self, n_workers, monkeypatch):
        probe, calls, lock = cylinder._right_inverse_block, [], threading.Lock()

        def second_part_fails(coeffs, *args):
            with lock:
                calls.append(len(calls) + 1)
                k = calls[-1]
            if k == 2:
                raise FloatingPointError("probe part 2")
            return probe(coeffs, *args)

        monkeypatch.setattr(cylinder, "_right_inverse_block", second_part_fails)
        records = harness._suite_aps(Config(N=4, M_t=8, eps_list=(0.1, 0.01)))
        names = [r.name for r in records]
        (error,) = [r for r in records if r.name == "aps.right_inverse.error"]
        assert error.details == {"exception": "FloatingPointError: probe part 2"}
        assert not error.passed
        assert "aps.right_inverse_residual" not in names
        assert "aps.uniformity_p_variation" in names and "aps.end_vanishing_l4" in names

    def test_cli_import_leaves_concurrent_futures_unloaded(self):
        # only a column sweep that needs threads imports it; importing the
        # CLI must not, or every command would pay for it
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, looplab.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestCylNorm:
    """cyl_norm reduces one field as a single batch column of modes x coordinates."""

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
    """Peak traced allocations: the norms and the sweeps stream their field."""

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

    def test_l21_batch_peak(self):
        values = random_field(14, self.SHAPE)
        _, peak = self.peak(l21_batch, values, 1e-4, sobolev_weights(1, 32))
        assert peak < 0.25 * values.nbytes

    def test_kernel_p_values_peak(self):
        g = random_field(15, self.SHAPE)
        lam = lambda_of_modes(32).astype(float)
        out, peak = self.peak(kernel_p_values, g, lam, 1e-4)
        assert peak < 1.25 * out.nbytes

    def test_uniformity_estimates_peak(self):
        # at eps = 1 a probe set of the whole batch is one (321, 65, 1065)
        # field of 355 MB; the column blocks, and the time blocks of the L^4
        # norm, keep the peak under 80 MiB
        _, peak = self.peak(harness._uniformity_estimates, np.random.default_rng(18), 32, 64, 1.0)
        assert peak < 80 * 2**20

    def test_right_inverse_streams(self):
        # no forcing field or P image is ever made: at eps = 0.001 the peak
        # stays under one (2049, 65, 10) field, and at eps = 1, where one such
        # field of ten forcings would take 125 MB, under 64 MiB
        field_nbytes = 2049 * 65 * 10 * 16
        _, peak = self.peak(harness._right_inverse_errors, np.random.default_rng(19), 32, 64, 0.001)
        assert peak < field_nbytes
        _, peak = self.peak(harness._right_inverse_errors, np.random.default_rng(19), 32, 64, 1.0)
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("workers", (1, 3))
    def test_peaks_at_other_worker_counts(self, monkeypatch, workers):
        # tracemalloc sees the allocations of every worker thread; the
        # blocks in flight share the budgets, so the bounds above hold, also
        # when rows of any width run beside others: the most blocks in flight
        monkeypatch.setattr(cylinder, "workers", lambda: workers)
        monkeypatch.setattr(cylinder, "SHARED_ROW", 1)
        _, peak = self.peak(harness._uniformity_estimates, np.random.default_rng(18), 32, 64, 1.0)
        assert peak < 80 * 2**20
        _, peak = self.peak(harness._right_inverse_errors, np.random.default_rng(19), 32, 64, 0.001)
        assert peak < 2049 * 65 * 10 * 16
