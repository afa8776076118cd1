"""Property tests for structural invariants that hold for arbitrary data."""

import numpy as np
from hypothesis import given, settings, strategies as st

from looplab.cycles import rho
from looplab.cylinder import (
    BoundaryData,
    aps_boundary,
    combine,
    decompose,
    p_op,
    q_op,
)
from looplab.hamiltonian import HamiltonianModel, eval_XH
from looplab.loops import Loop, gaussian_loop, project, sobolev_norm


@st.composite
def loops(draw, max_n=6):
    N = draw(st.integers(min_value=1, max_value=max_n))
    d = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return gaussian_loop(d, N, np.random.default_rng(seed))


@given(loops())
@settings(max_examples=50, deadline=None)
def test_decompose_combine_inverse(b):
    assert combine(decompose(b)).allclose(b, atol=0)
    bd = decompose(b)
    again = decompose(combine(bd))
    assert again.plus0.allclose(bd.plus0, atol=0)
    assert again.minus_end.allclose(bd.minus_end, atol=0)


@given(loops(), st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_q_right_inverse_property(b, eps):
    beta = decompose(b)
    back = aps_boundary(q_op(beta, eps, M_t=16))
    assert back.plus0.allclose(beta.plus0, atol=1e-12)
    assert back.minus_end.allclose(beta.minus_end, atol=1e-12)


@given(loops(), st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_p_boundary_vanishes_property(b, eps):
    from looplab.cylinder import CylinderMap

    vals = np.broadcast_to(b.coeffs, (17,) + b.coeffs.shape).copy()
    u = p_op(CylinderMap(eps, vals))
    assert aps_boundary(u).norm() <= 1e-12


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_rho_range_property(x):
    value = rho(x)
    assert 0 < value <= 1
    if abs(x) <= 1:
        assert value == 1.0
    if abs(x) >= 2:
        assert value == 1.0 / x**2


@given(st.floats(min_value=-50, max_value=49.5, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_rho_monotone_in_absolute_value(x):
    step = 0.25
    y = x + step if x >= 0 else x - step
    assert rho(y) <= rho(x) + 1e-15


@given(loops(max_n=4))
@settings(max_examples=40, deadline=None)
def test_polarization_norm_pythagoras(g):
    # the splitting is orthogonal for every Sobolev weight
    for order in (0, 0.5, 1):
        total = sobolev_norm(g, order) ** 2
        parts = (
            sobolev_norm(project(g, "plus"), order) ** 2
            + sobolev_norm(project(g, "minus"), order) ** 2
        )
        assert abs(total - parts) <= 1e-10 * (1 + total)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_vector_field_rotation_equivariance(seed, scale):
    # X_H(e^{i phi} x) = e^{i phi} X_H(x): the Hamiltonian is radial
    m = HamiltonianModel()
    rng = np.random.default_rng(seed)
    x = scale * (rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1)))
    phi = rng.uniform(0, 2 * np.pi)
    rotated = eval_XH(m, np.exp(1j * phi) * x)
    assert np.allclose(rotated, np.exp(1j * phi) * eval_XH(m, x), atol=1e-13)


@given(loops(max_n=5), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_boundary_data_supports_stay_disjoint(b, seed):
    bd = decompose(b)
    other = decompose(gaussian_loop(b.d, b.N, np.random.default_rng(seed)))
    total = bd + other
    assert np.all(project(total.plus0, "plus").coeffs == 0)
    assert np.all(project(total.minus_end, "minus").coeffs == 0)
