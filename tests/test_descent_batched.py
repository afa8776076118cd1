"""The batched projected descent reproduces the per-start descent bit for bit.

`estimate_beta` used to walk each start alone through validated `Loop`
objects, one line-search trial at a time, and `check_sigma_boundary`
evaluated one action per sample; the samplers built their points as `Loop`
arithmetic.  The reference functions below keep that per-start form as it
was written; the tests require `repr`-identical estimates (or NegativeBeta
values) from the batched code, over models, shapes, radii and step counts,
on the paths where a row stops early, and whatever the line-search window
budget `cylinder.BLOCK_BYTES`, and byte-identical sample blocks.
"""

import numpy as np
import pytest

from looplab import coverage, cycles, cylinder
from looplab.cycles import (
    NegativeBeta,
    check_sigma_boundary,
    derive_tau,
    e_plus,
    estimate_beta,
    sample_gamma,
    sample_sigma,
    scan_alpha,
)
from looplab.hamiltonian import HamiltonianModel, action, action_values, eval_H, grad_action
from looplab.loops import Loop, gaussian_loop, inner, project, sample, sobolev_norm, theta_points
from looplab.solver import stack_rows

MODELS = {
    "bump": HamiltonianModel(),
    "bump_wide": HamiltonianModel(eps_H=0.3, s0=0.5, s1=2.0),
    "pure_quadratic": HamiltonianModel(variant="pure_quadratic"),
}
SHAPES = ((1, 5), (1, 8), (2, 8), (2, 16))
ALPHAS = (0.2, 0.7, 1.43, 2.5)
STEPS = (0, 1, 5, 120)


def window_budget(rows, N):
    """The BLOCK_BYTES at which a window holds `rows` candidate rows at N, d = 1."""
    return rows * 8 * theta_points(N) * np.dtype(complex).itemsize


# -- the per-start form ----------------------------------------------------------


def old_action(m, gamma):
    """Body of hamiltonian.action before action_values."""
    n = gamma.modes.astype(float)
    quad = 0.5 * float(np.sum(n[:, None] * np.abs(gamma.coeffs) ** 2))
    vals = sample(gamma, 4 * gamma.N)
    return quad - float(np.mean(eval_H(m, vals)))


def old_half_normalize(gamma, alpha):
    nrm = sobolev_norm(gamma, 0.5)
    return (alpha / nrm) * gamma if nrm > 0 else gamma


def old_estimate_beta(m, alpha, samples=48, descent_steps=120, seed=0, d=1, N=32, stops=None):
    """cycles.estimate_beta with one start at a time; `stops` collects why each start ended."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0:
        return 0.0
    stops = [] if stops is None else stops
    starts = old_sample_gamma(alpha, samples, seed, d=d, N=N)
    starts.append(alpha * e_plus(d, N))
    best = np.inf
    for gamma in starts:
        value = old_action(m, gamma)
        best = min(best, value)
        step = 0.1 * alpha
        reason = "steps"
        for _ in range(descent_steps):
            g = project(grad_action(m, gamma), "plus")
            radial = inner(g, gamma, 0.5) / alpha**2
            direction = g - radial * gamma
            dir_norm = sobolev_norm(direction, 0.5)
            if dir_norm <= 1e-14 * (1.0 + alpha):
                reason = "dir_norm"
                break
            moved = False
            for _ in range(25):
                candidate = old_half_normalize(gamma - (step / dir_norm) * direction, alpha)
                cand_value = old_action(m, candidate)
                if cand_value < value - 1e-15:
                    gamma, value = candidate, cand_value
                    best = min(best, value)
                    step *= 1.3
                    moved = True
                    break
                step *= 0.5
            if not moved:
                reason = "search"
                break
        stops.append(reason)
    if best <= 0:
        raise NegativeBeta(best)
    return float(best)


def old_sample_gamma(alpha, count, seed, d=1, N=32):
    """cycles.sample_gamma as Loop arithmetic, one sample at a time."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = project(gaussian_loop(d, N, rng), "plus")
        nrm = sobolev_norm(g, 0.5)
        if nrm == 0 or alpha == 0:
            out.append(Loop.zero(d, N) if alpha == 0 else g)
            continue
        out.append((alpha / nrm) * g)
    return out


def old_sample_sigma(tau, e_plus_loop, count, seed):
    """cycles.sample_sigma as Loop arithmetic, one sample at a time."""
    d, N = e_plus_loop.d, e_plus_loop.N
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        direction = project(gaussian_loop(d, N, rng), "minus")
        nrm = sobolev_norm(direction, 0.5)
        direction = (1.0 / nrm) * direction if nrm > 0 else direction
        face = i % 3
        if face == 0:
            radius, s = tau, tau * rng.uniform()
        elif face == 1:
            radius, s = tau * np.sqrt(rng.uniform()), 0.0
        else:
            radius, s = tau * np.sqrt(rng.uniform()), tau
        out.append(radius * direction + s * e_plus_loop)
    return out


def old_check_sigma_boundary(m, tau, samples=180, seed=1, d=1, N=32):
    pts = old_sample_sigma(tau, e_plus(d, N), samples, seed)
    return float(max(old_action(m, p) for p in pts))


def outcome(fn, *args, **kwargs):
    """repr of the estimate, or of the NegativeBeta value it raised."""
    try:
        return repr(fn(*args, **kwargs))
    except NegativeBeta as exc:
        return f"NegativeBeta({exc.value!r})"


# -- estimate_beta ------------------------------------------------------------------


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("d,N", SHAPES)
@pytest.mark.parametrize("model", MODELS)
def test_estimate_beta_matches_per_start(model, d, N, alpha, steps):
    m = MODELS[model]
    kwargs = dict(samples=6, descent_steps=steps, seed=2026, d=d, N=N)
    assert outcome(estimate_beta, m, alpha, **kwargs) == outcome(
        old_estimate_beta, m, alpha, **kwargs
    )


@pytest.mark.parametrize("seed", (2026, 2027, 0, 7))
def test_default_grid_matches_per_start(seed):
    m = MODELS["bump"]
    for alpha in np.geomspace(0.05, 2.0, 12)[::3]:
        kwargs = dict(samples=12, descent_steps=120, seed=seed, N=16)
        assert outcome(estimate_beta, m, float(alpha), **kwargs) == outcome(
            old_estimate_beta, m, float(alpha), **kwargs
        )


@pytest.mark.parametrize("samples", (0, 1))
@pytest.mark.parametrize("alpha", (0.0, 0.9, 1.43))
def test_few_samples(samples, alpha):
    m = MODELS["bump"]
    kwargs = dict(samples=samples, descent_steps=60, seed=11, N=8)
    assert outcome(estimate_beta, m, alpha, **kwargs) == outcome(
        old_estimate_beta, m, alpha, **kwargs
    )


def test_stop_on_vanishing_direction():
    # alpha * e_plus in the flat core: the gradient is exactly radial
    m, stops = MODELS["bump"], []
    kwargs = dict(samples=0, descent_steps=120, seed=3, N=8)
    assert outcome(estimate_beta, m, 0.2, **kwargs) == outcome(
        old_estimate_beta, m, 0.2, stops=stops, **kwargs
    )
    assert stops == ["dir_norm"]


def test_stop_on_failed_line_search():
    # random starts in the flat core: the action is constant on the sphere,
    # so no trial lowers it and every search runs out of its 25 trials
    m, stops = MODELS["bump"], []
    kwargs = dict(samples=5, descent_steps=120, seed=3, N=8)
    assert outcome(estimate_beta, m, 0.2, **kwargs) == outcome(
        old_estimate_beta, m, 0.2, stops=stops, **kwargs
    )
    assert stops.count("search") == 5 and stops[-1] == "dir_norm"


def test_more_starts_than_the_window_budget(monkeypatch):
    # 81 rows: the first window of each step holds one trial of every
    # searching row, more rows than a window of 64, and later windows several
    # trials of the rows left
    m, stops = MODELS["bump"], []
    kwargs = dict(samples=80, descent_steps=40, seed=2026, N=8)
    monkeypatch.setattr(cylinder, "BLOCK_BYTES", window_budget(64, 8))
    assert kwargs["samples"] + 1 > stack_rows(10**6, e_plus(1, 8).coeffs) == 64
    assert outcome(estimate_beta, m, 1.2, **kwargs) == outcome(
        old_estimate_beta, m, 1.2, stops=stops, **kwargs
    )
    assert len(set(stops)) >= 2


def test_rows_stop_at_different_steps():
    # a mixed block: some rows stop early while others keep descending
    m, stops = MODELS["bump"], []
    kwargs = dict(samples=16, descent_steps=120, seed=5, N=8)
    assert outcome(estimate_beta, m, 1.2, **kwargs) == outcome(
        old_estimate_beta, m, 1.2, stops=stops, **kwargs
    )
    assert len(set(stops)) >= 2


# -- scan_alpha and the box boundary ---------------------------------------------------


@pytest.mark.parametrize("N", (8, 32))
def test_scan_alpha_table(N, monkeypatch):
    m = MODELS["bump"]
    new = scan_alpha(m, seed=2026, N=N)
    monkeypatch.setattr(cycles, "estimate_beta", old_estimate_beta)
    old = scan_alpha(m, seed=2026, N=N)
    assert repr(new) == repr(old)


def test_empty_alpha_grid_is_an_error():
    with pytest.raises(ValueError):
        scan_alpha(MODELS["bump"], alphas=np.array([]), N=8)


@pytest.mark.parametrize("N", (8, 32))
def test_scan_alpha_table_follows_no_window_budget(N, monkeypatch):
    # at a budget of one row every window holds one trial of each searching
    # row, the search as it ran before the windows; at 10**6 rows one window
    # holds all 25 trials of every row.  The coverage counts do not follow
    # it either.
    m, runs = MODELS["bump"], []
    for rows in (1, 7, 64, 10**6):
        monkeypatch.setattr(cylinder, "BLOCK_BYTES", window_budget(rows, N))
        before = coverage.counts()
        table = scan_alpha(m, seed=2026, N=N)
        runs.append((repr(table), {k: n - before[k] for k, n in coverage.counts().items()}))
    assert runs[1:] == runs[:1] * 3


def test_negative_alpha_is_rejected_before_any_descent(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate_beta(*args, **kwargs)

    monkeypatch.setattr(cycles, "estimate_beta", counted)
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        scan_alpha(MODELS["bump"], alphas=[2.0, -1.0], N=8)
    assert calls == []


@pytest.mark.parametrize("tau", (0.5, 1.0, 2.0, 4.0))
@pytest.mark.parametrize("d,N", ((1, 8), (2, 8), (1, 32)))
def test_check_sigma_boundary_matches_per_point(d, N, tau):
    m = MODELS["bump"]
    kwargs = dict(samples=150, seed=9, d=d, N=N)
    assert repr(check_sigma_boundary(m, tau, **kwargs)) == repr(
        old_check_sigma_boundary(m, tau, **kwargs)
    )


def test_empty_box_sample_is_an_error():
    m = MODELS["bump"]
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            check_sigma_boundary(m, 1.0, samples=samples, N=8)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            derive_tau(m, samples=samples, N=8)
    assert sample_sigma(1.0, e_plus(1, 8), 0, seed=1) == []


def test_derive_tau(monkeypatch):
    m = MODELS["bump"]
    tau, worst = derive_tau(m, samples=240, seed=2027, N=32)
    monkeypatch.setattr(cycles, "check_sigma_boundary", old_check_sigma_boundary)
    old_tau, old_worst = derive_tau(m, samples=240, seed=2027, N=32)
    assert (repr(tau), repr(worst)) == (repr(old_tau), repr(old_worst))


# -- action_values ---------------------------------------------------------------------


@pytest.mark.parametrize("d,N", SHAPES)
@pytest.mark.parametrize("model", MODELS)
def test_action_values_rows_match_action(model, d, N):
    m = MODELS[model]
    rng = np.random.default_rng(N + 10 * d)
    block = 0.9 * (rng.standard_normal((7, 2 * N + 1, d)) + 1j * rng.standard_normal((7, 2 * N + 1, d)))
    values = action_values(m, block)
    assert values.shape == (7,)
    for row, value in zip(block, values):
        gamma = Loop(row)
        assert repr(float(value)) == repr(old_action(m, gamma)) == repr(action(m, gamma))


# -- the samplers --------------------------------------------------------------------


def same_loops(new, old):
    return [g.coeffs.tobytes() for g in new] == [g.coeffs.tobytes() for g in old] and all(
        a.coeffs.shape == b.coeffs.shape for a, b in zip(new, old)
    )


@pytest.mark.parametrize("count", (0, 1, 7, 64))
@pytest.mark.parametrize("alpha", (0.0, 0.3, 1.43))
@pytest.mark.parametrize("d,N", ((1, 8), (2, 8), (1, 32), (2, 5)))
def test_sample_gamma_matches_loop_form(d, N, alpha, count):
    for seed in (0, 2026):
        assert same_loops(
            sample_gamma(alpha, count, seed, d=d, N=N), old_sample_gamma(alpha, count, seed, d=d, N=N)
        )


@pytest.mark.parametrize("count", (0, 1, 2, 3, 64, 240))
@pytest.mark.parametrize("tau", (0.5, 2.0, 1024.0))
@pytest.mark.parametrize("d,N", ((1, 8), (2, 8), (1, 32), (2, 5)))
def test_sample_sigma_matches_loop_form(d, N, tau, count):
    for seed in (1, 2027):
        assert same_loops(
            sample_sigma(tau, e_plus(d, N), count, seed),
            old_sample_sigma(tau, e_plus(d, N), count, seed),
        )
