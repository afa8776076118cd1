"""Verification harness: the check suites, their reports and sweep CSVs.

Every quantitative claim the package implements is re-run here as a named
check with an explicit bound; a report row records the computed value, the
bound, the margin (bound - computed, nonnegative iff the check passes) and
an anchor string stating the identity or inequality under test.  Runs are
deterministic: all randomness derives from the config seed, reports carry
no timestamps, and rerunning a config reproduces the report byte for byte.

Each check group is a module-level generator, declared once with
`@_group(suite, rows)`: the decorator enters it in its suite's table
`CHECKS[suite]` with the name, anchor and bound of every check it computes,
and the suite runs its groups in the order they are declared.  A group's
parameters name what it reads, the suite's inputs (`config`, `m`, `N`, `M_t`,
`rng`) or earlier groups; it yields `(name, computed, details)` per check and
returns the outputs that later groups take as arguments.  `_run_groups` runs
the groups and builds every record; a declared check whose value did not
arrive is recorded as not run, a failure with computed = inf, so no check
passes on a value that nothing computed.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import coverage
from .coverage import tracked
from .cylinder import (
    BoundaryData,
    CylinderMap,
    apply_D,
    aps_boundary,
    basis_p_values,
    column_chunks,
    cyl_norm,
    decompose,
    dt_derivative,
    energy,
    kernel_dt_mass,
    kernel_p_values,
    kernel_q_values,
    l4_combination,
    l4_shared_basis,
    mode_gram,
    p_op,
    q_kernel_defect,
    q_op,
    quadratic_forms,
    residual_gram,
    smooth_fields,
    tau_powers,
    time_trapezoid,
    trace_defect_sq,
)
from .files import _JSON_FORMAT, Config, flow_table, write_csv, write_json
from .hamiltonian import (
    HamiltonianModel,
    action,
    action_values,
    eval_H,
    eval_XH,
    eval_compact_part,
    eval_gradH,
    grad_action,
    grad_h_modes,
    k_factor as eval_k_factor,
    k_factor_constant,
    split,
)
from .loops import (
    CONVENTION,
    Loop,
    aps_project,
    gaussian_block,
    gaussian_loop,
    inner,
    lambda_of_modes,
    mode_numbers,
    project,
    sample,
    sobolev_norm,
    sobolev_sq,
    sobolev_weights,
    synthesize,
    theta_points,
)
from .solver import (
    BallExit,
    ContractionFailure,
    collar_solve,
    flow_step,
    flow_trajectory,
    gf_pushforward,
    h_eps_sensitivity,
    picard_solve,
)
from . import cycles as cyc

SUITES = ("norms", "aps", "contraction", "flow", "orbits")


@dataclass
class CheckRecord:
    name: str
    anchor: str
    computed: float
    bound: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        self.computed = float(self.computed)
        self.bound = float(self.bound)

    @property
    def margin(self) -> float:
        return self.bound - self.computed

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.computed)) and self.margin >= 0

    def to_json_dict(self) -> dict:
        return dict(asdict(self), margin=self.margin, passed=self.passed)


@dataclass
class Report:
    suite: str
    config: Config
    records: list
    coverage_counts: dict
    coverage_complete: bool
    constants: dict

    @property
    def passed(self) -> bool:
        suite_ok = all(r.passed for r in self.records)
        if self.suite == "all":
            return suite_ok and self.coverage_complete
        return suite_ok

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json_dict(self) -> dict:
        records = sorted(self.records, key=lambda r: r.name)
        return {
            "suite": self.suite,
            "passed": self.passed,
            "num_checks": len(records),
            "num_failed": sum(not r.passed for r in records),
            "environment": {
                "convention": asdict(CONVENTION),
                "constants": self.constants,
                "grid": {
                    "N": self.config.N,
                    "M_t": self.config.M_t,
                    "M_theta": theta_points(self.config.N),
                },
                "platform_note": f"{sys.platform}; numpy {np.__version__}",
            },
            "config": asdict(self.config),
            "checks": [r.to_json_dict() for r in records],
            "coverage": dict(sorted(self.coverage_counts.items())),
            "coverage_complete": self.coverage_complete,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), **_JSON_FORMAT)

    def summary_lines(self) -> list[str]:
        lines = []
        for r in sorted(self.records, key=lambda x: x.name):
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"[{status}] {r.name}: computed={r.computed:.6g} "
                f"bound={r.bound:.6g} margin={r.margin:.6g}"
            )
        lines.append(
            f"suite {self.suite}: {len(self.records)} checks, "
            f"{sum(not r.passed for r in self.records)} failed"
        )
        return lines


# CHECKS[suite] maps each check group of the suite, by name and in run order,
# to the group and the rows (name, anchor, bound) of the checks it yields; a
# check's record is named `<suite>.<name>`.
CHECKS: dict[str, dict[str, tuple]] = {suite: {} for suite in SUITES}


def _group(suite: str, rows: list[tuple[str, str, float]]):
    """Enter the decorated generator in CHECKS[suite] as its next group, yielding `rows`."""

    def register(group):
        CHECKS[suite][group.__name__] = group, rows
        return group

    return register


def _run_groups(suite: str, config: Config, groups) -> list[CheckRecord]:
    """Run check groups in order and build the records of their declared checks.

    `groups` holds (group, rows) pairs, as CHECKS[suite].values() does.  A group's
    parameters name the suite's inputs, `config`, `m` (its model), `N`, `M_t`
    and `rng` (config.rng(suite), one stream for the whole run), or earlier
    groups, whose return values it is called with.  Each row becomes one
    record, in table order.  A declared check that did not arrive, because
    its group raised, stopped short or lacks an input whose producer failed,
    is recorded as not run: computed inf, the row's anchor and bound, and
    details {"not_run": reason}.  A group that raises, or yields a name its
    rows do not declare, adds the failing record `<suite>.<group>.error`,
    anchored by its docstring.
    """
    records: list[CheckRecord] = []
    outputs = {"config": config, "m": config.model, "N": config.N, "M_t": config.M_t,
               "rng": config.rng(suite)}
    for group, rows in groups:
        inputs = list(inspect.signature(group).parameters)
        missing = [name for name in inputs if name not in outputs]
        arrived, error = {}, None
        if missing:
            reason = f"no output from {missing[0]}"
        else:
            reason = f"{group.__name__} did not yield it"
            try:
                checks = group(*(outputs[name] for name in inputs))
                while True:
                    name, computed, details = next(checks)
                    if name not in {row[0] for row in rows}:
                        raise ValueError(f"undeclared check {suite}.{name}")
                    arrived[name] = computed, details
            except StopIteration as stop:  # the group's return value
                outputs[group.__name__] = stop.value
            except Exception as exc:  # failure isolation: record, keep going
                error = f"{type(exc).__name__}: {exc}"
                reason = f"{group.__name__} raised {error}"
        for name, anchor, bound in rows:
            computed, details = arrived.get(name, (np.inf, {"not_run": reason}))
            records.append(CheckRecord(f"{suite}.{name}", anchor, computed, bound, details))
        if error:
            records.append(CheckRecord(
                f"{suite}.{group.__name__}.error", group.__doc__, np.inf, 0.0,
                details={"exception": error},
            ))
    return records


def _mode_data(N: int, n: int, a: float) -> BoundaryData:
    """Boundary data a e^{i n theta} at t = 0 and zero at the far end, in C^1."""
    return BoundaryData(plus0=Loop.from_modes(1, N, {n: a}), minus_end=Loop.zero(1, N))


# -- batch helpers for the sweep checks ------------------------------------------


def _smooth_field_coeffs(rng, N: int, batch: int) -> list[np.ndarray]:
    """The coefficients c0, c1, c2, each (2N+1, batch), of random smooth fields."""
    return [gaussian_block(rng, (2 * N + 1, batch)) for _ in range(3)]


def _half_norm_sq(coeffs: np.ndarray) -> np.ndarray:
    """Squared half-norm sum_n w_n |c_n|^2 of every batch column of coeffs (2N+1, batch)."""
    return sobolev_sq(coeffs.T[..., None], 0.5)


def _right_inverse_errors(rng, N: int, M_t: int, eps: float) -> tuple[float, float]:
    """Worst relative D P g - g residual and worst prescribed P g trace at one eps.

    One hundred random smooth forcings on a refined grid, drawn as ten chunks
    of ten.  Each squared residual is a Gram form of the residuals of P's
    basis sweep, formed while the sweep runs (residual_gram).  The traces
    are those of P applied to the first chunk on the M_t grid.
    """
    lam = lambda_of_modes(N)
    plus_mask = (mode_numbers(N) <= 0)[:, None]
    M_ref = max(2048, int(np.ceil(12000 * eps)))
    h = eps / M_ref
    chunks = [_smooth_field_coeffs(rng, N, 10) for _ in range(10)]
    coeffs = [np.concatenate(c, axis=1) for c in zip(*chunks)]
    r_sq = quadratic_forms(residual_gram(lam, h, M_ref), coeffs)
    g_sq = quadratic_forms(mode_gram(tau_powers(M_ref)[:, None], h), coeffs)
    rel = np.sqrt(r_sq) / np.sqrt(g_sq)
    # prescribed boundary components of P g vanish
    pv = kernel_p_values(smooth_fields(chunks[0], M_t), lam, eps / M_t)
    trace0 = np.sqrt(_half_norm_sq(np.where(plus_mask, pv[0], 0)))
    trace1 = np.sqrt(_half_norm_sq(np.where(plus_mask, 0, pv[-1])))
    return float(np.max(rel)), max(float(np.max(trace0)), float(np.max(trace1)))


def _sobolev_gram(basis: np.ndarray, weight: np.ndarray, h: float) -> np.ndarray:
    """Per-mode Gram (modes, k, k) of int |d_t f|^2 + sum_n weight_n |f_n|^2.

    The fields are f_n = sum_k c_k[n] X[:, n, k] on a real basis X (nodes,
    modes, k), or (nodes, 1, k) for one basis shared by every mode.
    """
    return weight[:, None, None] * mode_gram(basis, h) + mode_gram(dt_derivative(basis, h), h)


def _uniformity_grams(N: int, M_t: int, eps: float) -> dict:
    """The per-mode Gram forms of the uniformity ratios at one eps.

    For forcings g = c0 + c1 tau + c2 tau^2: "g" is the Gram of |g|^2 in L^2,
    one (1, 3, 3) matrix for every mode; "p" that of |P g|^2 in L^2_1; and
    "trace" that of the squared half-norms of P g at both ends.  Q is
    diagonal: "q" holds |Q e_n|^2 in L^2_1 per mode.  "mixed" stacks the
    unit Q field and P's basis sweeps (nodes, modes, 4), the basis of the
    mixed L^4 fields, on time steps of "h".
    """
    lam = lambda_of_modes(N)
    # resolve the stiffest transient (lambda * h <= 0.1) so the
    # estimates measure the operators, not the grid
    m_eff = max(M_t, int(np.ceil(10 * N * eps)))
    h = eps / m_eff
    ones = np.ones(2 * N + 1)
    q_unit = kernel_q_values(ones, ones, lam, np.linspace(0.0, eps, m_eff + 1), eps)
    basis = basis_p_values(lam, h, m_eff)
    l21_weight = sobolev_weights(1, N)
    ends = basis[[0, -1]]
    return {
        "g": mode_gram(tau_powers(m_eff)[:, None], h),
        "p": _sobolev_gram(basis, l21_weight, h),
        "trace": sobolev_weights(0.5, N)[:, None, None] * np.einsum("jnk,jnl->nkl", ends, ends),
        "q": time_trapezoid(l21_weight * q_unit**2 + dt_derivative(q_unit, h) ** 2, h),
        "mixed": np.concatenate([q_unit[:, :, None], basis], axis=2),
        "h": h,
    }


def _uniformity_estimates(rng, N: int, M_t: int, eps: float) -> tuple[float, ...]:
    """Sampled norm ratios (P, Q, restriction, mixed L4) at one eps.

    The random coefficients are drawn whole and in a fixed order, and each
    batch is let go before the next is drawn.  Every squared norm is a Gram
    form of _uniformity_grams; only the mixed L4 fields are formed, one time
    block at a time.
    """
    grams = _uniformity_grams(N, M_t, eps)

    def q_ratio(c):
        q_l21 = np.sqrt(np.sum(grams["q"][:, None] * np.abs(c) ** 2, axis=0))
        return np.max(q_l21 / np.sqrt(_half_norm_sq(c)))

    def p_and_restriction_ratios(forcing):
        g_l2 = np.sqrt(quadratic_forms(grams["g"], forcing))
        return [
            np.max(np.sqrt(quadratic_forms(grams[key], forcing)) / g_l2) for key in ("p", "trace")
        ]

    # Q: per-mode unit probes (the exact extremizers) plus random mixes.  P and
    # the restriction bound: per-mode constant probes (c0 = e_n and c1 = c2 =
    # 0) plus smooth mixes.  Each ratio is a column's own, so the probe and
    # the mix columns are taken apart; complex probes keep the code path of
    # the mixes
    probes = np.eye(2 * N + 1, dtype=complex)
    zeros = np.zeros_like(probes)
    est_q = float(max(q_ratio(probes), q_ratio(gaussian_block(rng, (2 * N + 1, 1000)))))
    probe_p, probe_r = p_and_restriction_ratios([probes, zeros, zeros])
    mix_p, mix_r = p_and_restriction_ratios(_smooth_field_coeffs(rng, N, 1000))
    est_p, est_r = float(max(probe_p, mix_p)), float(max(probe_r, mix_r))

    # mixed L4 bound on Q c2 + P g2
    c2 = gaussian_block(rng, (2 * N + 1, 100))
    smooth2 = _smooth_field_coeffs(rng, N, 100)
    u_l4 = l4_combination(grams["mixed"], [c2] + smooth2, grams["h"])
    denom = np.sqrt(_half_norm_sq(c2)) + np.sqrt(quadratic_forms(grams["g"], smooth2))
    est_mix = float(np.max(u_l4 / denom))
    return est_p, est_q, est_r, est_mix


def _trend_slope(eps_values: np.ndarray, estimates: np.ndarray) -> float:
    """Least-squares slope of log(estimate) against log(eps)."""
    x = np.log(np.asarray(eps_values, float))
    y = np.log(np.asarray(estimates, float))
    x = x - x.mean()
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))


# -- norms suite -------------------------------------------------------------------


@_group("norms", [("parseval", "sum_n |c_n|^2 = int |gamma|^2 dtheta/2pi", 1e-10)])
def parseval(N, rng):
    """parseval"""
    worst = 0.0
    for _ in range(50):
        g = gaussian_loop(1, N, rng)
        M = theta_points(N)
        thetas = 2 * np.pi * np.arange(M) / M
        phases = np.exp(1j * np.outer(thetas, g.modes))
        vals = phases @ g.coeffs
        quad = float(np.mean(np.sum(np.abs(vals) ** 2, axis=1)))
        nrm = sobolev_norm(g, 0) ** 2
        worst = max(worst, abs(nrm - quad) / nrm)
    yield "parseval", worst, {}


@_group("norms", [
    ("half_norm_single_mode", "||gamma||^2_{1/2} = sum |c_n|^2 |n| + |c_0|^2", 1e-13),
])
def half_norm_single_mode(N):
    """half norm"""
    g = Loop.from_modes(1, N, {2: 3.0})
    yield "half_norm_single_mode", abs(sobolev_norm(g, 0.5) ** 2 - 18.0), {}


@_group("norms", [
    ("projection_partition", "Pi+ + Pi- = id", 0.0),
    ("projection_annihilate", "Pi- Pi+ = 0", 0.0),
    ("projection_monotone", "||Pi gamma||_{1/2} <= ||gamma||_{1/2}", 0.0),
    ("aps_plus_is_polarization_minus",
     "spectral projection lambda >= 0 keeps modes n <= 0", 0.0),
])
def projections(N, rng):
    """projections"""
    worst_partition = worst_annihilate = worst_monotone = worst_aps = 0.0
    for _ in range(40):
        g = gaussian_loop(1, N, rng)
        recon = project(g, "plus") + project(g, "minus")
        worst_partition = max(
            worst_partition, float(np.max(np.abs(recon.coeffs - g.coeffs)))
        )
        pm = project(project(g, "plus"), "minus")
        worst_annihilate = max(worst_annihilate, float(np.max(np.abs(pm.coeffs))))
        worst_monotone = max(
            worst_monotone,
            sobolev_norm(project(g, "plus"), 0.5) - sobolev_norm(g, 0.5),
        )
        diff = aps_project(g, "plus") - project(g, "minus")
        worst_aps = max(worst_aps, float(np.max(np.abs(diff.coeffs))))
    yield "projection_partition", worst_partition, {}
    yield "projection_annihilate", worst_annihilate, {}
    yield "projection_monotone", worst_monotone, {}
    yield "aps_plus_is_polarization_minus", worst_aps, {}


@_group("norms", [("sampling_roundtrip", "synthesize(sample(gamma, M >= 2N+2)) = gamma", 1e-12)])
def sampling_roundtrip(N, rng):
    """fft bridge"""
    worst = 0.0
    for _ in range(20):
        g = gaussian_loop(1, N, rng)
        back = synthesize(sample(g, theta_points(N)), N)
        worst = max(worst, float(np.max(np.abs(back.coeffs - g.coeffs))))
    yield "sampling_roundtrip", worst, {}


@_group("norms", [("inner_consistency", "inner(g, g, k) = ||g||_k^2 and symmetry", 1e-13)])
def inner_consistency(N, rng):
    """inner products"""
    worst = 0.0
    for _ in range(20):
        g = gaussian_loop(1, N, rng)
        h = gaussian_loop(1, N, rng)
        for order in (0, 0.5):
            nrm = sobolev_norm(g, order) ** 2
            worst = max(worst, abs(inner(g, g, order) - nrm) / (1 + nrm))
            worst = max(worst, abs(inner(g, h, order) - inner(h, g, order)))
    yield "inner_consistency", worst, {}


@_group("norms", [
    ("gradient_finite_difference",
     "grad CSD = -J gamma' - grad H(gamma), paired against central differences", 1e-5),
])
def gradient_finite_difference(m, N, rng):
    """gradient fd"""
    # central finite differences of the action along 100 random directions
    worst = 0.0
    h = 1e-4
    for _ in range(100):
        g = gaussian_loop(1, N, rng, scale=0.12)
        delta = gaussian_loop(1, N, rng, scale=0.12)
        pairing = inner(grad_action(m, g), delta, 0)
        fd = (action(m, g + h * delta) - action(m, g - h * delta)) / (2 * h)
        worst = max(worst, abs(pairing - fd) / (1 + abs(pairing)))
    yield "gradient_finite_difference", worst, {}


@_group("norms", [("action_radial_closed_form", "CSD(r e^{ik theta}) = k r^2 / 2 - h(r^2)", 1e-12)])
def action_closed_forms(m, N):
    """radial action"""
    worst = 0.0
    for k, r in ((1, 0.9), (2, 1.7), (1, 0.1)):
        g = Loop.from_modes(1, N, {k: r})
        expected = 0.5 * k * r**2 - float(m.h(r**2))
        worst = max(worst, abs(action(m, g) - expected))
    yield "action_radial_closed_form", worst, {}


@_group("norms", [
    ("splitting_exact", "X_H = c u + X_{H_c} with c = 2(1+eps) i", 1e-13),
    ("splitting_nonresonant_flag", "c not in i Z when 2(1+eps) is not an integer", 0.5),
    ("compact_part_support", "X_{H_c} = 0 for |x|^2 >= s1", 0.0),
    ("compact_part_l2_continuity",
     "||X_{H_c}(u1) - X_{H_c}(u2)||_{L^2} <= C ||u1 - u2||_{L^2}", 0.0),
])
def splitting(m, N, rng):
    """linear/compact splitting"""
    spl = split(m)
    x = 2.5 * (rng.standard_normal((500, 1)) + 1j * rng.standard_normal((500, 1)))
    recon = spl.c * x + eval_compact_part(spl, x)
    worst = float(np.max(np.abs(recon - eval_XH(m, x))))
    yield "splitting_exact", worst, {}
    flag = 0.0 if spl.nonresonant else 1.0
    yield "splitting_nonresonant_flag", flag, {"c_imag": 2.0 * m.slope}
    far = np.array([[3.0 + 0.5j]])
    yield "compact_part_support", float(np.max(np.abs(eval_compact_part(spl, far)))), {}
    # L^2 continuity of the compact part on loop samples
    C = spl.lipschitz_bound()
    worst_ratio = 0.0
    for _ in range(50):
        a = gaussian_loop(1, N, rng)
        b = gaussian_loop(1, N, rng)
        xa, xb = sample(a, theta_points(N)), sample(b, theta_points(N))
        lhs = np.sqrt(
            np.mean(np.sum(np.abs(eval_compact_part(spl, xa) - eval_compact_part(spl, xb)) ** 2, axis=1))
        )
        rhs = C * np.sqrt(np.mean(np.sum(np.abs(xa - xb) ** 2, axis=1)))
        worst_ratio = max(worst_ratio, lhs - rhs)
    yield "compact_part_l2_continuity", worst_ratio, {"lipschitz_bound": C}


@_group("norms", [
    ("k_factor_exact", "X_H(x) = K(x) x with K = 2h'(|x|^2) J", 0.0),
    ("k_factor_linear_bound", "|K(x)| <= C |x| with K(0) = 0", 0.0),
    ("k_factor_product_lipschitz", "|K(x) x - K(y) y| <= 2C (|x| + |y|) |x - y|", 0.0),
])
def k_factor(m, rng):
    """K factorization"""
    C = k_factor_constant(m)
    x = 3.0 * (rng.standard_normal((10_000, 1)) + 1j * rng.standard_normal((10_000, 1)))
    y = 3.0 * (rng.standard_normal((10_000, 1)) + 1j * rng.standard_normal((10_000, 1)))
    kap = eval_k_factor(m, x)
    exact = float(np.max(np.abs(kap[:, None] * 1j * x - eval_XH(m, x))))
    yield "k_factor_exact", exact, {}
    r = np.sqrt(np.sum(np.abs(x) ** 2, axis=1))
    bound_defect = float(np.max(kap - C * r))
    yield "k_factor_linear_bound", bound_defect, {"C": C}
    lhs = np.sqrt(np.sum(np.abs(eval_XH(m, x) - eval_XH(m, y)) ** 2, axis=1))
    ry = np.sqrt(np.sum(np.abs(y) ** 2, axis=1))
    dxy = np.sqrt(np.sum(np.abs(x - y) ** 2, axis=1))
    prod_defect = float(np.max(lhs - 2 * C * (r + ry) * dxy))
    yield "k_factor_product_lipschitz", prod_defect, {}


@_group("norms", [
    ("nonlinear_lipschitz_l4",
     "||X_H(a) - X_H(b)||_{L^2} <= 2C (||a||_{L^4} + ||b||_{L^4}) ||a - b||_{L^4}", 0.0),
])
def nonlinear_l4(m, rng):
    """L4 Lipschitz"""
    C = k_factor_constant(m)
    worst = 0.0
    for _ in range(1000):
        a = rng.standard_normal((9, 48, 1)) + 1j * rng.standard_normal((9, 48, 1))
        b = rng.standard_normal((9, 48, 1)) + 1j * rng.standard_normal((9, 48, 1))
        lhs = np.sqrt(np.mean(np.sum(np.abs(eval_XH(m, a) - eval_XH(m, b)) ** 2, axis=-1)))
        na = np.mean(np.sum(np.abs(a) ** 2, axis=-1) ** 2) ** 0.25
        nb = np.mean(np.sum(np.abs(b) ** 2, axis=-1) ** 2) ** 0.25
        nd = np.mean(np.sum(np.abs(a - b) ** 2, axis=-1) ** 2) ** 0.25
        worst = max(worst, lhs - 2 * C * (na + nb) * nd)
    yield "nonlinear_lipschitz_l4", worst, {"C": C}


@_group("norms", [
    ("hamiltonian_gradient_fd", "grad H = 2 h'(|x|^2) x against central differences", 1e-6),
])
def hamiltonian_gradient_fd(m, rng):
    """pointwise gradient fd"""
    # central differences of H against grad H in the transition band
    worst = 0.0
    h = 1e-6
    for _ in range(25):
        s = rng.uniform(m.s0 + 0.05, m.s1 - 0.1)
        phase = rng.uniform(0, 2 * np.pi)
        x = np.array([np.sqrt(s) * np.exp(1j * phase)], complex)
        g = eval_gradH(m, x)[0]
        for direction in (1.0, 1j):
            fd = (
                eval_H(m, x + h * np.array([direction]))
                - eval_H(m, x - h * np.array([direction]))
            ) / (2 * h)
            exact = (g * np.conj(direction)).real
            worst = max(worst, abs(fd - exact) / (1 + abs(exact)))
    yield "hamiltonian_gradient_fd", worst, {}


# -- aps suite ----------------------------------------------------------------------


# the aps.q_kernel_of_d grid follows from its bound
_Q_KERNEL_BOUND = 1e-3

@_group("aps", [
    ("q_boundary_defect_closed_form",
     "||phi - Q(phi)|_{eps}||^2_{1/2} = lambda (1 - e^{-eps lambda})^2", 1e-10),
    ("q_dt_mass_closed_form", "2 int |d_t Q(phi)|^2 = lambda (1 - e^{-2 eps lambda})", 1e-6),
    ("q_defect_inequality",
     "lambda (1 - e^{-eps lambda})^2 <= lambda (1 - e^{-2 eps lambda})", 0.0),
])
def mode_identities(N, M_t):
    """Q closed forms"""
    worst_defect = worst_mass = 0.0
    min_margin = np.inf
    for eps in (0.5, 0.1, 0.01):
        for lam in range(1, N + 1):
            beta = _mode_data(N, -lam, 1.0)
            u = q_op(beta, eps, M_t=M_t)
            defect = trace_defect_sq(u)
            expected_defect = lam * (1 - np.exp(-eps * lam)) ** 2
            mass = 2.0 * kernel_dt_mass(u)
            expected_mass = lam * (1 - np.exp(-2 * eps * lam))
            worst_defect = max(worst_defect, abs(defect - expected_defect))
            worst_mass = max(worst_mass, abs(mass - expected_mass))
            min_margin = min(min_margin, expected_mass - defect)
    yield "q_boundary_defect_closed_form", worst_defect, {}
    yield "q_dt_mass_closed_form", worst_mass, {}
    yield "q_defect_inequality", -min_margin, {"min_margin": float(min_margin)}


@_group("aps", [
    ("q_boundary_right_inverse", "aps_boundary(Q(beta)) = beta exactly per mode", 1e-12),
    ("q_kernel_of_d", "D Q(beta) = 0 (finite-difference defect on a grid with "
     "lambda_max^3 h^2 / 3 <= bound / 4)", _Q_KERNEL_BOUND),
])
def q_right_inverse(config, N, M_t):
    """boundary of Q"""
    rng = config.rng("aps.q_identity")
    worst_id = 0.0
    kernel_details = {"eps": [], "m_fine": [], "defect": [], "defect_half_grid": [],
                      "defect_M_t": [], "observed_order": []}

    for eps in (0.5, 0.1, 0.01):
        for _ in range(10):
            beta = decompose(gaussian_loop(1, N, rng))
            u = q_op(beta, eps, M_t=M_t)
            back = aps_boundary(u)
            worst_id = max(
                worst_id,
                float(np.max(np.abs(back.plus0.coeffs - beta.plus0.coeffs))),
                float(np.max(np.abs(back.minus_end.coeffs - beta.minus_end.coeffs))),
            )
        # Q lands in the kernel of D.  The one-sided end stencil of
        # dt_derivative leaves a relative defect of about lambda_max^3 h^2 / 3
        # on the fastest mode; the grid keeps that at a quarter of the bound.
        # The defect max |D Q beta| / max |Q beta| is taken over time
        # blocks of the fine grid, so no fine field is formed.  defect_M_t is
        # the same defect on the report's own grid, the one the fine grid avoids
        m_fine = max(M_t, int(np.ceil(N * eps * np.sqrt(4 * N / (3 * _Q_KERNEL_BOUND)))))
        beta = decompose(gaussian_loop(1, N, rng))
        u = q_op(beta, eps, M_t=M_t)
        kernel_details["defect_M_t"].append(
            float(np.max(np.abs(apply_D(u).values))) / float(np.max(np.abs(u.values)))
        )
        rel = q_kernel_defect(beta, eps, m_fine)
        rel_half = q_kernel_defect(beta, eps, m_fine // 2)
        kernel_details["eps"].append(eps)
        kernel_details["m_fine"].append(m_fine)
        kernel_details["defect"].append(rel)
        kernel_details["defect_half_grid"].append(rel_half)
        kernel_details["observed_order"].append(
            float(np.log(rel_half / rel) / np.log(m_fine / (m_fine // 2)))
        )
    yield "q_boundary_right_inverse", worst_id, {}
    yield "q_kernel_of_d", max(kernel_details["defect"]), kernel_details


@_group("aps", [
    ("right_inverse_residual", "D P g = g (relative L^2 residual on refined grids)", 1e-6),
    ("right_inverse_boundary", "-Pi+ r_0(P g) = 0 and Pi- r_eps(P g) = 0", 1e-10),
])
def right_inverse(config, N, M_t):
    """D P = id"""
    rng = config.rng("aps.right_inverse")
    worst_rel = worst_trace = 0.0
    for eps in config.eps_list:
        rel, trace = _right_inverse_errors(rng, N, M_t, eps)
        worst_rel, worst_trace = max(worst_rel, rel), max(worst_trace, trace)
    yield "right_inverse_residual", worst_rel, {}
    yield "right_inverse_boundary", worst_trace, {}


@_group("aps", [
    row
    for label in ("p", "q", "restriction", "mixed_l4")
    for row in (
        (f"uniformity_{label}_variation", (
            "operator norm estimates divided by t_N(eps) = sqrt(1 - e^{-2 eps N}) vary "
            "by < 4x across the eps sweep" if label in ("q", "restriction") else
            "operator norm estimates vary by < 4x across the eps sweep"
        ), 4.0),
        (f"uniformity_{label}_no_growth",
         "no growth trend as eps -> 0 (log-log slope >= -0.2)", 0.2),
    )
])
def uniformity(config, N, M_t):
    """norms independent of eps"""
    rng = config.rng("aps.uniformity")
    eps_values = np.asarray(config.eps_list, float)
    estimates = [_uniformity_estimates(rng, N, M_t, eps) for eps in eps_values]
    est_p, est_q, est_r, est_mix = (list(est) for est in zip(*estimates))

    # a truncated spectrum cannot hold the norm up once eps < 1/N: the norms
    # of Q and of the restriction bound are carried by the modes |n| ~ 1/eps
    # and fall with t_N(eps) = sqrt(1 - e^{-2 eps N}), the largest per-mode
    # factor sqrt(1 - e^{-2 |n| eps}) below the cut.  Their variations are
    # taken net of t_N; P and the mixed L4 bound are carried by low modes
    # and are compared raw.  The floor is the smallest raw variation any
    # input can achieve
    t_n = np.sqrt(1.0 - np.exp(-2.0 * eps_values * N))
    floor = float(1.0 / t_n[np.argmin(eps_values)])
    details = {
        "eps": list(map(float, eps_values)),
        "p": est_p,
        "q": est_q,
        "restriction": est_r,
        "mixed_l4": est_mix,
        "truncation_variation_floor": floor,
    }
    for label, est in (("p", est_p), ("q", est_q), ("restriction", est_r), ("mixed_l4", est_mix)):
        net = est
        record_details = details if label == "p" else {
            "estimates": est,
            "truncation_variation_floor": floor,
        }
        if label in ("q", "restriction"):
            net = list(map(float, np.asarray(est) / t_n))
            record_details["truncation_factor"] = list(map(float, t_n))
            record_details["net_estimates"] = net
        yield f"uniformity_{label}_variation", max(net) / min(net), record_details
        slope = _trend_slope(eps_values, np.asarray(est))
        yield f"uniformity_{label}_no_growth", -slope, {"slope": slope}


@_group("aps", [
    ("q_l4_smallness_monotone", "||Q_eps(beta)||_{L^4} decreases along eps = 2^-k", 0.0),
    ("q_l4_smallness_final",
     "Q_eps(beta) -> 0 as eps -> 0: final quartic mass below 5% of initial", 0.05),
])
def q_l4_smallness(config, N, M_t):
    """Q -> 0 in L4"""
    # fixed test set of up to 10 elements, modes |n| <= min(8, N); the L4
    # norm decreases monotonically as eps = 2^-k shrinks and the quartic
    # mass ends < 5%
    rng = config.rng("aps.q_smallness")
    betas = [
        Loop.from_modes(1, N, {n: 1.0}) for n in (0, 1, -1, 2, -2, 4, -4, 8, -8) if abs(n) <= N
    ]
    # the mixed element stays in one spectral sector: its Q profile is then
    # a fixed integrand on a shrinking domain, which is what decreases
    # monotonically (two-sector data is anchored at both moving ends and
    # only the limit, not each step, is controlled)
    mixed = gaussian_loop(1, N, rng, max_mode=8).coeffs
    mixed = np.where((mode_numbers(N) <= 0)[:, None], mixed, 0.0)
    betas.append(Loop(mixed))
    worst_monotone = -np.inf
    worst_final_mass = 0.0
    curves = []
    for b in betas:
        beta = decompose(b)
        norms = []
        for k in range(0, 11):
            eps = 2.0**-k
            # resolve the fastest decay scale 1/(4 * 8) of |u|^4 in time
            m_eff = max(M_t, int(np.ceil(160 * eps)))
            u = q_op(beta, eps, M_t=m_eff)
            norms.append(cyl_norm(u, "L4"))
        worst_monotone = max(worst_monotone, float(np.max(np.diff(norms))))
        worst_final_mass = max(worst_final_mass, (norms[-1] / norms[0]) ** 4)
        curves.append([float(v) for v in norms])
    yield "q_l4_smallness_monotone", worst_monotone, {}
    yield "q_l4_smallness_final", worst_final_mass, {"curves": curves}


@_group("aps", [
    ("end_vanishing_l4",
     "int |f|^4 <= eps (int |grad f|^2)^2 for fields vanishing at one end", 1.0),
])
def end_vanishing(config, N, M_t):
    """anisotropic Sobolev L4 bound"""
    rng = config.rng("aps.end_vanishing")
    tau = np.linspace(0.0, 1.0, M_t + 1)
    # the fields w (c0 + c1 tau + c2 tau^2) on the real windowed basis
    # w (1, tau, tau^2), alternating which end the window w kills
    windows = [w[:, None] * tau_powers(M_t) for w in (tau, 1.0 - tau)]
    # int |grad f|^2 = int |d_t f|^2 + sum_n n^2 |f_n|^2
    n_sq = mode_numbers(N).astype(float) ** 2
    worst = 0.0
    for eps in (0.5, 0.1, 0.01):
        h = eps / M_t
        for chunk in range(4):
            coeffs = _smooth_field_coeffs(rng, N, 250)
            x = windows[chunk % 2]
            grad_sq = quadratic_forms(_sobolev_gram(x[:, None], n_sq, h), coeffs)
            lhs = l4_shared_basis(x, coeffs, h) ** 4
            worst = max(worst, float(np.max(lhs / (eps * grad_sq**2))))
    yield "end_vanishing_l4", worst, {}


# -- contraction suite ----------------------------------------------------------------


@_group("contraction", [
    ("small_data_ratio",
     "Picard contracts with ratio <= 1/2 for ||beta||_{1/2} <= 0.1, eps <= 0.05", 0.5),
    ("small_data_residual", "PDE residual of the fixed point below 1e-8", 1e-8),
])
def small_data(config, m, N):
    """small-data contraction"""
    rng = config.rng("contraction.small")
    # energy_identity reads these three numbers of each solve; its fields
    # are dropped as soon as the solve is scored
    solved = []
    worst_ratio = worst_residual = 0.0
    for eps in (0.05, 0.02):
        for _ in range(10):
            b = gaussian_loop(1, N, rng)
            b = (0.1 / sobolev_norm(b, 0.5)) * b
            res = picard_solve(m, decompose(b), eps, M_t=128)
            solved.append((res.action_in, res.action_out, res.energy))
            worst_ratio = max(worst_ratio, res.contraction_ratio)
            worst_residual = max(worst_residual, res.residual)
    yield "small_data_ratio", worst_ratio, {}
    yield "small_data_residual", worst_residual, {}
    return solved


@_group("contraction", [
    ("vstar_monotone", "||v*|| decreases monotonically along eps = 2^-k (fixed data)", 0.0),
])
def engaged_sweep(m, N):
    """fixed-point norm sweep"""
    beta = _mode_data(N, -1, 0.9)
    solved, norms = [], []
    for k in range(2, 11):
        res = picard_solve(m, beta, 2.0**-k, M_t=128)
        solved.append((res.action_in, res.action_out, res.energy))
        norms.append(res.v_norm)
    yield "vstar_monotone", float(np.max(np.diff(norms))), {
        "eps": [2.0**-k for k in range(2, 11)], "v_norm": norms
    }
    return solved


@_group("contraction", [
    ("energy_identity", "CSD(u(eps)) - CSD(u(0)) = E(u) on every solved cylinder", 1e-5),
])
def energy_identity(small_data, engaged_sweep):
    """energy identity"""
    worst = 0.0
    for action_in, action_out, energy in small_data + engaged_sweep:
        defect = abs(action_out - action_in - energy) / (1 + abs(energy))
        worst = max(worst, defect)
    yield "energy_identity", worst, {}


@_group("contraction", [
    ("grid_convergence",
     "doubling M_t shrinks the solution change by ~4 (second order)", 1.0),
])
def grid_convergence(m, N):
    """O(h^2) convergence"""
    beta = _mode_data(N, -1, 0.8)
    sols = {
        mt: picard_solve(m, beta, 0.1, tol=1e-13, M_t=mt) for mt in (32, 64, 128)
    }
    d1 = float(np.max(np.abs(sols[32].u.values - sols[64].u.values[::2])))
    d2 = float(np.max(np.abs(sols[64].u.values - sols[128].u.values[::2])))
    ratio = d1 / d2
    yield "grid_convergence", abs(ratio - 4.0), {"ratio": ratio}


@_group("contraction", [
    ("uniqueness", "distinct Picard starts reach the same small-energy fixed point",
     10 * 1e-11),  # ten times the Picard stopping tolerance
])
def uniqueness(config, m, N):
    """unique small-energy solution"""
    beta = _mode_data(N, -1, 0.7)
    eps, mt = 0.1, 64
    base = picard_solve(m, beta, eps, M_t=mt)
    rng = config.rng("contraction.uniqueness")
    v = 1e-3 * (
        rng.standard_normal(base.v.values.shape)
        + 1j * rng.standard_normal(base.v.values.shape)
    )
    q = q_op(beta, eps, M_t=mt)
    for _ in range(80):
        u = q + p_op(CylinderMap(eps, v))
        v = -grad_h_modes(m, u.values)
    dist = float(np.max(np.abs(v - base.v.values)))
    yield "uniqueness", dist, {}


@_group("contraction", [
    ("collar_orbit_restrictions",
     "the collar solution through orbit data restricts to the orbit", 1e-6),
    ("collar_orbit_energy", "t-independent orbit cylinders carry no energy", 1e-10),
])
def collar_orbit(m):
    """orbit collar"""
    orbit = cyc.radial_orbit_oracle(m, 1).loop
    res = collar_solve(m, orbit, 4e-4, tol=1e-13)
    worst_rest = max(
        float(np.max(np.abs(res.u.rest_0().coeffs - orbit.coeffs))),
        float(np.max(np.abs(res.u.rest_end().coeffs - orbit.coeffs))),
    )
    yield "collar_orbit_restrictions", worst_rest, {}
    yield "collar_orbit_energy", res.energy, {}


@_group("contraction", [
    ("sensitivity_decreasing",
     "|D_beta fixed-point| -> 0 as eps -> 0 (finite-difference sweep)", 0.0),
    ("sensitivity_first_order",
     "doubling the probe leaves the sensitivity ratio invariant to 1%", 0.01),
])
def sensitivity(m, N):
    """boundary-data sensitivity"""
    beta = _mode_data(N, -1, 0.9)
    db = _mode_data(N, -2, 0.05)
    vals = [h_eps_sensitivity(m, beta, 2.0**-k, db) for k in range(2, 9)]
    yield "sensitivity_decreasing", float(np.max(np.diff(vals))), {
        "eps": [2.0**-k for k in range(2, 9)], "sensitivity": vals
    }
    s_small = h_eps_sensitivity(m, beta, 0.1, _mode_data(N, -2, 0.01))
    s_double = h_eps_sensitivity(m, beta, 0.1, _mode_data(N, -2, 0.02))
    yield "sensitivity_first_order", abs(s_double / s_small - 1.0), {}


@_group("contraction", [
    ("large_data_detected",
     "huge boundary data exits the 1/(8C) ball or stops contracting", 0.5),
])
def failure_modes(m, N):
    """loud failure"""
    beta = _mode_data(N, -1, 1e3)
    try:
        picard_solve(m, beta, 0.5)
        failed_loudly = 1.0
    except (BallExit, ContractionFailure):
        failed_loudly = 0.0
    yield "large_data_detected", failed_loudly, {}


# -- flow suite -------------------------------------------------------------------------


@_group("flow", [
    ("linear_energy_closed_form", "single growing mode: E = (n/2) alpha^2 (e^{2nT} - 1)", 1e-8),
    ("linear_energy_identity",
     "CSD(u(t)) - CSD(u(0)) = E(u) at every node of the linear trajectory", 1e-8),
])
def linear(m):
    """linear flow closed form"""
    n, alpha, T = 1, 0.1, 0.5
    g = Loop.from_modes(1, 8, {n: alpha})
    trace = flow_trajectory(m, g, T, 1e-3)
    expected = 0.5 * n * alpha**2 * (np.exp(2 * n * trace.times) - 1)
    error = float(np.max(np.abs(trace.cumulative_energy - expected)))
    yield "linear_energy_closed_form", error, {}
    defect = np.abs((trace.actions - trace.actions[0]) - trace.cumulative_energy)
    yield "linear_energy_identity", float(np.max(defect)), {}


@_group("flow", [("orbit_stationary", "critical orbits are fixed points of the upward flow", 1e-8)])
def orbit_stationary(m):
    """orbit stationarity"""
    # truncation small enough that e^{N t} round-off stays below 1e-8
    radius = cyc.radial_orbit_oracle(m, 1).radius
    loop = Loop.from_modes(1, 12, {1: radius})
    trace = flow_trajectory(m, loop, 1.0)
    yield "orbit_stationary", float(np.max(np.abs(trace.final.coeffs - loop.coeffs))), {}


@_group("flow", [
    ("nonlinear_energy_identity",
     "CSD(u(t)) - CSD(u(0)) = E(u) at every node through the bump region", 1e-5),
    ("actions_nondecreasing", "the action is nondecreasing along the upward flow", 1e-12),
])
def nonlinear_identity(m):
    """nonlinear energy identity"""
    seed = Loop.from_modes(1, 8, {1: 0.55, 2: 0.3j, 3: 0.1})
    trace = flow_trajectory(m, seed, 0.5, 1e-5)
    E = trace.cumulative_energy[-1]
    per_node = np.abs(
        (trace.actions - trace.actions[0]) - trace.cumulative_energy
    ) / (1 + trace.cumulative_energy)
    defect = float(np.max(per_node))
    yield "nonlinear_energy_identity", defect, {
        "E": float(E),
        "curve_t": [float(t) for t in trace.times[::2500]],
        "curve_action": [float(a) for a in trace.actions[::2500]],
        "curve_energy": [float(e) for e in trace.cumulative_energy[::2500]],
        "curve_norm": [float(v) for v in trace.norms[::2500]],
    }
    yield "actions_nondecreasing", float(np.max(-np.diff(trace.actions))), {}


@_group("flow", [
    ("semigroup_flat_region", "flow_step composes exactly where the flow is linear", 1e-12),
])
def semigroup(m):
    """linear semigroup"""
    g = Loop.from_modes(1, 8, {1: 0.1, 3: 0.02j, -2: 0.05})
    two = flow_step(m, flow_step(m, g, 0.005), 0.005)
    one = flow_step(m, g, 0.01)
    yield "semigroup_flat_region", float(np.max(np.abs(two.coeffs - one.coeffs))), {}


@_group("flow", [
    ("pushforward_identity_at_zero_time", "GF_0 is the identity on cycle points", 0.0),
    ("pushforward_actions_increase",
     "actions strictly increase along the flow off critical points", 0.0),
    ("pushforward_blowup_recorded",
     "per-point blowups are recorded without failing the batch", 0.5),
])
def pushforward(config, m, N):
    """cycle pushforward"""
    pts = cyc.sample_gamma(0.3, 4, seed=config.seed + 7, N=8)
    out_id = gf_pushforward(m, pts, 0.0, 1e-3)
    worst_id = max(
        float(np.max(np.abs(r.final.coeffs - p.coeffs))) for r, p in zip(out_id, pts)
    )
    yield "pushforward_identity_at_zero_time", worst_id, {}
    out = gf_pushforward(m, pts, 0.05, 1e-4)
    min_gain = min(
        action(m, r.final) - action(m, p) for r, p in zip(out, pts) if r.blowup_time is None
    )
    yield "pushforward_actions_increase", -min_gain, {}
    rng = config.rng("flow.blowup")
    wild = project(gaussian_loop(1, N, rng), "plus")
    wild = (0.45 / sobolev_norm(wild, 0.5)) * wild
    tame = Loop.from_modes(1, N, {1: 0.01})
    # above the overflow guard the top mode grows at least like n - 2.2;
    # scale the window so small truncations get time to diverge
    t_wild = max(2.5, 60.0 / N)
    res = gf_pushforward(m, [wild, tame], t_wild)
    ok = res[0].blowup_time is not None and res[1].blowup_time is None
    yield "pushforward_blowup_recorded", 0.0 if ok else 1.0, {"blowup_time": res[0].blowup_time}


# energy vs L^2_1 norm equivalence for the linear (pure quadratic) model.
# With X_H = c u, the energy density per mode n is |u_n'|^2 + (n - im c)^2
# |u_n|^2, so E(u) / ||u||^2_{L^2_1} is bounded between computed per-mode
# extremes; away from resonance (c not in i Z) the lower bound is positive,
# at resonance it degenerates on the resonant mode
def _bounds_for(N: int, c_im: float) -> tuple[float, float]:
    n = mode_numbers(N).astype(float)
    kappa = (n - c_im) ** 2
    per_mode = kappa / (2.0 * (1.0 + n**2))
    lower = np.minimum(0.5, per_mode)
    upper = np.maximum(0.5, per_mode)
    return float(np.min(lower)), float(np.max(upper))


def _equivalence_grams(N: int, M_t: int, c_im: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode Grams (G_E, G_N) of E and ||.||^2_{L^2_1} of the pure-quadratic
    model X_H = i c_im u, for fields c0 + c1 tau + c2 tau^2 on [0, 0.4].

    E is half the form of |d_t u|^2 + (n - c_im)^2 |u_n|^2, as energy() sums
    it, and the norm that of |d_t u|^2 + (1 + n^2) |u_n|^2, as cyl_norm does.
    """
    basis, h = tau_powers(M_t)[:, None], 0.4 / M_t
    n = mode_numbers(N).astype(float)
    return (
        0.5 * _sobolev_gram(basis, (n - c_im) ** 2, h),
        _sobolev_gram(basis, sobolev_weights(1, N), h),
    )


def _equivalence_forms(rng, N: int, g_energy, g_norm, fields: int):
    """E and ||u||^2_{L^2_1}, as the forms g_energy and g_norm, of `fields`
    random fields drawn one by one (_smooth_field_coeffs), and the first
    four draws, kept for the operations under test.

    The draws go into column chunks of their coefficients, each reduced to
    its forms.  A chunk's working set (its three blocks, quadratic_forms'
    stack of them and its real products) is three times its blocks and fits
    BLOCK_BYTES.
    """
    modes = 2 * N + 1
    energies, norms_sq, first = np.empty(fields), np.empty(fields), []
    for start, stop in column_chunks(fields, 3 * 3 * modes * np.dtype(complex).itemsize):
        coeffs = np.empty((3, modes, stop - start), complex)
        for j in range(stop - start):
            coeffs[:, :, j : j + 1] = draw = _smooth_field_coeffs(rng, N, 1)
            if start + j < 4:
                first.append(draw)
        energies[start:stop] = quadratic_forms(g_energy, coeffs)
        norms_sq[start:stop] = quadratic_forms(g_norm, coeffs)
    return energies, norms_sq, first


def _pencil_extremes(g_num: np.ndarray, g_den: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the per-mode pencils (g_num_n, g_den_n),
    with g_den positive definite: the exact extremes of the form ratio over the
    span (Rayleigh-Ritz).  Each pencil is reduced by the Cholesky factor L of
    g_den_n to the symmetric L^{-1} g_num_n L^{-T}."""
    chol = np.linalg.cholesky(g_den)
    half = np.linalg.solve(chol, g_num)  # L^{-1} G
    eig = np.linalg.eigvalsh(np.linalg.solve(chol, np.swapaxes(half, 1, 2)))
    return float(np.min(eig)), float(np.max(eig))


@_group("flow", [
    ("equivalence_bounds",
     "E(u)/||u||^2_{L^2_1} within per-mode bounds from |i n - c|^2", 1e-12),
    ("equivalence_bounds_attained",
     "the exact extremes of E/||u||^2_{L^2_1} over the span of 1, tau, tau^2 are (m, M)", 1e-12),
    ("equivalence_energy_oracle",
     "energy and cyl_norm agree with the per-mode Gram forms on the first drawn fields", 1e-12),
    ("equivalence_positive_lower_bound",
     "c = 2.2i: min_n (n - 2.2)^2 = 0.04 at n = 2 gives m >= 0.04/10", 1e-15),
])
def equivalence_nonresonant(config, N, M_t):
    """energy/norm equivalence"""
    m_quad = HamiltonianModel(eps_H=0.1, variant="pure_quadratic")
    c_im = 2.0 * m_quad.slope
    lo, hi = _bounds_for(N, c_im)
    g_energy, g_norm = _equivalence_grams(N, M_t, c_im)
    rng = config.rng("flow.equivalence")
    energies, norms_sq, first = _equivalence_forms(rng, N, g_energy, g_norm, 1000)
    ratio = energies / norms_sq
    worst = float(max(np.max(lo - ratio), np.max(ratio - hi)))
    seen = [float(np.min(ratio)), float(np.max(ratio))]
    yield "equivalence_bounds", worst, {"m": lo, "M": hi, "seen": seen}
    extremes = _pencil_extremes(g_energy, g_norm)
    attained = max(abs(extremes[0] - lo), abs(extremes[1] - hi))
    yield "equivalence_bounds_attained", attained, {"m": lo, "M": hi, "extremes": list(extremes)}
    worst_oracle = 0.0
    for j, draw in enumerate(first):
        u = CylinderMap(0.4, smooth_fields(draw, M_t))
        worst_oracle = max(
            worst_oracle,
            float(abs(energy(m_quad, u) - energies[j]) / energies[j]),
            float(abs(cyl_norm(u, "L2_1") ** 2 - norms_sq[j]) / norms_sq[j]),
        )
    yield "equivalence_energy_oracle", worst_oracle, {"fields": len(first)}
    yield "equivalence_positive_lower_bound", 0.04 * 0.1 - lo, {"m": lo}


@_group("flow", [
    ("equivalence_resonant_degenerates",
     "c = 2i: the resonant mode carries energy 0, the lower bound collapses", 1e-12),
])
def equivalence_resonant(N, M_t):
    """resonant counterexample"""
    m_res = HamiltonianModel(eps_H=0.0, variant="pure_quadratic")  # c = 2i
    lo, hi = _bounds_for(N, 2.0)
    vals = np.zeros((M_t + 1, 2 * N + 1, 1), complex)
    vals[:, N + 2, 0] = 1.0  # resonant mode n = 2, constant in t
    u = CylinderMap(0.4, vals)
    ratio = energy(m_res, u) / cyl_norm(u, "L2_1") ** 2
    yield "equivalence_resonant_degenerates", max(ratio, lo), {
        "resonant_ratio": float(ratio), "resonant_lower_bound": lo
    }


# -- orbits suite ---------------------------------------------------------------------


@_group("orbits", [
    ("beta_positive",
     "there exist alpha, beta > 0 with CSD >= beta on the alpha-sphere", 0.0),
    ("beta_flat_core",
     "beta = alpha^2 / 2 where the alpha-sphere lies in the flat core |x|^2 <= s0", 1e-12),
    ("beta_below_quadratic", "beta <= alpha^2 / 2 at every alpha, since h >= 0", 0.0),
])
def alpha_scan(config, m, N):
    """sphere minimum scan"""
    alpha_star, beta_star, table = cyc.scan_alpha(
        m, samples=48, descent_steps=120, seed=config.seed, N=N
    )
    yield "beta_positive", -beta_star, {
        "alpha_star": alpha_star, "beta_star": beta_star, "table": table
    }
    # a plus-sector loop with sum n |c_n|^2 = alpha^2 has sup |gamma|^2 <=
    # alpha^2 H_N (Cauchy-Schwarz, H_N = sum_{n<=N} 1/n), so for alpha <=
    # sqrt(s0 / H_N) the bump profile's h vanishes on the whole sphere
    h_n = np.sum(1.0 / np.arange(1, N + 1))
    limit = float(np.sqrt(m.s0 / h_n)) if m.variant == "bump" else 0.0
    flat = [row for row in table if 0 < row["alpha"] <= limit]
    deviation = [row["beta"] / (row["alpha"] ** 2 / 2) - 1.0 for row in flat]
    yield "beta_flat_core", max(map(abs, deviation), default=0.0), {
        "alpha_limit": limit, "alphas": [row["alpha"] for row in flat],
        "relative_deviation": deviation,
    }
    yield "beta_below_quadratic", max(row["beta"] - row["alpha"] ** 2 / 2 for row in table), {}
    return alpha_star, beta_star


@_group("orbits", [
    ("sigma_boundary_nonpositive",
     "CSD <= 0 on the boundary of the tau-box for tau large", 0.0),
])
def sigma_boundary(config, m, N):
    """box boundary"""
    tau_star, worst = cyc.derive_tau(m, seed=config.seed + 1, N=N)
    yield "sigma_boundary_nonpositive", worst, {"tau_star": tau_star}
    return tau_star


@_group("orbits", [
    ("transversality_full_rank",
     "the sphere and box tangents span the truncation at alpha e+", -1e-12),
    ("intersection_unique", "the families meet exactly in the single point alpha e+", 0.0),
])
def transversality(N, alpha_scan, sigma_boundary):
    """transverse intersection"""
    alpha_star, _ = alpha_scan
    out = cyc.transversality_check(alpha_star, max(sigma_boundary, alpha_star), N=N)
    yield "transversality_full_rank", -out["sigma_min"], {
        "sigma_min": out["sigma_min"], "sigma_max": out["sigma_max"]
    }
    yield "intersection_unique", abs(out["intersection_dim"] - 1), {
        "s_at_intersection": out["s_at_intersection"]
    }


@_group("orbits", [
    row
    for k in (1, 2)
    for row in (
        (f"winding{k}_radius", "found orbit radius matches the scalar bisection oracle",
         cyc.ORACLE_ERROR_MAX),
        (f"winding{k}_action", "found orbit action matches k r^2 / 2 - h(r^2)",
         cyc.ORACLE_ERROR_MAX),
        (f"winding{k}_gradient", "the found loop is critical: ||grad CSD|| <= 1e-8", 1e-8),
        (f"winding{k}_above_beta", "critical point with CSD >= beta", 1e-6),
    )
])
def windings(m, N, alpha_scan):
    """orbit existence and oracle match"""
    alpha_star, beta_star = alpha_scan
    for k in (1, 2):
        oracle = cyc.radial_orbit_oracle(m, k)
        seed_loop = cyc.winding_seed(alpha_star, k, N)
        found = cyc.find_critical_point(
            m, seed_loop, flow_time=1.0, newton_tol=1e-11, beta=beta_star
        )
        yield f"winding{k}_radius", abs(found.radius - oracle.radius), {
            "found": found.radius, "oracle": oracle.radius
        }
        yield f"winding{k}_action", abs(found.action - oracle.action), {
            "found": found.action, "oracle": oracle.action
        }
        yield f"winding{k}_gradient", found.gradient_norm, {}
        yield f"winding{k}_above_beta", beta_star - found.action, {
            "flagged_below_beta": found.action_below_beta
        }


@_group("orbits", [
    ("oracle_criticality", "2 h'(r^2) = k at the oracle radius", 1e-8),
    ("oracle_action_form", "oracle action equals the radial closed form", 1e-6),
    ("oracle_no_root_detected",
     "windings outside (0, 2(1+eps)) have no radial orbit", 0.5),
])
def oracle(m):
    """oracle internals"""
    worst_root = worst_action = 0.0
    for k in (1, 2):
        orb = cyc.radial_orbit_oracle(m, k)
        worst_root = max(worst_root, abs(2 * float(m.h_prime(orb.radius**2)) - k))
        worst_action = max(
            worst_action,
            abs(orb.action - (0.5 * k * orb.radius**2 - float(m.h(orb.radius**2)))),
        )
    yield "oracle_criticality", worst_root, {}
    yield "oracle_action_form", worst_action, {}
    try:
        cyc.radial_orbit_oracle(m, 3)
        no_root_raised = 1.0
    except cyc.NoRoot:
        no_root_raised = 0.0
    yield "oracle_no_root_detected", no_root_raised, {}


@_group("orbits", [
    ("perturbation_action_bounded",
     "|CSD(F(x, v)) - CSD(x)| bounded independent of x", 10.0),
    ("rho_values", "rho = 1 on [-1, 1] and 1/x^2 outside [-2, 2]", 1e-14),
])
def perturbation(config, m):
    """perturbation map"""
    rng = config.rng("orbits.perturbation")
    points, moved = [], []
    for scale in (0.05, 0.5, 5.0, 50.0):
        for _ in range(250):
            g = gaussian_loop(1, 8, rng, scale=scale)
            v = gaussian_loop(1, 8, rng)
            ball = np.sqrt(sobolev_sq(v.coeffs, 2))
            v = (0.999 / ball) * v
            points.append(g.coeffs)
            moved.append(cyc.perturb(g, v).coeffs)
    gap = action_values(m, np.stack(moved)) - action_values(m, np.stack(points))
    yield "perturbation_action_bounded", float(np.max(np.abs(gap))), {}
    yield "rho_values", abs(cyc.rho(0.5) - 1.0) + abs(cyc.rho(3.0) - 1.0 / 9.0), {}


@_group("orbits", [
    ("sigma_boundary_faces",
     "boundary samples sit on ||gamma^-|| = tau or s in {0, tau}", 1e-12),
])
def sigma_faces(config, N):
    """box boundary sampler"""
    pts = cyc.sample_sigma(1.5, cyc.e_plus(1, N), 30, seed=config.seed + 2)
    worst = 0.0
    for p in pts:
        minus_norm = sobolev_norm(project(p, "minus"), 0.5)
        s = float(project(p, "plus").mode(1)[0].real)
        on_face = min(abs(minus_norm - 1.5), abs(s), abs(s - 1.5))
        worst = max(worst, on_face)
    yield "sigma_boundary_faces", worst, {}


# -- suite orchestration -----------------------------------------------------------------


_SUITE_FUNCTIONS = {
    suite: partial(_run_groups, suite, groups=CHECKS[suite].values()) for suite in SUITES
}


@tracked("harness.run_suite")
def run_suite(config: Config, suite: str = "all", write: bool = True) -> Report:
    """Execute a named verification suite (or all of them) and build the report."""
    if suite != "all" and suite not in _SUITE_FUNCTIONS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    coverage.reset()
    coverage._COUNTS["harness.run_suite"] += 1  # count this invocation post-reset
    records = []
    for name in SUITES if suite == "all" else (suite,):
        records += _SUITE_FUNCTIONS[name](config)

    constants = {
        "lipschitz_C": k_factor_constant(config.model)
        if config.model.variant == "bump"
        else None,
        "contraction_ball_radius": (1.0 / (8.0 * k_factor_constant(config.model)))
        if config.model.variant == "bump"
        else None,
        "splitting_c_imag": 2.0 * config.model.slope,
        "profile_tail_offset": config.model.tail_offset,
    }
    if write:
        # emit the sweep CSVs before freezing the coverage counters, so the
        # plumbing operation itself shows up as exercised in the report
        emit_plots_data(records, config.output_dir)

    counts = coverage.counts()
    # a run that writes nothing emits no sweep CSVs, so it does not need that op
    required = [op for op in counts if write or op != "harness.emit_plots_data"]
    complete = suite == "all" and all(counts[op] > 0 for op in required)
    report = Report(
        suite=suite,
        config=config,
        records=records,
        coverage_counts=counts,
        coverage_complete=complete,
        constants=constants,
    )
    if write:
        write_json(os.path.join(config.output_dir, f"report_{suite}.json"), report.to_json_dict())
    return report


@tracked("harness.emit_plots_data")
def emit_plots_data(records: list[CheckRecord], out_dir) -> list[str]:
    """Write the sweep curves of the check records as CSV files for external plotting.

    A curve whose record is absent or was not run gives a header-only file.
    """
    details = {r.name: r.details for r in records}

    def series(name, *keys):
        return [details.get(name, {}).get(key, []) for key in keys]

    # the p record carries the eps grid and all four estimate series
    operators = ("p", "q", "restriction", "mixed_l4")
    eps, *estimates = series("aps.uniformity_p_variation", "eps", *operators)
    aps_rows = [
        [op, f"{e:.12g}", f"{v:.17g}"]
        for op, values in zip(operators, estimates)
        for e, v in zip(eps, values)
    ]

    sens = dict(zip(*series("contraction.sensitivity_decreasing", "eps", "sensitivity")))
    contraction_rows = [
        [f"{e:.12g}", f"{v:.17g}", f"{sens.get(e, float('nan')):.17g}"]
        for e, v in zip(*series("contraction.vstar_monotone", "eps", "v_norm"))
    ]

    curve = series(
        "flow.nonlinear_energy_identity", "curve_t", "curve_action", "curve_energy", "curve_norm"
    )

    written = []
    for name, (header, rows) in (
        ("aps_sweep.csv", (["operator", "eps", "estimate"], aps_rows)),
        ("contraction_sweep.csv", (["eps", "v_norm", "sensitivity"], contraction_rows)),
        ("flow_curve.csv", flow_table(*curve)),
    ):
        written.append(os.path.join(out_dir, name))
        write_csv(written[-1], header, rows)
    return written
