"""Acceptance gate: every headline criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them
live; they also appear in captured output).  The criteria consume the
records of a single full verification run at the default configuration
(N = 32, M_t = 64), so the numbers asserted here are exactly the numbers
in the shipped report.  The same report is compared with the golden report
in tests/golden (see the end of this module).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from looplab.files import Config
from looplab.harness import run_suite

SEED = 2026


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    cfg = Config(seed=SEED, output_dir=str(out))
    report = run_suite(cfg, "all", write=True)
    return cfg, report


@pytest.fixture(scope="module")
def records(full_run):
    _, report = full_run
    return {r.name: r for r in report.records}


def _criterion(num: int, label: str, pieces) -> None:
    """Print the one-line verdict, then assert every piece."""
    ok = all(p.passed for p in pieces)
    print(f"[ACCEPTANCE {num:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    for p in pieces:
        status = "pass" if p.passed else "FAIL"
        print(
            f"    {status} {p.name}: computed={p.computed:.6g} bound={p.bound:.6g} "
            f"margin={p.margin:.6g}"
        )
    assert ok, f"criterion {num} failed: " + ", ".join(
        f"{p.name} (computed {p.computed:.6g} vs bound {p.bound:.6g})"
        for p in pieces
        if not p.passed
    )


def test_criterion_01_aps_closed_form_identity(records):
    _criterion(
        1,
        "APS boundary defect and time-derivative mass closed forms",
        [
            records["aps.q_boundary_defect_closed_form"],
            records["aps.q_defect_inequality"],
            records["aps.q_dt_mass_closed_form"],
        ],
    )


def test_criterion_02_right_inverse(records):
    _criterion(
        2,
        "D(P g) = g on refined grids with vanishing APS boundary",
        [
            records["aps.right_inverse_residual"],
            records["aps.right_inverse_boundary"],
        ],
    )


def test_criterion_03_uniformity_in_eps(records):
    _criterion(
        3,
        "P, Q and restriction-bound estimates uniform across the eps sweep",
        [
            records["aps.uniformity_p_variation"],
            records["aps.uniformity_q_variation"],
            records["aps.uniformity_restriction_variation"],
            records["aps.uniformity_p_no_growth"],
            records["aps.uniformity_q_no_growth"],
            records["aps.uniformity_restriction_no_growth"],
        ],
    )


def test_criterion_04_end_vanishing_sobolev(records):
    _criterion(
        4,
        "int |f|^4 <= eps (int |grad f|^2)^2 for one-end-vanishing fields",
        [records["aps.end_vanishing_l4"]],
    )


def test_criterion_05_contraction_solver(records):
    _criterion(
        5,
        "Picard contraction for small data; ||v*|| monotone in eps",
        [
            records["contraction.small_data_ratio"],
            records["contraction.small_data_residual"],
            records["contraction.vstar_monotone"],
        ],
    )


def test_criterion_06_energy_identity(records):
    _criterion(
        6,
        "action increment equals energy on cylinders and flow trajectories",
        [
            records["contraction.energy_identity"],
            records["flow.linear_energy_closed_form"],
            records["flow.linear_energy_identity"],
            records["flow.nonlinear_energy_identity"],
        ],
    )


def test_criterion_07_gradient_consistency(records):
    _criterion(
        7,
        "action gradient against central finite differences",
        [records["norms.gradient_finite_difference"]],
    )


def test_criterion_08_critical_point_existence(records):
    _criterion(
        8,
        "winding-1 and winding-2 orbits found and matched to the oracle",
        [
            records["orbits.winding1_radius"],
            records["orbits.winding1_action"],
            records["orbits.winding1_gradient"],
            records["orbits.winding1_above_beta"],
            records["orbits.winding2_radius"],
            records["orbits.winding2_action"],
            records["orbits.winding2_gradient"],
            records["orbits.winding2_above_beta"],
        ],
    )


def test_criterion_09_cycle_geometry(records):
    _criterion(
        9,
        "beta > 0 on the sphere, box boundary nonpositive, transverse point",
        [
            records["orbits.beta_positive"],
            records["orbits.sigma_boundary_nonpositive"],
            records["orbits.transversality_full_rank"],
            records["orbits.intersection_unique"],
        ],
    )


def test_criterion_10_resonance_contrast(records):
    _criterion(
        10,
        "energy/norm equivalence: positive bound off resonance, collapse on it",
        [
            records["flow.equivalence_bounds"],
            records["flow.equivalence_energy_oracle"],
            records["flow.equivalence_bounds_attained"],
            records["flow.equivalence_positive_lower_bound"],
            records["flow.equivalence_resonant_degenerates"],
        ],
    )


def test_criterion_11_determinism_and_coverage(full_run):
    cfg, report = full_run
    rerun = run_suite(Config(seed=SEED, output_dir=cfg.output_dir), "all", write=True)
    identical = report.to_json() == rerun.to_json()
    coverage_ok = report.coverage_complete
    exit_ok = report.exit_code == 0

    class _Piece:
        def __init__(self, name, passed, computed, bound):
            self.name, self.passed, self.computed, self.bound = name, passed, computed, bound
            self.margin = bound - computed

    pieces = [
        _Piece("run_suite_all_exits_zero", exit_ok, float(report.exit_code), 0.0),
        _Piece("coverage_complete", coverage_ok, 0.0 if coverage_ok else 1.0, 0.5),
        _Piece("rerun_bit_identical", identical, 0.0 if identical else 1.0, 0.5),
    ]
    ok = all(p.passed for p in pieces)
    print(f"[ACCEPTANCE 11] determinism, coverage, overall exit: {'PASS' if ok else 'FAIL'}")
    for p in pieces:
        print(f"    {'pass' if p.passed else 'FAIL'} {p.name}: computed={p.computed:.6g}")
    if not coverage_ok:
        missing = [k for k, v in report.coverage_counts.items() if v == 0]
        print(f"    uncovered operations: {missing}")
    assert ok, "criterion 11 failed: " + ", ".join(p.name for p in pieces if not p.passed)


# -- golden report ------------------------------------------------------------------
#
# tests/golden/report_all.json is the report of run_suite(Config(seed=2026),
# "all") with the default output_dir.  The fixture's report must match it:
# names, anchors, bounds, pass flags and every key exactly, and every value
# exactly too, except those tests/golden/drift.json lists with an allowance:
# relative ("rel"), or absolute ("abs") for errors at round-off level, whose
# golden value may be 0.  On a numpy or BLAS other than the one drift.json
# records, every value is compared at its allowance, or at
# other_environment_rel.  Margins are bound - computed and are checked as such.

GOLDEN = Path(__file__).parent / "golden"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _mismatches(gold, run, allowance_of, path=()):
    """Paths at which run differs from gold: in structure, or past allowance_of(path).

    allowance_of gives None (exact) or (rel, abs): a number may move by
    max(rel |gold|, abs).
    """
    if isinstance(gold, dict):
        if not isinstance(run, dict) or gold.keys() != run.keys():
            return [path]
        return [m for k in gold for m in _mismatches(gold[k], run[k], allowance_of, path + (k,))]
    if isinstance(gold, list):
        if not isinstance(run, list) or len(gold) != len(run):
            return [path]
        pairs = enumerate(zip(gold, run))
        return [m for i, (g, r) in pairs for m in _mismatches(g, r, allowance_of, path + (i,))]
    allowance = allowance_of(path)
    numbers = all(type(v) in (int, float) for v in (gold, run))
    if gold == run or (
        allowance is not None
        and numbers
        and abs(run - gold) <= max(allowance[0] * abs(gold), allowance[1])
    ):
        return []
    return [path]


@pytest.fixture(scope="module")
def golden(full_run):
    """(golden report, this run's report, allowance_of), checks keyed by name, no margins."""
    _, report = full_run
    gold = json.loads((GOLDEN / "report_all.json").read_text())
    drift = json.loads((GOLDEN / "drift.json").read_text())
    run = json.loads(report.to_json())
    run["config"]["output_dir"] = gold["config"]["output_dir"]
    env = {"numpy": np.__version__, "blas": _blas()}
    same_env = env == drift["environment"]
    if not same_env:
        print(f"[GOLDEN] numpy/BLAS {env} is not the golden {drift['environment']}: "
              f"values compared at the drift allowances")
        run["environment"]["platform_note"] = gold["environment"]["platform_note"]
    allowed = {
        (e["check"], key): (e.get("rel", 0.0), e.get("abs", 0.0))
        for e in drift["entries"]
        for key in e["values"]
    }
    default = None if same_env else (drift["other_environment_rel"], 0.0)

    def allowance_of(path):
        if path[0] != "checks":
            return default
        name, key = path[1], ".".join(map(str, path[2:4]))
        return None if key == "bound" else allowed.get((name, key), default)

    for r in (gold, run):
        checks = {}
        for c in r["checks"]:
            assert c["margin"] == c["bound"] - c["computed"], c["name"]
            checks[c["name"]] = {k: v for k, v in c.items() if k != "margin"}
        r["checks"] = checks
    return gold, run, allowance_of


def test_golden_structure(golden):
    gold, run, _ = golden
    assert list(run["checks"]) == list(gold["checks"])
    for name, g in gold["checks"].items():
        r = run["checks"][name]
        for key in ("anchor", "bound", "passed"):
            assert r[key] == g[key], (name, key)
        assert r["details"].keys() == g["details"].keys(), name
    assert run["coverage"].keys() == gold["coverage"].keys()


def test_golden_values(golden):
    gold, run, allowance_of = golden
    gold, run = (dict(r, coverage=None) for r in (gold, run))
    assert _mismatches(gold, run, allowance_of) == []


def test_golden_coverage_counts(golden):
    gold, run, _ = golden
    assert run["coverage"] == gold["coverage"]

