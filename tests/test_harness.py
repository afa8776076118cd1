import json
import os
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from looplab import coverage, cycles, hamiltonian, harness
from looplab.cli import COMMANDS, main as cli_main
from looplab.harness import CheckRecord, Config, emit_plots_data, from_json, run_suite
from looplab.loops import theta_points

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture()
def fast_config(tmp_path):
    return Config(N=8, seed=11, output_dir=str(tmp_path / "out"))


def _break_sampling_roundtrip(monkeypatch):
    """Perturb the harness's `synthesize` so that norms.sampling_roundtrip fails."""
    original = harness.synthesize
    monkeypatch.setattr(harness, "synthesize", lambda values, N: 1.001 * original(values, N))


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = Config()
        assert [f.name for f in fields(cfg)] == [
            "model", "N", "M_t", "eps_list", "seed", "output_dir"
        ]
        assert (cfg.N, cfg.M_t, cfg.seed) == (32, 64, 2026)
        assert cfg.eps_list == (1.0, 0.5, 0.1, 0.01, 0.001)

    def test_json_roundtrip(self, tmp_path):
        cfg = Config(N=16, seed=7, eps_list=(0.5, 0.1), output_dir="x")
        assert from_json(Config, json.loads(json.dumps(asdict(cfg))), "config") == cfg

    @pytest.mark.parametrize("M_theta", [2 * 8 + 2, 4096])
    def test_m_theta_other_values_rejected(self, M_theta):
        # the theta grid is theta_points(N); no config key sets it
        with pytest.raises(TypeError, match="M_theta"):
            Config(N=8, M_theta=M_theta)
        with pytest.raises(ValueError, match=r"unknown config keys: \['M_theta'\]"):
            from_json(Config, {"N": 8, "M_theta": M_theta}, "config")

    @pytest.mark.parametrize(
        "obj, match",
        [
            ({"N": 8, "tolerence": {}}, "unknown config keys"),
            ({"N": 8, "eps_lst": [0.1]}, "unknown config keys"),
            ({"N": 8, "model": {"eps_h": 5}}, "unknown model keys"),
        ],
    )
    def test_unknown_keys_rejected(self, obj, match):
        with pytest.raises(ValueError, match=match):
            from_json(Config, obj, "config")

    @pytest.mark.parametrize(
        "obj",
        [
            {"N": 8.7}, {"N": 8.0}, {"N": True}, {"seed": "7"}, {"M_t": 64.0},
            {"eps_list": [0.1, "0.01"]}, {"eps_list": 0.1}, {"eps_list": [0.1, True]},
            {"output_dir": 3}, {"model": {"eps_H": "0.1"}}, {"model": {"s1": False}},
            {"model": []},
        ],
    )
    def test_mistyped_values_rejected(self, obj):
        with pytest.raises(TypeError):
            from_json(Config, obj, "config")

    def test_eps_list_may_repeat_a_value(self):
        assert Config(eps_list=(0.1, 0.1, 0.5)).eps_list == (0.1, 0.1, 0.5)

    def test_numbers_load_as_floats(self):
        cfg = from_json(Config, {"eps_list": [1, 0.5], "model": {"s1": 4}}, "config")
        assert cfg.eps_list == (1.0, 0.5) and type(cfg.eps_list[0]) is float
        assert type(cfg.model.s1) is float


class TestSuites:
    def test_norms_suite_passes(self, fast_config):
        rep = run_suite(fast_config, "norms", write=False)
        assert rep.passed
        assert all(np.isfinite(r.computed) for r in rep.records)

    def test_report_margins(self, fast_config):
        rep = run_suite(fast_config, "norms", write=False)
        for r in rep.records:
            assert (r.margin >= 0) == r.passed

    def test_unknown_suite_rejected(self, fast_config):
        with pytest.raises(ValueError):
            run_suite(fast_config, "nonsense")

    def test_determinism_byte_identical(self, fast_config):
        a = run_suite(fast_config, "norms", write=False).to_json()
        b = run_suite(fast_config, "norms", write=False).to_json()
        assert a == b

    def test_failure_isolation(self, fast_config, monkeypatch):
        # a broken FFT bridge fails its check, but all records still appear
        ref = run_suite(fast_config, "norms", write=False)
        _break_sampling_roundtrip(monkeypatch)
        rep = run_suite(fast_config, "norms", write=False)
        assert not rep.passed
        assert [r.name for r in rep.records] == [r.name for r in ref.records]
        assert [r.name for r in rep.records if not r.passed] == ["norms.sampling_roundtrip"]

    def test_unwritten_all_report_needs_no_plots_data(self, fast_config, monkeypatch):
        # every op but one exercised by stand-in suites: a run that writes
        # nothing does not need emit_plots_data for complete coverage, one
        # that writes runs it, and any other op left at zero still fails
        def exercise(*skipped):
            def suite(config):
                for op in coverage.registered_ops():
                    if op not in skipped and op != "harness.emit_plots_data":
                        coverage._COUNTS[op] += 1
                return []

            for name in harness.SUITES:
                monkeypatch.setitem(harness._SUITE_FUNCTIONS, name, suite)

        exercise()
        rep = run_suite(fast_config, "all", write=False)
        assert rep.coverage_counts["harness.emit_plots_data"] == 0
        assert rep.coverage_complete and rep.passed
        rep = run_suite(fast_config, "all", write=True)
        assert rep.coverage_counts["harness.emit_plots_data"] == 1
        assert rep.coverage_complete and rep.passed
        exercise("cylinder.p_op")
        for write in (False, True):
            rep = run_suite(fast_config, "all", write=write)
            assert not rep.coverage_complete and not rep.passed

    def test_report_written(self, fast_config):
        rep = run_suite(fast_config, "norms", write=True)
        path = os.path.join(fast_config.output_dir, "report_norms.json")
        assert os.path.exists(path)
        with open(path) as f:
            obj = json.load(f)
        assert obj["suite"] == "norms"
        assert obj["passed"] == rep.passed
        assert "convention" in obj["environment"]
        assert obj["environment"]["grid"]["M_theta"] == theta_points(8)
        for rec in obj["checks"]:
            assert set(rec) >= {"name", "anchor", "computed", "bound", "margin", "passed"}

    def test_energy_norm_equivalence_records(self, fast_config):
        # the equivalence checks run as groups of the flow suite
        rep = run_suite(fast_config, "flow", write=False)
        records = [r for r in rep.records if r.name.startswith("flow.equivalence_")]
        assert [r.name for r in records] == [
            "flow.equivalence_bounds",
            "flow.equivalence_positive_lower_bound",
            "flow.equivalence_resonant_degenerates",
        ]
        assert all(r.passed for r in records)

    def test_q_variation_net_of_truncation_can_fail(self, tmp_path, monkeypatch):
        # dividing out t_N(eps) must not excuse a Q whose norm decays with eps
        cfg = Config(N=8, seed=11, eps_list=(1.0, 0.001), output_dir=str(tmp_path))

        def run_aps():
            rep = run_suite(cfg, "aps", write=False)
            return {r.name: r for r in rep.records}

        assert run_aps()["aps.uniformity_q_variation"].passed

        original = harness.kernel_q_values

        def decaying(plus, minus, lam, times, eps):
            return np.sqrt(eps) * original(plus, minus, lam, times, eps)

        monkeypatch.setattr(harness, "kernel_q_values", decaying)
        records = run_aps()
        assert not records["aps.uniformity_q_variation"].passed
        assert records["aps.uniformity_q_variation"].computed > 10.0
        assert records["aps.uniformity_q_no_growth"].passed

    def test_right_inverse_boundary_reads_p(self, tmp_path, monkeypatch):
        # the prescribed end traces come from P itself: a P whose lambda >= 0
        # rows at t = 0 do not vanish fails aps.right_inverse_boundary
        cfg = Config(N=4, M_t=8, eps_list=(0.1, 0.01), seed=11, output_dir=str(tmp_path))

        def run_aps():
            return {r.name: r for r in run_suite(cfg, "aps", write=False).records}

        assert run_aps()["aps.right_inverse_boundary"].computed == 0.0

        original = harness.kernel_p_values

        def nonzero_start(g_values, lam, h):
            out = original(g_values, lam, h)
            out[0, lam >= 0] += 1.0
            return out

        monkeypatch.setattr(harness, "kernel_p_values", nonzero_start)
        assert not run_aps()["aps.right_inverse_boundary"].passed

    def test_group_error_keeps_later_groups(self, fast_config, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("scan unavailable")

        monkeypatch.setattr(cycles, "scan_alpha", broken)
        records = {r.name: r for r in run_suite(fast_config, "orbits", write=False).records}
        error = records["orbits.alpha_scan.error"]
        assert error.anchor == "sphere minimum scan"
        assert (error.computed, error.bound, error.passed) == (np.inf, 0.0, False)
        assert error.details == {"exception": "RuntimeError: scan unavailable"}
        beta = records["orbits.beta_positive"]
        assert (beta.computed, beta.bound, beta.passed) == (np.inf, 0.0, False)
        assert beta.anchor == "there exist alpha, beta > 0 with CSD >= beta on the alpha-sphere"
        assert beta.details == {"not_run": "alpha_scan raised RuntimeError: scan unavailable"}
        # the groups that take the scan's alpha and beta are not run, instead
        # of running on default values; the later groups still report
        consumers = ["orbits.transversality_full_rank", "orbits.intersection_unique"] + [
            f"orbits.winding{k}_{part}"
            for k in (1, 2) for part in ("radius", "action", "gradient", "above_beta")
        ]
        for name in consumers:
            assert records[name].computed == np.inf and not records[name].passed, name
            assert records[name].details == {"not_run": "no output from alpha_scan"}, name
        for name in ("orbits.sigma_boundary_nonpositive", "orbits.oracle_criticality",
                     "orbits.oracle_action_form", "orbits.oracle_no_root_detected",
                     "orbits.perturbation_action_bounded", "orbits.rho_values",
                     "orbits.sigma_boundary_faces"):
            assert records[name].passed, name
        assert len(records) == 19  # the 18 declared checks and the error record

    def test_failed_picard_fails_its_consumers(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("no solve")

        cfg = Config(N=8, M_t=16, seed=11, output_dir=str(tmp_path))
        monkeypatch.setattr(harness, "picard_solve", broken)
        records = {r.name: r for r in run_suite(cfg, "contraction", write=False).records}
        for name in ("small_data_ratio", "small_data_residual", "vstar_monotone"):
            record = records[f"contraction.{name}"]
            assert record.computed == np.inf and not record.passed, name
            assert "RuntimeError: no solve" in record.details["not_run"], name
        energy = records["contraction.energy_identity"]
        assert (energy.computed, energy.bound, energy.passed) == (np.inf, 1e-5, False)
        assert energy.details == {"not_run": "no output from small_data"}
        assert "contraction.energy_identity.error" not in records

    def test_group_raising_partway_fails_the_rest(self, fast_config, monkeypatch):
        # splitting yields three checks before it needs the Lipschitz bound
        def broken(self):
            raise FloatingPointError("no bound")

        monkeypatch.setattr(hamiltonian.Splitting, "lipschitz_bound", broken)
        rep = run_suite(fast_config, "norms", write=False)
        records = {r.name: r for r in rep.records}
        for name in ("splitting_exact", "splitting_nonresonant_flag", "compact_part_support"):
            assert records[f"norms.{name}"].passed, name
        rest = records["norms.compact_part_l2_continuity"]
        assert (rest.computed, rest.bound, rest.passed) == (np.inf, 0.0, False)
        assert rest.details == {"not_run": "splitting raised FloatingPointError: no bound"}
        error = records["norms.splitting.error"]
        assert error.details == {"exception": "FloatingPointError: no bound"}
        assert [r.name for r in rep.records if not r.passed] == [
            "norms.compact_part_l2_continuity", "norms.splitting.error"
        ]

    def test_undeclared_or_missing_names(self, monkeypatch):
        monkeypatch.setitem(harness.CHECKS, "demo", {
            "stray": [("declared", "anchor", 1.0)],
            "short": [("first", "one", 1.0), ("second", "two", 2.0)],
        })

        def stray():
            """stray names"""
            yield "undeclared", 0.0, {}

        def short():
            """stops early"""
            yield "first", 0.5, {"x": 1}

        records = harness._run_groups("demo", (stray, short))
        undeclared = "ValueError: undeclared check demo.undeclared"
        assert [(r.name, r.computed, r.bound, r.details) for r in records] == [
            ("demo.declared", np.inf, 1.0, {"not_run": f"stray raised {undeclared}"}),
            ("demo.stray.error", np.inf, 0.0, {"exception": undeclared}),
            ("demo.first", 0.5, 1.0, {"x": 1}),
            ("demo.second", np.inf, 2.0, {"not_run": "short did not yield it"}),
        ]


class TestCheckTables:
    def test_declared_names_match_the_golden_report(self):
        golden = Path(__file__).resolve().parent / "golden" / "report_all.json"
        names = {check["name"] for check in json.loads(golden.read_text())["checks"]}
        declared = [
            f"{suite}.{name}"
            for suite, table in harness.CHECKS.items()
            for rows in table.values()
            for name, _, _ in rows
        ]
        assert len(names) == 78 and len(declared) == 78
        assert set(declared) == names
        assert set(harness.CHECKS) == set(harness.SUITES)


class TestPlotsData:
    def test_empty_report_gives_headers(self, tmp_path):
        # no records, or the sweep records recorded as not run
        not_run = [
            CheckRecord(name, "anchor", np.inf, 1.0, {"not_run": "no output from producer"})
            for name in ("aps.uniformity_p_variation", "contraction.vstar_monotone",
                         "contraction.sensitivity_decreasing", "flow.nonlinear_energy_identity")
        ]
        for i, records in enumerate(([], not_run)):
            files = emit_plots_data(records, str(tmp_path / str(i)))
            for path in files:
                lines = open(path).read().strip().splitlines()
                assert len(lines) == 1  # header only
            assert {os.path.basename(p) for p in files} == {
                "aps_sweep.csv",
                "contraction_sweep.csv",
                "flow_curve.csv",
            }

    def test_rerun_identical_files(self, tmp_path, fast_config):
        rep = run_suite(fast_config, "contraction", write=False)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_plots_data(rep.records, str(d1))
        emit_plots_data(rep.records, str(d2))
        for name in ("aps_sweep.csv", "contraction_sweep.csv", "flow_curve.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_contraction_sweep_rows(self, tmp_path, fast_config):
        rep = run_suite(fast_config, "contraction", write=False)
        emit_plots_data(rep.records, str(tmp_path))
        lines = (tmp_path / "contraction_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "eps,v_norm,sensitivity"
        assert len(lines) == 1 + 9  # k = 2..10


class TestCoverageRegistry:
    def test_registry_contains_all_spec_operations(self):
        ops = set(coverage.registered_ops())
        expected = {
            "loopspace.sobolev_norm", "loopspace.project", "loopspace.aps_project",
            "loopspace.sample", "loopspace.synthesize", "loopspace.inner",
            "hamiltonian.eval_H", "hamiltonian.eval_gradH", "hamiltonian.eval_XH",
            "hamiltonian.k_factor", "hamiltonian.action", "hamiltonian.grad_action",
            "hamiltonian.split", "hamiltonian.eval_compact_part",
            "cylinder.apply_D", "cylinder.q_op", "cylinder.p_op",
            "cylinder.aps_boundary", "cylinder.cyl_norm", "cylinder.energy",
            "solver.picard_solve", "solver.collar_solve", "solver.h_eps_sensitivity",
            "solver.flow_step", "solver.flow_trajectory", "solver.gf_pushforward",
            "cycles.sample_gamma", "cycles.sample_sigma", "cycles.estimate_beta",
            "cycles.scan_alpha", "cycles.check_sigma_boundary", "cycles.rho",
            "cycles.perturb", "cycles.radial_orbit_oracle", "cycles.find_critical_point",
            "harness.run_suite", "harness.emit_plots_data",
        }
        assert expected <= ops


class TestCli:
    def _write(self, tmp_path, name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def test_verify_fast_suite(self, tmp_path):
        cfg = self._write(
            tmp_path, "cfg.json", {"N": 8, "seed": 11, "output_dir": str(tmp_path / "o")}
        )
        code = cli_main(["verify", "--config", cfg, "--suite", "norms"])
        assert code == 0
        assert os.path.exists(tmp_path / "o" / "report_norms.json")

    def test_solve_cylinder(self, tmp_path):
        cfg = self._write(
            tmp_path,
            "solve.json",
            {
                "model": {},
                "N": 16,
                "eps": 0.05,
                "beta_modes": [{"n": -1, "re": 0.05}],
                "write_field_csv": True,
            },
        )
        code = cli_main(["solve-cylinder", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        out = json.loads((tmp_path / "o" / "solve_cylinder.json").read_text())
        assert out["residual"] <= 1e-8
        # the solution field is written, the forcing v is not
        assert "v" not in out and (out["u"]["N"], out["u"]["M_t"]) == (16, 64)
        assert (tmp_path / "o" / "solve_cylinder_field.csv").exists()

    def test_flow_trace_csv(self, tmp_path):
        cfg = self._write(
            tmp_path,
            "flow.json",
            {"model": {}, "N": 8, "T": 0.2, "dt": 0.005, "seed_modes": [{"n": 1, "re": 0.1}]},
        )
        code = cli_main(["flow", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        lines = (tmp_path / "o" / "flow_trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t,action,cumulative_energy,norm"
        assert len(lines) == 1 + 41

    def test_find_orbit(self, tmp_path):
        cfg = self._write(
            tmp_path, "orbit.json", {"model": {}, "N": 16, "winding": 1, "alpha": 1.4}
        )
        code = cli_main(["find-orbit", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        out = json.loads((tmp_path / "o" / "orbit.json").read_text())
        assert out["winding"] == 1
        assert out["oracle"]["radius_error"] <= 1e-6
        assert (tmp_path / "o" / "orbit_loop.csv").exists()

    def test_find_orbit_without_oracle(self, tmp_path):
        # the oracle needs the bump variant; other models get no oracle block
        cfg = self._write(
            tmp_path, "orbit.json",
            {"model": {"variant": "pure_quadratic"}, "N": 16, "winding": 1},
        )
        code = cli_main(["find-orbit", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        out = json.loads((tmp_path / "o" / "orbit.json").read_text())
        assert "oracle" not in out
        assert out["winding"] == 0  # the search ends at the trivial orbit
        lines = (tmp_path / "o" / "orbit_loop.csv").read_text().splitlines()
        assert lines[0] == "mode,coord,re,im" and len(lines) == 1 + 33

    def test_scan_alpha(self, tmp_path):
        cfg = self._write(
            tmp_path,
            "scan.json",
            {"model": {}, "N": 8, "samples": 8, "descent_steps": 30,
             "alphas": [0.1, 0.3, 1.0]},
        )
        code = cli_main(["scan-alpha", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        out = json.loads((tmp_path / "o" / "alpha_scan.json").read_text())
        assert out["beta_star"] > 0

    def test_check_cycles(self, tmp_path):
        cfg = self._write(
            tmp_path, "cyc.json", {"model": {}, "N": 8, "samples": 12, "descent_steps": 40}
        )
        code = cli_main(["check-cycles", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        out = json.loads((tmp_path / "o" / "cycles_check.json").read_text())
        assert out["passed"]

    def test_bad_config_exit_2(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert cli_main(["solve-cylinder", "--config", missing]) == 2
        bad = self._write(tmp_path, "bad.json", {"model": {"eps_H": -1}})
        assert cli_main(["solve-cylinder", "--config", bad]) == 2
        # typos are errors, not silent defaults
        model_typo = self._write(
            tmp_path, "model_typo.json", {"model": {"eps_h": 5}, "beta_modes": [{"n": -1, "re": 0.05}]}
        )
        assert cli_main(["solve-cylinder", "--config", model_typo]) == 2
        typos = self._write(
            tmp_path,
            "typos.json",
            {"N": 8, "M_theta": 4096, "tolerence": {"exact": 1e-12}, "eps_lst": [0.1],
             "model": {"eps_h": 5}, "output_dir": str(tmp_path / "o")},
        )
        assert cli_main(["verify", "--config", typos, "--suite", "norms"]) == 2
        assert not (tmp_path / "o").exists()
        # every subcommand rejects a top-level key it does not read
        modes = [{"n": -1, "re": 0.05}]
        for command, obj in (
            ("solve-cylinder", {"N": 8, "epsilon": 0.2, "beta_modes": modes}),
            ("flow", {"N": 8, "T_end": 0.1, "seed_modes": modes}),
            ("find-orbit", {"N": 8, "windng": 1}),
            ("scan-alpha", {"N": 8, "sample": 4}),
            ("check-cycles", {"N": 8, "alphas": [0.5]}),
            # and a mode entry key, and an empty alpha grid
            ("solve-cylinder", {"N": 8, "beta_modes": [{"n": -1, "real": 0.05}]}),
            ("flow", {"N": 8, "seed_modes": [{"n": 1, "re": 0.5, "cord": 0}]}),
            ("scan-alpha", {"N": 8, "samples": 2, "descent_steps": 2, "alphas": []}),
            # values of the wrong type, which used to be truncated or coerced
            ("scan-alpha", {"N": 8.7, "samples": 2, "descent_steps": 2}),
            ("find-orbit", {"N": 8, "winding": 1.5}),
            ("flow", {"N": 8, "seed_modes": [{"n": 1.5, "re": 0.5}]}),
            ("flow", {"N": 8, "T": "0.1", "seed_modes": modes}),
            ("flow", {"N": 8, "T": True, "seed_modes": modes}),
            ("solve-cylinder", {"N": 8, "beta_modes": modes, "write_field_csv": "no"}),
            # and negative counts
            ("scan-alpha", {"N": 8, "samples": -1, "descent_steps": 2}),
            ("check-cycles", {"N": 8, "samples": 2, "descent_steps": -1}),
            ("verify", {"N": 8, "seed": -1}),
            # and negative tolerances and flow times, which used to skip the
            # flow, or run the whole iteration budget and exit 1
            ("find-orbit", {"N": 8, "flow_time": -1}),
            ("find-orbit", {"N": 8, "newton_tol": -1e-10}),
            ("solve-cylinder", {"N": 8, "tol": -1, "beta_modes": modes}),
            # non-finite numbers, which json.load reads from NaN and Infinity
            ("flow", {"model": {"s1": float("inf")}, "N": 8, "seed_modes": [{"n": 1, "re": 0.5}],
                      "T": 0.01}),
            ("find-orbit", {"model": {"eps_H": float("nan")}, "N": 16, "winding": 1}),
            ("solve-cylinder", {"model": {"eps_H": float("inf")}, "N": 8, "beta_modes": modes}),
            ("flow", {"N": 8, "T": 10**400, "seed_modes": modes}),  # no float holds it
        ):
            path = self._write(tmp_path, "cmd.json", dict(obj, output_dir=str(tmp_path / "o")))
            assert cli_main([command, "--config", path]) == 2, (command, obj)
            assert not (tmp_path / "o").exists()
        n_typo = self._write(tmp_path, "n.json", {"N": 8.7, "output_dir": str(tmp_path / "o")})
        assert cli_main(["verify", "--config", n_typo, "--suite", "norms"]) == 2
        assert not (tmp_path / "o").exists()
        zero_dt = self._write(tmp_path, "dt.json", {"N": 8, "dt": 0, "seed_modes": modes})
        assert cli_main(["flow", "--config", zero_dt, "--out", str(tmp_path / "flow")]) == 2

    def test_scan_alpha_without_positive_beta_exit_1(self, tmp_path, capsys):
        # alpha = 0 gives beta = 0, which used to be chosen as alpha*
        cfg = self._write(
            tmp_path, "scan.json",
            {"N": 8, "samples": 4, "descent_steps": 20, "alphas": [0.0, 3.0],
             "output_dir": str(tmp_path / "o")},
        )
        assert cli_main(["scan-alpha", "--config", cfg]) == 1
        assert "no admissible alpha found" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "obj", [{"tolerances": {"exact": 1e-12}}, {"tolerances": {}}, {"M_theta": 128}]
    )
    def test_removed_knobs_exit_2(self, tmp_path, obj, capsys):
        # check bounds live in their checks and the theta grid is theta_points(N)
        cfg = self._write(tmp_path, "cfg.json", dict(obj, N=8, output_dir=str(tmp_path / "o")))
        assert cli_main(["verify", "--config", cfg, "--suite", "norms"]) == 2
        assert f"unknown config keys: {list(obj)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "eps_list",
        [[], [0.5], [0.0, 1], [-0.1, 1], [0.1, 0.1], [float("nan"), 1], [float("inf"), 1],
         [0.1, 0.5, 0.0]],
    )
    def test_bad_eps_list_exit_2(self, tmp_path, eps_list, capsys):
        # json.dumps writes NaN and Infinity, which json.load reads back
        cfg = self._write(
            tmp_path, "cfg.json",
            {"N": 8, "M_t": 16, "eps_list": eps_list, "output_dir": str(tmp_path / "o")},
        )
        assert cli_main(["verify", "--config", cfg, "--suite", "aps"]) == 2
        assert "eps_list" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_shipped_configs_load(self):
        # perfbench runs copies of these files: one that fails to load is a failed operation
        paths = sorted(CONFIG_DIR.glob("*.json"))
        commands = [
            "verify" if p.stem == "verify_defaults" else p.stem.replace("_", "-") for p in paths
        ]
        assert sorted(commands) == sorted(COMMANDS)
        for path, command in zip(paths, commands):
            cls, _ = COMMANDS[command]
            assert isinstance(from_json(cls, json.loads(path.read_text()), "config"), cls)

    def test_flow_bad_dt_creates_no_output_dir(self, tmp_path):
        modes = [{"n": 1, "re": 0.1}]
        for dt in (0, -0.01, 0.5):  # 0.5 exceeds the stability budget 0.1 / N
            cfg = self._write(tmp_path, "dt.json", {"N": 8, "dt": dt, "seed_modes": modes})
            assert cli_main(["flow", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert not (tmp_path / "o").exists()

    def test_flow_blowup_writes_partial_trace(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path, "flow.json", {"N": 8, "T": 5.0, "seed_modes": [{"n": 8, "re": 1.0}]}
        )
        assert cli_main(["flow", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "flow blew up at t = 3.11937" in capsys.readouterr().err
        lines = (tmp_path / "o" / "flow_trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t,action,cumulative_energy,norm"
        assert len(lines) == 1 + 277

    def test_find_orbit_rejects_alpha_with_seed_modes(self, tmp_path):
        seed_modes = [{"n": 1, "re": 0.9}]
        for alpha in (0.2, 1.0):
            cfg = self._write(
                tmp_path, "orbit.json",
                {"N": 16, "winding": 1, "alpha": alpha, "seed_modes": seed_modes},
            )
            assert cli_main(["find-orbit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert not (tmp_path / "o").exists()
        # null means "not given", as for the other optional keys
        cfg = self._write(
            tmp_path, "orbit.json",
            {"N": 16, "winding": 1, "alpha": None, "seed_modes": seed_modes},
        )
        assert cli_main(["find-orbit", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "orbit.json").read_text())["winding"] == 1

    def test_check_cycles_without_positive_beta_exits_1(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path, "cyc.json",
            {"model": {"variant": "pure_quadratic"}, "N": 8, "samples": 4, "descent_steps": 5},
        )
        assert cli_main(["check-cycles", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("no admissible alpha found: ")
        assert "Traceback" not in err and "-inf" not in err
        assert not (tmp_path / "o").exists()

    def test_check_cycles_without_admissible_tau_exit_1(self, tmp_path, capsys):
        # a core this wide keeps the box boundary action positive at every tau tried
        cfg = self._write(
            tmp_path, "cyc.json",
            {"model": {"s0": 1e8, "s1": 2e8}, "N": 8, "samples": 4, "descent_steps": 5},
        )
        assert cli_main(["check-cycles", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("no admissible tau found: ") and err.count("\n") == 1
        assert "tau = 2048," in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_failing_suite_exit_1(self, tmp_path, monkeypatch):
        cfg = self._write(
            tmp_path, "cfg.json", {"N": 8, "seed": 11, "output_dir": str(tmp_path / "o")}
        )
        _break_sampling_roundtrip(monkeypatch)
        assert cli_main(["verify", "--config", cfg, "--suite", "norms"]) == 1
        report = json.loads((tmp_path / "o" / "report_norms.json").read_text())
        assert [c["name"] for c in report["checks"] if not c["passed"]] == [
            "norms.sampling_roundtrip"
        ]
