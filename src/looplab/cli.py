"""Command line entry point: `lab <subcommand> --config path.json [--out dir]`.

Subcommands: verify, solve-cylinder, flow, find-orbit, scan-alpha,
check-cycles.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .cylinder import decompose
from .harness import Config, run_suite
from .hamiltonian import HamiltonianModel, action
from .loops import Loop, sobolev_norm
from .solver import Blowup, SolverError, flow_trajectory, picard_solve
from . import cycles as cyc


class ConfigError(Exception):
    pass


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _command_config(path, keys: str) -> dict:
    """Read a subcommand config whose top-level keys are among `keys` (space
    separated), `model` and `output_dir`; any other key is a ConfigError."""
    obj = _load_config_file(path)
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = set(obj) - set(keys.split()) - {"model", "output_dir"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return obj


def _model_from(obj: dict) -> HamiltonianModel:
    try:
        return HamiltonianModel.from_json_dict(obj.get("model", {}))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad model parameters: {exc}") from exc


def _loop_from_modes_spec(spec, d: int, N: int) -> Loop:
    """Build a loop from [{'n':, 'coord':, 're':, 'im':}, ...]."""
    coeffs = np.zeros((2 * N + 1, d), complex)
    for entry in spec:
        unknown = set(entry) - {"n", "coord", "re", "im"}
        if unknown:
            raise ConfigError(f"unknown mode entry keys {sorted(unknown)} in {entry}")
        n = int(entry["n"])
        coord = int(entry.get("coord", 0))
        if abs(n) > N or not (0 <= coord < d):
            raise ConfigError(f"mode entry out of range: {entry}")
        coeffs[N + n, coord] = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
    return Loop(d, N, coeffs)


def _write_json(path, obj) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)


def _loop_to_csv(loop: Loop, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["mode", "coord", "re", "im"])
        for idx, n in enumerate(loop.modes):
            for c in range(loop.d):
                z = loop.coeffs[idx, c]
                w.writerow([int(n), c, f"{z.real:.17g}", f"{z.imag:.17g}"])


def _cmd_verify(args) -> int:
    cfg = Config.from_json_file(args.config) if args.config else Config()
    if args.out:
        cfg.output_dir = args.out
    report = run_suite(cfg, args.suite)
    for line in report.summary_lines():
        print(line)
    print(f"report: {os.path.join(cfg.output_dir, f'report_{args.suite}.json')}")
    return report.exit_code


def _cmd_solve_cylinder(args) -> int:
    obj = _command_config(args.config, "d N eps tol M_t beta_modes write_field_csv")
    m = _model_from(obj)
    d = int(obj.get("d", 1))
    N = int(obj.get("N", 32))
    eps = float(obj.get("eps", 0.05))
    tol = float(obj.get("tol", 1e-11))
    M_t = int(obj.get("M_t", 64))
    if "beta_modes" not in obj:
        raise ConfigError("solve-cylinder config needs 'beta_modes'")
    b = _loop_from_modes_spec(obj["beta_modes"], d, N)
    out_dir = args.out or obj.get("output_dir", "lab_out")
    try:
        res = picard_solve(m, decompose(b), None, eps, tol=tol, M_t=M_t)
    except SolverError as exc:
        print(f"solve failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _write_json(os.path.join(out_dir, "solve_cylinder.json"), res.to_json_dict())
    if obj.get("write_field_csv", False):
        res.u.to_csv(os.path.join(out_dir, "solve_cylinder_field.csv"))
    print(
        f"solved: iterations={res.iterations} ratio={res.contraction_ratio:.3g} "
        f"residual={res.residual:.3g} energy={res.energy:.6g}"
    )
    return 0


def _cmd_flow(args) -> int:
    obj = _command_config(args.config, "d N T dt seed_modes")
    m = _model_from(obj)
    d = int(obj.get("d", 1))
    N = int(obj.get("N", 32))
    T = float(obj.get("T", 0.5))
    dt = float(obj.get("dt", 0.09 / N))
    if "seed_modes" not in obj:
        raise ConfigError("flow config needs 'seed_modes'")
    seed = _loop_from_modes_spec(obj["seed_modes"], d, N)
    out_dir = args.out or obj.get("output_dir", "lab_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        trace = flow_trajectory(m, seed, T, dt)
    except Blowup as exc:
        print(f"flow blew up at t = {exc.time:.6g}", file=sys.stderr)
        if exc.trace is not None:
            exc.trace.to_csv(os.path.join(out_dir, "flow_trace.csv"))
        return 1
    trace.to_csv(os.path.join(out_dir, "flow_trace.csv"))
    print(
        f"flow complete: action {trace.actions[0]:.6g} -> {trace.actions[-1]:.6g}, "
        f"energy {trace.cumulative_energy[-1]:.6g}"
    )
    return 0


def _cmd_find_orbit(args) -> int:
    obj = _command_config(args.config, "N winding flow_time newton_tol seed_modes alpha")
    m = _model_from(obj)
    N = int(obj.get("N", 32))
    winding = int(obj.get("winding", 1))
    flow_time = float(obj.get("flow_time", 1.0))
    newton_tol = float(obj.get("newton_tol", 1e-10))
    out_dir = args.out or obj.get("output_dir", "lab_out")
    if "seed_modes" in obj:
        seed = _loop_from_modes_spec(obj["seed_modes"], 1, N)
    else:
        alpha = float(obj.get("alpha", 1.0))
        mode_norm = sobolev_norm(Loop.from_modes(1, N, {winding: 1.0}), 0.5)
        seed = Loop.from_modes(1, N, {winding: alpha / mode_norm})
    try:
        found = cyc.find_critical_point(m, seed, flow_time=flow_time, newton_tol=newton_tol)
        oracle = cyc.radial_orbit_oracle(m, winding) if 0 < winding < 2 * m.slope else None
    except (cyc.NewtonDivergence, cyc.FlowBlowup) as exc:
        print(f"orbit search failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    out = found.to_json_dict()
    if oracle is not None:
        out["oracle"] = {
            "radius": oracle.radius,
            "action": oracle.action,
            "radius_error": abs(found.radius - oracle.radius),
            "action_error": abs(found.action - oracle.action),
        }
    _write_json(os.path.join(out_dir, "orbit.json"), out)
    _loop_to_csv(found.loop, os.path.join(out_dir, "orbit_loop.csv"))
    print(
        f"orbit: winding={found.winding} radius={found.radius:.8g} "
        f"action={found.action:.8g} gradient_norm={found.gradient_norm:.3g}"
    )
    return 0


def _cmd_scan_alpha(args) -> int:
    obj = _command_config(args.config, "N seed samples descent_steps alphas")
    m = _model_from(obj)
    N = int(obj.get("N", 32))
    seed = int(obj.get("seed", 2026))
    samples = int(obj.get("samples", 48))
    steps = int(obj.get("descent_steps", 120))
    alphas = None
    if "alphas" in obj:
        if not (isinstance(obj["alphas"], list) and obj["alphas"]):
            raise ConfigError(f"'alphas' must be a nonempty list, got {obj['alphas']!r}")
        alphas = np.asarray(obj["alphas"], float)
    out_dir = args.out or obj.get("output_dir", "lab_out")
    try:
        alpha_star, beta_star, table = cyc.scan_alpha(
            m, alphas=alphas, samples=samples, descent_steps=steps, seed=seed, N=N
        )
    except cyc.NegativeBeta as exc:
        print(f"no admissible alpha found: {exc}", file=sys.stderr)
        return 1
    _write_json(
        os.path.join(out_dir, "alpha_scan.json"),
        {"alpha_star": alpha_star, "beta_star": beta_star, "table": table},
    )
    with open(os.path.join(out_dir, "alpha_scan.csv"), "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["alpha", "beta", "positive"])
        for row in table:
            w.writerow([f"{row['alpha']:.12g}", f"{row['beta']:.12g}", int(row["positive"])])
    print(f"alpha* = {alpha_star:.6g}, beta* = {beta_star:.6g}")
    return 0


def _cmd_check_cycles(args) -> int:
    obj = _command_config(args.config, "N seed samples descent_steps")
    m = _model_from(obj)
    N = int(obj.get("N", 32))
    seed = int(obj.get("seed", 2026))
    out_dir = args.out or obj.get("output_dir", "lab_out")
    alpha_star, beta_star, table = cyc.scan_alpha(
        m, samples=int(obj.get("samples", 48)), descent_steps=int(obj.get("descent_steps", 120)),
        seed=seed, N=N,
    )
    tau_star = cyc.derive_tau(m, samples=240, seed=seed + 1, N=N)
    boundary_max = cyc.check_sigma_boundary(m, tau_star, samples=240, seed=seed + 1, N=N)
    tv = cyc.transversality_check(alpha_star, max(tau_star, alpha_star), N=N)
    ok = beta_star > 0 and boundary_max <= 0 and tv["sigma_min"] > 0 and tv["intersection_dim"] == 1
    _write_json(
        os.path.join(out_dir, "cycles_check.json"),
        {
            "alpha_star": alpha_star,
            "beta_star": beta_star,
            "tau_star": tau_star,
            "sigma_boundary_max": boundary_max,
            "transversality_sigma_min": tv["sigma_min"],
            "intersection_dim": tv["intersection_dim"],
            "passed": bool(ok),
        },
    )
    print(
        f"cycles: beta* = {beta_star:.6g} (alpha* = {alpha_star:.6g}), "
        f"boundary max = {boundary_max:.6g} at tau* = {tau_star}, "
        f"sigma_min = {tv['sigma_min']:.3g} -> {'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Loop-space laboratory: verification suites, cylinder solves, "
        "gradient flow and periodic-orbit search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite and write a report")
    p.add_argument("--config", default=None, help="harness config JSON (defaults used if omitted)")
    p.add_argument("--suite", default="all", help="norms|aps|contraction|flow|orbits|all")
    p.add_argument("--out", default=None, help="output directory override")
    p.set_defaults(fn=_cmd_verify)

    for name, fn, needs_config in (
        ("solve-cylinder", _cmd_solve_cylinder, True),
        ("flow", _cmd_flow, True),
        ("find-orbit", _cmd_find_orbit, True),
        ("scan-alpha", _cmd_scan_alpha, True),
        ("check-cycles", _cmd_check_cycles, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
