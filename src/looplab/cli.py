"""Command line entry point: `lab <subcommand> --config path.json [--out dir]`.

Subcommands: verify, solve-cylinder, flow, find-orbit, scan-alpha,
check-cycles.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage or
configuration error.  The config schemas and file writers are in `files`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .cylinder import decompose
from .files import (
    CheckCycles,
    Config,
    FindOrbit,
    Flow,
    ModeEntry,
    ScanAlpha,
    SolveCylinder,
    flow_table,
    from_json,
    mode_table,
    write_csv,
    write_json,
)
from .harness import run_suite
from .loops import Loop
from .solver import Blowup, SolverError, flow_trajectory, picard_solve
from . import cycles as cyc


def _loop_from_modes_spec(spec: list[ModeEntry], d: int, N: int) -> Loop:
    """The loop of a config's mode entries; Loop.from_modes checks each n."""
    modes: dict[int, np.ndarray] = {}
    given = set()
    for entry in spec:
        if not 0 <= entry.coord < d:
            raise ValueError(f"mode entry coord outside [0, {d}): {entry}")
        if (entry.n, entry.coord) in given:
            raise ValueError(f"mode entry repeats its n and coord: {entry}")
        given.add((entry.n, entry.coord))
        modes.setdefault(entry.n, np.zeros(d, complex))[entry.coord] = complex(entry.re, entry.im)
    return Loop.from_modes(d, N, modes)


# Each handler takes its subcommand's config, the output directory (`--out`,
# else the config's `output_dir`) and the parsed arguments, and returns the
# exit code.


def _cmd_verify(cfg: Config, out_dir: str, args) -> int:
    cfg.output_dir = out_dir
    report = run_suite(cfg, args.suite)
    for line in report.summary_lines():
        print(line)
    print(f"report: {os.path.join(out_dir, f'report_{args.suite}.json')}")
    return report.exit_code


def _cmd_solve_cylinder(cfg: SolveCylinder, out_dir: str, args) -> int:
    b = _loop_from_modes_spec(cfg.beta_modes, cfg.d, cfg.N)
    try:
        res = picard_solve(cfg.model, decompose(b), cfg.eps, tol=cfg.tol, M_t=cfg.M_t)
    except SolverError as exc:
        print(f"solve failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    # the forcing v is left out: u carries the solution
    write_json(
        os.path.join(out_dir, "solve_cylinder.json"),
        {key: value for key, value in vars(res).items() if key != "v"},
    )
    if cfg.write_field_csv:
        u = res.u
        write_csv(
            os.path.join(out_dir, "solve_cylinder_field.csv"),
            *mode_table(u.values, u.times, coord=u.d > 1),
        )
    print(
        f"solved: iterations={res.iterations} ratio={res.contraction_ratio:.3g} "
        f"residual={res.residual:.3g} energy={res.energy:.6g}"
    )
    return 0


def _cmd_flow(cfg: Flow, out_dir: str, args) -> int:
    seed = _loop_from_modes_spec(cfg.seed_modes, cfg.d, cfg.N)
    try:
        trace = flow_trajectory(cfg.model, seed, cfg.T, cfg.dt)
    except Blowup as exc:  # its partial trace is written all the same
        trace = exc.trace
    write_csv(
        os.path.join(out_dir, "flow_trace.csv"),
        *flow_table(trace.times, trace.actions, trace.cumulative_energy, trace.norms),
    )
    if trace.blowup_time is not None:
        print(f"flow blew up at t = {trace.blowup_time:.6g}", file=sys.stderr)
        return 1
    print(
        f"flow complete: action {trace.actions[0]:.6g} -> {trace.actions[-1]:.6g}, "
        f"energy {trace.cumulative_energy[-1]:.6g}"
    )
    return 0


def _cmd_find_orbit(cfg: FindOrbit, out_dir: str, args) -> int:
    m, N, winding = cfg.model, cfg.N, cfg.winding
    if cfg.seed_modes is not None:
        if cfg.alpha is not None:
            raise ValueError("alpha scales the default seed; give seed_modes or alpha, not both")
        seed = _loop_from_modes_spec(cfg.seed_modes, 1, N)
    else:
        seed = cyc.winding_seed(1.0 if cfg.alpha is None else cfg.alpha, winding, N)
    try:
        found = cyc.find_critical_point(m, seed, flow_time=cfg.flow_time, newton_tol=cfg.newton_tol)
        has_oracle = m.variant == "bump" and 0 < winding < 2 * m.slope
        oracle = cyc.radial_orbit_oracle(m, winding) if has_oracle else None
    except (cyc.NewtonDivergence, cyc.FlowBlowup) as exc:
        print(f"orbit search failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    out = dict(vars(found))
    if oracle is not None:
        out["oracle"] = {
            "radius": oracle.radius,
            "action": oracle.action,
            "radius_error": abs(found.radius - oracle.radius),
            "action_error": abs(found.action - oracle.action),
        }
    write_json(os.path.join(out_dir, "orbit.json"), out)
    write_csv(os.path.join(out_dir, "orbit_loop.csv"), *mode_table(found.loop.coeffs))
    print(
        f"orbit: winding={found.winding} radius={found.radius:.8g} "
        f"action={found.action:.8g} gradient_norm={found.gradient_norm:.3g}"
    )
    check = out.get("oracle")
    if check and max(check["radius_error"], check["action_error"]) > cyc.ORACLE_ERROR_MAX:
        # orbit.json and orbit_loop.csv are written all the same
        print(
            f"orbit misses the oracle by more than {cyc.ORACLE_ERROR_MAX:g}: radius_error "
            f"{check['radius_error']:.3g}, action_error {check['action_error']:.3g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_scan_alpha(cfg: ScanAlpha, out_dir: str, args) -> int:
    alpha_star, beta_star, table = cyc.scan_alpha(
        cfg.model, alphas=cfg.alphas, samples=cfg.samples,
        descent_steps=cfg.descent_steps, seed=cfg.seed, N=cfg.N,
    )
    write_json(
        os.path.join(out_dir, "alpha_scan.json"),
        {"alpha_star": alpha_star, "beta_star": beta_star, "table": table},
    )
    write_csv(
        os.path.join(out_dir, "alpha_scan.csv"),
        ["alpha", "beta", "positive"],
        ([f"{row['alpha']:.12g}", f"{row['beta']:.12g}", int(row["positive"])] for row in table),
    )
    print(f"alpha* = {alpha_star:.6g}, beta* = {beta_star:.6g}")
    return 0


def _cmd_check_cycles(cfg: CheckCycles, out_dir: str, args) -> int:
    m, N, seed = cfg.model, cfg.N, cfg.seed
    alpha_star, beta_star, _ = cyc.scan_alpha(
        m, samples=cfg.samples, descent_steps=cfg.descent_steps, seed=seed, N=N
    )
    tau_star, boundary_max = cyc.derive_tau(m, seed=seed + 1, N=N)
    tv = cyc.transversality_check(alpha_star, max(tau_star, alpha_star), N=N)
    ok = beta_star > 0 and boundary_max <= 0 and tv["sigma_min"] > 0 and tv["intersection_dim"] == 1
    write_json(
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


COMMANDS = {
    "verify": (Config, _cmd_verify),
    "solve-cylinder": (SolveCylinder, _cmd_solve_cylinder),
    "flow": (Flow, _cmd_flow),
    "find-orbit": (FindOrbit, _cmd_find_orbit),
    "scan-alpha": (ScanAlpha, _cmd_scan_alpha),
    "check-cycles": (CheckCycles, _cmd_check_cycles),
}


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
    for name in COMMANDS:
        if name != "verify":
            p = sub.add_parser(name)
            p.add_argument("--config", required=True)
            p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cls, fn = COMMANDS[args.command]
    try:
        if args.config is None:  # verify runs at the defaults without a config
            cfg = cls()
        else:
            with open(args.config, "r", encoding="utf-8") as f:
                cfg = from_json(cls, json.load(f), "config")
        return fn(cfg, args.out or cfg.output_dir, args)
    except cyc.NegativeBeta as exc:  # scan-alpha and check-cycles
        print(f"no admissible alpha found: {exc}", file=sys.stderr)
        return 1
    except cyc.NoAdmissibleTau as exc:  # check-cycles
        print(f"no admissible tau found: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
