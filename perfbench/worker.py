"""Run one benchmark workload in a fresh process and print its record as JSON.

    python3 perfbench/worker.py --workload NAME --configs DIR --launched T [--trace] [--setup-only]

Every command goes through ``looplab.cli.main`` against the generated
configs in DIR, each with its own fixed ``--out`` directory under
``.bench_work/out``.  The record holds the wall time of each command, the
setup time (from ``T``, the parent's CLOCK_MONOTONIC reading at launch,
until looplab is imported and the configs are read), peak RSS, the check
verdicts, the sha256 of every output file and, with ``--trace``, the
per-layer numbers of ``tracer.Tracer``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_BASE = ".bench_work/out"  # relative, so reports echo the same --out everywhere

VERIFY_CONFIG = "verify_defaults.json"
CLI_COMMANDS = (
    ("solve-cylinder", "solve_cylinder.json"),
    ("flow", "flow.json"),
    ("find-orbit", "find_orbit.json"),
    ("scan-alpha", "scan_alpha.json"),
    ("check-cycles", "check_cycles.json"),
)
CONFIG_FILES = (VERIFY_CONFIG,) + tuple(cfg for _, cfg in CLI_COMMANDS)

# workload -> [(label, subcommand, config file, extra argv)]
WORKLOADS = {
    # cylinder kernels on arrays of 21-355 MB, past the last-level cache
    "verify_aps": [("aps", "verify", VERIFY_CONFIG, ["--suite", "aps"])],
    # ~100k tiny FFTs, a 50 000-step ETD flow, small Picard solves and
    # projected descents: everything fits in cache, Python overhead dominates
    "verify_dynamics": [
        (suite, "verify", VERIFY_CONFIG, ["--suite", suite])
        for suite in ("norms", "contraction", "flow", "orbits")
    ],
    # the user-facing subcommands on the shipped configs
    "cli_configs": [(cmd, cmd, cfg, []) for cmd, cfg in CLI_COMMANDS],
}

# Checks the lab itself reports as failing at the default truncation, with
# the highest computed value each may reach before it fails the operation.
# They are counted in checks_failed and named with their computed value in
# every result.  Both variations come from deterministic per-mode probes and
# read 4.57284 and 5.68009 at every seed; q_kernel_of_d depends on the seed,
# and its worst value over seeds 0-2999 is 6.5431e-3.  The ceilings round
# these up.  Any other failing check fails the operation.
KNOWN_LAB_FAILURES = {
    "aps.uniformity_q_variation": 4.58,
    "aps.uniformity_restriction_variation": 5.69,
    "aps.q_kernel_of_d": 6.6e-3,
}

SOLVE_RESIDUAL_MAX = 1e-8
ORBIT_ORACLE_ERROR_MAX = 1e-6


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _gate_verify(label, rc, out: Path) -> tuple[int, list[str], dict, list[str]]:
    """(checks run, failing checks, computed values of the known failures,
    problems that fail the operation)."""
    report_path = out / f"report_{label}.json"
    if not report_path.is_file():
        return 0, [], {}, [f"exit {rc}, no report"]
    report = _read_json(report_path)
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    known = {c["name"]: c["computed"] for c in report["checks"] if c["name"] in KNOWN_LAB_FAILURES}
    problems = [f"unexpected failing check {n}" for n in failing if n not in KNOWN_LAB_FAILURES]
    problems += [f"{n} computed {v:.6g} above {KNOWN_LAB_FAILURES[n]:.6g}"
                 for n, v in sorted(known.items()) if not v <= KNOWN_LAB_FAILURES[n]]
    if rc != (0 if report["passed"] else 1):
        problems.append(f"exit {rc} disagrees with report passed={report['passed']}")
    return report["num_checks"], failing, known, problems


def _gate_command(label, rc, out: Path) -> list[str]:
    """Problems with one cli_configs command; empty when it succeeded."""
    if rc != 0:
        return [f"exit {rc}"]
    if label == "solve-cylinder":
        residual = _read_json(out / "solve_cylinder.json")["residual"]
        return [f"residual {residual:.3g}"] if residual > SOLVE_RESIDUAL_MAX else []
    if label == "find-orbit":
        oracle = _read_json(out / "orbit.json").get("oracle")
        if oracle is None:
            return ["no oracle comparison"]
        return [
            f"{key} {oracle[key]:.3g}"
            for key in ("radius_error", "action_error")
            if oracle[key] > ORBIT_ORACLE_ERROR_MAX
        ]
    if label == "scan-alpha":
        beta = _read_json(out / "alpha_scan.json")["beta_star"]
        return [f"beta_star {beta:.6g}"] if beta <= 0 else []
    if label == "check-cycles":
        rec = _read_json(out / "cycles_check.json")
        problems = [f"beta_star {rec['beta_star']:.6g}"] if rec["beta_star"] <= 0 else []
        return problems + ([] if rec["passed"] else ["passed: false"])
    if label == "flow":
        return [] if (out / "flow_trace.csv").is_file() else ["no flow_trace.csv"]
    raise ValueError(f"no gate for {label}")


def _digests(out: Path) -> tuple[dict, int]:
    digests, size = {}, 0
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digests, size


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas,
        "llc_bytes": _llc_bytes(),
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _llc_bytes() -> int | None:
    """Size of the highest cache level of cpu0, from sysfs; None if unreadable."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        best = max(best, (level, size), key=lambda t: t[0])
    return best[1]


def copy_bandwidth(np, llc_bytes: int | None) -> dict:
    """Sustainable copy bandwidth over arrays at least 4x the last-level cache.

    Counts one read and one write of the array per copy; the write-allocate
    read some CPUs add is not counted.
    """
    array_bytes = 4 * llc_bytes if llc_bytes else 512 * 1024**2
    src = np.ones(array_bytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault in the pages before timing
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    return {"copy_gbps": statistics.median(rates), "array_bytes": src.nbytes, "llc_bytes": llc_bytes}


def layer_metrics(tracer) -> dict:
    """The per-layer metrics of one traced run, by name."""
    stats, counters = tracer.stats, tracer.counters
    calls = lambda key: stats[key][0]
    total_s = lambda key: stats[key][1] / 1e9
    self_s = lambda key: stats[key][2] / 1e9
    work = lambda key: stats[key][3]
    m = {}
    for key in ("loops.sample_coeffs", "loops.synthesize_values", "cylinder.kernel_p_values",
                "cylinder.kernel_q_values", "cylinder.dt_derivative"):
        m[f"{key}.calls"], m[f"{key}.self_s"], m[f"{key}.bytes"] = calls(key), self_s(key), work(key)
    m["loops.Loop.constructions"] = counters["loops.Loop.constructions"]
    m["hamiltonian.profile.points"] = work("hamiltonian.profile")
    m["hamiltonian.profile.self_s"] = self_s("hamiltonian.profile")
    for key in ("hamiltonian.eval_gradH", "hamiltonian.action", "hamiltonian.grad_action",
                "cycles.estimate_beta"):
        m[f"{key}.calls"], m[f"{key}.self_s"] = calls(key), self_s(key)
    p_self = self_s("cylinder.kernel_p_values")
    m["cylinder.kernel_p_values.gbps"] = work("cylinder.kernel_p_values") / p_self / 1e9 if p_self else 0.0
    m["cylinder.p_op.calls"] = calls("cylinder.p_op")
    for key in ("cylinder.energy", "cylinder.cyl_norm", "solver.flow_trajectory",
                "solver.picard_solve", "cycles.find_critical_point", "cycles.derive_tau",
                "harness.emit_plots_data"):
        m[f"{key}.self_s"] = self_s(key)
    steps = counters["solver.flow.steps"]
    flow_s = total_s("solver.flow_trajectory") + total_s("solver.flow_step")
    m["solver.flow.steps"] = steps
    m["solver.flow.step_us"] = flow_s / steps * 1e6 if steps else 0.0
    m["solver.flow.blowups"] = counters["solver.flow.blowups"]
    iterations = counters["solver.picard.iterations"]
    m["solver.picard.iterations"] = iterations
    m["solver.picard.iter_ms"] = total_s("solver.picard_solve") / iterations * 1e3 if iterations else 0.0
    for key in ("cycles.descent.action_evals", "cycles.descent.grad_evals", "cycles.newton.iterations"):
        m[key] = counters[key]
    for suite in ("norms", "aps", "contraction", "flow", "orbits"):
        m[f"harness.suite.{suite}_s"] = total_s(f"harness.suite.{suite}")
    for label, *_ in WORKLOADS["cli_configs"]:
        m[f"cli.cmd.{label}_s"] = total_s(f"cli.cmd.{label}")
    m["cli.cmd.verify_s"] = total_s("cli.cmd.verify")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s[2] for k, s in stats.items() if k.startswith(layer + ".")) / 1e9
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--configs", required=True)
    ap.add_argument("--launched", required=True, type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import looplab.cli as cli
    from looplab import coverage

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"looplab imported from {cli.__file__}, not from {ROOT / 'src'}")
    commands = WORKLOADS[args.workload]
    cfg_dir = Path(args.configs)
    for cfg in sorted({c for _, _, c, _ in commands}):
        _read_json(cfg_dir / cfg)
    ready = time.monotonic()
    record = {"setup_s": ready - args.launched}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    cmd_s, digests, problems = {}, {}, {}
    checks_total, failing_checks, known_values, output_bytes = 0, [], {}, 0
    coverage_sum: dict[str, int] = {}
    for label, sub, cfg, extra in commands:
        out = Path(OUT_BASE) / args.workload / label
        shutil.rmtree(out, ignore_errors=True)
        cmd_argv = [sub, "--config", str(cfg_dir / cfg), "--out", out.as_posix()] + extra
        entry = tracer.command(sub, cli.main) if tracer else cli.main
        coverage.reset()
        log = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = entry(cmd_argv)
        except Exception as exc:  # one command's crash is one failed operation
            rc = f"{type(exc).__name__}: {exc}"
        cmd_s[label] = time.perf_counter() - t0
        for op, n in coverage.counts().items():
            coverage_sum[op] = coverage_sum.get(op, 0) + n

        if sub == "verify":
            n_checks, failing, known, faults = _gate_verify(label, rc, out)
            checks_total += n_checks
            failing_checks += failing
            known_values.update(known)
        else:
            faults = _gate_command(label, rc, out) if isinstance(rc, int) else [str(rc)]
            checks_total += 1
            failing_checks += [f"{label}: {'; '.join(faults)}"] if faults else []
        if faults:
            problems[label] = faults + log.getvalue().splitlines()[-3:]
        files, size = _digests(out)
        output_bytes += size
        digests.update({f"{label}/{name}": h for name, h in files.items()})

    record.update(
        wall_s=sum(cmd_s.values()),
        cmd_s=cmd_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        commands=len(commands),
        problems=problems,
        checks_total=checks_total,
        checks_failed=len(failing_checks),
        failing_checks=failing_checks,
        known_values=known_values,
        digests=digests,
        output_bytes=output_bytes,
        environment=_environment(np),
    )
    if tracer is not None:
        metrics = layer_metrics(tracer)
        metrics["cli.output_bytes"] = output_bytes
        traced = {op: tracer.stats[key][0] for op, key in tracer.tracked_keys.items()}
        record["coverage_mismatch"] = {
            op: {"traced": traced.get(op, 0), "coverage": n}
            for op, n in coverage_sum.items()
            if traced.get(op, 0) != n
        }
        record["tracked_ops"] = len(traced)
        bandwidth = copy_bandwidth(np, record["environment"]["llc_bytes"])
        metrics["machine.copy_gbps"] = bandwidth["copy_gbps"]
        record["bandwidth"] = bandwidth
        record["layers"] = metrics
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
