"""looplab benchmark: `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`

Run from the root of a looplab checkout.  The workloads (see worker.py)
drive ``looplab.cli.main`` against copies of ``configs/`` whose ``seed``
field is replaced by ``--seed``; each workload iteration runs in its own
process with BLAS/OpenMP threads pinned to the usable core count.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off: it launches the workload until ``--seconds`` have passed (at least
once) and, for setup_s, several setup-only processes, and reports medians.
With ``--trace 1`` it makes one traced iteration and reports the per-layer
metrics, the tracing overhead against an untraced iteration, and the
machine's copy bandwidth.

Every output file is hashed; a digest that differs from an earlier
iteration, or from an earlier run of the same code (a sha256 over
``src/looplab``, ``perfbench`` and the generated configs) with the same
workload and seed in this checkout (state in ``.bench_work/state.json``),
is a failed operation.
The last line of stdout is the JSON result; the lines before it print each
metric with its unit and sample count, the check verdicts and the digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_MOVES
from worker import CONFIG_FILES, KNOWN_LAB_FAILURES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_LAUNCHES = 9
DEADLINE_S = 165.0  # the whole run must end within 180 s


def _units(section: str) -> dict:
    """Metric name -> unit, from a metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class BenchError(Exception):
    pass


def _generate_configs(seed: int) -> Path:
    """Copies of the shipped configs with their seed field replaced."""
    src_dir, out_dir = ROOT / "configs", WORK / "configs"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in CONFIG_FILES:
        with open(src_dir / name, encoding="utf-8") as f:
            obj = json.load(f)
        if "seed" in obj:
            obj["seed"] = seed
        with open(out_dir / name, "w", encoding="utf-8") as f:
            json.dump(obj, f, indent=2)
    return out_dir.relative_to(ROOT)


def _code_fingerprint(configs: Path) -> str:
    """sha256 over the looplab sources, the benchmark's code and the generated configs."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "looplab").rglob("*.py")) + sorted(
        Path(__file__).resolve().parent.glob("*.py")) + sorted((ROOT / configs).glob("*.json"))
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Launcher:
    def __init__(self, workload: str, configs: Path, deadline: float):
        self.workload, self.configs, self.deadline = workload, configs, deadline
        self.env = _child_env()

    def run(self, *flags: str) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time budget spent")
        launched = time.monotonic()
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--configs", str(self.configs), "--launched", repr(launched), *flags]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"worker exceeded the time budget: {' '.join(cmd)}") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["elapsed_s"] = time.monotonic() - launched
        return record


def _summary(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"median={med:.6g} n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)}"


def _load_state() -> dict:
    try:
        with open(WORK / "state.json", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}


def _save_state(state: dict) -> None:
    tmp = WORK / "state.json.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(tmp, WORK / "state.json")


def _check_repeats(records: list[dict], state: dict, key: str) -> int:
    """Failed operations from digests that differ from the first repeat.

    ``key`` names the workload, seed and code fingerprint, so only runs of
    the same code are compared across runs.
    """
    first = state.setdefault("digests", {}).setdefault(key, records[0]["digests"])
    failed = 0
    for rec in records:
        if rec["digests"] != first:
            changed = sorted(k for k in set(first) | set(rec["digests"])
                             if first.get(k) != rec["digests"].get(k))
            print(f"determinism: digests differ from the first repeat: {changed}")
            failed += 1
    return failed


def _print_verdicts(rec: dict) -> None:
    print(f"checks: checks_failed={rec['checks_failed']} checks_total={rec['checks_total']}")
    for name, value in sorted(rec["known_values"].items()):
        verdict = "FAIL" if name in rec["failing_checks"] else "pass"
        print(f"checks: {verdict} {name} computed={value:.6g} (known lab failure; a failed "
              f"operation only above {KNOWN_LAB_FAILURES[name]:.6g})")
    for name in sorted(n for n in rec["failing_checks"] if n not in KNOWN_LAB_FAILURES):
        print(f"checks: FAIL {name}")
    for label, faults in rec["problems"].items():
        print(f"problem: {label}: {' | '.join(faults)}")


def measure(launcher: Launcher, seconds: int) -> tuple[dict, list[dict]]:
    setups = [launcher.run("--setup-only")["setup_s"] for _ in range(SETUP_LAUNCHES)]
    records: list[dict] = []
    start = time.monotonic()
    while not records or time.monotonic() - start < seconds:
        if records and time.monotonic() + 1.5 * records[-1]["elapsed_s"] > launcher.deadline:
            break
        records.append(launcher.run())
    setups += [r["setup_s"] for r in records]
    series = {
        "wall_s": [r["wall_s"] for r in records],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    if launcher.workload == "verify_dynamics":
        for suite in ("flow", "orbits"):
            series[f"suite.{suite}_s"] = [r["cmd_s"][suite] for r in records]
    units = _units("end_to_end")
    for name, values in series.items():
        print(f"metric {name} [{units.get(name, 's')}] {_summary(values)}")
    for label in records[0]["cmd_s"]:
        print(f"command {label} [s] {_summary([r['cmd_s'][label] for r in records])}")
    metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
               for name, unit in units.items()}
    return metrics, records


def trace(launcher: Launcher) -> tuple[dict, list[dict]]:
    traced = launcher.run("--trace")
    untraced = launcher.run()  # raises BenchError if it does not fit in the time budget
    records = [traced, untraced]
    layers = dict(traced["layers"])
    layers["tracing.wall_s"] = traced["wall_s"]
    layers["tracing.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    units = _units("per_layer")
    if set(layers) != set(units):
        raise BenchError(f"per-layer metrics differ from BENCHMARK.json: "
                         f"{sorted(set(layers) ^ set(units))}")
    bw = traced["bandwidth"]
    print(f"machine: copy bandwidth {bw['copy_gbps']:.3f} GB/s over arrays of "
          f"{bw['array_bytes']} bytes (last-level cache {bw['llc_bytes']} bytes)")
    print("cylinder.kernel_p_values.gbps is computed bytes (input + output array sizes) "
          "over self time, not measured traffic")
    print(f"coverage: {traced['tracked_ops']} tracked operations cross-checked, "
          f"{len(traced['coverage_mismatch'])} mismatches")
    for op, counts in sorted(traced["coverage_mismatch"].items()):
        print(f"coverage: MISMATCH {op}: traced {counts['traced']} != coverage {counts['coverage']}")
    metrics = {}
    for name, value in layers.items():
        unit = units[name]
        metrics[name] = {"value": value, "unit": unit}
        moves = LAYER_MOVES.get(name.split(".", 1)[0])
        print(f"layer {name} [{unit}] {value:.6g}" + (f"  (moves {moves})" if moves else ""))
    return metrics, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ["src/looplab/cli.py"] + [f"configs/{c}" for c in CONFIG_FILES]
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a looplab checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    seed = args.seed % 2**32  # the lab's samplers need a nonnegative seed
    configs = _generate_configs(seed)
    fingerprint = _code_fingerprint(configs)
    launcher = Launcher(args.workload, configs, deadline)
    try:
        metrics, records = trace(launcher) if args.trace else measure(launcher, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    env = records[0]["environment"]
    print(f"environment: nproc={env['nproc']} numpy={env['numpy']} blas={env['blas']} "
          f"llc_bytes={env['llc_bytes']} threads={env['threads']}")
    print(f"workload {args.workload} seed {seed}: {len(records)} iteration(s), "
          f"code fingerprint {fingerprint}")
    _print_verdicts(records[0])
    for name, digest in sorted(records[0]["digests"].items()):
        print(f"digest {name} sha256={digest}")

    state = _load_state()
    failed = _check_repeats(records, state, f"{args.workload}/{seed}/{fingerprint}")
    failed += sum(len(r["problems"]) for r in records)
    correct = failed == 0 and not any(r.get("coverage_mismatch") for r in records)
    _save_state(state)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["commands"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
