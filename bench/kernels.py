"""Time the aps basis sweep, the aps checks, the nonlinearity layer and the
beta descent.

    python bench/kernels.py --label after --out BENCH.json [--src DIR] [--repeats 5]

DIR is the root of the looplab checkout to measure (default: the one holding
this file), so that two checkouts can be timed with the same script.  Every
timing is taken with time.perf_counter over --repeats runs after one warm-up
call and reported as the median and the interquartile range (IQR), with the
samples.  Four groups are timed:

* kernels: kernel_p_values over the basis 1, tau, tau^2 that the aps Gram
  forms sweep, a broadcast (nodes, modes, 3) view on the aps.right_inverse
  grid at eps = 1 (BASIS_SHAPE), the largest sweep of the aps suite; and
  the L^4 norms of one aps.end_vanishing chunk, 250 fields on the windowed
  basis tau (1, tau, tau^2) with (65, 250) coefficient blocks at N = 32
  (L4_CHUNK).  A checkout without cylinder.l4_shared_basis times that chunk
  through l4_combination on the (nodes, 1, 3) basis it used before;
* guards: each check group of `run_suite(Config(seed=2026), "aps")`, run
  on its own through `harness._run_groups` and keyed `aps.<group>`;
* nonlinearity: seconds per call of one grad H evaluation on the theta grid
  (sample, grad H, synthesize) at N = 8, 32 and 128, of one flow_trajectory
  step at N = 8 (configs/flow.json), at N = 32 (find-orbit's T = 1,
  dt = 0.09/32) and at N = 128, and of one Newton Jacobian
  (cycles._newton_matrix) at N = 32.  Each sample is a batch of calls
  divided by its size;
* descent: the projected descent of the beta estimate at N = 32, seed 2026:
  one first descent step (cycles._descent_step) of the block of all 49
  starts at alpha = 1.43, each sample a batch of 20 calls on fresh copies of
  the block, one whole estimate_beta at that alpha and one scan_alpha over
  the default grid.

Whole `lab` runs, with their wall time and peak RSS, are measured by
perfbench/run.py.

The result is stored under --label in the --out JSON file, beside the labels
already there, with the core count, numpy version and CPU model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# (nodes, modes, 3): P's basis sweep on the aps.right_inverse grid at eps = 1
BASIS_SHAPE = (12001, 65, 3)
# (modes, batch) coefficient blocks of one aps.end_vanishing chunk at the
# default N = 32 and M_t = 64
L4_CHUNK = (65, 250)


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "samples": samples}


def timed(fn, repeats: int, calls: int = 1) -> dict:
    """Seconds per call of fn, each sample a batch of `calls` calls."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return summary(samples)


def time_kernels(repeats: int) -> dict:
    import numpy as np

    from looplab import cylinder
    from looplab.loops import lambda_of_modes

    nodes, modes, _ = BASIS_SHAPE
    lam = lambda_of_modes((modes - 1) // 2).astype(float)
    shape = "x".join(map(str, BASIS_SHAPE))
    sweep = timed(lambda: cylinder.basis_p_values(lam, 1.0 / (nodes - 1), nodes - 1), repeats)

    modes, batch = L4_CHUNK
    N, M_t = (modes - 1) // 2, 64
    rng = np.random.default_rng(2026)
    coeffs = [rng.standard_normal(L4_CHUNK) + 1j * rng.standard_normal(L4_CHUNK) for _ in range(3)]
    tau = np.linspace(0.0, 1.0, M_t + 1)
    basis = tau[:, None] * cylinder.tau_powers(M_t)
    if hasattr(cylinder, "l4_shared_basis"):
        def chunk():
            return cylinder.l4_shared_basis(basis, coeffs, 0.5 / M_t, N)
    else:
        def chunk():
            return cylinder.l4_combination(basis[:, None], coeffs, 0.5 / M_t, N)
    return {
        f"kernel_p_values[{shape} basis]": sweep,
        f"end_vanishing_l4_chunk[{modes}x{batch} N={N}]": timed(chunk, repeats),
    }


def time_nonlinearity(repeats: int) -> dict:
    import numpy as np

    from looplab import cycles, hamiltonian, loops, solver

    m = hamiltonian.HamiltonianModel()

    def grad_h(c, N):
        return hamiltonian.grad_h_modes(m, c)

    def loop(N, modes):
        rng = np.random.default_rng(2026)
        shape = (2 * N + 1, 1)
        noise = 0.01 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return loops.Loop.from_modes(1, N, modes) + loops.Loop(1, N, noise)

    out = {}
    for N in (8, 32, 128):
        c = loop(N, {1: 1.2, 2: 0.3j}).coeffs
        out[f"grad_h_modes[N={N}]"] = timed(lambda: grad_h(c, N), repeats, calls=2000)
    # the trajectory of configs/flow.json: 1000 steps of dt = 5e-4 per call;
    # the flow of configs/find_orbit.json: 356 steps of T = 1, dt = 0.09/32;
    # 128 steps of dt = 0.09/128 at N = 128, past the dense step's crossover
    flows = (
        ("N=8", loop(8, {1: 0.55, 2: 0.3j, 3: 0.1}), 0.5, 0.0005),
        ("N=32", loops.Loop.from_modes(1, 32, {1: 1.4}), 1.0, 0.09 / 32),
        ("N=128", loops.Loop.from_modes(1, 128, {1: 1.4}), 0.09, 0.09 / 128),
    )
    for name, start, T, dt in flows:
        steps = len(solver.flow_trajectory(m, start, T, dt).times) - 1
        per_trajectory = timed(lambda: solver.flow_trajectory(m, start, T, dt), repeats, calls=2)
        out[f"flow_trajectory_step[{name}]"] = summary([t / steps for t in per_trajectory["samples"]])
    gamma = loop(32, {1: 1.2})
    out["_newton_matrix[N=32]"] = timed(lambda: cycles._newton_matrix(m, gamma), repeats, calls=20)
    return out


def time_guards(repeats: int) -> dict:
    from looplab import harness

    samples: dict[str, list[float]] = {}

    def clocked(name, run):
        start = time.perf_counter()
        result = run()
        samples.setdefault(name, []).append(time.perf_counter() - start)
        return result

    run_groups = harness._run_groups

    def patched(suite, groups):
        records = []
        for group in groups:
            records += clocked(f"{suite}.{group.__name__}", lambda: run_groups(suite, (group,)))
        return records

    harness._run_groups = patched
    try:
        for _ in range(repeats + 1):
            harness.run_suite(harness.Config(seed=2026), "aps", write=False)
    finally:
        harness._run_groups = run_groups
    # the first suite run is the warm-up
    return {name: summary(values[1:]) for name, values in samples.items()}


def time_descent(repeats: int) -> dict:
    import numpy as np

    from looplab import cycles, hamiltonian

    m = hamiltonian.HamiltonianModel()
    alpha = 1.43

    def beta():
        try:
            cycles.estimate_beta(m, alpha, seed=2026, N=32)
        except cycles.NegativeBeta:
            pass

    starts = cycles.sample_gamma(alpha, 48, 2026, N=32) + [alpha * cycles.e_plus(1, 32)]
    c = np.stack([gamma.coeffs for gamma in starts])
    value = hamiltonian.action_values(m, c)

    def step():
        cycles._descent_step(m, c.copy(), value.copy(), np.full(len(c), 0.1 * alpha),
                             np.arange(len(c)), alpha)

    return {
        "descent_step[B=49,N=32]_s": timed(step, repeats, calls=20),
        "estimate_beta[N=32]_s": timed(beta, repeats),
        "scan_alpha[N=32]_s": timed(lambda: cycles.scan_alpha(m, seed=2026, N=32), repeats),
    }


def environment() -> dict:
    import numpy as np

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next(
                line.split(":", 1)[1].strip() for line in f if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": model,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the --out file")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to add the run to")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="root of the looplab checkout to measure")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    root = args.src.resolve()
    sys.path.insert(0, str(root / "src"))

    result = {
        "env": environment(),
        "repeats": args.repeats,
        "kernels_s": time_kernels(args.repeats),
        "guards_s": time_guards(args.repeats),
        "nonlinearity_s": time_nonlinearity(args.repeats),
        "descent": time_descent(args.repeats),
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = result
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    for group in ("kernels_s", "guards_s"):
        for name, stats in result[group].items():
            print(f"{name:40s} median {stats['median']:8.3f} s  IQR {stats['iqr']:.3f} s")
    for name, stats in result["nonlinearity_s"].items():
        print(f"{name:40s} median {stats['median'] * 1e6:8.1f} us  IQR {stats['iqr'] * 1e6:.1f} us")
    for name, stats in result["descent"].items():
        print(f"{name:40s} median {stats['median'] * 1e3:8.2f} ms  IQR {stats['iqr'] * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
