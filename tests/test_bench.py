"""bench/kernels.py still runs against the package it times.

The script is run only when someone times a change, so a name it imports
that the package has dropped would otherwise go unnoticed until then.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench" / "kernels.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_kernels_runs():
    out = load_bench().time_kernels(2)
    assert sorted(out) == [
        "end_vanishing_l4_chunk[65x250 N=32]",
        "kernel_p_values[12001x65x3 basis]",
    ]
    assert all(len(stats["samples"]) == 2 and stats["median"] > 0 for stats in out.values())


def test_time_nonlinearity_runs():
    out = load_bench().time_nonlinearity(2)
    assert sorted(out) == [
        "_newton_matrix[N=32]",
        "flow_trajectory_step[N=128]",
        "flow_trajectory_step[N=32]",
        "flow_trajectory_step[N=8]",
        "grad_h_modes[N=128]",
        "grad_h_modes[N=32]",
        "grad_h_modes[N=8]",
    ]
    assert all(len(stats["samples"]) == 2 and stats["median"] > 0 for stats in out.values())


def test_time_descent_runs():
    out = load_bench().time_descent(2)
    assert sorted(out) == [
        "descent_step[B=49,N=32]_s",
        "estimate_beta[N=32]_s",
        "scan_alpha[N=32]_s",
    ]
    assert all(len(stats["samples"]) == 2 and stats["median"] > 0 for stats in out.values())
