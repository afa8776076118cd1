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
        "q_kernel_defect[3306x65x1 eps=0.5]",
        "residual_gram[12001x65x3 streamed]",
    ]
    assert all(len(stats["samples"]) == 2 and stats["median"] > 0 for stats in out.values())
    # the streamed Gram holds less than the whole basis sweep it reduces, and
    # under 4 MiB, as it forms its residual rows one forcing sub-block at a time
    sweep = out["kernel_p_values[12001x65x3 basis]"]["traced_peak_mib"]
    gram = out["residual_gram[12001x65x3 streamed]"]["traced_peak_mib"]
    assert 0 < gram < min(sweep, 4.0)
    # and the kernel defect less than one (3306, 65, 1) complex field of Q
    field_mib = 3306 * 65 * 16 / 2**20
    assert 0 < out["q_kernel_defect[3306x65x1 eps=0.5]"]["traced_peak_mib"] < field_mib


def test_time_guards_runs():
    out = load_bench().time_guards(2)
    assert sorted(out) == [
        "aps.end_vanishing",
        "aps.mode_identities",
        "aps.q_l4_smallness",
        "aps.q_right_inverse",
        "aps.right_inverse",
        "aps.uniformity",
        "flow.equivalence_nonresonant",
        "flow.equivalence_resonant",
        "flow.linear",
        "flow.nonlinear_identity",
        "flow.orbit_stationary",
        "flow.pushforward",
        "flow.semigroup",
    ]
    assert all(len(stats["samples"]) == 2 and stats["median"] > 0 for stats in out.values())
    assert all(stats["traced_peak_mib"] > 0 for stats in out.values())


def test_time_nonlinearity_runs():
    out = load_bench().time_nonlinearity(2)
    assert sorted(out) == [
        "_newton_matrix[N=32,d=2]",
        "_newton_matrix[N=32]",
        "flow_trajectory_step[N=128]",
        "flow_trajectory_step[N=32]",
        "flow_trajectory_step[N=8]",
        "grad_h_modes[N=128]",
        "grad_h_modes[N=32]",
        "grad_h_modes[N=8]",
    ]
    assert all(len(stats["samples"]) == 2 and stats["median"] > 0 for stats in out.values())
    assert all(out[name]["traced_peak_mib"] > 0 for name in out if name.startswith("_newton"))


def test_time_descent_runs():
    out = load_bench().time_descent(2)
    assert sorted(out) == [
        "descent_step[B=49,N=32]_s",
        "estimate_beta[N=32]_s",
        "sample_sigma[240,N=32]_s",
        "scan_alpha[N=32]_action_values_calls",
        "scan_alpha[N=32]_action_values_rows",
        "scan_alpha[N=32]_s",
    ]
    timings = [stats for name, stats in out.items() if name.endswith("_s")]
    assert all(len(stats["samples"]) == 2 and stats["median"] > 0 for stats in timings)
    # the line-search windows: 766 calls over 35 406 rows, where one trial
    # per call took 2117 calls over 27 204 rows
    assert out["scan_alpha[N=32]_action_values_calls"] == 766
    assert out["scan_alpha[N=32]_action_values_rows"] == 35406
