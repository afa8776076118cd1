"""Per-layer tracing for the looplab benchmark, installed from outside the package.

The tracer rebinds the public functions of each looplab layer (every
``@tracked`` operation plus the untracked kernels the layer metrics need)
with span wrappers.  A function is replaced under every name that binds it
in any looplab module, because ``from .x import y`` in ``harness``,
``solver``, ``cycles`` and ``cli`` creates bindings the defining module
does not own; a binding missed here shows up as a call-count mismatch
against ``looplab.coverage.counts()``.

Spans are aggregated in memory per name: calls, inclusive time, self time
and a work count (computed bytes for the kernels, points for the profile).
They are read out once the workload ends.  A span's self time is its
duration minus the time of the spans it directly encloses.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("loops", "hamiltonian", "cylinder", "solver", "cycles", "harness", "cli")

# The end-to-end metric each layer's numbers should move, and where a change
# in that layer predicts no change.
LAYER_MOVES = {
    "loops": "suite.flow_s on verify_dynamics, wall_s on cli_configs; no change on verify_aps",
    "hamiltonian": "suite.flow_s on verify_dynamics, wall_s on cli_configs",
    "cylinder": "wall_s and peak_rss_mb on verify_aps; no change on cli_configs",
    "solver": "suite.flow_s and wall_s on verify_dynamics",
    "cycles": "wall_s on cli_configs, suite.orbits_s on verify_dynamics; no change on verify_aps",
    "harness": "wall_s on verify_aps",
    "cli": "wall_s and setup_s on cli_configs",
}


def _in_out_bytes(*arg_positions):
    """Computed bytes: the array arguments at the given positions plus the result."""

    def count(args, result):
        return sum(args[i].nbytes for i in arg_positions) + result.nbytes

    return count


def _profile_points(args, result):
    """Points at which h, h' or h'' was evaluated."""
    return int(getattr(result, "size", 1))


class Tracer:
    """Span wrappers around looplab's layer functions, with exact call counts."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0, 0, 0])  # calls, total_ns, self_ns, work
        self.counters = defaultdict(int)
        self.tracked_keys: dict[str, str] = {}  # coverage name -> span key
        self._stack: list[list[int]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, key, fn, work=None, before=None, on_return=None, on_raise=None):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            if before is not None:
                before()
            child = [0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            else:
                if on_return is not None:
                    on_return(result)
                if work is not None:
                    stat[3] += work(args, result)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child[0]

        span.__wrapped__ = fn
        return span

    @staticmethod
    def _rebind(modules, original, replacement) -> int:
        hits = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    hits += 1
        return hits

    def install(self) -> None:
        """Wrap every layer function of the imported looplab package, for the
        rest of the process."""
        from looplab import coverage

        mods = {name: sys.modules.get(f"looplab.{name}") for name in LAYERS}
        if None in mods.values():
            raise RuntimeError(f"looplab modules not imported: {[n for n, m in mods.items() if m is None]}")
        all_mods = [m for n, m in sys.modules.items() if n == "looplab" or n.startswith("looplab.")]
        loops, ham, cyl, sol, cyc, har = (mods[n] for n in LAYERS[:6])

        def key(mod, fname):
            return f"{mod.__name__.rsplit('.', 1)[-1]}.{fname}"

        hooks = {
            (loops, "sample_coeffs"): dict(work=_in_out_bytes(0)),
            (loops, "synthesize_values"): dict(work=_in_out_bytes(0)),
            (cyl, "kernel_p_values"): dict(work=_in_out_bytes(0)),
            (cyl, "kernel_q_values"): dict(work=_in_out_bytes(0, 1)),
            (cyl, "dt_derivative"): dict(work=_in_out_bytes(0)),
            (cyc, "derive_tau"): {},
            (sol, "picard_solve"): self._picard_hooks(),
            (sol, "flow_trajectory"): self._flow_hooks(),
            (sol, "flow_step"): dict(on_return=lambda r: self._count("solver.flow.steps")),
            (cyc, "estimate_beta"): self._descent_hooks(),
            (cyc, "find_critical_point"): dict(
                on_return=lambda r: self._count("cycles.newton.iterations", r.newton_iterations)
            ),
        }
        targets = {target: getattr(*target) for target in hooks}

        # every @tracked operation, found by the name its coverage counter uses:
        # the module that defines the coverage wrapper owns it
        for op in coverage.registered_ops():
            fname = op.rsplit(".", 1)[-1]
            owners = [
                m for m in all_mods
                if hasattr(vars(m).get(fname), "__wrapped__") and vars(m)[fname].__module__ == m.__name__
            ]
            if len(owners) != 1:
                raise RuntimeError(f"cannot locate tracked operation {op!r} ({len(owners)} candidates)")
            self.tracked_keys[op] = key(owners[0], fname)
            targets[(owners[0], fname)] = getattr(owners[0], fname)

        for (mod, fname), fn in targets.items():
            wrapped = self._wrap(key(mod, fname), fn, **hooks.get((mod, fname), {}))
            if self._rebind(all_mods, fn, wrapped) == 0:
                raise RuntimeError(f"no binding of {key(mod, fname)} to replace")

        # the radial profile h, h', h'': points evaluated and self time
        model_cls = ham.HamiltonianModel
        for meth in ("h", "h_prime", "h_second"):
            original = getattr(model_cls, meth)
            setattr(model_cls, meth, self._wrap("hamiltonian.profile", original, work=_profile_points))

        # Loop constructions: a counter only, no span
        loop_cls = loops.Loop
        post_init = loop_cls.__post_init__
        counters = self.counters

        def counted_post_init(obj):
            counters["loops.Loop.constructions"] += 1
            post_init(obj)

        loop_cls.__post_init__ = counted_post_init

        # each suite of the harness, looked up by name at run time
        suites = har._SUITE_FUNCTIONS
        for name, fn in list(suites.items()):
            suites[name] = self._wrap(f"harness.suite.{name}", fn)

    def command(self, name: str, fn):
        """Span around one CLI command; its self time is the cli layer's."""
        return self._wrap(f"cli.cmd.{name}", fn)

    # -- hooks for solver and cycles counters ----------------------------------

    def _count(self, key, n=1):
        self.counters[key] += n

    def _picard_hooks(self):
        p_op = self.stats["cylinder.p_op"]
        state = []

        def start():
            state.append(p_op[0])

        # one p_op per Picard iteration, plus one for the final field on success
        def done(result):
            self._count("solver.picard.iterations", p_op[0] - state.pop() - 1)

        def failed(exc):
            self._count("solver.picard.iterations", p_op[0] - state.pop())

        return dict(on_return=done, on_raise=failed, before=start)

    def _flow_hooks(self):
        def done(trace):
            self._count("solver.flow.steps", len(trace.times) - 1)

        def failed(exc):
            partial = getattr(exc, "trace", None)
            if partial is not None:
                self._count("solver.flow.blowups")
                self._count("solver.flow.steps", len(partial.times))

        return dict(on_return=done, on_raise=failed)

    def _descent_hooks(self):
        action = self.stats["hamiltonian.action"]
        grad = self.stats["hamiltonian.grad_action"]
        state = []

        def start():
            state.append((action[0], grad[0]))

        def finish(_):
            a0, g0 = state.pop()
            self._count("cycles.descent.action_evals", action[0] - a0)
            self._count("cycles.descent.grad_evals", grad[0] - g0)

        return dict(on_return=finish, on_raise=finish, before=start)
