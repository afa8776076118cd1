"""perfbench's tracer counts every public operation that the coverage counter counts.

perfbench/tracer.py rebinds each ``@tracked`` operation under every name that
binds it in the package, and the benchmark compares each coverage count with
the calls its tracer saw.  A public operation that is renamed, nested or
wrapped so that the tracer cannot find or rebind it would otherwise show only
in a traced benchmark run.  The test installs the tracer, unmodified, in a
fresh process, runs `lab verify --suite all` at a small config and the five
subcommands on the shipped configs, and sums the coverage counts over the
commands as perfbench/worker.py does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import looplab.cli as cli
from looplab import coverage

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
from tracer import Tracer

tracer = Tracer()
tracer.install()
Path("verify.json").write_text(json.dumps({"N": 8, "M_t": 16, "eps_list": [0.5, 0.1]}))
commands = [("verify", "verify.json", ["--suite", "all"])] + [
    (cmd, str(root / "configs" / (cmd.replace("-", "_") + ".json")), [])
    for cmd in ("solve-cylinder", "flow", "find-orbit", "scan-alpha", "check-cycles")
]
exits, counts = {}, {}
for cmd, cfg, extra in commands:
    coverage.reset()
    with contextlib.redirect_stdout(io.StringIO()):
        exits[cmd] = cli.main([cmd, "--config", cfg, "--out", "out/" + cmd] + extra)
    for op, n in coverage.counts().items():
        counts[op] = counts.get(op, 0) + n
traced = {op: tracer.stats[key][0] for op, key in tracer.tracked_keys.items()}
print(json.dumps({"exits": exits, "counts": counts, "traced": traced}))
"""


def test_traced_calls_match_coverage_counts(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    run = json.loads(out.stdout.splitlines()[-1])
    assert sorted(run["exits"]) == sorted(
        ["verify", "solve-cylinder", "flow", "find-orbit", "scan-alpha", "check-cycles"]
    )
    assert 2 not in run["exits"].values(), run["exits"]
    assert run["counts"] and set(run["counts"]) <= set(run["traced"])
    mismatched = {
        op: (n, run["traced"][op]) for op, n in run["counts"].items() if run["traced"][op] != n
    }
    assert not mismatched
