"""Benchmark of the earcanal pipeline on two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/earcanal`` is imported
from there).  One run:

1. builds the workload's inputs from ``--seed`` with the program's own
   generators in a fresh process (``build_inputs.py``) that times its
   ``import earcanal`` and then SETUP_ROUNDS builds (one when tracing);
2. starts a fresh pass process (``passes.py``) that imports earcanal,
   makes one untimed pass of the workload's CLI commands through
   ``earcanal.cli.main`` and then timed passes for ``--seconds``;
3. has that process check every pass's outputs (``checks.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (CLI commands run and those that exited
nonzero) and ``metrics``: with ``--trace 0`` the end-to-end metrics
``pipeline_s`` (median timed pass), ``setup_s`` (import plus the median
build) and ``peak_rss_mb`` (the pass process);
with ``--trace 1`` the per-layer metrics of ``spans.py``.  The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_ROUNDS = 3
# seconds each child may take; together they stay within a run's 180 s
SETUP_TIMEOUT_S = 30
PASSES_TIMEOUT_S = 140


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_cohort", "scanner_mesh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child(script: str, timeout: float, result: Path, *args) -> dict:
    """Run one of the benchmark's scripts on the checkout's source and
    return the JSON it writes to ``result``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(HERE / script), *map(str, args), "--result", str(result)],
                   env=env, check=True, timeout=timeout)
    return json.loads(result.read_text())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "earcanal" / "__init__.py").is_file():
        print(f"error: no earcanal source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    built = _child("build_inputs.py", SETUP_TIMEOUT_S, work / "setup.json",
                   "--workload", args.workload, "--seed", args.seed, "--inputs", work / "inputs",
                   "--rounds", 1 if args.trace else SETUP_ROUNDS, "--trace", args.trace)
    plan = built["plan"]
    (work / "plan.json").write_text(json.dumps(plan, indent=2))
    passes = _child("passes.py", PASSES_TIMEOUT_S, work / "passes.json",
                    "--plan", work / "plan.json", "--inputs", work / "inputs",
                    "--out", work / "passes", "--seconds", args.seconds, "--trace", args.trace)

    correct = True
    for p in passes["passes"]:
        if "check_error" in p:
            print(f"check failed on {p['out']}: {p['check_error']}", file=sys.stderr)
            correct = False
    attempted = len(plan["commands"]) * len(passes["passes"])
    failed = sum(p["failed"] for p in passes["passes"])

    if args.trace:
        metrics = {**passes["layers"], **built["layers"]}
    else:
        timed = [p["s"] for p in passes["passes"] if p["kind"] == "timed"]
        metrics = {
            "pipeline_s": {"value": statistics.median(timed), "unit": "s"},
            "setup_s": {"value": built["import_s"] + statistics.median(built["build_s"]), "unit": "s"},
            "peak_rss_mb": {"value": passes["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
