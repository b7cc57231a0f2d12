"""Pass process: runs a workload's CLI commands in-process, pass after pass.

    python3 perfbench/passes.py --plan PLAN --inputs DIR --out DIR
                                --seconds S --trace 0|1 --result FILE

It times ``import earcanal``, makes one untimed pass, then timed passes
until ``--seconds`` have passed (at least MIN_PASSES), each writing into
its own directory under ``--out``.  With ``--trace 1`` each timed pass
is paired with a traced one, the traced pass second in even pairs and
first in odd ones, and the result also carries the per-layer metrics.  This process builds no inputs, so its
peak resident memory, read before the checks run, is the passes' own.
Once timing is over it checks every pass's outputs (``checks.py``) and
writes its figures and the check results as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

MIN_PASSES = 3


def run_pass(main, commands, inputs: str, out: str) -> int:
    """Run one pass; return the number of commands that failed."""
    failed = 0
    for command in commands:
        argv = [a.replace("{inputs}", inputs).replace("{out}", out) for a in command]
        failed += main(argv) != 0
    return failed


def main() -> None:
    parser = argparse.ArgumentParser()
    for flag in ("--plan", "--inputs", "--out", "--result"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import earcanal.cli

    import_s = time.perf_counter() - start
    from checks import CheckError, check_pass
    from spans import PASS_TARGETS, Tracer, pass_layers

    plan = json.loads(Path(args.plan).read_text())
    commands = plan["commands"]
    cli_main = earcanal.cli.main

    passes = []

    def run(kind: str) -> None:
        out = f"{args.out}/pass_{len(passes):02d}"
        t0 = time.perf_counter()
        failed = run_pass(cli_main, commands, args.inputs, out)
        passes.append({"kind": kind, "s": time.perf_counter() - t0, "failed": failed, "out": out})

    tracer = Tracer()
    run("warm")
    t_start = time.perf_counter()
    timed = 0
    while timed < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
        kinds = ("timed", "traced")[:: 1 if timed % 2 == 0 else -1] if args.trace else ("timed",)
        for kind in kinds:
            with tracer.installed(PASS_TARGETS if kind == "traced" else []):
                run(kind)
        timed += 1
    result = {
        "import_s": import_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["layers"] = pass_layers(passes, tracer)

    for p in passes:
        if not p["failed"]:
            try:
                check_pass(plan, Path(p["out"]))
            except CheckError as exc:
                p["check_error"] = str(exc)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
