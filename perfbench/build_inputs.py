"""Set-up process: builds one workload's inputs in a fresh interpreter.

    python3 perfbench/build_inputs.py --workload NAME --seed N --inputs DIR
                                      --rounds N --result FILE [--trace 0|1]

It times ``import earcanal`` once, then builds the inputs ``--rounds``
times into an emptied ``--inputs``, timing each build.  The result JSON
holds the times, the workload's plan and the per-layer ``synth.*``
metrics of the last build (zero unless ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    import earcanal  # noqa: F401

    import_s = time.perf_counter() - start
    from spans import SETUP_TARGETS, Tracer, setup_layers
    from workloads import BUILD_INPUTS

    build = BUILD_INPUTS[args.workload]
    inputs = Path(args.inputs)
    build_s = []
    for _ in range(args.rounds):
        tracer = Tracer()
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        start = time.perf_counter()
        with tracer.installed(SETUP_TARGETS if args.trace else []):
            plan = build(inputs, args.seed)
        build_s.append(time.perf_counter() - start)
    result = {"import_s": import_s, "build_s": build_s, "plan": plan, "layers": setup_layers(tracer)}
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
