"""Self-test of the output checks.

    python3 perfbench/selftest.py

Runs one small pass of a cohort (the paper cohort at MLS order 12 with
3 takes) and of a binary/ASCII geometry set (80 rings), confirms that
every check passes on the outputs, then corrupts a copy of the outputs
once per case below and confirms that the named check fails on it.
Exits nonzero if a check misses its corruption or rejects clean output.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work" / "selftest"
sys.path.insert(0, str(SRC))

from earcanal.cli import main as cli_main  # noqa: E402

from checks import CHECKS, CheckError, check_pass  # noqa: E402
from passes import run_pass  # noqa: E402
from workloads import build_paper_cohort, build_scanner_mesh  # noqa: E402


def edit_cell(path: Path, row: str, col: str, change) -> None:
    """Replace the CSV cell in the row whose first cell is ``row`` and the
    column whose header is ``col``."""
    lines = [ln.split(",") for ln in path.read_text().splitlines()]
    j = lines[0].index(col)
    for cells in lines:
        if cells[0] == row:
            cells[j] = change(cells[j])
    path.write_text("\n".join(",".join(cells) for cells in lines) + "\n")


def add(delta):
    def change(cell: str) -> str:
        mean, sep, std = cell.partition("±")
        return repr(float(mean) + delta) + sep + std

    return change


def scale_feature(factor, keep=None):
    def corrupt(out: Path) -> None:
        path = out / "acoustic" / "feature_twin_a_01.f32"
        data = path.read_bytes()
        if keep is not None:
            data = data[:keep]
        path.write_bytes((np.frombuffer(data, "<f4") * np.float32(factor)).astype("<f4").tobytes())

    return corrupt


COHORT_CASES = [
    ("acoustic_matrix", "one acoustic cell's mean moved by 1e-4",
     lambda out: edit_cell(out / "acoustic" / "acoustic_similarity.csv", "twin_a", "subject_c", add(1e-4))),
    ("features", "a missing feature file",
     lambda out: (out / "acoustic" / "feature_twin_b_02.f32").unlink()),
    ("features", "a feature one sample short", scale_feature(1.0, keep=4 * 2047)),
    ("features", "a feature scaled by 1.01", scale_feature(1.01)),
    ("tracks", "one track row shifted by two slice widths",
     lambda out: edit_cell(out / "shape" / "ec_twin_b.csv", "39", "x_n", add(0.2))),
    ("shape_matrix", "one shape cell moved by -1e-3",
     lambda out: edit_cell(out / "shape" / "shape_similarity.csv", "subject_c", "subject_d", add(-1e-3))),
    ("regressions", "one slope moved by 1e-6",
     lambda out: edit_cell(out / "report" / "regressions.csv", "twin_b", "slope", add(1e-6))),
    ("twins", "a negative slope",
     lambda out: edit_cell(out / "report" / "regressions.csv", "subject_c", "slope", lambda c: "-" + c)),
    ("twins", "a non-twin shape cell above the twins'",
     lambda out: [edit_cell(out / "shape" / "shape_similarity.csv", a, b, lambda _: "1.0")
                  for a, b in (("subject_c", "subject_d"), ("subject_d", "subject_c"))]),
]

GEOMETRY_CASES = [
    ("same_geometry", "one ASCII-copy track row moved by 1e-9",
     lambda out: edit_cell(out / "shape" / "ec_pair_ascii.csv", "50", "y_n", add(1e-9))),
]


def run_case_set(name: str, plan: dict, inputs: Path, cases) -> int:
    clean = WORK / name / "clean"
    if run_pass(cli_main, plan["commands"], str(inputs), str(clean)):
        print(f"{name}: the pass itself failed")
        return 1
    check_pass(plan, clean)
    print(f"{name}: every check passes on the clean outputs ({', '.join(plan['checks'])})")
    misses = 0
    for i, (check, what, corrupt) in enumerate(cases):
        copy = WORK / name / f"case_{i}"
        shutil.copytree(clean, copy)
        corrupt(copy)
        try:
            CHECKS[check](plan, copy)
        except CheckError as exc:
            print(f"  {check:16s} fails on {what}: {exc}")
        else:
            print(f"  {check:16s} MISSED {what}")
            misses += 1
    return misses


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    cohort_in = WORK / "cohort" / "inputs"
    geometry_in = WORK / "geometry" / "inputs"
    cohort_in.mkdir(parents=True)
    geometry_in.mkdir(parents=True)
    cohort = build_paper_cohort(cohort_in, 0, mls_order=12, takes=3)
    geometry = build_scanner_mesh(geometry_in, 0, rings=80, facets_per_ring=30)
    misses = run_case_set("cohort", cohort, cohort_in, COHORT_CASES)
    misses += run_case_set("geometry", geometry, geometry_in, GEOMETRY_CASES)
    print("self-test", "failed" if misses else "passed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
