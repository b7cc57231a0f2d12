"""Input-building functions for the benchmark workloads.

Each build function writes a workload's inputs into an empty directory with the
program's own generators and returns its plan: the CLI commands of one
pass, with ``{inputs}`` and ``{out}`` placeholders, and what the output
checks need to know about the inputs.  The program sees only the
generated files; the workload seed reaches it through the written
pipeline config.

Generator functions are called through their module attribute
(``synth.generate_canal_mesh``), so a traced set-up sees them.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from earcanal import cli, synth
from earcanal.config import PipelineConfig
from earcanal.mesh import write_binary_stl

PAPER_FAMILY_SEED = 0  # the family criterion 7 is stated for
SCANNER_RINGS = 800  # ring spacing 8 mm / 800 = 0.01 mm
SCANNER_FACETS_PER_RING = 250  # 2 * 250 * 800 = 400,000 facets
PAIR_FACETS_PER_RING = 20  # 32,000 facets: the ASCII parse stays a small share of a pass

COHORT_CHECKS = ["features", "acoustic_matrix", "tracks", "shape_matrix", "regressions"]

SHAPE = ["shape", "--manifest", "{inputs}/shape_manifest.json",
         "--config", "{inputs}/pipeline.json", "--out", "{out}/shape"]
ACOUSTIC = ["acoustic", "--manifest", "{inputs}/acoustic_manifest.json",
            "--config", "{inputs}/pipeline.json", "--out", "{out}/acoustic"]


def _correlate(pair):
    return ["correlate", "--shape", "{out}/shape/shape_similarity.csv",
            "--acoustic", "{out}/acoustic/acoustic_similarity.csv",
            "--config", "{inputs}/pipeline.json", "--out", "{out}/report",
            "--pair", ",".join(pair)]


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_config(root: Path, cfg: PipelineConfig) -> dict:
    d = cfg.to_dict()
    _write_json(root / "pipeline.json", d)
    return d


def _shape_manifest(root: Path, subjects: dict) -> None:
    _write_json(root / "shape_manifest.json", {"schema": "shape_manifest/1", "subjects": subjects})


def build_paper_cohort(root: Path, seed: int, **config) -> dict:
    """The criterion-7 cohort: the ``earcanal synth`` corpus of family
    seed 0 (twin pair plus two independent subjects) under the default
    config, or with the given config fields changed.  The workload seed
    is the config seed, which seeds the simulated noise of every take;
    seed 0 is criterion 7 itself."""
    if cli.main(["synth", "--out", str(root), "--seed", str(PAPER_FAMILY_SEED)]) != 0:
        raise RuntimeError("earcanal synth failed")
    cfg = _write_config(root, PipelineConfig(seed=seed, **config))
    family = json.loads((root / "family.json").read_text())
    acoustic = json.loads((root / "acoustic_manifest.json").read_text())["subjects"]
    return {
        "commands": [SHAPE, ACOUSTIC, _correlate(family["twin_pair"])],
        "config": cfg,
        "canals": {s["subject_id"]: s["canal"] for s in family["subjects"]},
        "takes": {sid: cfg["takes"] for sid in acoustic},
        "twins": family["twin_pair"],
        "checks": COHORT_CHECKS + ["twins"],
    }


def ascii_stl(mesh) -> bytes:
    """ASCII STL holding exactly the float32 values a binary STL of the
    same mesh holds (17 significant digits round-trip a float64)."""
    rows = np.concatenate(
        [mesh.normals.astype(np.float32), mesh.vertices.astype(np.float32).reshape(-1, 9)], axis=1
    ).astype(np.float64)
    facet = ("facet normal %.17g %.17g %.17g\n outer loop\n"
             + "  vertex %.17g %.17g %.17g\n" * 3 + " endloop\nendfacet\n")
    body = "".join(facet % tuple(r) for r in rows.tolist())
    return ("solid earcanal\n" + body + "endsolid earcanal\n").encode("ascii")


def build_scanner_mesh(root: Path, seed: int, rings: int = SCANNER_RINGS,
                       facets_per_ring: int = SCANNER_FACETS_PER_RING) -> dict:
    """Two scanner-sized binary meshes plus one smaller geometry written
    both as binary and as ASCII STL, sliced at their ring spacing."""
    family = list(synth.make_subject_family(seed, n_independent=1))
    cfg = PipelineConfig(delta_z=family[0].canal.length / rings, seed=seed)
    canals = {}
    for sid, spec in (("scan_a", family[0]), ("scan_b", family[2])):
        canal = dataclasses.replace(spec.canal, facets_per_ring=facets_per_ring, rings=rings)
        (root / f"{sid}.stl").write_bytes(write_binary_stl(synth.generate_canal_mesh(canal)))
        canals[sid] = canal.to_dict()
    canal = dataclasses.replace(family[1].canal, facets_per_ring=PAIR_FACETS_PER_RING, rings=rings)
    mesh = synth.generate_canal_mesh(canal)
    (root / "pair_bin.stl").write_bytes(write_binary_stl(mesh))
    (root / "pair_ascii.stl").write_bytes(ascii_stl(mesh))
    canals["pair_bin"] = canals["pair_ascii"] = canal.to_dict()
    _shape_manifest(root, {sid: f"{sid}.stl" for sid in canals})
    return {
        "commands": [SHAPE],
        "config": _write_config(root, cfg),
        "canals": canals,
        "takes": {},
        "same_geometry": ["pair_bin", "pair_ascii"],
        "checks": ["tracks", "shape_matrix", "same_geometry"],
    }


BUILD_INPUTS = {
    "paper_cohort": build_paper_cohort,
    "scanner_mesh": build_scanner_mesh,
}
