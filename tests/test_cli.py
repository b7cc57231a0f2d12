"""End-to-end CLI behaviour: subcommands, exit codes, reproducibility."""

import contextlib
import dataclasses
import importlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import earcanal
from earcanal import cli
from earcanal import mesh as mesh_module
from earcanal.acoustics import (
    acoustic_similarity_matrix,
    add_noise,
    correlate_period,
    generate_mls,
    recover_impulse_response,
    response_feature,
    simulate_measurement,
)
from earcanal.analysis import SimilarityMatrix
from earcanal.cli import main
from earcanal.config import MAX_LEVEL, PipelineConfig
from earcanal.mesh import (
    StlParseError,
    TriangleMesh,
    parse_stl,
    stl_blocks,
    triangle_centroids,
    write_binary_stl,
)
from earcanal.synth import PlantGenerator, generate_canal_mesh, generate_plant, make_subject_family
from stl_cases import ascii_text, mutated_stl, random_mesh

# small but structurally complete: MLS period 4095 still covers the
# 2048-tap synthetic plants
FAST = {"mls_order": 12, "takes": 2, "repeats": 2}

ONE_FACET_STL = """solid one
  facet normal 0 0 1
    outer loop
      vertex 0 0 0
      vertex 1 0 0
      vertex 0 1 0
    endloop
  endfacet
endsolid one
"""


@pytest.fixture(scope="module")
def fast_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    path.write_text(json.dumps(FAST))
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, fast_cfg):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--config", str(fast_cfg), "--out", str(out)]) == 0
    return out


def write_wav(path, samples, sample_rate=44100):
    """Store a float sequence as 16-bit PCM, scaled to 90% full scale."""
    pcm = np.round(samples / np.abs(samples).max() * 0.9 * 32767.0).astype(np.int16)
    wavfile.write(path, sample_rate, pcm)


def read_tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_writes_complete_corpus(corpus):
    names = {p.name for p in corpus.iterdir()}
    for sid in ("twin_a", "twin_b", "subject_c", "subject_d"):
        assert f"{sid}.stl" in names
        assert f"{sid}_plant.json" in names
    assert {"shape_manifest.json", "acoustic_manifest.json", "family.json", "config.json"} <= names
    manifest = json.loads((corpus / "shape_manifest.json").read_text())
    assert set(manifest["subjects"]) == {"twin_a", "twin_b", "subject_c", "subject_d"}
    cfg = json.loads((corpus / "config.json").read_text())
    assert cfg["command"] == "synth"
    assert cfg["mls_order"] == 12


def test_synth_is_byte_identical_across_runs(tmp_path, fast_cfg, corpus):
    again = tmp_path / "again"
    assert main(["synth", "--config", str(fast_cfg), "--out", str(again)]) == 0
    assert read_tree(again) == read_tree(corpus)


def test_seed_flag_overrides_config_seed(tmp_path, fast_cfg):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    cfg7 = tmp_path / "cfg7.json"
    cfg7.write_text(json.dumps({**FAST, "seed": 7}))
    assert main(["synth", "--config", str(cfg7), "--out", str(a)]) == 0
    assert main(["synth", "--config", str(fast_cfg), "--seed", "7", "--out", str(b)]) == 0
    assert main(["synth", "--config", str(fast_cfg), "--seed", "8", "--out", str(c)]) == 0
    assert (a / "family.json").read_bytes() == (b / "family.json").read_bytes()
    assert (a / "family.json").read_bytes() != (c / "family.json").read_bytes()
    assert json.loads((b / "config.json").read_text())["seed"] == 7


def test_sweep_writes_one_corpus_per_level(tmp_path, fast_cfg):
    out = tmp_path / "sweep"
    code = main(["synth", "--config", str(fast_cfg), "--out", str(out),
                 "--sweep", "0.05,0.2"])
    assert code == 0
    for sub in ("perturbation_0.05", "perturbation_0.2"):
        assert (out / sub / "family.json").is_file()
    fams = [json.loads((out / s / "family.json").read_text())
            for s in ("perturbation_0.05", "perturbation_0.2")]
    assert fams[0] != fams[1]


def test_sweep_rejects_garbage(tmp_path, fast_cfg, capsys):
    code = main(["synth", "--config", str(fast_cfg), "--out", str(tmp_path / "x"),
                 "--sweep", "a,b"])
    assert code == 2
    assert "--sweep" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["0.1,0.1000001", "0.2,0.05,0.2", "0.1,1e-1"])
def test_sweep_levels_that_share_a_directory_exit_two(tmp_path, fast_cfg, capsys, sweep):
    code = main(["synth", "--config", str(fast_cfg), "--out", str(tmp_path / "x"),
                 "--sweep", sweep])
    assert code == 2
    assert "both write" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_with_a_bad_level_writes_nothing(tmp_path, fast_cfg, capsys):
    code = main(["synth", "--config", str(fast_cfg), "--out", str(tmp_path / "x"),
                 "--sweep", "0.05,-1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x").exists()


@pytest.fixture(scope="module")
def shape_out(tmp_path_factory, fast_cfg, corpus):
    out = tmp_path_factory.mktemp("shape")
    code = main(["shape", "--config", str(fast_cfg), "--out", str(out),
                 "--manifest", str(corpus / "shape_manifest.json")])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def acoustic_out(tmp_path_factory, fast_cfg, corpus):
    out = tmp_path_factory.mktemp("acoustic")
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(out),
                 "--manifest", str(corpus / "acoustic_manifest.json")])
    assert code == 0
    return out


def test_shape_emits_tracks_and_matrix(shape_out):
    for sid in ("twin_a", "twin_b", "subject_c", "subject_d"):
        assert (shape_out / f"ec_{sid}.csv").is_file()
        track = json.loads((shape_out / f"ec_{sid}.json").read_text())
        assert len(track["centers"]) > 70
    matrix = SimilarityMatrix.from_csv((shape_out / "shape_similarity.csv").read_text())
    assert set(matrix.ids) == {"twin_a", "twin_b", "subject_c", "subject_d"}
    pairs = matrix.values[np.triu_indices(4, 1)]
    assert len(pairs) == 6
    assert all(-1.0 <= v <= 1.0 for v in pairs)


def test_acoustic_emits_features_and_matrix(acoustic_out):
    for sid in ("twin_a", "twin_b", "subject_c", "subject_d"):
        for take in range(FAST["takes"]):
            raw = (acoustic_out / f"feature_{sid}_{take:02d}.f32").read_bytes()
            feat = np.frombuffer(raw, dtype="<f4")
            assert len(feat) == 2048
            assert np.isclose(np.sum(feat.astype(np.float64) ** 2), 1.0, rtol=1e-5)
            sidecar = json.loads((acoustic_out / f"feature_{sid}_{take:02d}.json").read_text())
            assert sidecar["subject_id"] == sid
            assert sidecar["take_index"] == take
    matrix = SimilarityMatrix.from_csv((acoustic_out / "acoustic_similarity.csv").read_text())
    assert set(matrix.ids) == {"twin_a", "twin_b", "subject_c", "subject_d"}


def test_acoustic_rerun_is_byte_identical(tmp_path, fast_cfg, corpus, acoustic_out):
    again = tmp_path / "again"
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(again),
                 "--manifest", str(corpus / "acoustic_manifest.json")])
    assert code == 0
    assert read_tree(again) == read_tree(acoustic_out)


@pytest.mark.parametrize("command", ["shape", "acoustic"])
def test_written_config_reruns_byte_identical(tmp_path, corpus, shape_out, acoustic_out,
                                              command):
    first = {"shape": shape_out, "acoustic": acoustic_out}[command]
    again = tmp_path / "again"
    code = main([command, "--config", str(first / "config.json"), "--out", str(again),
                 "--manifest", str(corpus / f"{command}_manifest.json")])
    assert code == 0
    assert read_tree(again) == read_tree(first)


def test_correlate_emits_report(tmp_path, fast_cfg, shape_out, acoustic_out):
    out = tmp_path / "report"
    code = main(["correlate", "--config", str(fast_cfg), "--out", str(out),
                 "--shape", str(shape_out / "shape_similarity.csv"),
                 "--acoustic", str(acoustic_out / "acoustic_similarity.csv"),
                 "--pair", "twin_a,twin_b"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["regressions"]) == 4
    for side in ("shape", "acoustic"):
        stats = summary[f"{side}_statistics"]
        assert stats["pair"] == ["twin_a", "twin_b"]
        # engineered twins sit above the cohort mean on both axes
        assert stats["percent_excess"] > 0
    header = (out / "regressions.csv").read_text().splitlines()[0]
    assert header == "subject,r,r_squared,slope,intercept,degenerate"
    for sid in ("twin_a", "twin_b", "subject_c", "subject_d"):
        assert (out / f"scatter_{sid}.svg").is_file()

    again = tmp_path / "report2"
    code = main(["correlate", "--config", str(fast_cfg), "--out", str(again),
                 "--shape", str(shape_out / "shape_similarity.csv"),
                 "--acoustic", str(acoustic_out / "acoustic_similarity.csv"),
                 "--pair", "twin_a,twin_b"])
    assert code == 0
    assert read_tree(again) == read_tree(out)


@pytest.mark.parametrize("cell", ["", "nan", " NaN ", "nan±0.1"])
def test_correlate_rejects_an_undefined_cell(tmp_path, shape_out, acoustic_out, capsys, cell):
    rows = (acoustic_out / "acoustic_similarity.csv").read_text().splitlines()
    header = rows[0].split(",")
    cells = rows[2].split(",")  # twin_b's row
    col = header.index("subject_c")
    cells[col] = cell
    rows[2] = ",".join(cells)
    holed = tmp_path / "holed.csv"
    holed.write_text("\n".join(rows) + "\n")
    code = main(["correlate", "--out", str(tmp_path / "r"),
                 "--shape", str(shape_out / "shape_similarity.csv"), "--acoustic", str(holed)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot parse {holed}: cell ({cells[0]}, subject_c) is empty or NaN\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("sid", ["a/b", "/abs", "..", ".", "", "a\\b", "a\0b"],
                         ids=["subdir", "absolute", "dotdot", "dot", "empty", "backslash", "nul"])
def test_correlate_rejects_a_csv_subject_id_that_is_not_a_file_name(
        tmp_path, shape_out, acoustic_out, capsys, sid):
    inputs = tmp_path / "in"
    inputs.mkdir()
    for name, source in (("shape.csv", shape_out), ("acoustic.csv", acoustic_out)):
        text = (source / f"{name[:-4]}_similarity.csv").read_text()
        (inputs / name).write_text(text.replace("twin_a", sid))
    code = main(["correlate", "--out", str(tmp_path / "r"), "--shape", str(inputs / "shape.csv"),
                 "--acoustic", str(inputs / "acoustic.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"subject id {sid!r} is not a plain file name" in err and err.count("\n") == 1
    # nothing written, inside --out or above it
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["acoustic.csv", "in", "shape.csv"]


def test_correlate_pair_validation(tmp_path, shape_out, acoustic_out, capsys):
    base = ["correlate", "--out", str(tmp_path / "r"),
            "--shape", str(shape_out / "shape_similarity.csv"),
            "--acoustic", str(acoustic_out / "acoustic_similarity.csv")]
    assert main(base + ["--pair", "twin_a"]) == 2
    assert "--pair" in capsys.readouterr().err
    assert main(base + ["--pair", "twin_a,nobody"]) == 2
    assert "nobody" in capsys.readouterr().err
    assert main(base + ["--pair", "twin_a,twin_a"]) == 2
    assert "two different subjects" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_correlate_rejects_mismatched_subjects(tmp_path, shape_out, acoustic_out, capsys):
    clipped = tmp_path / "clipped.csv"
    matrix = SimilarityMatrix.from_csv((acoustic_out / "acoustic_similarity.csv").read_text())
    keep = [sid for sid in matrix.ids if sid != "subject_d"]
    sub = SimilarityMatrix(
        ids=tuple(keep),
        values=np.array([[np.nan if a == b else matrix.cell(a, b) for b in keep]
                         for a in keep]),
    )
    clipped.write_text(sub.to_csv())
    code = main(["correlate", "--out", str(tmp_path / "r"),
                 "--shape", str(shape_out / "shape_similarity.csv"),
                 "--acoustic", str(clipped)])
    assert code == 2
    assert "different subjects" in capsys.readouterr().err


@pytest.mark.parametrize("ids", [(), ("a",), ("a", "b")], ids=["none", "one", "two"])
def test_correlate_needs_three_subjects(tmp_path, capsys, ids):
    rows = ["subject" + "".join("," + sid for sid in ids)]
    rows += [a + "".join("," + ("" if a == b else "0.5") for b in ids) for a in ids]
    for kind in ("shape", "acoustic"):
        (tmp_path / f"{kind}.csv").write_text("\n".join(rows) + "\n")
    code = main(["correlate", "--out", str(tmp_path / "r"), "--shape", str(tmp_path / "shape.csv"),
                 "--acoustic", str(tmp_path / "acoustic.csv")])
    assert code == 1
    assert "need at least 3 subjects" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_wav_takes_route(tmp_path, fast_cfg):
    plant = 0.9 ** np.arange(256)
    excitation = generate_mls(12)
    wavs = []
    for take in range(2):
        rec = simulate_measurement(excitation, plant, repeats=2)
        path = tmp_path / f"take{take}.wav"
        write_wav(path, rec)
        wavs.append(path.name)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(
        {"subjects": {"wav_a": {"takes": wavs}, "wav_b": {"takes": wavs}}}))
    out = tmp_path / "out"
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(out),
                 "--manifest", str(manifest)])
    assert code == 0
    matrix = SimilarityMatrix.from_csv((out / "acoustic_similarity.csv").read_text())
    # identical takes, identical features
    assert matrix.cell("wav_a", "wav_b") == pytest.approx(1.0, abs=1e-9)


def serial_features(cfg, recordings):
    """Reference for ``acoustic``: each take's feature computed one after
    another, from ``recordings`` = [(subject, [recording, ...]), ...]."""
    excitation = generate_mls(cfg["mls_order"])
    feats = []
    for sid, takes in recordings:
        for take, rec in enumerate(takes):
            raw = recover_impulse_response(rec, excitation, cfg["repeats"])
            feats.append((sid, take, response_feature(raw)))
    return feats


def assert_acoustic_output(out, feats):
    for sid, take, feat in feats:
        stored = (out / f"feature_{sid}_{take:02d}.f32").read_bytes()
        assert stored == feat.astype("<f4").tobytes(), (sid, take)
        assert (out / f"feature_{sid}_{take:02d}.json").is_file()
    expected = acoustic_similarity_matrix(feats).to_csv()
    assert (out / "acoustic_similarity.csv").read_text() == expected


@pytest.fixture(params=["machine", "thread_per_take"])
def workers(request, monkeypatch):
    """The worker count the machine gives, and a thread for every take of
    a subject with frequent thread switches."""
    if request.param == "machine":
        yield
        return
    monkeypatch.setattr(cli, "_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_threaded_plant_takes_match_serial_reference(tmp_path, corpus, workers):
    cfg = {**FAST, "takes": 4, "noise_rms": 0.3, "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    manifest = corpus / "acoustic_manifest.json"
    out = tmp_path / "out"
    code = main(["acoustic", "--config", str(cfg_path), "--out", str(out),
                 "--manifest", str(manifest)])
    assert code == 0
    # every take simulated in full with its own seeded noise
    excitation = generate_mls(cfg["mls_order"])
    recordings = []
    for sidx, (sid, entry) in enumerate(json.loads(manifest.read_text())["subjects"].items()):
        spec = json.loads((corpus / entry["plant"]).read_text())
        plant = generate_plant(PlantGenerator.from_dict(spec))
        recordings.append((sid, [
            add_noise(simulate_measurement(excitation, plant, cfg["repeats"]), cfg["noise_rms"],
                      np.random.default_rng([cfg["seed"], sidx, take]))
            for take in range(cfg["takes"])
        ]))
    assert_acoustic_output(out, serial_features(cfg, recordings))


def test_threaded_wav_takes_match_serial_reference(tmp_path, fast_cfg, workers):
    excitation = generate_mls(FAST["mls_order"])
    subjects, recordings = {}, []
    for k, sid in enumerate(("wav_a", "wav_b", "wav_c")):
        plant = (0.8 + 0.05 * k) ** np.arange(200)
        names, takes = [], []
        for take in range(3):
            rec = add_noise(simulate_measurement(excitation, plant, FAST["repeats"]), 0.01,
                            [k, take])
            names.append(f"{sid}_{take}.wav")
            write_wav(tmp_path / names[-1], rec)
            takes.append(wavfile.read(tmp_path / names[-1])[1].astype(np.float64) / 32768.0)
        subjects[sid] = {"takes": names}
        recordings.append((sid, takes))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": subjects}))
    out = tmp_path / "out"
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(out),
                 "--manifest", str(manifest)])
    assert code == 0
    assert_acoustic_output(out, serial_features(FAST, recordings))


@pytest.mark.parametrize("wav_first", [True, False], ids=["wav_first", "plant_first"])
def test_mixed_manifest_gives_each_subject_its_kind_of_features(tmp_path, corpus, wav_first):
    cfg = {**FAST, "noise_rms": 0.3, "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    excitation = generate_mls(cfg["mls_order"])
    wav_subjects, plant_subjects = {}, {}
    for k, sid in enumerate(("wav_a", "wav_b")):
        plant = (0.8 + 0.05 * k) ** np.arange(200)
        names = []
        for take in range(3):
            rec = add_noise(simulate_measurement(excitation, plant, cfg["repeats"]), 0.01,
                            [k, take])
            names.append(f"{sid}_{take}.wav")
            write_wav(tmp_path / names[-1], rec)
        wav_subjects[sid] = {"takes": names}
    corpus_subjects = json.loads((corpus / "acoustic_manifest.json").read_text())["subjects"]
    for sid in ("twin_a", "twin_b"):
        plant_subjects[sid] = {"plant": str(corpus / corpus_subjects[sid]["plant"])}
    subjects = ({**wav_subjects, **plant_subjects} if wav_first
                else {**plant_subjects, **wav_subjects})
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": subjects}))
    out = tmp_path / "out"
    code = main(["acoustic", "--config", str(cfg_path), "--out", str(out),
                 "--manifest", str(manifest)])
    assert code == 0
    # WAV subjects from their files' samples, plant subjects simulated in
    # full with the noise of their place in the manifest
    recordings = []
    for sidx, (sid, entry) in enumerate(subjects.items()):
        if "takes" in entry:
            takes = [wavfile.read(tmp_path / name)[1].astype(np.float64) / 32768.0
                     for name in entry["takes"]]
        else:
            spec = json.loads(Path(entry["plant"]).read_text())
            plant = generate_plant(PlantGenerator.from_dict(spec))
            takes = [add_noise(simulate_measurement(excitation, plant, cfg["repeats"]),
                               cfg["noise_rms"],
                               np.random.default_rng([cfg["seed"], sidx, take]))
                     for take in range(cfg["takes"])]
        recordings.append((sid, takes))
    assert_acoustic_output(out, serial_features(cfg, recordings))


def whole_recording_response(rec, excitation, repeats):
    """The impulse response of a whole float64 recording, averaged by
    numpy's mean over its stacked periods after the first."""
    L = excitation.length
    need = (repeats + 1) * L
    return correlate_period(rec[L:need].reshape(repeats, L).mean(axis=0), excitation)


@pytest.mark.parametrize("order", [*range(2, 13), 16])
def test_simulated_takes_are_bitwise_the_whole_recording_path(order):
    """A take averaged period by period from one steady period recovers
    the response of the whole noisy recording, byte for byte."""
    excitation = generate_mls(order)
    L = excitation.length
    rng = np.random.default_rng(order)
    # a short plant, and one that fills the period and so folds its tail
    plants = [rng.normal(size=min(L, 5)), rng.normal(size=L) * 0.99 ** np.arange(L)]
    cases = [(repeats, noise_rms, seed)
             for repeats in range(1, 7) for noise_rms in (0.0, 0.5) for seed in (0, 1, 7)]
    if order == 16:  # once, at the paper cohort's settings
        plants, cases = plants[1:], [(5, 0.5, 3)]
    for plant in plants:
        for repeats, noise_rms, seed in cases:
            cfg = PipelineConfig(mls_order=order, repeats=repeats, noise_rms=noise_rms,
                                 seed=seed, takes=2)
            n_takes, response = cli._subject_responses(2, "s", plant, cfg, excitation)
            assert n_takes == 2
            for take in range(n_takes):
                recording = add_noise(simulate_measurement(excitation, plant, repeats),
                                      noise_rms, np.random.default_rng([seed, 2, take]))
                want = whole_recording_response(recording, excitation, repeats)
                assert response(take).tobytes() == want.tobytes(), (len(plant), repeats,
                                                                    noise_rms, seed, take)


def checked_takes(paths, cfg):
    """A WAV subject's manifest entry as ``cmd_acoustic`` checks it:
    each take's ``(path, offset, count)``."""
    return [(path, *cli._read_input(path, lambda f: cli._wav_pcm(f, cfg))) for path in paths]


def extreme_pcm(rng, n):
    """``n`` random int16 samples, about 3 in 8 of them -32768, 32767 or 0."""
    pcm = rng.integers(-32768, 32768, size=n).astype(np.int16)
    pick = rng.integers(0, 8, size=n)
    for k, value in enumerate((-32768, 32767, 0)):
        pcm[pick == k] = value
    return pcm


@pytest.mark.parametrize("order", [*range(2, 13), 16])
def test_wav_takes_are_bitwise_the_whole_recording_path(tmp_path, order):
    """A WAV take averaged from its 16-bit samples, one period at a time,
    recovers the response of its whole recording divided by 32768, byte
    for byte."""
    excitation = generate_mls(order)
    L = excitation.length
    rng = np.random.default_rng(100 + order)
    all_repeats = [5] if order == 16 else range(1, 7)  # order 16 once
    for repeats in all_repeats:
        need = (repeats + 1) * L
        # a take of exactly the periods used, one longer, and one whose
        # samples are every one -32768, 32767 or 0
        takes = [extreme_pcm(rng, need), extreme_pcm(rng, need + L // 2 + 3),
                 rng.choice(np.array([-32768, 32767, 0], np.int16), size=need)]
        paths = []
        for take, pcm in enumerate(takes):
            paths.append(tmp_path / f"o{order}_r{repeats}_{take}.wav")
            wavfile.write(paths[-1], 44100, pcm)
        cfg = PipelineConfig(mls_order=order, repeats=repeats)
        n_takes, response = cli._subject_responses(0, "s", checked_takes(paths, cfg), cfg,
                                                   excitation)
        assert n_takes == len(takes)
        for take, pcm in enumerate(takes):
            want = whole_recording_response(pcm.astype(np.float64) / 32768.0, excitation,
                                            repeats)
            assert response(take).tobytes() == want.tobytes(), (repeats, take)


def test_wav_subject_peaks_below_half_its_float_recordings(tmp_path):
    cfg = PipelineConfig(mls_order=14, takes=10)
    excitation = generate_mls(cfg.mls_order)
    recording = (cfg.repeats + 1) * excitation.length
    rng = np.random.default_rng(6)
    paths = []
    for take in range(cfg.takes):
        paths.append(tmp_path / f"take{take}.wav")
        wavfile.write(paths[-1], 44100, extreme_pcm(rng, recording))
    excitation._hadamard_permutations  # built once a run, untraced
    entry = checked_takes(paths, cfg)
    tracemalloc.start()
    try:
        n_takes, response = cli._subject_responses(0, "s", entry, cfg, excitation)
        response(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_takes == cfg.takes
    # the subject's takes held as float64 recordings
    assert peak < cfg.takes * recording * 8 / 2


def test_at_most_one_subject_is_made_ahead(tmp_path, fast_cfg, corpus, monkeypatch, workers):
    finished = []  # the subject index of every finished take
    real_responses, real_feature = cli._subject_responses, cli._take_feature

    def subject_responses(sidx, *args):
        # every take of every subject before the previous one has finished
        assert all(finished.count(s) == FAST["takes"] for s in range(sidx - 1)), \
            (sidx, finished)
        n_takes, response = real_responses(sidx, *args)

        def tagged(take):
            return response(take)
        tagged.sidx = sidx
        return n_takes, tagged

    def take_feature(cfg, response, take):
        feat = real_feature(cfg, response, take)
        finished.append(response.sidx)
        return feat

    monkeypatch.setattr(cli, "_subject_responses", subject_responses)
    monkeypatch.setattr(cli, "_take_feature", take_feature)
    out = tmp_path / "o"
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(out),
                 "--manifest", str(corpus / "acoustic_manifest.json")])
    assert code == 0
    assert sorted(finished) == [s for s in range(4) for _ in range(FAST["takes"])]


def test_failing_take_exits_one_and_writes_nothing(tmp_path, fast_cfg, workers, capsys):
    excitation = generate_mls(FAST["mls_order"])
    good = simulate_measurement(excitation, 0.5 ** np.arange(8), FAST["repeats"])
    write_wav(tmp_path / "good.wav", good)
    # a silent take recovers an all-zero response
    wavfile.write(tmp_path / "silent.wav", 44100, np.zeros(good.shape[0], dtype=np.int16))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {
        "a": {"takes": ["good.wav", "good.wav"]},
        "b": {"takes": ["good.wav", "silent.wav", "silent.wav", "good.wav"]},
    }}))
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 1
    err = capsys.readouterr().err
    # the first failing take in take order is the one reported, by subject and take
    assert err == "error: b take 1: cannot trim an all-zero response\n"
    assert not (tmp_path / "o").exists()


def test_one_pool_serves_every_subject_of_a_run(tmp_path, fast_cfg, corpus, monkeypatch):
    pools = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            pools.append(max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(cli, "_workers", lambda: 3)
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(corpus / "acoustic_manifest.json")])
    assert code == 0
    assert len(list((tmp_path / "o").glob("*.f32"))) == 4 * FAST["takes"]
    assert pools == [3]


def test_wav_with_wrong_rate_is_rejected(tmp_path, fast_cfg, capsys):
    path = tmp_path / "bad.wav"
    wavfile.write(path, 48000, np.zeros(1000, dtype=np.int16))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"s": {"takes": [path.name]}}}))
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot parse {path.resolve()} (subject 's'): expected 44100 Hz, got 48000 Hz "
        "(no resampling)\n")
    assert not (tmp_path / "o").exists()


def test_wav_must_be_mono_16bit(tmp_path, fast_cfg, capsys):
    stereo = tmp_path / "stereo.wav"
    wavfile.write(stereo, 44100, np.zeros((500, 2), dtype=np.int16))
    floaty = tmp_path / "floaty.wav"
    wavfile.write(floaty, 44100, np.zeros(500, dtype=np.float32))
    for path, needle in ((stereo, "mono"), (floaty, "16-bit PCM")):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"subjects": {"s": {"takes": [path.name]}}}))
        code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                     "--manifest", str(manifest)])
        assert code == 2
        assert needle in capsys.readouterr().err


@pytest.mark.parametrize("cut", [4, 20, 30, 40, 44, 60])
def test_truncated_wav_exits_two(tmp_path, fast_cfg, capsys, cut):
    whole = tmp_path / "whole.wav"
    wavfile.write(whole, 44100, np.arange(100, dtype=np.int16))
    data = whole.read_bytes()
    assert len(data) == 244
    path = tmp_path / "cut.wav"
    path.write_bytes(data[:cut])
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"s": {"takes": [path.name]}}}))
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot parse {path} (subject 's'): ")
    assert not (tmp_path / "o").exists()


def test_each_wav_is_read_once(tmp_path, fast_cfg, monkeypatch):
    excitation = generate_mls(FAST["mls_order"])
    rec = simulate_measurement(excitation, 0.5 ** np.arange(8), FAST["repeats"])
    rng = np.random.default_rng(3)
    subjects = {}
    for sid in ("a", "b", "c"):
        names = [f"{sid}{take}.wav" for take in range(FAST["takes"])]
        for name in names:
            write_wav(tmp_path / name, rec + rng.normal(scale=0.01, size=rec.shape))
        subjects[sid] = {"takes": names}
    (tmp_path / "m.json").write_text(json.dumps({"subjects": subjects}))
    returned = dict.fromkeys((p.resolve() for p in tmp_path.glob("*.wav")), 0)
    path_open = Path.open

    class Counted:
        """An open WAV whose reads are counted; it has no ``fileno``, so no
        read can go around it."""

        def __init__(self, f, path):
            self.f, self.path = f, path

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def read(self, n=-1):
            data = self.f.read(n)
            returned[self.path] += len(data)
            return data

        def seek(self, *args):
            return self.f.seek(*args)

    def counted_open(self, *args, **kwargs):
        f = path_open(self, *args, **kwargs)
        return Counted(f, self) if self.suffix == ".wav" else f

    monkeypatch.setattr(Path, "open", counted_open)
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(tmp_path / "m.json")])
    assert code == 0
    for path, n in returned.items():
        size = path.stat().st_size
        # the 44-byte header is read to check it, the samples to use them
        assert size - 44 <= n <= size, (path.name, n, size)


def test_wav_cut_short_after_its_check_exits_two(tmp_path, fast_cfg, capsys, monkeypatch):
    need = (FAST["repeats"] + 1) * (2 ** FAST["mls_order"] - 1)
    write_wav(tmp_path / "t.wav", np.random.default_rng(4).normal(size=need))
    path = (tmp_path / "t.wav").resolve()
    wav_pcm = cli._wav_pcm

    def check_then_cut(f, cfg):
        checked = wav_pcm(f, cfg)
        os.truncate(path, path.stat().st_size - 2)
        return checked

    monkeypatch.setattr(cli, "_wav_pcm", check_then_cut)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"s": {"takes": ["t.wav"]}}}))
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse {path} (subject 's'): ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def small_wav_bytes():
    """A valid 16-bit mono WAV of two order-5 MLS periods through a plant."""
    rec = simulate_measurement(generate_mls(5), 0.6 ** np.arange(6), repeats=1)
    buf = io.BytesIO()
    wavfile.write(buf, 44100, np.round(rec / np.abs(rec).max() * 0.9 * 32767.0).astype(np.int16))
    return buf.getvalue()


SMALL_WAV = small_wav_bytes()
SMALL_WAV_CFG = {"mls_order": 5, "repeats": 1, "feature_length": 32}


@pytest.mark.parametrize("cut", [14, 24, 40])
def test_wav_cut_short_while_its_headers_are_read_is_an_input_error(tmp_path, cut):
    class Shrinking(io.BytesIO):
        """A file that loses all but its first ``cut`` bytes once its size is taken."""

        def seek(self, pos, whence=os.SEEK_SET):
            at = super().seek(pos, whence)
            if whence == os.SEEK_END:
                self.truncate(cut)
            return at

    path = tmp_path / "t.wav"
    path.write_bytes(SMALL_WAV)
    cfg = PipelineConfig(**SMALL_WAV_CFG)
    # cut inside the fmt chunk's header, its body, and the data chunk's header
    with pytest.raises(cli.InputError, match=f"^cannot parse {re.escape(str(path))}: "):
        cli._read_input(path, lambda f: cli._wav_pcm(Shrinking(f.read()), cfg))


@settings(max_examples=150, deadline=None)
@given(
    cut=st.integers(0, len(SMALL_WAV)),
    # many of the edits land in the 44-byte header
    edits=st.lists(st.tuples(st.one_of(st.integers(0, 43), st.integers(0, len(SMALL_WAV) - 1)),
                             st.integers(0, 255)), max_size=6),
)
def test_damaged_wav_exits_with_a_code(cut, edits):
    data = bytearray(SMALL_WAV[:cut])
    for pos, value in edits:
        if pos < len(data):
            data[pos] = value
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "take.wav").write_bytes(bytes(data))
        (root / "cfg.json").write_text(json.dumps(SMALL_WAV_CFG))
        (root / "m.json").write_text(json.dumps(
            {"subjects": {"a": {"takes": ["take.wav"]}, "b": {"takes": ["take.wav"]}}}))
        with mock.patch.object(cli, "_take_feature", wraps=cli._take_feature) as take_feature:
            code = check_exit_contract(["acoustic", "--config", str(root / "cfg.json"),
                                        "--manifest", str(root / "m.json")], root / "room")
    # an input fault is found before the first take
    assert code != 2 or not take_feature.called
    if not edits and cut == len(SMALL_WAV):
        assert code == 0


def test_short_recording_exits_two_before_any_take(tmp_path, fast_cfg, capsys, monkeypatch):
    taken = []
    monkeypatch.setattr(cli, "_take_feature", lambda *a: taken.append(a))
    need = (FAST["repeats"] + 1) * (2 ** FAST["mls_order"] - 1)
    rng = np.random.default_rng(0)
    write_wav(tmp_path / "long.wav", rng.normal(size=need))
    path = tmp_path / "short.wav"
    write_wav(path, rng.normal(size=need - 1))
    manifest = tmp_path / "m.json"
    # the short take is the last subject's, so any take of the first would run first
    manifest.write_text(json.dumps({"subjects": {"a": {"takes": ["long.wav"]},
                                                 "s": {"takes": ["long.wav", path.name]}}}))
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot parse {path.resolve()} (subject 's'): recording holds {need - 1} "
        f"samples, need at least {need}\n")
    assert taken == []
    assert not (tmp_path / "o").exists()


def test_unfittable_mesh_exits_one(tmp_path, capsys):
    stl = tmp_path / "flat.stl"
    stl.write_text(ONE_FACET_STL)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"flat": "flat.stl"}}))
    code = main(["shape", "--out", str(tmp_path / "o"), "--manifest", str(manifest)])
    assert code == 1
    assert "flat" in capsys.readouterr().err
    # computational failure leaves no partial outputs behind
    assert not (tmp_path / "o").exists()


ONE_FACET_BINARY = write_binary_stl(parse_stl(ONE_FACET_STL.encode()))  # 134 bytes
MALFORMED_STL = {
    "truncated_binary": (ONE_FACET_BINARY[:124],
                         "binary STL declares 1 triangles (134 bytes) but file holds 124 bytes"),
    "binary_count_mismatch": (ONE_FACET_BINARY + bytes(50),
                              "binary STL declares 1 triangles (134 bytes) but file holds "
                              "184 bytes"),
    "ascii_bad_keyword": (ONE_FACET_STL.replace("outer loop", "outer lop").encode(),
                          "expected 'loop' in ASCII STL, got 'lop'"),
    # not 84 + 50·n bytes and starting with 'solid', so it is read as ASCII
    "solid_header_truncated_binary": (
        b"solid" + ONE_FACET_BINARY[5:124],
        "ASCII STL contains non-ASCII bytes: 'ascii' codec can't decode byte 0x80 in "
        "position 94: ordinal not in range(128)"),
    # the first vertex's x, after the 84-byte preamble and the facet's normal
    "nan_vertex": (ONE_FACET_BINARY[:96] + struct.pack("<f", np.nan) + ONE_FACET_BINARY[100:],
                   "mesh contains non-finite vertex coordinates"),
}


@pytest.mark.parametrize("data, reason", MALFORMED_STL.values(), ids=MALFORMED_STL.keys())
def test_malformed_stl_exits_two_naming_file_and_subject(tmp_path, corpus, capsys, data, reason):
    (tmp_path / "bad.stl").write_bytes(data)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"intact": str(corpus / "twin_b.stl"),
                                                 "bad": "bad.stl"}}))
    code = main(["shape", "--out", str(tmp_path / "o"), "--manifest", str(manifest)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot parse {(tmp_path / 'bad.stl').resolve()} (subject 'bad'): {reason}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.stl", "m.json"]


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type float64",
     "Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type float64"),
    ("", "MemoryError"),
], ids=["numpy", "bare"])
def test_out_of_memory_exits_one_with_an_error_line(tmp_path, fast_cfg, corpus, capsys,
                                                    monkeypatch, message, line):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "shape_center_fn", exhausted)
    room = tmp_path / "room"
    room.mkdir()
    code = main(["shape", "--config", str(fast_cfg), "--out", str(room / "o"),
                 "--manifest", str(corpus / "shape_manifest.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert list(room.iterdir()) == []


def check_exit_contract(argv, room):
    """Run ``main(argv)`` with ``--out`` in the fresh directory ``room`` and
    check the CLI contract on any input: an exit code of 0, 1 or 2, stderr
    of ``error: `` and ``warning: `` lines only, and on failure no
    ``--out`` and no staging directory beside it.  Returns the code."""
    room.mkdir()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(room / "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert all(line.startswith(("error: ", "warning: ")) for line in err.getvalue().splitlines())
    assert sorted(p.name for p in room.iterdir()) == ([] if code else ["o"])
    return code


@settings(max_examples=80, deadline=None)
@given(data=mutated_stl())
def test_shape_on_mutated_stl_keeps_the_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "in").mkdir()
        (root / "in" / "scan.stl").write_bytes(data)
        (root / "in" / "m.json").write_text(json.dumps({"subjects": {"scan": "scan.stl"}}))
        check_exit_contract(["shape", "--manifest", str(root / "in" / "m.json")], root / "room")


def ascii_stl(mesh: TriangleMesh, case) -> bytes:
    """``mesh`` as ASCII STL with its keywords spelled in ``case``; the
    numbers are exact, since every coordinate is a float32."""
    def xyz(p):
        return " ".join(repr(float(c)) for c in p)

    facets = "".join(
        f"facet normal {xyz(n)}\nouter loop\n"
        + "".join(f"vertex {xyz(v)}\n" for v in tri)
        + "endloop\nendfacet\n"
        for n, tri in zip(mesh.normals, mesh.vertices)
    )
    text = f"solid canal\n{facets}endsolid canal\n"
    return "\n".join(" ".join(case(w) for w in line.split(" ")) for line in text.split("\n")).encode()


@pytest.mark.parametrize("case", [str.upper, lambda w: w[:-2] + w[-2:].upper()],
                         ids=["capitals", "mixed"])
def test_shape_reads_ascii_stl_in_any_letter_case(tmp_path, fast_cfg, corpus, shape_out, case):
    subjects = {}
    for sid in ("twin_a", "twin_b"):
        mesh = parse_stl((corpus / f"{sid}.stl").read_bytes())
        (tmp_path / f"{sid}.stl").write_bytes(ascii_stl(mesh, case))
        subjects[sid] = f"{sid}.stl"
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": subjects}))
    out = tmp_path / "o"
    assert main(["shape", "--config", str(fast_cfg), "--out", str(out),
                 "--manifest", str(manifest)]) == 0
    for sid in subjects:
        assert (out / f"ec_{sid}.csv").read_bytes() == (shape_out / f"ec_{sid}.csv").read_bytes()


def test_shape_holds_one_mesh_at_a_time(tmp_path, fast_cfg, corpus, monkeypatch):
    blocks, alive = [], []

    def tracking_centroids(block):
        # how many earlier blocks are still alive as the next is used
        alive.append(sum(ref() is not None for ref in blocks))
        blocks.append(weakref.ref(block))
        return triangle_centroids(block)

    monkeypatch.setattr(mesh_module, "_CENTROID_BLOCK", 1000)
    monkeypatch.setattr(cli, "triangle_centroids", tracking_centroids)
    assert main(["shape", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(corpus / "shape_manifest.json")]) == 0
    assert alive == [0] * 20  # 4 meshes of 4,800 facets, 5 blocks each


BLOCK = 8  # facets a block in the block reader's tests
BLOCK_FILES = {
    **{f"binary_{n}": (lambda n=n: write_binary_stl(random_mesh(n, seed=n)))
       for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)},
    "binary_solid_header": lambda: (b"solid scan facet".ljust(80, b"\0")
                                    + write_binary_stl(random_mesh(3 * BLOCK + 7, seed=5))[80:]),
    "ascii": lambda: ascii_text(random_mesh(3 * BLOCK + 7, seed=6)),
}


@pytest.mark.parametrize("make", BLOCK_FILES.values(), ids=BLOCK_FILES.keys())
def test_block_reader_gives_the_whole_file_centroids(tmp_path, monkeypatch, make):
    data = make()
    want = triangle_centroids(parse_stl(data))
    sizes = []

    def counting_centroids(block):
        sizes.append(block.n_triangles)
        return triangle_centroids(block)

    monkeypatch.setattr(mesh_module, "_CENTROID_BLOCK", BLOCK)
    monkeypatch.setattr(cli, "triangle_centroids", counting_centroids)
    (tmp_path / "scan.stl").write_bytes(data)
    with open(tmp_path / "scan.stl", "rb") as f:
        got = cli._stl_centroids(f)
    assert got.dtype == np.float64 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    # a binary file a block at a time, any other file whole
    n = len(want)
    binary = len(data) == 84 + 50 * n
    assert sizes == ([BLOCK] * (n // BLOCK) + [n % BLOCK] * (n % BLOCK > 0) if binary else [n])


def test_nan_vertex_in_the_last_block_exits_two(tmp_path, corpus, capsys, monkeypatch):
    n = 3 * BLOCK + 7
    data = bytearray(write_binary_stl(random_mesh(n, seed=7)))
    at = 84 + 50 * (n - 1) + 12  # the last facet's first vertex x, after its normal
    data[at : at + 4] = struct.pack("<f", np.nan)
    (tmp_path / "bad.stl").write_bytes(data)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"intact": str(corpus / "twin_b.stl"),
                                                 "bad": "bad.stl"}}))
    monkeypatch.setattr(mesh_module, "_CENTROID_BLOCK", BLOCK)
    code = main(["shape", "--out", str(tmp_path / "o"), "--manifest", str(manifest)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot parse {(tmp_path / 'bad.stl').resolve()} (subject 'bad'): "
        "mesh contains non-finite vertex coordinates\n")


def test_binary_file_that_shrinks_as_it_is_read_is_truncated(tmp_path, monkeypatch):
    # blocks larger than the file buffer, so the cut is not read from it
    block = 1000
    monkeypatch.setattr(mesh_module, "_CENTROID_BLOCK", block)
    path = tmp_path / "scan.stl"
    path.write_bytes(write_binary_stl(random_mesh(3 * block + 7, seed=8)))
    with open(path, "rb") as f:
        n, meshes = stl_blocks(f)
        os.truncate(path, 84 + 50 * 2 * block + 20)  # 20 bytes into the third block
        assert n == 3 * block + 7
        assert next(meshes).n_triangles == block
        with pytest.raises(StlParseError, match="^truncated binary STL: the file ends in "
                                                "facet 2001 of 3007$"):
            list(meshes)


def test_center_track_peaks_near_twice_its_centroids(tmp_path):
    canal = dataclasses.replace(next(iter(make_subject_family(0))).canal,
                                facets_per_ring=250, rings=400)
    path = tmp_path / "scan.stl"
    path.write_bytes(write_binary_stl(generate_canal_mesh(canal)))
    centroid_bytes = 2 * 250 * 400 * 3 * 8
    tracemalloc.start()
    try:
        track = cli._center_track(path, "scan", PipelineConfig(delta_z=canal.length / 400))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert track.n_slices == 400
    # the centroids, their slicing order and the gathered xy pairs; a
    # whole file beside the centroids would add 50 bytes a facet
    assert peak < 2.2 * centroid_bytes


def test_outlier_vertex_exits_one_without_a_traceback(tmp_path, corpus):
    mesh = parse_stl((corpus / "twin_a.stl").read_bytes())
    vertices = mesh.vertices.copy()
    vertices[7, 1, 2] = 1e12  # one vertex a thousand km down the canal
    (tmp_path / "outlier.stl").write_bytes(
        write_binary_stl(TriangleMesh(vertices, mesh.normals)))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {
        "intact": str(corpus / "twin_b.stl"), "outlier": "outlier.stl"}}))
    proc = subprocess.run([sys.executable, "-m", "earcanal.cli", "shape", "--manifest",
                           str(manifest), "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: outlier: ")
    assert "slices of delta_z 0.1" in proc.stderr and "at most 1048576" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_single_subject_skips_matrix(tmp_path, fast_cfg, corpus, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(
        {"subjects": {"twin_a": str(corpus / "twin_a.stl")}}))
    out = tmp_path / "o"
    code = main(["shape", "--config", str(fast_cfg), "--out", str(out),
                 "--manifest", str(manifest)])
    assert code == 0
    assert "similarity matrix skipped" in capsys.readouterr().err
    assert (out / "ec_twin_a.csv").is_file()
    assert not (out / "shape_similarity.csv").exists()


def test_single_subject_acoustic_warns_once_per_run(tmp_path, fast_cfg, corpus, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(
        {"subjects": {"twin_a": {"plant": str(corpus / "twin_a_plant.json")}}}))
    # the warning goes through the module logger's one handler, however
    # often main runs, and to the stderr of the moment
    for run in range(2):
        assert main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / f"o{run}"),
                     "--manifest", str(manifest)]) == 0
        err = capsys.readouterr().err
        assert err == "warning: only one subject; similarity matrix skipped\n"
    assert not (tmp_path / "o1" / "acoustic_similarity.csv").exists()


def test_missing_inputs_exit_two(tmp_path, capsys):
    code = main(["shape", "--out", str(tmp_path / "o"),
                 "--manifest", str(tmp_path / "nope.json")])
    assert code == 2
    assert "no such file" in capsys.readouterr().err
    code = main(["correlate", "--out", str(tmp_path / "o"),
                 "--shape", str(tmp_path / "a.csv"), "--acoustic", str(tmp_path / "b.csv")])
    assert code == 2


def test_bad_config_exits_two(tmp_path, corpus, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mls_order": 1}))
    code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "mls_order" in capsys.readouterr().err
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"mystery_knob": 3}))
    code = main(["synth", "--config", str(unknown), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "mystery_knob" in capsys.readouterr().err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code = main(["synth", "--config", str(garbled), "--out", str(tmp_path / "o")])
    assert code == 2
    garbled.write_text("[1, 2]")
    code = main(["synth", "--config", str(garbled), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "a config must be a JSON object, got list" in capsys.readouterr().err
    # JSON types are checked at the boundary: no bool for a number, no
    # numeric string
    for field, value in (("takes", True), ("delta_z", "0.1")):
        typed = tmp_path / f"{field}.json"
        typed.write_text(json.dumps({field: value}))
        code = main(["synth", "--config", str(typed), "--out", str(tmp_path / "o")])
        assert code == 2
        assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["vector", "per_sample"])
def test_removed_similarity_mode_field_exits_two(tmp_path, corpus, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, "similarity_mode": value}))
    code = main(["acoustic", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(corpus / "acoustic_manifest.json")])
    assert code == 2
    assert "unknown config fields: ['similarity_mode']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_manifest_shape_exits_two(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {}}))
    code = main(["shape", "--out", str(tmp_path / "o"), "--manifest", str(manifest)])
    assert code == 2
    assert "nonempty" in capsys.readouterr().err
    manifest.write_text(json.dumps({"subjects": {"s": {"neither": 1}}}))
    code = main(["acoustic", "--out", str(tmp_path / "o"), "--manifest", str(manifest)])
    assert code == 2
    assert "'plant' path or a 'takes' list" in capsys.readouterr().err


PLANT_1 = {"schema": "plant/1", "q_factors": [5.0], "gains": [1.0], "tap_count": 2048, "seed": 0}
PLANT_OK = {**PLANT_1, "resonance_frequencies": [1000.0]}


@pytest.mark.parametrize("command, files, entry", [
    # a plant/1 generator without its resonance frequencies
    ("acoustic", {"p.json": PLANT_1}, {"plant": "p.json"}),
    # plant fields are typed like config fields, not coerced
    ("acoustic", {"p.json": {**PLANT_OK, "tap_count": 2048.9}}, {"plant": "p.json"}),
    ("acoustic", {"p.json": {**PLANT_OK, "tap_count": "2048"}}, {"plant": "p.json"}),
    ("acoustic", {"p.json": {**PLANT_OK, "seed": True}}, {"plant": "p.json"}),
    # read as resonances at 1 Hz and 2 Hz if coerced; these Qs let both decay
    ("acoustic", {"p.json": {**PLANT_OK, "resonance_frequencies": "12",
                             "q_factors": [0.001, 0.001], "gains": [1.0, 1.0]}},
     {"plant": "p.json"}),
    ("acoustic", {"p.json": {**PLANT_OK, "gains": [True]}}, {"plant": "p.json"}),
    ("acoustic", {"p.json": {**PLANT_OK, "mystery_knob": 3}}, {"plant": "p.json"}),
    # a plant JSON that is not an object
    ("acoustic", {"p.json": [1, 2]}, {"plant": "p.json"}),
    # literal taps are numbers in a list, with no other key beside them
    ("acoustic", {"p.json": {"taps": ["1", True, 0.5]}}, {"plant": "p.json"}),
    ("acoustic", {"p.json": {"taps": [1.0, True]}}, {"plant": "p.json"}),
    ("acoustic", {"p.json": {"taps": [[1.0], 0.5]}}, {"plant": "p.json"}),
    ("acoustic", {"p.json": {"taps": "12"}}, {"plant": "p.json"}),
    ("acoustic", {"p.json": {"taps": [10**400]}}, {"plant": "p.json"}),
    # json.dumps writes NaN and Infinity, and json.loads reads them back
    ("acoustic", {"p.json": {"taps": [float("nan"), 1.0]}}, {"plant": "p.json"}),
    ("acoustic", {"p.json": {"taps": [float("inf")]}}, {"plant": "p.json"}),
    ("acoustic", {"p.json": {"taps": []}}, {"plant": "p.json"}),
    ("acoustic", {"p.json": {"taps": [1.0, 0.5], "gain": 2.0}}, {"plant": "p.json"}),
    # a plant longer than one excitation period (65535 at the default order 16)
    ("acoustic", {"p.json": {"taps": [0.5] * 65536}}, {"plant": "p.json"}),
    ("acoustic", {"p.json": {**PLANT_OK, "tap_count": 65536}}, {"plant": "p.json"}),
    # gains this large overflow the resonator sum, which must raise no numpy warning
    pytest.param("acoustic", {"p.json": {
        "schema": "plant/1", "resonance_frequencies": [1000.0], "q_factors": [2.0],
        "gains": [1.5e308], "tap_count": 200, "direct_gain": 1.5e308, "seed": 2}},
        {"plant": "p.json"}, marks=pytest.mark.filterwarnings("error")),
    # a shape manifest entry that is not a path
    ("shape", {}, 5),
    # a takes entry that is one path instead of a list
    ("acoustic", {}, {"takes": "x.wav"}),
], ids=["plant_missing_field", "plant_tap_count_fraction", "plant_tap_count_string",
        "plant_seed_bool", "plant_frequencies_string", "plant_gains_bool", "plant_unknown_key",
        "plant_is_list", "taps_string_and_bool", "taps_bool", "taps_nested", "taps_string",
        "taps_int_too_large", "taps_nan", "taps_infinity", "taps_empty", "taps_unknown_key",
        "taps_longer_than_period", "tap_count_longer_than_period", "plant_gains_overflow", "shape_entry_number", "takes_is_string"])
def test_malformed_subject_inputs_exit_two(tmp_path, capsys, command, files, entry):
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"odd_one": entry}}))
    code = main([command, "--out", str(tmp_path / "o"), "--manifest", str(manifest)])
    assert code == 2
    err = capsys.readouterr().err
    # a plant file is named by the reader with its subject; a manifest
    # entry by the manifest's reader and its subject
    head = f"error: cannot parse {manifest}: subject 'odd_one': "
    if files:
        head = f"error: cannot parse {(tmp_path / 'p.json').resolve()} (subject 'odd_one'): "
    assert err.startswith(head) and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


LOUD_PLANT_1 = {"schema": "plant/1", "resonance_frequencies": [5000.0], "q_factors": [2.0],
                "tap_count": 250}


NAN_PLANT_1 = {**LOUD_PLANT_1, "gains": [1.0], "resonance_frequencies": [float("nan")]}


@pytest.mark.filterwarnings("error")
# ``config`` is raw JSON text, since json.dumps writes no number as 1e400
@pytest.mark.parametrize("plant, config, needle", [
    ({"taps": [1e308, 1e308]}, '"noise_rms": 0.5', "subject 'loud'"),
    ({"taps": [1e200, -1e200]}, '"noise_rms": 0.5', "subject 'loud'"),
    # each tap under the bound, the sum over
    ({"taps": [6e99, -4.1e99]}, '"noise_rms": 0.5', "subject 'loud'"),
    ({**LOUD_PLANT_1, "gains": [1e300]}, '"noise_rms": 0.5', "subject 'loud'"),
    ({"taps": [1.0, 0.5]}, '"noise_rms": 1e200', "noise_rms"),
    ({"taps": [1.0, 0.5]}, '"noise_rms": Infinity', "noise_rms"),
    ({"taps": [1.0, 0.5]}, '"noise_rms": NaN', "noise_rms"),
    ({"taps": [1.0, 0.5]}, '"delta_z": NaN', "delta_z must be finite"),
    ({"taps": [1.0, 0.5]}, '"delta_z": Infinity', "delta_z must be finite"),
    ({"taps": [1.0, 0.5]}, '"delta_z": 1e400', "delta_z must be finite"),
    ({"taps": [1.0, 0.5]}, '"band_low_hz": NaN', "band_low_hz must be finite"),
    ({"taps": [1.0, 0.5]}, '"band_high_hz": NaN', "band_high_hz must be finite"),
    (NAN_PLANT_1, '"noise_rms": 0.5', "subject 'loud'): resonance_frequencies must be finite"),
], ids=["taps_1e308", "taps_1e200", "taps_sum", "plant_gains_1e300", "noise_1e200",
        "noise_infinity", "noise_nan", "delta_z_nan", "delta_z_infinity", "delta_z_1e400",
        "band_low_nan", "band_high_nan", "plant_frequency_nan"])
def test_finite_but_huge_inputs_exit_two(tmp_path, capsys, plant, config, needle):
    (tmp_path / "p.json").write_text(json.dumps(plant))
    (tmp_path / "ok.json").write_text(json.dumps({"taps": [1.0, -0.5]}))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"ok": {"plant": "ok.json"},
                                                 "loud": {"plant": "p.json"}}}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, "mls_order": 8})[:-1] + f", {config}}}")
    code = main(["acoustic", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("plant, noise_rms", [
    ({"taps": [6e99, -3.99e99]}, 0.5),
    ({**LOUD_PLANT_1, "gains": [1e98]}, 9.99e99),
], ids=["taps", "plant_and_noise"])
def test_inputs_just_under_the_level_bound_run(tmp_path, plant, noise_rms):
    assert max(sum(abs(v) for v in plant.get("taps", [])), noise_rms) < MAX_LEVEL
    (tmp_path / "p.json").write_text(json.dumps(plant))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"loud": {"plant": "p.json"}}}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, "mls_order": 8, "noise_rms": noise_rms}))
    code = main(["acoustic", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 0
    feat = np.frombuffer((tmp_path / "o" / "feature_loud_00.f32").read_bytes(), "<f4")
    assert np.isfinite(feat).all()


@pytest.mark.filterwarnings("error")
def test_subnormal_plant_exits_one_without_a_warning(tmp_path, capsys):
    # the clamp floor of the minimum phase underflows to 0 on this response
    (tmp_path / "a.json").write_text(json.dumps({"taps": [5e-324]}))
    (tmp_path / "b.json").write_text(json.dumps({"taps": [1.0, 0.5]}))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"a": {"plant": "a.json"},
                                                 "b": {"plant": "b.json"}}}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mls_order": 4, "takes": 1, "noise_rms": 0}))
    code = main(["acoustic", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a take 0: cannot take the minimum phase") and "too small" in err
    assert not (tmp_path / "o").exists()


def test_huge_tap_count_is_rejected_before_the_plant_is_made(tmp_path, fast_cfg, capsys,
                                                             monkeypatch):
    def generate_plant(*args):
        pytest.fail("the plant was generated before its length was checked")

    monkeypatch.setattr(cli, "generate_plant", generate_plant)
    (tmp_path / "p.json").write_text(json.dumps({**PLANT_OK, "tap_count": 10**12}))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"big": {"plant": "p.json"}}}))
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot parse {(tmp_path / 'p.json').resolve()} (subject 'big'): 1000000000000 "
        "taps exceed one excitation period (4095 samples at mls_order 12)\n")


def test_literal_taps_plant_runs(tmp_path, fast_cfg):
    (tmp_path / "p.json").write_text(json.dumps({"taps": [1, 0.5, -0.25]}))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"a": {"plant": "p.json"},
                                                 "b": {"plant": "p.json"}}}))
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 0


UNSAFE_IDS = ["../../esc", "/abs", "sub/dir", "back\\slash", "nul\0byte", ".", "..", "",
              # ids a similarity CSV cannot carry
              "a,b", "#hash", "line\nbreak", "carriage\rreturn", "form\x0cfeed",
              "group\x1dsep", "next\x85line", "para\u2029sep"]


@pytest.mark.parametrize("sid", UNSAFE_IDS,
                         ids=["parent", "absolute", "subdir", "backslash", "nul", "dot",
                              "dotdot", "empty", "comma", "hash", "newline", "return",
                              "formfeed", "groupsep", "nextline", "parasep"])
@pytest.mark.parametrize("command", ["shape", "acoustic"])
def test_subject_id_that_is_not_a_file_name_exits_two(tmp_path, fast_cfg, corpus, capsys,
                                                      command, sid):
    root = tmp_path / "a" / "b"
    root.mkdir(parents=True)
    (root / "p.json").write_text(json.dumps({"taps": [1, 0.5, -0.25]}))
    entry = str(corpus / "twin_a.stl") if command == "shape" else {"plant": "p.json"}
    manifest = root / "m.json"
    manifest.write_text(json.dumps({"subjects": {sid: entry, "ok": entry}}))
    code = main([command, "--config", str(fast_cfg), "--out", str(root / "o"),
                 "--manifest", str(manifest)])
    assert code == 2
    assert f"subject id {sid!r}" in capsys.readouterr().err
    # nothing written, inside --out or above it
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "m.json", "p.json"]


@pytest.mark.parametrize("route", ["flag", "config"])
def test_negative_seed_exits_two_and_names_the_field(tmp_path, capsys, route):
    (tmp_path / "p.json").write_text(json.dumps({"taps": [1, 0.5, -0.25]}))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"a": {"plant": "p.json"},
                                                 "b": {"plant": "p.json"}}}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, **({"seed": -1} if route == "config" else {})}))
    argv = ["acoustic", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--manifest", str(manifest)]
    code = main(argv + (["--seed", "-1"] if route == "flag" else []))
    assert code == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# an integer beyond Python's 4,300-digit conversion limit, nesting
# deeper than the parser's recursion limit, and UTF-16, which
# json.loads would take as bytes
UNPARSEABLE = ['{"subjects": {"a": ' + "7" * 5000 + "}}", "[" * 100_000,
               json.dumps({"subjects": {"a": {"plant": "p.json"}}}).encode("utf-16")]


@pytest.mark.parametrize("text", UNPARSEABLE, ids=["long_integer", "deep_nesting", "utf_16"])
@pytest.mark.parametrize("route", ["manifest", "plant"])
def test_unparseable_json_exits_two_and_names_the_file(tmp_path, fast_cfg, capsys, route, text):
    manifest = tmp_path / "m.json"
    if route == "manifest":
        bad = manifest
    else:
        bad = tmp_path / "p.json"
        manifest.write_text(json.dumps({"subjects": {"a": {"plant": "p.json"}}}))
    (bad.write_bytes if isinstance(text, bytes) else bad.write_text)(text)
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 2
    whose = " (subject 'a')" if route == "plant" else ""
    assert capsys.readouterr().err.startswith(f"error: cannot parse {bad.resolve()}{whose}: ")
    assert not (tmp_path / "o").exists()


# each fault's one error line, after "error: "
BAND_FAULTS = {
    "odd_order": ({"filter_order": 3},
                  "invalid config: filter_order must be a positive even integer, got 3"),
    "high_edge_beyond_nyquist": ({"band_high_hz": 30000},
                                 "invalid config: high edge 30000 Hz is at or beyond Nyquist "
                                 "(22050.0 Hz)"),
    "edges_out_of_order": ({"band_low_hz": 23000},
                           "invalid config: band edges out of order: (23000, 22000.0) at fs "
                           "44100"),
    # the low edge rounds a pole onto the unit circle
    "pole_on_the_unit_circle": ({"band_low_hz": 1e-30},
                                "invalid config: the order-4 bandpass over (1e-30, 21829.5) Hz "
                                "at fs 44100 is unstable (pole modulus 1.000000); lower "
                                "filter_order or widen the band"),
    "order_past_the_bound": ({"filter_order": 2000},
                             "cannot parse {cfg}: filter_order must be at most 64"),
}


@pytest.mark.parametrize("fault", BAND_FAULTS.values(), ids=BAND_FAULTS.keys())
def test_band_and_filter_faults_exit_two_before_any_take(tmp_path, corpus, capsys, monkeypatch,
                                                         fault):
    fields, message = fault
    simulated = []
    monkeypatch.setattr(cli, "simulate_measurement", lambda *a: simulated.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, **fields}))
    code = main(["acoustic", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(corpus / "acoustic_manifest.json")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert simulated == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("last", [5, {"plant": 5}, {"takes": "x.wav"}, {"tap": "x.json"}],
                         ids=["number", "plant_number", "takes_string", "no_plant_or_takes"])
def test_malformed_last_entry_exits_two_before_any_take(tmp_path, corpus, capsys, monkeypatch,
                                                        last):
    simulated = []
    monkeypatch.setattr(cli, "simulate_measurement", lambda *a: simulated.append(a))
    subjects = json.loads((corpus / "acoustic_manifest.json").read_text())["subjects"]
    assert list(subjects)[-1] == "twin_b"
    subjects = {sid: {"plant": str(corpus / entry["plant"])} for sid, entry in subjects.items()}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {**subjects, "twin_b": last}}))
    code = main(["acoustic", "--out", str(tmp_path / "o"), "--manifest", str(manifest)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse {manifest}: subject 'twin_b': ")
    assert err.count("\n") == 1
    assert simulated == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("plant", [{"taps": "12"}, {**PLANT_OK, "tap_count": 10**6}],
                         ids=["taps_string", "longer_than_period"])
def test_malformed_last_plant_exits_two_before_any_take(tmp_path, corpus, capsys, monkeypatch,
                                                        plant):
    simulated = []
    monkeypatch.setattr(cli, "simulate_measurement", lambda *a: simulated.append(a))
    subjects = json.loads((corpus / "acoustic_manifest.json").read_text())["subjects"]
    assert list(subjects)[-1] == "twin_b"
    subjects = {sid: {"plant": str(corpus / entry["plant"])} for sid, entry in subjects.items()}
    (tmp_path / "p.json").write_text(json.dumps(plant))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {**subjects, "twin_b": {"plant": "p.json"}}}))
    code = main(["acoustic", "--out", str(tmp_path / "o"), "--manifest", str(manifest)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse {(tmp_path / 'p.json').resolve()} "
                          "(subject 'twin_b'): ")
    assert err.count("\n") == 1
    assert simulated == []
    assert not (tmp_path / "o").exists()


def malformed_wavs():
    """{case: bytes} of WAV files the header check refuses."""
    buf = io.BytesIO()
    wavfile.write(buf, 44100, np.zeros(64, dtype=np.int16))
    whole = buf.getvalue()
    cases = {"not_riff": b"RIFX" + whole[4:], "data_cut": whole[:-10],
             "no_data_chunk": whole[:36]}
    for case, rate, samples in (("rate_48000", 48000, np.zeros(64, dtype=np.int16)),
                                ("stereo", 44100, np.zeros((64, 2), dtype=np.int16)),
                                ("float32", 44100, np.zeros(64, dtype=np.float32)),
                                ("pcm_8_bit", 44100, np.zeros(64, dtype=np.uint8))):
        buf = io.BytesIO()
        wavfile.write(buf, rate, samples)
        cases[case] = buf.getvalue()
    return cases


MALFORMED_WAVS = malformed_wavs()


@pytest.mark.parametrize("case", list(MALFORMED_WAVS))
def test_malformed_last_wav_exits_two_before_any_take(tmp_path, corpus, capsys, monkeypatch,
                                                      case):
    simulated, taken = [], []
    monkeypatch.setattr(cli, "simulate_measurement", lambda *a: simulated.append(a))
    monkeypatch.setattr(cli, "_take_feature", lambda *a: taken.append(a))
    subjects = json.loads((corpus / "acoustic_manifest.json").read_text())["subjects"]
    assert list(subjects)[-1] == "twin_b"
    subjects = {sid: {"plant": str(corpus / entry["plant"])} for sid, entry in subjects.items()}
    # the (repeats + 1) periods the default config takes
    need = (PipelineConfig().repeats + 1) * (2 ** PipelineConfig().mls_order - 1)
    wavfile.write(tmp_path / "good.wav", 44100, np.zeros(need, dtype=np.int16))
    (tmp_path / "bad.wav").write_bytes(MALFORMED_WAVS[case])
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {
        **subjects, "twin_b": {"takes": ["good.wav", "bad.wav"]}}}))
    code = main(["acoustic", "--out", str(tmp_path / "o"), "--manifest", str(manifest)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse {(tmp_path / 'bad.wav').resolve()} "
                          "(subject 'twin_b'): "), err
    assert err.count("\n") == 1
    assert simulated == [] and taken == []
    assert not (tmp_path / "o").exists()


def rerun_argv(command, corpus, fast_cfg, shape_out, acoustic_out, tmp_path):
    """``(argv, out)`` of a run of ``command`` into the directory a
    finished run of the same command wrote."""
    cfg = ["--config", str(fast_cfg)]
    if command == "synth":
        return ["synth", *cfg, "--seed", "3"], corpus
    if command == "shape":
        # one subject into a four-subject run's directory: the stale-files case
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"subjects": {"twin_a": str(corpus / "twin_a.stl")}}))
        return ["shape", *cfg, "--manifest", str(one)], shape_out
    if command == "acoustic":
        return ["acoustic", *cfg, "--manifest", str(corpus / "acoustic_manifest.json")], \
            acoustic_out
    argv = ["correlate", *cfg, "--shape", str(shape_out / "shape_similarity.csv"),
            "--acoustic", str(acoustic_out / "acoustic_similarity.csv")]
    assert main([*argv, "--out", str(tmp_path / "report")]) == 0
    return [*argv, "--pair", "twin_a,twin_b"], tmp_path / "report"


@pytest.mark.parametrize("command", ["synth", "shape", "acoustic", "correlate"])
def test_rerun_into_a_written_out_exits_two_and_keeps_its_files(
        tmp_path, fast_cfg, corpus, shape_out, acoustic_out, capsys, command):
    argv, out = rerun_argv(command, corpus, fast_cfg, shape_out, acoustic_out, tmp_path)
    before = read_tree(out)
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out {out} exists and is not an empty directory\n"
    assert read_tree(out) == before


def test_out_that_is_a_file_exits_two(tmp_path, fast_cfg, capsys):
    out = tmp_path / "o"
    out.write_text("kept")
    assert main(["synth", "--config", str(fast_cfg), "--out", str(out)]) == 2
    assert "is not an empty directory" in capsys.readouterr().err
    assert out.read_text() == "kept"


def test_out_that_is_an_empty_directory_receives_the_run(tmp_path, fast_cfg, corpus):
    out = tmp_path / "o"
    out.mkdir()
    assert main(["synth", "--config", str(fast_cfg), "--out", str(out)]) == 0
    assert read_tree(out) == read_tree(corpus)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]


def test_out_dot_names_the_working_directory(tmp_path, fast_cfg, corpus, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["synth", "--config", str(fast_cfg), "--out", "."]) == 0
    assert read_tree(work) == read_tree(corpus)


def fail_third_write(monkeypatch):
    """Make the third file write of the run raise OSError."""
    writes = []

    def patched(original):
        def write(self, data, *args, **kwargs):
            writes.append(self)
            if len(writes) == 3:
                raise OSError(28, "No space left on device", str(self))
            return original(self, data, *args, **kwargs)
        return write

    monkeypatch.setattr(Path, "write_text", patched(Path.write_text))
    monkeypatch.setattr(Path, "write_bytes", patched(Path.write_bytes))
    return writes


@pytest.mark.parametrize("command", ["shape", "synth_sweep"])
def test_failed_write_leaves_no_out_and_no_staging_directory(tmp_path, fast_cfg, corpus, capsys,
                                                            monkeypatch, command):
    root = tmp_path / "runs"
    root.mkdir()
    if command == "shape":
        argv = ["shape", "--config", str(fast_cfg),
                "--manifest", str(corpus / "shape_manifest.json")]
    else:
        argv = ["synth", "--config", str(fast_cfg), "--sweep", "0.05,0.2"]
    writes = fail_third_write(monkeypatch)
    code = main([*argv, "--out", str(root / "o")])
    assert code == 2
    assert "No space left on device" in capsys.readouterr().err
    assert len(writes) == 3
    assert list(root.iterdir()) == []


def test_failed_write_into_an_empty_out_leaves_it_empty(tmp_path, fast_cfg, monkeypatch):
    out = tmp_path / "o"
    out.mkdir()
    fail_third_write(monkeypatch)
    assert main(["synth", "--config", str(fast_cfg), "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


def test_published_directories_have_the_mode_of_a_plain_mkdir(tmp_path, fast_cfg):
    old = os.umask(0o027)
    try:
        (tmp_path / "plain").mkdir()
        out = tmp_path / "o"
        assert main(["synth", "--config", str(fast_cfg), "--out", str(out),
                     "--sweep", "0.05"]) == 0
    finally:
        os.umask(old)
    mode = (tmp_path / "plain").stat().st_mode
    assert out.stat().st_mode == mode
    assert (out / "perturbation_0.05").stat().st_mode == mode


def test_input_limit_admits_a_million_facet_ascii_stl():
    # the benchmark's 32k-facet ASCII STL is 9.7 MB: about 300 bytes a facet
    assert cli.MAX_INPUT_BYTES >= 10**6 * 300


@pytest.mark.parametrize("route", ["config", "manifest", "stl", "plant", "wav", "csv"])
def test_input_past_the_size_limit_exits_two_before_it_is_read(tmp_path, shape_out, capsys,
                                                               monkeypatch, route):
    limit = 4096
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", limit)
    big = tmp_path / "big"
    with open(big, "wb") as f:
        os.truncate(f.fileno(), limit + 1)  # sparse: no block is written
    (tmp_path / "cfg.json").write_text(json.dumps(FAST))
    cfg = big if route == "config" else tmp_path / "cfg.json"
    entries = {"stl": str(big), "plant": {"plant": str(big)}, "wav": {"takes": [str(big)]}}
    (tmp_path / "m.json").write_text(json.dumps(
        {"subjects": {"s": entries.get(route, {"plant": str(big)})}}))
    manifest = big if route == "manifest" else tmp_path / "m.json"
    if route == "csv":
        argv = ["correlate", "--shape", str(shape_out / "shape_similarity.csv"),
                "--acoustic", str(big)]
    else:
        argv = ["shape" if route == "stl" else "acoustic", "--manifest", str(manifest)]
    opened = []
    path_open = Path.open
    monkeypatch.setattr(Path, "open",
                        lambda self, *a, **k: opened.append(self) or path_open(self, *a, **k))
    code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    whose = " (subject 's')" if route in ("stl", "plant", "wav") else ""
    assert capsys.readouterr().err == (
        f"error: {big}{whose}: {limit + 1} bytes exceed the input limit of {limit} bytes\n")
    assert big not in opened
    assert not (tmp_path / "o").exists()


# Arbitrary JSON, with integers kept small: every integer config field
# scales some work, and the contract concerns exit codes, not run time.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def spoiled(draw, objects):
    """A plausible JSON object, or the same with one value replaced by
    arbitrary JSON, or arbitrary JSON instead of an object: inputs that
    fail at every depth of the reading code, not only at its first check."""
    d = draw(objects)
    # mostly plausible, so that examples also reach the computation
    # behind the reading code
    how = draw(st.sampled_from(["plausible"] * 4 + ["one_value", "anything"]))
    if how == "one_value":
        d[draw(st.sampled_from(sorted(d) + ["extra"]))] = draw(JSON_VALUES)
    return draw(JSON_VALUES) if how == "anything" else d


FLOATS = st.lists(st.floats(-10, 10_000), min_size=1, max_size=2)
CONFIGS = spoiled(st.fixed_dictionaries(
    # mls_order and takes are always given, so no example runs the
    # full-size default chain
    {"mls_order": st.integers(2, 9), "takes": st.integers(1, 3)},
    optional={
        "delta_z": st.floats(0.01, 1), "theta_samples": st.integers(4, 64),
        "min_slice_points": st.integers(5, 9), "sample_rate": st.sampled_from([8000, 44100]),
        "repeats": st.integers(1, 3), "noise_rms": st.floats(0, 1),
        "trim_threshold": st.floats(0.01, 0.99), "band_low_hz": st.floats(1, 5000),
        "band_high_hz": st.floats(100, 25_000),
        "filter_order": st.sampled_from([2, 4, 8, 40, 2000]),
        "feature_length": st.integers(1, 64), "seed": st.integers(0, 3),
    },
))
PLANTS = st.one_of(
    spoiled(st.fixed_dictionaries({"taps": st.lists(st.floats(-1, 1), min_size=1, max_size=8)})),
    spoiled(st.fixed_dictionaries({
        "schema": st.just("plant/1"), "resonance_frequencies": FLOATS, "q_factors": FLOATS,
        "gains": FLOATS,
    }, optional={"tap_count": st.integers(0, 300), "seed": st.integers(0, 3),
                 "direct_gain": st.floats(-1, 1)})),
)
# Subject ids are arbitrary text, and sometimes one that is not a
# plain file name: such a manifest must exit 2 before anything is written.
MANIFESTS = spoiled(st.fixed_dictionaries({"subjects": st.dictionaries(
    st.text(max_size=4) | st.sampled_from(UNSAFE_IDS),
    st.one_of(
        spoiled(st.fixed_dictionaries({"plant": st.sampled_from(["p0.json", "p1.json", "x"])})),
        spoiled(st.fixed_dictionaries({"takes": st.lists(st.just("t.wav"), max_size=2)})),
        st.sampled_from(["mesh.stl", "p0.json"]),
    ),
    min_size=1, max_size=3,
)}))


@settings(max_examples=120, deadline=None)
@given(config=CONFIGS, manifest=MANIFESTS, plants=st.tuples(PLANTS, PLANTS))
def test_any_json_input_exits_with_a_code(config, manifest, plants):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "cfg.json").write_text(json.dumps(config))
        (root / "m.json").write_text(json.dumps(manifest))
        for i, plant in enumerate(plants):
            (root / f"p{i}.json").write_text(json.dumps(plant))
        (root / "t.wav").write_bytes(SMALL_WAV)
        (root / "mesh.stl").write_text(ONE_FACET_STL)
        subjects = manifest.get("subjects") if isinstance(manifest, dict) else None
        unsafe = isinstance(subjects, dict) and any(
            sid in ("", ".", "..") or any(c in sid for c in "/\\\0") for sid in subjects)
        for command in ("acoustic", "shape"):
            with mock.patch.object(cli, "_take_feature", wraps=cli._take_feature) as take_feature:
                code = check_exit_contract([command, "--config", str(root / "cfg.json"),
                                            "--manifest", str(root / "m.json")], root / command)
            assert code == 2 or not unsafe
            # an input fault is found before the first take
            assert code != 2 or not take_feature.called


def small_csvs():
    """Shape and acoustic similarity CSVs of four subjects, the acoustic
    one with ``mean±std`` cells."""
    ids = ("a", "b", "c", "d")
    rng = np.random.default_rng(2)
    texts = []
    for spread in (None, 0.05):
        v = rng.uniform(-1, 1, (4, 4))
        v = (v + v.T) / 2
        np.fill_diagonal(v, np.nan)
        stds = None if spread is None else np.abs(v) * spread
        texts.append(SimilarityMatrix(ids, v, stds=stds).to_csv().encode())
    return texts


SMALL_CSVS = small_csvs()
# the separators and number pieces of the format, an undecodable byte,
# and any short run of bytes
CSV_PIECES = st.sampled_from([b"", b",", b"\n", b"#", b"-", b"e9", b"nan", "±".encode(),
                              b"\xb1"]) | st.binary(max_size=2)


@st.composite
def mutated_csv(draw, data):
    """``data``, perhaps cut short, with up to three bytes each replaced
    by a piece from ``CSV_PIECES``."""
    out = bytearray(data)
    if draw(st.sampled_from([False] * 3 + [True])):
        del out[draw(st.integers(0, len(out))):]
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(out)))
        out[pos:pos + 1] = draw(CSV_PIECES)
    return bytes(out)


@settings(max_examples=100, deadline=None)
@given(shape=mutated_csv(SMALL_CSVS[0]), acoustic=mutated_csv(SMALL_CSVS[1]),
       pair=st.sampled_from([[], ["--pair", "a,b"]]))
def test_correlate_on_mutated_csv_keeps_the_exit_contract(shape, acoustic, pair):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "shape.csv").write_bytes(shape)
        (root / "acoustic.csv").write_bytes(acoustic)
        code = check_exit_contract(["correlate", "--shape", str(root / "shape.csv"),
                                    "--acoustic", str(root / "acoustic.csv"), *pair],
                                   root / "room")
    if (shape, acoustic) == tuple(SMALL_CSVS):
        assert code == 0


def source_env():
    """Child-process environment that imports the same earcanal as this process."""
    env = dict(os.environ)
    src = str(Path(earcanal.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def declared_entry_point():
    """The ``earcanal`` target declared under ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["earcanal"]


def test_console_script_runs():
    env = source_env()
    proc = subprocess.run([sys.executable, "-m", "earcanal.cli", "synth", "--out"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2  # argparse usage error

    # The console script is an install artefact; check what it would run.
    module, _, attr = declared_entry_point().partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    # the same call the installer's generated wrapper makes
    wrapper = f"import sys; from {module} import {attr}; sys.argv[0] = 'earcanal'; sys.exit({attr}())"
    proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "shape" in proc.stdout and "correlate" in proc.stdout


@pytest.mark.skipif(shutil.which("earcanal") is None,
                    reason="earcanal console script is not installed on PATH")
def test_installed_console_script_runs():
    proc = subprocess.run(["earcanal", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "shape" in proc.stdout and "correlate" in proc.stdout


def test_importing_the_package_loads_no_scipy():
    code = ("import sys, earcanal, earcanal.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
