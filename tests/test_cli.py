"""End-to-end CLI behaviour: subcommands, exit codes, reproducibility."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import earcanal
from earcanal import cli
from earcanal.acoustics import (
    ImpulseResponse,
    acoustic_similarity_matrix,
    generate_mls,
    recover_impulse_response,
    response_feature,
    simulate_measurement,
)
from earcanal.analysis import SimilarityMatrix
from earcanal.cli import main, write_wav
from earcanal.synth import PlantGenerator, generate_plant

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
    pairs = matrix.off_diagonal_pairs()
    assert len(pairs) == 6
    assert all(-1.0 <= v <= 1.0 for _, _, v in pairs)


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


def test_correlate_pair_validation(tmp_path, shape_out, acoustic_out, capsys):
    base = ["correlate", "--out", str(tmp_path / "r"),
            "--shape", str(shape_out / "shape_similarity.csv"),
            "--acoustic", str(acoustic_out / "acoustic_similarity.csv")]
    assert main(base + ["--pair", "twin_a"]) == 2
    assert "--pair" in capsys.readouterr().err
    assert main(base + ["--pair", "twin_a,nobody"]) == 2
    assert "nobody" in capsys.readouterr().err


def test_correlate_rejects_mismatched_subjects(tmp_path, shape_out, acoustic_out, capsys):
    clipped = tmp_path / "clipped.csv"
    matrix = SimilarityMatrix.from_csv((acoustic_out / "acoustic_similarity.csv").read_text())
    keep = [sid for sid in matrix.ids if sid != "subject_d"]
    sub = SimilarityMatrix(
        ids=tuple(keep),
        values=np.array([[np.nan if a == b else matrix.cell(a, b) for b in keep]
                         for a in keep]),
        kind=matrix.kind,
    )
    clipped.write_text(sub.to_csv())
    code = main(["correlate", "--out", str(tmp_path / "r"),
                 "--shape", str(shape_out / "shape_similarity.csv"),
                 "--acoustic", str(clipped)])
    assert code == 2
    assert "different subjects" in capsys.readouterr().err


def test_wav_takes_route(tmp_path, fast_cfg):
    taps = 0.9 ** np.arange(256)
    plant = ImpulseResponse(taps, 44100, "raw")
    excitation = generate_mls(12, 44100)
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
    excitation = generate_mls(cfg["mls_order"], 44100)
    feats = []
    for sid, takes in recordings:
        for take, rec in enumerate(takes):
            raw = recover_impulse_response(rec, excitation, cfg["repeats"])
            feats.append((sid, take, response_feature(raw, subject_id=sid, take_index=take)))
    return feats


def assert_acoustic_output(out, feats):
    for sid, take, feat in feats:
        stored = (out / f"feature_{sid}_{take:02d}.f32").read_bytes()
        assert stored == feat.samples.astype("<f4").tobytes(), (sid, take)
        assert (out / f"feature_{sid}_{take:02d}.json").is_file()
    expected = acoustic_similarity_matrix(feats).to_csv()
    assert (out / "acoustic_similarity.csv").read_text() == expected


@pytest.fixture(params=["machine", "thread_per_take"])
def workers(request, monkeypatch):
    """The worker count the machine gives, and one thread per take with
    frequent thread switches."""
    if request.param == "machine":
        yield
        return
    monkeypatch.setattr(cli, "_workers", lambda takes: takes)
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
    excitation = generate_mls(cfg["mls_order"], 44100)
    recordings = []
    for sidx, (sid, entry) in enumerate(json.loads(manifest.read_text())["subjects"].items()):
        spec = json.loads((corpus / entry["plant"]).read_text())
        plant = generate_plant(PlantGenerator.from_dict(spec))
        recordings.append((sid, [
            simulate_measurement(excitation, plant, cfg["repeats"], cfg["noise_rms"],
                                 np.random.default_rng([cfg["seed"], sidx, take]))
            for take in range(cfg["takes"])
        ]))
    assert_acoustic_output(out, serial_features(cfg, recordings))


def test_threaded_wav_takes_match_serial_reference(tmp_path, fast_cfg, workers):
    excitation = generate_mls(FAST["mls_order"], 44100)
    subjects, recordings = {}, []
    for k, sid in enumerate(("wav_a", "wav_b", "wav_c")):
        plant = ImpulseResponse((0.8 + 0.05 * k) ** np.arange(200), 44100, "raw")
        names, takes = [], []
        for take in range(3):
            rec = simulate_measurement(excitation, plant, FAST["repeats"], 0.01, [k, take])
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


def test_failing_take_exits_one_and_writes_nothing(tmp_path, fast_cfg, workers, capsys):
    excitation = generate_mls(FAST["mls_order"], 44100)
    good = simulate_measurement(excitation, 0.5 ** np.arange(8), FAST["repeats"])
    write_wav(tmp_path / "good.wav", good)
    # a silent take recovers an all-zero response; a short one cannot be recovered
    wavfile.write(tmp_path / "silent.wav", 44100, np.zeros(good.shape[0], dtype=np.int16))
    write_wav(tmp_path / "short.wav", good[:1000])
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {
        "a": {"takes": ["good.wav", "good.wav"]},
        "b": {"takes": ["good.wav", "silent.wav", "short.wav", "good.wav"]},
    }}))
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 1
    err = capsys.readouterr().err
    # the first failing take in take order is the one reported
    assert err == "error: cannot trim an all-zero response\n"
    assert not (tmp_path / "o").exists()


def test_wav_with_wrong_rate_is_rejected(tmp_path, fast_cfg, capsys):
    path = tmp_path / "bad.wav"
    wavfile.write(path, 48000, np.zeros(1000, dtype=np.int16))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"s": {"takes": [path.name]}}}))
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 2
    err = capsys.readouterr().err
    assert "expected 44100 Hz, got 48000 Hz" in err
    assert "no resampling" in err


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


def test_short_recording_exits_one(tmp_path, fast_cfg, capsys):
    path = tmp_path / "short.wav"
    rng = np.random.default_rng(0)
    write_wav(path, rng.normal(size=1000))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subjects": {"s": {"takes": [path.name]}}}))
    code = main(["acoustic", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
                 "--manifest", str(manifest)])
    assert code == 1
    assert "need at least" in capsys.readouterr().err


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
