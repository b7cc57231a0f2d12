"""Batch command-line interface.

Four subcommands cover the pipeline end to end:

* ``synth``       write a synthetic subject corpus (STL meshes, plant
                  JSONs, manifests) for a given seed;
* ``shape``       STL meshes -> slice-center tracks -> shape similarity
                  matrix CSV;
* ``acoustic``    plant JSONs or recorded WAV takes -> response features
                  -> acoustic similarity matrix CSV;
* ``correlate``   the two matrix CSVs -> per-subject regression report
                  (CSV, SVG plots, JSON summary).

Every command takes ``--config`` (JSON), ``--out`` (directory), and
``--seed``.  ``--out`` must be absent or an empty directory.  A command
returns its files, the resolved config among them, and :func:`main`
publishes them all or none.  Rerunning a command with identical config
and seed into a fresh directory reproduces byte-identical outputs.
Exit codes: 0 success, 1 computational failure, 2 input/config failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import logging
import os
import shutil
import struct
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from earcanal.acoustics import (
    acoustic_similarity_matrix,
    butterworth_bandpass,
    correlate_period,
    generate_mls,
    noisy_period_mean,
    recover_impulse_response,
    response_feature,
    simulate_measurement,
)
from earcanal.analysis import SimilarityMatrix, emit_report
from earcanal.config import MAX_INPUT_BYTES, MAX_LEVEL, PipelineConfig, check_subject_id, json_text
from earcanal.mesh import slice_centroids, stl_blocks, triangle_centroids, write_binary_stl
from earcanal.shape import ShapeCenterFn, shape_center_fn, shape_similarity_matrix
from earcanal.synth import (
    PlantGenerator,
    generate_canal_mesh,
    generate_plant,
    make_subject_family,
)


class InputError(Exception):
    """Unusable input or configuration (exit code 2)."""


class _StderrHandler(logging.Handler):
    """Writes ``<level>: <message>`` to ``sys.stderr`` as it is when the
    record is emitted, so a redirected or captured stderr receives it."""

    def emit(self, record: logging.LogRecord) -> None:
        try:
            print(f"{record.levelname.lower()}: {self.format(record)}", file=sys.stderr)
        except Exception:
            self.handleError(record)


log = logging.getLogger(__name__)
log.addHandler(_StderrHandler())


def _read_input(path: Path, parse, sid=None):
    """``parse`` of the input file ``path``, open for binary reading; every
    input file is opened here.  A file larger than ``MAX_INPUT_BYTES`` is
    refused before it is opened, and whatever ``parse`` rejects is an
    InputError naming the file and, when ``sid`` is given, its subject."""
    whose = "" if sid is None else f" (subject {sid!r})"
    if not path.is_file():
        raise InputError(f"no such file: {path}{whose}")
    size = path.stat().st_size
    if size > MAX_INPUT_BYTES:
        raise InputError(f"{path}{whose}: {size} bytes exceed the input limit of "
                         f"{MAX_INPUT_BYTES} bytes")
    try:
        with path.open("rb") as f:
            return parse(f)
    # ValueError covers malformed JSON, bad UTF-8 and integers too long
    # to convert; TypeError, a value of the wrong JSON type; OverflowError,
    # an integer too large for a float; RecursionError, nesting too deep
    # for the JSON parser; struct.error, a file cut short as it is read
    except (TypeError, ValueError, OverflowError, RecursionError, struct.error) as exc:
        raise InputError(f"cannot parse {path}{whose}: {exc}") from None


def _json(f):
    # UTF-8 only: json.loads would also take bytes in UTF-16 or UTF-32
    return json.loads(f.read().decode("utf-8"))


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig() if args.config is None else _read_input(
        Path(args.config), lambda f: PipelineConfig.from_dict(_json(f)))
    if args.seed is not None:
        try:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        except ValueError as exc:
            raise InputError(f"invalid --seed {args.seed}: {exc}") from None
    return cfg


def _manifest_subjects(f, base: Path, entry) -> dict:
    """The ``subjects`` object of a manifest file ``f``, its ids checked and
    each value resolved by ``entry(base, value)``, ``base`` the manifest's
    directory, so that every entry is checked before any subject is read."""
    manifest = _json(f)
    subjects = manifest.get("subjects") if isinstance(manifest, dict) else None
    if not isinstance(subjects, dict) or not subjects:
        raise ValueError("manifest must map 'subjects' to a nonempty object")
    resolved = {}
    for sid, value in subjects.items():
        check_subject_id(sid)
        try:
            resolved[sid] = entry(base, value)
        except ValueError as exc:
            raise ValueError(f"subject {sid!r}: {exc}") from None
    return resolved


def _entry_path(base: Path, rel) -> Path:
    """A manifest path, which is relative to the manifest's directory."""
    if not isinstance(rel, str):
        raise ValueError(f"manifest paths must be strings, got {rel!r}")
    return (base / rel).resolve()


_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# an EXTENSIBLE header names its format by a GUID whose first two bytes
# are the format tag and whose remaining bytes are these
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _wav_pcm(f, cfg: PipelineConfig) -> tuple:
    """``(offset, count)`` of the 16-bit samples of the first data chunk
    of the RIFF/WAVE file ``f``, judged from its chunk headers alone: mono
    16-bit PCM at ``cfg.sample_rate``, holding ``cfg.repeats + 1`` periods.

    Chunks other than ``fmt `` and ``data`` are sought past, together
    with the pad byte that follows a chunk of odd size.  A
    WAVE_FORMAT_EXTENSIBLE header reports the tag of its sub-format.
    Raises ValueError on anything it cannot read or does not take.
    """
    head = f.read(12)
    if head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    end = f.seek(0, os.SEEK_END)
    fmt = None
    pos = 12
    while pos + 8 <= end:
        f.seek(pos)
        chunk_id, size = struct.unpack("<4sI", f.read(8))
        if end - pos - 8 < size:
            raise ValueError(f"{chunk_id!r} chunk holds {end - pos - 8} of its {size} bytes")
        if chunk_id == b"fmt ":
            if size < 16:
                raise ValueError(f"fmt chunk of {size} bytes, need at least 16")
            body = f.read(min(size, 40))
            tag, channels, rate, _byte_rate, align, bits = struct.unpack_from("<HHIIHH", body)
            if tag == _WAVE_FORMAT_EXTENSIBLE:
                if size < 40 or body[26:40] != _SUBFORMAT_GUID_TAIL:
                    raise ValueError("WAVE_FORMAT_EXTENSIBLE header without a known sub-format")
                tag = struct.unpack_from("<H", body, 24)[0]
            fmt = (tag, channels, rate, bits, align)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("data chunk before the fmt chunk")
            break
        pos += 8 + size + size % 2
    else:
        raise ValueError("no data chunk")
    tag, channels, rate, bits, align = fmt
    if rate != cfg.sample_rate:
        raise ValueError(f"expected {cfg.sample_rate} Hz, got {rate} Hz (no resampling)")
    if channels != 1:
        raise ValueError(f"expected mono audio, got {channels} channels")
    if tag != _WAVE_FORMAT_PCM or bits != 16 or align != 2:
        raise ValueError(
            f"expected 16-bit PCM, got format {tag:#06x}, {bits} bits in {align}-byte blocks"
        )
    count, need = size // 2, (cfg.repeats + 1) * (2**cfg.mls_order - 1)
    if count < need:
        raise ValueError(f"recording holds {count} samples, need at least {need}")
    return pos + 8, count


def _publish(out: Path, files: dict) -> None:
    """Write ``files``, ``{path relative to out: str | bytes}``, into a
    fresh directory beside ``out`` and rename that onto ``out``, absent
    or an empty directory.  On failure nothing is left in or beside it."""
    out.parent.mkdir(parents=True, exist_ok=True)
    holder = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        # made by mkdir, so it gets the usual mode, not mkdtemp's 0o700
        stage = holder / out.name
        stage.mkdir()
        for rel, data in files.items():
            path = stage / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(data, bytes):
                path.write_bytes(data)
            else:
                path.write_text(data)
        os.rename(stage, out)
    finally:
        shutil.rmtree(holder, ignore_errors=True)


def _stl_centroids(f) -> np.ndarray:
    """The triangle centroids of the STL file ``f``, made a block of facets at a time."""
    n, meshes = stl_blocks(f)
    centroids, start = np.empty((n, 3)), 0
    for block in meshes:
        centroids[start : start + block.n_triangles] = triangle_centroids(block)
        start += block.n_triangles
    return centroids


def _center_track(stl_path: Path, sid, cfg: PipelineConfig) -> ShapeCenterFn:
    """One subject's center track; its centroids are freed before the next are made."""
    slices = slice_centroids(_read_input(stl_path, _stl_centroids, sid), cfg.delta_z)
    return shape_center_fn(slices, cfg.min_slice_points)


def cmd_shape(args) -> dict:
    cfg = _load_config(args)
    manifest = Path(args.manifest)
    subjects = _read_input(manifest, lambda f: _manifest_subjects(f, manifest.parent, _entry_path))

    tracks = []
    failures = []
    for sid, stl_path in subjects.items():
        try:
            tracks.append((sid, _center_track(stl_path, sid, cfg)))
        except ValueError as exc:
            failures.append(f"{sid}: {exc}")
    if failures:
        # main writes each line as an error line of its own
        raise ValueError("\n".join(failures))

    files = {}
    for sid, track in tracks:
        files[f"ec_{sid}.csv"] = track.to_csv()
        files[f"ec_{sid}.json"] = json_text(track.to_dict())
    if len(tracks) >= 2:
        matrix = shape_similarity_matrix(tracks, cfg.theta_samples)
        files["shape_similarity.csv"] = matrix.to_csv()
    else:
        log.warning("only one subject; similarity matrix skipped")
    files["config.json"] = json_text({**cfg.to_dict(), "command": "shape"})
    return files


def _plant(plant_spec, cfg: PipelineConfig) -> np.ndarray:
    """A subject's plant: literal ``{"taps": [...]}`` or a ``plant/1``
    generator.  Its length is checked against one excitation period
    before anything of that length is made, and its taps' absolute sum
    against ``MAX_LEVEL``, which keeps the acoustic chain finite."""
    if isinstance(plant_spec, dict) and "taps" in plant_spec:
        taps = plant_spec["taps"]
        if set(plant_spec) != {"taps"}:
            raise ValueError(f"unknown plant fields: {sorted(set(plant_spec) - {'taps'})}")
        # a bool is never a number here, though Python counts it an int
        numbers = isinstance(taps, list) and all(type(v) in (int, float) for v in taps)
        if not numbers or not taps:
            raise ValueError("taps must be a nonempty list of numbers")
        gen, n_taps = None, len(taps)
    elif isinstance(plant_spec, dict) and plant_spec.get("schema") == "plant/1":
        gen = PlantGenerator.from_dict(plant_spec)
        n_taps = gen.tap_count
    else:
        raise ValueError("plant JSON must hold either 'taps' or a 'plant/1' generator")
    period = 2**cfg.mls_order - 1
    if n_taps > period:
        raise ValueError(f"{n_taps} taps exceed one excitation period "
                         f"({period} samples at mls_order {cfg.mls_order})")
    h = np.array(taps, dtype=np.float64) if gen is None else generate_plant(gen, cfg.sample_rate)
    # each tap is bounded first, so the sum of up to 2**24 cannot overflow
    mags = np.abs(h)
    if not ((mags <= MAX_LEVEL).all() and mags.sum() <= MAX_LEVEL):
        raise ValueError(f"taps must be finite, with an absolute sum of at most {MAX_LEVEL:g}")
    return h


def _take_feature(cfg: PipelineConfig, response, take: int):
    """One take: impulse response -> feature, ``response`` mapping the
    take index to its impulse response on the worker thread."""
    return response_feature(
        response(take),
        trim_threshold=cfg.trim_threshold,
        low_hz=cfg.band_low_hz,
        high_hz=cfg.band_high_hz,
        filter_order=cfg.filter_order,
        feature_length=cfg.feature_length,
        sample_rate=cfg.sample_rate,
    )


def _workers() -> int:
    """One thread per core this process may use."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, cores or 1)


def _acoustic_entry(base: Path, entry):
    """An acoustic manifest entry: its plant's path, or its list of take
    WAV paths."""
    if isinstance(entry, dict) and "plant" in entry:
        return _entry_path(base, entry["plant"])
    if isinstance(entry, dict) and "takes" in entry:
        if not isinstance(entry["takes"], list) or not entry["takes"]:
            raise ValueError(f"'takes' must be a nonempty list of WAV paths, "
                             f"got {entry['takes']!r}")
        return [_entry_path(base, rel) for rel in entry["takes"]]
    raise ValueError("manifest entry needs a 'plant' path or a 'takes' list")


def _subject_responses(sidx: int, sid, entry, cfg: PipelineConfig, excitation) -> tuple:
    """``(n_takes, response)`` of one subject whose ``entry`` is its
    checked plant taps or the ``(path, offset, count)`` of each checked
    WAV take, ``response`` mapping a take index to its impulse response.
    A plant's steady period is simulated once; each take averages its own
    seeded noise onto it.  A WAV take's samples alone are read here, and
    averaged one period at a time; its response is divided by 32768, a
    power of two, so it is exactly that of the samples / 32768."""
    if isinstance(entry, np.ndarray):
        steady = simulate_measurement(excitation, entry, 1)[excitation.length:]

        def response(take):
            rng = np.random.default_rng([cfg.seed, sidx, take])
            return correlate_period(noisy_period_mean(steady, cfg.noise_rms, rng, cfg.repeats),
                                    excitation)
        return cfg.takes, response
    def samples(f, offset, count):  # a file cut short since its check is refused
        f.seek(offset)
        return np.frombuffer(f.read(2 * count), "<i2", count)
    wavs = [_read_input(path, lambda f: samples(f, offset, count), sid)
            for path, offset, count in entry]
    return len(wavs), lambda take: (recover_impulse_response(wavs[take], excitation, cfg.repeats)
                                    / 32768.0)


def cmd_acoustic(args) -> dict:
    cfg = _load_config(args)
    try:  # the band and filter order, checked by one design before any take runs
        butterworth_bandpass(np.zeros(1), cfg.band_low_hz, cfg.band_high_hz, cfg.filter_order,
                             cfg.sample_rate)
    except ValueError as exc:
        raise InputError(f"invalid config: {exc}") from None
    manifest = Path(args.manifest)
    subjects = _read_input(manifest, lambda f: _manifest_subjects(f, manifest.parent,
                                                                  _acoustic_entry))
    # every plant is read and checked, and every WAV take's headers, before
    # the first take; a WAV take keeps where its samples lie, to read them on its subject's turn
    for sid, entry in subjects.items():
        if isinstance(entry, Path):
            subjects[sid] = _read_input(entry, lambda f: _plant(_json(f), cfg), sid)
        else:
            subjects[sid] = [(path, *_read_input(path, lambda f: _wav_pcm(f, cfg), sid))
                             for path in entry]
    excitation = generate_mls(cfg.mls_order)

    all_feats = []
    # numpy's FFTs and ufuncs release the GIL, so takes run in parallel,
    # on one pool for the whole run.  A subject's takes are submitted as
    # soon as its steady period or WAV samples exist, and the next
    # subject's are made while they run, so the pool never waits for a
    # subject to be read and at most one subject is ahead.  Results are
    # collected in subject and take order, so the first failing take's
    # error, named by subject and take, is raised; takes not started are dropped.
    def result(sid, take, future):
        try:
            return sid, take, future.result()
        except ValueError as exc:
            raise ValueError(f"{sid} take {take}: {exc}") from None
    pool = ThreadPoolExecutor(_workers())
    try:
        running = []
        for sidx, (sid, entry) in enumerate(subjects.items()):
            n_takes, response = _subject_responses(sidx, sid, entry, cfg, excitation)
            submitted = [(sid, take, pool.submit(_take_feature, cfg, response, take))
                         for take in range(n_takes)]
            all_feats.extend(result(*r) for r in running)
            running = submitted
        all_feats.extend(result(*r) for r in running)
    finally:
        pool.shutdown(cancel_futures=True)

    files = {}
    for sid, take, feat in all_feats:
        stem = f"feature_{sid}_{take:02d}"
        files[f"{stem}.f32"] = feat.astype("<f4").tobytes()
        sidecar = {
            "schema": "acoustic_feature/1",
            "subject_id": sid,
            "take_index": take,
            "sample_rate": cfg.sample_rate,
            "length": len(feat),
            "stages": ["raw", "trimmed", "min_phase", "bandpassed", "normalized"],
            "parameters": {
                "mls_order": cfg.mls_order,
                "repeats": cfg.repeats,
                "noise_rms": cfg.noise_rms,
                "trim_threshold": cfg.trim_threshold,
                "band_low_hz": cfg.band_low_hz,
                "band_high_hz": cfg.band_high_hz,
                "filter_order": cfg.filter_order,
                "feature_length": cfg.feature_length,
            },
        }
        files[f"{stem}.json"] = json_text(sidecar)

    if len({sid for sid, _, _ in all_feats}) >= 2:
        matrix = acoustic_similarity_matrix(all_feats)
        files["acoustic_similarity.csv"] = matrix.to_csv()
    else:
        log.warning("only one subject; similarity matrix skipped")
    files["config.json"] = json_text({**cfg.to_dict(), "command": "acoustic"})
    return files


def cmd_correlate(args) -> dict:
    cfg = _load_config(args)
    shape_m, acoustic_m = (_read_input(Path(p), lambda f: SimilarityMatrix.from_csv(
        f.read().decode("utf-8"))) for p in (args.shape, args.acoustic))
    if set(shape_m.ids) != set(acoustic_m.ids):
        raise InputError(
            f"matrices cover different subjects: {sorted(shape_m.ids)} vs {sorted(acoustic_m.ids)}"
        )
    pair = None
    if args.pair is not None:
        parts = args.pair.split(",")
        if len(parts) != 2:
            raise InputError(f"--pair expects 'id_a,id_b', got {args.pair!r}")
        for p in parts:
            if p not in shape_m.ids:
                raise InputError(f"--pair names unknown subject {p!r}")
        if parts[0] == parts[1]:
            raise InputError(f"--pair needs two different subjects, got {args.pair!r}")
        pair = (parts[0], parts[1])
    files = emit_report(shape_m, acoustic_m, designated_pair=pair, config=cfg.to_dict())
    files["config.json"] = json_text({**cfg.to_dict(), "command": "correlate"})
    return files


def cmd_synth(args) -> dict:
    cfg = _load_config(args)
    levels = {"": args.perturbation}  # corpus directory under --out -> perturbation
    if args.sweep is not None:
        levels = {}
        for part in args.sweep.split(","):
            try:
                level = float(part)
            except ValueError:
                raise InputError(
                    f"--sweep expects comma-separated numbers, got {args.sweep!r}") from None
            corpus = f"perturbation_{level:g}/"
            if corpus in levels:
                raise InputError(f"--sweep levels {levels[corpus]!r} and {level!r} both write "
                                 f"{Path(args.out) / corpus}")
            levels[corpus] = level

    files = {}
    for corpus, level in levels.items():
        try:
            family = make_subject_family(cfg.seed, level)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        shape_subjects = {}
        acoustic_subjects = {}
        for spec in family:
            mesh = generate_canal_mesh(spec.canal)
            files[f"{corpus}{spec.subject_id}.stl"] = write_binary_stl(mesh)
            files[f"{corpus}{spec.subject_id}_plant.json"] = json_text(spec.plant.to_dict())
            shape_subjects[spec.subject_id] = f"{spec.subject_id}.stl"
            acoustic_subjects[spec.subject_id] = {"plant": f"{spec.subject_id}_plant.json"}
        files[f"{corpus}shape_manifest.json"] = json_text(
            {"schema": "shape_manifest/1", "subjects": shape_subjects})
        files[f"{corpus}acoustic_manifest.json"] = json_text(
            {"schema": "acoustic_manifest/1", "subjects": acoustic_subjects})
        files[f"{corpus}family.json"] = json_text(family.to_dict())
        files[f"{corpus}config.json"] = json_text({**cfg.to_dict(), "command": "synth"})
    return files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="earcanal",
        description="Ear-canal geometry and acoustics similarity pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="pipeline config JSON (defaults are used when omitted)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (default: config value, 0)")

    p = sub.add_parser("shape", help="STL meshes to slice-center tracks and shape similarity")
    common(p)
    p.add_argument("--manifest", required=True,
                   help="JSON mapping subjects to STL paths (relative to the manifest)")
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("acoustic", help="plants or WAV takes to features and acoustic similarity")
    common(p)
    p.add_argument("--manifest", required=True,
                   help="JSON mapping subjects to {'plant': path} or {'takes': [wav, ...]}")
    p.set_defaults(func=cmd_acoustic)

    p = sub.add_parser("correlate", help="regress acoustic similarity on shape similarity")
    common(p)
    p.add_argument("--shape", required=True, help="shape similarity matrix CSV")
    p.add_argument("--acoustic", required=True, help="acoustic similarity matrix CSV")
    p.add_argument("--pair", default=None,
                   help="designated pair 'id_a,id_b' for overall-mean excess statistics")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("synth", help="generate a synthetic subject corpus")
    common(p)
    p.add_argument("--perturbation", type=float,
                   default=inspect.signature(make_subject_family).parameters["perturbation"].default,
                   help="twin latent perturbation (default %(default)s)")
    p.add_argument("--sweep", default=None,
                   help="comma-separated perturbation levels; writes one corpus per level")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # resolved, so that `--out .` has a real parent to work beside
        out = Path(args.out).resolve()
        if out.exists() and not (out.is_dir() and not any(out.iterdir())):
            raise InputError(f"--out {args.out} exists and is not an empty directory")
        _publish(out, args.func(args))
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:
        for line in (str(exc) or type(exc).__name__).split("\n"):
            print(f"error: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
