"""Release acceptance gate.

Eight criteria the assembled pipeline must meet, each with a pinned
tolerance and, where stated, a runtime budget.  Run with ``pytest -v``
to get one pass/fail line per criterion.
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from earcanal.acoustics import (
    acoustic_similarity_matrix,
    add_noise,
    generate_mls,
    minimum_phase,
    recover_impulse_response,
    response_feature,
    simulate_measurement,
)
from earcanal.analysis import SimilarityMatrix, matrix_statistics, regress_all_subjects
from earcanal.cli import main
from earcanal.ellipse import fit_ellipse
from earcanal.mesh import slice_centroids, triangle_centroids
from earcanal.shape import (
    ShapeCenterFn,
    shape_center_fn,
    shape_similarity,
    shape_similarity_matrix,
)
from earcanal.synth import generate_canal_mesh, generate_plant, make_subject_family

TWINS = ("twins_a", "twins_b")


def load_reference(name):
    text = (resources.files("earcanal") / "fixtures" / name).read_text()
    return SimilarityMatrix.from_csv(text)


def family_tracks_and_plants(seed=0, perturbation=0.02):
    family = make_subject_family(seed, perturbation=perturbation)
    tracks = []
    plants = []
    for sub in family:
        cloud = triangle_centroids(generate_canal_mesh(sub.canal))
        tracks.append((sub.subject_id, shape_center_fn(slice_centroids(cloud, 0.1))))
        plants.append((sub.subject_id, generate_plant(sub.plant)))
    return tracks, plants


def rotated(track, theta):
    """``track`` rigidly rotated by ``theta`` about the canal axis."""
    ca, sa = np.cos(theta), np.sin(theta)
    rot = np.array([[ca, -sa], [sa, ca]])
    return ShapeCenterFn(track.delta_z, track.centers @ rot.T, track.raw_centers @ rot.T,
                         track.interpolated)


def upper_pairs(matrix):
    """``(id_a, id_b, value)`` of every cell above the diagonal, row by row."""
    return [(a, b, matrix.cell(a, b))
            for k, a in enumerate(matrix.ids) for b in matrix.ids[k + 1:]]


@pytest.fixture(scope="module")
def default_family():
    return family_tracks_and_plants()


def test_criterion_1_reference_table_statistics():
    t0 = time.perf_counter()
    shape_stats = matrix_statistics(load_reference("reference_shape_similarity.csv"), TWINS)
    acoustic_stats = matrix_statistics(
        load_reference("reference_acoustic_similarity.csv"), TWINS)
    assert abs(shape_stats.overall_mean - 0.851) <= 0.001
    assert abs(shape_stats.percent_excess - 11.2) <= 0.2
    assert abs(acoustic_stats.overall_mean - 0.399) <= 0.001
    assert abs(acoustic_stats.percent_excess - 28.8) <= 0.3
    assert time.perf_counter() - t0 < 1.0
    print("criterion 1: reference table statistics reproduced: pass")


def test_criterion_2_reference_regressions():
    t0 = time.perf_counter()
    results = regress_all_subjects(
        load_reference("reference_shape_similarity.csv"),
        load_reference("reference_acoustic_similarity.csv"),
    )
    assert len(results) == 4
    for res in results:
        assert res.r > 0.7, f"{res.subject_id}: r = {res.r}"
        assert res.r_squared > 0.5, f"{res.subject_id}: R^2 = {res.r_squared}"
    assert time.perf_counter() - t0 < 1.0
    print("criterion 2: all four reference regressions have r > 0.7, R^2 > 0.5: pass")


def test_criterion_3_ellipse_fit_exactness():
    t0 = time.perf_counter()
    for s in range(100):
        rng = np.random.default_rng(s)
        cx, cy = rng.uniform(-15.0, 15.0, 2)
        a = rng.uniform(0.5, 6.0)
        ecc = 0.97 if s % 10 == 9 else rng.uniform(0.0, 0.97)
        b = a * np.sqrt(1.0 - ecc**2)
        angle = rng.uniform(0.0, np.pi)
        t = rng.uniform(0.0, 2.0 * np.pi, 40)
        ca, sa = np.cos(angle), np.sin(angle)
        px, py = a * np.cos(t), b * np.sin(t)
        points = np.column_stack([cx + ca * px - sa * py, cy + sa * px + ca * py])
        fit = fit_ellipse(points)
        center_err = np.hypot(fit.center[0] - cx, fit.center[1] - cy)
        assert center_err < 1e-6 * a, f"seed {s}: center error {center_err}"
        assert abs(fit.axes[0] - a) < 1e-6 * a, f"seed {s}: semi-major error"
        assert abs(fit.axes[1] - b) < 1e-6 * b, f"seed {s}: semi-minor error"
    assert time.perf_counter() - t0 < 5.0
    print("criterion 3: 100 seeded ellipses recovered within 1e-6: pass")


def test_criterion_4_mls_chain_round_trip():
    t0 = time.perf_counter()
    for s in range(50):
        rng = np.random.default_rng(s)
        order = 8 + s % 9  # cycles through orders 8..16
        excitation = generate_mls(order)
        n_taps = int(rng.integers(16, min(256, excitation.length) + 1))
        taps = rng.normal(size=n_taps)
        plant = taps
        rec = simulate_measurement(excitation, plant, repeats=1)
        h = recover_impulse_response(rec, excitation, repeats=1)
        truth = np.zeros_like(h)
        truth[:n_taps] = taps
        rms = np.sqrt(np.mean((h - truth) ** 2))
        assert rms < 1e-9, f"seed {s} (order {order}): RMS {rms}"

    excitation = generate_mls(12)
    res_avg, res_one = [], []
    for s in range(50):
        rng = np.random.default_rng(1000 + s)
        n_taps = int(rng.integers(16, 257))
        taps = rng.normal(size=n_taps)
        taps /= np.linalg.norm(taps)
        plant = taps
        truth = np.zeros(excitation.length)
        truth[:n_taps] = taps
        for repeats, store in ((5, res_avg), (1, res_one)):
            rec = add_noise(simulate_measurement(excitation, plant, repeats=repeats), 0.1,
                            np.random.default_rng([s, repeats]))
            h = recover_impulse_response(rec, excitation, repeats=repeats)
            store.append(np.sqrt(np.mean((h - truth) ** 2)))
    ratio = np.mean(res_avg) / np.mean(res_one)
    assert 0.35 < ratio < 0.55, f"noise reduction ratio {ratio}"
    assert time.perf_counter() - t0 < 30.0
    print(f"criterion 4: MLS chain exact, averaging ratio {ratio:.3f}: pass")


def test_criterion_5_minimum_phase_contract():
    for s in range(100):
        rng = np.random.default_rng(s)
        # conjugate root pairs kept away from the unit circle, so the
        # spectrum is bounded away from zero everywhere
        k = int(rng.integers(2, 7))
        radii = rng.uniform(0.2, 0.85, k)
        flip = rng.random(k) < 0.5
        radii[flip] = 1.0 / radii[flip]
        angles = rng.uniform(0.05, np.pi - 0.05, k)
        roots = np.concatenate([radii * np.exp(1j * angles),
                                radii * np.exp(-1j * angles)])
        sig = np.real(np.poly(roots))
        sig /= np.linalg.norm(sig)
        mp = minimum_phase(sig)
        mag_in = np.abs(np.fft.rfft(sig, len(mp)))
        mag_out = np.abs(np.fft.rfft(mp))
        np.testing.assert_allclose(mag_out, mag_in, rtol=1e-6,
                                   atol=1e-9 * mag_in.max())
        prefix_gap = np.cumsum(mp[: len(sig)] ** 2) - np.cumsum(sig**2)
        assert prefix_gap.min() >= -1e-9, f"seed {s}: prefix deficit {prefix_gap.min()}"
        total_gap = np.sum(mp**2) - np.sum(sig**2)
        assert abs(total_gap) < 1e-9

    out = minimum_phase(np.array([1.0, 2.0]))
    np.testing.assert_allclose(out[:2], [2.0, 1.0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(out[2:], 0.0, rtol=0, atol=1e-9)
    print("criterion 5: minimum-phase magnitude/energy contract holds: pass")


def test_criterion_6_shape_similarity_identities(default_family):
    tracks, _ = default_family
    track = dict(tracks)["twin_a"]
    self_sim = shape_similarity(track, track)
    assert abs(self_sim.phi - 1.0) <= 1e-12
    assert self_sim.best_theta == 0.0

    step = 2.0 * np.pi / 3600
    for k in (1, 300, 1799, 3599):
        theta0 = k * step
        sim = shape_similarity(track, rotated(track, theta0))
        assert abs(sim.phi - 1.0) <= 1e-12, f"theta0 = {k}*step: phi {sim.phi}"
        assert sim.best_theta == theta0

    coarse = shape_similarity_matrix(tracks, 3600)
    fine = shape_similarity_matrix(tracks, 7200)
    for id_a, id_b, v in upper_pairs(coarse):
        assert abs(v - fine.cell(id_a, id_b)) < 1e-4
    print("criterion 6: shape similarity identities hold: pass")


def test_criterion_7_end_to_end_cohort_ordering():
    t0 = time.perf_counter()
    tracks, plants = family_tracks_and_plants()
    shape_m = shape_similarity_matrix(tracks)

    excitation = generate_mls(16)
    features = []
    for sidx, (sid, plant) in enumerate(plants):
        for take in range(10):
            rng = np.random.default_rng([0, sidx, take])
            rec = add_noise(simulate_measurement(excitation, plant, repeats=5), 0.5, rng)
            raw = recover_impulse_response(rec, excitation, repeats=5)
            features.append((sid, take, response_feature(raw)))
    acoustic_m = acoustic_similarity_matrix(features)

    for kind, matrix in (("shape", shape_m), ("acoustic", acoustic_m)):
        top = max(upper_pairs(matrix), key=lambda p: p[2])
        assert {top[0], top[1]} == {"twin_a", "twin_b"}, \
            f"{kind}: top pair {top}"
    slopes = {r.subject_id: r.slope for r in regress_all_subjects(shape_m, acoustic_m)}
    for sid, slope in slopes.items():
        assert slope > 0, f"{sid}: slope {slope}"
    assert time.perf_counter() - t0 < 120.0
    print(f"criterion 7: twins maximal in both matrices, slopes {slopes}: pass")


def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mls_order": 12, "takes": 2, "repeats": 2}))

    def run_all(root):
        corpus, shape_d, ac_d, rep = (root / n for n in ("corpus", "shape", "ac", "rep"))
        assert main(["synth", "--config", str(cfg), "--out", str(corpus)]) == 0
        assert main(["shape", "--config", str(cfg), "--out", str(shape_d),
                     "--manifest", str(corpus / "shape_manifest.json")]) == 0
        assert main(["acoustic", "--config", str(cfg), "--out", str(ac_d),
                     "--manifest", str(corpus / "acoustic_manifest.json")]) == 0
        assert main(["correlate", "--config", str(cfg), "--out", str(rep),
                     "--shape", str(shape_d / "shape_similarity.csv"),
                     "--acoustic", str(ac_d / "acoustic_similarity.csv"),
                     "--pair", "twin_a,twin_b"]) == 0
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    assert first == second
    print("criterion 8: every command byte-identical across reruns: pass")
