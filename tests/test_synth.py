"""Synthetic canal meshes and matched acoustic plants."""

import json
import re

import numpy as np
import pytest

from earcanal.acoustics import (
    acoustic_similarity,
    generate_mls,
    recover_impulse_response,
    response_feature,
    simulate_measurement,
)
from earcanal.mesh import slice_centroids, triangle_centroids, write_binary_stl
from earcanal.shape import shape_center_fn, shape_similarity
from earcanal.synth import (
    CanalGenerator,
    PlantGenerator,
    generate_canal_mesh,
    generate_plant,
    make_subject_family,
)

STRAIGHT = {"kind": "spiral", "drift_per_mm": 0.0, "rate": 0.0, "curl": 0.0, "phase": 0.0}


def line(drift, phase=0.0):
    """The straight centerline drift * z * (cos(phase), sin(phase))."""
    return {**STRAIGHT, "drift_per_mm": drift, "phase": phase}


def tube(centerline=STRAIGHT, radius=(3.0,), length=8.0, **kw):
    return CanalGenerator(centerline=centerline, radius_coeffs=radius,
                          length=length, **kw)


def track_of(gen, delta_z=0.1, z_origin=None):
    cloud = triangle_centroids(generate_canal_mesh(gen))
    return shape_center_fn(slice_centroids(cloud, delta_z, z_origin=z_origin))


def bin_mid_z(gen, n, delta_z=0.1):
    # with z_origin=0 each bin holds exactly one ring band, whose triangle
    # centroids cluster at the band thirds; the effective depth is the
    # band midpoint
    return (n + 0.5) * delta_z


def test_facet_count_is_twice_ring_grid():
    mesh = generate_canal_mesh(tube(rings=50, facets_per_ring=30))
    assert mesh.n_triangles == 2 * 30 * 50
    mesh = generate_canal_mesh(tube(rings=80, facets_per_ring=24))
    assert mesh.n_triangles == 2 * 24 * 80


def test_vertex_rings_are_planar_and_evenly_spaced():
    gen = tube(rings=16, length=4.0)
    mesh = generate_canal_mesh(gen)
    z = np.unique(mesh.vertices[:, :, 2])
    np.testing.assert_allclose(z, np.linspace(0.0, 4.0, 17), rtol=0, atol=1e-12)


def test_straight_tube_center_track_is_zero():
    fn = track_of(tube())
    assert fn.n_slices == 80
    assert fn.interpolated.tolist() == []
    np.testing.assert_allclose(fn.centers, np.zeros_like(fn.centers),
                               rtol=0, atol=1e-9)


def test_every_slice_is_well_populated():
    cloud = triangle_centroids(generate_canal_mesh(tube()))
    # band-aligned slicing: each bin holds exactly both third-clusters
    slices = slice_centroids(cloud, 0.1, z_origin=0.0)
    counts = slices.bins.tolist()
    assert len(counts) == 80
    assert min(counts) == max(counts) == 60
    # default origin starts at the first cluster, which puts the lower
    # clusters exactly on bin edges; they may round down one bin, but every
    # slice keeps at least a full cluster and no point is lost
    slices = slice_centroids(cloud, 0.1)
    counts = slices.bins.tolist()
    assert len(counts) == 80
    assert sum(counts) == 2 * 30 * 80
    assert min(counts) >= 30


def test_linear_drift_tracks_the_centerline():
    # the line x = 0.2 z, y = -0.1 z
    gen = tube(centerline=line(np.hypot(0.2, -0.1), np.arctan2(-0.1, 0.2)))
    fn = track_of(gen, z_origin=0.0)
    n = np.arange(fn.n_slices)
    np.testing.assert_allclose(fn.centers[:, 0], 0.2 * 0.1 * n, rtol=0, atol=1e-6)
    np.testing.assert_allclose(fn.centers[:, 1], -0.1 * 0.1 * n, rtol=0, atol=1e-6)


def test_spiral_track_matches_centerline_projection():
    gen = tube(centerline={"kind": "spiral", "drift_per_mm": 0.3, "rate": 0.25,
                           "curl": 0.01, "phase": 0.8})
    fn = track_of(gen, z_origin=0.0)
    mid = np.array([bin_mid_z(gen, n) for n in range(fn.n_slices)])
    cx, cy = gen.centerline_xy(mid)
    cx0, cy0 = gen.centerline_xy(bin_mid_z(gen, 0))
    expected = np.column_stack([cx - cx0, cy - cy0])
    np.testing.assert_allclose(fn.centers, expected, rtol=0, atol=0.01)
    # direction advances by rate*z + curl*z^2 along the depth axis; undo
    # the slice-0 referencing to recover absolute angles
    pos = fn.centers + np.array([cx0, cy0])
    ang = np.unwrap(np.arctan2(pos[5:, 1], pos[5:, 0]))
    model = 0.8 + 0.25 * mid[5:] + 0.01 * mid[5:] ** 2
    model += np.round((ang[0] - model[0]) / (2 * np.pi)) * 2 * np.pi
    np.testing.assert_allclose(ang, model, rtol=0, atol=0.01)


def test_mesh_seed_changes_bytes_not_geometry():
    a = tube(seed=1)
    b = tube(centerline=line(0.1), seed=1)
    b2 = CanalGenerator(centerline=b.centerline, radius_coeffs=b.radius_coeffs,
                        length=b.length, seed=99)
    assert write_binary_stl(generate_canal_mesh(b)) != write_binary_stl(
        generate_canal_mesh(b2))
    np.testing.assert_allclose(track_of(b).centers, track_of(b2).centers,
                               rtol=0, atol=1e-9)
    assert write_binary_stl(generate_canal_mesh(a)) == write_binary_stl(
        generate_canal_mesh(a))  # same generator, same bytes


def test_canal_generator_validation():
    with pytest.raises(ValueError):
        tube(centerline={"kind": "zigzag"})
    with pytest.raises(ValueError, match="'spiral'"):
        tube(centerline={"kind": "poly", "x_coeffs": [0.0], "y_coeffs": [0.0]})
    with pytest.raises(ValueError):
        tube(length=0.0)
    with pytest.raises(ValueError):
        tube(facets_per_ring=2)
    with pytest.raises(ValueError):
        tube(rings=0)
    with pytest.raises(ValueError):
        generate_canal_mesh(tube(radius=(1.0, -0.5)))  # negative by z=2


def test_plant_impulse_response_peaks_at_resonance():
    gen = PlantGenerator((2000.0,), (6.0,), (1.0,), tap_count=2048, seed=3)
    h = generate_plant(gen)
    spec = np.abs(np.fft.rfft(h))
    freqs = np.fft.rfftfreq(len(h), d=1 / 44100)
    peak_hz = freqs[int(np.argmax(spec))]
    assert abs(peak_hz - 2000.0) < 50.0


def test_plant_direct_path_only_is_a_unit_impulse():
    gen = PlantGenerator((), (), (), tap_count=64, direct_gain=0.7)
    h = generate_plant(gen)
    np.testing.assert_array_equal(h, np.concatenate([[0.7], np.zeros(63)]))


def test_plant_tap_formula():
    # independent evaluation of one resonator tap by tap
    gen = PlantGenerator((1500.0,), (5.0,), (0.8,), tap_count=1024, seed=11)
    h = generate_plant(gen)
    phase = np.random.default_rng(11).uniform(0.0, 2.0 * np.pi, 1)[0]
    r = np.exp(-np.pi * 1500.0 / (5.0 * 44100.0))
    w = 2.0 * np.pi * 1500.0 / 44100.0
    n = np.arange(1024)
    np.testing.assert_allclose(h, 0.8 * r**n * np.sin(w * n + phase), rtol=1e-12)


def test_plant_rejects_undecayed_response():
    with pytest.raises(ValueError):
        generate_plant(PlantGenerator((200.0,), (30.0,), (1.0,), tap_count=512))


def test_plant_rejects_resonance_beyond_nyquist():
    with pytest.raises(ValueError):
        generate_plant(PlantGenerator((23000.0,), (5.0,), (1.0,)))


def test_plant_validation():
    with pytest.raises(ValueError):
        PlantGenerator((1000.0,), (5.0, 6.0), (1.0,))
    with pytest.raises(ValueError):
        PlantGenerator((-1000.0,), (5.0,), (1.0,))
    with pytest.raises(ValueError):
        PlantGenerator((1000.0,), (5.0,), (1.0,), tap_count=0)


def test_plant_seed_controls_phases_only():
    a = generate_plant(PlantGenerator((1200.0,), (5.0,), (1.0,), seed=1))
    b = generate_plant(PlantGenerator((1200.0,), (5.0,), (1.0,), seed=1))
    c = generate_plant(PlantGenerator((1200.0,), (5.0,), (1.0,), seed=2))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_family_structure():
    fam = make_subject_family(0)
    ids = [s.subject_id for s in fam]
    assert ids == ["twin_a", "twin_b", "subject_c", "subject_d"]
    assert fam.twin_pair == ("twin_a", "twin_b")
    assert fam.base_seed == 0
    seeds = {s.plant.seed for s in fam}
    assert len(seeds) == 1  # family-shared phase draw
    canal_seeds = {s.canal.seed for s in fam}
    assert len(canal_seeds) == len(ids)
    # family.json nests each subject's generator records
    d = json.loads(json.dumps(fam.to_dict()))
    assert d["schema"] == "subject_family/1"
    assert [(s["subject_id"], CanalGenerator.from_dict(s["canal"]),
             PlantGenerator.from_dict(s["plant"])) for s in d["subjects"]] == \
        [(s.subject_id, s.canal, s.plant) for s in fam]


def test_independent_subject_ids_continue_past_z():
    ids = [s.subject_id for s in make_subject_family(0, n_independent=30)]
    assert len(set(ids)) == len(ids) == 32
    assert all(re.fullmatch(r"subject_[a-z]+", sid) for sid in ids[2:])
    letters = [chr(c) for c in range(ord("c"), ord("z") + 1)]
    assert ids[:26] == ["twin_a", "twin_b"] + [f"subject_{c}" for c in letters]
    assert ids[26:] == [f"subject_a{c}" for c in "abcdef"]


def test_family_is_deterministic():
    assert make_subject_family(9) == make_subject_family(9)
    assert make_subject_family(9) != make_subject_family(10)


def test_family_validation():
    with pytest.raises(ValueError):
        make_subject_family(0, perturbation=0.6)
    with pytest.raises(ValueError):
        make_subject_family(0, perturbation=-0.1)
    with pytest.raises(ValueError):
        make_subject_family(0, n_independent=-1)


def test_twins_are_parametrically_close():
    fam = make_subject_family(3, perturbation=0.02)
    a, b = fam.subjects[0], fam.subjects[1]
    assert abs(a.canal.centerline["rate"] - b.canal.centerline["rate"]) < 0.02
    fa = np.array(a.plant.resonance_frequencies)
    fb = np.array(b.plant.resonance_frequencies)
    np.testing.assert_allclose(fa, fb, rtol=0.02)
    c = fam.subjects[2]
    fc = np.array(c.plant.resonance_frequencies)
    assert np.abs(fa / fc - 1.0).max() > 0.01


def twin_similarities(seed, perturbation, mls):
    fam = make_subject_family(seed, perturbation=perturbation, n_independent=0)
    tracks, feats = {}, {}
    for sub in fam:
        tracks[sub.subject_id] = track_of(sub.canal)
        plant = generate_plant(sub.plant)
        rec = simulate_measurement(mls, plant, repeats=1)
        rec_ir = recover_impulse_response(rec, mls, repeats=1)
        feats[sub.subject_id] = response_feature(rec_ir)
    phi_s = shape_similarity(tracks["twin_a"], tracks["twin_b"]).phi
    phi_a = acoustic_similarity(feats["twin_a"], feats["twin_b"])
    return phi_s, phi_a


def test_twin_similarity_falls_as_perturbation_grows():
    # the one structural property the generator must guarantee: larger
    # latent perturbations read as lower similarity in both domains
    mls = generate_mls(12)  # shortest period that covers a 2048-tap plant
    for seed in range(20):
        sims = [twin_similarities(seed, p, mls) for p in (0.01, 0.05, 0.2)]
        phi_s, phi_a = zip(*sims)
        assert phi_s[0] > phi_s[1] > phi_s[2], (seed, phi_s)
        assert phi_a[0] > phi_a[1] > phi_a[2], (seed, phi_a)
