"""Shape center tracks and rotation-maximized similarity."""

import io
import json

import numpy as np
import pytest

from earcanal.ellipse import EllipseFitError
from earcanal.mesh import SliceSet
from earcanal.shape import (
    ShapeCenterFn,
    shape_center_fn,
    shape_similarity,
    shape_similarity_matrix,
)

GRID = 3600
GRID_STEP = 2 * np.pi / GRID


def track(centers, delta_z=0.1):
    return ShapeCenterFn(delta_z, np.asarray(centers, dtype=np.float64))


def spiral_track(n=40, rate=0.3, mag=0.05, phase=0.0, delta_z=0.1):
    k = np.arange(n)
    ang = phase + rate * k
    return track(np.column_stack([mag * k * np.cos(ang), mag * k * np.sin(ang)]),
                 delta_z)


def circle_points(center, radius=1.0, n=8):
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([center[0] + radius * np.cos(t),
                            center[1] + radius * np.sin(t)])


def slices_from_centers(centers, counts=None, delta_z=0.1):
    bins = []
    for n, c in enumerate(centers):
        count = 8 if counts is None else counts[n]
        bins.append(circle_points(c, n=count))
    return SliceSet(delta_z, 0.0, tuple(bins))


def test_self_similarity_is_one():
    a = spiral_track()
    got = shape_similarity(a, a)
    assert abs(got.phi - 1.0) < 1e-12
    assert got.best_theta == 0.0
    assert got.n_compared == a.n_slices - 1


def test_rotated_copy_recovers_the_angle():
    theta0 = 300 * GRID_STEP  # exactly on the search grid
    a = spiral_track()
    got = shape_similarity(a, a.rotated(theta0))
    assert abs(got.phi - 1.0) < 1e-12
    assert abs(got.best_theta - theta0) < 1e-12


def test_off_grid_rotation_bounded_by_grid_resolution():
    theta0 = 0.5 * GRID_STEP + 200 * GRID_STEP
    a = spiral_track()
    got = shape_similarity(a, a.rotated(theta0))
    assert got.phi >= np.cos(0.5 * GRID_STEP) - 1e-15
    assert abs(got.best_theta - (theta0 - 0.5 * GRID_STEP)) < GRID_STEP


def test_doubling_the_grid_is_a_small_refinement():
    a = spiral_track(rate=0.21, phase=0.4)
    b = spiral_track(rate=0.33, phase=1.9)
    coarse = shape_similarity(a, b, grid_size=GRID).phi
    fine = shape_similarity(a, b, grid_size=2 * GRID).phi
    assert fine >= coarse - 1e-15
    assert abs(fine - coarse) < 1e-4


def test_similarity_is_symmetric():
    a = spiral_track(rate=0.25, phase=0.7)
    b = spiral_track(rate=0.4, mag=0.08, phase=2.2)
    ab = shape_similarity(a, b)
    ba = shape_similarity(b, a)
    assert ab.phi == ba.phi
    assert abs((ab.best_theta + ba.best_theta) % (2 * np.pi)) < 1e-12


def brute_force_similarity(a, b, grid_size):
    """Reference implementation: rotate the first track explicitly and
    average the per-depth cosines from normalized dot products."""
    n = min(a.n_slices, b.n_slices)
    va, vb = a.centers[1:n], b.centers[1:n]
    keep = (np.hypot(*va.T) > 0) & (np.hypot(*vb.T) > 0)
    va, vb = va[keep], vb[keep]
    best_phi, best_theta = -np.inf, None
    for theta in np.arange(grid_size) * (2 * np.pi / grid_size):
        c, s = np.cos(theta), np.sin(theta)
        ra = va @ np.array([[c, s], [-s, c]])  # row-vector rotation by theta
        cosines = (ra * vb).sum(axis=1) / (
            np.hypot(*ra.T) * np.hypot(*vb.T))
        phi = cosines.mean()
        if phi > best_phi:
            best_phi, best_theta = phi, theta
    return best_phi, best_theta


def test_matches_brute_force_reference():
    a = spiral_track(n=17, rate=0.45, phase=0.3)
    b = track(np.random.default_rng(4).normal(size=(17, 2)) * [[1.0]] * 17)
    got = shape_similarity(a, b, grid_size=720)
    ref_phi, ref_theta = brute_force_similarity(a, b, 720)
    assert abs(got.phi - ref_phi) < 1e-12
    assert abs(got.best_theta - ref_theta) < 1e-12


def test_zero_magnitude_depths_are_skipped():
    a = track([[0, 0], [1, 0], [0, 0], [0, 1]])
    b = track([[0, 0], [1, 0], [1, 1], [0, 1]])
    got = shape_similarity(a, b)
    assert got.n_compared == 2
    assert abs(got.phi - 1.0) < 1e-12


def test_common_prefix_comparison():
    a = spiral_track(n=50)
    b = spiral_track(n=30)
    got = shape_similarity(a, b)
    assert got.n_compared == 29
    assert abs(got.phi - 1.0) < 1e-12


def test_mismatched_slice_width_rejected():
    with pytest.raises(ValueError):
        shape_similarity(spiral_track(delta_z=0.1), spiral_track(delta_z=0.2))


def test_degenerate_tracks_rejected():
    a = track([[0, 0], [0, 0], [0, 0]])
    with pytest.raises(ValueError):
        shape_similarity(a, a)
    with pytest.raises(ValueError):
        shape_similarity(spiral_track(), spiral_track(), grid_size=3)


def test_center_track_from_slices():
    centers = [(0.0, 0.0), (0.2, -0.1), (0.4, -0.2), (0.7, -0.2)]
    fn = shape_center_fn(slices_from_centers(centers))
    assert fn.n_slices == 4
    assert fn.interpolated == ()
    np.testing.assert_allclose(fn.centers, np.asarray(centers), rtol=0, atol=1e-9)
    np.testing.assert_allclose(fn.raw_centers, np.asarray(centers), rtol=0, atol=1e-9)
    np.testing.assert_array_equal(fn.centers[0], [0.0, 0.0])


def test_track_is_origin_independent():
    centers = np.array([(0.0, 0.0), (0.2, -0.1), (0.5, 0.1)])
    moved = shape_center_fn(slices_from_centers(centers + [[3.0, -2.0]]))
    base = shape_center_fn(slices_from_centers(centers))
    np.testing.assert_allclose(moved.centers, base.centers, rtol=0, atol=1e-9)


def test_sparse_interior_slice_is_interpolated():
    centers = [(0.0, 0.0), (0.2, 0.0), (9.9, 9.9), (0.6, 0.3), (0.8, 0.4)]
    fn = shape_center_fn(slices_from_centers(centers, counts=[8, 8, 3, 8, 8]))
    assert fn.interpolated == (2,)
    np.testing.assert_allclose(fn.raw_centers[2], [0.4, 0.15], rtol=0, atol=1e-9)


def test_degenerate_interior_slice_is_interpolated():
    s = slices_from_centers([(0.0, 0.0), (0.2, 0.0), (0.4, 0.0), (0.6, 0.3)])
    bad = np.column_stack([np.linspace(0, 1, 8), np.zeros(8)])
    s = SliceSet(s.delta_z, s.z_origin, s.bins[:2] + (bad,) + s.bins[3:])
    fn = shape_center_fn(s)
    assert fn.interpolated == (2,)
    np.testing.assert_allclose(fn.raw_centers[2], [0.4, 0.15], rtol=0, atol=1e-9)


def test_long_gap_fills_linearly():
    centers = [(0.0, 0.0), (0.3, 0.0), (0, 0), (0, 0), (0.9, 0.6)]
    fn = shape_center_fn(slices_from_centers(centers, counts=[8, 8, 2, 1, 8]))
    assert fn.interpolated == (2, 3)
    np.testing.assert_allclose(fn.raw_centers[2], [0.5, 0.2], rtol=0, atol=1e-9)
    np.testing.assert_allclose(fn.raw_centers[3], [0.7, 0.4], rtol=0, atol=1e-9)


def test_unfittable_tail_is_truncated():
    centers = [(0.0, 0.0), (0.2, 0.1), (0.4, 0.2), (0, 0), (0, 0)]
    fn = shape_center_fn(slices_from_centers(centers, counts=[8, 8, 8, 3, 2]))
    assert fn.n_slices == 3
    assert fn.interpolated == ()


def test_unfittable_entrance_slice_is_an_error():
    with pytest.raises(EllipseFitError):
        shape_center_fn(slices_from_centers([(0, 0), (0.2, 0.1)], counts=[3, 8]))


def test_single_fittable_slice_is_an_error():
    with pytest.raises(EllipseFitError):
        shape_center_fn(slices_from_centers([(0, 0), (0.2, 0.1)], counts=[8, 2]))


def test_csv_round_trip_is_exact():
    fn = spiral_track(n=9, rate=1 / 3, mag=np.pi / 50)
    rows = np.loadtxt(io.StringIO(fn.to_csv()), delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 0], np.arange(fn.n_slices))
    np.testing.assert_array_equal(rows[:, 1:], fn.centers)
    assert fn.to_csv().splitlines()[0] == "n,x_n,y_n"


def test_json_round_trip():
    centers = [(0.0, 0.0), (0.2, 0.0), (9.9, 9.9), (0.6, 0.3), (0.8, 0.4)]
    fn = shape_center_fn(slices_from_centers(centers, counts=[8, 8, 3, 8, 8]))
    again = json.loads(json.dumps(fn.to_dict()))
    assert again["schema"] == "shape_center_fn/1"
    assert again["delta_z"] == fn.delta_z
    np.testing.assert_array_equal(again["centers"], fn.centers)
    np.testing.assert_array_equal(again["raw_centers"], fn.raw_centers)
    assert tuple(again["interpolated"]) == fn.interpolated == (2,)


def test_matrix_is_symmetric_with_nan_diagonal():
    subjects = [
        ("a", spiral_track(rate=0.2)),
        ("b", spiral_track(rate=0.3)),
        ("c", spiral_track(rate=0.5, phase=1.0)),
    ]
    m = shape_similarity_matrix(subjects)
    assert m.ids == ("a", "b", "c")
    assert m.kind == "shape"
    assert np.isnan(np.diag(m.values)).all()
    np.testing.assert_array_equal(m.values, m.values.T)
    assert m.cell("a", "b") == m.cell("b", "a")


def test_matrix_rejects_bad_subject_lists():
    a = spiral_track()
    with pytest.raises(ValueError):
        shape_similarity_matrix([("a", a), ("a", a)])
    with pytest.raises(ValueError):
        shape_similarity_matrix([("a", a)])
