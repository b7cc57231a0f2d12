"""Shape center tracks and rotation-maximized similarity."""

import io
import json

import numpy as np
import pytest

from earcanal.ellipse import EllipseFitError, fit_conics, fit_ellipse
from earcanal.mesh import (
    SliceSet,
    parse_stl,
    slice_centroids,
    triangle_centroids,
    write_binary_stl,
)
from earcanal.shape import (
    ShapeCenterFn,
    shape_center_fn,
    shape_similarity,
    shape_similarity_matrix,
)
from earcanal.synth import generate_canal_mesh, make_subject_family

GRID = 3600
GRID_STEP = 2 * np.pi / GRID


def track(centers, delta_z=0.1):
    centers = np.asarray(centers, dtype=np.float64)
    return ShapeCenterFn(delta_z, centers, centers)


def rotated(fn, theta):
    """``fn`` rigidly rotated by ``theta`` about the canal axis."""
    ca, sa = np.cos(theta), np.sin(theta)
    return track(fn.centers @ np.array([[ca, -sa], [sa, ca]]).T, fn.delta_z)


def spiral_track(n=40, rate=0.3, mag=0.05, phase=0.0, delta_z=0.1):
    k = np.arange(n)
    ang = phase + rate * k
    return track(np.column_stack([mag * k * np.cos(ang), mag * k * np.sin(ang)]),
                 delta_z)


def circle_points(center, radius=1.0, n=8):
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([center[0] + radius * np.cos(t),
                            center[1] + radius * np.sin(t)])


def slice_set(arrays, delta_z=0.1):
    """The :class:`SliceSet` of a list of per-slice (k, 2) point arrays."""
    xy = np.concatenate([np.empty((0, 2)), *arrays])
    return SliceSet(delta_z, xy, np.array([len(a) for a in arrays], dtype=np.int64))


def circles(centers, counts=None):
    """One circle of points about each center, of 8 points or ``counts[n]``."""
    return [circle_points(c, n=8 if counts is None else counts[n]) for n, c in enumerate(centers)]


def slices_from_centers(centers, counts=None, delta_z=0.1):
    return slice_set(circles(centers, counts), delta_z)


def test_self_similarity_is_one():
    a = spiral_track()
    got = shape_similarity(a, a)
    assert abs(got.phi - 1.0) < 1e-12
    assert got.best_theta == 0.0
    assert got.n_compared == a.n_slices - 1


def test_rotated_copy_recovers_the_angle():
    theta0 = 300 * GRID_STEP  # exactly on the search grid
    a = spiral_track()
    got = shape_similarity(a, rotated(a, theta0))
    assert abs(got.phi - 1.0) < 1e-12
    assert abs(got.best_theta - theta0) < 1e-12


def test_off_grid_rotation_bounded_by_grid_resolution():
    theta0 = 0.5 * GRID_STEP + 200 * GRID_STEP
    a = spiral_track()
    got = shape_similarity(a, rotated(a, theta0))
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
    assert fn.interpolated.tolist() == []
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
    assert fn.interpolated.tolist() == [2]
    np.testing.assert_allclose(fn.raw_centers[2], [0.4, 0.15], rtol=0, atol=1e-9)


def test_degenerate_interior_slice_is_interpolated():
    bins = circles([(0.0, 0.0), (0.2, 0.0), (0.4, 0.0), (0.6, 0.3)])
    bins[2] = np.column_stack([np.linspace(0, 1, 8), np.zeros(8)])
    fn = shape_center_fn(slice_set(bins))
    assert fn.interpolated.tolist() == [2]
    np.testing.assert_allclose(fn.raw_centers[2], [0.4, 0.15], rtol=0, atol=1e-9)


def test_long_gap_fills_linearly():
    centers = [(0.0, 0.0), (0.3, 0.0), (0, 0), (0, 0), (0.9, 0.6)]
    fn = shape_center_fn(slices_from_centers(centers, counts=[8, 8, 2, 1, 8]))
    assert fn.interpolated.tolist() == [2, 3]
    np.testing.assert_allclose(fn.raw_centers[2], [0.5, 0.2], rtol=0, atol=1e-9)
    np.testing.assert_allclose(fn.raw_centers[3], [0.7, 0.4], rtol=0, atol=1e-9)


def reference_center_track(bins, min_points=5):
    """The per-slice loop the batched fit replaced: raw centers and the
    interpolated slices of a list of per-slice point arrays."""
    fitted = []
    for b in bins:
        center = None
        if len(b) >= min_points:
            try:
                center = fit_ellipse(b).center
            except EllipseFitError:
                pass
        fitted.append(center)
    last = max(n for n, c in enumerate(fitted) if c is not None)
    track = np.empty((last + 1, 2))
    gaps = []
    prev = 0
    for n, c in enumerate(fitted[: last + 1]):
        if c is None:
            continue
        track[n] = c
        for k in range(prev + 1, n):
            f = (k - prev) / (n - prev)
            track[k] = (1.0 - f) * track[prev] + f * track[n]
            gaps.append(k)
        prev = n
    return track, tuple(gaps)


def test_batched_track_interpolates_the_same_slices():
    rng = np.random.default_rng(5)
    centers = np.cumsum(rng.normal(scale=0.1, size=(30, 2)), axis=0)
    bins = circles(centers, counts=rng.integers(3, 12, size=30).tolist())
    line = np.column_stack([np.arange(8.0), np.arange(8.0) - 1.5])
    bins[0] = circle_points(centers[0], n=9)
    bins[7] = line  # collinear: the fit fails
    bins[8] = np.full((6, 2), 0.5)  # coincident: the fit fails
    bins[-3:] = [line, circle_points(centers[-2], n=4), np.empty((0, 2))]  # unfittable tail
    fn = shape_center_fn(slice_set(bins))
    track, gaps = reference_center_track(bins)
    assert {7, 8} <= set(gaps)
    assert fn.interpolated.tolist() == list(gaps)
    assert fn.n_slices == len(track) < len(bins) - 2
    np.testing.assert_allclose(fn.raw_centers, track, rtol=0, atol=1e-12)


def tuple_slices(points, delta_z):
    """The slicer as it was: the gathered points cut into a tuple of one
    read-only view per slice."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    z = points[:, 2]
    idx = np.ceil((z - z.min()) / delta_z).astype(np.int64) - 1
    idx[idx < 0] = 0
    order = np.argsort(idx, kind="stable")
    xy = points[:, :2].view(np.complex128)[order].view(np.float64)
    xy.flags.writeable = False
    ends = np.cumsum(np.bincount(idx)).tolist()
    return tuple(xy[a:b] for a, b in zip([0] + ends[:-1], ends))


def list_center_track(bins, delta_z, min_points=5):
    """:func:`shape_center_fn` as it was: a list of the fittable slices,
    one batch fit of their concatenation, and a Python loop over the gaps."""
    fittable = [n for n, b in enumerate(bins) if len(b) >= min_points]
    chosen = [bins[n] for n in fittable]
    track = np.full((len(bins), 2), np.nan)
    track[fittable] = fit_conics(np.concatenate([np.empty((0, 2)), *chosen]),
                                 [len(b) for b in chosen])[1]
    fitted = np.flatnonzero(~np.isnan(track[:, 0]))
    assert fitted[0] == 0 and fitted[-1] > 0
    track = track[: fitted[-1] + 1]
    gaps = []
    for prev, n in zip(fitted[:-1], fitted[1:]):
        for k in range(prev + 1, n):
            f = (k - prev) / (n - prev)
            track[k] = (1.0 - f) * track[prev] + f * track[n]
            gaps.append(k)
    return ShapeCenterFn(delta_z, track - track[0], track, tuple(gaps))


def family_clouds(binary):
    """The centroid clouds of the criterion-7 cohort, from its float64
    meshes or, as the ``synth`` corpus holds them, from binary STL."""
    clouds = []
    for sub in make_subject_family(0):
        mesh = generate_canal_mesh(sub.canal)
        clouds.append(triangle_centroids(parse_stl(write_binary_stl(mesh)) if binary else mesh))
    return clouds


def stacked_cloud(arrays, delta_z):
    """A centroid cloud whose slice n at ``delta_z`` holds the points of
    ``arrays[n]``: a point at z 0 fixes the origin, the rest sit inside
    their slice."""
    rng = np.random.default_rng(11)
    cloud = [np.array([[*arrays[0][0], 0.0]])]
    for n, a in enumerate(arrays):
        z = (n + rng.uniform(0.2, 0.8, len(a))) * delta_z
        cloud.append(np.column_stack([a, z])[1 if n == 0 else 0:])
    return np.concatenate(cloud)


def noisy_circles(rng, counts):
    """``counts[n]`` noisy points on a circle about a drifting center, per slice."""
    arrays, center = [], np.zeros(2)
    for k in counts:
        center = center + rng.normal(scale=0.1, size=2)
        t = rng.uniform(0, 2 * np.pi, k)
        arrays.append(center + rng.uniform(1.0, 2.0) * np.column_stack([np.cos(t), np.sin(t)])
                      + rng.normal(scale=0.01, size=(k, 2)))
    return arrays


def sparse_slices_case():
    """Slices of 5 <= k < min_points points, fittable but not to be fitted."""
    rng = np.random.default_rng(3)
    counts = rng.integers(3, 14, size=60)
    counts[0] = 12
    arrays = noisy_circles(rng, counts)
    arrays[20] = np.column_stack([np.arange(10.0), np.arange(10.0) * 0.5])  # collinear
    return [stacked_cloud(arrays, 0.5)], 0.5, 9


def truncated_tail_case():
    """A track whose last fittable slice is followed by unfittable ones."""
    rng = np.random.default_rng(4)
    arrays = noisy_circles(rng, [10] * 35 + [2, 4, 0, 3])
    arrays.append(np.column_stack([np.arange(8.0), np.zeros(8)]))  # collinear, last
    arrays[12:15] = noisy_circles(rng, [4, 0, 3])  # and an interior gap
    return [stacked_cloud(arrays, 0.5)], 0.5, 5


REFERENCE_CASES = {
    "criterion_7_cohort": lambda: (family_clouds(binary=False), 0.1, 5),
    "corpus_dz_0005": lambda: (family_clouds(binary=True), 0.0005, 5),
    "sparse_slices": sparse_slices_case,
    "truncated_tail": truncated_tail_case,
}


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_array_slices_give_the_tuple_slices_track(case):
    clouds, delta_z, min_points = REFERENCE_CASES[case]()
    for cloud in clouds:
        slices = slice_centroids(cloud, delta_z)
        old_slices = tuple_slices(cloud, delta_z)
        assert slices.bins.tolist() == [len(b) for b in old_slices]
        np.testing.assert_array_equal(bits(slices.xy), bits(np.concatenate(old_slices)))
        fn = shape_center_fn(slices, min_points)
        want = list_center_track(old_slices, delta_z, min_points)
        np.testing.assert_array_equal(bits(fn.centers), bits(want.centers))
        np.testing.assert_array_equal(bits(fn.raw_centers), bits(want.raw_centers))
        assert fn.interpolated.tolist() == want.interpolated.tolist()
    # each case reaches what it is named for
    if case == "corpus_dz_0005":
        assert (slices.bins == 0).mean() > 0.5 and len(fn.interpolated) > 10_000
    if case == "sparse_slices":
        assert ((slices.bins >= 5) & (slices.bins < min_points)).sum() > 5
        assert len(fn.interpolated) > 5
    if case == "truncated_tail":
        assert fn.n_slices == 35 < len(slices.bins)
        assert {12, 13, 14} <= set(fn.interpolated)


def test_unfittable_tail_is_truncated():
    centers = [(0.0, 0.0), (0.2, 0.1), (0.4, 0.2), (0, 0), (0, 0)]
    fn = shape_center_fn(slices_from_centers(centers, counts=[8, 8, 8, 3, 2]))
    assert fn.n_slices == 3
    assert fn.interpolated.tolist() == []


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
    assert again["interpolated"] == fn.interpolated.tolist() == [2]
    assert fn.interpolated.dtype == np.int64 and not fn.interpolated.flags.writeable


def test_matrix_is_symmetric_with_nan_diagonal():
    subjects = [
        ("a", spiral_track(rate=0.2)),
        ("b", spiral_track(rate=0.3)),
        ("c", spiral_track(rate=0.5, phase=1.0)),
    ]
    m = shape_similarity_matrix(subjects)
    assert m.ids == ("a", "b", "c")
    assert np.isnan(np.diag(m.values)).all()
    np.testing.assert_array_equal(m.values, m.values.T)
    assert m.cell("a", "b") == m.cell("b", "a")


def test_matrix_rejects_bad_subject_lists():
    a = spiral_track()
    with pytest.raises(ValueError):
        shape_similarity_matrix([("a", a), ("a", a)])
    with pytest.raises(ValueError):
        shape_similarity_matrix([("a", a)])


def test_duplicate_ids_raise_the_matrix_error():
    a, b = spiral_track(rate=0.2), spiral_track(rate=0.3)
    with pytest.raises(ValueError, match="^duplicate subject ids$"):
        shape_similarity_matrix([("a", a), ("b", b), ("a", b)])


def mirrored_grid(grid_size):
    """Step and rotation-grid trig, cos symmetric and sin antisymmetric
    bit for bit, as the similarity builds them."""
    step = 2.0 * np.pi / grid_size
    k = np.arange(grid_size)
    mirror = np.minimum(k, grid_size - k)
    cos_t = np.cos(mirror * step)
    sin_t = np.where(k <= grid_size - k, 1.0, -1.0) * np.sin(mirror * step)
    if grid_size % 2 == 0:
        sin_t[grid_size // 2] = 0.0
    return step, cos_t, sin_t


def reference_similarity(a, b, grid_size):
    """The per-pair body the Gram product replaced: angles and
    magnitudes of the common prefix, the mirrored trig grid built for
    the pair, and an argmax over the whole grid."""
    n = min(a.n_slices, b.n_slices)
    ca, cb = a.centers[1:n], b.centers[1:n]
    ang_a, mag_a = np.arctan2(ca[:, 1], ca[:, 0]), np.hypot(ca[:, 0], ca[:, 1])
    ang_b, mag_b = np.arctan2(cb[:, 1], cb[:, 0]), np.hypot(cb[:, 0], cb[:, 1])
    keep = (mag_a > 0) & (mag_b > 0)
    delta = ang_b[keep] - ang_a[keep]
    step, cos_t, sin_t = mirrored_grid(grid_size)
    score = np.cos(delta).mean() * cos_t + np.sin(delta).mean() * sin_t
    best = int(np.argmax(score))
    return float(score[best]), float(best * step), int(keep.sum())


def reference_matrix(tracks, grid_size):
    """The double loop over subject pairs the Gram product replaced."""
    m = len(tracks)
    values = np.full((m, m), np.nan)
    for i in range(m):
        for j in range(i + 1, m):
            values[i, j] = values[j, i] = reference_similarity(tracks[i], tracks[j], grid_size)[0]
    return values


def random_tracks(rng, m):
    """Tracks of unequal lengths with zero-magnitude depths."""
    tracks = []
    for _ in range(m):
        n = int(rng.integers(2, 50))
        c = rng.normal(size=(n, 2)) * rng.uniform(0.01, 10.0)
        c[rng.random(n) < 0.2] = 0.0
        c[0] = 0.0
        c[1] = rng.normal(size=2)  # every pair shares a nonzero depth
        tracks.append(track(c))
    return tracks


@pytest.mark.parametrize("grid_size", [5, 720, 3600, 7200])
@pytest.mark.parametrize("seed", range(3))
def test_gram_product_matches_the_pair_loop(grid_size, seed):
    rng = np.random.default_rng([seed, grid_size])
    tracks = random_tracks(rng, 7)
    m = shape_similarity_matrix([(str(i), t) for i, t in enumerate(tracks)], grid_size)
    np.testing.assert_allclose(m.values, reference_matrix(tracks, grid_size), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(m.values, m.values.T)
    for i, a in enumerate(tracks):
        for j, b in enumerate(tracks):
            if i == j:
                continue
            got = shape_similarity(a, b, grid_size)
            phi, theta, count = reference_similarity(a, b, grid_size)
            assert abs(got.phi - phi) <= 1e-12
            assert (got.best_theta, got.n_compared) == (theta, count)


def test_matrix_rejects_mixed_slice_widths_and_disjoint_tracks():
    a = spiral_track()
    with pytest.raises(ValueError, match="slice widths differ"):
        shape_similarity_matrix([("a", a), ("b", a), ("c", spiral_track(delta_z=0.2))])
    apart = track([[0, 0], [0, 0], [1, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        shape_similarity_matrix([("a", track([[0, 0], [1, 0], [0, 0]])), ("b", apart)])


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_collinear_interior_slice_of_general_slope_is_interpolated(seed):
    bins = circles([(0.0, 0.0), (0.2, 0.0), (0.4, 0.0), (0.6, 0.3)])
    t = np.random.default_rng(seed).uniform(-1.0, 1.0, 12)
    bins[2] = np.column_stack([0.4 + 0.7 * t, 0.15 - 1.3 * t])
    fn = shape_center_fn(slice_set(bins))
    assert fn.interpolated.tolist() == [2]
    np.testing.assert_allclose(fn.raw_centers[2], [0.4, 0.15], rtol=0, atol=1e-9)


@pytest.mark.parametrize("grid_size", [4, 5, 8, 720])
def test_half_step_ties_follow_the_whole_grid_argmax(grid_size):
    """With one compared depth and a = (1, 0), z is b's unit phasor bit
    for bit, so the whole-grid score can be formed here.  At half-step
    angles rounding ties the two nearest indices or lifts the farther
    one; the result must still be the lowest index of the maximum."""
    step, cos_t, sin_t = mirrored_grid(grid_size)
    a = track([[0.0, 0.0], [1.0, 0.0]])
    odd = 0
    for j in range(grid_size):
        b = np.array([np.cos((j + 0.5) * step), np.sin((j + 0.5) * step)])
        u = b / np.hypot(b[0], b[1])
        score = u[0] * cos_t + u[1] * sin_t
        want = int(np.argmax(score))
        nearest = int(np.rint(np.arctan2(u[1], u[0]) / step)) % grid_size
        odd += want != nearest or (score == score[want]).sum() > 1
        got = shape_similarity(a, track([[0.0, 0.0], b]), grid_size)
        assert (got.best_theta, got.phi) == (want * step, score[want])
    assert odd > 0


def numpy_scalar_csv(fn):
    """``to_csv`` as it formatted numpy scalars one at a time."""
    lines = ["n,x_n,y_n"]
    for n, (x, y) in enumerate(fn.centers):
        lines.append(f"{n},{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(4))
def test_csv_rows_are_the_numpy_scalar_rows(seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(300, 2)) * 10.0 ** rng.integers(-30, 30, size=(300, 2))
    centers[1:20] = [[-0.0, 0.0], [5e-324, -5e-324], [2.2e-308, -1e-310], [1e300, -1e300],
                     [0.1, 1 / 3], [1e16, 2.0**53 + 2], [np.pi, -np.e], [1e-5, 123456789.0],
                     [-0.0, -0.0], [0.5, 1e22], [1e23, 9.999999999999999e22], [1.0, -1.0],
                     [4.9e-324, 1.7976931348623157e308], [-1e-7, 1e-4], [100.0, 1e15],
                     [2.5e-16, 0.30000000000000004], [7.0, 1e21], [-123.456, 6.02e23],
                     [3e-320, -0.0]]
    fn = track(centers)
    assert fn.to_csv() == numpy_scalar_csv(fn)
