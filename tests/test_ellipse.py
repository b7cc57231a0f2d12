"""Direct least-squares ellipse fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earcanal import ellipse
from earcanal.ellipse import Ellipse, EllipseFitError, fit_conics, fit_ellipse


def make_ellipse(center, axes, angle):
    """The ellipse of the given parameters, ``axes`` semi-major first,
    with its conic built from them and normalized like the fitter's."""
    a, b = axes
    ca, sa = np.cos(angle), np.sin(angle)
    # conic of the rotated/translated ellipse, then normalize like the fitter
    # x'^2/a^2 + y'^2/b^2 = 1 with (x', y') the body frame coordinates
    A = (ca / a) ** 2 + (sa / b) ** 2
    B = 2 * ca * sa * (1 / a**2 - 1 / b**2)
    C = (sa / a) ** 2 + (ca / b) ** 2
    cx, cy = center
    D = -2 * A * cx - B * cy
    E = -B * cx - 2 * C * cy
    F = A * cx**2 + B * cx * cy + C * cy**2 - 1
    conic = np.array([A, B, C, D, E, F]) / np.sqrt(4 * A * C - B * B)
    return Ellipse((float(cx), float(cy)), (float(a), float(b)), float(angle),
                   tuple(conic.tolist()))


def sample(e, n=64, rng=None):
    """Points on the boundary of ellipse ``e``, shape (n, 2).  With ``rng``
    the parameter angles are drawn uniformly instead of evenly."""
    if rng is None:
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    else:
        t = rng.uniform(0.0, 2.0 * np.pi, size=n)
    a, b = e.axes
    ca, sa = np.cos(e.angle), np.sin(e.angle)
    x = a * np.cos(t)
    y = b * np.sin(t)
    return np.column_stack([e.center[0] + ca * x - sa * y, e.center[1] + sa * x + ca * y])


def assert_same_ellipse(got, center, axes, angle, tol=1e-9):
    scale = max(axes)
    np.testing.assert_allclose(got.center, center, rtol=0, atol=tol * scale)
    np.testing.assert_allclose(got.axes, axes, rtol=tol, atol=0)
    if abs(axes[0] - axes[1]) > tol * scale:  # angle undefined for circles
        delta = (got.angle - angle) % np.pi
        assert min(delta, np.pi - delta) < tol


def test_axis_aligned_ellipse_conic():
    # x^2/4 + y^2/9 = 1, its major axis along y: the fit still gives the
    # semi-major axis first, at angle pi/2
    t = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    e = fit_ellipse(np.column_stack([2.0 * np.cos(t), 3.0 * np.sin(t)]))
    assert_same_ellipse(e, (0.0, 0.0), (3.0, 2.0), np.pi / 2, tol=1e-13)
    assert e.axes[0] >= e.axes[1]
    # 36 (x^2/4 + y^2/9 - 1), scaled so that 4AC - B^2 = 1
    np.testing.assert_allclose(e.conic, np.array([9.0, 0.0, 4.0, 0.0, 0.0, -36.0]) / 12.0,
                               rtol=0, atol=1e-13)


def test_exact_fit_recovers_parameters():
    e = make_ellipse((3.1, -1.7), (2.5, 1.2), 0.7)
    fitted = fit_ellipse(sample(e, 24))
    assert_same_ellipse(fitted, (3.1, -1.7), (2.5, 1.2), 0.7)


def test_fit_far_from_origin():
    # normalization keeps the solve conditioned when center >> radius
    e = make_ellipse((412.0, -797.5), (1.8, 1.1), 2.3)
    fitted = fit_ellipse(sample(e, 40))
    assert_same_ellipse(fitted, (412.0, -797.5), (1.8, 1.1), 2.3, tol=1e-8)


def test_fit_high_eccentricity():
    axes = (4.0, 4.0 * np.sqrt(1 - 0.97**2))  # eccentricity 0.97
    e = make_ellipse((0.4, 0.9), axes, 1.1)
    fitted = fit_ellipse(sample(e, 64))
    assert_same_ellipse(fitted, (0.4, 0.9), axes, 1.1, tol=1e-7)


def test_minimum_point_count():
    e = make_ellipse((1.0, 2.0), (2.0, 1.0), 0.3)
    fitted = fit_ellipse(sample(e, 5))
    assert_same_ellipse(fitted, (1.0, 2.0), (2.0, 1.0), 0.3, tol=1e-7)
    with pytest.raises(EllipseFitError):
        fit_ellipse(sample(e, 4))


def test_order_invariance():
    e = make_ellipse((0.5, 0.2), (3.0, 1.4), 1.9)
    pts = sample(e, 17, rng=np.random.default_rng(3))
    f1 = fit_ellipse(pts)
    f2 = fit_ellipse(pts[::-1])
    np.testing.assert_allclose(f1.center, f2.center, rtol=0, atol=1e-12)
    np.testing.assert_allclose(f1.axes, f2.axes, rtol=1e-12)


def test_translation_equivariance():
    e = make_ellipse((0.0, 0.0), (2.2, 0.9), 0.4)
    pts = sample(e, 30)
    base = fit_ellipse(pts)
    moved = fit_ellipse(pts + np.array([5.0, -3.0]))
    np.testing.assert_allclose(
        np.asarray(moved.center) - np.asarray(base.center), [5.0, -3.0],
        rtol=0, atol=1e-10)
    np.testing.assert_allclose(moved.axes, base.axes, rtol=1e-10)
    np.testing.assert_allclose(moved.angle, base.angle, rtol=0, atol=1e-10)


def test_rotation_equivariance():
    alpha = 0.6
    e = make_ellipse((1.0, -2.0), (2.0, 1.0), 0.3)
    pts = sample(e, 30)
    rot = np.array([[np.cos(alpha), -np.sin(alpha)],
                    [np.sin(alpha), np.cos(alpha)]])
    base = fit_ellipse(pts)
    turned = fit_ellipse(pts @ rot.T)
    np.testing.assert_allclose(turned.center, rot @ np.asarray(base.center),
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(turned.axes, base.axes, rtol=1e-10)
    delta = (turned.angle - base.angle - alpha) % np.pi
    assert min(delta, np.pi - delta) < 1e-10


def test_conic_evaluates_to_zero_on_boundary():
    e = make_ellipse((0.3, 1.1), (1.9, 0.8), 2.5)
    fitted = fit_ellipse(sample(e, 21))
    A, B, C, D, E, F = fitted.conic
    x, y = sample(e, 100).T
    residual = A * x * x + B * x * y + C * y * y + D * x + E * y + F
    np.testing.assert_allclose(residual, np.zeros_like(x), rtol=0, atol=1e-10)


def test_conic_normalization_convention():
    fitted = fit_ellipse(sample(make_ellipse((2.0, 3.0), (1.5, 0.7), 1.2), 12))
    A, B, C, _, _, _ = fitted.conic
    np.testing.assert_allclose(4 * A * C - B * B, 1.0, rtol=1e-12)
    assert A > 0


def test_noise_tolerance():
    rng = np.random.default_rng(11)
    e = make_ellipse((0.0, 0.5), (3.0, 2.0), 0.9)
    pts = sample(e, 400, rng=rng) + rng.normal(scale=0.01, size=(400, 2))
    fitted = fit_ellipse(pts)
    np.testing.assert_allclose(fitted.center, e.center, rtol=0, atol=0.01)
    np.testing.assert_allclose(fitted.axes, e.axes, rtol=0.01)


def test_degenerate_inputs_rejected():
    line = np.column_stack([np.linspace(0, 1, 12), np.linspace(0, 2, 12)])
    with pytest.raises(EllipseFitError):
        fit_ellipse(line)
    with pytest.raises(EllipseFitError):
        fit_ellipse(np.ones((8, 2)))
    with pytest.raises(EllipseFitError):
        fit_ellipse(np.array([[0.0, np.nan]] * 6))
    with pytest.raises(EllipseFitError):
        fit_ellipse(np.zeros((6, 3)))


@settings(max_examples=100, deadline=None)
@given(
    cx=st.floats(-50, 50),
    cy=st.floats(-50, 50),
    a=st.floats(0.5, 10),
    ratio=st.floats(0.32, 1.0),  # eccentricity up to ~0.95
    angle=st.floats(0, np.pi),
    n=st.integers(6, 80),
)
def test_fit_recovers_random_ellipses(cx, cy, a, ratio, angle, n):
    axes = (a, a * ratio)
    e = make_ellipse((cx, cy), axes, angle)
    fitted = fit_ellipse(sample(e, n))
    scale = a + np.hypot(cx, cy)
    assert abs(fitted.center[0] - cx) < 1e-7 * scale
    assert abs(fitted.center[1] - cy) < 1e-7 * scale
    np.testing.assert_allclose(sorted(fitted.axes), sorted(axes), rtol=1e-6)


def reference_fit_ellipse(points):
    """The per-slice fit that :func:`fit_conics` replaced: scatter
    matrices from matrix products, one 3x3 solve and eigenproblem.
    Returns ``(conic, center)``, the center in closed form."""
    pts = np.asarray(points, dtype=np.float64)
    mx, my = pts.mean(axis=0)
    x = pts[:, 0] - mx
    y = pts[:, 1] - my
    scale = float(np.sqrt(np.mean(x * x + y * y)))
    if scale <= 0:
        raise EllipseFitError("all points coincide")
    x /= scale
    y /= scale

    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError:
        raise EllipseFitError("degenerate point configuration (singular linear block)") from None
    m = s1 + s2 @ t
    m = np.vstack([m[2] / 2.0, -m[1], m[0] / 2.0])
    evals, evecs = np.linalg.eig(m)
    cond = 4.0 * evecs[0] * evecs[2] - evecs[1] ** 2
    good = np.where(np.isreal(evals) & (np.real(cond) > 0))[0]
    if good.size == 0:
        raise EllipseFitError("no elliptic solution for these points")
    a1 = np.real(evecs[:, good[0]])
    conic_n = np.concatenate([a1, t @ a1])

    An, Bn, Cn, Dn, En, Fn = conic_n
    s = scale
    A = An / s**2
    B = Bn / s**2
    C = Cn / s**2
    D = -2.0 * An * mx / s**2 - Bn * my / s**2 + Dn / s
    E = -Bn * mx / s**2 - 2.0 * Cn * my / s**2 + En / s
    F = (
        (An * mx * mx + Bn * mx * my + Cn * my * my) / s**2
        - Dn * mx / s
        - En * my / s
        + Fn
    )
    conic = np.array([A, B, C, D, E, F])
    norm = 4.0 * A * C - B * B
    if norm <= 0:
        raise EllipseFitError("denormalized conic lost ellipticity")
    conic /= np.sqrt(norm)
    if conic[0] < 0:
        conic = -conic
    A, B, C, D, E, F = conic
    disc = 4.0 * A * C - B * B
    center = np.array([B * E - 2.0 * C * D, B * D - 2.0 * A * E]) / disc
    if F + (D * center[0] + E * center[1]) / 2.0 >= 0:
        raise EllipseFitError("conic has no real elliptic locus")
    return conic, center


def mixed_slices(seed):
    """Slices of every kind a fit meets, in a shuffled order.  The
    degenerate ones sit on exactly representable values, so the
    per-slice fit fails them whatever the order of its sums."""
    rng = np.random.default_rng(seed)
    slices = []
    for _ in range(12):
        e = make_ellipse(rng.uniform(-20, 20, 2), sorted(rng.uniform(0.5, 4, 2), reverse=True),
                         rng.uniform(0, np.pi))
        n = int(rng.integers(6, 200))
        slices.append(sample(e, n, rng=rng) + rng.normal(scale=0.02, size=(n, 2)))
        # five points spread around an exact ellipse
        t = np.arange(5) * 2 * np.pi / 5 + rng.uniform(-0.3, 0.3, 5)
        a, b = e.axes
        slices.append(np.column_stack([e.center[0] + a * np.cos(t), e.center[1] + b * np.sin(t)]))
    u = np.arange(9.0) - 2.5
    slices += [
        np.column_stack([u, 0.5 * u]),  # collinear
        np.column_stack([u, -u + 0.25]),  # collinear
        np.full((7, 2), 0.75),  # coincident
        np.tile([-3.5, 12.0], (6, 1)),  # coincident
        np.column_stack([u, np.full(9, 2.0)]),  # y constant: S3 is singular
    ]
    order = rng.permutation(len(slices))
    return [slices[i] for i in order]


def fit_slices(slices):
    """:func:`fit_conics` on a list of (k, 2) arrays: their rows gathered
    into one array, and their lengths as the counts."""
    return fit_conics(np.concatenate([np.empty((0, 2)), *slices]), [len(s) for s in slices])


# a failing slice is set aside, not computed into NaN: no warning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(4))
def test_batch_matches_the_per_slice_fit(seed):
    slices = mixed_slices(seed)
    conics, centers = fit_slices(slices)
    failed = []
    for n, pts in enumerate(slices):
        try:
            want_conic, want_center = reference_fit_ellipse(pts)
        except EllipseFitError:
            failed.append(n)
            continue
        np.testing.assert_allclose(centers[n], want_center, rtol=0, atol=1e-12)
        np.testing.assert_allclose(conics[n], want_conic, rtol=0, atol=1e-9)
    assert np.flatnonzero(np.isnan(centers[:, 0])).tolist() == failed
    assert np.isnan(conics[failed]).all()
    assert len(failed) == 5


def test_singular_slice_leaves_the_rest_of_the_batch_alone():
    e = make_ellipse((1.0, -2.0), (2.0, 1.0), 0.3)
    flat = np.column_stack([np.arange(8.0), np.zeros(8)])
    _, alone = fit_slices([sample(e, 30)])
    _, mixed = fit_slices([flat, sample(e, 30), flat])
    np.testing.assert_array_equal(mixed[1], alone[0])
    assert np.isnan(mixed[[0, 2]]).all()


@pytest.mark.filterwarnings("error")
def test_batch_rows_fail_where_fit_ellipse_raises():
    e = make_ellipse((0.5, 0.5), (1.5, 1.0), 0.2)
    bad = np.array(sample(e, 12))
    bad[3] = np.nan
    conics, centers = fit_slices([sample(e, 4), np.empty((0, 2)), bad, sample(e, 12)])
    assert np.isnan(centers[:3]).all() and np.isnan(conics[:3]).all()
    for pts in (sample(e, 4), np.empty((0, 2)), bad):
        with pytest.raises(EllipseFitError):
            fit_ellipse(pts)
    fitted = fit_ellipse(sample(e, 12))
    assert_same_ellipse(fitted, e.center, e.axes, e.angle)
    np.testing.assert_array_equal(bits(centers[3]), bits(np.array(fitted.center)))
    np.testing.assert_array_equal(bits(conics[3]), bits(np.array(fitted.conic)))
    # the empty slice shifts no other slice's sums
    alone_conics, alone_centers = fit_conics(sample(e, 12), [12])
    np.testing.assert_array_equal(conics[3], alone_conics[0])
    np.testing.assert_array_equal(centers[3], alone_centers[0])
    empty_conics, empty_centers = fit_conics(np.empty((0, 2)), [])
    assert empty_conics.shape == (0, 6) and empty_centers.shape == (0, 2)
    none_conics, _ = fit_conics(np.empty((0, 2)), [0, 0])
    assert none_conics.shape == (2, 6) and np.isnan(none_conics).all()


def criterion_3_points(seed):
    """The 40 points of the acceptance gate's criterion-3 ellipse ``seed``."""
    rng = np.random.default_rng(seed)
    cx, cy = rng.uniform(-15.0, 15.0, 2)
    a = rng.uniform(0.5, 6.0)
    ecc = 0.97 if seed % 10 == 9 else rng.uniform(0.0, 0.97)
    b = a * np.sqrt(1.0 - ecc**2)
    angle = rng.uniform(0.0, np.pi)
    t = rng.uniform(0.0, 2.0 * np.pi, 40)
    ca, sa = np.cos(angle), np.sin(angle)
    px, py = a * np.cos(t), b * np.sin(t)
    return np.column_stack([cx + ca * px - sa * py, cy + sa * px + ca * py])


@pytest.mark.filterwarnings("error")
def test_fit_ellipse_is_its_row_of_fit_conics():
    point_sets = [criterion_3_points(s) for s in range(100)]
    point_sets += [pts for seed in range(4) for pts in mixed_slices(seed)]
    raised = 0
    for pts in point_sets:
        conics, centers = fit_conics(pts, [len(pts)])
        try:
            fitted = fit_ellipse(pts)
        except EllipseFitError:
            raised += 1
            assert np.isnan(conics).all() and np.isnan(centers).all()
            continue
        np.testing.assert_array_equal(bits(np.array(fitted.center)), bits(centers[0]))
        np.testing.assert_array_equal(bits(np.array(fitted.conic)), bits(conics[0]))
    assert raised == 4 * 5


def test_slices_of_fewer_than_five_points_get_no_fit():
    # without the check, most random 3- and 4-point slices would fit
    rng = np.random.default_rng(0)
    counts = [12, 0, 1, 2] + [3, 4] * 20 + [0, 9]
    xy = rng.normal(size=(sum(counts), 2))
    conics, centers = fit_conics(xy, counts)
    small = [n for n, k in enumerate(counts) if k < 5]
    assert np.isnan(conics[small]).all() and np.isnan(centers[small]).all()
    first, last = fit_conics(xy[:12], [12]), fit_conics(xy[-9:], [9])
    np.testing.assert_array_equal(conics[[0, -1]], np.concatenate([first[0], last[0]]))
    np.testing.assert_array_equal(centers[[0, -1]], np.concatenate([first[1], last[1]]))


def collinear_slices(seed, count=50):
    """Points on lines of general slope: rounding keeps S3 invertible."""
    rng = np.random.default_rng(seed)
    slices = []
    for _ in range(count):
        n = int(rng.integers(5, 31))
        t = rng.uniform(-10, 10, n)
        slices.append(rng.uniform(-50, 50, 2) + t[:, None] * rng.normal(size=2))
    return slices


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(4))
def test_collinear_slices_get_no_fit(seed):
    slices = collinear_slices(seed)
    conics, centers = fit_slices(slices)
    assert np.isnan(conics).all() and np.isnan(centers).all()
    for pts in slices[:10]:
        with pytest.raises(EllipseFitError):
            fit_ellipse(pts)


@pytest.mark.parametrize("ecc", [0.97, 0.99999])
def test_thin_ellipses_still_fit(ecc):
    e = make_ellipse((3.0, -1.0), (3.0, 3.0 * np.sqrt(1 - ecc**2)), 0.7)
    assert_same_ellipse(fit_ellipse(sample(e, 64)), e.center, e.axes, e.angle, tol=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_spread_check_changes_no_other_fit(seed, monkeypatch):
    good = []
    for pts in mixed_slices(seed):
        try:
            reference_fit_ellipse(pts)
            good.append(pts)
        except EllipseFitError:
            pass
    assert len(good) == 24
    conics, centers = fit_slices(good)
    # the collinear slices leave the rest of a batch alone
    mixed_conics, mixed_centers = fit_slices(collinear_slices(seed, 10) + good)
    np.testing.assert_array_equal(mixed_conics[10:], conics)
    np.testing.assert_array_equal(mixed_centers[10:], centers)
    # and the check marks no non-degenerate slice
    monkeypatch.setattr("earcanal.ellipse._MIN_SPREAD", -np.inf)
    unchecked_conics, unchecked_centers = fit_slices(good)
    np.testing.assert_array_equal(conics, unchecked_conics)
    np.testing.assert_array_equal(centers, unchecked_centers)


def product_loop_sums(x, y, starts):
    """The moment sums as each was built before: ones times a factors x,
    then b factors y."""
    m = {}
    for a in range(5):
        for b in range(5 - a):
            if a + b:
                term = np.ones_like(x)
                for factor in [x] * a + [y] * b:
                    term *= factor
                m[a, b] = np.add.reduceat(term, starts)
    return m


def scanner_batch(seed, points=400_000, count=800):
    """One mesh's worth of noisy ellipse slices."""
    rng = np.random.default_rng(seed)
    sizes = rng.multinomial(points - 5 * count, np.full(count, 1 / count)) + 5
    slices = []
    for k in sizes:
        e = make_ellipse(rng.uniform(-20, 20, 2), sorted(rng.uniform(0.5, 4, 2), reverse=True),
                         rng.uniform(0, np.pi))
        slices.append(sample(e, k, rng=rng) + rng.normal(scale=0.05, size=(k, 2)))
    return slices


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("make", [lambda: mixed_slices(0), lambda: mixed_slices(1),
                                  lambda: scanner_batch(2)],
                         ids=["mixed_0", "mixed_1", "scanner_400k"])
def test_moment_sums_are_bitwise_the_product_loop(make, monkeypatch):
    slices = make()
    pts = np.concatenate(slices)
    starts = np.concatenate([[0], np.cumsum([len(b) for b in slices])[:-1]])
    want = product_loop_sums(pts[:, 0], pts[:, 1], starts)
    got = ellipse._moment_sums(pts[:, 0], pts[:, 1], starts)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(bits(got[key]), bits(want[key]))
    # and so the fits are bitwise the fits of the product loop
    conics, centers = fit_slices(slices)
    monkeypatch.setattr(ellipse, "_moment_sums", product_loop_sums)
    old_conics, old_centers = fit_slices(slices)
    np.testing.assert_array_equal(bits(conics), bits(old_conics))
    np.testing.assert_array_equal(bits(centers), bits(old_centers))
