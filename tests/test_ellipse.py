"""Direct least-squares ellipse fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earcanal.ellipse import EllipseFitError, conic_to_geometric, fit_ellipse


def make_ellipse(center, axes, angle):
    """Build the reference ellipse directly from geometric parameters."""
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
    return conic_to_geometric(conic)


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


def test_unit_circle_conic():
    # x^2 + y^2 - 1 = 0, already satisfying 4AC - B^2 = 4
    e = conic_to_geometric([0.5, 0.0, 0.5, 0.0, 0.0, -0.5])
    assert e.center == (0.0, 0.0)
    np.testing.assert_allclose(e.axes, (1.0, 1.0), rtol=1e-15)


def test_shifted_circle_conic():
    # (x - 2)^2 + (y + 1)^2 = 4  ->  x^2 + y^2 - 4x + 2y + 1 = 0
    e = conic_to_geometric(np.array([1.0, 0.0, 1.0, -4.0, 2.0, 1.0]) / 2.0)
    np.testing.assert_allclose(e.center, (2.0, -1.0), rtol=0, atol=1e-14)
    np.testing.assert_allclose(e.axes, (2.0, 2.0), rtol=1e-14)


def test_axis_aligned_ellipse_conic():
    # x^2/9 + y^2/4 = 1
    e = make_ellipse((0.0, 0.0), (3.0, 2.0), 0.0)
    assert_same_ellipse(e, (0.0, 0.0), (3.0, 2.0), 0.0, tol=1e-13)
    assert e.axes[0] >= e.axes[1]


def test_non_elliptic_conics_rejected():
    with pytest.raises(EllipseFitError):
        conic_to_geometric([1.0, 0.0, -1.0, 0.0, 0.0, -1.0])  # hyperbola
    with pytest.raises(EllipseFitError):
        conic_to_geometric([1.0, 2.0, 1.0, 0.0, 1.0, 0.0])  # parabola
    with pytest.raises(EllipseFitError):
        conic_to_geometric([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])  # empty locus


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


def test_conic_form_round_trip():
    e = make_ellipse((1.0, 2.0), (2.0, 1.0), 0.5)
    again = conic_to_geometric(e.conic)
    np.testing.assert_allclose(again.center, e.center, rtol=1e-12)


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
