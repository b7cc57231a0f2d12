"""Direct least-squares ellipse fitting for thin-slice cross sections.

Fits the conic ``A x^2 + B x y + C y^2 + D x + E y + F = 0`` to scattered
points by minimizing algebraic distance subject to the ellipse-specific
constraint ``4AC - B^2 = 1``, which turns the problem into a small
generalized eigenproblem with exactly one admissible eigenvector.  The
solver uses the numerically stable partitioned form: the quadratic and
linear halves of the scatter matrix are separated so only a 3x3
eigenproblem remains (the raw 6x6 pencil is singular for exact data).

Points are mean-centered and scaled to unit RMS radius before building
the scatter matrices, and the conic is mapped back afterwards; without
this the design matrix conditions like radius^4 and fits drift on
off-origin data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EllipseFitError(ValueError):
    """No valid ellipse exists for the given points (too few, degenerate,
    or best conic not elliptic)."""


@dataclass(frozen=True)
class Ellipse:
    """Fitted ellipse in both geometric and conic form.

    ``axes[0] >= axes[1]`` (semi-major first); ``angle`` is the major-axis
    orientation in radians within [0, pi); ``conic`` is the 6-vector
    (A, B, C, D, E, F) normalized so 4AC - B^2 = 1 and A > 0.  Geometric
    and conic parameters describe the same curve.
    """

    center: tuple
    axes: tuple
    angle: float
    conic: tuple


def conic_to_geometric(conic) -> Ellipse:
    """Decompose a general conic 6-vector into geometric parameters.

    The center solves the gradient-zero condition of the quadratic form;
    axes and orientation come from its eigendecomposition.  Raises
    :class:`EllipseFitError` unless the conic has a real elliptic locus
    (4AC - B^2 > 0 and negative value at the center).
    """
    A, B, C, D, E, F = (float(v) for v in np.asarray(conic, dtype=np.float64))
    disc = 4.0 * A * C - B * B
    if disc <= 0:
        raise EllipseFitError(f"conic is not an ellipse (4AC - B^2 = {disc:g})")
    cx = (B * E - 2.0 * C * D) / disc
    cy = (B * D - 2.0 * A * E) / disc
    # conic value at the center; must be negative for a real locus
    fc = F + (D * cx + E * cy) / 2.0
    quad = np.array([[A, B / 2.0], [B / 2.0, C]])
    evals, evecs = np.linalg.eigh(quad)
    if evals[0] <= 0 or fc >= 0:
        raise EllipseFitError("conic has no real elliptic locus")
    # ascending eigenvalues give descending axes: semi-major first
    axes = np.sqrt(-fc / evals)
    angle = float(np.arctan2(evecs[1, 0], evecs[0, 0])) % np.pi
    return Ellipse(
        center=(cx, cy),
        axes=(float(axes[0]), float(axes[1])),
        angle=angle,
        conic=(A, B, C, D, E, F),
    )


def fit_ellipse(points: np.ndarray) -> Ellipse:
    """Fit an ellipse to scattered 2D points, shape (n, 2), n >= 5.

    Always returns an ellipse when it returns at all: the constraint
    ``4AC - B^2 = 1`` rules out hyperbolae and parabolae, and degenerate
    inputs (collinear points, coincident points, perfect non-elliptic
    conics) raise :class:`EllipseFitError` instead.  The result does not
    depend on point ordering.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise EllipseFitError(f"points must have shape (n, 2), got {pts.shape}")
    if pts.shape[0] < 5:
        raise EllipseFitError(f"need at least 5 points to fit an ellipse, got {pts.shape[0]}")
    if not np.isfinite(pts).all():
        raise EllipseFitError("points contain non-finite coordinates")

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
    # premultiply by the inverse constraint matrix: rows reordered/scaled
    m = np.vstack([m[2] / 2.0, -m[1], m[0] / 2.0])
    evals, evecs = np.linalg.eig(m)
    # the admissible eigenvector satisfies the constraint with positive value
    cond = 4.0 * evecs[0] * evecs[2] - evecs[1] ** 2
    good = np.where(np.isreal(evals) & (np.real(cond) > 0))[0]
    if good.size == 0:
        raise EllipseFitError("no elliptic solution for these points")
    a1 = np.real(evecs[:, good[0]])
    conic_n = np.concatenate([a1, t @ a1])

    # undo normalization: the fit saw x_n = (x - mx)/s, y_n = (y - my)/s
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
    return conic_to_geometric(conic)
