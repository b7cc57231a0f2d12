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


# smallest (m20 m02 - m11^2) / n^2 of a slice's normalized points that
# is fitted: eccentricity-0.97 slices give about 0.05, 0.99999 about
# 2e-5, collinear slices at most a few 1e-16
_MIN_SPREAD = 1e-12


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
    depend on point ordering.  This is :func:`fit_conics` on one slice.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise EllipseFitError(f"points must have shape (n, 2), got {pts.shape}")
    if pts.shape[0] < 5:
        raise EllipseFitError(f"need at least 5 points to fit an ellipse, got {pts.shape[0]}")
    if not np.isfinite(pts).all():
        raise EllipseFitError("points contain non-finite coordinates")
    conics, _ = fit_conics([pts])
    if np.isnan(conics[0, 0]):
        raise EllipseFitError(
            "no ellipse fits these points (coincident, collinear or not elliptic)"
        )
    return conic_to_geometric(conics[0])


def _by_slice(rows) -> np.ndarray:
    """(B, 3, 3) stack from a 3x3 nested list of (B,) arrays."""
    return np.moveaxis(np.array(rows), -1, 0)


def _moment_sums(x, y, starts) -> dict:
    """Per-slice sums of x^a y^b for 0 < a + b <= 4, keyed (a, b).  Each product is
    its prefix times one factor: the left-to-right product x...x y...y."""
    m, xa = {}, None  # xa is x^a; None stands for x^0
    for a in range(5):
        term = xa = x if a == 1 else xa * x if a else None
        for b in range(5 - a):
            if b:
                term = y if term is None else term * y
            if a + b:
                m[a, b] = np.add.reduceat(term, starts)
    return m


def fit_conics(bins) -> tuple:
    """Fit one ellipse to each (k, 2) point array in ``bins``, as a batch.

    Returns ``(conics, centers)``, of shapes (B, 6) and (B, 2): each
    conic normalized as in :class:`Ellipse`, and the center of its real
    elliptic locus.  A slice with no such ellipse, where
    :func:`fit_ellipse` raises, gets a NaN row in both.

    All slices share the arithmetic: per-slice sums come from one
    ``np.add.reduceat`` per monomial over the concatenated points, and
    the 3x3 systems and eigenproblems are solved as stacks.  Sums are
    taken in another order than a per-slice matrix product, so a fit
    moves by rounding only.
    """
    conics = np.full((len(bins), 6), np.nan)
    centers = np.full((len(bins), 2), np.nan)
    counts = np.array([len(b) for b in bins], dtype=np.int64)
    fit = np.flatnonzero(counts >= 5)
    if fit.size == 0:
        return conics, centers
    counts = counts[fit]
    pts = np.concatenate([np.asarray(bins[i], dtype=np.float64) for i in fit])
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])

    n = counts.astype(np.float64)
    mx = np.add.reduceat(pts[:, 0], starts) / n
    my = np.add.reduceat(pts[:, 1], starts) / n
    x = pts[:, 0] - np.repeat(mx, counts)
    y = pts[:, 1] - np.repeat(my, counts)
    del pts
    scale = np.sqrt(np.add.reduceat(x * x + y * y, starts) / n)
    # coincident points have no scale; a non-finite point, no finite one
    ok = np.isfinite(scale) & (scale > 0)
    s = np.where(ok, scale, 1.0)
    x /= np.repeat(s, counts)
    y /= np.repeat(s, counts)

    m = _moment_sums(x, y, starts)
    del x, y
    # collinear points fit rounding noise; after the scaling m20 + m02 = n,
    # so this determinant ratio is 0 for them and 1/4 for a circle
    ok &= (m[2, 0] * m[0, 2] - m[1, 1] ** 2) / (n * n) >= _MIN_SPREAD
    # scatter blocks of the design [x^2, xy, y^2 | x, y, 1]
    s1 = _by_slice([[m[4, 0], m[3, 1], m[2, 2]],
                    [m[3, 1], m[2, 2], m[1, 3]],
                    [m[2, 2], m[1, 3], m[0, 4]]])
    s2 = _by_slice([[m[3, 0], m[2, 1], m[2, 0]],
                    [m[2, 1], m[1, 2], m[1, 1]],
                    [m[1, 2], m[0, 3], m[0, 2]]])
    s3 = _by_slice([[m[2, 0], m[1, 1], m[1, 0]],
                    [m[1, 1], m[0, 2], m[0, 1]],
                    [m[1, 0], m[0, 1], n]])
    # a failed slice gets a harmless system, so it cannot stop the others
    s1[~ok], s2[~ok], s3[~ok] = 0.0, 0.0, np.eye(3)
    # no block is singular: centered, det s3 = n (m20 m02 - m11^2) >= n^3 _MIN_SPREAD
    t = -np.linalg.solve(s3, np.swapaxes(s2, 1, 2))
    mat = s1 + s2 @ t
    # premultiply by the inverse constraint matrix: rows reordered/scaled
    mat = np.stack([mat[:, 2] / 2.0, -mat[:, 1], mat[:, 0] / 2.0], axis=1)
    ok &= np.isfinite(mat).all(axis=(1, 2))
    mat[~ok] = 0.0
    evals, evecs = np.linalg.eig(mat)
    # the admissible eigenvector satisfies the constraint with positive value
    cond = 4.0 * evecs[:, 0] * evecs[:, 2] - evecs[:, 1] ** 2
    good = np.isreal(evals) & (np.real(cond) > 0)
    ok &= good.any(axis=1)
    a1 = np.real(evecs[np.arange(len(fit)), :, np.argmax(good, axis=1)])
    a2 = (t @ a1[:, :, None])[:, :, 0]

    # undo normalization: the fit saw x_n = (x - mx)/s, y_n = (y - my)/s
    An, Bn, Cn = a1.T
    Dn, En, Fn = a2.T
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
    conic = np.stack([A, B, C, D, E, F], axis=1)
    norm = 4.0 * A * C - B * B
    ok &= norm > 0
    conic = conic[ok] / np.sqrt(norm[ok])[:, None]
    conic[conic[:, 0] < 0] *= -1.0

    # center and real-locus test of conic_to_geometric, in closed form:
    # with A > 0 and 4AC - B^2 > 0 both eigenvalues of the quadratic
    # form are positive
    A, B, C, D, E, F = conic.T
    disc = 4.0 * A * C - B * B
    cx = (B * E - 2.0 * C * D) / disc
    cy = (B * D - 2.0 * A * E) / disc
    real = (disc > 0) & (F + (D * cx + E * cy) / 2.0 < 0)
    rows = fit[ok][real]
    conics[rows] = conic[real]
    centers[rows] = np.stack([cx, cy], axis=1)[real]
    return conics, centers
