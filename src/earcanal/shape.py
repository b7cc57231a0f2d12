"""Shape center function and rotation-maximized shape similarity.

The shape center function of a canal is the per-slice ellipse center
track, re-expressed relative to the first (ear-entrance) slice so two
scans of the same canal agree regardless of where the scanner placed the
origin.  Two canals are compared by the mean cosine between corresponding
center vectors, maximized over a rigid rotation of one track about the
canal axis; the maximization removes the free roll angle of the scan.

JSON schema (``ShapeCenterFn``)::

    {"schema": "shape_center_fn/1", "delta_z": f,
     "centers": [[ex, ey], ...],        # entry 0 is [0.0, 0.0]
     "raw_centers": [[cx, cy], ...],    # uncorrected fit centers
     "interpolated": [n, ...]}          # interior slices filled by interpolation
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from earcanal.analysis import SimilarityMatrix
from earcanal.config import DEFAULTS, readonly_view
from earcanal.ellipse import EllipseFitError, fit_ellipse
from earcanal.mesh import SliceSet


@dataclass(frozen=True)
class ShapeCenterFn:
    """Ellipse-center track relative to the entrance slice.

    ``centers[n]`` is the xy offset of slice n's ellipse center from
    slice 0's; ``centers[0]`` is exactly (0, 0).  ``raw_centers`` keeps
    the uncorrected fit centers for diagnostics, and ``interpolated``
    lists the slice indices whose center was filled by interpolation
    rather than fitted.
    """

    delta_z: float
    centers: np.ndarray
    raw_centers: np.ndarray | None = None
    interpolated: tuple = field(default=())

    def __post_init__(self) -> None:
        c = readonly_view(self.centers).reshape(-1, 2)
        if c.shape[0] < 2:
            raise ValueError("shape center function needs at least 2 slices")
        object.__setattr__(self, "centers", c)
        raw = self.raw_centers
        if raw is not None:
            raw = readonly_view(raw).reshape(-1, 2)
            if raw.shape != c.shape:
                raise ValueError("raw_centers must match centers in shape")
        object.__setattr__(self, "raw_centers", raw)
        object.__setattr__(self, "interpolated", tuple(int(n) for n in self.interpolated))

    @property
    def n_slices(self) -> int:
        return self.centers.shape[0]

    def rotated(self, theta: float) -> "ShapeCenterFn":
        """Rigid rotation of the track about the canal axis."""
        ca, sa = np.cos(theta), np.sin(theta)
        rot = np.array([[ca, -sa], [sa, ca]])
        return ShapeCenterFn(self.delta_z, self.centers @ rot.T,
                             interpolated=self.interpolated)

    def to_dict(self) -> dict:
        d = {
            "schema": "shape_center_fn/1",
            "delta_z": self.delta_z,
            "centers": self.centers.tolist(),
            "interpolated": list(self.interpolated),
        }
        if self.raw_centers is not None:
            d["raw_centers"] = self.raw_centers.tolist()
        return d

    def to_csv(self) -> str:
        """CSV rendering with columns n, x_n, y_n."""
        lines = ["n,x_n,y_n"]
        for n, (x, y) in enumerate(self.centers):
            lines.append(f"{n},{float(x)!r},{float(y)!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ShapeSimilarity:
    """Result of a rotation-maximized shape comparison."""

    phi: float
    best_theta: float
    n_compared: int


def shape_center_fn(
    slices: SliceSet, min_points: int = DEFAULTS.min_slice_points
) -> ShapeCenterFn:
    """Fit an ellipse per slice and track the centers relative to slice 0.

    Slice 0 must be fittable: the whole track is expressed relative to
    its center, so its failure is an error.  Interior slices that cannot
    support a fit (fewer than ``min_points`` points, or a degenerate
    configuration) are filled by linear interpolation between the nearest
    fitted neighbors and flagged in ``interpolated``, preserving the
    index-to-depth correspondence.  An unfittable tail is truncated since
    it has no later neighbor to interpolate toward.
    """
    fitted: list = []
    for b in slices.bins:
        geom = None
        if len(b) >= min_points:
            try:
                geom = fit_ellipse(b)
            except EllipseFitError:
                geom = None
        fitted.append(None if geom is None else geom.center)

    if fitted[0] is None:
        raise EllipseFitError(
            "entrance slice 0 is unfittable; the center track has no origin"
        )
    # drop the unfittable tail
    last = max(n for n, c in enumerate(fitted) if c is not None)
    fitted = fitted[: last + 1]
    if len(fitted) < 2:
        raise EllipseFitError("fewer than 2 fittable slices; no center track")

    track = np.empty((len(fitted), 2))
    gaps = []
    prev = 0
    for n, c in enumerate(fitted):
        if c is None:
            continue
        track[n] = c
        if n - prev > 1:
            # linear fill across the unfittable run (prev, n)
            for k in range(prev + 1, n):
                f = (k - prev) / (n - prev)
                track[k] = (1.0 - f) * track[prev] + f * track[n]
                gaps.append(k)
        prev = n
    return ShapeCenterFn(slices.delta_z, track - track[0],
                         raw_centers=track, interpolated=tuple(gaps))


def _angles_and_mags(fn: ShapeCenterFn, n: int):
    c = fn.centers[1:n]
    return np.arctan2(c[:, 1], c[:, 0]), np.hypot(c[:, 0], c[:, 1])


def shape_similarity(
    a: ShapeCenterFn,
    b: ShapeCenterFn,
    grid_size: int = DEFAULTS.theta_samples,
) -> ShapeSimilarity:
    """Rotation-maximized mean cosine between two center tracks.

    For each depth n >= 1 the tracks contribute the cosine of the angle
    between ``rotate(a.centers[n], theta)`` and ``b.centers[n]``; the
    mean over n is maximized over ``grid_size`` evenly spaced theta in
    [0, 2*pi).  Entry 0 is excluded (both tracks are (0,0) there, its
    direction is undefined), as is any later depth where either center
    has zero magnitude.  Tracks of unequal length are compared over the
    common prefix.

    The per-depth cosine equals ``cos(delta_n - theta)`` with
    ``delta_n = angle(b_n) - angle(a_n)``, so the objective is the real
    part of a phasor mean and the grid maximum is exact up to grid
    resolution.  Swapping a and b negates every delta_n and mirrors the
    score across theta -> 2*pi - theta; the grid trig is built mirrored
    (cos symmetric, sin antisymmetric, bitwise) so the similarity value
    is exactly symmetric in its arguments.
    """
    if grid_size < 4:
        raise ValueError(f"grid_size must be at least 4, got {grid_size}")
    if a.delta_z != b.delta_z:
        raise ValueError(f"slice widths differ: {a.delta_z} vs {b.delta_z}")
    n = min(a.n_slices, b.n_slices)
    ang_a, mag_a = _angles_and_mags(a, n)
    ang_b, mag_b = _angles_and_mags(b, n)
    keep = (mag_a > 0) & (mag_b > 0)
    if not keep.any():
        raise ValueError("degenerate shape function: no depth has nonzero centers in both tracks")
    delta = ang_b[keep] - ang_a[keep]
    step = 2.0 * np.pi / grid_size
    k = np.arange(grid_size)
    mirror = np.minimum(k, grid_size - k)
    cos_t = np.cos(mirror * step)
    sin_t = np.where(k <= grid_size - k, 1.0, -1.0) * np.sin(mirror * step)
    if grid_size % 2 == 0:
        sin_t[grid_size // 2] = 0.0  # sin(pi) exactly, not within rounding
    # mean_n cos(delta_n - theta), expanded so one pass covers all theta
    score = np.cos(delta).mean() * cos_t + np.sin(delta).mean() * sin_t
    best = int(np.argmax(score))
    return ShapeSimilarity(phi=float(score[best]), best_theta=float(best * step),
                           n_compared=int(keep.sum()))


def shape_similarity_matrix(subjects, grid_size: int = DEFAULTS.theta_samples):
    """Pairwise rotation-maximized similarity for ``(id, ShapeCenterFn)``
    pairs.  Each unordered pair is computed once, which enforces exact
    symmetry of the returned matrix."""
    ids = [sid for sid, _ in subjects]
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate subject ids")
    if len(ids) < 2:
        raise ValueError("need at least 2 subjects for a similarity matrix")
    m = len(ids)
    values = np.full((m, m), np.nan)
    for i in range(m):
        for j in range(i + 1, m):
            phi = shape_similarity(subjects[i][1], subjects[j][1], grid_size).phi
            values[i, j] = values[j, i] = phi
    return SimilarityMatrix(tuple(ids), values, kind="shape")
