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

from earcanal.analysis import SimilarityMatrix, mirror_upper
from earcanal.config import DEFAULTS, readonly_view
# fit_ellipse is imported for perfbench/spans.py, which looks it up here
from earcanal.ellipse import EllipseFitError, fit_conics, fit_ellipse  # noqa: F401
from earcanal.mesh import SliceSet


@dataclass(frozen=True)
class ShapeCenterFn:
    """Ellipse-center track relative to the entrance slice.

    ``centers[n]`` is the xy offset of slice n's ellipse center from
    slice 0's; ``centers[0]`` is exactly (0, 0).  ``raw_centers`` keeps
    the uncorrected fit centers for diagnostics, and ``interpolated``
    holds, as a read-only int64 array, the slice indices whose center was
    filled by interpolation rather than fitted.
    """

    delta_z: float
    centers: np.ndarray
    raw_centers: np.ndarray
    interpolated: np.ndarray = field(default=())

    def __post_init__(self) -> None:
        c = readonly_view(self.centers).reshape(-1, 2)
        if c.shape[0] < 2:
            raise ValueError("shape center function needs at least 2 slices")
        raw = readonly_view(self.raw_centers).reshape(-1, 2)
        if raw.shape != c.shape:
            raise ValueError("raw_centers must match centers in shape")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "raw_centers", raw)
        object.__setattr__(self, "interpolated", readonly_view(self.interpolated, np.int64))

    @property
    def n_slices(self) -> int:
        return self.centers.shape[0]

    def to_dict(self) -> dict:
        return {
            "schema": "shape_center_fn/1",
            "delta_z": self.delta_z,
            "centers": self.centers.tolist(),
            "raw_centers": self.raw_centers.tolist(),
            "interpolated": self.interpolated.tolist(),
        }

    def to_csv(self) -> str:
        """CSV rendering with columns n, x_n, y_n."""
        lines = ["n,x_n,y_n"]
        lines += [f"{n},{x!r},{y!r}" for n, (x, y) in enumerate(self.centers.tolist())]
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
    it has no later neighbor to interpolate toward.  The points of the
    slices to fit are copied once, into one array fitted as one batch.
    """
    fittable = slices.bins >= min_points
    track = np.full((len(slices.bins), 2), np.nan)
    # one expression, so fit_conics frees the copy; np.compress beats a 2-D boolean index
    track[fittable] = fit_conics(
        np.compress(np.repeat(fittable, slices.bins), slices.xy, axis=0), slices.bins[fittable])[1]
    fitted = np.flatnonzero(~np.isnan(track[:, 0]))
    if fitted.size == 0 or fitted[0] != 0:
        raise EllipseFitError(
            "entrance slice 0 is unfittable; the center track has no origin"
        )
    # drop the unfittable tail
    track = track[: fitted[-1] + 1]
    if len(track) < 2:
        raise EllipseFitError("fewer than 2 fittable slices; no center track")

    # linear fill of each gap k from its fitted neighbors prev < k < n
    gaps = np.flatnonzero(np.isnan(track[:, 0]))
    after = np.searchsorted(fitted, gaps)
    prev, n = fitted[after - 1], fitted[after]
    f = ((gaps - prev) / (n - prev))[:, None]
    track[gaps] = (1.0 - f) * track[prev] + f * track[n]
    return ShapeCenterFn(slices.delta_z, track - track[0], track, gaps)


def _similarities(tracks, grid_size: int) -> tuple:
    """``(phi, best_theta, n_compared)`` of every ordered pair of
    ``tracks``, as (m, m) arrays.

    phi is the mean over depths n >= 1 of the cosine between
    ``rotate(a.centers[n], theta)`` and ``b.centers[n]``, maximized over
    ``grid_size`` evenly spaced theta in [0, 2*pi); depths where either
    center is zero, or past its track's end, are skipped.  That mean is
    ``Re(z e^{-i theta})``, z the mean of ``conj(u_a) u_b`` over the unit
    phasors u of the centers, so one Gram product gives every z.  The
    grid maximum is the index nearest ``arg z`` or a neighbour that
    rounding ties or lifts; the lowest such index wins, as in
    ``np.argmax``.  Swapping a and b negates ``Im z`` (an exact
    difference) and the grid trig is mirrored bitwise, so phi is
    symmetric up to the product's rounding of ``Re z``.
    """
    if grid_size < 4:
        raise ValueError(f"grid_size must be at least 4, got {grid_size}")
    if len({t.delta_z for t in tracks}) > 1:
        raise ValueError(f"slice widths differ: {sorted({t.delta_z for t in tracks})}")
    centers = np.zeros((len(tracks), max(t.n_slices for t in tracks) - 1, 2))
    for row, t in zip(centers, tracks):
        row[: t.n_slices - 1] = t.centers[1:]
    mag = np.hypot(centers[..., 0], centers[..., 1])
    unit = centers / np.where(mag > 0, mag, 1.0)[..., None]
    x, y, present = unit[..., 0], unit[..., 1], (mag > 0).astype(np.float64)
    count = present @ present.T
    if (count == 0).any():
        raise ValueError("degenerate shape function: no depth has nonzero centers in both tracks")
    xy = x @ y.T
    re, im = (x @ x.T + y @ y.T) / count, (xy - xy.T) / count

    step = 2.0 * np.pi / grid_size
    k = np.arange(grid_size)
    mirror = np.minimum(k, grid_size - k)
    cos_t = np.cos(mirror * step)
    sin_t = np.where(k <= grid_size - k, 1.0, -1.0) * np.sin(mirror * step)
    if grid_size % 2 == 0:
        sin_t[grid_size // 2] = 0.0  # sin(pi) exactly, not within rounding
    near = np.rint(np.arctan2(im, re) / step).astype(np.int64)[..., None] + np.array([-1, 0, 1])
    near %= grid_size
    score = re[..., None] * cos_t[near] + im[..., None] * sin_t[near]
    phi = score.max(axis=-1)
    best = np.where(score == phi[..., None], near, grid_size).min(axis=-1)
    return phi, best * step, count.astype(np.int64)


def shape_similarity(a: ShapeCenterFn, b: ShapeCenterFn,
                     grid_size: int = DEFAULTS.theta_samples) -> ShapeSimilarity:
    """Rotation-maximized mean cosine between two center tracks: the
    matrix computation of :func:`_similarities` on the pair."""
    phi, theta, count = _similarities([a, b], grid_size)
    return ShapeSimilarity(float(phi[0, 1]), float(theta[0, 1]), int(count[0, 1]))


def shape_similarity_matrix(subjects, grid_size: int = DEFAULTS.theta_samples):
    """Pairwise rotation-maximized similarity for ``(id, ShapeCenterFn)``
    pairs."""
    ids = [sid for sid, _ in subjects]
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate subject ids")
    if len(ids) < 2:
        raise ValueError("need at least 2 subjects for a similarity matrix")
    phi = _similarities([t for _, t in subjects], grid_size)[0]
    return SimilarityMatrix(tuple(ids), mirror_upper(phi))
