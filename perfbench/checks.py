"""Output checks, computed apart from the program.

Every check reads the files a pass wrote and recomputes what they must
hold with numpy, from the inputs' generator parameters and the other
outputs; none compares against a stored copy of earlier output, and none
calls the pipeline code.  Each raises :class:`CheckError` on the first
violation it finds.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from earcanal.synth import CanalGenerator

FEATURE_POWER_TOL = 1e-6  # float32 storage moves the power by at most ~2 * 2**-24
CELL_TOL = 1e-6  # cosines of float32-stored features vs the float64 originals
BOUND_SLACK = 1e-12
REGRESSION_RTOL = 1e-8


class CheckError(AssertionError):
    """A pass output violates a check."""


def _fail(check: str, message: str) -> None:
    raise CheckError(f"{check}: {message}")


def read_matrix(path: Path):
    """``(ids, values, stds)`` of a similarity CSV; the diagonal and
    cells without a ``±std`` part hold NaN."""
    rows = [ln.split(",") for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    ids = rows[0][1:]
    m = len(ids)
    values = np.full((m, m), np.nan)
    stds = np.full((m, m), np.nan)
    if [r[0] for r in rows[1:]] != ids or any(len(r) != m + 1 for r in rows[1:]):
        _fail("matrix", f"{path.name} is not a square matrix over {ids}")
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row[1:]):
            if cell:
                mean, _, std = cell.partition("±")
                values[i, j] = float(mean)
                if std:
                    stds[i, j] = float(std)
    return ids, values, stds


def _off_diagonal(values: np.ndarray) -> np.ndarray:
    return ~np.eye(values.shape[0], dtype=bool)


def read_track(out: Path, sid: str) -> np.ndarray:
    data = np.loadtxt(out / "shape" / f"ec_{sid}.csv", delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(data[:, 0], np.arange(data.shape[0])):
        _fail("tracks", f"ec_{sid}.csv rows are not numbered 0, 1, ...")
    return data[:, 1:3]


def read_features(plan: dict, out: Path) -> dict:
    """Feature arrays per subject, in take order."""
    length = plan["config"]["feature_length"]
    features = {}
    for sid, takes in plan["takes"].items():
        rows = []
        for take in range(takes):
            path = out / "acoustic" / f"feature_{sid}_{take:02d}.f32"
            if not path.is_file():
                _fail("features", f"missing {path.name}")
            x = np.fromfile(path, dtype="<f4").astype(np.float64)
            if x.shape[0] != length:
                _fail("features", f"{path.name} holds {x.shape[0]} samples, expected {length}")
            power = float(np.dot(x, x))
            if abs(power - 1.0) > FEATURE_POWER_TOL:
                _fail("features", f"{path.name} has power {power!r}, expected 1")
            rows.append(x)
        features[sid] = np.array(rows)
    return features


def check_features(plan: dict, out: Path) -> None:
    """Every take has a feature of ``feature_length`` samples and unit
    power within float32 rounding."""
    read_features(plan, out)


def _bad_cell(bad: np.ndarray):
    """(i, j) of the first flagged off-diagonal cell, or None."""
    cells = np.argwhere(bad & _off_diagonal(bad))
    return tuple(cells[0]) if len(cells) else None


def check_acoustic_matrix(plan: dict, out: Path) -> None:
    """Each cell is the mean and population std of the cosines over all
    cross-subject take pairs of the written features."""
    features = read_features(plan, out)
    ids, values, stds = read_matrix(out / "acoustic" / "acoustic_similarity.csv")
    if sorted(ids) != sorted(features):
        _fail("acoustic matrix", f"subjects {ids} differ from the manifest's")
    f = np.concatenate([features[sid] for sid in ids])
    u = f / np.linalg.norm(f, axis=1, keepdims=True)
    cos = u @ u.T
    takes = np.array([len(features[sid]) for sid in ids])
    starts = np.concatenate([[0], np.cumsum(takes)[:-1]])

    def block_sums(x):
        return np.add.reduceat(np.add.reduceat(x, starts, axis=0), starts, axis=1)

    pairs = np.outer(takes, takes)
    mean = block_sums(cos) / pairs
    std = np.sqrt(np.maximum(block_sums(cos * cos) / pairs - mean * mean, 0.0))
    for what, got, want in (("mean", values, mean), ("std", stds, std)):
        cell = _bad_cell(~(np.abs(got - want) <= CELL_TOL))
        if cell:
            i, j = cell
            _fail("acoustic matrix", f"cell ({ids[i]}, {ids[j]}) {what} {float(got[i, j])!r}, "
                  f"recomputed {float(want[i, j])!r}")


def check_tracks(plan: dict, out: Path) -> None:
    """Each track follows its generator's centerline at slice mid-depth,
    relative to slice 0, within one slice width, over every slice."""
    dz = plan["config"]["delta_z"]
    for sid, canal in plan["canals"].items():
        gen = CanalGenerator.from_dict(canal)
        track = read_track(out, sid)
        ring = gen.length / gen.rings
        # centroids of the tube's facets sit one third of a ring above
        # and below the rings; the lowest is the slicing origin
        z_origin = ring / 3.0
        n_slices = int(np.ceil((gen.length - 2.0 * ring / 3.0) / dz - 1e-9))
        if track.shape[0] != n_slices:
            _fail("tracks", f"{sid}: {track.shape[0]} slices, expected {n_slices}")
        x, y = gen.centerline_xy(z_origin + (np.arange(n_slices) + 0.5) * dz)
        err = np.hypot(track[:, 0] - (x - x[0]), track[:, 1] - (y - y[0]))
        worst = int(np.argmax(err))
        if err[worst] > dz:
            _fail("tracks", f"{sid}: slice {worst} is {err[worst]:.4g} mm off the centerline")


def check_shape_matrix(plan: dict, out: Path) -> None:
    """With z the mean of conj(u_a) u_b over the common nonzero depths
    (u: unit phasors of the written tracks after slice 0), every cell phi
    satisfies |z| cos(pi / G) <= phi <= |z|, G the theta grid size."""
    ids, values, _ = read_matrix(out / "shape" / "shape_similarity.csv")
    if sorted(ids) != sorted(plan["canals"]):
        _fail("shape matrix", f"subjects {ids} differ from the manifest's")
    tracks = [read_track(out, sid)[1:] for sid in ids]
    # zero-padded phasors: a depth beyond a track's end counts as a zero
    # center, which the comparison skips like the program's common prefix
    u = np.zeros((len(ids), max(len(t) for t in tracks)), dtype=complex)
    for row, t in zip(u, tracks):
        z = t[:, 0] + 1j * t[:, 1]
        nonzero = z != 0
        row[: len(t)][nonzero] = z[nonzero] / np.abs(z[nonzero])
    present = (u != 0).astype(float)
    r = np.abs(np.conj(u) @ u.T) / (present @ present.T)
    low = r * np.cos(np.pi / plan["config"]["theta_samples"])
    cell = _bad_cell(~((low - BOUND_SLACK <= values) & (values <= r + BOUND_SLACK)))
    if cell:
        i, j = cell
        _fail("shape matrix", f"cell ({ids[i]}, {ids[j]}) = {float(values[i, j])!r} "
              f"outside [{float(low[i, j])!r}, {float(r[i, j])!r}]")


def check_regressions(plan: dict, out: Path) -> None:
    """Each subject's slope, intercept, r and R^2 recomputed from the two
    matrices: acoustic cell means regressed on shape cells."""
    s_ids, shape_v, _ = read_matrix(out / "shape" / "shape_similarity.csv")
    a_ids, acoustic_v, _ = read_matrix(out / "acoustic" / "acoustic_similarity.csv")
    order = [a_ids.index(sid) for sid in s_ids]
    acoustic_v = acoustic_v[np.ix_(order, order)]
    lines = (out / "report" / "regressions.csv").read_text().splitlines()
    if lines[0] != "subject,r,r_squared,slope,intercept,degenerate" or len(lines) != len(s_ids) + 1:
        _fail("regressions", "regressions.csv does not hold one row per subject")
    for i, line in enumerate(lines[1:]):
        sid, *cells = line.split(",")
        if sid != s_ids[i]:
            _fail("regressions", f"row {i} is {sid!r}, expected {s_ids[i]!r}")
        keep = np.arange(len(s_ids)) != i
        x, y = shape_v[i, keep], acoustic_v[i, keep]
        slope, intercept = (float(c) for c in np.polyfit(x, y, 1))
        r = float(np.corrcoef(x, y)[0, 1])
        r2 = float(1.0 - np.sum((y - (slope * x + intercept)) ** 2) / np.sum((y - y.mean()) ** 2))
        got = [float(c) for c in cells[:4]]
        for name, g, want in zip(("r", "r_squared", "slope", "intercept"), got, (r, r2, slope, intercept)):
            if not np.isclose(g, want, rtol=REGRESSION_RTOL, atol=1e-12):
                _fail("regressions", f"{sid}: {name} {g!r}, recomputed {want!r}")
        if cells[4] != "0":
            _fail("regressions", f"{sid}: flagged degenerate")


def check_same_geometry(plan: dict, out: Path) -> None:
    """The binary and ASCII copies of one geometry give identical tracks
    and a shape cell of 1 within 1e-12."""
    a, b = plan["same_geometry"]
    if not np.array_equal(read_track(out, a), read_track(out, b)):
        _fail("same geometry", f"tracks of {a} and {b} differ")
    ids, values, _ = read_matrix(out / "shape" / "shape_similarity.csv")
    cell = float(values[ids.index(a), ids.index(b)])
    if abs(cell - 1.0) > 1e-12:
        _fail("same geometry", f"shape cell ({a}, {b}) = {cell!r}, expected 1")


def check_twins(plan: dict, out: Path) -> None:
    """The twin pair is the top cell of both matrices and every
    regression slope is positive."""
    twins = sorted(plan["twins"])
    for path in (out / "shape" / "shape_similarity.csv", out / "acoustic" / "acoustic_similarity.csv"):
        ids, values, _ = read_matrix(path)
        i, j = np.unravel_index(np.nanargmax(np.where(_off_diagonal(values), values, np.nan)), values.shape)
        if sorted((ids[i], ids[j])) != twins:
            _fail("twins", f"{path.name}: top cell is ({ids[i]}, {ids[j]}), not the twin pair")
    for line in (out / "report" / "regressions.csv").read_text().splitlines()[1:]:
        sid, _r, _r2, slope, *_ = line.split(",")
        if not float(slope) > 0:
            _fail("twins", f"{sid}: slope {slope} is not positive")


CHECKS = {
    "features": check_features,
    "acoustic_matrix": check_acoustic_matrix,
    "tracks": check_tracks,
    "shape_matrix": check_shape_matrix,
    "regressions": check_regressions,
    "same_geometry": check_same_geometry,
    "twins": check_twins,
}


def check_pass(plan: dict, out: Path) -> None:
    """Run the checks the workload's plan names."""
    for name in plan["checks"]:
        CHECKS[name](plan, out)
