"""Shape-acoustic correlation: per-subject regression and matrix reports.

For each subject n the off-diagonal entries of the shape and acoustic
similarity matrices form paired observations (phi_s[n,m], phi_a[n,m]),
m != n.  An ordinary least-squares line through those pairs, with its
Pearson correlation r and coefficient of determination R^2, quantifies
how well canal geometry predicts canal acoustics for that subject.
Matrix-level statistics (overall mean and the excess of a designated
pair over it) summarize how strongly a particular pair, such as a twin
pair, stands out from the cohort.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from earcanal.config import json_text, readonly_view


def _fmt(x: float) -> str:
    """Shortest exact decimal form; the one format used in every output
    file so reruns are byte-identical."""
    return repr(float(x))


_fmt_cells = np.frompyfunc(_fmt, 1, 1)  # _fmt of every element, as an object array


def mirror_upper(cells: np.ndarray) -> np.ndarray:
    """``cells`` above the diagonal, mirrored below a NaN diagonal: each
    unordered pair is read once, so the result is exactly symmetric."""
    upper = np.triu_indices(cells.shape[0], 1)
    out = np.full(cells.shape, np.nan)
    out[upper] = out.T[upper] = cells[upper]
    return out


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric inter-subject similarity with an undefined diagonal.

    ``values[i, j]`` is the similarity between ``ids[i]`` and ``ids[j]``;
    the diagonal holds NaN.  An acoustic matrix may carry a per-cell
    standard deviation over take pairs.
    """

    ids: tuple
    values: np.ndarray
    stds: np.ndarray | None = None

    def __post_init__(self) -> None:
        ids = tuple(str(s) for s in self.ids)
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate subject ids")
        m = len(ids)
        v = readonly_view(self.values)
        if v.shape != (m, m):
            raise ValueError(f"values must be {m}x{m}, got {v.shape}")
        off = ~np.eye(m, dtype=bool)
        defined = off & ~np.isnan(v)
        if np.any(np.abs(v[defined]) > 1.0 + 1e-12):
            raise ValueError("similarity values must lie in [-1, 1]")
        if not np.array_equal(v, v.T, equal_nan=True):
            raise ValueError("similarity matrix must be symmetric")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", v)
        s = self.stds
        if s is not None:
            s = readonly_view(s)
            if s.shape != (m, m):
                raise ValueError(f"stds must be {m}x{m}, got {s.shape}")
            if np.any(s[~np.isnan(s)] < 0):
                raise ValueError("standard deviations must be nonnegative")
        object.__setattr__(self, "stds", s)

    @property
    def n_subjects(self) -> int:
        return len(self.ids)

    def cell(self, a: str, b: str) -> float:
        try:
            i, j = self.ids.index(a), self.ids.index(b)
        except ValueError:
            unknown = a if a not in self.ids else b
            raise KeyError(f"unknown subject id {unknown!r}") from None
        if i == j:
            raise ValueError("diagonal cells are undefined")
        return float(self.values[i, j])

    def to_csv(self) -> str:
        shown = ~np.eye(self.n_subjects, dtype=bool) & ~np.isnan(self.values)
        cells = np.where(shown, _fmt_cells(self.values), "")
        if self.stds is not None:
            spread = shown & ~np.isnan(self.stds)
            cells = np.where(spread, cells + "±" + _fmt_cells(self.stds), cells)
        lines = [",".join(("subject", *self.ids))]
        lines += [sid + "," + ",".join(row) for sid, row in zip(self.ids, cells.tolist())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "SimilarityMatrix":
        rows = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if not rows:
            raise ValueError("empty similarity CSV")
        header = rows[0].split(",")
        if header[0] != "subject":
            raise ValueError("similarity CSV must start with a 'subject' header column")
        ids = header[1:]
        m = len(ids)
        values = np.full((m, m), np.nan)
        stds = np.full((m, m), np.nan)
        has_std = False
        if len(rows) != m + 1:
            raise ValueError(f"expected {m} data rows, got {len(rows) - 1}")
        for i, row in enumerate(rows[1:]):
            cells = row.split(",")
            if cells[0] != ids[i]:
                raise ValueError(f"row order mismatch: expected {ids[i]!r}, got {cells[0]!r}")
            if len(cells) != m + 1:
                raise ValueError(f"row {ids[i]!r} has {len(cells) - 1} cells, expected {m}")
            for j, cell in enumerate(cells[1:]):
                cell = cell.strip()
                if not cell:
                    continue
                if "±" in cell:
                    mean_s, std_s = cell.split("±")
                    values[i, j] = float(mean_s)
                    stds[i, j] = float(std_s)
                    has_std = True
                else:
                    values[i, j] = float(cell)
        undefined = np.argwhere(np.isnan(values) & ~np.eye(m, dtype=bool))
        if len(undefined):
            i, j = undefined[0]
            raise ValueError(f"cell ({ids[i]}, {ids[j]}) is empty or NaN")
        return cls(tuple(ids), values, stds=stds if has_std else None)


@dataclass(frozen=True)
class MatrixStatistics:
    """Overall off-diagonal mean and one pair's excess over it."""

    overall_mean: float
    pair_value: float
    percent_excess: float


@dataclass(frozen=True)
class RegressionResult:
    """Ordinary least squares y = slope*x + intercept over (x, y) pairs.

    ``degenerate`` marks a zero-variance y, for which r is defined as 0.
    For a nondegenerate simple regression ``r_squared == r**2``.
    """

    pairs: tuple
    slope: float
    intercept: float
    r: float
    r_squared: float
    subject_id: str
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "schema": "regression/1",
            "subject_id": self.subject_id,
            "pairs": [[x, y] for x, y in self.pairs],
            "slope": self.slope,
            "intercept": self.intercept,
            "r": self.r,
            "r_squared": self.r_squared,
            "degenerate": self.degenerate,
        }


def matrix_statistics(m: SimilarityMatrix, pair: tuple) -> MatrixStatistics:
    """Overall mean of the unordered off-diagonal cells and how far the
    designated pair's cell sits above it, in percent.

    Requires a fully populated off-diagonal: a missing cell would bias
    the mean silently.
    """
    vals = m.values[np.triu_indices(m.n_subjects, 1)]
    if np.isnan(vals).any():
        raise ValueError("matrix has undefined off-diagonal cells")
    overall = float(vals.mean())
    pair_value = m.cell(pair[0], pair[1])
    if overall == 0.0:
        raise ValueError("overall mean is zero; percent excess is undefined")
    excess = 100.0 * (pair_value / overall - 1.0)
    return MatrixStatistics(overall, pair_value, excess)


def _regressions(x: np.ndarray, y: np.ndarray, ids) -> list:
    """Least-squares line, Pearson r, and R^2 of each row pair of the
    (B, n) arrays ``x`` and ``y``, one :class:`RegressionResult` per id.
    Zero x-variance in any row leaves its slope undefined and is an error;
    a row of zero y-variance is flagged degenerate with r = R^2 = 0 (the
    fitted line is flat and explains nothing that varies)."""
    if x.shape[1] < 2:
        raise ValueError(f"regression needs at least 2 pairs, got {x.shape[1]}")
    x_mean, y_mean = x.mean(axis=1), y.mean(axis=1)
    dx = x - x_mean[:, None]
    dy = y - y_mean[:, None]
    # np.dot of each row pair: the same BLAS dot as on one row alone
    sxx, syy, sxy = (np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
                     for a, b in ((dx, dx), (dy, dy), (dx, dy)))
    if (sxx == 0.0).any():
        raise ValueError("x values are all equal; slope is undefined")
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    degenerate = syy == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(degenerate, 0.0, sxy / np.sqrt(sxx * syy))
        ss_res = ((y - (slope[:, None] * x + intercept[:, None])) ** 2).sum(axis=1)
        r_squared = np.where(degenerate, 0.0, 1.0 - ss_res / syy)
    fits = zip(ids, x.tolist(), y.tolist(), slope.tolist(), intercept.tolist(),
               r.tolist(), r_squared.tolist(), degenerate.tolist())
    return [RegressionResult(tuple(zip(xs, ys)), b, c, rr, r2, sid, deg)
            for sid, xs, ys, b, c, rr, r2, deg in fits]


def regress_all_subjects(shape_m: SimilarityMatrix, acoustic_m: SimilarityMatrix) -> list:
    """One regression per subject, in shape-matrix id order, all in one batch.

    Subject n's pairs are its (shape, acoustic) similarities against every
    other subject, in id order; the acoustic value is the cell mean.
    """
    if set(shape_m.ids) != set(acoustic_m.ids):
        raise ValueError("shape and acoustic matrices cover different subjects")
    m = shape_m.n_subjects
    if m < 3:
        raise ValueError("need at least 3 subjects (2 pairs) for a regression")
    # the acoustic row of each shape id: the two sorted id lists match by rank
    rows = np.empty(m, dtype=np.intp)
    rows[np.argsort(np.array(shape_m.ids, dtype=object))] = np.argsort(
        np.array(acoustic_m.ids, dtype=object))
    off = ~np.eye(m, dtype=bool)
    x = shape_m.values[off].reshape(m, m - 1)
    y = acoustic_m.values[np.ix_(rows, rows)][off].reshape(m, m - 1)
    return _regressions(x, y, shape_m.ids)


def _svg_scatter(result: RegressionResult) -> str:
    """Deterministic standalone scatter-and-fit plot.

    Hand-rolled rather than delegated to a plotting library so that two
    runs emit identical bytes.
    """
    w, h = 480, 360
    ml, mr, mt, mb = 60, 20, 36, 48
    xs = [p[0] for p in result.pairs]
    ys = [p[1] for p in result.pairs]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xpad = (x1 - x0) * 0.1 or max(abs(x0), 1.0) * 0.1
    ypad = (y1 - y0) * 0.1 or max(abs(y0), 1.0) * 0.1
    x0, x1 = x0 - xpad, x1 + xpad
    y0, y1 = y0 - ypad, y1 + ypad

    def sx(v: float) -> str:
        return f"{ml + (v - x0) / (x1 - x0) * (w - ml - mr):.2f}"

    def sy(v: float) -> str:
        return f"{h - mb - (v - y0) / (y1 - y0) * (h - mt - mb):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{w - ml - mr}" height="{h - mt - mb}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    title = result.subject_id or "regression"
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts.append(
        f'<text x="{w // 2}" y="22" font-family="sans-serif" font-size="14" '
        f'text-anchor="middle">{title}: r={result.r:.3f}, R2={result.r_squared:.3f}</text>'
    )
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(
            f'<text x="{sx(xv)}" y="{h - mb + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{xv:.3f}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{sy(yv)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end" dominant-baseline="middle">{yv:.3f}</text>'
        )
    parts.append(
        f'<text x="{w // 2}" y="{h - 10}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle">shape similarity</text>'
    )
    parts.append(
        f'<text x="16" y="{h // 2}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {h // 2})">acoustic similarity</text>'
    )
    ya = result.slope * x0 + result.intercept
    yb = result.slope * x1 + result.intercept
    parts.append(
        f'<line x1="{sx(x0)}" y1="{sy(ya)}" x2="{sx(x1)}" y2="{sy(yb)}" '
        f'stroke="#1f77b4" stroke-width="1.5"/>'
    )
    for px, py in result.pairs:
        parts.append(f'<circle cx="{sx(px)}" cy="{sy(py)}" r="4" fill="#d62728"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(
    shape_m: SimilarityMatrix,
    acoustic_m: SimilarityMatrix,
    out_dir,
    designated_pair: tuple | None = None,
    config: dict | None = None,
) -> dict:
    """Write the full correlation report bundle into ``out_dir``.

    Emits both matrices as CSV, a per-subject regression CSV, one SVG
    scatter-and-fit plot per subject, and a machine-readable JSON summary
    embedding the resolved configuration.  Returns the summary dict.
    Outputs are pure functions of the inputs: identical inputs give
    byte-identical files.  Every file is built before the first is
    written, so a failure writes nothing.
    """
    results = regress_all_subjects(shape_m, acoustic_m)
    files = {
        "shape_similarity.csv": shape_m.to_csv(),
        "acoustic_similarity.csv": acoustic_m.to_csv(),
    }

    lines = ["subject,r,r_squared,slope,intercept,degenerate"]
    for res in results:
        lines.append(
            f"{res.subject_id},{_fmt(res.r)},{_fmt(res.r_squared)},"
            f"{_fmt(res.slope)},{_fmt(res.intercept)},{int(res.degenerate)}"
        )
    files["regressions.csv"] = "\n".join(lines) + "\n"
    for res in results:
        files[f"scatter_{res.subject_id}.svg"] = _svg_scatter(res)

    summary: dict = {
        "schema": "correlation_report/1",
        "subjects": list(shape_m.ids),
        "regressions": [r.to_dict() for r in results],
        "config": config or {},
    }
    if designated_pair is not None:
        for name, matrix in (("shape", shape_m), ("acoustic", acoustic_m)):
            st = matrix_statistics(matrix, designated_pair)
            summary[f"{name}_statistics"] = {
                "overall_mean": st.overall_mean,
                "pair": list(designated_pair),
                "pair_value": st.pair_value,
                "percent_excess": st.percent_excess,
            }
    files["summary.json"] = json_text(summary)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    return summary
