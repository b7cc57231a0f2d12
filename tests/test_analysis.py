"""Similarity matrices, per-subject regression, and report emission."""

from importlib import resources
from xml.etree import ElementTree

import numpy as np
import pytest

from earcanal.analysis import (
    RegressionResult,
    SimilarityMatrix,
    _fmt,
    _regressions,
    emit_report,
    matrix_statistics,
    regress_all_subjects,
)
from earcanal.config import json_text


def tri_matrix(vals, ids=("a", "b", "c"), stds=None):
    m = len(ids)
    v = np.full((m, m), np.nan)
    k = 0
    for i in range(m):
        for j in range(i + 1, m):
            v[i, j] = v[j, i] = vals[k]
            k += 1
    return SimilarityMatrix(tuple(ids), v, stds=stds)


def linear_regression(pairs, subject_id=None):
    """The regression of one subject's (x, y) pairs, as the batch of one
    row that :func:`regress_all_subjects` runs."""
    pts = np.array([(float(x), float(y)) for x, y in pairs]).reshape(-1, 2)
    x, y = np.ascontiguousarray(pts.T)
    return _regressions(x[None], y[None], (subject_id,))[0]


def load_fixture(name):
    text = (resources.files("earcanal") / "fixtures" / name).read_text()
    return SimilarityMatrix.from_csv(text)


def test_matrix_validation():
    with pytest.raises(ValueError):
        SimilarityMatrix(("a", "b"), np.array([[np.nan, 0.5], [0.4, np.nan]]))
    with pytest.raises(ValueError):
        SimilarityMatrix(("a", "a"), np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        SimilarityMatrix(("a", "b"), np.full((3, 3), np.nan))
    with pytest.raises(ValueError):
        tri_matrix([1.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        tri_matrix([0.5, 0.4, 0.3], stds=-np.ones((3, 3)))


def test_matrix_lookup():
    m = tri_matrix([0.2, 0.4, 0.6])
    assert m.cell("a", "b") == 0.2
    assert m.cell("c", "a") == 0.4
    assert m.cell("c", "b") == 0.6
    with pytest.raises(ValueError):
        m.cell("a", "a")
    with pytest.raises(KeyError, match="'z'"):
        m.cell("z", "a")
    with pytest.raises(KeyError, match="'z'"):
        m.cell("a", "z")


def test_matrix_csv_round_trip():
    m = tri_matrix([0.2, 1 / 3, 0.6])
    text = "# generated for a round-trip check\n" + m.to_csv()
    again = SimilarityMatrix.from_csv(text)  # comment lines are skipped
    assert again.ids == m.ids
    np.testing.assert_array_equal(again.values, m.values)  # repr is exact


@pytest.mark.parametrize("m", [0, 1, 2])
def test_small_matrix_csv_round_trip(m):
    # no subjects writes a bare "subject" header, not "subject,"
    matrix = tri_matrix([0.5], ids=("a", "b")[:m])
    again = SimilarityMatrix.from_csv(matrix.to_csv())
    assert again.ids == matrix.ids
    np.testing.assert_array_equal(again.values, matrix.values)


def test_matrix_csv_round_trip_with_stds():
    stds = np.full((3, 3), np.nan)
    stds[np.triu_indices(3, 1)] = [0.01, 0.02, 0.03]
    stds[np.tril_indices(3, -1)] = stds.T[np.tril_indices(3, -1)]
    m = tri_matrix([0.2, 0.4, 0.6], stds=stds)
    text = m.to_csv()
    assert "0.2±0.01" in text
    again = SimilarityMatrix.from_csv(text)
    np.testing.assert_array_equal(again.values, m.values)
    np.testing.assert_array_equal(again.stds, m.stds)


def test_matrix_csv_rejects_malformed_input():
    with pytest.raises(ValueError):
        SimilarityMatrix.from_csv("# only comments\n")
    with pytest.raises(ValueError):
        SimilarityMatrix.from_csv("id,a,b\na,,0.5\nb,0.5,\n")
    good = tri_matrix([0.2, 0.4, 0.6]).to_csv()
    swapped = good.replace("b,0.2", "x,0.2")
    with pytest.raises(ValueError):
        SimilarityMatrix.from_csv(swapped)
    with pytest.raises(ValueError):
        SimilarityMatrix.from_csv(good + "extra,0.1,0.2,0.3\n")


@pytest.mark.parametrize("cell", ["", "nan", "nan±0.01"])
def test_matrix_csv_rejects_undefined_cells(cell):
    text = tri_matrix([0.2, 0.4, 0.6]).to_csv().replace("b,0.2,,0.6", f"b,0.2,,{cell}")
    with pytest.raises(ValueError, match=r"cell \(b, c\) is empty or NaN"):
        SimilarityMatrix.from_csv(text)


def test_matrix_statistics_hand_case():
    st = matrix_statistics(tri_matrix([0.2, 0.4, 0.6]), ("b", "c"))
    assert st.overall_mean == pytest.approx(0.4)
    assert st.pair_value == 0.6
    assert st.percent_excess == pytest.approx(50.0)


def test_matrix_statistics_rejects_holes_and_zero_mean():
    m = len(("a", "b", "c"))
    v = np.full((m, m), np.nan)
    v[0, 1] = v[1, 0] = 0.5
    v[0, 2] = v[2, 0] = 0.5
    with pytest.raises(ValueError):
        matrix_statistics(SimilarityMatrix(("a", "b", "c"), v), ("a", "b"))
    with pytest.raises(ValueError):
        matrix_statistics(tri_matrix([0.5, -0.25, -0.25]), ("a", "b"))


def test_regression_perfect_line():
    res = linear_regression([(1, 2), (2, 4), (3, 6)])
    assert res.slope == pytest.approx(2.0)
    assert res.intercept == pytest.approx(0.0, abs=1e-14)
    assert res.r == pytest.approx(1.0)
    assert res.r_squared == pytest.approx(1.0)
    assert not res.degenerate


def test_regression_hand_normal_equations():
    # x mean 1, y mean 2/3; sxx 2, sxy 1, syy 2/3
    res = linear_regression([(0, 0), (1, 1), (2, 1)])
    assert res.slope == pytest.approx(0.5)
    assert res.intercept == pytest.approx(1 / 6)
    assert res.r == pytest.approx(np.sqrt(3) / 2)
    assert res.r_squared == pytest.approx(0.75)


def test_regression_matches_polyfit_and_corrcoef():
    rng = np.random.default_rng(8)
    x = rng.normal(size=20)
    y = 0.7 * x + rng.normal(scale=0.3, size=20)
    res = linear_regression(zip(x, y))
    slope, intercept = np.polyfit(x, y, 1)
    assert res.slope == pytest.approx(slope, rel=1e-12)
    assert res.intercept == pytest.approx(intercept, rel=1e-12)
    assert res.r == pytest.approx(np.corrcoef(x, y)[0, 1], rel=1e-12)
    assert res.r_squared == pytest.approx(res.r**2, rel=1e-12)


def test_regression_degenerate_and_error_cases():
    res = linear_regression([(0, 1), (1, 1), (2, 1)])
    assert res.degenerate
    assert res.r == 0.0
    assert res.r_squared == 0.0
    assert res.slope == 0.0
    with pytest.raises(ValueError):
        linear_regression([(1, 0), (1, 1)])
    with pytest.raises(ValueError):
        linear_regression([(1, 1)])


def test_regression_permutation_invariance():
    pairs = [(0.1, 0.3), (0.5, 0.2), (0.9, 0.8), (0.3, 0.4)]
    a = linear_regression(pairs)
    b = linear_regression(pairs[::-1])
    assert a.slope == pytest.approx(b.slope, rel=1e-14)
    assert a.r == pytest.approx(b.r, rel=1e-14)


def test_regression_affine_response_scaling():
    pairs = [(0.1, 0.3), (0.5, 0.2), (0.9, 0.8), (0.3, 0.4)]
    base = linear_regression(pairs)
    scaled = linear_regression([(x, 3.0 * y + 1.0) for x, y in pairs])
    assert scaled.r == pytest.approx(base.r, rel=1e-12)
    assert scaled.slope == pytest.approx(3.0 * base.slope, rel=1e-12)


def test_regression_dict_form():
    d = linear_regression([(1, 2), (2, 4), (3, 7)], subject_id="s1").to_dict()
    assert d["schema"] == "regression/1"
    assert d["subject_id"] == "s1"
    assert len(d["pairs"]) == 3


def test_pairing_excludes_self_and_orders_by_ids():
    shape = tri_matrix([0.9, 0.8, 0.7])
    acoustic = tri_matrix([0.5, 0.4, 0.3])
    pairs = {res.subject_id: res.pairs for res in regress_all_subjects(shape, acoustic)}
    assert pairs == {
        "a": ((0.9, 0.5), (0.8, 0.4)),
        "b": ((0.9, 0.5), (0.7, 0.3)),
        "c": ((0.8, 0.4), (0.7, 0.3)),
    }


def test_pairing_validation():
    shape = tri_matrix([0.9, 0.8, 0.7])
    other = tri_matrix([0.5, 0.4, 0.3], ids=("a", "b", "z"))
    with pytest.raises(ValueError, match="different subjects"):
        regress_all_subjects(shape, other)
    two = SimilarityMatrix(("a", "b"), np.array([[np.nan, 0.5], [0.5, np.nan]]))
    with pytest.raises(ValueError, match="need at least 3 subjects"):
        regress_all_subjects(two, two)


def test_regress_all_subjects_order():
    shape = tri_matrix([0.9, 0.8, 0.7])
    acoustic = tri_matrix([0.5, 0.4, 0.3])
    results = regress_all_subjects(shape, acoustic)
    assert [r.subject_id for r in results] == ["a", "b", "c"]


def test_reference_shape_matrix_statistics():
    m = load_fixture("reference_shape_similarity.csv")
    assert m.ids == ("twins_a", "twins_b", "user_c", "user_d")
    st = matrix_statistics(m, ("twins_a", "twins_b"))
    assert st.overall_mean == pytest.approx(0.8516666666666666, abs=1e-12)
    assert st.percent_excess == pytest.approx(11.193737769080236, abs=1e-9)


def test_reference_acoustic_matrix_statistics():
    m = load_fixture("reference_acoustic_similarity.csv")
    assert m.stds is not None
    st = matrix_statistics(m, ("twins_a", "twins_b"))
    assert st.overall_mean == pytest.approx(0.3993333333333333, abs=1e-12)
    assert st.percent_excess == pytest.approx(28.714524207011706, abs=1e-9)


def test_reference_regressions():
    shape = load_fixture("reference_shape_similarity.csv")
    acoustic = load_fixture("reference_acoustic_similarity.csv")
    results = regress_all_subjects(shape, acoustic)
    got_r = {res.subject_id: res.r for res in results}
    assert got_r["twins_a"] == pytest.approx(0.9366526801259045, abs=1e-12)
    assert got_r["twins_b"] == pytest.approx(0.7431925147490050, abs=1e-12)
    assert got_r["user_c"] == pytest.approx(0.7519486227190540, abs=1e-12)
    assert got_r["user_d"] == pytest.approx(0.7570029097160472, abs=1e-12)


def test_emit_report_writes_the_bundle(tmp_path):
    shape = tri_matrix([0.9, 0.8, 0.7])
    acoustic = tri_matrix([0.5, 0.4, 0.3])
    summary = emit_report(shape, acoustic, tmp_path / "out",
                          designated_pair=("a", "b"), config={"seed": 1})
    out = tmp_path / "out"
    for name in ("shape_similarity.csv", "acoustic_similarity.csv",
                 "regressions.csv", "summary.json",
                 "scatter_a.svg", "scatter_b.svg", "scatter_c.svg"):
        assert (out / name).exists(), name
    assert summary["schema"] == "correlation_report/1"
    assert summary["config"] == {"seed": 1}
    assert summary["shape_statistics"]["pair_value"] == 0.9
    assert summary["acoustic_statistics"]["pair"] == ["a", "b"]
    header = (out / "regressions.csv").read_text().splitlines()[0]
    assert header == "subject,r,r_squared,slope,intercept,degenerate"
    svg = (out / "scatter_a.svg").read_text()
    assert svg.count("<circle") == 2  # one dot per regression pair


def test_svg_titles_are_escaped(tmp_path):
    ids = ("x<&y", "a>b", "plain")
    shape = tri_matrix([0.9, 0.8, 0.7], ids=ids)
    acoustic = tri_matrix([0.5, 0.4, 0.3], ids=ids)
    emit_report(shape, acoustic, tmp_path)
    svgs = sorted(tmp_path.glob("*.svg"))
    assert [p.name for p in svgs] == ["scatter_a>b.svg", "scatter_plain.svg", "scatter_x<&y.svg"]
    for path, sid in zip(svgs, ("a>b", "plain", "x<&y")):
        root = ElementTree.parse(path).getroot()
        titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert titles[0].startswith(f"{sid}: r=")


def test_failing_report_writes_nothing(tmp_path):
    shape = tri_matrix([0.9, 0.8, 0.7])
    acoustic = tri_matrix([0.5, 0.4, 0.3])
    with pytest.raises(ValueError, match="diagonal"):
        emit_report(shape, acoustic, tmp_path / "out", designated_pair=("a", "a"))
    assert not (tmp_path / "out").exists()


def test_emit_report_is_deterministic(tmp_path):
    shape = tri_matrix([0.913, 0.87, 0.7003])
    acoustic = tri_matrix([0.51, 0.42, 0.39])
    emit_report(shape, acoustic, tmp_path / "one", designated_pair=("a", "b"))
    emit_report(shape, acoustic, tmp_path / "two", designated_pair=("a", "b"))
    for f in sorted((tmp_path / "one").iterdir()):
        assert f.read_bytes() == (tmp_path / "two" / f.name).read_bytes(), f.name


# The per-subject, per-cell code that the batch regression and the array
# CSV writer replaced, kept as references for bitwise comparison.


def loop_linear_regression(pairs, subject_id=None):
    pts = [(float(x), float(y)) for x, y in pairs]
    if len(pts) < 2:
        raise ValueError(f"regression needs at least 2 pairs, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    sxy = float(np.dot(dx, dy))
    if sxx == 0.0:
        raise ValueError("x values are all equal; slope is undefined")
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    if syy == 0.0:
        return RegressionResult(tuple(pts), slope, intercept, 0.0, 0.0, subject_id, True)
    r = sxy / np.sqrt(sxx * syy)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    r_squared = 1.0 - ss_res / syy
    return RegressionResult(tuple(pts), slope, intercept, float(r), float(r_squared), subject_id,
                            False)


def loop_shape_acoustic_pairs(shape_m, acoustic_m, subject_id):
    if set(shape_m.ids) != set(acoustic_m.ids):
        raise ValueError("shape and acoustic matrices cover different subjects")
    if shape_m.n_subjects < 3:
        raise ValueError("need at least 3 subjects (2 pairs) for a regression")
    pairs = []
    for other in shape_m.ids:
        if other == subject_id:
            continue
        pairs.append((shape_m.cell(subject_id, other), acoustic_m.cell(subject_id, other)))
    return pairs


def loop_regress_all_subjects(shape_m, acoustic_m):
    return [
        loop_linear_regression(loop_shape_acoustic_pairs(shape_m, acoustic_m, sid), sid)
        for sid in shape_m.ids
    ]


def loop_to_csv(matrix):
    lines = ["subject," + ",".join(matrix.ids)]
    for i, sid in enumerate(matrix.ids):
        cells = []
        for j in range(matrix.n_subjects):
            if i == j or np.isnan(matrix.values[i, j]):
                cells.append("")
            elif matrix.stds is not None and not np.isnan(matrix.stds[i, j]):
                cells.append(f"{_fmt(matrix.values[i, j])}±{_fmt(matrix.stds[i, j])}")
            else:
                cells.append(_fmt(matrix.values[i, j]))
        lines.append(sid + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def random_matrix(m, rng, ids=None):
    v = rng.uniform(-1, 1, size=(m, m))
    v = np.triu(v, 1) + np.triu(v, 1).T
    np.fill_diagonal(v, np.nan)
    ids = ids or tuple(f"s{k:03d}" for k in range(m))
    return SimilarityMatrix(ids, v)


def assert_same_regressions(got, want):
    assert got == want
    # == takes -0.0 for 0.0; the JSON text does not
    assert json_text([r.to_dict() for r in got]) == json_text([r.to_dict() for r in want])


@pytest.mark.parametrize("m", [3, 4, 10, 50, 300])
def test_batch_regressions_are_bitwise_the_loop(m):
    rng = np.random.default_rng(m)
    shape = random_matrix(m, rng)
    acoustic = random_matrix(m, rng)
    assert_same_regressions(regress_all_subjects(shape, acoustic),
                            loop_regress_all_subjects(shape, acoustic))


@pytest.mark.parametrize("m", [3, 10, 50])
def test_batch_regressions_align_permuted_ids(m):
    rng = np.random.default_rng(100 + m)
    shape = random_matrix(m, rng)
    acoustic = random_matrix(m, rng)
    order = rng.permutation(m)
    permuted = SimilarityMatrix(tuple(acoustic.ids[k] for k in order),
                                acoustic.values[np.ix_(order, order)])
    got = regress_all_subjects(shape, permuted)
    assert_same_regressions(got, loop_regress_all_subjects(shape, permuted))
    assert_same_regressions(got, regress_all_subjects(shape, acoustic))


def test_batch_regression_of_a_constant_subject_is_degenerate():
    rng = np.random.default_rng(5)
    shape = random_matrix(6, rng)
    v = random_matrix(6, rng).values.copy()
    v[2, :] = v[:, 2] = 0.375
    v[2, 2] = np.nan
    acoustic = SimilarityMatrix(shape.ids, v)
    got = regress_all_subjects(shape, acoustic)
    assert [r.degenerate for r in got] == [False, False, True, False, False, False]
    assert got[2].r == got[2].r_squared == 0.0
    assert_same_regressions(got, loop_regress_all_subjects(shape, acoustic))


def test_linear_regression_is_bitwise_the_loop():
    rng = np.random.default_rng(11)
    cases = [list(zip(rng.normal(size=n), rng.normal(size=n))) for n in (2, 3, 7, 40)]
    cases += [[(0, 1), (1, 1), (2, 1)], [(1, 2), (2, 4), (3, 6)], [(0, 0), (1, 1), (2, 1)]]
    for pairs in cases:
        assert_same_regressions([linear_regression(pairs, "s")],
                                [loop_linear_regression(pairs, "s")])
    for pairs, message in (([(1, 0), (1, 1)], "all equal"), ([(1, 1)], "at least 2"),
                           ([], "at least 2")):
        with pytest.raises(ValueError, match=message):
            linear_regression(pairs)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 10, 50, 300])
def test_to_csv_is_bytewise_the_loop(m):
    rng = np.random.default_rng(m)
    matrix = random_matrix(m, rng)
    assert matrix.to_csv() == loop_to_csv(matrix)
    stds = np.abs(random_matrix(m, rng).values)
    acoustic = SimilarityMatrix(matrix.ids, matrix.values, stds=stds)
    assert acoustic.to_csv() == loop_to_csv(acoustic)


def test_to_csv_of_odd_cells_is_bytewise_the_loop():
    values = tri_matrix([-0.0, 5e-324, np.nan, 2.2250738585072014e-308, -1.0, 1 / 3],
                        ids=("a", "b", "c", "d")).values
    stds = np.full((4, 4), np.nan)
    upper = np.triu_indices(4, 1)
    stds[upper] = [1e300, np.nan, 0.0, -0.0, 5e-324, np.nan]
    stds.T[upper] = stds[upper]
    for matrix in (SimilarityMatrix(("a", "b", "c", "d"), values),
                   SimilarityMatrix(("a", "b", "c", "d"), values, stds)):
        assert matrix.to_csv() == loop_to_csv(matrix)
    text = matrix.to_csv()
    # a NaN mean hides its std; a NaN std leaves the mean alone
    assert "\na,,-0.0±1e+300,5e-324,\n" in text
    assert "\nb,-0.0±1e+300,,2.2250738585072014e-308±-0.0,-1.0±5e-324\n" in text


@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_off_diagonal_pairs_and_statistics_read_the_upper_triangle(m):
    matrix = random_matrix(m, np.random.default_rng(m))
    want = [(a, b, matrix.cell(a, b))
            for k, a in enumerate(matrix.ids) for b in matrix.ids[k + 1:]]
    assert [v for _, _, v in want] == matrix.values[np.triu_indices(m, 1)].tolist()
    if m >= 2:
        st = matrix_statistics(matrix, matrix.ids[:2])
        assert st.overall_mean == float(np.array([v for _, _, v in want]).mean())
