"""Similarity matrices, per-subject regression, and report emission."""

from importlib import resources

import numpy as np
import pytest

from earcanal.analysis import (
    SimilarityMatrix,
    emit_report,
    linear_regression,
    matrix_statistics,
    regress_all_subjects,
    shape_acoustic_pairs,
)


def tri_matrix(vals, ids=("a", "b", "c"), kind="shape", stds=None):
    m = len(ids)
    v = np.full((m, m), np.nan)
    k = 0
    for i in range(m):
        for j in range(i + 1, m):
            v[i, j] = v[j, i] = vals[k]
            k += 1
    return SimilarityMatrix(tuple(ids), v, kind=kind, stds=stds)


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
        tri_matrix([0.5, 0.4, 0.3], kind="sonic")
    with pytest.raises(ValueError):
        tri_matrix([0.5, 0.4, 0.3], stds=-np.ones((3, 3)))


def test_matrix_lookup():
    m = tri_matrix([0.2, 0.4, 0.6])
    assert m.cell("a", "b") == 0.2
    assert m.cell("c", "a") == 0.4
    assert m.off_diagonal_pairs() == [("a", "b", 0.2), ("a", "c", 0.4), ("b", "c", 0.6)]
    with pytest.raises(ValueError):
        m.cell("a", "a")
    with pytest.raises(KeyError):
        m.index("z")


def test_matrix_csv_round_trip():
    m = tri_matrix([0.2, 1 / 3, 0.6])
    text = m.to_csv(comments=("generated for a round-trip check",))
    assert text.startswith("# generated")
    again = SimilarityMatrix.from_csv(text)
    assert again.kind == "shape"
    assert again.ids == m.ids
    np.testing.assert_array_equal(again.values, m.values)  # repr is exact


def test_matrix_csv_round_trip_with_stds():
    stds = np.full((3, 3), np.nan)
    stds[np.triu_indices(3, 1)] = [0.01, 0.02, 0.03]
    stds[np.tril_indices(3, -1)] = stds.T[np.tril_indices(3, -1)]
    m = tri_matrix([0.2, 0.4, 0.6], kind="acoustic", stds=stds)
    text = m.to_csv()
    assert "0.2±0.01" in text
    again = SimilarityMatrix.from_csv(text)
    assert again.kind == "acoustic"  # inferred from the ± cells
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
    acoustic = tri_matrix([0.5, 0.4, 0.3], kind="acoustic")
    assert shape_acoustic_pairs(shape, acoustic, "b") == [(0.9, 0.5), (0.7, 0.3)]
    assert shape_acoustic_pairs(shape, acoustic, "a") == [(0.9, 0.5), (0.8, 0.4)]


def test_pairing_validation():
    shape = tri_matrix([0.9, 0.8, 0.7])
    other = tri_matrix([0.5, 0.4, 0.3], ids=("a", "b", "z"), kind="acoustic")
    with pytest.raises(ValueError):
        shape_acoustic_pairs(shape, other, "a")
    two = SimilarityMatrix(("a", "b"), np.array([[np.nan, 0.5], [0.5, np.nan]]))
    two_a = SimilarityMatrix(("a", "b"), np.array([[np.nan, 0.5], [0.5, np.nan]]),
                             kind="acoustic")
    with pytest.raises(ValueError):
        shape_acoustic_pairs(two, two_a, "a")


def test_regress_all_subjects_order():
    shape = tri_matrix([0.9, 0.8, 0.7])
    acoustic = tri_matrix([0.5, 0.4, 0.3], kind="acoustic")
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
    assert m.kind == "acoustic"
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
    acoustic = tri_matrix([0.5, 0.4, 0.3], kind="acoustic")
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


def test_failing_report_writes_nothing(tmp_path):
    shape = tri_matrix([0.9, 0.8, 0.7])
    acoustic = tri_matrix([0.5, 0.4, 0.3], kind="acoustic")
    with pytest.raises(ValueError, match="diagonal"):
        emit_report(shape, acoustic, tmp_path / "out", designated_pair=("a", "a"))
    assert not (tmp_path / "out").exists()


def test_emit_report_is_deterministic(tmp_path):
    shape = tri_matrix([0.913, 0.87, 0.7003])
    acoustic = tri_matrix([0.51, 0.42, 0.39], kind="acoustic")
    emit_report(shape, acoustic, tmp_path / "one", designated_pair=("a", "b"))
    emit_report(shape, acoustic, tmp_path / "two", designated_pair=("a", "b"))
    for f in sorted((tmp_path / "one").iterdir()):
        assert f.read_bytes() == (tmp_path / "two" / f.name).read_bytes(), f.name
